"""A unified metrics registry for every tier of the system.

The paper's evaluation is entirely about *where time goes* -- per-
operator restructuring cost (fig 7/8), optimiser time vs evaluation
time (fig 9) -- yet before this module the serving stack could only
answer with scattered ad-hoc counter dicts: ``ServerStats`` on the
network tier, :meth:`~repro.service.session.QuerySession.
cache_counters` on the serving tier, process-wide tallies on the core
tier.  :class:`MetricsRegistry` pulls them behind one snapshot:

- **primitive instruments** -- :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` -- cheap enough for hot paths (an increment is
  one attribute add; a histogram observation is a bisect under a
  lock), created on demand and owned by the registry;
- **collectors** -- callables registered under a namespace whose
  return dict is spliced into the snapshot verbatim.  Existing
  counter owners (``SessionStats``, ``LRUCache``, ``ServerStats``)
  keep their own state and merely *register*; the hand-rolled merge
  sites disappear.

``snapshot()`` returns a plain nested dict (JSON-safe, ships in a
``stats``/``metrics`` wire frame); :meth:`MetricsRegistry.
prometheus_text` renders the same data in the Prometheus text
exposition format for scraping.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default histogram bounds: log-scale latency buckets from 1us to
#: ~67s (x4 per step).  Fixed so snapshots from different processes
#: are mergeable bucket-for-bucket.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 4**i for i in range(14))


class Counter:
    """A monotone counter.  ``inc`` is a single attribute add --
    atomic enough under the GIL for the hot paths that touch it."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go both ways (queue depths, live handles)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram of observations (latencies, sizes).

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or the implicit ``+Inf`` overflow
    bucket.  A lock keeps (count, sum, buckets) mutually consistent --
    observations happen per *query*, not per tuple, so the lock is
    nowhere near any inner loop.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "_lock")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.bounds = tuple(buckets if buckets is not None else LATENCY_BUCKETS)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_right(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def snapshot(self) -> Dict[str, Any]:
        """``{"count", "sum", "buckets": [[le, cumulative], ...]}``
        with a final ``[null, count]`` row for ``+Inf``."""
        with self._lock:
            counts = list(self.counts)
            total = self.total
            count = self.count
        rows: List[List[Any]] = []
        cumulative = 0
        for bound, n in zip(self.bounds, counts):
            cumulative += n
            rows.append([bound, cumulative])
        rows.append([None, count])
        return {"count": count, "sum": total, "buckets": rows}


class Tally:
    """Process-wide named tallies behind one collector namespace.

    For layers whose work is counted in plain local ints and folded in
    once per finished unit (an optimiser search, a factorisation) --
    one lock acquisition per unit, none per step.  ``snapshot`` is the
    collector; ``since`` turns two snapshots into one unit's own share.

    >>> tally = Tally(("searches", "states"))
    >>> before = tally.snapshot()
    >>> tally.add(searches=1, states=40)
    >>> tally.since(before)
    {'searches': 1, 'states': 40}
    """

    __slots__ = ("_lock", "_counts")

    def __init__(self, fields: Sequence[str]) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(fields, 0)

    def add(self, **deltas: int) -> None:
        """Fold one finished unit's tallies in."""
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Tallies added after the snapshot ``before`` was taken."""
        return {
            name: count - before[name]
            for name, count in self.snapshot().items()
        }


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(*parts: str) -> str:
    return _NAME_RE.sub("_", "_".join(p for p in parts if p))


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """Instruments plus collector namespaces behind one snapshot.

    >>> registry = MetricsRegistry()
    >>> registry.counter("frames_total").inc()
    >>> registry.register("union", lambda: {"calls": 3})
    >>> snap = registry.snapshot()
    >>> snap["metrics"]["frames_total"], snap["union"]
    (1, {'calls': 3})
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Optional[dict]]] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            got = self._counters.get(name)
            if got is None:
                got = self._counters[name] = Counter(name)
            return got

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            got = self._gauges.get(name)
            if got is None:
                got = self._gauges[name] = Gauge(name)
            return got

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            got = self._histograms.get(name)
            if got is None:
                got = self._histograms[name] = Histogram(name, buckets)
            return got

    # -- collectors --------------------------------------------------------

    def register(
        self, namespace: str, collector: Callable[[], Optional[dict]]
    ) -> None:
        """Splice ``collector()`` into every snapshot under
        ``namespace``.  Re-registering a namespace replaces it (a
        restarted server re-registers over its session's registry).
        A collector may return ``None`` -- kept as ``None`` in the
        snapshot so absent subsystems stay visible as absent.
        """
        if namespace == "metrics":
            raise ValueError("'metrics' is reserved for the instruments")
        with self._lock:
            self._collectors[namespace] = collector

    # -- exposition --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as one plain nested dict (JSON-safe)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors.items())
        metrics: Dict[str, Any] = {}
        for counter in counters:
            metrics[counter.name] = counter.value
        for gauge in gauges:
            metrics[gauge.name] = gauge.value
        for histogram in histograms:
            metrics[histogram.name] = histogram.snapshot()
        out: Dict[str, Any] = {"metrics": metrics}
        for namespace, collector in collectors:
            out[namespace] = collector()
        return out

    def prometheus_text(self, prefix: str = "repro") -> str:
        """The snapshot in Prometheus text exposition format.

        Instruments expose under ``<prefix>_<name>``; collector dicts
        are flattened recursively to ``<prefix>_<namespace>_<path>``
        gauges (numeric leaves only -- strings and ``None`` are
        skipped, booleans become 0/1).
        """
        lines: List[str] = []
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors.items())
        for counter in counters:
            name = _prom_name(prefix, counter.name)
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(counter.value)}")
        for gauge in gauges:
            name = _prom_name(prefix, gauge.name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(gauge.value)}")
        for histogram in histograms:
            name = _prom_name(prefix, histogram.name)
            snap = histogram.snapshot()
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in snap["buckets"]:
                le = "+Inf" if bound is None else _prom_value(bound)
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {_prom_value(snap['sum'])}")
            lines.append(f"{name}_count {snap['count']}")
        for namespace, collector in collectors:
            data = collector()
            if data is None:
                continue
            self._flatten(lines, (prefix, namespace), data)
        return "\n".join(lines) + "\n"

    def _flatten(self, lines: List[str], path: Tuple[str, ...], data) -> None:
        for key in sorted(data, key=str):
            value = data[key]
            here = path + (str(key),)
            if isinstance(value, dict):
                self._flatten(lines, here, value)
            elif isinstance(value, bool):
                name = _prom_name(*here)
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {int(value)}")
            elif isinstance(value, (int, float)):
                name = _prom_name(*here)
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_prom_value(value)}")
            # strings, None, lists: identity/provenance, not metrics.
