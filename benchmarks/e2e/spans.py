"""Benchmark-owned spans: ``{id, name, layer, op_id, parent, start, end}``.

Spans are recorded from *outside* the program, around the calls the
benchmark makes into each layer's public functions (in-program tracing
is a later issue).  They are kept in memory and written out when the
run ends.  Two kinds:

- in-line spans time a call that is part of the user's op (parse, the
  session call, consuming the result);
- ``replay`` spans time the same work done again, stage by stage,
  through the layer's public entry point right after the op finished.
  They carry the op's ``service.run`` span as ``parent`` although they
  start after it ended: a parent's self time is its duration minus its
  children's durations, i.e. what the staged calls do not explain.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = (
    "query", "optimiser", "core", "ops", "exec", "storage",
    "service", "ivm", "persist", "net",
)  # fmt: skip


class Span:
    """Context manager recording one span into its tracer."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record

    @property
    def id(self) -> int:
        return self.record["id"]

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if self.record["parent"] is None and stack:
            self.record["parent"] = stack[-1]
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        if self.record.get("replay"):
            self.tracer.replay_seconds += (
                self.record["end"] - self.record["start"]
            )
        self.tracer.spans.append(self.record)


class _NullSpan:
    id = None
    record: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; ``enabled=False`` hands out one shared no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        #: Wall time spent inside replay spans (single-client workloads
        #: subtract it from a traced round's wall time).
        self.replay_seconds = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        op_id=None,
        parent: Optional[int] = None,
        replay: bool = False,
        **attrs,
    ):
        if not self.enabled:
            return NULL_SPAN
        record = {
            "id": next(self._ids),
            "name": name,
            "layer": name.split(".", 1)[0],
            "op_id": op_id,
            "parent": parent,
            "start": 0.0,
            "end": 0.0,
        }
        if replay:
            record["replay"] = True
        record.update(attrs)
        return Span(self, record)

    def add(
        self, name: str, op_id, parent: int, start: float, seconds: float, **attrs
    ) -> None:
        """A replay span whose duration was measured elsewhere (the
        offline per-query timings ``served_mix`` splits a request by)."""
        if self.enabled:
            record = self.span(name, op_id, parent, True, **attrs).record
            record.update(start=start, end=start + seconds, synthetic=True)
            self.spans.append(record)

    def reset(self) -> None:
        self.spans = []
        self.replay_seconds = 0.0


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def by_name(spans: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        out[span["name"]].append(span)
    return out


def self_times(spans: List[dict]) -> Dict[int, float]:
    """span id -> duration minus the durations of its direct children."""
    out = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] in out:
            out[span["parent"]] -= duration(span)
    return out


def layer_table(spans: List[dict]) -> Dict[str, dict]:
    """Per layer: span count, busy ms, self ms, share of wall.

    Wall is the summed duration of the root ``op`` spans (what the user
    waited for); a layer's share is its self time over that.  Replay
    spans stand in for the inside of the session call they follow, so
    shares add up to 1 with ``service`` holding whatever the staged
    calls leave unexplained (negative if replaying cost more).
    """
    own = self_times(spans)
    wall = sum(duration(s) for s in spans if s["name"] == "op") or 1.0
    table: Dict[str, dict] = {}
    for span in spans:
        if span["name"] == "op":
            layer = "bench"  # loop and bookkeeping of the benchmark itself
        else:
            layer = span["layer"]
        row = table.setdefault(
            layer, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0, "share": 0.0}
        )
        row["count"] += 1
        row["busy_ms"] += duration(span) * 1e3
        row["self_ms"] += own[span["id"]] * 1e3
    for row in table.values():
        row["share"] = row["self_ms"] / 1e3 / wall
    return table


def format_layer_table(table: Dict[str, dict]) -> str:
    lines = [f"  {'layer':<10} {'count':>7} {'busy ms':>10} {'self ms':>10} {'share':>7}"]
    for layer in sorted(table, key=lambda k: -table[k]["self_ms"]):
        row = table[layer]
        lines.append(
            f"  {layer:<10} {row['count']:>7d} {row['busy_ms']:>10.1f} "
            f"{row['self_ms']:>10.1f} {row['share']:>7.3f}"
        )
    return "\n".join(lines)
