"""repro.obs: observability for every tier of the reproduction.

The paper's entire evaluation is about *where time goes*; this package
makes the serving stack able to answer that question live instead of
only in offline benchmarks.  Three pieces, all near-free on the hot
path:

- :mod:`repro.obs.metrics` -- ``Counter``/``Gauge``/``Histogram``
  instruments plus a :class:`MetricsRegistry` whose collector
  namespaces absorb the previously scattered counters
  (``ServerStats``, session/plan-cache/plan-store/ivm counters)
  behind one ``snapshot()`` and a Prometheus text exposition;
- :mod:`repro.obs.trace` -- contextvar-propagated monotonic-clock
  spans over the query lifecycle (parse -> optimise -> plan cache ->
  per-shard execution -> union -> projection -> serve), carried
  across pool boundaries and the wire so one trace id correlates
  client, server and worker;
- :mod:`repro.obs.profile` -- opt-in per-kernel timing of compiled
  arena plans (``repro explain --profile``), the serving-layer twin
  of the paper's fig 7/8; plus :mod:`repro.obs.slowlog` (structured
  JSON slow-query log, size-capped with keep-one rotation) and
  :mod:`repro.obs.report` (the shared CLI rendering of a snapshot);
- :mod:`repro.obs.cluster` -- the cluster-wide plane:
  :class:`ClusterFederation` scrapes every worker's ``metrics`` wire
  frame into one namespaced view (per-worker liveness + staleness,
  summed/max roll-ups, a per-shard heat map drawn against the
  replica chains) and :func:`advise` turns that view into concrete
  rebalance recommendations; :mod:`repro.obs.flight` -- the
  :class:`FlightRecorder` bounded ring of structured fault events,
  dumped as JSONL on demand or automatically on loud faults.
"""

from repro.obs.cluster import ClusterFederation, advise
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tally,
)
from repro.obs.profile import PlanProfile, profile_plan
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Trace, activate, context, current, span

__all__ = [
    "LATENCY_BUCKETS",
    "ClusterFederation",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanProfile",
    "advise",
    "profile_plan",
    "SlowQueryLog",
    "Tally",
    "Trace",
    "activate",
    "context",
    "current",
    "span",
]
