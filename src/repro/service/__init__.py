"""The serving layer: cached, batched query sessions.

Separates per-workload cost (optimisation, statistics) from per-query
cost (plan replay) for repeated traffic, and delegates the actual
evaluation to the execution layer (:mod:`repro.exec`) -- see
:mod:`repro.service.session` for the design rationale.
"""

from repro.service.batching import BatchSubmitter
from repro.service.session import (
    CachedPlan,
    QuerySession,
    SessionResult,
    SessionStats,
)

__all__ = [
    "BatchSubmitter",
    "CachedPlan",
    "QuerySession",
    "SessionResult",
    "SessionStats",
]
