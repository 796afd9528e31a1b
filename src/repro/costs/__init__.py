"""Cost measures: fractional edge covers, ``s(T)``, and estimates.

- :mod:`repro.costs.edge_cover` -- exact fractional edge cover numbers
  via a Fraction-arithmetic simplex on the dual packing LP (the paper
  used GLPK), memoised as floats for the optimisers (``exact`` turns
  them back); integral covers for the non-weighted variant;
- :mod:`repro.costs.cost_model` -- ``s(T)``, the bottleneck plan cost
  ``s(f)`` and the lexicographic plan order of Section 4.1;
- :mod:`repro.costs.cardinality` -- the estimate-based cost measure
  built on catalogue statistics.
"""

from repro.costs.edge_cover import (
    CoverError,
    fractional_edge_cover,
    integral_edge_cover,
)
from repro.costs.cost_model import (
    clear_cover_cache,
    path_cover,
    PlanCost,
    s_plan,
    s_tree,
)
from repro.costs.cardinality import (
    estimate_plan_cost,
    estimate_representation_size,
    Statistics,
)

__all__ = [
    "clear_cover_cache",
    "CoverError",
    "estimate_plan_cost",
    "estimate_representation_size",
    "fractional_edge_cover",
    "integral_edge_cover",
    "path_cover",
    "PlanCost",
    "s_plan",
    "s_tree",
    "Statistics",
]
