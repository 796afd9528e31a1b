"""Query optimisation for factorised data (Section 4).

- :mod:`repro.optimiser.ftree_optimiser` -- optimal f-tree for a query
  on flat input (memoised DP with symmetry reduction; Experiment 1);
- :mod:`repro.optimiser.bitspace` -- the integer coding both searches
  run on (classes as bit positions, class sets as masks) and the
  ``optimiser`` counters;
- :mod:`repro.optimiser.ftree_space` -- exhaustive enumeration of
  normalised f-trees (cross-checks and space-size reporting);
- :mod:`repro.optimiser.fplan` -- f-plans: operator sequences with
  their intermediate f-trees and bottleneck cost;
- :mod:`repro.optimiser.exhaustive` -- Dijkstra over the f-tree space
  (Section 4.2);
- :mod:`repro.optimiser.greedy` -- the polynomial greedy heuristic
  (Section 4.3).
"""

from repro.optimiser.fplan import FPlan, Step
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    optimal_ftree,
    query_classes_and_edges,
)
from repro.optimiser.ftree_space import (
    count_normalised_ftrees,
    enumerate_normalised_ftrees,
)
from repro.optimiser.exhaustive import (
    exhaustive_fplan,
    SearchExhausted,
    target_partition,
)
from repro.optimiser.greedy import greedy_fplan

__all__ = [
    "count_normalised_ftrees",
    "enumerate_normalised_ftrees",
    "exhaustive_fplan",
    "FPlan",
    "FTreeOptimiser",
    "greedy_fplan",
    "optimal_ftree",
    "query_classes_and_edges",
    "SearchExhausted",
    "Step",
    "target_partition",
]
