"""Experiment 2: query optimisation on factorised data (Figures 6, 9).

Input f-trees are results of queries with K equalities over R = 4
relations with A = 10 attributes; the new queries have L further
equalities over the result's attribute classes (K + L < A).  For each
(K, L) we compare the *full-search* (Section 4.2) and *greedy*
(Section 4.3) optimisers on

- the f-plan cost ``s(f)`` and result f-tree cost ``s(T)`` (Figure 6),
- the optimisation time (Figure 9).

Expected shape: greedy is optimal or near-optimal except for small K
with large L; all average plan costs lie in [1, 2]; greedy runs 2-3
orders of magnitude faster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.costs.cost_model import clear_cover_cache
from repro.optimiser.bitspace import COUNTERS
from repro.optimiser.exhaustive import exhaustive_fplan
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    query_classes_and_edges,
)
from repro.optimiser.greedy import greedy_fplan
from repro.workloads.generator import (
    random_database,
    random_followup_equalities,
    random_query,
)


#: The full search's ``optimiser`` counters reported per row.
_EFFORT = (
    "fplan_states_expanded",
    "fplan_states_generated",
    "cover_lp_solves",
)


@dataclass(frozen=True)
class Exp2Row:
    input_equalities: int  # K
    query_equalities: int  # L
    full_plan_cost: float  # s(f), full search
    full_result_cost: float  # s(T_final), full search
    greedy_plan_cost: float
    greedy_result_cost: float
    full_time_seconds: float
    greedy_time_seconds: float
    #: Full-search effort summed over the repeats (``optimiser``
    #: counters; exact for a fixed seed).
    states_expanded: int = 0
    states_generated: int = 0
    cover_lp_solves: int = 0


def run_experiment2(
    k_values: Sequence[int] = tuple(range(1, 9)),
    l_values: Sequence[int] = tuple(range(1, 7)),
    relations: int = 4,
    attributes: int = 10,
    repeats: int = 3,
    tuples: int = 10,
    seed: int = 0,
) -> List[Exp2Row]:
    """Figures 6 and 9: plan quality and optimisation time."""
    rows: List[Exp2Row] = []
    for k in k_values:
        for l_eq in l_values:
            if k + l_eq >= attributes:
                continue
            samples: List[Tuple[float, float, float, float, float, float]] = []
            effort = dict.fromkeys(_EFFORT, 0)
            for rep in range(repeats):
                run_seed = seed + 997 * k + 31 * l_eq + rep
                db = random_database(
                    relations, attributes, tuples, seed=run_seed
                )
                query = random_query(db, k, seed=run_seed + 1)
                classes, edges = query_classes_and_edges(db, query)
                tree, _ = FTreeOptimiser(classes, edges).optimise()
                try:
                    followups = random_followup_equalities(
                        tree, l_eq, seed=run_seed + 2
                    )
                except ValueError:
                    continue  # result tree too small for L merges

                clear_cover_cache()
                counted = COUNTERS.snapshot()
                start = time.perf_counter()
                full = exhaustive_fplan(tree, followups)
                full_time = time.perf_counter() - start
                spent = COUNTERS.since(counted)
                for name in _EFFORT:
                    effort[name] += spent[name]

                clear_cover_cache()
                start = time.perf_counter()
                greedy = greedy_fplan(tree, followups)
                greedy_time = time.perf_counter() - start

                samples.append(
                    (
                        float(full.cost.bottleneck),
                        float(full.cost.final),
                        float(greedy.cost.bottleneck),
                        float(greedy.cost.final),
                        full_time,
                        greedy_time,
                    )
                )
            if not samples:
                continue
            n = len(samples)
            mean = [sum(col) / n for col in zip(*samples)]
            rows.append(
                Exp2Row(
                    input_equalities=k,
                    query_equalities=l_eq,
                    full_plan_cost=mean[0],
                    full_result_cost=mean[1],
                    greedy_plan_cost=mean[2],
                    greedy_result_cost=mean[3],
                    full_time_seconds=mean[4],
                    greedy_time_seconds=mean[5],
                    states_expanded=effort["fplan_states_expanded"],
                    states_generated=effort["fplan_states_generated"],
                    cover_lp_solves=effort["cover_lp_solves"],
                )
            )
    return rows


def headers() -> List[str]:
    return [
        "K",
        "L",
        "s(f) full",
        "s(T) full",
        "s(f) greedy",
        "s(T) greedy",
        "t full [s]",
        "t greedy [s]",
    ]


def as_cells(rows: Iterable[Exp2Row]) -> List[List[object]]:
    return [
        [
            row.input_equalities,
            row.query_equalities,
            row.full_plan_cost,
            row.full_result_cost,
            row.greedy_plan_cost,
            row.greedy_result_cost,
            row.full_time_seconds,
            row.greedy_time_seconds,
        ]
        for row in rows
    ]
