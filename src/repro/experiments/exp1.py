"""Experiment 1: query optimisation on flat data (Figure 5).

"For schemas with A = 40 attributes over R = 1..8 relations, we
optimised queries of K = 1..9 equality selections" and report (left
plot) the time to find an optimal f-tree and (right plot) the cost
``s(T)`` of the chosen tree.

Expected shape: cost 1 for up to two relations; mostly <= 2 even for
nine equalities on eight relations; optimisation time grows with both
R and K but stays interactive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence

from repro.costs.cost_model import clear_cover_cache
from repro.optimiser.bitspace import COUNTERS
from repro.optimiser.ftree_optimiser import (
    FTreeOptimiser,
    query_classes_and_edges,
)
from repro.workloads.generator import random_database, random_query


@dataclass(frozen=True)
class Exp1Row:
    relations: int
    equalities: int
    mean_time_seconds: float
    mean_cost: float
    max_cost: float
    #: Search effort summed over the repeats (``optimiser`` counters;
    #: exact for a fixed seed unless a run hits its time budget).
    subproblems: int = 0
    pruned: int = 0
    cover_lp_solves: int = 0


def run_experiment1(
    relations_values: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    equalities_values: Sequence[int] = tuple(range(1, 10)),
    attributes: int = 40,
    repeats: int = 5,
    tuples: int = 10,
    seed: int = 0,
    per_run_budget: float = 20.0,
) -> List[Exp1Row]:
    """Figure 5: optimal f-tree time and cost per (R, K).

    The input *data* is irrelevant to this experiment (only the schema
    matters), so tiny relations are generated.  ``per_run_budget``
    bounds each optimisation: past it the DP commits greedily (see
    :class:`FTreeOptimiser`), so a pathological random instance slows
    a sweep by at most the budget.
    """
    rows: List[Exp1Row] = []
    for r in relations_values:
        for k in equalities_values:
            if k > attributes - 1:
                continue
            times: List[float] = []
            costs: List[Fraction] = []
            counted = COUNTERS.snapshot()
            for rep in range(repeats):
                run_seed = seed + 1000 * r + 10 * k + rep
                db = random_database(
                    r, attributes, tuples, seed=run_seed
                )
                query = random_query(db, k, seed=run_seed + 1)
                classes, edges = query_classes_and_edges(db, query)
                clear_cover_cache()
                start = time.perf_counter()
                _, cost = FTreeOptimiser(
                    classes, edges, time_budget=per_run_budget
                ).optimise()
                times.append(time.perf_counter() - start)
                costs.append(cost)
            effort = COUNTERS.since(counted)
            rows.append(
                Exp1Row(
                    relations=r,
                    equalities=k,
                    mean_time_seconds=sum(times) / len(times),
                    mean_cost=sum(float(c) for c in costs)
                    / len(costs),
                    max_cost=float(max(costs)),
                    subproblems=effort["ftree_subproblems"],
                    pruned=effort["ftree_pruned"],
                    cover_lp_solves=effort["cover_lp_solves"],
                )
            )
    return rows


def headers() -> List[str]:
    return ["R", "K", "opt time [s]", "mean s(T)", "max s(T)"]


def as_cells(rows: Iterable[Exp1Row]) -> List[List[object]]:
    return [
        [
            row.relations,
            row.equalities,
            row.mean_time_seconds,
            row.mean_cost,
            row.max_cost,
        ]
        for row in rows
    ]
