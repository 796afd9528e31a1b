"""Figure 9 (Experiment 2): optimisation time, full search vs greedy.

Expected shapes (paper): the full-search time grows with the search
space (larger L, smaller K); the greedy heuristic is polynomial and
2-3 orders of magnitude faster.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_json, emit, full_scale
from repro.experiments import exp2, format_table
from repro.experiments.exp2 import run_experiment2


def _params():
    if full_scale():
        return dict(
            k_values=tuple(range(1, 9)),
            l_values=tuple(range(1, 7)),
            repeats=3,
        )
    return dict(k_values=(2, 5), l_values=(1, 2, 4), repeats=2)


@pytest.mark.benchmark(group="fig9")
def test_fig9_optimiser_times(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment2(**_params()), rounds=1, iterations=1
    )
    emit(
        "Figure 9: optimisation time, full search (top) vs greedy",
        format_table(
            ["K", "L", "t full [s]", "t greedy [s]", "speedup"],
            [
                [
                    r.input_equalities,
                    r.query_equalities,
                    r.full_time_seconds,
                    r.greedy_time_seconds,
                    (
                        r.full_time_seconds
                        / max(r.greedy_time_seconds, 1e-9)
                    ),
                ]
                for r in rows
            ],
        ),
    )
    # Greedy must dominate full search overall (paper: 2-3 orders of
    # magnitude); assert on aggregate to tolerate tiny-L noise.
    total_full = sum(r.full_time_seconds for r in rows)
    total_greedy = sum(r.greedy_time_seconds for r in rows)
    bench_json(
        "fig9_optimiser_time",
        {
            "rows": rows,
            "total_full_seconds": total_full,
            "total_greedy_seconds": total_greedy,
            "greedy_speedup": total_full / max(total_greedy, 1e-9),
        },
        workload=_params(),
    )
    assert total_greedy < total_full


@pytest.mark.benchmark(group="fig9")
def test_fig9_greedy_single_point(benchmark):
    """Microbenchmark: one greedy optimisation (K=3, L=3)."""
    from repro.optimiser.ftree_optimiser import (
        FTreeOptimiser,
        query_classes_and_edges,
    )
    from repro.optimiser.greedy import greedy_fplan
    from repro.workloads import (
        random_database,
        random_followup_equalities,
        random_query,
    )

    db = random_database(4, 10, 10, seed=11)
    query = random_query(db, 3, seed=12)
    classes, edges = query_classes_and_edges(db, query)
    tree, _ = FTreeOptimiser(classes, edges).optimise()
    eqs = random_followup_equalities(tree, 3, seed=13)
    plan = benchmark(lambda: greedy_fplan(tree, eqs))
    assert plan.output_tree.satisfies_path_constraint()
