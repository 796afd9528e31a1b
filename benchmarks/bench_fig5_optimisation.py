"""Figure 5 (Experiment 1): query optimisation on flat data.

Left plot: time to find an optimal f-tree for a random query with K
equalities on R relations (A = 40 attributes).  Right plot: the cost
``s(T)`` of the optimal f-tree.

Expected shapes (paper): s(T) = 1 for R <= 2; mostly <= 2 elsewhere,
rarely above; optimisation time under a second for fewer than 8 joins.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.experiments import exp1, format_table
from repro.experiments.exp1 import run_experiment1


def _params():
    if smoke_mode():
        # Far below the per-run time budget, so the search-effort
        # counts in the rows are exact and ``bench_diff`` can gate them.
        return dict(
            relations_values=(2, 4, 6),
            equalities_values=(1, 3, 5),
            attributes=24,
            repeats=2,
        )
    if full_scale():
        return dict(
            relations_values=(1, 2, 3, 4, 5, 6, 7, 8),
            equalities_values=tuple(range(1, 10)),
            attributes=40,
            repeats=5,
        )
    return dict(
        relations_values=(1, 2, 4, 6, 8),
        equalities_values=(1, 3, 5, 7, 9),
        attributes=40,
        repeats=2,
    )


@pytest.mark.benchmark(group="fig5")
def test_fig5_optimal_ftree_search(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment1(**_params()), rounds=1, iterations=1
    )
    emit(
        "Figure 5: optimal f-tree time and cost s(T)",
        format_table(exp1.headers(), exp1.as_cells(rows)),
    )
    bench_json("fig5_optimisation", {"rows": rows}, workload=_params())
    # Paper shapes: cost 1 for up to two relations, never wild.
    for row in rows:
        if row.relations <= 2:
            assert row.max_cost == 1.0
        assert row.max_cost <= 3.0


@pytest.mark.benchmark(group="fig5")
@pytest.mark.parametrize("relations", [2, 4, 8])
def test_fig5_single_configuration(benchmark, relations):
    """Per-R timing point (K = 5, A = 40) for the benchmark table."""

    def run():
        return run_experiment1(
            relations_values=(relations,),
            equalities_values=(5,),
            attributes=40,
            repeats=1,
        )

    rows = benchmark(run)
    assert rows and rows[0].relations == relations
