"""Figure 8 (Experiment 4): query evaluation on factorised data.

Follow-up queries of L equalities run on factorised inputs (FDB,
executing full-search f-plans) vs one selection scan over the
materialised flat result (RDB).

Expected shapes (paper): FDB result sizes and times track the
factorised input and stay up to four orders of magnitude below RDB's;
the representation quality does not decay across query generations
("sustainable" factorisation); the gap closes when inputs shrink to
~1000 tuples, where both answer in <0.1 s.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.experiments import exp4, format_table
from repro.experiments.exp4 import run_experiment4


def _params():
    if smoke_mode():
        # About a second; every result size in the rows is exact (the
        # plans are the optimiser's, the arenas the kernels'), so
        # ``bench_diff`` can gate them.
        return dict(
            k_values=(2, 4),
            l_values=(1, 2, 3),
            distributions=("uniform",),
            timeout=10.0,
        )
    if full_scale():
        return dict(
            k_values=tuple(range(1, 9)),
            l_values=tuple(range(1, 6)),
            distributions=("uniform", "zipf"),
            timeout=100.0,
        )
    return dict(
        k_values=(2, 4, 6),
        l_values=(1, 2, 3),
        distributions=("uniform",),
        timeout=45.0,
    )


@pytest.mark.benchmark(group="fig8")
def test_fig8_factorised_evaluation(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment4(**_params()), rounds=1, iterations=1
    )
    emit(
        "Figure 8: follow-up queries on factorised (FDB) vs "
        "flat (RDB) results",
        format_table(exp4.headers(), exp4.as_cells(rows)),
    )
    bench_json("fig8_factorised_eval", {"rows": rows}, workload=_params())
    for row in rows:
        # Factorised result never exceeds its flat equivalent.
        if row.flat_result_elements > 0 and not math.isnan(
            row.flat_result_elements
        ):
            assert (
                row.fdb_result_singletons
                <= row.flat_result_elements
            )
    # Sustainability: results of follow-up queries stay factorised
    # (well below the flat size) for the combinatorial small-K rows.
    heavy = [
        r
        for r in rows
        if r.input_equalities <= 2
        and r.flat_result_elements > 10_000
    ]
    for row in heavy:
        assert (
            row.fdb_result_singletons
            <= row.flat_result_elements / 10
        )
