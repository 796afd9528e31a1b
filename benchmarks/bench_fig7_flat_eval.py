"""Figure 7 (Experiment 3): query evaluation on flat data.

Six panels: result sizes (top) and evaluation times (bottom) for FDB,
RDB and SQLite on (a) three ternary relations of N tuples with uniform
values, (b) the same with Zipf values, (c) the combinatorial four-
relation dataset vs the number K of equalities.

Expected shapes (paper): factorised results are orders of magnitude
smaller than flat results with the gap growing in N (different power-
law exponents); evaluation times are roughly proportional to result
sizes; relational engines hit the timeout on the large many-to-many
configurations (reported as DNF); Zipf slightly widens the gap; on the
combinatorial dataset FDB factorises up to ~5x10^8 flat values into a
few thousand singletons.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.experiments import exp3, format_table
from repro.experiments.exp3 import run_experiment3


def _params():
    if smoke_mode():
        # Seconds, not minutes; every size and ``factorise`` count in
        # the rows is exact, so ``bench_diff`` can gate them.
        return dict(
            sizes=(60, 120),
            k_values=(2, 3),
            distributions=("uniform", "zipf"),
            timeout=10.0,
            max_rows=200_000,
            include_combinatorial=True,
            combinatorial_k=(3, 5),
        )
    if full_scale():
        return dict(
            sizes=(1000, 3162, 10000, 31623, 100000),
            k_values=(2, 3, 4),
            distributions=("uniform", "zipf"),
            timeout=100.0,
            include_combinatorial=True,
            combinatorial_k=tuple(range(1, 9)),
        )
    return dict(
        sizes=(1000, 3162),
        k_values=(2, 3),
        distributions=("uniform", "zipf"),
        timeout=45.0,
        include_combinatorial=True,
        combinatorial_k=(1, 2, 4, 6),
    )


@pytest.mark.benchmark(group="fig7")
def test_fig7_flat_evaluation(benchmark):
    rows = benchmark.pedantic(
        lambda: run_experiment3(**_params()), rounds=1, iterations=1
    )
    emit(
        "Figure 7: sizes and times on flat data "
        "(FDB vs RDB vs SQLite)",
        format_table(exp3.headers(), exp3.as_cells(rows)),
    )
    bench_json("fig7_flat_eval", {"rows": rows}, workload=_params())
    # Shape 1: factorised never larger than flat (modulo empties).
    for row in rows:
        if row.flat_size_elements > 0 and not math.isnan(
            row.flat_size_elements
        ):
            assert row.fdb_size_singletons <= row.flat_size_elements

    # Shape 2: on the combinatorial dataset the gap is dramatic for
    # small K (the paper: 500M values vs <4k singletons).
    combinatorial = [
        r
        for r in rows
        if r.dataset == "combinatorial"
        and r.distribution == "uniform"
        and r.equalities <= 2
        and r.flat_size_elements > 0
    ]
    for row in combinatorial:
        assert (
            row.flat_size_elements
            >= 100 * row.fdb_size_singletons
        )

    # Shape 3: the size gap grows with N on non-empty scaling rows.
    by_k = {}
    for r in rows:
        if (
            r.dataset == "scaling"
            and r.distribution == "uniform"
            and r.fdb_size_singletons > 0
        ):
            by_k.setdefault(r.equalities, []).append(r)
    for series in by_k.values():
        series.sort(key=lambda r: r.tuples)
        if len(series) >= 2:
            first, last = series[0], series[-1]
            ratio_first = (
                first.flat_size_elements
                / max(first.fdb_size_singletons, 1)
            )
            ratio_last = (
                last.flat_size_elements
                / max(last.fdb_size_singletons, 1)
            )
            assert ratio_last >= 0.5 * ratio_first  # non-shrinking gap
