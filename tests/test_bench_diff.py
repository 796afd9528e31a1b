"""``scripts/bench_diff.py`` sorts every baseline metric into the class
that decides whether it gates."""

from __future__ import annotations

import json
import os

from tests.conftest import load_script

bench_diff = load_script("bench_diff")
BASELINES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baselines",
)


def test_timing_ratios_are_timing_derived():
    # fusion_gain is arena_step_seconds over the fused seconds: a
    # ratio of two timings, as noisy as they are.
    assert bench_diff.classify("fusion_gain") == "timing"
    assert bench_diff.classify("rows[0].greedy_speedup") == "timing"
    assert bench_diff.classify("rows[3].states_expanded") == "deterministic"
    assert bench_diff.classify("peak_memory_mb") == "environment"


def test_every_gain_in_the_baselines_is_timing_derived():
    gains = []
    for entry in sorted(os.listdir(BASELINES)):
        with open(os.path.join(BASELINES, entry), encoding="utf-8") as f:
            document = json.load(f)
        gains += [
            f"{entry}:{path}"
            for path, _ in bench_diff.walk_metrics(document)
            if "gain" in path.lower()
        ]
    assert gains == ["BENCH_plan_pipeline.json:fusion_gain"]
    assert all(
        bench_diff.classify(gain.split(":", 1)[1]) == "timing"
        for gain in gains
    )


def test_a_missing_deterministic_metric_is_a_regression():
    baseline = {
        "rows": [{"entries": 12, "eval_seconds": 0.5}],
        "peak_memory_mb": 40.0,
    }
    regressions, notes = bench_diff.compare_documents(
        "BENCH_x.json", baseline, {"rows": [{}]}, 0.2, False
    )
    assert regressions == [
        "BENCH_x.json:rows[0].entries: metric missing in current run "
        "[deterministic]"
    ]
    assert notes == [
        "BENCH_x.json:peak_memory_mb: metric missing in current run "
        "[environment, informational]",
        "BENCH_x.json:rows[0].eval_seconds: metric missing in current "
        "run [timing, informational]",
    ]
    assert bench_diff.compare_documents(
        "BENCH_x.json", baseline, baseline, 0.2, False
    ) == ([], [])
