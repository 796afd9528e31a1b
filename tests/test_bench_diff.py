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
