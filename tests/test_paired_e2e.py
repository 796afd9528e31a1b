"""``scripts/paired_e2e.py`` against two stub checkouts.

A stub checkout holds a ``BENCHMARK.json`` and a
``benchmarks/e2e/run.py`` that logs its seed and ``--trace`` flag and
prints one result line scaled by the checkout's ``SCALE`` file, so the
script's pairing, seeds and per-layer table can be checked without
running the real benchmark.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.conftest import load_script

paired_e2e = load_script("paired_e2e")

SPECS = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25}
    ],
    "per_layer": [
        {"name": "core.consume_ms", "unit": "ms", "better": "lower"},
        {"name": "ops.steps", "unit": "count", "better": "lower"},
        {"name": "ops.union_ms", "unit": "ms", "better": "lower"},
        {"name": "net.rtt_ms", "unit": "ms", "better": "lower"},
    ],
}

RUN = '''
import argparse, json, os
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
scale = float(open(os.path.join(root, "SCALE")).read())
with open(os.path.join(root, "calls.txt"), "a") as log:
    log.write(f"{args.seed} {args.trace}\\n")
if args.trace == "1":
    metrics = {
        "core.consume_ms": {"value": 1.3 * scale, "unit": "ms"},
        "ops.steps": {"value": 555, "unit": "count"},
        "ops.union_ms": {"value": 0.0, "unit": "ms"},
    }
else:
    metrics = {"ops_per_s": {"value": 200 / scale, "unit": "op/s"}}
print("a table line the script must skip")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                  "metrics": metrics}))
'''


def _checkout(root: str, scale: float) -> str:
    os.makedirs(os.path.join(root, "benchmarks", "e2e"))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as handle:
        json.dump(SPECS, handle)
    with open(os.path.join(root, "benchmarks", "e2e", "run.py"), "w") as f:
        f.write(RUN)
    with open(os.path.join(root, "SCALE"), "w") as handle:
        handle.write(str(scale))
    return root


def _calls(root: str):
    with open(os.path.join(root, "calls.txt")) as handle:
        return [tuple(map(int, line.split())) for line in handle]


@pytest.fixture
def checkouts(tmp_path):
    parent = _checkout(str(tmp_path / "parent"), 1.0)
    change = _checkout(str(tmp_path / "change"), 0.5)
    return parent, change


def _main(checkouts, *extra):
    parent, change = checkouts
    return paired_e2e.main(
        [
            "--parent", parent, "--change", change, "--workload", "w",
            "--pairs", "2", "--seeds", "7", "--seconds", "0.1", *extra,
        ]  # fmt: skip
    )


def test_traced_pairs_print_the_non_zero_layer_medians(checkouts, capsys):
    assert _main(checkouts, "--trace-pairs", "2") == 0
    out = capsys.readouterr().out
    # Plain pairs on seeds 7, 8; traced pairs on the next two seeds.
    for root in checkouts:
        assert _calls(root) == [(7, 0), (8, 0), (9, 1), (10, 1)]
    table = out.split("per-layer medians", 1)[1].splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in table[2:]}
    assert rows == {
        "core.consume_ms": ["ms", "1.3", "0.65"],
        "ops.steps": ["count", "555", "555"],
    }


def test_no_traced_pairs_by_default(checkouts, capsys):
    assert _main(checkouts) == 0
    out = capsys.readouterr().out
    assert "per-layer" not in out
    assert "ops_per_s" in out and "gain" not in out  # 2 pairs: no claim
    for root in checkouts:
        assert all(trace == 0 for _, trace in _calls(root))


def test_traced_only_run_prints_layers_and_no_verdict(checkouts, capsys):
    """``--pairs 0 --trace-pairs N``: no untraced series to compare, so
    no verdict table -- just the traced per-layer medians."""
    parent, change = checkouts
    argv = [
        "--parent", parent, "--change", change, "--workload", "w",
        "--pairs", "0", "--trace-pairs", "2", "--seeds", "7",
        "--seconds", "0.1",
    ]  # fmt: skip
    assert paired_e2e.main(argv) == 0
    out = capsys.readouterr().out
    assert "verdict" not in out
    for root in checkouts:
        assert _calls(root) == [(7, 1), (8, 1)]
    table = out.split("per-layer medians", 1)[1].splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in table[2:]}
    assert rows["core.consume_ms"] == ["ms", "1.3", "0.65"]
