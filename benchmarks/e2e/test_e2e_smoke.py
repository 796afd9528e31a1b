"""Tier-1 guard for the benchmark's own surface.

Runs ``run.py --smoke`` (tiny sizes, all six workloads, traced runs
included) so that a PR which breaks a ``repro`` symbol the benchmark
uses fails its own test suite instead of the later measurement.  No
timing is asserted.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_smoke_run_matches_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    results = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(results)],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    (run,) = json.loads(results.read_text())["runs"]

    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(run["workloads"]) == workloads
    for name in workloads + list(end_to_end) + list(per_layer):
        assert NAME.match(name), name
        assert name in done.stdout, f"{name} was not printed"
    for workload, result in run["workloads"].items():
        assert result["failed_share"] == 0, workload
        for group, expected in (
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ):
            got = {k: v["unit"] for k, v in result[group].items()}
            assert got == expected, (workload, group)
    # flat_join and sharded_fanout are the same experiment by digest
    digests = {w: r["digest"] for w, r in run["workloads"].items()}
    assert digests["flat_join"] == digests["sharded_fanout"]
