#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, end to end and layer by layer.

Two ways to call it (from the root of a checkout)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--repeat K] [--smoke]

The first form is what ``BENCHMARK.json`` names: one workload in one
process; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The second form runs the first one for every workload,
tracing off and then on, prints every metric by name and unit and the
per-layer tables, writes ``out/results.json`` and exits non-zero if any
op failed; ``--repeat 2`` does it twice and puts both through
``compare.py`` as the repeatability self-check.

See README.md for the definitions; nothing under ``src/`` is edited or
imported except through ``surface.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import harness  # noqa: E402
import spans as spans_mod  # noqa: E402
import surface  # noqa: E402

OUT = os.path.join(HERE, "out")
DEFAULT_SECONDS = 10
SMOKE_SECONDS = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (the tier-1 test)"
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="all-workloads form: run K times"
    )
    parser.add_argument(
        "--out", default=None, help="also write the full result document here"
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


# -- one workload, this process --------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    runner = harness.Runner(
        args.workload,
        args.seed,
        "smoke" if args.smoke else "full",
        trace=bool(args.trace),
    )
    try:
        if args.trace:
            metrics = runner.traced(args.seconds)
        else:
            metrics = runner.measure(args.seconds)
    finally:
        runner.close()  # stops the server child, if any, and waits for it
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": runner.scale,
        "digest": runner.load.digest(),
        "trace": args.trace,
        "samples": runner.samples,
        "setup": runner.setup_parts,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": runner.failed / runner.attempted,
        "errors": runner.errors[:10],
        "metrics": metrics,
    }
    print(
        f"{args.workload} seed={args.seed} digest={doc['digest']} "
        f"trace={args.trace} {json.dumps(runner.samples)}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  {'failed_share':<28} {doc['failed_share']:>14.4f} ratio")
    for error in doc["errors"]:
        print(f"  FAILED {error}")
    if args.trace:
        print(spans_mod.format_layer_table(runner.layer_table))
        print(f"  trace written to {os.path.relpath(runner.trace_path)}")
        if runner.S.unavailable_layers:
            print(f"  unavailable layers: {runner.S.unavailable_layers}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# -- every workload, one child process each ---------------------------------------


def start_child(args: argparse.Namespace, workload: str, trace: int):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"child-{os.getpid()}-{workload}-{trace}.json")
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", path,
    ]  # fmt: skip
    if args.smoke:
        argv.append("--smoke")
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True), path


def finish_child(child, path: str) -> dict:
    stdout, _ = child.communicate()
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))  # everything but the machine-readable line
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(child.args[2:])} exited {child.returncode}")
    with open(path) as handle:
        doc = json.load(handle)
    os.remove(path)
    return doc


def run_all(args: argparse.Namespace) -> dict:
    run = {"seed": args.seed, "scale": "smoke" if args.smoke else "full"}
    run["workloads"] = {}
    for workload in gen.WORKLOADS:
        first = start_child(args, workload, 0)
        if args.smoke:  # nothing is measured: overlap the two children
            second = start_child(args, workload, 1)
            plain = finish_child(*first)
        else:
            plain = finish_child(*first)
            second = start_child(args, workload, 1)
        traced = finish_child(*second)
        run["workloads"][workload] = {
            "digest": plain["digest"],
            "samples": plain["samples"],
            "failed_share": max(plain["failed_share"], traced["failed_share"]),
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        surface.load()
    except surface.SurfaceError as exc:  # nothing to measure: no result
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    runs = [run_all(args) for _ in range(args.repeat)]
    path = args.out or os.path.join(OUT, "results.json")
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    print(f"results written to {os.path.relpath(path)}")
    failed = [
        name
        for run in runs
        for name, result in run["workloads"].items()
        if result["failed_share"] > 0
    ]
    if failed:
        print(f"failed_share > 0 on: {sorted(set(failed))}")
        return 1
    if args.repeat >= 2:
        import compare

        return compare.report({"runs": runs[:1]}, {"runs": runs[1:]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
