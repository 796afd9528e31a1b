#!/usr/bin/env python3
"""Run the paired end-to-end procedure of ``benchmarks/e2e/README.md``.

Two checkouts -- a parent and a change -- each run one
``benchmarks/e2e/run.py`` workload per pair, on the same seed and for
the same number of seconds, alternating which side goes first.  The
script prints one row per pair, then per end-to-end metric each side's
median and quartiles, the change's win count and its median delta as a
share of the parent's, and the README's verdict:

- ``gain`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them and its median is better by more than the parent's
  inter-quartile distance;
- ``worse`` -- the median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved`` -- the parent's own spread exceeds that bound;
- ``ok`` otherwise.

With ``--trace-pairs N`` it then runs N more alternating pairs with
``--trace 1`` (seeds after the plain pairs') and prints each side's
median of every per-layer metric of ``BENCHMARK.json`` that is
non-zero on either side -- the traced run that shows in which layer a
saving sits.

Each run is a fresh process in its own checkout, so each side measures
its own ``src``; nothing here imports ``repro`` or edits the benchmark.

Usage::

    python scripts/paired_e2e.py --parent ../parent --change . \\
        --workload flat_join --pairs 10 --seeds 2801 --seconds 10 \\
        --trace-pairs 2

``--seeds S`` is the first seed: pair ``i`` runs seed ``S + i``, traced
pair ``i`` seed ``S + pairs + i``.  Exit code 1 if any op failed on
either side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

SIDES = ("parent", "change")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, required=True, help="first seed")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument(
        "--trace-pairs",
        type=int,
        default=0,
        help="extra alternating --trace 1 pairs: per-layer medians",
    )
    return parser.parse_args(argv)


def metric_specs(checkout: str, kind: str = "end_to_end") -> List[dict]:
    """The ``end_to_end`` metrics (name, unit, better, bound) of a
    checkout, or its ``per_layer`` ones (name, unit, better)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def run_once(
    checkout: str, workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One ``run.py`` process in ``checkout``; its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [
        sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: run.py exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the README computes
    the spread (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec: dict, parent: List[float], change: List[float]) -> dict:
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (cm - pm) if higher else (pm - cm)
    delta = gain / pm if pm else 0.0
    pairs = len(parent)
    if pairs >= 10 and wins * 10 >= 9 * pairs and gain > p3 - p1:
        word = "gain"
    elif -delta > spec["bound"]:
        word = "worse"
    elif pm and (p3 - p1) / pm > spec["bound"]:
        word = "unresolved"
    else:
        word = "ok"
    return dict(
        parent=(p1, pm, p3),
        change=(c1, cm, c3),
        wins=wins,
        delta=delta,
        verdict=word,
    )


def run_pair(args, i: int, seed: int, trace: int) -> Tuple[tuple, dict]:
    """Pair ``i`` on ``seed``: the order the sides ran in (the parent
    first in even pairs) and each side's result document."""
    order = SIDES if i % 2 == 0 else SIDES[::-1]
    docs = {
        side: run_once(
            getattr(args, side), args.workload, seed, args.seconds, trace
        )
        for side in order
    }
    return order, docs


def layer_medians(specs: List[dict], runs: Dict[str, List[dict]]):
    """``(name, unit, parent median, change median)`` of every per-layer
    metric that every traced run reports and that is non-zero on
    either side; ``runs`` holds per side the runs' ``metrics``."""
    for spec in specs:
        name = spec["name"]
        if not all(name in run for side in SIDES for run in runs[side]):
            continue
        parent, change = (
            statistics.median(run[name]["value"] for run in runs[side])
            for side in SIDES
        )
        if parent or change:
            yield name, spec["unit"], parent, change


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = metric_specs(args.change)
    names = [spec["name"] for spec in specs]
    series: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in names} for side in SIDES
    }
    failed = 0
    print(f"{args.workload}, {args.pairs} pairs, --seconds {args.seconds}")
    print("pair seed first   " + "  ".join(f"{n:>21}" for n in names))
    for i in range(args.pairs):
        seed = args.seeds + i
        order, docs = run_pair(args, i, seed, 0)
        for side in SIDES:
            failed += docs[side]["failed"]
            for name in names:
                value = docs[side]["metrics"][name]["value"]
                series[side][name].append(value)
        cells = [
            f"{series['parent'][n][-1]:>10.4g} ->{series['change'][n][-1]:>9.4g}"
            for n in names
        ]
        print(f"{i + 1:>4} {seed:>4} {order[0]:<7} " + "  ".join(cells))
    if args.pairs > 0:  # no untraced series, no verdicts
        print()
        print(
            f"{'metric':<12} {'parent q1/median/q3':>30} "
            f"{'change q1/median/q3':>30} {'wins':>6} {'delta':>8}  verdict"
        )
        for spec in specs:
            name = spec["name"]
            row = verdict(spec, series["parent"][name], series["change"][name])
            sides = [
                "/".join(f"{v:.4g}" for v in row[side]) for side in SIDES
            ]
            print(
                f"{name:<12} {sides[0]:>30} {sides[1]:>30} "
                f"{row['wins']:>3}/{args.pairs:<2} {row['delta']:>+8.1%}  "
                f"{row['verdict']}"
            )
    if args.trace_pairs > 0:
        first = args.seeds + args.pairs
        traced: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for i in range(args.trace_pairs):
            _, docs = run_pair(args, i, first + i, 1)
            for side in SIDES:
                failed += docs[side]["failed"]
                traced[side].append(docs[side]["metrics"])
        print()
        print(
            f"traced, {args.trace_pairs} pairs from seed {first}: "
            "per-layer medians non-zero on either side"
        )
        print(f"{'metric':<28} {'unit':>6} {'parent':>12} {'change':>12}")
        layers = metric_specs(args.change, "per_layer")
        for name, unit, parent, change in layer_medians(layers, traced):
            print(f"{name:<28} {unit:>6} {parent:>12.4g} {change:>12.4g}")
    if failed:
        print(f"failed ops: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
