#!/usr/bin/env python3
"""Compare two sets of ``BENCH_*.json`` artifacts and flag regressions.

Every benchmark in this repository writes a machine-readable
``BENCH_<name>.json`` (see ``benchmarks/conftest.bench_json``).  This
script diffs a *baseline* directory (typically the committed
``benchmarks/baselines/``) against a *current* directory (a fresh run,
e.g. CI's ``bench-results/``) and exits non-zero when a gated metric
regresses by more than the threshold (default 20%), closing the
ROADMAP's "cross-PR comparison script" item.

Metric classes
--------------
- **deterministic** (gated): sizes, counts, bytes, compression ratios
  -- anything reproducible from the seeded workloads.  A deviation
  beyond the threshold in *either* direction fails: it means the
  benchmark's behaviour changed, which must be an intentional baseline
  update, never an accident.  So does a baseline metric the current
  run no longer emits (a missing timing or environment metric is a
  note).
- **timing-derived** (informational by default): wall-clock seconds
  and the speedups computed from them.  Shared CI runners are too
  noisy to gate on; pass ``--strict-timing`` to gate them too (useful
  on quiet dedicated hardware).
- **environment-bound** (informational): memory footprints, which vary
  with the interpreter version.

Documents whose provenance stamps differ -- ``scale`` (a smoke
baseline against a full run), ``workload`` (different experiment
shape), ``bench_schema`` (different document layout) or ``benchmark``
-- are skipped entirely, with the mismatching stamps reported, so a
diff can never silently compare two different experiments.  A python
version difference is reported as an informational note only (CI runs
a version matrix against one committed baseline).

Usage::

    python scripts/bench_diff.py benchmarks/baselines bench-results
    python scripts/bench_diff.py old/ new/ --threshold 0.1 --strict-timing

Exit codes: 0 = no regressions, 1 = regressions found, 2 = nothing to
compare (misconfiguration).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Iterator, List, Tuple

#: Keys that never carry comparable measurements.
IGNORED_KEYS = {
    "unix_time",
    "python",
    "platform",
    "scale",
    "benchmark",
    "bench_schema",
    "workload",
}

#: Provenance keys that must agree before any metric is compared; a
#: mismatch means the two documents describe different experiments
#: (different workload shape, document schema or bench identity), so
#: diffing their numbers would be silently meaningless.
PROVENANCE_KEYS = ("benchmark", "bench_schema", "scale", "workload")

#: Substrings marking a metric as timing-derived (informational unless
#: --strict-timing).  Speedups and gains are ratios *of timings*, so
#: they inherit the noise.
TIMING_MARKERS = (
    "seconds", "speedup", "gain", "elapsed", "time", "q_per_s"
)

#: Substrings marking a metric as environment-bound (never gated).
ENVIRONMENT_MARKERS = ("memory",)

#: Metric name substrings where *higher* is better; everything else
#: numeric is treated as "should match the baseline".
HIGHER_BETTER_MARKERS = ("speedup", "ratio", "reduction", "hits")


def walk_metrics(
    document: object, prefix: str = ""
) -> Iterator[Tuple[str, float]]:
    """Yield (dotted path, numeric value) leaves of a JSON document."""
    if isinstance(document, dict):
        for key, value in sorted(document.items()):
            if key in IGNORED_KEYS and not prefix:
                continue
            path = f"{prefix}.{key}" if prefix else key
            yield from walk_metrics(value, path)
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from walk_metrics(value, f"{prefix}[{i}]")
    elif isinstance(document, bool):
        return
    elif isinstance(document, (int, float)):
        value = float(document)
        if not math.isnan(value):
            yield prefix, value


def classify(path: str) -> str:
    """"deterministic", "timing" or "environment" for a metric path."""
    lowered = path.lower()
    if any(marker in lowered for marker in ENVIRONMENT_MARKERS):
        return "environment"
    if any(marker in lowered for marker in TIMING_MARKERS):
        return "timing"
    return "deterministic"


def higher_is_better(path: str) -> bool:
    lowered = path.lower()
    return any(marker in lowered for marker in HIGHER_BETTER_MARKERS)


def relative_change(baseline: float, current: float) -> float:
    if baseline == current:
        return 0.0
    if baseline == 0.0:
        return math.inf
    return (current - baseline) / abs(baseline)


def compare_documents(
    name: str,
    baseline: Dict,
    current: Dict,
    threshold: float,
    strict_timing: bool,
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, notes) for one artifact pair."""
    regressions: List[str] = []
    notes: List[str] = []
    base_metrics = dict(walk_metrics(baseline))
    curr_metrics = dict(walk_metrics(current))
    for path in sorted(base_metrics):
        kind = classify(path)
        if path not in curr_metrics:
            # A gated count that stops being emitted must not pass.
            line = f"{name}:{path}: metric missing in current run"
            if kind == "deterministic":
                regressions.append(line + " [deterministic]")
            else:
                notes.append(line + f" [{kind}, informational]")
            continue
        base_value = base_metrics[path]
        curr_value = curr_metrics[path]
        change = relative_change(base_value, curr_value)
        if kind == "timing":
            # Gate only the "worse" direction, and only when asked.
            worse = (
                change < -threshold
                if higher_is_better(path)
                else change > threshold
            )
            if worse:
                line = (
                    f"{name}:{path}: {base_value:g} -> {curr_value:g} "
                    f"({change:+.1%})"
                )
                if strict_timing:
                    regressions.append(line + " [timing]")
                else:
                    notes.append(line + " [timing, informational]")
        elif kind == "environment":
            if abs(change) > threshold:
                notes.append(
                    f"{name}:{path}: {base_value:g} -> {curr_value:g} "
                    f"({change:+.1%}) [environment, informational]"
                )
        else:
            if abs(change) > threshold:
                regressions.append(
                    f"{name}:{path}: {base_value:g} -> {curr_value:g} "
                    f"({change:+.1%}) [deterministic]"
                )
    return regressions, notes


def provenance_mismatches(baseline: Dict, current: Dict) -> List[str]:
    """Human-readable reasons these two documents are incomparable
    (empty when their provenance stamps agree)."""
    reasons: List[str] = []
    for key in PROVENANCE_KEYS:
        base_value = baseline.get(key)
        curr_value = current.get(key)
        if base_value != curr_value:
            reasons.append(f"{key}: {base_value!r} vs {curr_value!r}")
    return reasons


def load_documents(directory: str) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    if not os.path.isdir(directory):
        return out
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as f:
                out[entry] = json.load(f)
    return out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json artifact sets for regressions"
    )
    parser.add_argument("baseline", help="directory of baseline artifacts")
    parser.add_argument("current", help="directory of the fresh run")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative change treated as a regression (default 0.20)",
    )
    parser.add_argument(
        "--strict-timing",
        action="store_true",
        help="gate timing-derived metrics too (quiet hardware only)",
    )
    args = parser.parse_args(argv)

    baseline_docs = load_documents(args.baseline)
    current_docs = load_documents(args.current)
    shared = sorted(set(baseline_docs) & set(current_docs))
    if not shared:
        print(
            f"bench-diff: nothing to compare between {args.baseline!r} "
            f"({len(baseline_docs)} artifacts) and {args.current!r} "
            f"({len(current_docs)} artifacts)"
        )
        return 2

    all_regressions: List[str] = []
    compared = 0
    for name in shared:
        base, curr = baseline_docs[name], current_docs[name]
        mismatches = provenance_mismatches(base, curr)
        if mismatches:
            print(
                f"bench-diff: skipping {name}: provenance mismatch "
                f"(the runs describe different experiments):"
            )
            for reason in mismatches:
                print(f"    {reason}")
            continue
        if base.get("python") != curr.get("python"):
            print(
                f"  note: {name}: python {base.get('python')} vs "
                f"{curr.get('python')} [environment, informational]"
            )
        regressions, notes = compare_documents(
            name, base, curr, args.threshold, args.strict_timing
        )
        compared += 1
        for note in notes:
            print(f"  note: {note}")
        for regression in regressions:
            print(f"  REGRESSION: {regression}")
        all_regressions.extend(regressions)
        if not regressions:
            print(f"bench-diff: {name}: ok")

    only_base = sorted(set(baseline_docs) - set(current_docs))
    for name in only_base:
        print(f"bench-diff: warning: {name} missing from the current run")

    if not compared:
        print("bench-diff: no scale-compatible artifact pairs")
        return 2
    if all_regressions:
        print(
            f"bench-diff: {len(all_regressions)} regression(s) beyond "
            f"{args.threshold:.0%} across {compared} artifact(s)"
        )
        return 1
    print(
        f"bench-diff: {compared} artifact(s) within {args.threshold:.0%} "
        f"of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
