#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): A's and B's value (the
median over the file's runs), B as a ratio of its base A, the bound from
``BENCHMARK.json``, and a verdict:

- ``worse``: B is worse than A by more than the bound;
- ``unresolved``: a side holds several runs and their spread (distance
  between the quartiles with four runs or more, else between the
  extremes, as a share of the median) is wider than the bound, so the
  pair cannot be told apart from noise either way;
- ``ok`` otherwise.

Exit status 1 if any row is ``worse``.  This is a reading aid; the gate
on a performance claim is the paired procedure in README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")


def end_to_end_spec() -> List[dict]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)["end_to_end"]


def spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = min(values), max(values)
    return (high - low) / statistics.median(values)


def values_of(doc: dict, workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in doc["runs"]
        if workload in run["workloads"]
    ]


def rows(a: dict, b: dict) -> List[dict]:
    out = []
    workloads = [
        w for w in a["runs"][0]["workloads"] if w in b["runs"][0]["workloads"]
    ]
    for workload in workloads:
        for spec in end_to_end_spec():
            va = values_of(a, workload, spec["name"])
            vb = values_of(b, workload, spec["name"])
            base, new = statistics.median(va), statistics.median(vb)
            ratio = new / base
            worsening = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            if spreads and max(spreads) > spec["bound"]:
                verdict = "unresolved"
            elif worsening > spec["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            out.append(
                {
                    "workload": workload, "metric": spec["name"],
                    "unit": spec["unit"], "a": base, "b": new, "ratio": ratio,
                    "bound": spec["bound"], "verdict": verdict,
                }  # fmt: skip
            )
    return out


def report(a: dict, b: dict) -> int:
    table = rows(a, b)
    print(
        f"{'workload':<16} {'metric':<12} {'A':>12} {'B':>12}  "
        f"{'B as ratio of A':<24} {'bound':>6}  verdict"
    )
    for row in table:
        base = f"{row['ratio']:.3f}x of {row['a']:.4g} {row['unit']}"
        print(
            f"{row['workload']:<16} {row['metric']:<12} {row['a']:>12.4f} "
            f"{row['b']:>12.4f}  {base:<24} {row['bound']:>6.2f}  "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in table) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs: Dict[str, dict] = {}
    for path in argv:
        with open(path) as handle:
            docs[path] = json.load(handle)
    return report(docs[argv[0]], docs[argv[1]])


if __name__ == "__main__":
    sys.exit(main())
