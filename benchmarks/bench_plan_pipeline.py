"""Whole-f-plan pipeline benchmark: reference vs kernels vs fused chain.

A restructuring f-plan -- the swap/merge chains behind the Figure 7/8
follow-up selections -- runs as columnar kernels
(:mod:`repro.ops.arena_kernels`).  This benchmark runs the same seeded
restructuring plans three ways on paper-shaped inputs and writes
``BENCH_plan_pipeline.json`` for the cross-PR diff:

- **object**: the operator-at-a-time reference implementation
  (:func:`repro.reference.execute_plan`, the differential oracle);
- **arena steps**: the same plan replayed one columnar kernel at a
  time through the public ``repro.ops`` functions (each step pays its
  own writer + finish);
- **arena fused**: ``FPlan.execute`` -- the whole plan compiled once
  (weakly cached) into a chain of prepared kernels.

The fused-vs-object speedup floor is >= 2x in smoke mode and >= 6x at
default/full scale.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro import ops
from repro.engine import FDB
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.reference import ReferenceEngine, execute_plan
from repro.relational.database import Database
from repro.workloads import (
    combinatorial_database,
    random_followup_equalities,
)


def _params():
    if smoke_mode():
        return dict(
            keys=40, fanout=75, queries=3, equalities=2, repeats=1
        )
    if full_scale():
        return dict(
            keys=150, fanout=300, queries=8, equalities=3, repeats=5
        )
    return dict(
        keys=100, fanout=200, queries=5, equalities=2, repeats=3
    )


def _workloads(p):
    """(label, database, base join query, followup equality lists)."""
    out = []

    db = combinatorial_database(seed=7)
    base = Query.make(db.names)
    tree = FDB(db).optimal_tree(base)
    followups = [
        random_followup_equalities(
            tree, p["equalities"], seed=11 + i
        )
        for i in range(p["queries"])
    ]
    out.append(("combinatorial", db, base, followups))

    # Figure 8 shape: a follow-up equality between two non-root
    # attributes of independently factorised relations; the plan must
    # swap both attributes up before it can merge them.
    keys, fanout = p["keys"], p["fanout"]
    rows = keys * fanout
    ids = max(1, rows // 3)
    hier = Database()
    hier.add_rows(
        "Orders",
        ("oid", "o_key"),
        [(i % ids, i % keys) for i in range(rows)],
    )
    hier.add_rows(
        "Listings",
        ("l_key", "price"),
        [(1000 + (i % ids), i % keys) for i in range(rows)],
    )
    join = parse_query("SELECT * FROM Orders, Listings")
    out.append(
        (
            "hierarchical",
            hier,
            join,
            [[("oid", "price")], [("o_key", "l_key")]],
        )
    )
    return out


_STEP_OPS = {
    "swap": ops.swap,
    "merge": ops.merge,
    "absorb": ops.absorb,
    "push": ops.push_up,
}


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.benchmark(group="plan_pipeline")
def test_plan_pipeline_fused_vs_object():
    p = _params()
    totals = {
        "object_seconds": 0.0,
        "arena_step_seconds": 0.0,
        "arena_fused_seconds": 0.0,
        "plans": 0,
        "plans_with_steps": 0,
        "total_steps": 0,
        "result_tuples": 0,
    }

    for label, db, base, followups in _workloads(p):
        object_engine = ReferenceEngine(db)
        arena_engine = FDB(db)
        tree = object_engine.optimal_tree(base)
        object_fr = object_engine.factorise_query(base, tree=tree)
        arena_fr = arena_engine.factorise_query(base, tree=tree)

        for pairs in followups:
            plan = object_engine.plan_for(tree, pairs)
            totals["plans"] += 1
            if plan.steps:
                totals["plans_with_steps"] += 1
                totals["total_steps"] += len(plan.steps)

            object_secs, object_out = _best_of(
                p["repeats"], lambda: execute_plan(plan, object_fr)
            )

            def arena_stepwise():
                current = arena_fr
                for step in plan.steps:
                    current = _STEP_OPS[step.kind](current, *step.args)
                return current

            step_secs, step_out = _best_of(
                p["repeats"], arena_stepwise
            )
            fused_secs, fused_out = _best_of(
                p["repeats"], lambda: plan.execute(arena_fr)
            )

            # Correctness before speed, at every scale.
            count = object_out.count()
            assert step_out.count() == fused_out.count() == count, (
                f"{label} plan {plan}"
            )
            assert (
                step_out.size() == fused_out.size() == object_out.size()
            ), f"{label} plan {plan}"
            totals["result_tuples"] += count
            totals["object_seconds"] += object_secs
            totals["arena_step_seconds"] += step_secs
            totals["arena_fused_seconds"] += fused_secs

    fused_speedup = totals["object_seconds"] / max(
        totals["arena_fused_seconds"], 1e-9
    )
    step_speedup = totals["object_seconds"] / max(
        totals["arena_step_seconds"], 1e-9
    )
    fusion_gain = totals["arena_step_seconds"] / max(
        totals["arena_fused_seconds"], 1e-9
    )

    emit(
        "Whole-plan pipeline: restructuring f-plans, object vs arena",
        "\n".join(
            [
                f"plans: {totals['plans']} "
                f"({totals['plans_with_steps']} restructuring, "
                f"{totals['total_steps']} steps), "
                f"{totals['result_tuples']} result tuples",
                f"object:      {totals['object_seconds']:8.4f}s",
                f"arena steps: {totals['arena_step_seconds']:8.4f}s"
                f"  ({step_speedup:5.2f}x)",
                f"arena fused: {totals['arena_fused_seconds']:8.4f}s"
                f"  ({fused_speedup:5.2f}x, "
                f"{fusion_gain:4.2f}x over stepwise)",
            ]
        ),
    )

    assert totals["plans_with_steps"] >= 1, (
        "no followup produced a restructuring plan"
    )
    floor = 2.0 if smoke_mode() else 6.0
    assert fused_speedup >= floor, (
        f"fused arena pipeline only {fused_speedup:.2f}x over the "
        f"object path (floor {floor}x)"
    )

    bench_json(
        "plan_pipeline",
        {
            **totals,
            "fused_speedup": fused_speedup,
            "step_speedup": step_speedup,
            "fusion_gain": fusion_gain,
        },
        workload=_params(),
    )
