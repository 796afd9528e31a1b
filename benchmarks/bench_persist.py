"""Persistence benchmark: warm-start sessions and on-disk sizes.

Two claims of the persistence layer (:mod:`repro.persist`) are
measured and asserted:

1. **Warm start beats cold compile.**  A cold batch pays the f-tree
   optimiser for every canonical template (Figure 9: optimisation
   dominates).  A *warm-start* batch -- a fresh session, as after a
   process restart, pointed at a populated :class:`~repro.persist.
   PlanStore` -- reads every plan from disk instead of compiling, so
   end-to-end latency must drop.

2. **Factorised files are smaller than flat CSV on hierarchical
   data.**  A factorised representation *is* the compressed form of
   its relation (the Szepkuti/EMBANKS argument for compact physical
   organisation), so serialising the f-rep of a many-to-many join
   result must take fewer bytes than the flattened CSV equivalent --
   the codec applies no compression pass of its own.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.engine import FDB
from repro.persist import PlanStore, load, save
from repro.query.query import Query
from repro.relational.csvio import dump_relation
from repro.relational.database import Database
from repro.service import QuerySession
from repro.workloads import random_database, repeated_query_workload


def _params():
    if smoke_mode():
        return dict(
            relations=3, attributes=6, tuples=6, equalities=2,
            unique=2, total=6, keys=4, fanout=6,
        )
    if full_scale():
        return dict(
            relations=8, attributes=24, tuples=10, equalities=6,
            unique=8, total=48, keys=10, fanout=80,
        )
    return dict(
        relations=6, attributes=20, tuples=10, equalities=6,
        unique=6, total=24, keys=8, fanout=40,
    )


def _setup():
    p = _params()
    db = random_database(
        relations=p["relations"],
        attributes=p["attributes"],
        tuples=p["tuples"],
        domain=20,
        seed=21,
    )
    workload = repeated_query_workload(
        db,
        unique=p["unique"],
        total=p["total"],
        equalities=p["equalities"],
        seed=21,
    )
    return p, db, workload


def _run_batch(db, workload, plan_store=None):
    start = time.perf_counter()
    with QuerySession(db, plan_store=plan_store) as session:
        counts = [r.count() for r in session.run_batch(workload)]
        elapsed = time.perf_counter() - start
        stats = session.stats
    return counts, elapsed, stats


@pytest.mark.benchmark(group="persist")
def test_persist_warm_start_beats_cold_compile(tmp_path):
    p, db, workload = _setup()
    store_dir = str(tmp_path / "plans")

    # Cold compile: no store, every template pays the optimiser.
    cold_counts, cold_time, cold_stats = _run_batch(db, workload)

    # Populate the store (a cold run that also writes through).
    _, populate_time, populate_stats = _run_batch(
        db, workload, PlanStore(store_dir)
    )

    # Warm start: a *fresh* session and store handle -- the situation
    # after a process restart -- reads every plan from disk.
    warm_counts, warm_time, warm_stats = _run_batch(
        db, workload, PlanStore(store_dir)
    )

    emit(
        "Persistence: cold compile vs warm start from a plan store",
        "\n".join(
            [
                f"workload: {len(workload)} queries, "
                f"{cold_stats.plan_misses} canonical templates",
                f"cold (compile every template):  {cold_time:8.3f} s",
                f"cold + write-through store:     {populate_time:8.3f} s",
                f"warm start (store populated):   {warm_time:8.3f} s  "
                f"({cold_time / max(warm_time, 1e-9):5.1f}x, "
                f"{warm_stats.store_hits} store hits)",
            ]
        ),
    )

    bench_json(
        "persist",
        {
            "workload_queries": len(workload),
            "canonical_templates": cold_stats.plan_misses,
            "cold_seconds": cold_time,
            "populate_seconds": populate_time,
            "warm_seconds": warm_time,
            "warm_speedup": cold_time / max(warm_time, 1e-9),
            "store_hits": warm_stats.store_hits,
            "store_writes": populate_stats.store_misses,
        },
        workload=_params(),
    )

    # Correctness: the warm path returns identical results.
    assert warm_counts == cold_counts
    # Every template came from disk; the optimiser never ran warm.
    assert warm_stats.plan_misses == 0
    assert warm_stats.store_hits == cold_stats.plan_misses
    # Acceptance: warm start with a populated store beats cold compile
    # (not timed at smoke scale).
    if not smoke_mode():
        assert warm_time < cold_time, (
            f"warm start not faster: warm {warm_time:.3f}s "
            f"vs cold {cold_time:.3f}s"
        )


@pytest.mark.benchmark(group="persist")
def test_persist_factorised_smaller_than_flat_csv(tmp_path):
    p = _params()
    keys, fanout = p["keys"], p["fanout"]

    # A many-to-many join: `fanout` orders and `fanout` listings per
    # key -- the hierarchical shape factorisation compresses best.
    db = Database()
    db.add_rows(
        "Orders",
        ("oid", "o_key"),
        [(i, i % keys) for i in range(keys * fanout)],
    )
    db.add_rows(
        "Listings",
        ("l_key", "price"),
        [(i % keys, 1000 + i) for i in range(keys * fanout)],
    )
    query = Query.make(
        ["Orders", "Listings"], equalities=[("o_key", "l_key")]
    )
    fr = FDB(db).evaluate(query)

    fact_path = str(tmp_path / "result.fdbp")
    start = time.perf_counter()
    save(fr, fact_path)
    save_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reloaded = load(fact_path)
    load_seconds = time.perf_counter() - start
    assert reloaded.tree == fr.tree
    assert list(reloaded.rows()) == list(fr.rows())

    flat_path = str(tmp_path / "result.csv")
    dump_relation(fr.to_relation("flat"), flat_path)

    fact_bytes = os.path.getsize(fact_path)
    flat_bytes = os.path.getsize(flat_path)

    emit(
        "Persistence: serialised factorised result vs flat CSV",
        "\n".join(
            [
                f"join result: {fr.count()} tuples, "
                f"{fr.size()} singletons",
                f"factorised file: {fact_bytes:10d} B  "
                f"(saved {save_seconds:.4f}s, "
                f"loaded {load_seconds:.4f}s)",
                f"flat CSV:        {flat_bytes:10d} B  "
                f"({flat_bytes / max(fact_bytes, 1):5.1f}x larger)",
            ]
        ),
    )

    bench_json(
        "persist_sizes",
        {
            "result_tuples": fr.count(),
            "result_singletons": fr.size(),
            "factorised_bytes": fact_bytes,
            "flat_csv_bytes": flat_bytes,
            "compression_ratio": flat_bytes / max(fact_bytes, 1),
            "save_seconds": save_seconds,
            "load_seconds": load_seconds,
        },
        workload=p,
    )

    # Structural, not timing-dependent: asserted at every scale.
    assert fact_bytes < flat_bytes, (
        f"factorised file ({fact_bytes} B) not smaller than flat "
        f"CSV ({flat_bytes} B)"
    )
