"""Shard/worker scaling: batch throughput across the execution layer.

The ROADMAP's production north-star needs the batch path to scale with
hardware, not just with cache hits.  This benchmark runs one
deduplicated workload through the three-layer stack under increasing
parallelism:

- ``serial``      flat database, :class:`~repro.exec.SerialExecutor`
                  (the PR-1 semantics: every unique query pays the
                  optimiser and evaluates in-process);
- ``workers=N``   flat database, :class:`~repro.exec.ParallelExecutor`
                  (cache-missed compilations and evaluations fan out
                  over N pool workers);
- ``shards=NxN``  :class:`~repro.storage.ShardedDatabase` with N
                  shards and N workers (per-(query, shard) tasks whose
                  factorised results are unioned before projection).

Correctness is asserted unconditionally: every configuration must
return the same per-query tuple counts.  Beside the timings, every
configuration records what its fan-out did in deterministic counts --
``shard_tasks`` (the (query, shard) evaluations) and the ``union``
namespace's ``parts`` / ``entries_in`` / ``entries_out`` (how much
replicated subtree work the recombination collapsed) -- which
``scripts/bench_diff.py`` gates against the committed baseline at any
scale.  The throughput acceptance --
the best parallel configuration beats serial -- is checked whenever
the workload is timed (default and full scale; smoke mode only checks
agreement) and the pool is a real process pool (a thread fallback is
GIL-bound and only proves correctness).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.exec import ParallelExecutor, SerialExecutor
from repro.obs import Trace, activate
from repro.ops.union import COUNTERS as UNION_COUNTERS
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, repeated_query_workload


def _params():
    if smoke_mode():
        # A small domain, so that the tiny joins are not empty and the
        # gated union counts have something to count.
        return dict(
            relations=3, attributes=6, tuples=8, equalities=2,
            unique=3, total=6, workers=2, shards=2, domain=2,
        )
    if full_scale():
        return dict(
            relations=7, attributes=21, tuples=12, equalities=6,
            unique=24, total=48, workers=4, shards=4, domain=20,
        )
    return dict(
        relations=6, attributes=18, tuples=10, equalities=5,
        unique=16, total=24, workers=4, shards=4, domain=20,
    )


def _setup():
    p = _params()
    db = random_database(
        relations=p["relations"],
        attributes=p["attributes"],
        tuples=p["tuples"],
        domain=p["domain"],
        seed=13,
    )
    workload = repeated_query_workload(
        db,
        unique=p["unique"],
        total=p["total"],
        equalities=p["equalities"],
        seed=13,
    )
    return p, db, workload


def _run(db, workload, executor):
    """One cold session end-to-end; returns (counts, seconds, session
    stats, fan-out counts)."""
    unioned = UNION_COUNTERS.snapshot()
    trace = Trace()
    start = time.perf_counter()
    with QuerySession(db, executor=executor) as session:
        with activate(trace):
            results = session.run_batch(workload)
        counts = [r.count() for r in results]
        elapsed = time.perf_counter() - start
        stats = session.stats
    unioned = UNION_COUNTERS.since(unioned)
    fan_out = {
        "shard_tasks": sum(
            record["name"] == "worker:shard" for record in trace.records
        ),
        **{k: unioned[k] for k in ("parts", "entries_in", "entries_out")},
    }
    return counts, elapsed, stats, fan_out


@pytest.mark.benchmark(group="shard-scaling")
def test_shard_scaling_throughput():
    p, db, workload = _setup()

    configs = [
        ("serial", db, SerialExecutor()),
        (
            f"workers={p['workers']}",
            db,
            ParallelExecutor(max_workers=p["workers"]),
        ),
        (
            f"shards={p['shards']}x{p['workers']}",
            ShardedDatabase.from_database(db, shards=p["shards"]),
            ParallelExecutor(max_workers=p["workers"]),
        ),
    ]

    rows = []
    counts_by_label = {}
    times = {}
    pool_kinds = {}
    fan_outs = {}
    for label, database, executor in configs:
        counts, elapsed, stats, fan_out = _run(database, workload, executor)
        counts_by_label[label] = counts
        times[label] = elapsed
        fan_outs[label] = fan_out
        pool_kinds[label] = getattr(executor, "pool_kind", None)
        pool_note = (
            f", {pool_kinds[label]} pool" if pool_kinds[label] else ""
        )
        rows.append(
            f"{label:14s} {elapsed:8.3f} s  "
            f"{len(workload) / max(elapsed, 1e-9):7.1f} q/s  "
            f"({stats.plan_misses} compiled, "
            f"{stats.batch_deduped} deduped{pool_note}; "
            f"{fan_out['shard_tasks']} shard tasks, union "
            f"{fan_out['entries_in']} -> {fan_out['entries_out']} entries "
            f"over {fan_out['parts']} parts)"
        )

    serial_label = configs[0][0]
    parallel_labels = [label for label, _, _ in configs[1:]]
    best_parallel = min(times[label] for label in parallel_labels)
    rows.append(
        f"best parallel vs serial: "
        f"{times[serial_label] / max(best_parallel, 1e-9):.2f}x"
    )
    emit(
        "Shard/worker scaling: batch throughput per configuration",
        "\n".join(
            [
                f"workload: {len(workload)} queries "
                f"({p['unique']} unique templates), "
                f"database: {db.total_size} tuples "
                f"over {len(db)} relations",
                *rows,
            ]
        ),
    )

    payload = {
        "workload_queries": len(workload),
        "unique_templates": p["unique"],
        "database_tuples": db.total_size,
        "seconds": times,
        "pool_kinds": pool_kinds,
        "fan_out": fan_outs,
    }
    if not smoke_mode():
        # Sub-10 ms smoke timings measure pool start-up, not scaling.
        payload["best_parallel_speedup"] = (
            times[serial_label] / max(best_parallel, 1e-9)
        )
    bench_json("shard_scaling", payload, workload=p)

    # Correctness first: every configuration returns the same answers.
    for label, counts in counts_by_label.items():
        assert counts == counts_by_label[serial_label], (
            f"{label} disagrees with {serial_label}"
        )

    # Acceptance: parallelism must pay for itself on a timed workload
    # (smoke mode is too small to time; a thread-fallback pool is
    # GIL-bound and only proves correctness).
    real_pools = all(
        pool_kinds[label] == "process" for label in parallel_labels
    )
    if not smoke_mode() and real_pools:
        assert best_parallel <= times[serial_label], (
            f"parallel execution slower than serial: "
            f"best {best_parallel:.3f}s vs {times[serial_label]:.3f}s"
        )
