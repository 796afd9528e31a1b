"""Cluster robustness cost: healthy ring vs one replica down.

The replicated executor's claim (ISSUE 9 acceptance): losing a single
worker out of a replicated ring must cost availability *nothing* (zero
local degrades -- the surviving replicas own every shard) and
throughput *bounded*: the one-replica-down batch completes within 2x
of the healthy-ring batch on the same pipelined workload.  The retry
machinery, not the coordinator's own CPU, absorbs the failure.

A correctness cross-check runs inline: every answer in both phases
must equal the local in-process evaluation of the same query --
byte-identical degradation is the contract, the benchmark only prices
it.

Scales: default = 3 workers x 24 queries per phase over 6 shards;
smoke = tiny and unasserted (shared CI runners); FDB_BENCH_FULL=1
doubles the workload.
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro import persist
from repro.net import (
    ClusterMap,
    RemoteSession,
    ReplicatedExecutor,
    ServerThread,
)
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


def _params():
    if smoke_mode():
        return dict(queries=6, tuples=6, domain=4, shards=3)
    if full_scale():
        return dict(queries=48, tuples=120, domain=8, shards=6)
    return dict(queries=24, tuples=80, domain=8, shards=6)


WORKERS = 3
REPLICATION = 2


def test_one_replica_down_stays_within_2x_of_healthy(tmp_path):
    p = _params()
    db = random_database(
        relations=4,
        attributes=8,
        tuples=p["tuples"],
        domain=p["domain"],
        seed=171,
    )
    sharded = ShardedDatabase.from_database(db, shards=p["shards"])
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    # Two disjoint phases of fresh queries: a repeat would be served
    # from the delta-maintained result cache with no fan-out at all,
    # and the benchmark would price the cache, not the cluster.
    queries = random_spj_queries(
        db,
        2 * p["queries"],
        seed=172,
        max_relations=3,
        max_equalities=3,
    )
    healthy_queries = queries[: p["queries"]]
    wounded_queries = queries[p["queries"]:]
    with QuerySession(sharded) as reference:
        expected = {str(q): reference.run(q).rows() for q in queries}

    servers = [
        ServerThread(
            QuerySession(persist.load(path)),
            owned_shards=[],
        )
        for _ in range(WORKERS)
    ]
    keys = [f"{h}:{p_}" for h, p_ in (s.address for s in servers)]
    ring = ClusterMap(keys, p["shards"], REPLICATION)
    assignments = ring.assignments()
    for key, server in zip(keys, servers):
        if assignments[key]:
            with RemoteSession(server.address) as client:
                client.own_shards(assignments[key])
    primaries = [
        ring.replicas_for(s)[0] for s in range(p["shards"])
    ]
    victim = keys.index(max(keys, key=primaries.count))
    executor = ReplicatedExecutor(
        keys,
        replication_factor=REPLICATION,
        timeout=120,
        backoff_base=0.01,
        quarantine_seconds=120,
        seed=173,
    )
    try:
        with QuerySession(
            sharded, executor=executor
        ) as coordinator:
            start = time.perf_counter()
            healthy_results = coordinator.run_batch(healthy_queries)
            healthy_seconds = time.perf_counter() - start
            healthy_tasks = executor.remote_tasks
            for query, result in zip(healthy_queries, healthy_results):
                assert result.rows() == expected[str(query)]
            assert executor.degrade_to_local == 0

            servers[victim].stop()  # the busiest primary dies
            start = time.perf_counter()
            wounded_results = coordinator.run_batch(wounded_queries)
            degraded_seconds = time.perf_counter() - start
            for query, result in zip(wounded_queries, wounded_results):
                assert result.rows() == expected[str(query)]
            # Replication absorbed the loss: answers unchanged, zero
            # local degrades, the retries went to surviving replicas.
            assert executor.degrade_to_local == 0
            assert executor.retries > 0
    finally:
        for server in servers:
            try:
                server.stop()
            except Exception:
                pass

    ratio = degraded_seconds / max(healthy_seconds, 1e-9)
    healthy_qps = len(healthy_queries) / max(healthy_seconds, 1e-9)
    degraded_qps = len(wounded_queries) / max(degraded_seconds, 1e-9)
    emit(
        "cluster: healthy ring vs one replica down "
        f"({WORKERS} workers, R={REPLICATION}, {p['shards']} shards)",
        "\n".join(
            [
                f"healthy : {len(healthy_queries)} queries in "
                f"{healthy_seconds:.4f}s ({healthy_qps:.1f} q/s)",
                f"degraded: {len(wounded_queries)} queries in "
                f"{degraded_seconds:.4f}s ({degraded_qps:.1f} q/s)",
                f"slowdown: {ratio:.2f}x  retries={executor.retries}  "
                f"degrade_to_local={executor.degrade_to_local}",
            ]
        ),
    )
    bench_json(
        "cluster",
        {
            # Deterministic contract metrics (gated by bench_diff).
            "queries": len(healthy_queries),
            "workers": WORKERS,
            "replication_factor": REPLICATION,
            "shards": p["shards"],
            "healthy_shard_tasks": healthy_tasks,
            "degrade_to_local": executor.degrade_to_local,
            # Timing metrics (informational: names carry markers).
            "healthy_seconds": healthy_seconds,
            "degraded_seconds": degraded_seconds,
            "healthy_q_per_s": healthy_qps,
            "degraded_q_per_s": degraded_qps,
            "slowdown_time_ratio": ratio,
        },
        workload={
            "queries_per_phase": p["queries"],
            "tuples": p["tuples"],
            "domain": p["domain"],
            "shards": p["shards"],
            "workers": WORKERS,
            "replication_factor": REPLICATION,
        },
    )
    if not smoke_mode():
        assert ratio <= 2.0, (
            f"one replica down cost {ratio:.2f}x "
            f"({healthy_seconds:.3f}s -> {degraded_seconds:.3f}s); "
            f"the acceptance bound is 2x"
        )
