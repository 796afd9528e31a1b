"""Observability overhead benchmark: tracing must be near-free.

PR 8 threads spans, a metrics registry and a slow-query log through
the hot query path.  The contract that makes that acceptable is that
an *instrumented* session costs (almost) the same as an uninstrumented
one: the contextvar lookup, the handful of ``perf_counter`` pairs per
query and the histogram observe must disappear into the evaluation
cost.  This benchmark runs the same seeded workload through two
otherwise identical sessions -- ``tracing=False`` vs ``tracing=True``
-- interleaved best-of-N, and asserts the traced session is within 5%
of the untraced one (skipped at smoke scale, where per-query work is
too small for the ratio to mean anything on shared runners).

``BENCH_obs.json`` additionally records the deterministic shape of the
instrumentation -- spans per query, traces opened, Prometheus metric
families exported -- so a PR that silently fattens the per-query span
count shows up in the cross-PR diff even when the runner absorbs the
cost.
"""

from __future__ import annotations

import gc
import time

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.net import ReplicatedExecutor, ServerThread
from repro.obs.cluster import ClusterFederation
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


def _params():
    if smoke_mode():
        return dict(tuples=60, queries=4, repeats=2)
    if full_scale():
        return dict(tuples=4000, queries=16, repeats=9)
    return dict(tuples=1500, queries=10, repeats=7)


def _sessions_and_queries(p):
    db = random_database(
        relations=4,
        attributes=8,
        tuples=p["tuples"],
        domain=max(4, p["tuples"] // 8),
        seed=23,
    )
    queries = random_spj_queries(
        db, p["queries"], seed=29, max_relations=3, max_equalities=2
    )
    # result_cache_size=0: repeats must re-evaluate, not replay the
    # ivm cache, or we would be timing a dict lookup in both columns.
    off = QuerySession(
        db, tracing=False, result_cache_size=0
    )
    on = QuerySession(
        db, tracing=True, result_cache_size=0
    )
    return off, on, queries


def _timed(session, query):
    start = time.perf_counter()
    session.run(query)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="obs")
def test_tracing_overhead_is_near_free():
    p = _params()
    off, on, queries = _sessions_and_queries(p)
    try:
        # Warm both plan caches so the measured loop times evaluation,
        # not one-off optimiser runs.
        for session in (off, on):
            for query in queries:
                session.run(query)

        # Per-query best-of, interleaved, GC paused: each query's
        # fastest observed run is its noise floor, and summing those
        # compares the two sessions on identical work.
        best_off = [float("inf")] * len(queries)
        best_on = [float("inf")] * len(queries)
        gc.disable()
        try:
            for _ in range(p["repeats"]):
                for i, query in enumerate(queries):
                    best_off[i] = min(best_off[i], _timed(off, query))
                    best_on[i] = min(best_on[i], _timed(on, query))
        finally:
            gc.enable()
        off_best = sum(best_off)
        on_best = sum(best_on)

        overhead = on_best / max(off_best, 1e-9) - 1.0

        # The deterministic shape of the instrumentation.
        last = on.run(queries[0])
        spans_per_query = len(last.spans or ())
        snapshot = on.snapshot()
        families = on.registry.prometheus_text().count("# TYPE ")
        assert last.trace_id is not None
        assert spans_per_query >= 3
        assert snapshot["metrics"]["traces_total"] > 0
        assert (
            snapshot["metrics"]["query_seconds"]["count"]
            == snapshot["metrics"]["traces_total"]
        )

        if not smoke_mode():
            assert overhead < 0.05, (
                f"tracing overhead {overhead:.1%} >= 5% "
                f"(off {off_best:.4f}s, on {on_best:.4f}s)"
            )

        emit(
            "Observability overhead: tracing off vs on",
            "\n".join(
                [
                    f"queries: {len(queries)} x {p['repeats']} repeats "
                    f"(best-of, interleaved)",
                    f"tracing off: {off_best:8.4f}s",
                    f"tracing on:  {on_best:8.4f}s  "
                    f"({overhead:+.1%} overhead)",
                    f"spans/query: {spans_per_query}, "
                    f"metric families: {families}",
                ]
            ),
        )
        bench_json(
            "obs",
            {
                "off_seconds": off_best,
                "on_seconds": on_best,
                # "_time" suffix: this ratio is timing-derived, so
                # bench_diff must report it, not gate it at 20%.
                "overhead_time": overhead,
                "spans_per_query": spans_per_query,
                "metric_families": families,
                "traces_total": snapshot["metrics"]["traces_total"],
            },
            workload=dict(p, seed=23, relations=4, attributes=8),
        )
    finally:
        off.close()
        on.close()


@pytest.mark.benchmark(group="obs")
def test_federated_scrape_overhead_is_near_free():
    """The cluster observability plane must not tax the serving path.

    A :class:`ClusterFederation` poller scrapes the worker's
    ``metrics`` wire frame on a tight interval while a replicated
    coordinator runs the seeded workload against that same worker.
    Interleaved best-of batches, poller off vs on, within 5% (asserted
    outside smoke scale, same policy as the tracing column above).
    """
    p = _params()
    db = random_database(
        relations=4,
        attributes=8,
        tuples=p["tuples"],
        domain=max(4, p["tuples"] // 8),
        seed=23,
    )
    sharded = ShardedDatabase.from_database(db, shards=4)
    queries = random_spj_queries(
        db, p["queries"], seed=31, max_relations=3, max_equalities=2
    )
    server = ServerThread(QuerySession(sharded))
    key = f"{server.address[0]}:{server.address[1]}"
    executor = ReplicatedExecutor(
        [key], replication_factor=1, timeout=60
    )
    coordinator = QuerySession(
        sharded, executor=executor, result_cache_size=0
    )
    federation = ClusterFederation([key], replication_factor=1)
    try:
        coordinator.run_batch(queries)  # warm plans + connections

        def batch_seconds():
            start = time.perf_counter()
            coordinator.run_batch(queries)
            return time.perf_counter() - start

        best_off = float("inf")
        best_on = float("inf")
        gc.disable()
        try:
            for _ in range(p["repeats"]):
                best_off = min(best_off, batch_seconds())
                federation.start(interval=0.02)
                try:
                    best_on = min(best_on, batch_seconds())
                finally:
                    federation.stop()
        finally:
            gc.enable()
        overhead = best_on / max(best_off, 1e-9) - 1.0

        # The deterministic shape of the federated view.
        federation.poll()
        view = federation.view()
        assert view["live_workers"] == 1
        assert view["shard_count"] == 4
        heat_shards = len(view["heat"]["shards"])
        assert heat_shards > 0, "expected a populated heat map"
        labelled_families = federation.prometheus_text(view).count(
            "# TYPE "
        )

        if not smoke_mode():
            assert overhead < 0.05, (
                f"federated scrape overhead {overhead:.1%} >= 5% "
                f"(off {best_off:.4f}s, on {best_on:.4f}s)"
            )

        emit(
            "Observability overhead: federated scrape off vs on",
            "\n".join(
                [
                    f"batches: {p['repeats']} repeats of "
                    f"{len(queries)} queries (best-of, interleaved; "
                    f"poller at 20ms)",
                    f"poller off: {best_off:8.4f}s",
                    f"poller on:  {best_on:8.4f}s  "
                    f"({overhead:+.1%} overhead)",
                    f"heat shards: {heat_shards}, "
                    f"labelled families: {labelled_families}",
                ]
            ),
        )
        bench_json(
            "obs_federation",
            {
                "off_seconds": best_off,
                "on_seconds": best_on,
                "scrape_overhead_time": overhead,
                "workers": 1,
                "shard_count": 4,
                "heat_shards": heat_shards,
                "labelled_families": labelled_families,
            },
            workload=dict(p, seed=23, relations=4, attributes=8),
        )
    finally:
        federation.stop()
        coordinator.close()
        server.stop()
