"""Execution layer: executors, the union operator, worker functions."""

from __future__ import annotations

import pytest

from repro import ops
from repro.engine import FDB
from repro.exec import ParallelExecutor, SerialExecutor
from repro.exec import worker
from repro.ops.base import OperatorError
from repro.query.query import Query
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


@pytest.fixture(scope="module")
def db():
    return random_database(
        relations=4, attributes=8, tuples=10, domain=5, seed=11
    )


@pytest.fixture(scope="module")
def queries(db):
    return random_spj_queries(
        db, 10, seed=12, max_relations=3, max_equalities=3
    )


def reference_rows(db, query):
    fr = FDB(db, check_invariants=True).evaluate(query)
    return sorted(set(fr.rows(fr.attributes)))


# -- the union operator ----------------------------------------------------


def test_union_requires_identical_trees(db):
    fdb = FDB(db)
    a = fdb.evaluate(Query.make(["R0"]))
    b = fdb.evaluate(Query.make(["R1"]))
    with pytest.raises(OperatorError):
        ops.union(a, b)


def test_union_with_empty_side_returns_other(db):
    fdb = FDB(db)
    query = Query.make(["R0"])
    full = fdb.evaluate(query)
    empty = fdb.evaluate(
        Query.make(["R0"], constants=[("a00", "=", -999)])
    )
    # Same tree only when the constant kept the tree shape; build the
    # empty side over the full tree directly instead.
    from repro.core.factorised import FactorisedRelation

    hollow = FactorisedRelation(full.tree, None)
    assert ops.union(full, hollow).rep is full.rep
    assert ops.union(hollow, full).rep is full.rep
    assert ops.union(hollow, hollow).rep is None
    assert empty.count() == 0


def test_union_of_shard_parts_equals_full_join(db, queries):
    """Per-shard factorised results union to the unsharded result."""
    sdb = ShardedDatabase.from_database(db, shards=3)
    for query in queries:
        fdb = FDB(db)
        tree = fdb.optimal_tree(query)
        parts = [
            worker.evaluate_shard(sdb, True, query, tree, i,
                                  sdb.fanout_relation(query.relations))
            for i in range(3)
        ]
        combined = worker.combine_shards(parts, query, True)
        order = combined.attributes
        assert sorted(set(combined.rows(order))) == reference_rows(
            db, query
        )


def test_union_all_of_nothing_is_none():
    assert ops.union_all([]) is None


def test_combine_shards_rejects_empty_parts(db):
    with pytest.raises(ValueError):
        worker.combine_shards([], Query.make(["R0"]), False)


# -- executors agree with the reference ------------------------------------


def test_serial_executor_matches_reference(db, queries):
    with QuerySession(db, executor=SerialExecutor()) as session:
        for query in queries:
            assert session.run(query).rows() == reference_rows(db, query)


def test_serial_executor_evaluates_the_merged_view(db, queries):
    """No fan-out in the caller: a sharded database is one task per
    query, so no shard span and no union."""
    from repro.obs import Trace, activate
    from repro.ops.union import COUNTERS

    sdb = ShardedDatabase.from_database(db, shards=3)
    before = COUNTERS.snapshot()
    trace = Trace()
    with QuerySession(sdb, executor=SerialExecutor()) as session:
        with activate(trace):
            results = session.run_batch(queries)
    for query, result in zip(queries, results):
        assert result.rows() == reference_rows(db, query)
    names = [record["name"] for record in trace.records]
    assert "factorise" in names
    assert not any(name.endswith("shard") for name in names)
    assert COUNTERS.since(before)["calls"] == 0


def test_every_executor_runs_the_one_execute_loop():
    from repro.exec import Executor
    from repro.net import RemoteExecutor, ReplicatedExecutor

    for cls in (
        SerialExecutor,
        ParallelExecutor,
        RemoteExecutor,
        ReplicatedExecutor,
    ):
        assert cls.execute is Executor.execute, cls


@pytest.mark.parametrize("pool", ["process", "thread"])
def test_parallel_executor_flat_database(db, queries, pool):
    executor = ParallelExecutor(max_workers=2, pool=pool)
    with QuerySession(db, executor=executor) as session:
        results = session.run_batch(queries)
        for query, result in zip(queries, results):
            assert result.engine == "fdb"
            assert result.rows() == reference_rows(db, query)
        assert executor.pool_kind == pool


@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
def test_parallel_executor_sharded_database(db, queries, strategy):
    sdb = ShardedDatabase.from_database(db, shards=3, strategy=strategy)
    executor = ParallelExecutor(max_workers=3)
    with QuerySession(
        sdb, executor=executor, check_invariants=True
    ) as session:
        results = session.run_batch(queries)
        for query, result in zip(queries, results):
            assert result.rows() == reference_rows(db, query)


def test_one_thread_pool_runs_in_the_calling_thread(db, queries):
    """``max_workers=1, pool="thread"`` fans out per (query, shard) like
    any pool but starts no thread: same answers, worker spans still
    come back, and a failing task still raises from ``result()``."""
    import threading

    from repro.obs import Trace, activate

    sdb = ShardedDatabase.from_database(db, shards=3)
    executor = ParallelExecutor(max_workers=1, pool="thread")
    threads = threading.active_count()
    trace = Trace()
    with QuerySession(sdb, executor=executor) as session:
        with activate(trace):
            results = session.run_batch(queries)
        assert executor.pool_kind == "thread"
        assert threading.active_count() == threads
        for query, result in zip(queries, results):
            assert result.rows() == reference_rows(db, query)
        shard_spans = [
            r for r in trace.records if r["name"] == "worker:shard"
        ]
        assert len(shard_spans) == 3 * len(queries)
        failed = executor._pool.submit(lambda: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            failed.result()


def test_caller_run_fan_out_reports_the_sum_of_its_shards(
    db, monkeypatch
):
    """Shard tasks that run back to back on the caller add up:
    ``elapsed`` (what ``repro_query_seconds`` and the slow log see)
    used to report only the slowest of them."""
    timings = []
    traced_call = worker.traced_call

    def recording(ctx, fn, *args):
        seconds, result, records = traced_call(ctx, fn, *args)
        timings.append(seconds)
        return seconds, result, records

    monkeypatch.setattr(worker, "traced_call", recording)
    sdb = ShardedDatabase.from_database(db, shards=4)
    executor = ParallelExecutor(max_workers=1, pool="thread")
    query = Query.make(["R0", "R1"], equalities=[("a00", "a02")])
    with QuerySession(sdb, executor=executor) as session:
        result = session.run(query)
    assert len(timings) == 4 and min(timings) > 0
    assert result.elapsed >= sum(timings) > max(timings)


def test_parallel_executor_uses_and_fills_plan_cache(db, queries):
    executor = ParallelExecutor(max_workers=2)
    with QuerySession(db, executor=executor) as session:
        session.run_batch(queries)
        assert session.stats.plan_misses == len(queries)
        session.run_batch(queries)
        assert session.stats.plan_hits == len(queries)
        assert session.stats.plan_misses == len(queries)  # unchanged


def test_parallel_executor_fallback_and_flat_engines(db, queries):
    executor = ParallelExecutor(max_workers=2)
    with QuerySession(
        db, executor=executor, fallback_budget=0.0
    ) as session:
        for query in queries[:3]:
            result = session.run(query)
            assert result.engine == "flat"
            assert result.rows() == reference_rows(db, query)
        assert session.stats.fallbacks == 3
        flat = session.run(queries[0], engine="flat")
        assert flat.engine == "flat"
        lite = session.run(queries[0], engine="sqlite")
        assert lite.engine == "sqlite"
        assert flat.rows() == lite.rows()


def test_parallel_executor_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ParallelExecutor(max_workers=0)
    with pytest.raises(ValueError):
        ParallelExecutor(pool="greenlet")


def test_pool_rebuilt_after_mutation(db, queries):
    mutable = random_database(
        relations=3, attributes=6, tuples=8, domain=4, seed=31
    )
    sdb = ShardedDatabase.from_database(mutable, shards=2)
    executor = ParallelExecutor(max_workers=2)
    with QuerySession(sdb, executor=executor) as session:
        query = Query.make(["R0", "R1"])
        before = session.run(query).count()
        token = executor._token
        sdb.extend_rows(
            "R0", [(97, 98)]
        )
        after = session.run(query)
        assert session.stats.invalidations == 1
        assert executor._token != token  # fresh pool on the new version
        assert after.rows() == reference_rows(sdb, query)
        assert after.count() >= before  # one row was appended


def test_invalid_query_raises_in_caller(db):
    executor = ParallelExecutor(max_workers=2)
    from repro.query.query import QueryError

    with QuerySession(db, executor=executor) as session:
        with pytest.raises(QueryError):
            session.run(Query.make(["R0"], constants=[("zz", "=", 1)]))


def test_empty_batch(db):
    with QuerySession(db, executor=ParallelExecutor()) as session:
        assert session.run_batch([]) == []
