"""Cross-engine differential harness.

Policy: every engine this repository grows must agree with the others
on the full SPJ space, not just the hand-picked paper workloads.  The
harness draws seeded random SPJ queries (random relation subsets,
non-redundant equalities, constant comparisons over actual attribute
values, random projections) via :mod:`repro.workloads.generator` and
asserts that the factorised engine, its object-at-a-time reference
implementation (:mod:`repro.reference`), the flat relational engine
and the SQLite comparator return exactly the same sorted result
tuples.

All seeds are fixed, so a failure is reproducible by query index.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.engine import FDB
from repro.exec import ParallelExecutor, SerialExecutor
from repro.query.query import Query
from repro.reference import ReferenceEngine
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.sqlite_engine import SQLiteEngine
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries

#: (database seed, query seed, #queries) -- 3 x 20 = 60 >= 50 queries.
BATCHES = [(101, 201, 20), (102, 202, 20), (103, 203, 20)]


def _database(seed: int) -> Database:
    # Small enough that the worst Cartesian product stays cheap, big
    # enough that joins/selections produce non-trivial results.
    return random_database(
        relations=4, attributes=8, tuples=6, domain=5, seed=seed
    )


def _queries(db: Database, seed: int, count: int) -> List[Query]:
    return random_spj_queries(
        db, count, seed=seed, max_relations=3, max_equalities=3
    )


def fdb_rows(
    db: Database, query: Query
) -> Tuple[Tuple[str, ...], List[tuple]]:
    """FDB result as (sorted attribute order, sorted distinct rows)."""
    fr = FDB(db, check_invariants=True).evaluate(query)
    order = fr.attributes
    return order, sorted(set(fr.rows(order)))


def reference_rows(
    db: Database, query: Query
) -> Tuple[Tuple[str, ...], List[tuple]]:
    """The reference implementation's result, as :func:`fdb_rows`."""
    fr = ReferenceEngine(db, check_invariants=True).evaluate(query)
    order = fr.attributes
    return order, sorted(set(fr.rows(order)))


def flat_rows(db: Database, query: Query, order) -> List[tuple]:
    relation = RelationalEngine(db).evaluate(query)
    perm = [relation.schema.index_of(a) for a in order]
    return sorted(
        {tuple(row[i] for i in perm) for row in relation.rows}
    )


def sqlite_rows(
    engine: SQLiteEngine, db: Database, query: Query, order
) -> List[tuple]:
    rows = engine.evaluate(query)
    if query.projection is not None:
        columns = list(query.projection)
    else:
        columns = [
            attr
            for name in query.relations
            for attr in db[name].attributes
        ]
    perm = [columns.index(a) for a in order]
    return sorted({tuple(row[i] for i in perm) for row in rows})


@pytest.mark.parametrize("db_seed,query_seed,count", BATCHES)
def test_engines_agree_on_random_spj_queries(
    db_seed, query_seed, count
):
    db = _database(db_seed)
    queries = _queries(db, query_seed, count)
    assert len(queries) == count
    with SQLiteEngine(db) as sqlite:
        for index, query in enumerate(queries):
            order, expected = fdb_rows(db, query)
            context = f"seed {db_seed}/{query_seed} query {index}: {query}"
            assert reference_rows(db, query) == (order, expected), context
            assert flat_rows(db, query, order) == expected, context
            assert (
                sqlite_rows(sqlite, db, query, order) == expected
            ), context


def test_harness_covers_at_least_fifty_queries():
    assert sum(count for _, _, count in BATCHES) >= 50


def test_session_facade_matches_direct_engines():
    """The QuerySession facade must not change any engine's answer."""
    db = _database(77)
    queries = _queries(db, 78, 12)
    session = QuerySession(db)
    for query in queries:
        _, expected = fdb_rows(db, query)
        for engine in ("auto", "fdb", "flat", "sqlite"):
            assert session.run(query, engine=engine).rows() == expected
    session.close()


#: Shard counts of the sharded rows: 2 is the old pairwise union, 8 is
#: more parts than most of these unions have entries (empty shards,
#: one-entry columns).
SHARD_COUNTS = [2, 3, 8]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "db_seed,query_seed,count,strategy",
    [
        (101, 201, 20, "hash"),
        (102, 202, 20, "round_robin"),
        (103, 203, 20, "hash"),
    ],
)
def test_sharded_parallel_path_agrees_with_all_engines(
    db_seed, query_seed, count, strategy, shards
):
    """ShardedDatabase + ParallelExecutor joins the harness (PR-1
    policy): the per-shard union path must agree with FDB, the flat
    engine and SQLite on the same seeded random SPJ batches."""
    db = _database(db_seed)
    sharded = ShardedDatabase.from_database(
        db, shards=shards, strategy=strategy
    )
    queries = _queries(db, query_seed, count)
    executor = ParallelExecutor(max_workers=3)
    with QuerySession(
        sharded, executor=executor, check_invariants=True
    ) as session, SQLiteEngine(db) as sqlite:
        results = session.run_batch(queries)
        for index, (query, result) in enumerate(zip(queries, results)):
            order, expected = fdb_rows(db, query)
            context = (
                f"seed {db_seed}/{query_seed} query {index} "
                f"({strategy} x {shards}): {query}"
            )
            assert result.rows() == expected, context
            assert flat_rows(db, query, order) == expected, context
            assert (
                sqlite_rows(sqlite, db, query, order) == expected
            ), context


def test_sharded_serial_path_agrees():
    """The merged view of a ShardedDatabase serves the serial executor
    unchanged -- same answers as the flat database."""
    db = _database(104)
    sharded = ShardedDatabase.from_database(db, shards=4)
    queries = _queries(db, 204, 12)
    with QuerySession(sharded, executor=SerialExecutor()) as session:
        for query in queries:
            _, expected = fdb_rows(db, query)
            assert session.run(query).rows() == expected


def test_saved_then_reloaded_database_agrees(tmp_path):
    """Persistence joins the harness (PR-1 policy): a database that
    went through disk (repro.persist) must answer every seeded random
    SPJ query exactly like the in-memory original, on all engines."""
    from repro import persist

    db = _database(105)
    path = str(tmp_path / "db.fdbp")
    persist.save(db, path)
    reloaded = persist.load(path)
    queries = _queries(db, 205, 15)
    with QuerySession(reloaded) as session, SQLiteEngine(
        reloaded
    ) as sqlite:
        for index, query in enumerate(queries):
            order, expected = fdb_rows(db, query)
            context = f"reloaded db, query {index}: {query}"
            assert session.run(query).rows() == expected, context
            assert (
                flat_rows(reloaded, query, order) == expected
            ), context
            assert (
                sqlite_rows(sqlite, reloaded, query, order) == expected
            ), context


@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
def test_saved_then_reloaded_sharded_parallel_agrees(
    tmp_path, strategy
):
    """A sharded database reloaded from its per-shard files + manifest
    must agree through the ParallelExecutor union path as well."""
    from repro import persist

    db = _database(106)
    sharded = ShardedDatabase.from_database(
        db, shards=3, strategy=strategy
    )
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    reloaded = persist.load(path)
    assert isinstance(reloaded, ShardedDatabase)
    queries = _queries(db, 206, 12)
    executor = ParallelExecutor(max_workers=3)
    with QuerySession(
        reloaded, executor=executor, check_invariants=True
    ) as session:
        results = session.run_batch(queries)
        for index, (query, result) in enumerate(zip(queries, results)):
            _, expected = fdb_rows(db, query)
            context = (
                f"reloaded sharded ({strategy}), query {index}: {query}"
            )
            assert result.rows() == expected, context


def test_session_fallback_path_agrees():
    """Forcing the explosion fallback must not change results."""
    db = _database(55)
    queries = _queries(db, 56, 10)
    # fallback_budget=0 routes every auto query to the flat engine.
    session = QuerySession(db, fallback_budget=0.0)
    for query in queries:
        _, expected = fdb_rows(db, query)
        result = session.run(query)
        assert result.engine == "flat"
        assert result.rows() == expected
    assert session.stats.fallbacks == len(queries)


def test_fdb_agrees_with_the_reference_implementation():
    """FDB vs ``repro.reference`` (PR-1 policy): on the same seeded
    random SPJ batches the engine, served through a session, gives
    exactly the answers of the object-at-a-time reference, the flat
    engine and SQLite."""
    db = _database(107)
    queries = _queries(db, 207, 20)
    with QuerySession(
        db, check_invariants=True
    ) as session, SQLiteEngine(db) as sqlite:
        for index, query in enumerate(queries):
            order, expected = reference_rows(db, query)
            context = f"FDB vs reference, query {index}: {query}"
            assert session.run(query).rows() == expected, context
            assert flat_rows(db, query, order) == expected, context
            assert (
                sqlite_rows(sqlite, db, query, order) == expected
            ), context


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
def test_sharded_parallel_path_agrees_with_the_reference(strategy, shards):
    """The sharded + parallel union path (the level-synchronous
    ``union_arenas`` kernel) against the reference implementation."""
    db = _database(108)
    sharded = ShardedDatabase.from_database(
        db, shards=shards, strategy=strategy
    )
    queries = _queries(db, 208, 15)
    executor = ParallelExecutor(max_workers=3)
    with QuerySession(
        sharded,
        executor=executor,
        check_invariants=True,
    ) as session:
        results = session.run_batch(queries)
        for index, (query, result) in enumerate(zip(queries, results)):
            _, expected = reference_rows(db, query)
            context = (
                f"sharded vs reference ({strategy} x {shards}), "
                f"query {index}: {query}"
            )
            assert result.rows() == expected, context


@pytest.mark.parametrize(
    "db_seed,query_seed,count",
    [(110, 210, 20), (111, 211, 20), (112, 212, 15)],
)
def test_served_path_agrees_with_all_engines(
    db_seed, query_seed, count
):
    """The network tier joins the harness (PR-1 policy): a query that
    went client -> server -> arena engine -> wire -> client must
    return exactly the rows of FDB, the flat engine and SQLite.
    3 x (20+20+15) = 55 >= 50 queries."""
    from repro.net import RemoteSession, ServerThread

    db = _database(db_seed)
    queries = _queries(db, query_seed, count)
    session = QuerySession(db, check_invariants=True)
    with ServerThread(session) as server, RemoteSession(
        server.address
    ) as client, SQLiteEngine(db) as sqlite:
        results = client.run_batch(queries)
        for index, (query, result) in enumerate(zip(queries, results)):
            order, expected = fdb_rows(db, query)
            context = (
                f"served, seed {db_seed}/{query_seed} "
                f"query {index}: {query}"
            )
            assert result.rows() == expected, context
            assert flat_rows(db, query, order) == expected, context
            assert (
                sqlite_rows(sqlite, db, query, order) == expected
            ), context


@pytest.mark.parametrize(
    "db_seed,query_seed,count,strategy",
    [
        (113, 213, 17, "hash"),
        (114, 214, 17, "round_robin"),
        (115, 215, 16, "hash"),
    ],
)
def test_remote_executor_multi_worker_path_agrees(
    tmp_path, db_seed, query_seed, count, strategy
):
    """Multi-host shard execution joins the harness (PR-1 policy):
    two shard-worker servers, each having loaded the sharded database
    from its per-shard FDBP files, evaluated through a RemoteExecutor
    coordinator, must agree with FDB, the flat engine, SQLite *and*
    the in-process sharded-parallel union path.
    17+17+16 = 50 >= 50 queries."""
    from repro import persist
    from repro.net import RemoteExecutor, ServerThread

    db = _database(db_seed)
    sharded = ShardedDatabase.from_database(
        db, shards=3, strategy=strategy
    )
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    queries = _queries(db, query_seed, count)
    worker_a = QuerySession(persist.load(path))
    worker_b = QuerySession(persist.load(path))
    with ServerThread(worker_a) as server_a, ServerThread(
        worker_b
    ) as server_b, SQLiteEngine(db) as sqlite:
        executor = RemoteExecutor(
            [server_a.address, server_b.address], timeout=60
        )
        local = QuerySession(
            ShardedDatabase.from_database(
                db, shards=3, strategy=strategy
            ),
            executor=ParallelExecutor(max_workers=3),
        )
        with QuerySession(
            sharded, executor=executor, check_invariants=True
        ) as session, local:
            results = session.run_batch(queries)
            local_results = local.run_batch(queries)
            for index, (query, result, local_result) in enumerate(
                zip(queries, results, local_results)
            ):
                order, expected = fdb_rows(db, query)
                context = (
                    f"remote, seed {db_seed}/{query_seed} "
                    f"({strategy}) query {index}: {query}"
                )
                assert result.rows() == expected, context
                assert local_result.rows() == expected, context
                assert flat_rows(db, query, order) == expected, context
                assert (
                    sqlite_rows(sqlite, db, query, order) == expected
                ), context
        assert executor.remote_tasks > 0
        assert executor.local_fallbacks == 0


@pytest.mark.parametrize(
    "db_seed,query_seed,count,strategy",
    [
        (116, 216, 17, "hash"),
        (117, 217, 17, "round_robin"),
        (118, 218, 16, "hash"),
    ],
)
def test_replicated_cluster_with_one_dead_worker_agrees(
    tmp_path, db_seed, query_seed, count, strategy
):
    """The cluster tier joins the harness (PR-1 policy): a 3-worker
    replicated ring (R=2, consistent-hash shard ownership), with the
    busiest primary worker killed between sub-batches, must keep
    agreeing with FDB, the flat engine and SQLite -- the surviving
    replicas absorb the dead worker's shards via retries, with zero
    local degrades.  17+17+16 = 50 >= 50 queries."""
    from repro import persist
    from repro.net import (
        ClusterMap,
        RemoteSession,
        ReplicatedExecutor,
        ServerThread,
    )

    db = _database(db_seed)
    shards = 3
    sharded = ShardedDatabase.from_database(
        db, shards=shards, strategy=strategy
    )
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    queries = _queries(db, query_seed, count)
    servers = [
        ServerThread(
            QuerySession(persist.load(path)),
            owned_shards=[],
        )
        for _ in range(3)
    ]
    keys = [f"{h}:{p}" for h, p in (s.address for s in servers)]
    cmap = ClusterMap(keys, shards, replication_factor=2)
    assignments = cmap.assignments()
    for key, server in zip(keys, servers):
        if assignments[key]:
            with RemoteSession(server.address) as client:
                client.own_shards(assignments[key])
    primaries = [cmap.replicas_for(s)[0] for s in range(shards)]
    victim = keys.index(max(keys, key=primaries.count))
    executor = ReplicatedExecutor(
        keys,
        replication_factor=2,
        timeout=60,
        backoff_base=0.01,
        quarantine_seconds=60,
        seed=db_seed,
    )
    half = count // 2
    try:
        with SQLiteEngine(db) as sqlite, QuerySession(
            sharded, executor=executor, check_invariants=True
        ) as session:
            results = list(session.run_batch(queries[:half]))
            servers[victim].stop()  # a primary dies between batches
            results += list(session.run_batch(queries[half:]))
            for index, (query, result) in enumerate(
                zip(queries, results)
            ):
                order, expected = fdb_rows(db, query)
                context = (
                    f"cluster, seed {db_seed}/{query_seed} "
                    f"({strategy}) query {index}: {query}"
                )
                assert result.rows() == expected, context
                assert flat_rows(db, query, order) == expected, context
                assert (
                    sqlite_rows(sqlite, db, query, order) == expected
                ), context
        assert executor.remote_tasks > 0
        assert executor.retries > 0
        assert executor.degrade_to_local == 0
    finally:
        for server in servers:
            try:
                server.stop()
            except Exception:
                pass


def test_arena_saved_then_reloaded_results_agree(tmp_path):
    """Factorised results that went to disk as arena blobs answer
    follow-up reads exactly like the in-memory originals."""
    from repro import persist

    db = _database(109)
    queries = _queries(db, 209, 10)
    with QuerySession(db) as session:
        for index, query in enumerate(queries):
            result = session.run(query, engine="fdb")
            fr = result.factorised
            if fr is None:
                continue
            path = str(tmp_path / f"result-{index}.fdbp")
            persist.save(fr, path)
            reloaded = persist.load(path)
            _, expected = fdb_rows(db, query)
            order = reloaded.attributes
            assert (
                sorted(set(reloaded.rows(order))) == expected
            ), f"reloaded arena result, query {index}: {query}"


@pytest.mark.parametrize("db_seed,query_seed,count", BATCHES)
def test_fplans_on_factorised_input_agree_with_the_reference(
    db_seed, query_seed, count
):
    """Force every query through the factorised-input path: factorise
    the bare join first, then run selections/projection as an f-plan
    over it, in the engine (one compiled kernel chain) and in the
    reference (operator at a time).  Both must match each other, the
    one-shot engines and SQLite."""
    db = _database(db_seed)
    sqlite = SQLiteEngine(db)
    arena_engine = FDB(db)
    object_engine = ReferenceEngine(db)
    restructured = 0
    for index, query in enumerate(_queries(db, query_seed, count)):
        base = Query.make(query.relations)
        tree = object_engine.optimal_tree(base)
        arena_fr = arena_engine.factorise_query(base, tree=tree)
        object_fr = object_engine.factorise_query(base, tree=tree)
        followup = Query.make(
            [],
            equalities=[
                (eq.left, eq.right) for eq in query.equalities
            ],
            constants=[
                (c.attribute, c.op, c.value) for c in query.constants
            ],
            projection=query.projection,
        )
        context = (
            f"f-plans, seed {db_seed}/{query_seed} "
            f"query {index}: {query}"
        )
        arena_out, arena_plan = arena_engine.evaluate_on(
            arena_fr, followup
        )
        object_out, object_plan = object_engine.evaluate_on(
            object_fr, followup
        )
        assert str(arena_plan) == str(object_plan), context
        if arena_plan.steps:
            restructured += 1
        order, expected = fdb_rows(db, query)
        assert sorted(set(arena_out.rows(order))) == expected, context
        assert sorted(set(object_out.rows(order))) == expected, context
        assert sqlite_rows(sqlite, db, query, order) == expected, context
    assert restructured >= 3, (
        f"only {restructured} of {count} plans restructured the tree; "
        "the batch is not exercising swap/merge kernels"
    )
