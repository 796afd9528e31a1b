"""Mutation-differential harness for incremental maintenance.

Policy extension of ``tests/test_differential.py``: the engines must
agree not just on a static database but *across mutations*.  Each
sequence interleaves seeded random mutations (append / delete /
update) with repeated queries drawn from a small pool, so the
session's delta-maintained result cache is constantly caught up and
re-served, and asserts after every step that the served answer is
byte-identical (sorted flat tuples) to

- a fresh factorised recompute (invariants on),
- the flat relational engine, and
- SQLite.

50 sequences run over four paths -- flat, flat recomputed by the
``repro.reference`` implementation instead of a fresh engine, sharded
+ parallel executor, and served over the wire protocol (mutating
through the client's ``mutate`` frames) -- with all seeds fixed, so a failure
reproduces by sequence seed and mutation history.

Alongside the harness: property tests for version monotonicity and
delta-log consistency, shard-view row conservation under incremental
repartitioning, result-cache staleness safety, and the plan-store
regression (a plan survives an absorbable append, dies on a schema
change).
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import persist
from repro.engine import FDB
from repro.exec import ParallelExecutor
from repro.ivm import absorbable, join_query
from repro.query.query import Query
from repro.reference import ReferenceEngine
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.sqlite_engine import SQLiteEngine
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.storage.sharded import stable_row_hash
from repro.workloads import random_database, random_spj_queries

DOMAIN = 5
#: Mutation steps per sequence; each step re-checks two pool queries.
STEPS = 5
#: Queries per sequence pool (reuse is what exercises catch-up).
POOL = 5

#: Sequence seeds per path -- 18 + 12 + 10 + 10 = 50 sequences.
SEQ_FLAT = list(range(18))
SEQ_REFERENCE = list(range(18, 30))
SEQ_SHARDED = list(range(30, 40))
SEQ_SERVED = list(range(40, 50))


def _database(seed: int) -> Database:
    return random_database(
        relations=4, attributes=8, tuples=6, domain=DOMAIN, seed=seed
    )


def _pool(db: Database, seed: int) -> List[Query]:
    return random_spj_queries(
        db, POOL, seed=seed + 10_000, max_relations=3, max_equalities=3
    )


def _seed_params(seeds: List[int], fast: int) -> List:
    """The first ``fast`` seeds stay in the smoke tier; the rest carry
    the ``slow`` marker (full CI job and local full runs only)."""
    return [
        pytest.param(seed)
        if i < fast
        else pytest.param(seed, marks=pytest.mark.slow)
        for i, seed in enumerate(seeds)
    ]


# -- reference evaluations ----------------------------------------------------


def fdb_rows(
    db: Database, query: Query
) -> Tuple[Tuple[str, ...], List[tuple]]:
    """Recompute from scratch: a fresh engine, no caches."""
    fr = FDB(db, check_invariants=True).evaluate(query)
    order = fr.attributes
    return order, sorted(set(fr.rows(order)))


def reference_rows(
    db: Database, query: Query
) -> Tuple[Tuple[str, ...], List[tuple]]:
    """Recompute from scratch in the object-at-a-time reference
    implementation (:mod:`repro.reference`)."""
    fr = ReferenceEngine(db, check_invariants=True).evaluate(query)
    order = fr.attributes
    return order, sorted(set(fr.rows(order)))


def flat_rows(db: Database, query: Query, order) -> List[tuple]:
    relation = RelationalEngine(db).evaluate(query)
    perm = [relation.schema.index_of(a) for a in order]
    return sorted(
        {tuple(row[i] for i in perm) for row in relation.rows}
    )


def sqlite_rows(db: Database, query: Query, order) -> List[tuple]:
    with SQLiteEngine(db) as engine:
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


# -- the mutation generator ---------------------------------------------------


def mutate(db: Database, rng: random.Random, wire=None) -> str:
    """Apply one random mutation; returns a reproducible description.

    With ``wire`` (a :class:`repro.net.client.RemoteSession`), appends
    and deletes travel as ``mutate`` frames so the served path is
    mutated the way a remote writer would; updates have no wire verb
    and go through the shared database object directly.
    """
    name = rng.choice(sorted(rel.name for rel in db))
    relation = db[name]
    kind = rng.choice(("append", "delete", "update"))
    if kind != "append" and len(relation) <= 1:
        kind = "append"  # keep every relation joinable
    if kind == "append":
        fresh = [
            tuple(rng.randint(1, DOMAIN) for _ in relation.attributes)
            for _ in range(rng.randint(1, 3))
        ]
        if wire is not None:
            wire.extend_rows(name, fresh)
        else:
            db.extend_rows(name, fresh)
        return f"append {fresh} to {name}"
    if kind == "delete":
        doomed = rng.sample(
            list(relation.rows),
            rng.randint(1, min(2, len(relation) - 1)),
        )
        if wire is not None:
            wire.delete_rows(name, doomed)
        else:
            db.delete_rows(name, rows=doomed)
        return f"delete {doomed} from {name}"
    attr = rng.choice(relation.attributes)
    index = relation.schema.index_of(attr)
    old = rng.choice(list(relation.rows))[index]
    new = rng.randint(1, DOMAIN)
    db.update_rows(name, lambda row: row[index] == old, {attr: new})
    return f"update {name}.{attr}: {old} -> {new}"


# -- the sequence runner ------------------------------------------------------


def check(
    db: Database,
    query: Query,
    run_query: Callable[[Query], List[tuple]],
    seed: int,
    history: List[str],
    recompute=fdb_rows,
) -> None:
    order, expected = recompute(db, query)
    context = f"seed {seed}, after {history}: {query}"
    assert run_query(query) == expected, context
    assert flat_rows(db, query, order) == expected, context
    assert sqlite_rows(db, query, order) == expected, context


def run_sequence(
    seed: int,
    db: Database,
    run_query: Callable[[Query], List[tuple]],
    wire=None,
    recompute=fdb_rows,
) -> None:
    """One interleaved mutation/query sequence against one path."""
    rng = random.Random(seed)
    pool = _pool(db, seed)
    history: List[str] = []
    for query in pool:  # warm every cache tier pre-mutation
        check(db, query, run_query, seed, history, recompute)
    for _ in range(STEPS):
        history.append(mutate(db, rng, wire=wire))
        for query in rng.sample(pool, 2):
            check(db, query, run_query, seed, history, recompute)


# -- the four paths -----------------------------------------------------------


@pytest.mark.parametrize("seed", _seed_params(SEQ_FLAT, fast=6))
def test_flat_path_sequences(seed):
    db = _database(seed)
    with QuerySession(db, check_invariants=True) as session:
        run_sequence(seed, db, lambda q: session.run(q).rows())
        counters = session.cache_counters()["results"]
        assert counters["hits"] + counters["misses"] > 0


@pytest.mark.parametrize("seed", _seed_params(SEQ_REFERENCE, fast=3))
def test_flat_path_sequences_against_the_reference(seed):
    """The same path, recomputed by :mod:`repro.reference` instead of
    by a fresh engine: a delta-maintained answer must also be what the
    object-at-a-time implementation derives from scratch."""
    db = _database(seed)
    with QuerySession(db, check_invariants=True) as session:
        run_sequence(
            seed,
            db,
            lambda q: session.run(q).rows(),
            recompute=reference_rows,
        )


@pytest.mark.parametrize("seed", _seed_params(SEQ_SHARDED, fast=3))
def test_sharded_parallel_path_sequences(seed):
    strategy = "hash" if seed % 2 == 0 else "round_robin"
    sharded = ShardedDatabase.from_database(
        _database(seed), shards=3, strategy=strategy
    )
    executor = ParallelExecutor(max_workers=3, pool="thread")
    with QuerySession(
        sharded, executor=executor, check_invariants=True
    ) as session:
        run_sequence(seed, sharded, lambda q: session.run(q).rows())


@pytest.mark.parametrize("seed", _seed_params(SEQ_SERVED, fast=3))
def test_served_path_sequences(seed):
    from repro.net import RemoteSession, ServerThread

    db = _database(seed)
    session = QuerySession(db, check_invariants=True)
    with ServerThread(session) as server, RemoteSession(
        server.address
    ) as client:
        run_sequence(
            seed, db, lambda q: client.run(q).rows(), wire=client
        )
        stats = client.stats()
        assert stats["server"]["mutations"] > 0


def test_harness_covers_at_least_fifty_sequences():
    assert (
        len(SEQ_FLAT)
        + len(SEQ_REFERENCE)
        + len(SEQ_SHARDED)
        + len(SEQ_SERVED)
        >= 50
    )


# -- delta maintenance is actually exercised ---------------------------------


@pytest.mark.parametrize(
    "recompute", [fdb_rows, reference_rows], ids=["fdb", "reference"]
)
def test_append_requery_is_delta_maintained(recompute):
    """query -> absorbable append -> same query must be served from
    the caught-up cache entry, not recomputed, and still be exact."""
    db = _database(7)
    with QuerySession(db, check_invariants=True) as session:
        pool = _pool(db, 7)
        for query in pool:
            session.run(query)
        target = pool[0]
        name = target.relations[0]
        relation = db[name]
        db.extend_rows(
            name, [tuple(9 for _ in relation.attributes)]
        )
        result = session.run(target)
        _, expected = recompute(db, target)
        assert result.rows() == expected
        assert result.cached, "append-then-requery must serve warm"
        counters = session.cache_counters()["results"]
        assert counters["delta_merges"] >= 1
        assert counters["delta_rows"] >= 1
        assert session.stats.delta_refreshes == 1


def test_delete_on_referenced_relation_invalidates_entry():
    db = _database(8)
    with QuerySession(db, check_invariants=True) as session:
        pool = _pool(db, 8)
        target = pool[0]
        session.run(target)
        name = target.relations[0]
        db.delete_rows(name, rows=[db[name].rows[0]])
        result = session.run(target)
        _, expected = fdb_rows(db, target)
        assert result.rows() == expected
        counters = session.cache_counters()["results"]
        assert counters["invalidations"] >= 1


def test_mutation_on_unreferenced_relation_keeps_entry():
    """A delete on a relation the query never touches is absorbable
    trivially: the cached entry survives untouched."""
    db = Database()
    db.add_rows("R", ("a", "rb"), [(1, 2), (2, 3)])
    db.add_rows("S", ("sb", "c"), [(2, 5), (3, 7)])
    db.add_rows("U", ("u",), [(1,), (2,)])
    with QuerySession(db, check_invariants=True) as session:
        query = Query.make(
            ["R", "S"], equalities=[("rb", "sb")]
        )
        session.run(query)
        db.delete_rows("U", rows=[(1,)])
        result = session.run(query)
        assert result.cached
        counters = session.cache_counters()["results"]
        assert counters["invalidations"] == 0
        assert counters["hits"] >= 1
        assert sorted(result.rows()) == fdb_rows(db, query)[1]


def test_projection_variants_share_one_join_entry():
    """Entries are keyed on the projection-stripped join, so two
    projections of the same join share one delta-maintained result."""
    db = Database()
    db.add_rows("R", ("a", "rb"), [(1, 2), (2, 3)])
    db.add_rows("S", ("sb", "c"), [(2, 5), (3, 7)])
    with QuerySession(db, check_invariants=True) as session:
        base = Query.make(["R", "S"], equalities=[("rb", "sb")])
        narrow = Query.make(
            ["R", "S"], equalities=[("rb", "sb")], projection=["a"]
        )
        assert (
            join_query(base).canonical_key()
            == join_query(narrow).canonical_key()
        )
        session.run(base)
        result = session.run(narrow)
        assert result.cached
        assert result.rows() == fdb_rows(db, narrow)[1]
        assert session.cache_counters()["results"]["size"] == 1


# -- property tests -----------------------------------------------------------


mutation_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "delete", "update", "noop"]),
        st.integers(min_value=0, max_value=2**30),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=mutation_ops)
@settings(max_examples=40, deadline=None)
def test_version_monotone_and_log_reaches_present(ops):
    """Database.version never decreases, bumps exactly on effective
    mutations, and the delta log always explains the present."""
    db = _database(1)
    start = db.version
    for kind, raw in ops:
        rng = random.Random(raw)
        before = db.version
        if kind == "noop":
            # A delete that matches nothing must not bump the version.
            removed = db.delete_rows(
                "R0", where=lambda row: False
            )
            assert removed == 0
            assert db.version == before
            continue
        if kind == "append":
            db.extend_rows(
                "R1",
                [
                    tuple(
                        rng.randint(1, DOMAIN)
                        for _ in db["R1"].attributes
                    )
                ],
            )
            assert db.version == before + 1
        elif kind == "delete":
            target = db["R2"]
            if len(target) > 1:
                count = db.delete_rows(
                    "R2", rows=[rng.choice(list(target.rows))]
                )
                assert db.version == before + (1 if count else 0)
        else:
            attr = rng.choice(db["R3"].attributes)
            index = db["R3"].schema.index_of(attr)
            pivot = rng.randint(1, DOMAIN)
            changed = db.update_rows(
                "R3",
                lambda row: row[index] == pivot,
                {attr: rng.randint(1, DOMAIN)},
            )
            assert db.version == before + (1 if changed else 0)
        assert db.version >= before
        last = db.delta_log.last()
        if db.version > before:
            assert last is not None and last.version == db.version
    # The log explains the whole walk (well under capacity) ...
    deltas = db.changes_since(start)
    assert deltas is not None
    assert [d.version for d in deltas] == list(
        range(start + 1, db.version + 1)
    )
    # ... reports "nothing changed" at the present ...
    assert db.changes_since(db.version) == []
    # ... and refuses versions from the future.
    assert db.changes_since(db.version + 1) is None


def test_delta_log_truncation_makes_gap_unexplainable():
    db = Database(delta_log_capacity=4)
    db.add_rows("R", ("a",), [(0,)])
    base = db.version
    for i in range(1, 10):
        db.extend_rows("R", [(i,)])
    assert db.changes_since(base) is None  # truncated away
    recent = db.changes_since(db.version - 2)
    assert recent is not None and len(recent) == 2
    assert not absorbable(db.changes_since(base), frozenset({"R"}))


def test_schema_change_in_range_is_unexplainable():
    db = Database()
    db.add_rows("R", ("a",), [(0,)])
    base = db.version
    db.extend_rows("R", [(1,)])
    db.add_rows("S", ("s",), [(5,)])  # schema change
    db.extend_rows("R", [(2,)])
    assert db.changes_since(base) is None
    assert db.changes_since(db.version) == []


@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
@pytest.mark.parametrize("seed", [3, 4])
def test_shard_views_conserve_rows_under_mutation(strategy, seed):
    """Row conservation: after any mutation mix, shard partitions are
    disjoint, union back to the merged view, and (hash) every row
    sits on the shard its content names."""
    sharded = ShardedDatabase.from_database(
        _database(seed), shards=3, strategy=strategy
    )
    rng = random.Random(seed)
    for _ in range(12):
        mutate(sharded, rng)
        for relation in sharded:
            merged = set(relation.rows)
            parts = [
                list(sharded.shard(i)[relation.name].rows)
                for i in range(sharded.shard_count)
            ]
            assert sum(len(p) for p in parts) == len(merged)
            assert set().union(*map(set, parts)) == merged
            if strategy == "hash":
                for i, part in enumerate(parts):
                    for row in part:
                        assert stable_row_hash(row) % 3 == i
    counters = sharded.repartition_counters()
    if strategy == "hash":
        assert counters["delta"] > 0, "hash mutations must be routed"
    else:
        assert counters["delta"] == 0  # round_robin always rebuilds


def test_hash_appends_leave_unaffected_shards_untouched():
    sharded = ShardedDatabase(shards=4, strategy="hash")
    sharded.add_rows("R", ("a", "rb"), [(i, i) for i in range(8)])
    full_before = sharded.repartitions_full
    row = (99, 99)
    home = stable_row_hash(row) % 4
    before = [
        list(sharded.shard(i)["R"].rows) for i in range(4)
    ]
    sharded.extend_rows("R", [row])
    assert sharded.repartitions_full == full_before
    for i in range(4):
        after = list(sharded.shard(i)["R"].rows)
        if i == home:
            assert after == sorted(before[i] + [row])
        else:
            assert after == before[i]


def test_result_cache_never_serves_stale_entries():
    """Staleness safety: whenever the session answers, every cache
    entry it could have served is at the live database version."""
    db = _database(5)
    rng = random.Random(5)
    pool = _pool(db, 5)
    with QuerySession(db, check_invariants=True) as session:
        for step in range(15):
            mutate(db, rng)
            query = rng.choice(pool)
            result = session.run(query)
            _, expected = fdb_rows(db, query)
            assert result.rows() == expected, f"step {step}: {query}"
            served = session._results.lookup(
                query, db, check_invariants=True
            )
            assert served is not None
            assert served.version == db.version


def test_warm_tries_never_serve_stale_rows():
    """The factoriser caches one trie per relation path *on* the
    relation.  With every trie warm before each mutation, the answer
    after it must still be the flat engines' (which share no index
    with it): the mutated relation is a new object without tries, the
    untouched ones keep object and tries."""
    db = _database(6)
    rng = random.Random(6)
    pool = _pool(db, 6)
    with QuerySession(
        db, check_invariants=True
    ) as session:
        for step in range(12):
            for query in pool:  # every access path warm
                FDB(db).evaluate(query)
            before = {relation.name: relation for relation in db}
            history = [mutate(db, rng)]
            replaced = [
                name for name, old in before.items() if db[name] is not old
            ]
            assert len(replaced) <= 1, history
            for name, old in before.items():
                if name in replaced:
                    assert db[name]._tries == {}, history
                else:
                    assert db[name]._tries == old._tries, history
            for query in rng.sample(pool, 2):
                check(
                    db, query, lambda q: session.run(q).rows(), step, history
                )


# -- repro.ivm unit behaviour -------------------------------------------------


def test_delta_view_rejects_unreferenced_relation():
    from repro.ivm import MaintenanceError, delta_view

    db = Database()
    db.add_rows("R", ("a",), [(1,)])
    db.add_rows("S", ("s",), [(2,)])
    query = Query.make(["R"])
    with pytest.raises(MaintenanceError):
        delta_view(db, query, "S", [(3,)])
    view = delta_view(db, query, "R", [(9,)])
    assert list(view["R"].rows) == [(9,)]


def test_apply_deltas_on_current_entry_is_a_noop():
    from repro.ivm import ResultCache, apply_deltas

    db = Database()
    db.add_rows("R", ("a",), [(1,)])
    query = Query.make(["R"])
    fr = FDB(db).evaluate(query)
    cache = ResultCache()
    entry = cache.store(query, db, fr.tree, fr)
    assert apply_deltas(entry, db) == (0, 0)
    assert entry.deltas_applied == 0


def test_result_cache_eviction_and_membership():
    from repro.ivm import ResultCache

    db = Database()
    db.add_rows("R", ("a",), [(1,)])
    db.add_rows("S", ("s",), [(2,)])
    cache = ResultCache(capacity=1)
    with pytest.raises(ValueError):
        ResultCache(capacity=0)
    for name in ("R", "S"):
        query = Query.make([name])
        fr = FDB(db).evaluate(query)
        cache.store(query, db, fr.tree, fr)
    assert cache.counters()["evictions"] == 1
    assert len(cache) == 1
    assert join_query(Query.make(["S"])).canonical_key() in cache
    assert join_query(Query.make(["R"])).canonical_key() not in cache
    cache.clear()
    assert len(cache) == 0
    assert cache.counters()["invalidations"] == 1


# -- plan-store regression ----------------------------------------------------


def test_plan_survives_absorbable_append_dies_on_schema_change(
    tmp_path,
):
    """The cross-process warm start (PR 3/5) must survive an
    absorbable append: a fresh session over the same store serves the
    stored plan via a delta hit.  A schema change rotates the store
    fingerprint, so the same lookup becomes a plain miss and the plan
    is recompiled."""
    db = _database(6)
    query = _pool(db, 6)[0]
    store_path = str(tmp_path / "plans")

    store = persist.PlanStore(store_path)
    with QuerySession(db, plan_store=store) as session:
        session.run(query)
    assert store.counters()["writes"] == 1

    # Absorbable append, then a brand-new session sharing the store.
    name = query.relations[0]
    db.extend_rows(
        name, [tuple(8 for _ in db[name].attributes)]
    )
    warm = persist.PlanStore(store_path)
    with QuerySession(db, plan_store=warm) as session:
        result = session.run(query)
        assert result.rows() == fdb_rows(db, query)[1]
    assert warm.counters()["hits"] == 1
    assert warm.counters()["delta_hits"] == 1
    assert warm.counters()["stale_evictions"] == 0

    # Schema change: the fingerprint rotates, the old entry no longer
    # matches, and the query compiles (and is stored) afresh.
    db.add_rows("Z", ("z",), [(1,)])
    cold = persist.PlanStore(store_path)
    with QuerySession(db, plan_store=cold) as session:
        session.run(query)
    assert cold.counters()["hits"] == 0
    assert cold.counters()["misses"] >= 1
    assert cold.counters()["writes"] == 1


def test_delta_merged_result_runs_fused_plans():
    """A delta-maintained result (a :func:`repro.ops.union` of the
    original result and its catch-up terms) must feed straight into
    the fused compiled-plan path: restructuring selections over it
    stay exact."""
    from itertools import combinations

    db = _database(11)
    with QuerySession(
        db, check_invariants=True
    ) as session:
        pool = _pool(db, 11)
        for query in pool:
            session.run(query)
        target = pool[0]
        name = target.relations[0]
        relation = db[name]
        db.extend_rows(
            name, [tuple(9 for _ in relation.attributes)]
        )
        result = session.run(target)
        assert result.cached, "append-then-requery must serve warm"
        counters = session.cache_counters()["results"]
        assert counters["delta_merges"] >= 1
        fr = result.factorised
        assert fr is not None

    engine = FDB(db)
    order = tuple(sorted(fr.tree.attributes()))
    base_rows = set(fr.rows(order))
    fused = 0
    for a, b in combinations(order, 2):
        followup = Query.make([], equalities=[(a, b)])
        plan = engine.plan_for(fr.tree, [(a, b)])
        if not plan.steps:
            continue
        out, plan = engine.evaluate_on(fr, followup)
        ia, ib = order.index(a), order.index(b)
        expected = sorted(
            {row for row in base_rows if row[ia] == row[ib]}
        )
        assert sorted(set(out.rows(order))) == expected, (
            f"fused plan {plan} over delta-merged result"
        )
        fused += 1
        if fused >= 4:
            break
    assert fused >= 1, "no restructuring plan exercised"
