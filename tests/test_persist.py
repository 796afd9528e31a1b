"""Tests for the persistence subsystem (:mod:`repro.persist`).

Covers the three pillars of the layer -- codec round trips, the
disk-backed plan store, and session warm start -- plus the failure
modes persistence must never paper over: truncated and corrupt files,
format-version mismatches, foreign files, and stale plan-store
entries.  A corrupted file must raise :class:`PersistError` (never
yield wrong data); a stale store entry must be skipped and evicted.
"""

from __future__ import annotations

import io
import os
import random
import struct

import pytest

from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.exec import ParallelExecutor
from repro.persist import (
    FORMAT_VERSION,
    MAGIC,
    MANIFEST_NAME,
    PersistError,
    PlanStore,
    inspect,
    load,
    save,
    schema_fingerprint,
)
from repro.persist.codec import read_blob, write_blob
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.reference import to_product
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import (
    grocery_database,
    random_database,
    random_query,
    random_spj_queries,
)


def _assert_database_equal(left: Database, right: Database) -> None:
    assert left.schema() == right.schema()
    assert left.version == right.version
    for name in left.names:
        assert left[name].rows == right[name].rows, name


# -- codec round trips -------------------------------------------------------


def test_relation_round_trip(tmp_path):
    relation = Relation.from_rows(
        "R",
        ("a", "b", "c"),
        [
            (1, "x", 2.5),
            (-7, "", 0.0),
            (2**70, "unicode éü", -1),
            (0, "y", True),
            (3, None, False),
        ],
    )
    path = str(tmp_path / "r.fdbp")
    save(relation, path)
    loaded = load(path)
    assert isinstance(loaded, Relation)
    assert loaded.schema == relation.schema
    assert loaded.rows == relation.rows


def test_database_round_trip_preserves_version(tmp_path):
    db = grocery_database()
    db.extend_rows("Orders", [(999, 42)])  # bump the version
    path = str(tmp_path / "db.fdbp")
    save(db, path)
    loaded = load(path)
    assert isinstance(loaded, Database)
    _assert_database_equal(db, loaded)


@pytest.mark.parametrize("strategy", ["hash", "round_robin"])
def test_sharded_database_round_trip(tmp_path, strategy):
    db = ShardedDatabase.from_database(
        random_database(3, 7, 15, seed=31), shards=3, strategy=strategy
    )
    path = str(tmp_path / "sharded")
    save(db, path)
    assert os.path.exists(os.path.join(path, MANIFEST_NAME))
    assert len(os.listdir(path)) == 4  # manifest + 3 shard files
    loaded = load(path)
    assert isinstance(loaded, ShardedDatabase)
    assert loaded.strategy == strategy
    assert loaded.shard_count == db.shard_count
    _assert_database_equal(db, loaded)
    for index in range(db.shard_count):
        for name in db.names:
            assert (
                loaded.shard(index)[name].rows
                == db.shard(index)[name].rows
            )


def test_ftree_round_trip(tmp_path):
    db = grocery_database()
    query = parse_query(
        "SELECT * FROM Orders, Store WHERE o_item = s_item"
    )
    tree = FDB(db).optimal_tree(query)
    path = str(tmp_path / "tree.fdbp")
    save(tree, path)
    loaded = load(path)
    assert isinstance(loaded, FTree)
    assert loaded == tree  # canonical key equality: shape + edges


def test_ftree_round_trip_preserves_constant_nodes(tmp_path):
    tree = FTree.from_nested(
        [("a", [("b", [])])], [{"a", "b"}]
    )
    node = tree.node_of("b").as_constant()
    marked = tree.replace_node(frozenset({"b"}), [node])
    path = str(tmp_path / "tree.fdbp")
    save(marked, path)
    assert load(path) == marked


def test_fplan_round_trip(tmp_path):
    from repro.workloads import random_followup_equalities

    db = random_database(3, 6, 10, seed=7)
    fdb = FDB(db)
    fr = fdb.evaluate(random_query(db, 1, seed=8))
    eqs = random_followup_equalities(fr.tree, 2, seed=9)
    plan = fdb.plan_for(fr.tree, eqs)
    path = str(tmp_path / "plan.fdbp")
    save(plan, path)
    loaded = load(path)
    assert loaded.steps == plan.steps
    assert loaded.input_tree == plan.input_tree
    assert loaded.output_tree == plan.output_tree
    assert loaded.cost == plan.cost
    # The reloaded plan must still execute.
    assert loaded.execute(fr).count() == plan.execute(fr).count()


def test_factorised_relation_round_trip(tmp_path):
    db = grocery_database()
    fr = FDB(db).evaluate(
        parse_query("SELECT * FROM Orders, Store WHERE o_item = s_item")
    )
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    loaded = load(path)
    assert isinstance(loaded, FactorisedRelation)
    assert loaded.tree == fr.tree
    assert to_product(loaded.rep) == to_product(fr.rep)
    assert sorted(loaded.rows()) == sorted(fr.rows())


def test_empty_factorised_relation_round_trip(tmp_path):
    db = grocery_database()
    fr = FDB(db).evaluate(
        parse_query("SELECT * FROM Orders WHERE oid = 987654")
    )
    assert fr.is_empty()
    path = str(tmp_path / "empty.fdbp")
    save(fr, path)
    loaded = load(path)
    assert loaded.is_empty()
    assert loaded.tree == fr.tree


def test_round_trip_property_over_seeded_random_inputs(tmp_path):
    """save(x); load(x) == x over seeded random databases and the
    f-reps of random queries on them (the satellite's property test)."""
    for seed in range(6):
        rng = random.Random(seed)
        db = random_database(
            relations=rng.randint(2, 4),
            attributes=rng.randint(4, 9),
            tuples=rng.randint(3, 12),
            domain=rng.randint(3, 30),
            seed=seed,
        )
        db_path = str(tmp_path / f"db{seed}.fdbp")
        save(db, db_path)
        _assert_database_equal(db, load(db_path))

        sharded = ShardedDatabase.from_database(
            db,
            shards=rng.randint(2, 4),
            strategy=rng.choice(["hash", "round_robin"]),
        )
        sh_path = str(tmp_path / f"sdb{seed}")
        save(sharded, sh_path)
        _assert_database_equal(sharded, load(sh_path))

        for query in random_spj_queries(db, 3, seed=seed + 100):
            fr = FDB(db).evaluate(query)
            fr_path = str(tmp_path / f"fr{seed}.fdbp")
            save(fr, fr_path)
            loaded = load(fr_path)
            assert loaded.tree == fr.tree
            assert to_product(loaded.rep) == to_product(fr.rep)


def test_inspect_reads_header_without_decoding(tmp_path):
    db = grocery_database()
    path = str(tmp_path / "db.fdbp")
    save(db, path)
    info = inspect(path)
    assert info["kind"] == "database"
    assert info["db_version"] == db.version
    assert set(info["relations"]) == set(db.names)


# -- failure modes -----------------------------------------------------------


@pytest.fixture
def saved_db(tmp_path):
    db = grocery_database()
    path = str(tmp_path / "db.fdbp")
    save(db, path)
    return db, path


def test_truncated_file_raises(saved_db):
    _, path = saved_db
    with open(path, "rb") as handle:
        data = handle.read()
    for cut in (3, 9, len(data) // 2, len(data) - 1):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        with pytest.raises(PersistError, match="truncated|magic"):
            load(path)


def test_corrupt_payload_raises(saved_db):
    _, path = saved_db
    with open(path, "rb") as handle:
        data = handle.read()
    # Flip one byte near the end (inside the payload, after the CRC).
    corrupted = bytearray(data)
    corrupted[-5] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(corrupted))
    with pytest.raises(PersistError, match="checksum"):
        load(path)


def test_foreign_file_raises(tmp_path):
    path = str(tmp_path / "not_ours.fdbp")
    with open(path, "wb") as handle:
        handle.write(b"PK\x03\x04 definitely a zip file")
    with pytest.raises(PersistError, match="magic"):
        load(path)


def test_format_version_mismatch_raises(saved_db):
    _, path = saved_db
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    # The u16 format version sits right after the 4-byte magic.
    data[4:6] = struct.pack(">H", FORMAT_VERSION + 1)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistError, match="version"):
        load(path)


def test_missing_shard_file_raises(tmp_path):
    db = ShardedDatabase.from_database(
        random_database(2, 4, 8, seed=5), shards=2
    )
    path = str(tmp_path / "sharded")
    save(db, path)
    os.unlink(os.path.join(path, "shard-0001.fdbp"))
    with pytest.raises(PersistError, match="missing shard"):
        load(path)


def test_tampered_shard_file_raises(tmp_path):
    db = ShardedDatabase.from_database(
        random_database(2, 4, 8, seed=5), shards=2
    )
    path = str(tmp_path / "sharded")
    save(db, path)
    # Replace a shard file with a valid blob of the wrong content:
    # the manifest checksum must catch the swap.
    other = Database()
    other.add_rows("R0", db["R0"].attributes, [db["R0"].rows[0]])
    shard_path = os.path.join(path, "shard-0000.fdbp")
    from repro.persist.codec import _encode_database

    header, payload = _encode_database(other)
    with open(shard_path, "wb") as handle:
        write_blob(handle, "database", header, payload)
    with pytest.raises(PersistError, match="checksum|partition"):
        load(path)


def test_manifest_with_impossible_layout_raises_persist_error(
    tmp_path,
):
    """A manifest that frames correctly but names an unknown strategy
    (or impossible shard count) must surface as PersistError, not as a
    bare ShardingError escaping the persistence contract."""
    db = ShardedDatabase.from_database(
        random_database(2, 4, 8, seed=5), shards=2
    )
    path = str(tmp_path / "sharded")
    save(db, path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path, "rb") as handle:
        kind, header, payload = read_blob(handle)
    header["strategy"] = "no-such-strategy"
    with open(manifest_path, "wb") as handle:
        write_blob(handle, kind, header, payload)
    with pytest.raises(PersistError, match="malformed sharded"):
        load(path)


def test_inspect_does_not_read_the_payload(tmp_path):
    db = grocery_database()
    path = str(tmp_path / "db.fdbp")
    save(db, path)
    # Truncate *inside* the payload: inspect must still succeed
    # (header-only read), while a full load must fail loudly.
    size = os.path.getsize(path)
    with open(path, "rb+") as handle:
        handle.truncate(size - 10)
    assert inspect(path)["kind"] == "database"
    with pytest.raises(PersistError, match="truncated"):
        load(path)


def test_unsupported_value_type_raises(tmp_path):
    relation = Relation.from_rows("R", ("a",), [((1, 2),)])
    with pytest.raises(PersistError, match="cannot persist value"):
        save(relation, str(tmp_path / "bad.fdbp"))


def test_unsupported_object_raises(tmp_path):
    with pytest.raises(PersistError, match="cannot persist objects"):
        save(object(), str(tmp_path / "bad.fdbp"))


def test_nonexistent_path_raises(tmp_path):
    with pytest.raises(PersistError, match="cannot read"):
        load(str(tmp_path / "missing.fdbp"))
    with pytest.raises(PersistError, match="cannot read"):
        inspect(str(tmp_path / "missing.fdbp"))


def test_sharded_resave_over_existing_directory(tmp_path):
    """Re-saving a mutated sharded database to the same directory must
    replace the old copy wholesale (no stale files, still loadable)."""
    db = ShardedDatabase.from_database(
        random_database(2, 4, 10, seed=61), shards=3
    )
    path = str(tmp_path / "sharded")
    save(db, path)
    db.extend_rows("R0", [tuple(500 + j for j in range(
        len(db["R0"].attributes)))])
    resaved = ShardedDatabase.from_database(db, shards=2)
    save(resaved, path)  # fewer shards: old shard-0002 must not linger
    assert sorted(os.listdir(path)) == [
        MANIFEST_NAME,
        "shard-0000.fdbp",
        "shard-0001.fdbp",
    ]
    loaded = load(path)
    assert loaded.shard_count == 2
    _assert_database_equal(resaved, loaded)


# -- plan store --------------------------------------------------------------


@pytest.fixture
def store_setup(tmp_path):
    db = grocery_database()
    query = parse_query(
        "SELECT * FROM Orders, Store WHERE o_item = s_item"
    )
    tree = FDB(db).optimal_tree(query)
    store = PlanStore(str(tmp_path / "plans"))
    return db, query, tree, store


def test_plan_store_put_get(store_setup):
    db, query, tree, store = store_setup
    assert store.get(query, db) is None
    store.put(query, db, tree)
    assert store.get(query, db) == tree
    assert len(store) == 1
    assert store.counters()["hits"] == 1


def test_plan_store_hits_canonical_reformulations(store_setup):
    db, query, tree, store = store_setup
    store.put(query, db, tree)
    reformulated = parse_query(
        "SELECT * FROM Store, Orders WHERE s_item = o_item"
    )
    assert store.get(reformulated, db) == tree


def test_plan_store_survives_process_boundaries(store_setup):
    """A fresh PlanStore instance over the same directory (the
    cross-session / cross-process case) serves the same plans."""
    db, query, tree, store = store_setup
    store.put(query, db, tree)
    fresh = PlanStore(store.path)
    assert fresh.get(query, db) == tree


def test_plan_store_absorbs_data_deltas_evicts_unexplained(
    store_setup,
):
    db, query, tree, store = store_setup
    store.put(query, db, tree)
    # A recorded append is a data-only delta: f-trees are schema-level
    # objects, so the stored plan survives and counts a delta hit.
    db.extend_rows("Orders", [(7777, 42)])  # version moves
    assert store.get(query, db) == tree
    assert store.delta_hits == 1
    assert store.stale_evictions == 0
    # An unexplainable gap (here: a version jump the delta log never
    # recorded, the pre-IVM wholesale case) still evicts.
    db._version += 1
    assert store.get(query, db) is None  # skipped, not wrong data
    assert store.stale_evictions == 1
    assert len(store) == 0  # the stale entry is gone from disk
    # Re-populating at the new version works.
    store.put(query, db, tree)
    assert store.get(query, db) == tree


def test_plan_store_distinguishes_schemas(tmp_path):
    db_a = grocery_database()
    db_b = random_database(2, 4, 5, seed=1)
    assert schema_fingerprint(db_a) != schema_fingerprint(db_b)
    store = PlanStore(str(tmp_path / "plans"))
    query = parse_query("SELECT * FROM Orders")
    tree = FDB(db_a).optimal_tree(query)
    store.put(query, db_a, tree)
    # Same store directory, different database: no cross-talk.
    other_query = parse_query("SELECT * FROM R0")
    assert store.get(other_query, db_b) is None
    assert store.get(query, db_a) == tree


def test_plan_store_corrupt_entry_raises(store_setup):
    db, query, tree, store = store_setup
    store.put(query, db, tree)
    entry = os.path.join(store.path, store.entries()[0])
    with open(entry, "rb") as handle:
        data = bytearray(handle.read())
    data[-3] ^= 0xFF
    with open(entry, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistError, match="corrupt plan-store entry"):
        store.get(query, db)


def test_plan_store_clear(store_setup):
    db, query, tree, store = store_setup
    store.put(query, db, tree)
    assert store.clear() == 1
    assert len(store) == 0
    assert store.get(query, db) is None


# -- session warm start ------------------------------------------------------


def _workload(db, count=8, seed=17):
    return random_spj_queries(
        db, count, seed=seed, max_relations=3, max_equalities=2
    )


def test_session_write_through_and_warm_start(tmp_path):
    db = random_database(4, 8, 6, domain=5, seed=23)
    queries = _workload(db)
    store_dir = str(tmp_path / "plans")

    with QuerySession(db, plan_store=PlanStore(store_dir)) as cold:
        cold_rows = [r.rows() for r in cold.run_batch(queries)]
        assert cold.stats.plan_misses == len(
            {q.canonical_key() for q in queries}
        )
        assert cold.stats.store_hits == 0

    # A fresh session over a fresh store handle: every plan comes from
    # disk, the optimiser never runs.
    with QuerySession(db, plan_store=PlanStore(store_dir)) as warm:
        warm_rows = [r.rows() for r in warm.run_batch(queries)]
        assert warm_rows == cold_rows
        assert warm.stats.plan_misses == 0
        assert warm.stats.store_hits == len(
            {q.canonical_key() for q in queries}
        )


def test_session_store_promotes_into_lru(tmp_path):
    db = random_database(3, 6, 6, domain=5, seed=29)
    query = _workload(db, count=1)[0]
    store = PlanStore(str(tmp_path / "plans"))
    with QuerySession(db, plan_store=store) as seeder:
        seeder.run(query)
    with QuerySession(db, plan_store=store) as session:
        first = session.run(query)
        assert first.cached  # disk hit
        assert session.stats.store_hits == 1
        second = session.run(query)
        assert second.cached
        # The second hit came from the promoted LRU entry, not disk.
        assert session.stats.store_hits == 1
        assert session.stats.plan_hits == 2


def test_session_mutation_invalidates_store_entries(tmp_path):
    db = random_database(3, 6, 6, domain=5, seed=37)
    query = _workload(db, count=1, seed=41)[0]
    store = PlanStore(str(tmp_path / "plans"))
    with QuerySession(db, plan_store=store) as session:
        session.run(query)
        db.extend_rows(db.names[0], [db[db.names[0]].rows[0]])
        result = session.run(query)
        assert result.rows() is not None
    # The stale entry was evicted and replaced at the new version.
    fresh = PlanStore(store.path)
    with QuerySession(db, plan_store=fresh) as warm:
        warm.run(query)
        assert warm.stats.store_hits == 1


def test_parallel_executor_consults_plan_store(tmp_path):
    """Warm start applies to pooled execution too: the coordinator
    reads the store before submitting compile tasks to workers."""
    db = random_database(3, 6, 8, domain=5, seed=43)
    queries = _workload(db, count=6, seed=47)
    store_dir = str(tmp_path / "plans")
    with QuerySession(db, plan_store=PlanStore(store_dir)) as cold:
        expected = [r.rows() for r in cold.run_batch(queries)]
    with QuerySession(
        db,
        plan_store=PlanStore(store_dir),
        executor=ParallelExecutor(max_workers=2),
    ) as warm:
        got = [r.rows() for r in warm.run_batch(queries)]
        assert got == expected
        assert warm.stats.plan_misses == 0
        assert warm.stats.store_hits > 0


def test_saved_database_plus_plan_store_cross_process_shape(tmp_path):
    """The full warm-start loop: save the database, reload it (version
    preserved), and serve from the populated plan store -- the shape
    the CI smoke job runs across real processes."""
    db = random_database(3, 6, 8, domain=5, seed=53)
    queries = _workload(db, count=5, seed=59)
    db_path = str(tmp_path / "db.fdbp")
    store_dir = str(tmp_path / "plans")
    save(db, db_path)
    with QuerySession(db, plan_store=PlanStore(store_dir)) as cold:
        expected = [r.rows() for r in cold.run_batch(queries)]
    reloaded = load(db_path)
    with QuerySession(
        reloaded, plan_store=PlanStore(store_dir)
    ) as warm:
        got = [r.rows() for r in warm.run_batch(queries)]
        assert got == expected
        assert warm.stats.plan_misses == 0
        assert warm.stats.store_hits == len(
            {q.canonical_key() for q in queries}
        )


# -- plan store size bounds / GC ---------------------------------------------


def _distinct_queries(db, count, seed=31):
    """``count`` canonically distinct queries over ``db``."""
    out, seen = [], set()
    offset = 0
    while len(out) < count:
        for query in random_spj_queries(
            db, count, seed=seed + offset, max_relations=3,
            max_equalities=2,
        ):
            key = query.canonical_key()
            if key not in seen:
                seen.add(key)
                out.append(query)
                if len(out) == count:
                    break
        offset += 1
    return out


def _spread_mtimes(store):
    """Give the entries strictly increasing, well-separated mtimes so
    LRU ordering is deterministic on coarse-grained filesystems."""
    base = 1_000_000_000
    for i, name in enumerate(store.entries()):
        path = os.path.join(store.path, name)
        os.utime(path, (base + i, base + i))


def test_plan_store_max_entries_evicts_least_recently_used(tmp_path):
    db = random_database(4, 8, 6, domain=5, seed=41)
    queries = _distinct_queries(db, 4)
    fdb = FDB(db)
    store = PlanStore(str(tmp_path / "plans"), max_entries=3)
    for query in queries[:3]:
        store.put(query, db, fdb.optimal_tree(query))
    assert len(store) == 3
    _spread_mtimes(store)
    oldest = store.entries()[0]

    # A lookup refreshes recency: touch what would otherwise be evicted.
    victim_order = sorted(
        store.entries(),
        key=lambda n: os.stat(os.path.join(store.path, n)).st_mtime,
    )
    assert victim_order[0] == oldest
    for query in queries[:3]:
        if store._entry_path(
            query, schema_fingerprint(db)
        ).endswith(oldest):
            assert store.get(query, db) is not None  # promotes it
            break

    store.put(queries[3], db, fdb.optimal_tree(queries[3]))
    assert len(store) == 3  # bound held
    assert store.gc_evictions == 1
    assert oldest in store.entries()  # the touched entry survived


def test_plan_store_max_bytes_bound(tmp_path):
    db = random_database(4, 8, 6, domain=5, seed=43)
    queries = _distinct_queries(db, 3, seed=47)
    fdb = FDB(db)
    unbounded = PlanStore(str(tmp_path / "probe"))
    for query in queries:
        unbounded.put(query, db, fdb.optimal_tree(query))
    per_entry = unbounded.total_bytes() // len(unbounded)

    store = PlanStore(
        str(tmp_path / "plans"), max_bytes=2 * per_entry + per_entry // 2
    )
    for query in queries:
        store.put(query, db, fdb.optimal_tree(query))
        _spread_mtimes(store)
    assert store.total_bytes() <= store.max_bytes
    assert len(store) == 2
    assert store.gc_evictions == 1
    # Survivors still serve their plans.
    served = sum(
        1 for query in queries if store.get(query, db) is not None
    )
    assert served == 2


def test_plan_store_bound_validation(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        PlanStore(str(tmp_path / "a"), max_entries=0)
    with pytest.raises(ValueError, match="max_bytes"):
        PlanStore(str(tmp_path / "b"), max_bytes=-1)


def test_plan_store_gc_counter_in_counters(tmp_path):
    db = random_database(3, 6, 6, domain=5, seed=51)
    queries = _distinct_queries(db, 2, seed=53)
    fdb = FDB(db)
    store = PlanStore(str(tmp_path / "plans"), max_entries=1)
    store.put(queries[0], db, fdb.optimal_tree(queries[0]))
    _spread_mtimes(store)
    store.put(queries[1], db, fdb.optimal_tree(queries[1]))
    counters = store.counters()
    assert counters["gc_evictions"] == 1
    assert counters["size"] == 1


def test_bounded_store_under_a_session_keeps_serving(tmp_path):
    """A tight bound degrades hit rate, never correctness."""
    db = random_database(4, 8, 6, domain=5, seed=57)
    queries = _distinct_queries(db, 5, seed=61)
    store = PlanStore(str(tmp_path / "plans"), max_entries=2)
    with QuerySession(db, plan_store=store) as session:
        expected = [r.rows() for r in session.run_batch(queries)]
    assert len(store) <= 2
    with QuerySession(db, plan_store=PlanStore(store.path)) as warm:
        got = [r.rows() for r in warm.run_batch(queries)]
    assert got == expected


# -- arena blobs -------------------------------------------------------------


def _arena_join_result():
    db = Database()
    db.add_rows(
        "Orders", ("oid", "o_key"), [(i, i % 5) for i in range(40)]
    )
    db.add_rows(
        "Listings", ("l_key", "price"), [(i % 5, 100 + i) for i in range(40)]
    )
    query = parse_query(
        "SELECT * FROM Orders, Listings WHERE o_key = l_key"
    )
    return FDB(db).evaluate(query)


def test_arena_relation_round_trip(tmp_path):
    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    assert inspect(path)["kind"] == "arena"
    loaded = load(path)
    assert loaded.tree == fr.tree
    assert list(loaded.rows()) == list(fr.rows())
    assert loaded.count() == fr.count()
    loaded.validate()


#: An object-encoded result of R = {(1,1),(1,2),(2,2)} over a -> b,
#: written by ``persist.save`` at the parent commit of the one-encoding
#: PR -- the last build that could write blob kind ``factorised``.
LEGACY_OBJECT_BLOB = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "legacy_object_result.fdbp",
)


def test_retired_object_blob_is_refused_loudly_by_name():
    """Nothing writes kind ``factorised`` any more; reading one must
    say which kind it is and what to do about it -- a ``PersistError``,
    never a ``KeyError``/``AttributeError`` from a missing decoder."""
    from repro.persist import codec

    assert os.path.getsize(LEGACY_OBJECT_BLOB) <= 1024
    with open(LEGACY_OBJECT_BLOB, "rb") as handle:
        blob = handle.read()
    assert blob[:4] == codec.MAGIC and b"factorised" in blob[:20]
    readers = (
        lambda: load(LEGACY_OBJECT_BLOB),
        lambda: load(LEGACY_OBJECT_BLOB, mmap=True),
        lambda: inspect(LEGACY_OBJECT_BLOB),
        lambda: read_blob(io.BytesIO(blob)),
    )
    for read in readers:
        with pytest.raises(PersistError) as caught:
            read()
        message = str(caught.value)
        assert "'factorised'" in message and "retired" in message
        assert "re-evaluate" in message and "save" in message
    assert "factorised" not in codec.KINDS


def test_empty_arena_relation_round_trip(tmp_path):
    fr = _arena_join_result()
    empty = FactorisedRelation(fr.tree, None)
    path = str(tmp_path / "empty.fdbp")
    save(empty, path)
    loaded = load(path)
    assert loaded.is_empty()
    assert loaded.tree == fr.tree


def test_corrupt_arena_payload_raises(tmp_path):
    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[-4] ^= 0xFF  # flip a byte inside a column
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistError):
        load(path)


def test_tampered_arena_columns_fail_bounds_check(tmp_path):
    """Even with a recomputed checksum, out-of-range offsets must be
    rejected by the O(bytes) bounds validation."""
    import io
    import zlib

    from repro.persist import codec

    fr = _arena_join_result()
    kind, header, payload = codec.encode(fr)
    assert kind == "arena"
    # Corrupt the last column byte (a child_hi offset) and re-frame
    # with a fresh CRC so only the bounds check can catch it.
    bad = bytearray(payload)
    bad[-1] = 0x7F
    out = io.BytesIO()
    codec.write_blob(out, "arena", header, bytes(bad))
    out.seek(0)
    read_kind, read_header, read_payload = read_blob(out)
    assert zlib.crc32(read_payload) == zlib.crc32(bytes(bad))
    with pytest.raises(PersistError, match="invariants"):
        codec.decode(read_kind, read_header, read_payload)


# -- memory-mapped arena loads ----------------------------------------------


def test_mmap_arena_load_round_trips(tmp_path):
    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    mapped = load(path, mmap=True)
    assert mapped.tree == fr.tree
    assert list(mapped.rows()) == list(fr.rows())
    assert mapped.count() == fr.count()
    assert mapped.size() == fr.size()
    mapped.validate()


def test_mmap_arena_columns_survive_operators(tmp_path):
    """Mapped columns must behave exactly like owned ones through the
    arena fast paths: selection, projection, aggregation, and the
    compiled enumeration loop nests."""
    from repro import ops
    from repro.query.query import ConstantCondition

    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    mapped = load(path, mmap=True)
    attr = mapped.attributes[0]
    value = sorted(set(fr.rows((attr,))))[0][0]
    selected = ops.select_constant(
        mapped, ConstantCondition(attr, ">=", value)
    )
    selected.validate()
    assert sorted(set(selected.rows())) == sorted(
        set(
            ops.select_constant(
                fr, ConstantCondition(attr, ">=", value)
            ).rows()
        )
    )
    projected = ops.project(mapped, (attr,))
    projected.validate()
    assert sorted(set(projected.rows((attr,)))) == sorted(
        set(fr.rows((attr,)))
    )
    assert mapped.count_distinct(attr) == fr.count_distinct(attr)


def test_mmap_stdlib_fallback_path(tmp_path, monkeypatch):
    """Without numpy the mapped load copies into array('q') -- same
    answers, stdlib only."""
    from array import array

    from repro.persist import codec

    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    monkeypatch.setattr(codec, "_np", None)
    mapped = load(path, mmap=True)
    assert isinstance(mapped.rep.values[0], array)
    assert list(mapped.rows()) == list(fr.rows())


def test_mmap_non_arena_kinds_fall_back_to_checksummed_read(tmp_path):
    db = Database()
    db.add_rows("R", ("a", "b"), [(1, 2), (3, 4)])
    path = str(tmp_path / "db.fdbp")
    save(db, path)
    loaded = load(path, mmap=True)
    assert isinstance(loaded, Database)
    assert loaded.total_size == 2


def test_mmap_truncated_arena_file_raises(tmp_path):
    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-6])  # chop the final column short
    with pytest.raises(PersistError):
        load(path, mmap=True)


def test_mmap_trailing_bytes_raise(tmp_path):
    fr = _arena_join_result()
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00")
    with pytest.raises(PersistError, match="trailing"):
        load(path, mmap=True)


def test_mmap_tampered_columns_still_fail_bounds_check(tmp_path):
    """Skipping the CRC must not skip the structural bounds check."""
    import zlib

    from repro.persist import codec

    fr = _arena_join_result()
    kind, header, payload = codec.encode(fr)
    bad = bytearray(payload)
    bad[-1] = 0x7F
    path = str(tmp_path / "bad.fdbp")
    with open(path, "wb") as handle:
        write_blob(handle, "arena", header, bytes(bad))
    with pytest.raises(PersistError, match="invariants"):
        load(path, mmap=True)
