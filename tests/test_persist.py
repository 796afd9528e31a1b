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
import json
import os
import gc
import random
import struct
import weakref
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import ArenaWriter, ValuePool
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.engine import FDB
from repro.exec import ParallelExecutor
from repro.net.protocol import ProtocolError, unpack_rows
from repro.optimiser.fplan import FPlan, Step
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
from repro.persist import codec
from repro.persist.codec import (
    ArenaPoolDecoder,
    ArenaPoolEncoder,
    read_blob,
    write_blob,
)
from repro.query.hypergraph import Hypergraph
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


def _record_sync_order(monkeypatch):
    """Patch ``os.fsync`` / ``os.replace`` / ``os.rename`` to log, in
    call order, ``("fsync", inode)`` and ``("rename", dst, inode)``."""
    events = []
    fsync, replace, rename = os.fsync, os.replace, os.rename

    def logged_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def logged(move):
        def wrapper(src, dst):
            move(src, dst)
            dst = os.path.abspath(dst)
            events.append(("rename", dst, os.stat(dst).st_ino))

        return wrapper

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged(replace))
    monkeypatch.setattr(os, "rename", logged(rename))
    return events


def _assert_published_durably(events, path):
    """Every file under ``path`` (and ``path`` itself) was fsynced
    before the rename that published ``path``, and the parent
    directory after it; then forgets the logged events."""
    path = os.path.abspath(path)
    (publish,) = [
        i
        for i, event in enumerate(events)
        if event[0] == "rename" and event[1] == path
    ]
    published = [path]
    if os.path.isdir(path):
        published += [os.path.join(path, name) for name in os.listdir(path)]
    synced = [event[1] for event in events[:publish] if event[0] == "fsync"]
    for name in published:
        assert os.stat(name).st_ino in synced, name
    parent = os.stat(os.path.dirname(path)).st_ino
    assert ("fsync", parent) in events[publish + 1:]
    events.clear()


def test_saves_fsync_before_the_rename_that_publishes(tmp_path, monkeypatch):
    events = _record_sync_order(monkeypatch)
    db = random_database(2, 4, 10, seed=62)
    flat = str(tmp_path / "db.fdbp")
    save(db, flat)
    _assert_published_durably(events, flat)
    save(db, flat)  # over an existing file
    _assert_published_durably(events, flat)
    sharded = ShardedDatabase.from_database(db, shards=3)
    directory = str(tmp_path / "sharded")
    save(sharded, directory)
    _assert_published_durably(events, directory)
    save(ShardedDatabase.from_database(db, shards=2), directory)
    _assert_published_durably(events, directory)  # the retire-and-swap
    _assert_database_equal(db, load(flat))
    assert load(directory).shard_count == 2


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
    assert inspect(path)["kind"] == "offset-arena"
    loaded = load(path)
    assert loaded.tree == fr.tree
    assert list(loaded.rows()) == list(fr.rows())
    assert loaded.count() == fr.count()
    loaded.validate()


_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _legacy(name: str) -> str:
    return os.path.join(_DATA_DIR, name)


#: Results of R = {(1,1),(1,2),(2,2)} over a -> b, each written by
#: ``persist.save`` at the last build that could write its kind: kind
#: ``factorised`` (an object representation) before the one-encoding
#: change, kind ``arena`` (the pre-pool column layout) before the arena
#: layout became the pooled one, kind ``pooled-arena`` (two range
#: columns per child slot) before child ranges became offsets.
LEGACY_BLOBS = {
    "factorised": _legacy("legacy_object_result.fdbp"),
    "arena": _legacy("legacy_arena_result.fdbp"),
    "pooled-arena": _legacy("legacy_pooled_arena_result.fdbp"),
}


def _read_blob_at(path: str):
    with open(path, "rb") as handle:
        return read_blob(handle)


_LEGACY_READERS = {
    "load": load,
    "inspect": inspect,
    "read_blob": _read_blob_at,
}


@pytest.mark.parametrize("reader", sorted(_LEGACY_READERS))
@pytest.mark.parametrize("kind", sorted(LEGACY_BLOBS))
def test_retired_object_blob_is_refused_loudly_by_name(kind, reader):
    """Nothing writes a retired kind any more; reading one must say
    which kind it is and what to do about it -- a ``PersistError``,
    never a ``KeyError``/``AttributeError`` from a missing decoder."""
    path = LEGACY_BLOBS[kind]
    assert os.path.getsize(path) <= 1024
    with open(path, "rb") as handle:
        blob = handle.read()
    assert blob[:4] == codec.MAGIC and kind.encode() in blob[:20]
    with pytest.raises(PersistError) as caught:
        _LEGACY_READERS[reader](path)
    message = str(caught.value)
    assert f"'{kind}'" in message and "retired" in message
    assert "re-evaluate" in message and "save" in message
    assert kind in codec.RETIRED_KINDS and kind not in codec.KINDS


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
    assert kind == "offset-arena"
    # Corrupt the last column byte (the last child offset) and re-frame
    # with a fresh CRC so only the bounds check can catch it.
    bad = bytearray(payload)
    bad[-1] = 0x7F
    out = io.BytesIO()
    codec.write_blob(out, "offset-arena", header, bytes(bad))
    out.seek(0)
    read_kind, read_header, read_payload = read_blob(out)
    assert zlib.crc32(read_payload) == zlib.crc32(bytes(bad))
    with pytest.raises(PersistError, match="invariants"):
        codec.decode(read_kind, read_header, read_payload)


# -- pooled arena payloads (the wire's fdbp-pool form) ----------------------


def _pool_db(extra: str = "") -> Database:
    db = Database()
    db.add_rows("Orders", ("oid", "o_key"), [(i, i % 5) for i in range(30)])
    db.add_rows(
        "Listings",
        ("l_key", "label"),
        [(i % 5, f"item-{extra}{i}") for i in range(20)],
    )
    db.add_rows(
        "Notes", ("n_key", "note"), [(i % 3, i / 4) for i in range(9)]
    )
    return db


_POOL_SQL = (
    "SELECT * FROM Orders, Listings WHERE o_key = l_key",
    "SELECT oid, label FROM Orders, Listings WHERE o_key = l_key AND oid < 12",
    "SELECT * FROM Orders, Notes WHERE o_key = n_key",
    "SELECT * FROM Listings WHERE l_key = 7",  # the empty relation
)


def _pool_results(shared=None, extra: str = ""):
    engine = FDB(_pool_db(extra), shared_pool=shared)
    return [engine.evaluate(parse_query(sql)) for sql in _POOL_SQL]


def _recrc(body: bytes) -> bytes:
    """``body`` with a fresh (valid) CRC: only the decoder's own checks
    can refuse it."""
    return body + struct.pack(">I", zlib.crc32(body))


def _committed_payloads(steps: int = 60, seed: int = 3):
    """The payloads a peer receives, in order, from a send sequence
    with interleaved rollbacks."""
    frs = _pool_results()
    rng = random.Random(seed)
    encoder = ArenaPoolEncoder()
    committed = []
    for _ in range(steps):
        payload = encoder.encode(rng.choice(frs))
        if rng.random() < 0.2:
            encoder.rollback()
        else:
            encoder.commit()
            committed.append(payload)
    return committed


def test_pooled_payloads_round_trip_over_one_connection_pool():
    frs = _pool_results()
    assert frs[-1].is_empty() and not frs[0].is_empty()
    encoder, decoder = ArenaPoolEncoder(), ArenaPoolDecoder()
    decoded = []
    for fr in frs + frs:
        payload = encoder.encode(fr)
        encoder.commit()
        got = decoder.decode(payload)
        assert got.tree == fr.tree
        assert sorted(got.rows()) == sorted(fr.rows())
        if not got.is_empty():
            got.validate()
            # every arena of a connection references the one pool
            assert got.rep.pool is decoder.values
        decoded.append(got)
    assert decoder.values == list(encoder.pool)
    # The second round reused every column section (the empty relation
    # has none) and decoded no tree or skeleton anew.
    assert encoder.reuses == len(frs) - 1
    for first, again in zip(decoded, decoded[len(frs) :]):
        assert again.tree is first.tree
        if not again.is_empty():
            assert again.rep.skel is first.rep.skel


def test_a_rolled_back_delta_is_reshipped_by_the_next_payload():
    first, second = _pool_results()[:2]
    encoder, decoder = ArenaPoolEncoder(), ArenaPoolDecoder()
    dropped = encoder.encode(first)
    encoder.rollback()  # e.g. the frame was oversized: never sent
    again = encoder.encode(first)
    assert again == dropped  # same base, same delta, same columns
    encoder.rollback()
    # A different result after the rollback carries the lost delta too.
    payload = encoder.encode(second)
    encoder.commit()
    got = decoder.decode(payload)
    assert sorted(got.rows()) == sorted(second.rows())
    payload = encoder.encode(first)
    encoder.commit()
    assert sorted(decoder.decode(payload).rows()) == sorted(first.rows())


def test_cross_connection_or_out_of_order_payloads_are_refused():
    first, second = _pool_results()[:2]
    encoder = ArenaPoolEncoder()
    one = encoder.encode(first)
    encoder.commit()
    two = encoder.encode(second)
    encoder.commit()
    with pytest.raises(PersistError, match="out-of-order"):
        ArenaPoolDecoder().decode(two)  # skips the first delta
    decoder = ArenaPoolDecoder()
    decoder.decode(one)
    with pytest.raises(PersistError, match="out-of-order"):
        decoder.decode(one)  # replayed: the pool already holds it
    other = ArenaPoolEncoder()
    foreign = other.encode(second)  # another connection's pool
    other.commit()
    with pytest.raises(PersistError, match="out-of-order"):
        decoder.decode(foreign)
    # none of the refusals moved the pool: the stream goes on
    assert sorted(decoder.decode(two).rows()) == sorted(second.rows())


def test_a_pooled_payload_failing_its_checksum_is_refused():
    payload = bytearray(ArenaPoolEncoder().encode(_pool_results()[0]))
    payload[len(payload) // 2] ^= 0x01
    with pytest.raises(PersistError, match="checksum"):
        ArenaPoolDecoder().decode(bytes(payload))


def test_a_malformed_string_in_a_pooled_payload_is_a_persist_error():
    body = ArenaPoolEncoder().encode(_pool_results()[0])[:-4]
    assert body.count(b"item-0") == 1
    body = body.replace(b"item-0", b"item-\xff")  # not UTF-8
    bad = _recrc(body)
    with pytest.raises(PersistError, match="malformed string"):
        ArenaPoolDecoder().decode(bad)


def test_an_out_of_pool_value_id_is_refused_by_the_bounds_check():
    # One node holding one entry: the last 8 body bytes are its value id.
    tree = FTree.from_nested([("a", [])], [{"a"}])
    single = FactorisedRelation(
        tree, factorise([Relation.from_rows("R", ("a",), [(5,)])], tree)
    )
    body = bytearray(ArenaPoolEncoder().encode(single)[:-4])
    assert body[-8:] == struct.pack("<q", 0)
    body[-8:] = struct.pack("<q", 1)  # one past the one-value pool
    bad = _recrc(bytes(body))
    decoder = ArenaPoolDecoder()
    with pytest.raises(PersistError, match="invariants.*outside the pool"):
        decoder.decode(bad)
    assert decoder.values == []  # the failed payload's delta is undone


def test_memoised_payloads_equal_a_fresh_encoders_byte_for_byte():
    """The per-connection memo changes no wire byte: not for live
    results over equal trees, and not when a shared result pool grows
    between two sends of the same result."""
    shared = ValuePool()
    frs = (
        _pool_results()
        + _pool_results(extra="other-")  # same trees, other rows
        + _pool_results(shared)
    )
    rng = random.Random(7)
    memo, fresh = ArenaPoolEncoder(), ArenaPoolEncoder()
    for step in range(120):
        if step % 15 == 0:  # grows the pool ``shared`` results hold
            _pool_results(shared, extra=f"s{step}-")
        fr = rng.choice(frs)
        fresh._sent.clear()
        assert memo.encode(fr) == fresh.encode(fr), step
        keep = rng.random() >= 0.2
        for encoder in (memo, fresh):
            encoder.commit() if keep else encoder.rollback()
    assert memo.reuses > 60 and fresh.reuses == 0


def test_the_payload_memo_dies_with_its_result():
    encoder = ArenaPoolEncoder()
    fr = _arena_join_result()
    encoder.encode(fr)
    encoder.commit()
    assert len(encoder._sent) == 1
    alive = weakref.ref(fr)
    del fr
    gc.collect()
    assert alive() is None  # the memo never kept the result alive
    assert not encoder._sent


_HOSTILE_SENDS = _committed_payloads()


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, len(_HOSTILE_SENDS) - 1),
    mode=st.sampled_from(["truncate", "flip", "truncate+crc", "flip+crc"]),
    where=st.floats(0, 1, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_hostile_pooled_payloads_decode_or_raise_persist_error(
    index, mode, where, bit
):
    """Truncated or bit-flipped payloads -- with the checksum left
    stale, or recomputed so only the decoder's own checks stand in the
    way -- decode or raise ``PersistError``, never anything else; and a
    refused payload leaves the connection pool able to go on."""
    decoder = ArenaPoolDecoder()
    for payload in _HOSTILE_SENDS[:index]:
        decoder.decode(payload)
    before = list(decoder.values)
    genuine = _HOSTILE_SENDS[index]
    data = genuine[:-4] if mode.endswith("+crc") else genuine
    at = int(where * len(data))
    if mode.startswith("truncate"):
        data = data[:at]
    else:
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        data = bytes(flipped)
    if mode.endswith("+crc"):
        data = _recrc(data)
    try:
        decoder.decode(data)
    except PersistError:
        assert decoder.values == before
        decoder.decode(genuine)


# -- hostile f-tree and f-plan payloads --------------------------------------


def _golden_node(key):
    label, constant, children = key
    return FNode(set(label), [_golden_node(c) for c in children], constant)


def _golden_tree(key):
    roots, edges = key
    return FTree([_golden_node(r) for r in roots], Hypergraph(edges))


def _golden_seed_payloads():
    """Encoded trees and plans of the optimiser golden corpus: the
    first f-tree per relation count, and the six longest f-plans."""
    golden_path = os.path.join(
        os.path.dirname(__file__), "data", "optimiser_golden.json"
    )
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)
    firsts = {}
    for case in golden["ftree"]:
        firsts.setdefault(case["relations"], case["key"])
    trees = [
        ("ftree", codec._encode_ftree(_golden_tree(key)))
        for _, key in sorted(firsts.items())
    ]
    longest = sorted(
        golden["fplan"], key=lambda case: -len(case["asymptotic"]["steps"])
    )[:6]
    plans = [
        (
            "fplan",
            codec._encode_fplan(
                FPlan(
                    _golden_tree(case["input_key"]),
                    [
                        Step(kind, tuple(args))
                        for kind, args in case["asymptotic"]["steps"]
                    ],
                )
            )[1],
        )
        for case in longest
    ]
    return trees + plans


_GOLDEN_SEEDS = _golden_seed_payloads()
_DECODERS = {
    "ftree": (codec._decode_ftree, codec._encode_ftree),
    "fplan": (codec._decode_fplan, lambda plan: codec._encode_fplan(plan)[1]),
}


@settings(max_examples=500, deadline=None)
@given(
    index=st.integers(0, len(_GOLDEN_SEEDS) - 1),
    truncate=st.booleans(),
    where=st.floats(0, 1, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_hostile_ftree_and_fplan_payloads_decode_canonically_or_raise(
    index, truncate, where, bit
):
    """Truncated or bit-flipped f-tree and f-plan payloads -- read
    without their blob frame, so no checksum stands in the way --
    either decode to a value that re-encodes to the very same bytes or
    raise ``PersistError``."""
    kind, payload = _GOLDEN_SEEDS[index]
    decode, encode = _DECODERS[kind]
    at = int(where * len(payload))
    if truncate:
        data = payload[:at]
    else:
        flipped = bytearray(payload)
        flipped[at] ^= 1 << bit
        data = bytes(flipped)
    try:
        value = decode(data)
    except PersistError:
        return
    assert encode(value) == data


#: ``a(b)`` over the edge {a, b}: roots, node a (label, constant flag,
#: children), node b, edges.
_CANONICAL_TREE = (
    b"\x01" b"\x01\x01a\x00\x01" b"\x01\x01b\x00\x00" b"\x01\x02\x01a\x01b"
)


@pytest.mark.parametrize(
    "payload",
    [
        _CANONICAL_TREE.replace(b"a\x00", b"a\x02"),  # constant flag 2
        _CANONICAL_TREE[:-4] + b"\x01b\x01a",  # edge {b, a}
        _CANONICAL_TREE[:-5] + b"\x03\x01a\x01b\x01b",  # edge {a, b, b}
        b"\x81\x00" + _CANONICAL_TREE[1:],  # over-long root count
    ],
    ids=["constant-flag", "unsorted-edge", "repeated-attribute", "long-varint"],
)
def test_non_canonical_ftree_payloads_are_refused(payload):
    assert codec._decode_ftree(_CANONICAL_TREE).key() == FTree.from_nested(
        [("a", [("b", [])])], [{"a", "b"}]
    ).key()
    with pytest.raises(PersistError, match="non-canonical"):
        codec._decode_ftree(payload)


def test_non_canonical_fplan_payloads_are_refused():
    header = bytes((len(_CANONICAL_TREE),)) + _CANONICAL_TREE
    assert codec._decode_fplan(header + b"\x00").steps == ()
    with pytest.raises(PersistError, match="non-canonical"):
        codec._decode_fplan(header + b"\x80\x00")  # over-long step count


# -- hostile saved results and length fields ---------------------------------


def _saved_seed_blobs():
    join = _arena_join_result()
    seeds = [join, FactorisedRelation(join.tree, None)] + _pool_results()
    return [codec.encode(fr) for fr in seeds]


_SAVED_SEEDS = _saved_seed_blobs()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "saved.fdbp")


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, len(_SAVED_SEEDS) - 1),
    truncate=st.booleans(),
    where=st.floats(0, 1, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_hostile_saved_arenas_load_valid_or_raise_persist_error(
    fuzz_path, index, truncate, where, bit
):
    """Truncated or bit-flipped saved results, re-framed with a valid
    checksum so only the reader's own checks stand in the way, either
    load as a relation that passes ``validate()`` or raise
    ``PersistError``."""
    kind, header, payload = _SAVED_SEEDS[index]
    at = int(where * len(payload))
    if truncate:
        data = payload[:at]
    else:
        flipped = bytearray(payload)
        flipped[at] ^= 1 << bit
        data = bytes(flipped)
    with open(fuzz_path, "wb") as handle:
        write_blob(handle, kind, header, data)
    try:
        loaded = load(fuzz_path)
    except PersistError:
        return
    loaded.validate()


# -- the offset-arena body: decode canonically or raise ----------------------


def _committed_payload(path: str) -> bytes:
    """The payload of a committed FDBP file, cut out of its frame by
    offset (its kind may be retired, so ``read_blob`` would refuse)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    at = 7 + blob[6]  # magic, version, kind length, kind
    (header_len,) = struct.unpack(">I", blob[at : at + 4])
    at += 4 + header_len + 4  # header length, header, CRC
    (length,) = struct.unpack(">Q", blob[at : at + 8])
    return blob[at + 8 : at + 8 + length]


#: Arena bodies against an empty pool: every committed ``.fdbp`` file's
#: payload (each in a layout this build no longer reads) and the saved
#: results above.
_BODY_SEEDS = [
    _committed_payload(_legacy(name))
    for name in sorted(os.listdir(_DATA_DIR))
    if name.endswith(".fdbp")
] + [payload for _, _, payload in _SAVED_SEEDS]


def _mutated(data: bytes, mode: str, where: float, bit: int) -> bytes:
    at = int(where * len(data))
    if mode == "truncate":
        return data[:at]
    if mode == "flip" and data:
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        return bytes(flipped)
    return data[:at] + bytes((bit * 37 % 256,)) + data[at:]  # insert


_MUTATIONS = dict(
    mode=st.sampled_from(["truncate", "flip", "insert"]),
    where=st.floats(0, 1, exclude_max=True),
    bit=st.integers(0, 7),
)


def _decodes_canonically_on_disk(data: bytes) -> None:
    """``data`` as a saved result's payload either raises
    ``PersistError`` or decodes to a relation that saves back to
    exactly ``data``."""
    try:
        fr = codec.decode("offset-arena", {}, data)
    except PersistError:
        return
    assert codec.encode(fr) == ("offset-arena", codec._arena_header(fr), data)


@settings(max_examples=400, deadline=None)
@given(index=st.integers(0, len(_BODY_SEEDS) - 1), **_MUTATIONS)
def test_offset_arena_bodies_on_disk_decode_canonically_or_raise(
    index, mode, where, bit
):
    _decodes_canonically_on_disk(
        _mutated(_BODY_SEEDS[index], mode, where, bit)
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_as_a_saved_arena_decode_canonically_or_raise(data):
    _decodes_canonically_on_disk(data)


def _decodes_canonically_on_the_wire(sent, data: bytes) -> None:
    """After the payloads ``sent``, ``data`` either raises
    ``PersistError`` and leaves the pool as it was, or decodes to a
    relation that an encoder holding the same pool re-encodes to
    exactly ``data``."""
    decoder = ArenaPoolDecoder()
    for payload in sent:
        decoder.decode(payload)
    before = list(decoder.values)
    try:
        fr = decoder.decode(data)
    except PersistError:
        assert decoder.values == before
        return
    encoder = ArenaPoolEncoder()
    for value in before:
        encoder.pool.intern(value)
    encoder.shipped = len(before)
    assert encoder.encode(fr) == data


#: (payloads sent before, one more payload): the tail of a committed
#: send sequence, and every empty-pool body as a connection's first.
_WIRE_SEEDS = [
    (_HOSTILE_SENDS[:i], _HOSTILE_SENDS[i]) for i in range(0, 30, 3)
] + [((), _recrc(body)) for body in _BODY_SEEDS]


@settings(max_examples=400, deadline=None)
@given(index=st.integers(0, len(_WIRE_SEEDS) - 1), **_MUTATIONS)
def test_offset_arena_bodies_on_the_wire_decode_canonically_or_raise(
    index, mode, where, bit
):
    sent, payload = _WIRE_SEEDS[index]
    _decodes_canonically_on_the_wire(
        sent, _recrc(_mutated(payload[:-4], mode, where, bit))
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_as_a_first_payload_decode_canonically_or_raise(data):
    _decodes_canonically_on_the_wire((), _recrc(data))


def test_a_two_column_body_is_refused_not_misread():
    """The payload of a saved ``pooled-arena`` result (two range
    columns per child slot) read as an offset-arena body: its columns
    do not line up, so it is refused."""
    body = _committed_payload(_legacy("legacy_pooled_arena_result.fdbp"))
    with pytest.raises(PersistError):
        codec.decode("offset-arena", {}, body)
    with pytest.raises(PersistError):
        ArenaPoolDecoder().decode(_recrc(body))


#: The f-tree section of the empty forest (no roots, no edges): its
#: arena has no node columns, so a body's pool is all there is to it.
_NULLARY = b"\x02\x00\x00"


@pytest.mark.parametrize(
    "body, message",
    [
        (_NULLARY + b"\x02", "neither 0 nor 1"),  # flag 2
        (_NULLARY + b"\x01\x80\x00", "non-canonical"),  # base 0 in 2 bytes
        (_NULLARY + b"\x01\x00\x02\x03\x02\x03\x02\x00", "twice"),  # 1, 1
        (_NULLARY + b"\x01\x00\x01\x06\x017\x00", "non-canonical big"),
        (
            _NULLARY + b"\x01\x00\x01\x03" + b"\xff" * 9 + b"\x7f\x00",
            "beyond int64",
        ),
    ],
    ids=["flag", "long-varint", "repeated-value", "small-big-int", "wide-int"],
)
def test_non_canonical_arena_bodies_are_refused(body, message):
    """Each body is one spelling away from a canonical one; the reader
    refuses it rather than decode a relation that re-encodes to other
    bytes."""
    with pytest.raises(PersistError, match=message):
        codec.decode("offset-arena", {}, body)


def _one_union(values):
    """a -> b with one a-entry whose b-union holds ``values`` as given."""
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    writer = ArenaWriter(tree)
    writer.values[1].extend(values)
    writer.commit(0, 1)
    return FactorisedRelation(tree, writer.finish())


def _unsorted_union():
    return _one_union([3, 2])


def _a_union_of_values_that_do_not_compare():
    return _one_union([5, "x"])


def _two_values_under_a_constant_node():
    from repro.core.ftree import FNode
    from repro.query.hypergraph import Hypergraph

    tree = FTree([FNode({"c"}, [], constant=True)], Hypergraph([{"c"}]))
    writer = ArenaWriter(tree)
    writer.values[0].extend([5, 6])
    return FactorisedRelation(tree, writer.finish())


def _a_relation_split_across_branches():
    tree = FTree.from_nested([("a", []), ("b", [])], [{"a", "b"}])
    writer = ArenaWriter(tree)
    writer.values[0].append(1)
    writer.values[1].append(2)
    return FactorisedRelation(tree, writer.finish())


@pytest.mark.parametrize(
    "build",
    [
        _unsorted_union,
        _a_union_of_values_that_do_not_compare,
        _two_values_under_a_constant_node,
        _a_relation_split_across_branches,
    ],
    ids=lambda build: build.__name__.strip("_"),
)
def test_a_saved_result_that_fails_validate_does_not_load(tmp_path, build):
    """Bounds-clean bytes that break the value order, the constant-node
    rule or the path constraint are refused on load, so what loads
    passes ``validate()``."""
    fr = build()
    with pytest.raises((ValueError, TypeError)):
        fr.validate()
    path = str(tmp_path / "invalid.fdbp")
    save(fr, path)
    with pytest.raises(PersistError, match="invariants"):
        load(path)


def _varint(value: int) -> bytes:
    out = io.BytesIO()
    codec._write_varint(out, value)
    return out.getvalue()


def _single_result():
    """One node holding one entry: a body ends in its value column,
    ``varint(1)`` plus one int64."""
    tree = FTree.from_nested([("a", [])], [{"a"}])
    return FactorisedRelation(
        tree, factorise([Relation.from_rows("R", ("a",), [(5,)])], tree)
    )


def _hostile_string():
    text = bytes([5]) + _varint(2**63)  # a str tag, then its length
    with pytest.raises(ProtocolError, match="truncated"):
        unpack_rows(_varint(1) + text, 1)
    header = {"name": "R", "attributes": ["a"], "rows": 1}
    codec.decode("relation", header, _varint(1) + text)


def _hostile_big_integer():
    digits = bytes([6]) + _varint(2**63)  # a big-int tag, then its length
    with pytest.raises(ProtocolError, match="truncated"):
        unpack_rows(_varint(1) + digits, 1)
    header = {"name": "R", "attributes": ["a"], "rows": 1}
    codec.decode("relation", header, _varint(1) + digits)


def _hostile_column_count():
    body = ArenaPoolEncoder().encode(_single_result())[:-4]
    assert body[-9:] == _varint(1) + struct.pack("<q", 0)
    with pytest.raises(PersistError, match="truncated"):
        ArenaPoolDecoder().decode(_recrc(body[:-9] + _varint(2**60)))
    kind, header, payload = codec.encode(_single_result())
    codec.decode(kind, header, payload[:-9] + _varint(2**60))


def _hostile_tree_length():
    ArenaPoolDecoder().decode(_recrc(_varint(2**63)))


def _hostile_payload_length():
    out = io.BytesIO()
    write_blob(out, "ftree", {}, b"")
    blob = out.getvalue()[:-8] + struct.pack(">Q", 2**64 - 1)
    read_blob(io.BytesIO(blob))


def _hostile_fplan_tree_length():
    codec.decode("fplan", {}, _varint(2**63))


@pytest.mark.parametrize(
    "field",
    [
        _hostile_string,
        _hostile_big_integer,
        _hostile_column_count,
        _hostile_tree_length,
        _hostile_payload_length,
        _hostile_fplan_tree_length,
    ],
    ids=lambda field: field.__name__[len("_hostile_"):],
)
def test_a_length_field_past_any_buffer_is_a_clean_error(field):
    """A length of 2**63 or more (a column count of 2**60: eight bytes
    an entry) made ``read`` raise ``OverflowError`` straight through
    the decoders; now every length-prefixed read refuses it as a
    truncation."""
    with pytest.raises(PersistError, match="truncated"):
        field()


def _forged_payload_length(length: int) -> bytes:
    out = io.BytesIO()
    write_blob(out, "ftree", {}, b"")
    return out.getvalue()[:-8] + struct.pack(">Q", length)


def _forged_header_length(length: int) -> bytes:
    out = io.BytesIO()
    write_blob(out, "ftree", {}, b"")
    blob = out.getvalue()
    at = len(blob) - 4 - 2 - 4 - 8  # u32 header length, "{}", crc, length
    return blob[:at] + struct.pack(">I", length) + blob[at + 4:]


@pytest.mark.parametrize(
    "forge,length",
    [
        (_forged_payload_length, 2**40),
        (_forged_payload_length, 2**62),
        (_forged_header_length, 2**32 - 1),
    ],
    ids=["payload-2^40", "payload-2^62", "header-2^32"],
)
@pytest.mark.parametrize("reader", ["load", "read_blob"])
def test_a_forged_length_in_a_file_is_not_allocated(
    tmp_path, forge, length, reader
):
    """A buffered file read allocates the length it is asked for before
    reading a byte, so a forged length below 2**63 raised
    ``MemoryError``; the bounded read asks for what the file holds."""
    path = tmp_path / "forged.fdbp"
    path.write_bytes(forge(length))
    with pytest.raises(PersistError, match="truncated"):
        if reader == "load":
            load(str(path))
        else:
            with open(path, "rb") as handle:
                read_blob(handle)
