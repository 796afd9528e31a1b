"""Tests for the columnar arena encoding (:mod:`repro.core.arena`).

The contract under test: the arena and object encodings are two
physical layouts of the *same* representation -- conversion round-trips
exactly, enumeration order is identical, every derived measure (size,
count, aggregates) agrees, and the operator fast paths (non-equality
selection, subtree-dropping projection) never fork from the object
reference.  Properties run over >= 50 seeded random databases plus the
documented edge cases: the empty relation (``None``) and the nullary
tuple (``ProductRep([])`` / a zero-node arena).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import arena
from repro.core.arena import ArenaError, ArenaRep, ArenaWriter
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.frep import ProductRep
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.ops import project, select_constant
from repro.query.hypergraph import Hypergraph
from repro.query.parser import parse_query
from repro.query.query import ConstantCondition
from repro.workloads import random_database, random_spj_queries

#: >= 50 seeded databases for the round-trip / order properties.
PROPERTY_SEEDS = list(range(300, 350))


def _result_pair(seed: int):
    """(object result, db, query) for one seeded random SPJ query."""
    db = random_database(
        relations=3, attributes=7, tuples=6, domain=4, seed=seed
    )
    query = random_spj_queries(
        db, 1, seed=seed + 1000, max_relations=3, max_equalities=2
    )[0]
    return FDB(db).evaluate(query), db, query


def _nonempty_result(seed: int):
    """The first non-empty seeded result at or after ``seed``."""
    for offset in range(20):
        fr, db, query = _result_pair(seed + offset)
        if not fr.is_empty():
            return fr, db, query
    raise AssertionError("no non-empty result in 20 seeds")


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_round_trip_and_enumeration_order(seed):
    fr, db, query = _result_pair(seed)
    rep = arena.from_product(fr.tree, fr.data)
    # Round trip is exact (including the empty relation).
    assert arena.to_product(rep) == fr.data
    if fr.data is None:
        assert rep is None
        return
    fa = FactorisedRelation(fr.tree, arena=rep)
    order = fr.attributes
    # Identical enumeration order, not merely equal row sets.
    assert list(fa.rows(order)) == list(fr.rows(order))
    assert list(iter(fa)) == list(iter(fr))
    assert fa.count() == fr.count()
    assert fa.size() == fr.size()
    assert fa.flat_data_elements() == fr.flat_data_elements()
    fa.validate()


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:10])
def test_direct_arena_build_matches_object_build(seed):
    """ArenaFactoriser output == from_product(object factorisation)."""
    db = random_database(
        relations=3, attributes=7, tuples=6, domain=4, seed=seed
    )
    query = random_spj_queries(
        db, 1, seed=seed + 2000, max_relations=3, max_equalities=2
    )[0]
    fdb = FDB(db)
    tree = fdb.optimal_tree(query)
    relations = [db[name] for name in query.relations]
    product = factorise(relations, tree)
    built = factorise(relations, tree, encoding="arena")
    assert arena.to_product(built) == product
    if product is not None:
        order = tuple(sorted(tree.attributes()))
        assert list(arena.iter_rows(built, order)) == list(
            FactorisedRelation(tree, product).rows(order)
        )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:12])
def test_aggregates_agree_between_encodings(seed):
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result: aggregates covered separately")
    fa = fr.to_arena()
    for attribute in fr.attributes:
        assert fa.sum(attribute) == pytest.approx(fr.sum(attribute))
        assert fa.avg(attribute) == pytest.approx(fr.avg(attribute))
        assert fa.min(attribute) == fr.min(attribute)
        assert fa.max(attribute) == fr.max(attribute)
        assert fa.count_distinct(attribute) == fr.count_distinct(
            attribute
        )
        assert fa.group_count(attribute) == fr.group_count(attribute)


def test_empty_relation_round_trip():
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    assert arena.from_product(tree, None) is None
    assert arena.to_product(None) is None
    fa = FactorisedRelation(tree, arena=None)
    assert fa.is_empty()
    assert fa.count() == 0 and fa.size() == 0
    assert list(fa.rows()) == []
    assert fa.data is None  # lazy conversion of the empty arena
    assert fa.to_object().is_empty()


def test_nullary_tuple_round_trip():
    """ProductRep([]) over an empty forest <-> a zero-node arena."""
    tree = FTree([], Hypergraph([]))
    nullary = ProductRep([])
    rep = arena.from_product(tree, nullary)
    assert rep is not None and rep.node_count == 0
    assert arena.to_product(rep) == nullary
    assert arena.tuple_count(rep) == 1
    assert list(arena.iter_rows(rep, ())) == [()]
    fa = FactorisedRelation(tree, arena=rep)
    assert not fa.is_empty()
    assert fa.count() == 1 and fa.size() == 0


def test_lazy_conversion_both_ways_and_primary_encoding():
    fr, _, _ = _nonempty_result(301)
    assert fr.encoding == "object"
    fa = fr.to_arena()
    assert fa.encoding == "arena"
    assert fa.to_arena() is fa  # already primary
    back = fa.to_object()
    assert back.encoding == "object"
    assert back.data == fr.data
    # Reading .data on an arena-primary relation materialises objects
    # without changing the primary encoding.
    assert fa.data == fr.data
    assert fa.encoding == "arena"


def test_copy_preserves_encoding_and_isolates_columns():
    fr, _, _ = _nonempty_result(302)
    fa = fr.to_arena()
    clone = fa.copy()
    assert clone.encoding == "arena"
    assert list(clone.rows()) == list(fa.rows())
    clone.arena.values[0][0] = clone.arena.values[0][0]  # same buffer?
    assert clone.arena.values[0] is not fa.arena.values[0]


def test_arena_pickle_round_trip():
    """Process-pool workers ship arena-backed results by pickle."""
    fr, _, _ = _nonempty_result(303)
    fa = fr.to_arena()
    loaded = pickle.loads(pickle.dumps(fa))
    assert loaded.encoding == "arena"
    assert list(loaded.rows()) == list(fa.rows())
    loaded.validate()


# -- operator fast paths ------------------------------------------------------


def _grocery_like():
    from repro.relational.database import Database

    db = Database()
    db.add_rows(
        "Orders",
        ("oid", "item"),
        [(i, i % 6) for i in range(30)],
    )
    db.add_rows(
        "Store",
        ("item2", "loc"),
        [(i % 6, i % 4) for i in range(24)],
    )
    query = parse_query(
        "SELECT * FROM Orders, Store WHERE item = item2"
    )
    return db, query


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "!="])
def test_select_fast_path_matches_object_path(op):
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    for attribute in fo.attributes:
        cond = ConstantCondition(attribute, op, 2)
        expected = select_constant(fo, cond)
        got = select_constant(fa, cond)
        assert got.encoding == "arena" or got.is_empty()
        assert sorted(got.rows()) == sorted(expected.rows()), (
            attribute,
            op,
        )
        if not got.is_empty():
            got.validate()


def test_select_equality_falls_back_and_agrees():
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    cond = ConstantCondition("item", "=", 3)
    expected = select_constant(fo, cond)
    got = select_constant(fa, cond)
    assert sorted(got.rows()) == sorted(expected.rows())


def test_select_fast_path_empty_result_keeps_arena_encoding():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    cond = ConstantCondition("oid", "<", -1)
    got = select_constant(fa, cond)
    assert got.is_empty()
    assert got.encoding == "arena"


def test_project_subtree_drop_fast_path():
    """A projection that removes whole subtrees keeps the arena and
    agrees with the object path's relation."""
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    # Find a projection that drops a leaf subtree: project onto all
    # attributes of the tree except one leaf node's.
    tree = fa.tree
    leaves = [n for n in tree.iter_nodes() if not n.children]
    target = leaves[-1]
    keep = sorted(tree.attributes() - target.label)
    expected = project(fo, keep)
    got = project(fa, keep)
    assert got.encoding == "arena"
    assert sorted(got.rows()) == sorted(expected.rows())
    got.validate()


def test_project_identity_returns_input():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    assert project(fa, sorted(fa.tree.attributes())) is fa


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:15])
def test_random_projections_agree_between_encodings(seed):
    """Projection over arena inputs (fast path or fallback) always
    matches the object reference."""
    import random

    rng = random.Random(seed)
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result")
    fa = fr.to_arena()
    attrs = list(fr.attributes)
    keep = sorted(
        rng.sample(attrs, rng.randint(1, len(attrs)))
    )
    expected = project(fr, keep)
    got = project(fa, keep)
    assert sorted(set(got.rows())) == sorted(set(expected.rows()))


# -- the compiled enumerator ---------------------------------------------------


def _chain_arena(seed: int):
    """A three-node arena big enough for the compiled enumerator."""
    db = random_database(
        relations=1, attributes=3, tuples=60, domain=6, seed=seed
    )
    tree = FTree.from_nested(
        [("a00", [("a01", [("a02", [])])])],
        edges=[{"a00", "a01", "a02"}],
    )
    rep = factorise([db["R0"]], tree, encoding="arena")
    assert rep.entry_count >= arena._CODEGEN_MIN_ENTRIES
    return rep


def test_equal_skeletons_share_one_compiled_enumerator():
    """Every build makes a fresh skeleton object; the loop nest is
    keyed by what its source depends on, so it is compiled once per
    shape and slot assignment, not once per query."""
    first, second = _chain_arena(360), _chain_arena(361)
    assert first.skel is not second.skel
    order = ("a02", "a00", "a01")
    compiled = arena._compile_rows(first.skel, order)
    assert arena._compile_rows(second.skel, order) is compiled
    assert arena._compile_rows(first.skel, ("a00", "a01")) is not compiled
    for rep in (first, second):
        assert list(compiled(rep)) == list(
            arena._iter_rows_walk(rep, order)
        )
        assert list(arena.iter_rows(rep, order)) == list(compiled(rep))


def test_compiled_enumerator_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(arena, "_ENUM_CACHE_SIZE", 2)
    monkeypatch.setattr(arena, "_ENUM_CACHE", {})
    rep = _chain_arena(362)
    orders = [("a00",), ("a01",), ("a02",), ("a00", "a01")]
    for order in orders:
        arena._compile_rows(rep.skel, order)
        assert len(arena._ENUM_CACHE) <= 2
    # Oldest out: the last two orders are the ones still compiled.
    kept = list(arena._ENUM_CACHE.values())
    assert [arena._compile_rows(rep.skel, o) for o in orders[2:]] == kept


# -- writer/validation internals ---------------------------------------------


def test_writer_rollback_truncates_descendants():
    tree = FTree.from_nested(
        [("a", [("b", []), ("c", [])])],
        edges=[{"a", "b"}, {"a", "c"}],
    )
    writer = ArenaWriter(tree)
    index = writer.skel.index
    root = index[frozenset({"a"})]
    marks = writer.mark(root)
    writer.extend_leaf(index[frozenset({"b"})], [1, 2])
    writer.rollback(root, marks)
    assert len(writer.values[index[frozenset({"b"})]]) == 0


def test_intern_distinguishes_equal_values_of_different_types():
    tree = FTree.from_nested([("a", [])], edges=[])
    writer = ArenaWriter(tree)
    assert writer.intern(1) != writer.intern(True)
    assert writer.intern(1) != writer.intern(1.0)
    assert writer.intern(1) == writer.intern(1)


def test_validate_arena_rejects_mismatched_tree():
    fr, _, _ = _nonempty_result(304)
    if fr.is_empty():
        pytest.skip("empty result")
    rep = fr.to_arena().arena
    other = FTree.from_nested([("zz", [])], edges=[])
    with pytest.raises(ArenaError):
        arena.validate_arena(other, rep)


def test_validate_arena_rejects_bad_ranges():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    broken = fa.arena.copy()
    for slots in broken.child_hi:
        if slots and len(slots[0]):
            slots[0][0] = 10_000_000
            break
    with pytest.raises(ArenaError):
        arena.validate_arena_bounds(fa.tree, broken)


def test_pool_is_compacted_after_build():
    """Rolled-back entries must not leave dangling pool values."""
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    rep = fa.arena
    used = set()
    for column in rep.values:
        used.update(column)
    assert used == set(range(len(rep.pool)))


# -- review regressions -------------------------------------------------------


def test_count_distinct_collapses_equal_values_of_different_types():
    """1 and 1.0 intern into distinct pool slots but COUNT(DISTINCT)
    uses value equality, exactly like the object encoding."""
    from repro.relational.database import Database

    db = Database()
    db.add_rows("R", ("a", "c"), [(1, 1), (2, 1.0), (3, True), (4, 2)])
    q = parse_query("SELECT * FROM R")
    fo = FDB(db).evaluate(q)
    fa = FDB(db, encoding="arena").evaluate(q)
    assert fo.count_distinct("c") == fa.count_distinct("c") == 2


def test_bounds_check_rejects_non_contiguous_ranges():
    """In-bounds but non-DFS-tiling child ranges (what a CRC-valid
    tampered blob could carry) must fail validation -- the bulk-copy
    selection kernel relies on the tiling."""
    from repro.relational.relation import Relation

    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 1), (1, 2), (2, 3), (2, 4)]
    )
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    rep = factorise([r], tree, encoding="arena")
    arena.validate_arena_bounds(tree, rep)  # healthy baseline
    # Swap the two a-entries' b-ranges: [0,2) and [2,4) become [2,4)
    # and [0,2) -- every offset stays in bounds and non-empty, but the
    # layout is no longer the DFS tiling.
    broken = rep.copy()
    los, his = broken.child_lo[0][0], broken.child_hi[0][0]
    los[0], los[1] = los[1], los[0]
    his[0], his[1] = his[1], his[0]
    with pytest.raises(ArenaError, match="tile"):
        arena.validate_arena_bounds(tree, broken)
    # Overlapping ranges with correct endpoints are caught too.
    overlap = rep.copy()
    overlap.child_lo[0][0][1] = 1
    with pytest.raises(ArenaError, match="tile|gaps"):
        arena.validate_arena_bounds(tree, overlap)


def test_iter_rows_unknown_attribute_raises_like_objects():
    fr, _, _ = _nonempty_result(306)
    fa = fr.to_arena()
    with pytest.raises(KeyError):
        list(fr.rows(["not_an_attribute"]))
    with pytest.raises(KeyError):
        list(fa.rows(["not_an_attribute"]))
