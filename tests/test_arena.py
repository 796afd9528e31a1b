"""Tests for the arena (:mod:`repro.core.arena`) against its oracle.

The contract under test: the arena holds exactly the representation
the object reference (:mod:`repro.reference`) holds -- conversion
round-trips exactly, enumeration order is identical, every derived
measure (size, count, aggregates) agrees, and the operator fast paths
(non-equality selection, subtree-dropping projection) never fork from
the reference operators.  Properties run over >= 50 seeded random
databases plus the documented edge cases: the empty relation (``None``)
and the nullary tuple (``ProductRep([])`` / a zero-node arena).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import arena
from repro.core.arena import ArenaError, ArenaRep, ArenaWriter
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.ops import project, select_constant
from repro.query.hypergraph import Hypergraph
from repro.query.parser import parse_query
from repro.query.query import ConstantCondition
from repro.reference import (
    ObjectRelation,
    ProductRep,
    ReferenceEngine,
    from_object,
    from_product,
    to_object,
    to_product,
)
from repro.reference import factorise as reference_factorise
from repro.reference import ops as reference_ops
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
    return ReferenceEngine(db).evaluate(query), db, query


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
    rep = from_product(fr.tree, fr.data)
    # Round trip is exact (including the empty relation).
    assert to_product(rep) == fr.data
    if fr.data is None:
        assert rep is None
        return
    fa = FactorisedRelation(fr.tree, rep)
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
    """Factoriser output == from_product(object factorisation)."""
    db = random_database(
        relations=3, attributes=7, tuples=6, domain=4, seed=seed
    )
    query = random_spj_queries(
        db, 1, seed=seed + 2000, max_relations=3, max_equalities=2
    )[0]
    fdb = FDB(db)
    tree = fdb.optimal_tree(query)
    relations = [db[name] for name in query.relations]
    product = reference_factorise(relations, tree)
    built = factorise(relations, tree)
    assert to_product(built) == product
    if product is not None:
        order = tuple(sorted(tree.attributes()))
        assert list(arena.iter_rows(built, order)) == list(
            ObjectRelation(tree, product).rows(order)
        )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:12])
def test_aggregates_agree_with_reference(seed):
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result: aggregates covered separately")
    fa = from_object(fr)
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
    assert from_product(tree, None) is None
    assert to_product(None) is None
    fa = FactorisedRelation(tree, None)
    assert fa.is_empty()
    assert fa.count() == 0 and fa.size() == 0
    assert list(fa.rows()) == []
    assert to_object(fa).is_empty()


def test_nullary_tuple_round_trip():
    """ProductRep([]) over an empty forest <-> a zero-node arena."""
    tree = FTree([], Hypergraph([]))
    nullary = ProductRep([])
    rep = from_product(tree, nullary)
    assert rep is not None and rep.node_count == 0
    assert to_product(rep) == nullary
    assert arena.tuple_count(rep) == 1
    assert list(arena.iter_rows(rep, ())) == [()]
    fa = FactorisedRelation(tree, rep)
    assert not fa.is_empty()
    assert fa.count() == 1 and fa.size() == 0


def test_copy_isolates_columns():
    fr, _, _ = _nonempty_result(302)
    fa = from_object(fr)
    clone = fa.copy()
    assert list(clone.rows()) == list(fa.rows())
    assert clone.rep.values[0] is not fa.rep.values[0]


def test_arena_pickle_round_trip():
    """Process-pool workers ship results by pickle."""
    fr, _, _ = _nonempty_result(303)
    fa = from_object(fr)
    loaded = pickle.loads(pickle.dumps(fa))
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
    fo = ReferenceEngine(db).evaluate(query)
    fa = FDB(db).evaluate(query)
    for attribute in fo.attributes:
        cond = ConstantCondition(attribute, op, 2)
        expected = reference_ops.select_constant(fo, cond)
        got = select_constant(fa, cond)
        assert sorted(got.rows()) == sorted(expected.rows()), (
            attribute,
            op,
        )
        if not got.is_empty():
            got.validate()


def test_select_equality_agrees():
    db, query = _grocery_like()
    fo = ReferenceEngine(db).evaluate(query)
    fa = FDB(db).evaluate(query)
    cond = ConstantCondition("item", "=", 3)
    expected = reference_ops.select_constant(fo, cond)
    got = select_constant(fa, cond)
    assert sorted(got.rows()) == sorted(expected.rows())


def test_select_fast_path_empty_result():
    db, query = _grocery_like()
    fa = FDB(db).evaluate(query)
    cond = ConstantCondition("oid", "<", -1)
    got = select_constant(fa, cond)
    assert got.is_empty()
    assert got.tree.key() == fa.tree.key()


def test_project_subtree_drop_fast_path():
    """A projection that removes whole subtrees shares the surviving
    columns and agrees with the object path's relation."""
    db, query = _grocery_like()
    fo = ReferenceEngine(db).evaluate(query)
    fa = FDB(db).evaluate(query)
    # Find a projection that drops a leaf subtree: project onto all
    # attributes of the tree except one leaf node's.
    tree = fa.tree
    leaves = [n for n in tree.iter_nodes() if not n.children]
    target = leaves[-1]
    keep = sorted(tree.attributes() - target.label)
    expected = reference_ops.project(fo, keep)
    got = project(fa, keep)
    assert got.rep.pool is fa.rep.pool
    assert sorted(got.rows()) == sorted(expected.rows())
    got.validate()


def test_project_identity_returns_input():
    db, query = _grocery_like()
    fa = FDB(db).evaluate(query)
    assert project(fa, sorted(fa.tree.attributes())) is fa


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:15])
def test_random_projections_agree_with_reference(seed):
    """Projection (fast path or general phases) always matches the
    object reference."""
    import random

    rng = random.Random(seed)
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result")
    fa = from_object(fr)
    attrs = list(fr.attributes)
    keep = sorted(
        rng.sample(attrs, rng.randint(1, len(attrs)))
    )
    expected = reference_ops.project(fr, keep)
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
    rep = factorise([db["R0"]], tree)
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
    rep = from_object(fr).rep
    other = FTree.from_nested([("zz", [])], edges=[])
    with pytest.raises(ArenaError):
        arena.validate_arena(other, rep)


def test_validate_arena_rejects_bad_ranges():
    db, query = _grocery_like()
    fa = FDB(db).evaluate(query)
    broken = fa.rep.copy()
    for slots in broken.child_hi:
        if slots and len(slots[0]):
            slots[0][0] = 10_000_000
            break
    with pytest.raises(ArenaError):
        arena.validate_arena_bounds(fa.tree, broken)


def test_validate_arena_enforces_the_constant_node_rule():
    """A ``constant`` node holds exactly one value per union (what an
    equality selection leaves behind); a hand-built two-value union
    under one is well-formed in every other respect -- sorted, tiled,
    in bounds -- and must still be rejected."""
    from repro.core.ftree import FNode

    tree = FTree(
        [FNode({"c"}, [FNode({"x"}, [])], constant=True)],
        Hypergraph([]),
    )
    good = ArenaWriter(tree)
    good.extend_leaf(1, [7, 8])
    good.child_lo[0][0].append(0)
    good.child_hi[0][0].append(2)
    good.values[0].append(good.intern(5))
    arena.validate_arena(tree, good.finish())

    bad = ArenaWriter(tree)
    for value, (lo, hi) in ((5, (0, 1)), (6, (1, 2))):
        bad.extend_leaf(1, [value + 2])
        bad.child_lo[0][0].append(lo)
        bad.child_hi[0][0].append(hi)
        bad.values[0].append(bad.intern(value))
    rep = bad.finish()
    arena.validate_arena_bounds(tree, rep)  # structurally fine
    with pytest.raises(ArenaError, match="constant node"):
        arena.validate_arena(tree, rep)
    with pytest.raises(ArenaError, match="constant node"):
        FactorisedRelation(tree, rep).validate()


def test_pool_is_compacted_after_build():
    """Rolled-back entries must not leave dangling pool values."""
    db, query = _grocery_like()
    fa = FDB(db).evaluate(query)
    rep = fa.rep
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
    fo = ReferenceEngine(db).evaluate(q)
    fa = FDB(db).evaluate(q)
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
    rep = factorise([r], tree)
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
    fa = from_object(fr)
    with pytest.raises(KeyError):
        list(fr.rows(["not_an_attribute"]))
    with pytest.raises(KeyError):
        list(fa.rows(["not_an_attribute"]))
