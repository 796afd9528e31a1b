"""Unit tests for the factorisation builder and tuple enumeration."""

import random

import pytest

from repro.core import arena
from repro.core.build import Factoriser, factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree, FTreeError
from repro.query.query import Query
from repro.reference import ProductRep
from repro.reference import factorise as reference_factorise
from repro.reference.walkers import iter_assignments, iter_rows
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.relation import Relation
from tests.conftest import (
    assignments,
    flat_assignments,
    random_equalities_for,
    random_small_database,
)


def test_example3_single_relation_factorisation():
    """The paper's Example 3: R = {(1,1),(1,2),(2,2)} over a->b."""
    r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    rep = factorise([r], tree)
    fr = FactorisedRelation(tree, rep).validate()
    assert fr.count() == 3
    assert fr.size() == 5  # <a:1>x(<b:1> u <b:2>) u <a:2>x<b:2>
    assert fr.equals_flat(r)


def test_two_relation_join_matches_flat():
    db = Database()
    db.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)])
    db.add_rows("S", ("c", "d"), [(1, 7), (2, 8), (2, 9)])
    tree = FTree.from_nested(
        [(("b", "c"), [("a", []), ("d", [])])],
        edges=[{"a", "b"}, {"c", "d"}],
    )
    fr = FactorisedRelation(tree, factorise(list(db), tree)).validate()
    flat = RelationalEngine(db).evaluate(
        Query.make(["R", "S"], [("b", "c")])
    )
    assert fr.equals_flat(flat)


def test_empty_join_returns_none():
    r = Relation.from_rows("R", ("a",), [(1,)])
    s = Relation.from_rows("S", ("b",), [(2,)])
    tree = FTree.from_nested(
        [(("a", "b"), [])], edges=[{"a"}, {"b"}]
    )
    assert factorise([r, s], tree) is None


def test_values_pruned_when_subtree_empty():
    # a=2 has no matching d; the a=2 branch must be pruned entirely.
    r = Relation.from_rows("R", ("a", "b"), [(1, 1), (2, 5)])
    s = Relation.from_rows("S", ("c", "d"), [(1, 9)])
    tree = FTree.from_nested(
        [("a", [(("b", "c"), [("d", [])])])],
        edges=[{"a", "b"}, {"c", "d"}],
    )
    fr = FactorisedRelation(tree, factorise([r, s], tree)).validate()
    assert assignments(fr) == {
        (("a", 1), ("b", 1), ("c", 1), ("d", 9))
    }


def test_intra_relation_class_equality_enforced():
    # Class {a, b} inside one relation: only rows with a == b survive.
    r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (3, 3)])
    tree = FTree.from_nested([(("a", "b"), [])], [{"a", "b"}])
    fr = FactorisedRelation(tree, factorise([r], tree)).validate()
    assert assignments(fr) == {
        (("a", 1), ("b", 1)),
        (("a", 3), ("b", 3)),
    }


def test_missing_relation_for_tree_attribute_rejected():
    r = Relation.from_rows("R", ("a",), [(1,)])
    tree = FTree.from_nested(
        [("a", []), ("zz", [])], edges=[{"a"}, {"zz"}]
    )
    with pytest.raises(FTreeError):
        Factoriser([r], tree)


def test_factoriser_reusable():
    r = Relation.from_rows("R", ("a", "b"), [(1, 2)])
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    fac = Factoriser([r], tree)
    assert fac.run() is not None
    assert fac.run() is not None  # second run works identically


def test_enumeration_order_is_sorted():
    r = Relation.from_rows(
        "R", ("a", "b"), [(2, 1), (1, 2), (1, 1), (2, 3)]
    )
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    fr = FactorisedRelation(tree, factorise([r], tree))
    rows = list(fr.rows(("a", "b")))
    assert rows == sorted(rows)


def test_iter_rows_projection_order():
    r = Relation.from_rows("R", ("a", "b"), [(1, 2)])
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    assert list(arena.iter_rows(factorise([r], tree), ("b", "a"))) == [
        (2, 1)
    ]
    rep = reference_factorise([r], tree)
    assert list(iter_rows(tree.roots, rep, ("b", "a"))) == [(2, 1)]


def test_iter_assignments_none_is_empty():
    tree = FTree.from_nested([("a", [])], [{"a"}])
    assert list(iter_assignments(tree.roots, None)) == []
    assert list(arena.iter_assignments(None)) == []


def test_nullary_product_enumerates_one_tuple():
    assert list(iter_assignments((), ProductRep())) == [{}]


@pytest.mark.parametrize("seed", range(8))
def test_random_databases_factorise_correctly(seed):
    """Differential test: factorised join == flat join on random data."""
    rng = random.Random(seed)
    db = random_small_database(rng)
    equalities = random_equalities_for(db, rng, rng.randint(0, 2))
    query = Query.make(db.names, equalities=equalities)
    flat = RelationalEngine(db).evaluate(query)

    from repro.optimiser.ftree_optimiser import optimal_ftree

    tree, _ = optimal_ftree(db, query)
    fr = FactorisedRelation(tree, factorise(list(db), tree))
    fr.validate()
    assert flat_assignments(flat) == assignments(fr)
    assert fr.count() == len(flat)
