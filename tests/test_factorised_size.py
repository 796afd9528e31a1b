"""Unit tests for FactorisedRelation and the size measures."""

import pytest

from repro.core import FRepError
from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.query.hypergraph import Hypergraph
from repro.reference import ProductRep, UnionRep, to_object
from repro.reference.walkers import (
    data_elements,
    representation_size,
    tuple_count,
    validate,
    validate_relation,
)
from repro.relational.relation import Relation


@pytest.fixture
def fr():
    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 1), (1, 2), (2, 2)]
    )
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    return FactorisedRelation(tree, factorise([r], tree))


def test_attributes_sorted(fr):
    assert fr.attributes == ("a", "b")


def test_size_counts_singletons(fr):
    assert fr.size() == 5
    assert representation_size(fr.tree.roots, to_object(fr).data) == 5


def test_count_without_enumeration(fr):
    assert fr.count() == 3
    assert tuple_count(fr.tree.roots, to_object(fr).data) == 3


def test_flat_data_elements(fr):
    assert fr.flat_data_elements() == 3 * 2
    assert data_elements(fr.tree.roots, to_object(fr).data) == 6


def test_empty_relation():
    tree = FTree.from_nested([("a", [])], [{"a"}])
    fr = FactorisedRelation(tree, None)
    assert fr.is_empty()
    assert fr.size() == 0 and fr.count() == 0
    assert list(fr) == []
    assert fr.to_expression().tuples() == set()


def test_to_relation_round_trip(fr):
    flat = fr.to_relation("flat")
    assert set(flat.rows) == {(1, 1), (1, 2), (2, 2)}
    assert fr.equals_flat(flat)


def test_equals_flat_detects_mismatch(fr):
    other = Relation.from_rows("X", ("a", "b"), [(1, 1)])
    assert not fr.equals_flat(other)
    different_schema = Relation.from_rows("Y", ("a", "z"), [(1, 1)])
    assert not fr.equals_flat(different_schema)


def test_same_relation_across_structures(fr):
    # Same relation factorised over b -> a instead of a -> b.
    r = fr.to_relation()
    tree = FTree.from_nested([("b", [("a", [])])], [{"a", "b"}])
    other = FactorisedRelation(tree, factorise([r], tree))
    assert fr.same_relation(other)
    assert other.same_relation(fr)


def test_pretty_is_definition1_text(fr):
    text = fr.pretty()
    assert "⟨a:1⟩" in text
    assert fr.pretty(unicode_glyphs=False).startswith("<")


def test_copy_is_independent(fr):
    clone = fr.copy()
    # Drop the a=2 entry (and the b-union below it) from the clone.
    rep = clone.rep
    for column in (rep.values[0], rep.child_lo[0][0], rep.child_hi[0][0]):
        column.pop()
    rep.values[1].pop()
    assert fr.count() == 3
    assert clone.count() != 3
    obj = to_object(fr)
    obj_clone = obj.copy()
    obj_clone.data.factors[0].entries.pop()
    assert obj.count() == 3
    assert obj_clone.count() != 3


def test_validate_catches_misalignment():
    tree = FTree.from_nested([("a", [])], [{"a"}])
    bad = ProductRep([])  # arity mismatch: 1 root but 0 factors
    with pytest.raises(FRepError):
        validate(tree.roots, bad)


def test_validate_catches_unsorted_union():
    tree = FTree.from_nested([("a", [])], [{"a"}])
    bad = ProductRep(
        [UnionRep([(2, ProductRep()), (1, ProductRep())])]
    )
    with pytest.raises(FRepError):
        validate(tree.roots, bad)


def test_validate_catches_empty_union():
    tree = FTree.from_nested([("a", [])], [{"a"}])
    with pytest.raises(FRepError):
        validate(tree.roots, ProductRep([UnionRep([])]))


def test_validate_catches_constant_node_with_two_values():
    tree = FTree([FNode({"a"}, constant=True)], Hypergraph([]))
    bad = ProductRep(
        [UnionRep([(1, ProductRep()), (2, ProductRep())])]
    )
    with pytest.raises(FRepError):
        validate(tree.roots, bad)


def test_validate_relation_checks_path_constraint():
    tree = FTree.from_nested(
        [("r", [("a", []), ("b", [])])], edges=[{"a", "b"}]
    )
    with pytest.raises(FRepError):
        validate_relation(tree, None)
    with pytest.raises(FRepError):
        FactorisedRelation(tree, None).validate()


def test_repr_mentions_size_and_count(fr):
    text = repr(fr)
    assert "size=5" in text and "tuples=3" in text
