"""Unit tests for constant selection, projection and product."""

import importlib

import pytest

from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ops import (
    product,
    project,
    select_constant,
    OperatorError,
)
from repro.query.query import ConstantCondition
from repro.relational.relation import Relation
from repro.workloads import grocery_database, tree_t1
from tests.conftest import assignments, filtered


def q1_factorised():
    db = grocery_database()
    tree = tree_t1()
    return FactorisedRelation(
        tree, factorise([db["Orders"], db["Store"], db["Disp"]], tree)
    )


# -- selection with constant -------------------------------------------------


def test_inequality_selection_filters_everywhere():
    fr = q1_factorised()
    cond = ConstantCondition("oid", "<", 3)
    out = select_constant(fr, cond).validate()
    assert assignments(out) == filtered(
        fr, predicate=lambda d: d["oid"] < 3
    )
    # Tree unchanged for non-equality comparisons.
    assert out.tree.key() == fr.tree.key()


def test_equality_selection_marks_constant_and_floats():
    fr = q1_factorised()
    out = select_constant(
        fr, ConstantCondition("s_location", "=", "Istanbul")
    ).validate()
    assert assignments(out) == filtered(
        fr, predicate=lambda d: d["s_location"] == "Istanbul"
    )
    node = out.tree.node_of("s_location")
    assert node.constant
    # The constant node's attributes are gone from the edges.
    for edge in out.tree.edges:
        assert not (edge & node.label)
    assert out.tree.is_normalised()


def test_selection_can_empty_result_with_cascade():
    fr = q1_factorised()
    out = select_constant(
        fr, ConstantCondition("dispatcher", "=", "Nobody")
    )
    assert out.is_empty()


def test_selection_on_empty_input():
    fr = q1_factorised()
    empty = FactorisedRelation(fr.tree, None)
    out = select_constant(empty, ConstantCondition("oid", "=", 1))
    assert out.is_empty()
    assert out.tree.node_of("oid").constant


@pytest.mark.parametrize("op", ["=", "!="])
def test_selection_on_empty_input_reuses_the_prepared_tree(
    op, monkeypatch
):
    """An empty input gets the same output tree as
    ``select_constant_tree`` -- from the prepared normalisation kernel
    the non-empty path uses, not from a fresh ``normalise_tree``."""
    # ``repro.ops`` re-exports functions named like these modules.
    normalise = importlib.import_module("repro.ops.normalise")
    select = importlib.import_module("repro.ops.select")

    fr = q1_factorised()
    cond = ConstantCondition("oid", op, 1)
    expected = select.select_constant_tree(fr.tree, cond)
    select_constant(fr, cond)  # prepares the kernel
    calls = []
    monkeypatch.setattr(
        normalise, "normalise_tree", lambda tree: calls.append(tree)
    )
    monkeypatch.setattr(
        select, "normalise_tree", lambda tree: calls.append(tree)
    )
    empty = FactorisedRelation(fr.tree, None)
    out = select_constant(empty, cond)
    assert out.is_empty()
    assert out.tree.key() == expected.key()
    assert calls == []


def test_equality_then_requery_consistency():
    fr = q1_factorised()
    once = select_constant(fr, ConstantCondition("oid", "=", 1))
    twice = select_constant(
        once, ConstantCondition("dispatcher", "=", "Adnan")
    ).validate()
    assert assignments(twice) == filtered(
        fr,
        predicate=lambda d: d["oid"] == 1
        and d["dispatcher"] == "Adnan",
    )


# -- projection ----------------------------------------------------------------


def test_project_leaf_removal():
    fr = q1_factorised()
    keep = ["o_item", "s_item", "s_location", "d_location", "oid"]
    out = project(fr, keep).validate()
    expected = {
        tuple(sorted((k, v) for k, v in d.items() if k in keep))
        for d in fr
    }
    assert assignments(out) == expected
    assert "dispatcher" not in out.tree.attributes()


def test_project_partial_label_reduction():
    fr = q1_factorised()
    keep = ["o_item", "oid", "s_location", "d_location", "dispatcher"]
    out = project(fr, keep).validate()  # drops s_item from {o,s}_item
    assert "s_item" not in out.tree.attributes()
    expected = {
        tuple(sorted((k, v) for k, v in d.items() if k in keep))
        for d in fr
    }
    assert assignments(out) == expected


def test_project_inner_node_keeps_transitive_dependence():
    """Section 3.4's A-B-C warning: removing B keeps A, C dependent."""
    x = Relation.from_rows(
        "X", ("a", "b"), [(1, 1), (1, 2), (2, 2)]
    )
    y = Relation.from_rows(
        "Y", ("b2", "c"), [(1, 5), (2, 6), (2, 7)]
    )
    tree = FTree.from_nested(
        [("a", [(("b", "b2"), [("c", [])])])],
        edges=[{"a", "b"}, {"b2", "c"}],
    )
    fr = FactorisedRelation(tree, factorise([x, y], tree))
    out = project(fr, ["a", "c"]).validate()
    expected = {
        tuple(sorted((k, v) for k, v in d.items() if k in ("a", "c")))
        for d in fr
    }
    assert assignments(out) == expected
    # a and c must still be on one path (phantom edge), not a forest.
    out_tree = out.tree
    node_a, node_c = out_tree.node_of("a"), out_tree.node_of("c")
    assert out_tree.is_ancestor(node_a, node_c) or (
        out_tree.is_ancestor(node_c, node_a)
    )


def test_project_to_empty_schema_is_nullary():
    fr = q1_factorised()
    out = project(fr, [])
    assert out.count() == 1  # the nullary tuple (input non-empty)
    assert out.attributes == ()


def test_project_unknown_attribute_rejected():
    fr = q1_factorised()
    with pytest.raises(OperatorError):
        project(fr, ["zzz"])


def test_project_on_empty_relation():
    fr = q1_factorised()
    empty = FactorisedRelation(fr.tree, None)
    out = project(empty, ["oid"])
    assert out.is_empty()
    assert out.tree.attributes() == frozenset({"oid"})


def test_project_identity_is_noop_relation():
    fr = q1_factorised()
    out = project(fr, list(fr.attributes))
    assert assignments(out) == assignments(fr)


# -- product ---------------------------------------------------------------------


def test_product_counts_multiply():
    r = Relation.from_rows("R", ("a",), [(1,), (2,)])
    s = Relation.from_rows("S", ("b",), [(5,), (6,), (7,)])
    tr = FTree.from_nested([("a", [])], [{"a"}])
    ts = FTree.from_nested([("b", [])], [{"b"}])
    fa = FactorisedRelation(tr, factorise([r], tr))
    fb = FactorisedRelation(ts, factorise([s], ts))
    out = product(fa, fb).validate()
    assert out.count() == 6
    assert out.size() == 5  # linear, not quadratic: 2 + 3 singletons


def test_product_rejects_overlapping_attributes():
    r = Relation.from_rows("R", ("a",), [(1,)])
    tr = FTree.from_nested([("a", [])], [{"a"}])
    fa = FactorisedRelation(tr, factorise([r], tr))
    with pytest.raises(OperatorError):
        product(fa, fa)


def test_product_with_empty_is_empty():
    r = Relation.from_rows("R", ("a",), [(1,)])
    tr = FTree.from_nested([("a", [])], [{"a"}])
    fa = FactorisedRelation(tr, factorise([r], tr))
    ts = FTree.from_nested([("b", [])], [{"b"}])
    fb = FactorisedRelation(ts, None)
    assert product(fa, fb).is_empty()
    assert product(fb, fa).is_empty()
