"""Unit tests for push-up and normalisation (Section 3.1)."""

import pytest

from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ops import (
    normalise,
    normalise_tree,
    push_up,
    push_up_tree,
    pushable_nodes,
    OperatorError,
)
from repro.reference import to_product
from repro.relational.relation import Relation
from tests.conftest import assignments


def denormalised_fr():
    """R(a,b) x S(c): c artificially nested under b."""
    r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    s = Relation.from_rows("S", ("c",), [(5,), (6,)])
    tree = FTree.from_nested(
        [("a", [("b", [("c", [])])])],
        edges=[{"a", "b"}, {"c"}],
    )
    data = factorise([r, s], tree)
    return FactorisedRelation(tree, data)


def test_pushable_nodes_detects_independent_subtree():
    fr = denormalised_fr()
    labels = [sorted(n.label) for n in pushable_nodes(fr.tree)]
    assert labels == [["c"]]


def test_push_up_tree_shape():
    fr = denormalised_fr()
    out = push_up_tree(fr.tree, "c")
    # c becomes a sibling of b (child of a).
    assert out.parent_of(out.node_of("c")).label == frozenset({"a"})


def test_push_up_data_preserves_relation_and_shrinks_size():
    fr = denormalised_fr()
    before = assignments(fr)
    size_before = fr.size()
    out = push_up(fr, "c").validate()
    assert assignments(out) == before
    assert out.size() < size_before  # c-union factored out once per a


def test_push_up_illegal_on_root():
    fr = denormalised_fr()
    with pytest.raises(OperatorError):
        push_up(fr, "a")


def test_push_up_illegal_when_dependent():
    fr = denormalised_fr()
    with pytest.raises(OperatorError):
        push_up(fr, "b")  # b depends on a through edge {a, b}


def test_normalise_reaches_fixpoint():
    fr = denormalised_fr()
    out = normalise(fr).validate()
    assert out.tree.is_normalised()
    assert assignments(out) == assignments(fr)
    # Normalising again changes nothing.
    again = normalise(out)
    assert again.tree.key() == out.tree.key()
    assert to_product(again.rep) == to_product(out.rep)


def test_normalise_tree_trace_replayable():
    fr = denormalised_fr()
    tree, trace = normalise_tree(fr.tree)
    assert tree.is_normalised()
    assert len(trace) >= 1
    replayed = fr.tree
    for attr in trace:
        replayed = push_up_tree(replayed, attr)
    assert replayed.key() == tree.key()


def test_example7_two_step_normalisation():
    """Example 7: E floats above {D,D'}, then {D,D'} floats above A."""
    edges = [
        {"A", "B"},
        {"B2", "C"},
        {"C2", "D"},
        {"D2", "E"},
    ]
    tree = FTree.from_nested(
        [
            (
                ("B", "B2"),
                [
                    (
                        "A",
                        [
                            (
                                ("D", "D2"),
                                [(("C", "C2"), []), ("E", [])],
                            )
                        ],
                    )
                ],
            )
        ],
        edges=edges,
    )
    # Wait -- in the paper E hangs under {D,D'}; C,C' under {D,D'}?
    # Fig: B,B' -> A -> D,D' -> (C,C' and E).  Build exactly that:
    tree = FTree.from_nested(
        [
            (
                ("B", "B2"),
                [
                    (
                        "A",
                        [
                            (
                                ("D", "D2"),
                                [
                                    (("C", "C2"), []),
                                    ("E", []),
                                ],
                            )
                        ],
                    )
                ],
            )
        ],
        edges=edges,
    )
    normalised, _ = normalise_tree(tree)
    assert normalised.is_normalised()
    # Final shape: B,B' with children A and D,D'; D,D' has C,C' and E.
    root = normalised.roots[0]
    assert root.label == frozenset({"B", "B2"})
    child_labels = {frozenset(c.label) for c in root.children}
    assert frozenset({"A"}) in child_labels
    assert frozenset({"D", "D2"}) in child_labels
    dd = normalised.node_of("D")
    dd_children = {frozenset(c.label) for c in dd.children}
    assert dd_children == {
        frozenset({"C", "C2"}),
        frozenset({"E"}),
    }


def test_push_up_on_empty_relation():
    fr = denormalised_fr()
    empty = FactorisedRelation(fr.tree, None)
    out = push_up(empty, "c")
    assert out.is_empty()
    assert out.tree.key() == push_up_tree(fr.tree, "c").key()
