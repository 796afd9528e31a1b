"""Unit tests for the swap operator (Section 3.1, Figure 4)."""

import random

import pytest

from repro.core.build import factorise
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ops import swap, swap_tree, OperatorError
from repro.reference import ops as reference_ops
from repro.reference import to_object, to_product
from repro.relational.relation import Relation
from repro.workloads import (
    grocery_database,
    tree_t1,
    tree_t2,
    tree_t3,
    tree_t4,
)
from tests.conftest import assignments


def q1_factorised():
    db = grocery_database()
    tree = tree_t1()
    return FactorisedRelation(
        tree, factorise([db["Orders"], db["Store"], db["Disp"]], tree)
    )


def test_example8_t1_to_t2():
    """Example 8: chi_{item,location} turns T1 into T2."""
    fr = q1_factorised()
    out = swap(fr, "o_item", "s_location").validate()
    assert out.tree.key() == tree_t2().key()
    assert assignments(out) == assignments(fr)


def test_example2_t3_to_t4():
    """Example 2's restructuring of Q2's result from T3 to T4."""
    db = grocery_database()
    tree = tree_t3()
    fr = FactorisedRelation(
        tree, factorise([db["Produce"], db["Serve"]], tree)
    )
    out = swap(fr, "p_supplier", "p_item").validate()
    assert out.tree.key() == tree_t4().key()
    assert assignments(out) == assignments(fr)


def test_swap_is_its_own_inverse_on_relation():
    fr = q1_factorised()
    there = swap(fr, "o_item", "s_location")
    back = swap(there, "s_location", "o_item")
    assert back.tree.key() == fr.tree.key()
    assert assignments(back) == assignments(fr)
    # canonical form is unique
    assert to_product(back.rep) == to_product(fr.rep)


def test_swap_requires_parent_child():
    fr = q1_factorised()
    with pytest.raises(OperatorError):
        swap(fr, "o_item", "dispatcher")  # grandchild, not child
    with pytest.raises(OperatorError):
        swap(fr, "oid", "o_item")  # wrong direction


def test_swap_dependent_children_stay_below():
    """T_AB children (dependent on A) must remain under A."""
    tree = tree_t1()
    swapped = swap_tree(tree, "o_item", "s_location")
    # After the swap, dispatcher (dependent on location only) moves up
    # with location; oid (dependent on item) stays under item.
    loc = swapped.node_of("s_location")
    assert swapped.parent_of(swapped.node_of("o_item")).label == (
        loc.label
    )
    assert swapped.parent_of(swapped.node_of("dispatcher")).label == (
        loc.label
    )
    assert swapped.parent_of(swapped.node_of("oid")).label == (
        frozenset({"o_item", "s_item"})
    )


def test_swap_preserves_path_constraint_and_normalisation():
    fr = q1_factorised()
    out = swap(fr, "o_item", "s_location")
    assert out.tree.satisfies_path_constraint()
    assert out.tree.is_normalised()


def test_priority_queue_matches_reference_implementation():
    fr = q1_factorised()
    fast = swap(fr, "o_item", "s_location")
    slow = reference_ops.swap_reference(
        to_object(fr), "o_item", "s_location"
    )
    assert fast.tree.key() == slow.tree.key()
    assert to_product(fast.rep) == slow.data
    figure4 = reference_ops.swap(to_object(fr), "o_item", "s_location")
    assert figure4.data == slow.data


@pytest.mark.parametrize("seed", range(6))
def test_random_swaps_match_reference(seed):
    """Differential: PQ swap == reference swap on random data."""
    rng = random.Random(seed)
    rows_r = [
        (rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(rng.randint(2, 10))
    ]
    rows_s = [
        (rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(rng.randint(2, 10))
    ]
    r = Relation.from_rows("R", ("a", "b"), rows_r)
    s = Relation.from_rows("S", ("c", "d"), rows_s)
    tree = FTree.from_nested(
        [("a", [(("b", "c"), [("d", [])])])],
        edges=[{"a", "b"}, {"c", "d"}],
    )
    data = factorise([r, s], tree)
    if data is None:
        pytest.skip("empty join")
    fr = FactorisedRelation(tree, data)
    fast = swap(fr, "a", "b").validate()
    slow = reference_ops.swap_reference(
        to_object(fr), "a", "b"
    ).validate()
    assert to_product(fast.rep) == slow.data
    assert reference_ops.swap(to_object(fr), "a", "b").data == slow.data
    assert assignments(fast) == assignments(fr)


def test_swap_on_empty_relation():
    fr = q1_factorised()
    empty = FactorisedRelation(fr.tree, None)
    out = swap(empty, "o_item", "s_location")
    assert out.is_empty()
    assert out.tree.key() == tree_t2().key()


def test_swap_at_nested_level():
    """Swapping below the root rewrites every occurrence."""
    db = grocery_database()
    tree = tree_t1()
    fr = FactorisedRelation(
        tree, factorise([db["Orders"], db["Store"], db["Disp"]], tree)
    )
    out = swap(fr, "s_location", "dispatcher").validate()
    assert assignments(out) == assignments(fr)
    # dispatcher now sits between item and location.
    disp = out.tree.node_of("dispatcher")
    assert out.tree.parent_of(disp).label == frozenset(
        {"o_item", "s_item"}
    )
    loc = out.tree.node_of("s_location")
    assert out.tree.parent_of(loc).label == disp.label
