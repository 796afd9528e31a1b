"""The merge selection operator ``mu_{A,B}`` (Section 3.3, Fig. 3(c)).

Merging enforces an equality ``A = B`` between *sibling* nodes: the two
nodes fuse into one labelled by the union of their attribute classes,
with the children of both.  On data it is a sort-merge join of the two
sibling unions (:class:`repro.ops.arena_kernels.MergeKernel`: the
sorted intersection of the two value columns' (occurrence, value-rank)
keys, then one mask cascade; matched entries adopt both child
forests):

    ( U_a <A:a> x E_a ) x ( U_b <B:b> x F_b )
        ==>  U_{a=b} <A:a> x <B:b> x E_a x F_b

A merge can empty a union (no common values), in which case the
surrounding entry is pruned -- possibly cascading to an empty result.
Merging preserves the path constraint and normalisation (root-to-leaf
paths only get shorter).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops import arena_kernels
from repro.ops.base import OperatorError


def _merge_parts(
    tree: FTree, a_attr: str, b_attr: str
) -> Tuple[FNode, FNode, FNode]:
    node_a = tree.node_of(a_attr)
    node_b = tree.node_of(b_attr)
    if node_a.label == node_b.label:
        raise OperatorError(
            f"{a_attr!r} and {b_attr!r} already label the same node"
        )
    parent_a = tree.parent_of(node_a)
    parent_b = tree.parent_of(node_b)
    same_parent = (
        (parent_a is None and parent_b is None)
        or (
            parent_a is not None
            and parent_b is not None
            and parent_a.label == parent_b.label
        )
    )
    if not same_parent:
        raise OperatorError(
            f"merge requires siblings; {sorted(node_a.label)} and "
            f"{sorted(node_b.label)} have different parents"
        )
    merged = FNode(
        node_a.label | node_b.label,
        list(node_a.children) + list(node_b.children),
        node_a.constant and node_b.constant,
    )
    return node_a, node_b, merged


def merge_tree(tree: FTree, a_attr: str, b_attr: str) -> FTree:
    """Tree-level merge of two sibling nodes."""
    node_a, node_b, merged = _merge_parts(tree, a_attr, b_attr)
    without_b = tree.replace_node(node_b.label, [])
    return without_b.replace_node(node_a.label, [merged])


def merge(
    fr: FactorisedRelation, a_attr: str, b_attr: str
) -> FactorisedRelation:
    """Merge on a factorised relation: sort-merge join of the unions."""
    return arena_kernels.apply(fr, "merge", (a_attr, b_attr))
