"""The swap operator ``chi_{A,B}`` (Section 3.1, Figure 3(b)/Figure 4).

Swapping exchanges a node ``B`` with its parent ``A``: data grouped
first by ``A`` then ``B`` is regrouped by ``B`` then ``A``.  Children
of ``B`` that do not depend on ``A`` (the forest ``T_B``) move up with
``B``; children that do depend on ``A`` (``T_AB``) stay below ``A``:

    U_a ( <A:a> x E_a x U_b ( <B:b> x F_b x G_ab ) )
        ==>  U_b ( <B:b> x F_b x U_a ( <A:a> x E_a x G_ab ) )

The data algorithm is the paper's Figure 4 on columns, for all
occurrences of the swapped level at once
(:class:`repro.ops.arena_kernels.SwapKernel`): where Figure 4 merges
the sorted inner unions of one occurrence through a min-priority queue
keyed by the next ``B``-value of every ``A``-group, the kernel sorts
every (a, b) pair of the column once, stably, by (occurrence, rank of
b) -- the same order, the same quasilinear ``O(N log N)`` bound of
Proposition 2 -- and moves the subtree payloads by forest gather: the
output entries refer to their input entries' forests through shared
child slots, so the work is linear in the (a, b) pairs, not in the
forests below them.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops import arena_kernels
from repro.ops.base import OperatorError


def _swap_parts(
    tree: FTree, a_attr: str, b_attr: str
) -> Tuple[FNode, FNode, List[FNode], List[FNode], List[FNode]]:
    """Resolve A, B, and the partition (E-children, T_B, T_AB)."""
    node_a = tree.node_of(a_attr)
    node_b = tree.node_of(b_attr)
    parent_b = tree.parent_of(node_b)
    if parent_b is None or parent_b.label != node_a.label:
        raise OperatorError(
            f"swap requires {sorted(node_b.label)} to be a child of "
            f"{sorted(node_a.label)}"
        )
    a_others = [c for c in node_a.children if c.label != node_b.label]
    t_b: List[FNode] = []
    t_ab: List[FNode] = []
    for child in node_b.children:
        if tree.node_depends_on_subtree(node_a, child):
            t_ab.append(child)
        else:
            t_b.append(child)
    return node_a, node_b, a_others, t_b, t_ab


def swap_tree(tree: FTree, a_attr: str, b_attr: str) -> FTree:
    """Tree-level swap: ``B`` becomes the parent of ``A``."""
    node_a, node_b, a_others, t_b, t_ab = _swap_parts(
        tree, a_attr, b_attr
    )
    new_a = FNode(node_a.label, a_others + t_ab, node_a.constant)
    new_b = FNode(node_b.label, t_b + [new_a], node_b.constant)
    return tree.replace_node(node_a.label, [new_b])


def swap(
    fr: FactorisedRelation, a_attr: str, b_attr: str
) -> FactorisedRelation:
    """Swap on a factorised relation (Figure 4, column-wise)."""
    return arena_kernels.apply(fr, "swap", (a_attr, b_attr))
