"""Normalisation: the push-up operator and the operator ``eta``.

Section 3.1.  A child ``B`` of ``A`` can be *pushed up* (made a sibling
of ``A``) when ``A`` is not dependent on ``B`` or its descendants; the
transformation factors the subexpression over ``B``'s subtree out of
the union over ``A``:

    U_a <A:a> x (U_b <B:b> x F_b) x E_a
        ==>   (U_b <B:b> x F_b) x (U_a <A:a> x E_a)

An f-tree is *normalised* when no node can be pushed up
(Definition 3).  ``normalise`` repeats push-ups bottom-up until that
fix-point; each push-up strictly reduces the total node depth, so the
loop terminates, and each application can only shrink the
representation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops import arena_kernels
from repro.ops.base import OperatorError


def pushable_nodes(tree: FTree) -> List[FNode]:
    """All nodes that can currently be pushed above their parent."""
    return [
        node
        for node in tree.iter_nodes()
        if tree.parent_of(node) is not None and tree.pushable(node)
    ]


def push_up_tree(tree: FTree, b_attr: str) -> FTree:
    """Tree-level push-up ``psi_B`` of the node holding ``b_attr``."""
    node_b = tree.node_of(b_attr)
    node_a = tree.parent_of(node_b)
    if node_a is None:
        raise OperatorError(f"{b_attr!r} labels a root; nothing to push")
    if tree.node_depends_on_subtree(node_a, node_b):
        raise OperatorError(
            f"cannot push {sorted(node_b.label)} above "
            f"{sorted(node_a.label)}: they are dependent"
        )
    new_a = node_a.with_children(
        [c for c in node_a.children if c.label != node_b.label]
    )
    return tree.replace_node(node_a.label, [new_a, node_b])


def push_up(fr: FactorisedRelation, b_attr: str) -> FactorisedRelation:
    """Push-up on a factorised relation (tree and data together)."""
    return arena_kernels.apply(fr, "push", (b_attr,))


def normalise_tree(tree: FTree) -> Tuple[FTree, List[str]]:
    """Normalise an f-tree; returns the tree and the push-up trace.

    The trace records, per push-up, an attribute identifying the pushed
    node -- enough to replay the same transformation on data.
    """
    trace: List[str] = []
    current = tree
    while True:
        candidates = pushable_nodes(current)
        if not candidates:
            return current, trace
        # Deepest-first keeps the procedure aligned with the paper's
        # bottom-up marking scheme.
        node = max(candidates, key=lambda n: len(current.ancestors(n)))
        attr = next(iter(node.label))
        trace.append(attr)
        current = push_up_tree(current, attr)


def normalise(fr: FactorisedRelation) -> FactorisedRelation:
    """The normalisation operator ``eta`` on a factorised relation:
    the push-up trace of :func:`normalise_tree`, replayed on data."""
    chain = arena_kernels.kernel_for(fr.tree, "normalise")
    if not chain.kernels:
        return fr
    return FactorisedRelation(
        chain.out_tree, None if fr.is_empty() else chain.run(fr.rep)
    )
