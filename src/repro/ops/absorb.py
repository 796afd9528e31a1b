"""The absorb selection operator ``alpha_{A,B}`` (Section 3.3,
Figure 3(d)).

Absorption enforces ``A = B`` when ``A`` is an *ancestor* of ``B``: in
every context, the union over ``B`` sits inside a union over ``A`` and
is therefore restricted to the single value ``a`` of its enclosing
``A``-singleton (or pruned when that value is absent).  The node ``B``
disappears -- its attributes join ``A``'s label, its children are
adopted by ``B``'s former parent -- and a final normalisation pass
floats any subtrees freed by the restriction (nodes on the path
between ``A`` and ``B`` may have lost their reason to sit below ``A``,
cf. Example 10).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops import arena_kernels
from repro.ops.base import OperatorError
from repro.ops.normalise import normalise_tree


def _absorb_parts(
    tree: FTree, a_attr: str, b_attr: str
) -> Tuple[FNode, FNode]:
    node_a = tree.node_of(a_attr)
    node_b = tree.node_of(b_attr)
    if node_a.label == node_b.label:
        raise OperatorError(
            f"{a_attr!r} and {b_attr!r} already label the same node"
        )
    if not tree.is_ancestor(node_a, node_b):
        raise OperatorError(
            f"absorb requires {sorted(node_a.label)} to be an ancestor "
            f"of {sorted(node_b.label)}"
        )
    return node_a, node_b


def _structural_tree(
    tree: FTree, node_a: FNode, node_b: FNode
) -> Tuple[FTree, FNode]:
    """The f-tree after absorption, *before* normalisation.

    Returns the tree and the merged node (for data alignment).
    """
    a_attr = next(iter(node_a.label))
    spliced = tree.replace_node(node_b.label, list(node_b.children))
    node_a_after = spliced.node_of(a_attr)
    merged = FNode(
        node_a.label | node_b.label,
        node_a_after.children,
        node_a.constant and node_b.constant,
    )
    structural = spliced.replace_node(node_a.label, [merged])
    return structural, merged


def absorb_tree(tree: FTree, a_attr: str, b_attr: str) -> FTree:
    """Tree-level absorb, including the final normalisation."""
    node_a, node_b = _absorb_parts(tree, a_attr, b_attr)
    structural, _ = _structural_tree(tree, node_a, node_b)
    normalised, _ = normalise_tree(structural)
    return normalised


def absorb(
    fr: FactorisedRelation, a_attr: str, b_attr: str
) -> FactorisedRelation:
    """Absorb on a factorised relation: the restriction kernel
    (:class:`repro.ops.arena_kernels.RestrictKernel`), then the
    replayed push-ups of the normalisation."""
    return arena_kernels.apply(fr, "absorb", (a_attr, b_attr))
