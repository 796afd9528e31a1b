"""The projection operator ``pi_A`` (Section 3.4).

Projection proceeds in three phases, following the paper:

1. **Label reduction.**  Nodes that keep at least one attribute simply
   shrink their label; the projected-away attributes are substituted in
   every dependency edge by a kept representative of the same class
   (classes share values, so dependence is preserved exactly).
2. **Node elimination.**  Nodes whose attributes are *all* projected
   away are first swapped down until they become leaves (the paper:
   "we therefore swap nodes such that those with all attributes marked
   become leaves"), then removed.  Removing a leaf drops its union
   factor from every occurrence -- set semantics make this sound, since
   sibling factors are untouched and parent entries stay distinct.
   Removal merges all dependency edges meeting the node into one
   *phantom edge* over their remaining attributes, so transitive
   dependence survives (the A - B - C example of Section 3.4).
3. **Normalisation**, since the structural changes may enable pushing
   subtrees up.

Every phase runs on columns.  A projection that removes *whole
subtrees* and keeps every remaining label intact (the common "root
prefix" shape) takes a fast path: the surviving columns transfer
verbatim (:func:`repro.core.arena.drop_subtrees`), no swaps are needed,
and the final normalisation pass is skipped -- a pure representation
choice; the denoted relation is identical.  Otherwise label reduction
rebinds columns to the relabelled nodes, node elimination is the swap
kernel of :mod:`repro.ops.arena_kernels` plus the leaf case of
``drop_subtrees``, and normalisation replays push-up kernels.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence

from repro.core import arena as arena_mod
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops.base import OperatorError
from repro.ops.normalise import normalise, normalise_tree
from repro.ops.swap import swap


def _reduce_labels(
    fr: FactorisedRelation, keep: AbstractSet[str]
) -> FactorisedRelation:
    """Phase 1: shrink partially-kept labels; rewrite edges.

    Shrinking labels never touches the data: every column binds
    unchanged to the relabelled node, with child slots re-sorted to
    the new canonical sibling order.  (Shrunk labels stay pairwise
    disjoint, so the rebinding is one-to-one.)
    """
    tree = fr.tree
    substitution = {}
    for node in tree.iter_nodes():
        dropped = node.label - keep
        kept = node.label & keep
        if dropped and kept:
            representative = min(kept)
            for attr in dropped:
                substitution[attr] = representative
    if not substitution:
        return fr

    def node_transform(node: FNode) -> FNode:
        kept = node.label & keep
        label = kept if kept else node.label
        return FNode(
            label,
            [node_transform(child) for child in node.children],
            node.constant,
        )

    new_edges = tree.edges.__class__(
        frozenset(substitution.get(attr, attr) for attr in edge)
        for edge in tree.edges
    )
    new_tree = FTree(
        [node_transform(root) for root in tree.roots], new_edges
    )
    if fr.is_empty():
        return FactorisedRelation(new_tree, None)
    arena = fr.rep
    sskel = arena.skel
    dskel = arena_mod._skeleton_of(new_tree)

    def shrunk(label):
        kept_attrs = label & keep
        return frozenset(kept_attrs) if kept_attrs else label

    n = len(dskel)
    values = [None] * n
    child_lo = [None] * n
    child_hi = [None] * n
    for si in range(len(sskel)):
        di = dskel.index[shrunk(sskel.labels[si])]
        values[di] = arena.values[si]
        src_slot = {
            shrunk(sskel.labels[k]): j
            for j, k in enumerate(sskel.children[si])
        }
        child_lo[di] = [
            arena.child_lo[si][src_slot[dskel.labels[dk]]]
            for dk in dskel.children[di]
        ]
        child_hi[di] = [
            arena.child_hi[si][src_slot[dskel.labels[dk]]]
            for dk in dskel.children[di]
        ]
    return FactorisedRelation(
        new_tree,
        arena_mod.ArenaRep(dskel, values, child_lo, child_hi, arena.pool),
    )


def _drop_leaf(
    fr: FactorisedRelation, node: FNode
) -> FactorisedRelation:
    """Phase 2b: remove a fully-marked leaf node (tree and data)."""
    tree = fr.tree
    new_edges = tree.edges.merge_edges_touching(node.label)
    new_tree = tree.replace_node(node.label, []).with_edges(new_edges)
    if fr.is_empty():
        return FactorisedRelation(new_tree, None)
    # A leaf is a one-node subtree: the general subtree-drop kernel
    # removes its column (and its slot in the parent).
    arena = fr.rep
    return FactorisedRelation(
        new_tree,
        arena_mod.drop_subtrees(
            arena, new_tree, [arena.skel.index[node.label]]
        ),
    )


def project_tree(tree: FTree, attributes: Sequence[str]) -> FTree:
    """Tree-level projection (shape of the result's f-tree)."""
    return project(FactorisedRelation(tree, None), attributes).tree


def _subtree_drop(
    fr: FactorisedRelation, keep: AbstractSet[str]
) -> Optional[FactorisedRelation]:
    """The fast path for a non-empty relation: drop whole subtrees,
    keep columns verbatim.

    Applies only when every node label is fully kept or fully dropped
    and no kept node sits below a dropped one; returns ``None``
    otherwise (the caller runs the three general phases).
    """
    tree = fr.tree
    dropped_roots: List[FNode] = []
    dropped_all: List[FNode] = []
    for node in tree.iter_nodes():
        kept_attrs = node.label & keep
        if kept_attrs and node.label - keep:
            return None  # partial label: needs phase-1 reduction
        if not kept_attrs:
            if node.subtree_attributes() & keep:
                return None  # kept node below a dropped one: needs swaps
            parent = tree.parent_of(node)
            dropped_all.append(node)
            if parent is None or parent.label & keep:
                dropped_roots.append(node)
    if not dropped_all:
        return fr
    arena = fr.rep
    # Edges: the same merges the general path performs when it drops
    # the subtree leaf by leaf, deepest first.
    edges = tree.edges
    for node in sorted(
        dropped_all,
        key=lambda n: len(tree.ancestors(n)),
        reverse=True,
    ):
        edges = edges.merge_edges_touching(node.label)
    new_tree = tree
    for node in dropped_roots:
        new_tree = new_tree.replace_node(node.label, [])
    new_tree = new_tree.with_edges(edges)
    skel = arena.skel
    dropped_ids = [skel.index[node.label] for node in dropped_roots]
    return FactorisedRelation(
        new_tree, arena_mod.drop_subtrees(arena, new_tree, dropped_ids)
    )


def project(
    fr: FactorisedRelation, attributes: Sequence[str]
) -> FactorisedRelation:
    """Project a factorised relation onto ``attributes``."""
    keep = frozenset(attributes)
    unknown = keep - fr.tree.attributes()
    if unknown:
        raise OperatorError(
            f"cannot project onto unknown attributes {sorted(unknown)}"
        )
    if not fr.is_empty():
        fast = _subtree_drop(fr, keep)
        if fast is not None:
            return fast
    current = _reduce_labels(fr, keep)

    # Phase 2: eliminate fully-marked nodes, bottom-most first.
    while True:
        marked = [
            node
            for node in current.tree.iter_nodes()
            if not (node.label & keep)
        ]
        if not marked:
            break
        # Prefer a marked node with no marked node below it whose
        # subtree is smallest -- fewer swaps to reach a leaf.
        candidates = [
            node
            for node in marked
            if not any(
                other.label != node.label
                and other.label <= node.subtree_attributes()
                for other in marked
            )
        ]
        target = min(
            candidates or marked,
            key=lambda n: len(n.subtree_attributes()),
        )
        if target.children:
            # Swap the marked node below its first child (swap
            # handles empty relations itself).
            current = swap(
                current,
                next(iter(target.label)),
                next(iter(target.children[0].label)),
            )
        else:
            current = _drop_leaf(current, target)

    # Phase 3: normalise.
    if current.is_empty():
        tree, _ = normalise_tree(current.tree)
        return FactorisedRelation(tree, None)
    return normalise(current)
