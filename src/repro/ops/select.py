"""Selection with a constant, ``sigma_{A theta c}`` (Section 3.3).

One pass over the representation removes the entries of every union of
``A``'s node whose value fails the comparison; emptied unions prune
their surrounding entries, cascading upward exactly like the paper's
"if the union becomes empty ... we then remove that expression too".
On the arena that pass is the mask-and-compact kernel
:func:`repro.core.arena.select_filter` (the tree is unchanged by the
filter itself -- the skeleton ignores constant flags).

For an *equality* comparison the node becomes a constant: all its
values equal ``c``, so it is independent of every other node -- its
attributes are removed from the dependency edges, the node is marked
``constant`` (ignored by ``s(T)``), and a normalisation pass floats it
towards the root, as described at the end of Section 3.3: the constant
tree's push-up trace is replayed through the prepared kernels of
:mod:`repro.ops.arena_kernels`.
"""

from __future__ import annotations

from repro.core import arena as arena_mod
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.ops import arena_kernels
from repro.ops.normalise import normalise_tree
from repro.query.query import ConstantCondition


def _constant_tree(tree: FTree, node: FNode) -> FTree:
    """``tree`` with ``node`` marked constant and its attributes
    dropped from the dependency edges (not yet normalised)."""
    if node.constant:
        return tree
    tree = tree.replace_node(node.label, [node.as_constant()])
    return tree.with_edges(tree.edges.without_attributes(node.label))


def select_constant_tree(tree: FTree, cond: ConstantCondition) -> FTree:
    """Tree-level effect: equality turns the node constant."""
    node = tree.node_of(cond.attribute)
    if cond.op != "=":
        return tree
    normalised, _ = normalise_tree(_constant_tree(tree, node))
    return normalised


def select_constant(
    fr: FactorisedRelation, cond: ConstantCondition
) -> FactorisedRelation:
    """Apply ``sigma_{A theta c}`` to a factorised relation."""
    node = fr.tree.node_of(cond.attribute)
    if cond.op != "=":
        # Non-equality selections leave the tree untouched, so the
        # whole operator is the columnar filter kernel.
        if fr.is_empty():
            return fr
        filtered = arena_mod.select_filter(
            fr.rep, cond.attribute, cond.test
        )
        return FactorisedRelation(fr.tree, filtered)
    # Equality: the filter kernel leaves the node layout intact, then
    # the push-up kernels replay the normalisation trace of the
    # constant tree (prepared once per tree, empty input included).
    chain = arena_kernels.kernel_for(
        _constant_tree(fr.tree, node), "normalise"
    )
    if fr.is_empty():
        return FactorisedRelation(chain.out_tree, None)
    filtered = arena_mod.select_filter(fr.rep, cond.attribute, cond.test)
    if filtered is not None:
        filtered = chain.run(filtered)
    return FactorisedRelation(chain.out_tree, filtered)
