"""Selection with a constant, ``sigma_{A theta c}`` (Section 3.3).

One pass over the representation removes the entries of every union of
``A``'s node whose value fails the comparison; emptied unions prune
their surrounding entries, cascading upward exactly like the paper's
"if the union becomes empty ... we then remove that expression too".
On the arena that pass is one keep mask over the node's value column
(the comparison runs once per distinct value id) and one mask cascade,
:func:`repro.ops.arena_kernels._cascade`, which compacts only the
columns that lose entries and shares the rest with the input (the tree
is unchanged by the filter itself -- the skeleton ignores constant
flags).

For an *equality* comparison the node becomes a constant: all its
values equal ``c``, so it is independent of every other node -- its
attributes are removed from the dependency edges, the node is marked
``constant`` (ignored by ``s(T)``), and a normalisation pass floats it
towards the root, as described at the end of Section 3.3: the constant
tree's push-up trace is replayed through the prepared kernels of
:mod:`repro.ops.arena_kernels`.

The arena operator serves *factorised* inputs only: follow-up queries
(:meth:`repro.engine.FDB.evaluate_on`, :meth:`repro.service.
QuerySession.run_on`) and ``repro explain``.  A query over flat
relations never runs it: :meth:`repro.engine.FDB.factorise_query`
pushes the class-closed constants into the relations and factorises
straight over :func:`selected_tree`, the tree this module's kernels
would have produced.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.arena import ArenaRep
from repro.core.columns import _value_mask
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


def _filter(
    arena: ArenaRep, cond: ConstantCondition
) -> Optional[ArenaRep]:
    """The entries of ``cond``'s node that pass it, with every union
    they leave empty pruned upward; ``None`` when nothing passes."""
    node = arena.skel.node_of_attr(cond.attribute)
    mask = _value_mask(arena.values[node], arena.pool, cond.test)
    out = arena_kernels._Columns(arena)
    if not arena_kernels._cascade(out, {node: mask}):
        return None
    return out.arena(arena.pool)


def selected_tree(
    tree: FTree, constants: Iterable[ConstantCondition]
) -> FTree:
    """The f-tree of a relation over ``tree`` once ``constants`` hold:
    each equality in turn marks its node constant and normalises, as
    :func:`select_constant` would (the other comparisons leave the tree
    alone).  The trees come from the prepared chains' ``out_tree``."""
    for cond in constants:
        if cond.op == "=":
            chain = arena_kernels.kernel_for(
                tree, "constant", (cond.attribute,)
            )
            tree = chain.out_tree
    return tree


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
    fr.tree.node_of(cond.attribute)  # an unknown attribute raises here
    if cond.op != "=":
        # Non-equality selections leave the tree untouched, so the
        # whole operator is the columnar filter kernel.
        if fr.is_empty():
            return fr
        return FactorisedRelation(fr.tree, _filter(fr.rep, cond))
    # Equality: the filter kernel leaves the node layout intact, then
    # the push-up kernels replay the normalisation trace of the
    # constant tree (prepared once per tree, empty input included).
    chain = arena_kernels.kernel_for(
        fr.tree, "constant", (cond.attribute,)
    )
    if fr.is_empty():
        return FactorisedRelation(chain.out_tree, None)
    filtered = _filter(fr.rep, cond)
    if filtered is not None:
        filtered = chain.run(filtered)
    return FactorisedRelation(chain.out_tree, filtered)
