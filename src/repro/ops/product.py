"""The Cartesian product operator ``x`` (Section 3.2).

The product of two f-representations over disjoint attribute sets is
just their concatenation: the result f-tree is the forest of the two
input f-trees, and the result arena adopts both inputs' columns
(:func:`repro.ops.arena_kernels.product_arena`: zero copies under a
shared pool), in time linear in the inputs.  All constraints -- value
order, path constraint, normalisation -- are trivially preserved.
"""

from __future__ import annotations

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ops import arena_kernels
from repro.ops.base import OperatorError
from repro.query.hypergraph import Hypergraph


def product_tree(left: FTree, right: FTree) -> FTree:
    """Forest union of two f-trees over disjoint attributes."""
    overlap = left.attributes() & right.attributes()
    if overlap:
        raise OperatorError(
            f"product inputs share attributes {sorted(overlap)}"
        )
    edges = Hypergraph(list(left.edges) + list(right.edges))
    return FTree(list(left.roots) + list(right.roots), edges)


def product(
    left: FactorisedRelation, right: FactorisedRelation
) -> FactorisedRelation:
    """Cartesian product of two factorised relations."""
    tree = product_tree(left.tree, right.tree)
    if left.is_empty() or right.is_empty():
        return FactorisedRelation(tree, None)
    return FactorisedRelation(
        tree, arena_kernels.product_arena(tree, left.rep, right.rep)
    )
