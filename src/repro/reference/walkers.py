"""The recursive walkers over object f-representations, each the oracle
of its columnar counterpart in :mod:`repro.core.arena`.

- **size** -- ``representation_size`` is the paper's ``|E|`` (one
  singleton per entry and attribute of its node's label);
  ``tuple_count`` is the sum/product recursion that counts the denoted
  tuples without enumerating them.
- **enumeration** -- Section 2's constant-delay enumeration: a
  depth-first walk over a work list of (node, union) pairs that keeps a
  single mutable partial assignment.
- **validation** -- the constraints the operators of Section 3 promise
  to preserve: one factor per tree of the forest, recursively; union
  values strictly increasing; no empty union inside a non-empty
  representation; one value per union of a ``constant`` node.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.arena import FRepError, validate_tree
from repro.core.ftree import FNode, FTree
from repro.reference.frep import ProductRep, UnionRep, check_sorted

# -- size and cardinality ---------------------------------------------------


def representation_size(
    nodes: Sequence[FNode], product: Optional[ProductRep]
) -> int:
    """Number of singletons in the representation (``None`` = empty)."""
    if product is None:
        return 0
    total = 0
    for node, union in zip(nodes, product.factors):
        total += _union_size(node, union)
    return total


def _union_size(node: FNode, union: UnionRep) -> int:
    total = 0
    width = len(node.label)
    for _, child in union.entries:
        total += width
        total += representation_size(node.children, child)
    return total


def tuple_count(
    nodes: Sequence[FNode], product: Optional[ProductRep]
) -> int:
    """Number of distinct tuples represented (0 for empty)."""
    if product is None:
        return 0
    total = 1
    for node, union in zip(nodes, product.factors):
        total *= _union_count(node, union)
        if total == 0:
            return 0
    return total


def _union_count(node: FNode, union: UnionRep) -> int:
    total = 0
    for _, child in union.entries:
        total += tuple_count(node.children, child)
    return total


def data_elements(
    nodes: Sequence[FNode], product: Optional[ProductRep]
) -> int:
    """Flat-result size in data elements: #tuples x #attributes.

    This is the unit Figures 7 and 8 use for the relational engines;
    comparing it against :func:`representation_size` reproduces the
    paper's "result size [# of data elements]" axes.
    """
    arity = sum(len(node.subtree_attributes()) for node in nodes)
    return tuple_count(nodes, product) * arity


# -- constant-delay enumeration ----------------------------------------------

Assignment = Dict[str, object]
_Unit = Tuple[FNode, UnionRep]


def _walk(units: List[_Unit], partial: Assignment) -> Iterator[None]:
    """Yield once per complete assignment of all pending units.

    Every unit is one (node, union) pair still to be instantiated.  At
    each step the head node receives each of its union's values in
    turn; its children join the work list together with the remaining
    units.  A yield fires exactly when the work list is exhausted, at
    which point ``partial`` holds a full tuple; each node on the
    current derivation was set after any previous derivation touched
    it, so no stale values can leak into a yielded assignment.
    """
    if not units:
        yield None
        return
    (node, union), rest = units[0], units[1:]
    for value, child in union.entries:
        for attr in node.label:
            partial[attr] = value
        child_units = list(zip(node.children, child.factors))
        yield from _walk(child_units + rest, partial)


def iter_assignments(
    nodes: Sequence[FNode], product: Optional[ProductRep]
) -> Iterator[Assignment]:
    """Yield every tuple of the representation as an attr->value dict.

    Tuples come out in the lexicographic order induced by the canonical
    node order and the sorted unions, so the output is deterministic.
    """
    if product is None:
        return
    partial: Assignment = {}
    units = list(zip(nodes, product.factors))
    for _ in _walk(units, partial):
        yield dict(partial)


def iter_rows(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attributes: Sequence[str],
) -> Iterator[tuple]:
    """Yield tuples projected onto ``attributes`` in the given order."""
    if product is None:
        return
    partial: Assignment = {}
    units = list(zip(nodes, product.factors))
    for _ in _walk(units, partial):
        yield tuple(partial[attr] for attr in attributes)


# -- structural validation ---------------------------------------------------


def validate(
    nodes: Sequence[FNode], product: Optional[ProductRep]
) -> None:
    """Check alignment, order and non-emptiness; raise on violation."""
    if product is None:
        return
    if len(product.factors) != len(nodes):
        raise FRepError(
            f"product arity {len(product.factors)} does not match "
            f"forest arity {len(nodes)}"
        )
    for node, union in zip(nodes, product.factors):
        if not union.entries:
            raise FRepError(
                f"empty union at node {sorted(node.label)} inside a "
                f"non-empty representation"
            )
        check_sorted(union)
        if node.constant and len(union.entries) != 1:
            raise FRepError(
                f"constant node {sorted(node.label)} holds "
                f"{len(union.entries)} values"
            )
        for _, child in union.entries:
            validate(node.children, child)


def validate_relation(
    tree: FTree, product: Optional[ProductRep]
) -> None:
    """Full check of a factorised relation (tree + data)."""
    validate_tree(tree)
    validate(tree.roots, product)
