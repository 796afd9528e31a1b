"""Aggregates computed on object f-representations: the recursive
sum-product walks that :mod:`repro.core.aggregate`'s columnar passes
are checked against.  ``COUNT``/``SUM`` combine (count, sum) pairs
through unions (add) and products (cross-multiply); ``MIN``/``MAX``/
``COUNT(DISTINCT)``/``GROUP BY`` descend to the attribute's unions.
All functions take the usual (nodes, product) pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.aggregate import AggregateError
from repro.core.ftree import FNode
from repro.reference.frep import ProductRep, UnionRep
from repro.reference.walkers import tuple_count

#: (tuple count, sum of the target attribute over all tuples)
_CountSum = Tuple[int, float]


def count(nodes: Sequence[FNode], product: Optional[ProductRep]) -> int:
    """``COUNT(*)`` -- alias of :func:`repro.reference.walkers.tuple_count`."""
    return tuple_count(nodes, product)


def _count_sum_forest(
    nodes: Sequence[FNode],
    product: ProductRep,
    attribute: str,
) -> _CountSum:
    total_count = 1
    total_sum = 0.0
    for node, union in zip(nodes, product.factors):
        part_count, part_sum = _count_sum_union(node, union, attribute)
        # Product rule: counts multiply; sums cross-multiply with the
        # counts of the other factors.
        total_sum = total_sum * part_count + part_sum * total_count
        total_count *= part_count
        if total_count == 0:
            return 0, 0.0
    return total_count, total_sum


def _count_sum_union(
    node: FNode, union: UnionRep, attribute: str
) -> _CountSum:
    total_count = 0
    total_sum = 0.0
    here = attribute in node.label
    for value, child in union.entries:
        child_count, child_sum = _count_sum_forest(
            node.children, child, attribute
        )
        total_count += child_count
        total_sum += child_sum
        if here:
            total_sum += float(value) * child_count  # type: ignore[arg-type]
    return total_count, total_sum


def sum_of(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attribute: str,
) -> float:
    """``SUM(attribute)`` over all represented tuples."""
    if product is None:
        return 0.0
    if not any(attribute in n.subtree_attributes() for n in nodes):
        raise AggregateError(f"unknown attribute {attribute!r}")
    return _count_sum_forest(nodes, product, attribute)[1]


def average(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attribute: str,
) -> Optional[float]:
    """``AVG(attribute)``; ``None`` on the empty relation."""
    if product is None:
        return None
    total_count, total_sum = _count_sum_forest(
        nodes, product, attribute
    )
    if not any(attribute in n.subtree_attributes() for n in nodes):
        raise AggregateError(f"unknown attribute {attribute!r}")
    return total_sum / total_count if total_count else None


def _extreme(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attribute: str,
    minimum: bool,
):
    if product is None:
        return None
    found: List[object] = []

    def walk(ns: Sequence[FNode], prod: ProductRep) -> None:
        for node, union in zip(ns, prod.factors):
            if attribute in node.label:
                # Unions are value-sorted: first/last entry suffices
                # *for this occurrence*.
                entry = union.entries[0 if minimum else -1]
                found.append(entry[0])
                continue  # deeper occurrences are under other values
            if any(
                attribute in c.subtree_attributes()
                for c in node.children
            ):
                for _, child in union.entries:
                    walk(node.children, child)

    walk(nodes, product)
    if not found:
        raise AggregateError(f"unknown attribute {attribute!r}")
    return min(found) if minimum else max(found)


def min_of(nodes, product, attribute: str):
    """``MIN(attribute)``; ``None`` on the empty relation."""
    return _extreme(nodes, product, attribute, minimum=True)


def max_of(nodes, product, attribute: str):
    """``MAX(attribute)``; ``None`` on the empty relation."""
    return _extreme(nodes, product, attribute, minimum=False)


def count_distinct(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attribute: str,
) -> int:
    """``COUNT(DISTINCT attribute)``."""
    if product is None:
        return 0
    values: set = set()

    def walk(ns: Sequence[FNode], prod: ProductRep) -> None:
        for node, union in zip(ns, prod.factors):
            if attribute in node.label:
                # Only values whose subtree is non-empty exist -- the
                # invariant guarantees that, so collect them all.
                values.update(v for v, _ in union.entries)
                continue
            if any(
                attribute in c.subtree_attributes()
                for c in node.children
            ):
                for _, child in union.entries:
                    walk(node.children, child)

    walk(nodes, product)
    if not values and not any(
        attribute in n.subtree_attributes() for n in nodes
    ):
        raise AggregateError(f"unknown attribute {attribute!r}")
    return len(values)


def group_count(
    nodes: Sequence[FNode],
    product: Optional[ProductRep],
    attribute: str,
) -> Dict[object, int]:
    """``SELECT attribute, COUNT(*) GROUP BY attribute``.

    Cheapest when ``attribute`` labels a root (one pass over the root
    union); otherwise falls back to combining per-occurrence counts
    weighted by the surrounding context, still without enumeration.
    """
    if product is None:
        return {}
    out: Dict[object, int] = {}

    def walk(
        ns: Sequence[FNode], prod: ProductRep, multiplier: int
    ) -> None:
        # Count of tuples contributed by the *other* factors at this
        # level, per chosen entry of the factor containing `attribute`.
        target_idx = None
        for i, node in enumerate(ns):
            if attribute in node.subtree_attributes():
                target_idx = i
                break
        if target_idx is None:
            return
        others = 1
        for i, (node, union) in enumerate(zip(ns, prod.factors)):
            if i != target_idx:
                others *= _union_count(node, union)
        node = ns[target_idx]
        union = prod.factors[target_idx]
        if attribute in node.label:
            for value, child in union.entries:
                below = tuple_count(node.children, child)
                out[value] = out.get(value, 0) + (
                    multiplier * others * below
                )
        else:
            for _, child in union.entries:
                walk(node.children, child, multiplier * others)

    walk(nodes, product, 1)
    return out


def _union_count(node: FNode, union: UnionRep) -> int:
    return sum(
        tuple_count(node.children, child) for _, child in union.entries
    )
