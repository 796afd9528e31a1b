"""Arena <-> objects: the bridge the differential tests cross.
"""

from __future__ import annotations

from typing import Optional

from repro.core.arena import ArenaError, ArenaRep, ArenaWriter
from repro.core.ftree import FTree
from repro.reference.frep import ProductRep, UnionRep


def from_product(
    tree: FTree, product: Optional[ProductRep]
) -> Optional[ArenaRep]:
    """Encode an object representation into an arena (``None`` = empty)."""
    if product is None:
        return None
    writer = ArenaWriter(tree)
    skel = writer.skel
    values = writer.values
    child_lo, child_hi = writer.child_lo, writer.child_hi
    intern = writer.intern

    def emit_union(idx: int, union: UnionRep) -> None:
        kids = skel.children[idx]
        if not kids:
            values[idx].extend(
                intern(value) for value, _ in union.entries
            )
            return
        for value, child in union.entries:
            starts = [len(values[k]) for k in kids]
            for k, factor in zip(kids, child.factors):
                emit_union(k, factor)
            for j, k in enumerate(kids):
                child_lo[idx][j].append(starts[j])
                child_hi[idx][j].append(len(values[k]))
            values[idx].append(intern(value))

    if len(product.factors) != len(skel.roots):
        raise ArenaError(
            f"product arity {len(product.factors)} does not match "
            f"forest arity {len(skel.roots)}"
        )
    for r, union in zip(skel.roots, product.factors):
        emit_union(r, union)
    return writer.finish()


def to_product(arena: Optional[ArenaRep]) -> Optional[ProductRep]:
    """Decode an arena back to the object encoding (``None`` = empty)."""
    if arena is None:
        return None
    skel, pool = arena.skel, arena.pool
    values, child_lo, child_hi = (
        arena.values,
        arena.child_lo,
        arena.child_hi,
    )

    def build_union(idx: int, lo: int, hi: int) -> UnionRep:
        kids = skel.children[idx]
        column = values[idx]
        los, his = child_lo[idx], child_hi[idx]
        entries = []
        for e in range(lo, hi):
            factors = [
                build_union(k, los[j][e], his[j][e])
                for j, k in enumerate(kids)
            ]
            entries.append((pool[column[e]], ProductRep(factors)))
        return UnionRep(entries)

    return ProductRep(
        [build_union(r, 0, len(values[r])) for r in skel.roots]
    )
