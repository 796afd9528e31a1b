"""Arena <-> objects: the bridge the differential tests cross.
"""

from __future__ import annotations

from typing import Optional

from repro.core.arena import ArenaError, ArenaRep, ArenaWriter, _views
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

    def emit_union(idx: int, union: UnionRep) -> None:
        kids = skel.children[idx]
        for value, child in union.entries:
            for k, factor in zip(kids, child.factors):
                emit_union(k, factor)
            writer.commit(idx, value)

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
    arena = arena.dense()
    skel, pool = arena.skel, arena.pool
    values, offsets = _views(arena)

    def build_union(idx: int, lo: int, hi: int) -> UnionRep:
        kids = skel.children[idx]
        column = values[idx]
        offs = offsets[idx]
        entries = []
        for e in range(lo, hi):
            factors = [
                build_union(k, off[e], off[e + 1])
                for off, k in zip(offs, kids)
            ]
            entries.append((pool[column[e]], ProductRep(factors)))
        return UnionRep(entries)

    return ProductRep(
        [build_union(r, 0, len(values[r])) for r in skel.roots]
    )
