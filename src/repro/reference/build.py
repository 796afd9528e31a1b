"""Factorising flat data into the object representation.

:class:`ObjectFactoriser` walks the same cached tries with the same
cursors as :class:`repro.core.build.Factoriser` (constructor and node
compiler are inherited) and differs only in what it writes: one
``UnionRep`` per node occurrence instead of arena column entries, with
the same pruning -- so both always hold the same representation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.build import COUNTERS, Factoriser, _candidates_fn, _moves
from repro.core.ftree import FTree
from repro.reference.frep import ProductRep, UnionRep
from repro.relational.relation import Relation


class ObjectFactoriser(Factoriser):
    """Factorise into ``ProductRep``/``UnionRep`` objects."""

    def run(self) -> Optional[ProductRep]:  # type: ignore[override]
        """Compute the representation; ``None`` for an empty result."""
        discarded = [0]

        def make(idx, cursors, sources, kids):
            candidates = _candidates_fn(cursors, sources)
            moves = _moves(sources)

            def emit() -> Optional[Tuple[UnionRep, int]]:
                """(the node's union under the current cursors, its
                entries including everything below); ``None`` when
                the union is empty."""
                entries: List[Tuple[object, ProductRep]] = []
                total = 0
                for value in candidates():
                    for read, write in moves:
                        cursors[write] = cursors[read][value]
                    factors: List[UnionRep] = []
                    below = 0
                    for kid in kids:
                        got = kid()
                        if got is None:
                            discarded[0] += below
                            break
                        factors.append(got[0])
                        below += got[1]
                    else:
                        entries.append((value, ProductRep(factors)))
                        total += below + 1
                if not entries:
                    return None
                return UnionRep(entries), total

            return emit

        factors: List[UnionRep] = []
        committed = 0
        for emit in self._compile(make):
            got = emit()
            if got is None:
                discarded[0] += committed
                committed = 0
                factors = None
                break
            factors.append(got[0])
            committed += got[1]
        COUNTERS.add(
            calls=1,
            entries_committed=committed,
            entries_rolled_back=discarded[0],
        )
        return None if factors is None else ProductRep(factors)


def factorise(
    relations: Sequence[Relation], tree: FTree
) -> Optional[ProductRep]:
    """One-shot factorisation into the object representation."""
    return ObjectFactoriser(relations, tree).run()
