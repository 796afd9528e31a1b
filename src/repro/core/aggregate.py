"""Aggregates computed directly on the arena.

The paper's Section 2 notes that factorised representations are
"compilations of query results that allow for efficient subsequent
processing"; counting is the canonical example (and the follow-up work
on FDB -- F and LMFAO -- is built around factorised aggregation).  The
functions here evaluate the standard SQL aggregates over an
:class:`~repro.core.arena.ArenaRep` *without enumerating tuples*, one
bottom-up pass over the per-node columns each:

- ``COUNT(*)`` is a sum-product (:func:`repro.core.arena.tuple_count`);
- ``SUM(A)`` pairs every entry with (count, sum) and combines them
  through unions (add) and products (cross-multiply);
- ``MIN(A)``/``MAX(A)``/``COUNT(DISTINCT A)`` read ``A``'s node column;
- ``GROUP BY A`` multiplies, per entry of ``A``'s node, the tuples
  below it by the context accumulated down the root-to-node path.

``None`` encodes the empty relation throughout.  The
:class:`~repro.core.factorised.FactorisedRelation` facade exposes these
as its ``sum``/``avg``/``min``/``max``/``count_distinct``/
``group_count`` methods.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.core.arena import (
    ArenaRep,
    _column_total,
    _entry_counts,
    _np,
    _prefix,
)


class AggregateError(ValueError):
    """Raised for aggregates over unknown attributes."""


def _require_attribute(arena: ArenaRep, attribute: str) -> int:
    for i, label in enumerate(arena.skel.labels):
        if attribute in label:
            return i
    raise AggregateError(f"unknown attribute {attribute!r}")


def _count_sum(
    arena: ArenaRep, attribute: str
) -> Tuple[int, float]:
    """(tuple count, SUM(attribute)) via one exact bottom-up pass."""
    skel = arena.skel
    n = len(skel)
    # Per node: prefix sums of per-entry (count, sum), so parents read
    # child segments in O(1).
    cnt_prefix: List[List[int]] = [[] for _ in range(n)]
    sum_prefix: List[List[float]] = [[] for _ in range(n)]
    pool = arena.pool
    for idx in range(n - 1, -1, -1):
        m = len(arena.values[idx])
        kids = skel.children[idx]
        here = attribute in skel.labels[idx]
        column = arena.values[idx]
        cnts: List[int] = []
        sums: List[float] = []
        for e in range(m):
            forest_count = 1
            forest_sum = 0.0
            for j, k in enumerate(kids):
                lo = arena.child_lo[idx][j][e]
                hi = arena.child_hi[idx][j][e]
                part_count = cnt_prefix[k][hi] - cnt_prefix[k][lo]
                part_sum = sum_prefix[k][hi] - sum_prefix[k][lo]
                forest_sum = (
                    forest_sum * part_count + part_sum * forest_count
                )
                forest_count *= part_count
            if here:
                forest_sum += float(pool[column[e]]) * forest_count  # type: ignore[arg-type]
            cnts.append(forest_count)
            sums.append(forest_sum)
        cnt_prefix[idx] = _prefix(cnts)
        sum_prefix[idx] = list(accumulate(sums, initial=0.0))
    total_count = 1
    total_sum = 0.0
    for r in skel.roots:
        part_count = cnt_prefix[r][-1]
        part_sum = sum_prefix[r][-1]
        total_sum = total_sum * part_count + part_sum * total_count
        total_count *= part_count
        if total_count == 0:
            return 0, 0.0
    return total_count, total_sum


def sum_of(arena: Optional[ArenaRep], attribute: str) -> float:
    """``SUM(attribute)`` over all represented tuples."""
    if arena is None:
        return 0.0
    _require_attribute(arena, attribute)
    return _count_sum(arena, attribute)[1]


def average(
    arena: Optional[ArenaRep], attribute: str
) -> Optional[float]:
    """``AVG(attribute)``; ``None`` on the empty relation."""
    if arena is None:
        return None
    _require_attribute(arena, attribute)
    total_count, total_sum = _count_sum(arena, attribute)
    return total_sum / total_count if total_count else None


def extreme(arena: Optional[ArenaRep], attribute: str, minimum: bool):
    """``MIN``/``MAX``; ``None`` on the empty relation.  Every arena
    entry is reachable (no empty unions), so the extreme over the
    node's whole value column is the answer."""
    if arena is None:
        return None
    idx = _require_attribute(arena, attribute)
    pool = arena.pool
    found = (pool[vid] for vid in arena.values[idx])
    return min(found) if minimum else max(found)


def count_distinct(arena: Optional[ArenaRep], attribute: str) -> int:
    """``COUNT(DISTINCT attribute)``."""
    if arena is None:
        return 0
    idx = _require_attribute(arena, attribute)
    # Decode through the pool: interning is per *type* (1, 1.0 and
    # True occupy distinct slots), but COUNT(DISTINCT) uses value
    # equality, under which they collapse.
    pool = arena.pool
    return len({pool[vid] for vid in set(arena.values[idx])})


def group_count(
    arena: Optional[ArenaRep], attribute: str
) -> Dict[object, int]:
    """GROUP BY ``attribute`` with COUNT(*), without enumeration.

    Per entry ``e`` of the attribute's node: tuples containing it are
    ``above(e) * below(e)`` -- the context multiplier accumulated down
    the root-to-node path times the entry's children-forest count.
    """
    if arena is None:
        return {}
    target = _require_attribute(arena, attribute)
    skel = arena.skel
    counts = _entry_counts(arena)
    totals = {r: _column_total(counts[r]) for r in skel.roots}

    # Root-to-target path.
    path = [target]
    while skel.parent[path[-1]] != -1:
        path.append(skel.parent[path[-1]])
    path.reverse()

    root = path[0]
    context = 1
    for r in skel.roots:
        if r != root:
            context *= totals[r]
    above: List[int] = [context] * len(arena.values[root])

    def seg_count(idx: int, j: int, e: int) -> int:
        k = skel.children[idx][j]
        child = counts[k]
        lo = arena.child_lo[idx][j][e]
        hi = arena.child_hi[idx][j][e]
        if _np is not None and isinstance(child, _np.ndarray):
            return int(child[lo:hi].sum(dtype=object))
        return sum(child[lo:hi])

    for step, idx in enumerate(path[:-1]):
        next_node = path[step + 1]
        slot = skel.children[idx].index(next_node)
        next_above: List[int] = [0] * len(arena.values[next_node])
        for e in range(len(arena.values[idx])):
            others = above[e]
            for j in range(len(skel.children[idx])):
                if j != slot:
                    others *= seg_count(idx, j, e)
            lo = arena.child_lo[idx][slot][e]
            hi = arena.child_hi[idx][slot][e]
            for t in range(lo, hi):
                next_above[t] = others
        above = next_above

    pool = arena.pool
    column = arena.values[target]
    below = counts[target]
    if _np is not None and isinstance(below, _np.ndarray):
        below = below.tolist()
    out: Dict[object, int] = {}
    for e, vid in enumerate(column):
        value = pool[vid]
        out[value] = out.get(value, 0) + above[e] * below[e]
    return out
