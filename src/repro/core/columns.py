"""Column primitives: the one place the engine speaks numpy.

An arena (:mod:`repro.core.arena`) is parallel int64 columns -- value
ids and child offsets per f-tree node -- and everything that rewrites,
counts, validates or serialises it whole-column at a time is spelled
with the primitives below, each with one numpy body.  numpy is a
declared dependency; this is the only module under ``src/repro`` that
imports it, so how a column operation is realised is decided here and
nowhere else.

Vocabulary: a *column* is what an arena holds -- an ``array('q')``,
what every writer appends to and every reader fills; a *vector* is an
int64 (a *mask*: bool) ndarray, a transient of one pass.
:func:`_column` turns a vector into a column, :func:`_as_np` views a
column as a vector without copying.
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Sequence, Tuple

import numpy as np


def _i64() -> array:
    """A new, empty arena column."""
    return array("q")


def _as_np(column):
    """An int64 ndarray view of a column (no copy)."""
    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=np.int64)


def _column(vector) -> array:
    """A vector as an arena column."""
    out = _i64()
    if len(vector):  # (an empty memoryview cannot be cast)
        vector = np.ascontiguousarray(vector, dtype=np.int64)
        out.frombytes(vector.data.cast("B"))
    return out


def _extend_ids(dest: array, source, lo: int, hi: int, vmap=None) -> None:
    """Append ``source[lo:hi]`` to ``dest`` -- verbatim, or taken through
    the id table ``vmap`` (cross-pool copies)."""
    if vmap is not None:
        dest.frombytes(_as_np(vmap)[_as_np(source)[lo:hi]].tobytes())
    elif isinstance(source, np.ndarray):
        dest.frombytes(source[lo:hi].tobytes())
    else:
        dest.extend(source[lo:hi])


def _extend_shifted(dest: array, source, lo: int, hi: int, delta: int) -> None:
    """Append ``source[lo:hi] + delta`` to ``dest`` (offsets moved to
    where their child entries land in the destination)."""
    if delta == 0:
        _extend_ids(dest, source, lo, hi)
    else:
        dest.frombytes((_as_np(source)[lo:hi] + delta).tobytes())


def _column_bounds(column) -> Tuple[int, int]:
    """``(min, max)`` of a column; ``(0, -1)`` when it is empty."""
    if not len(column):
        return 0, -1
    view = _as_np(column)
    return int(view.min()), int(view.max())


def _take(column, idx):
    """``column[idx]`` for an index vector (any order, repeats)."""
    return _as_np(column)[idx]


def _widths(off):
    """Per entry of a child slot, the width of its child range: the
    differences of the slot's offsets."""
    return np.diff(_as_np(off))


def _spread(slots, offsets: Sequence[object]):
    """``slots[e]`` repeated once per child entry of input entry ``e``
    (offsets columns given per part, end to end): the owner vector of
    the child column, valid because child ranges tile it."""
    widths = np.concatenate([_widths(off) for off in offsets])
    return np.repeat(slots, widths)


def _owners(off, of=None):
    """For every child entry of the slot with offsets ``off``, the
    index of the entry that owns it -- or what ``of`` holds at that
    index."""
    if of is None:
        of = np.arange(len(off) - 1, dtype=np.int64)
    return _spread(of, [off])


def _ranges(counts) -> array:
    """The offsets column of per-entry child counts: 0, then the
    running sum."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return _column(off)


def _expand(off, idx):
    """``(widths, inner)``: the number of child entries of each of the
    entries ``idx`` of the child slot with offsets ``off``, and the
    indices of those child entries, run after run."""
    idx = np.asarray(idx, dtype=np.int64)
    view = _as_np(off)
    first = view[idx]
    widths = view[idx + 1] - first
    ends = np.cumsum(widths)
    first -= ends - widths
    inner = np.repeat(first, widths)
    inner += np.arange(len(inner), dtype=np.int64)
    return widths, inner


def _value_ranks(ids: Sequence[int], pool) -> Tuple[List[int], int]:
    """Dense sort rank of each of the distinct ``ids`` by its decoded
    value (aligned with ``ids``), and the number of ranks.  Ids whose
    values compare *equal* share a rank (interning is per-type, so
    ``1`` and ``1.0`` hold distinct ids) -- the equality grouping of
    a decoded sort-merge.  Incomparable values raise ``TypeError``, as
    they would there."""
    values = [pool[vid] for vid in ids]  # decode once: pools may be slow
    ranks = [0] * len(values)
    current = -1
    previous = None
    for e in sorted(range(len(values)), key=values.__getitem__):
        value = values[e]
        if current < 0 or value != previous:
            current += 1
            previous = value
        ranks[e] = current
    return ranks, current + 1


def _rank_columns(pool, columns: Sequence[object]):
    """``(rank vectors, number of ranks)``: every id of ``columns``
    replaced by its dense value rank, ranked jointly.  Only the
    distinct ids present are decoded and sorted -- a shared pool holds
    the values of every attribute of the database, comparable with
    these or not -- so ``TypeError`` means incomparable values *within*
    the compared columns."""
    views = [_as_np(column) for column in columns]
    present = np.zeros(len(pool), dtype=bool)
    for view in views:
        present[view] = True
    distinct = np.flatnonzero(present)
    rank, ranks = _value_ranks(distinct.tolist(), pool)
    table = np.empty(len(present), dtype=np.int64)
    table[distinct] = rank
    return [table[view] for view in views], ranks


def _keys(owners, ranks, stride: int):
    """Composite (owner, value-rank) sort keys; ``owners=None`` when
    there is one owner (a root level)."""
    if owners is None:
        return ranks
    return owners * stride + ranks


def _sort_groups(keys):
    """``(order, starts, counts)``: the stable sort order of ``keys``
    and, per run of equal keys in that order, where it starts and how
    long it is."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    fresh = np.empty(n, dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return order, starts, np.diff(starts, append=n)


def _scatter(order, vector):
    """The vector ``out`` with ``out[order] = vector``, for a
    permutation ``order`` (what :func:`_take` undoes)."""
    out = np.empty_like(vector)
    out[order] = vector
    return out


def _match(left, right):
    """Keep masks of two strictly increasing key vectors: the entries
    whose key the other side holds too (a sorted intersection)."""
    at = np.searchsorted(right, left)
    at[at == len(right)] = 0
    keep_left = right[at] == left
    keep_right = np.zeros(len(right), dtype=bool)
    keep_right[at[keep_left]] = True
    return keep_left, keep_right


def _count_slots(slots, n: int):
    """How often each of ``0..n-1`` occurs in ``slots``."""
    return np.bincount(slots, minlength=n)


def _segment_sums(weights, off):
    """For every entry of the slot with offsets ``off``, the sum of
    ``weights`` (one per child entry) over its child range: one
    ``np.add.reduceat`` over the range starts ``off[:-1]``.  With a
    keep mask for weights, the child entries the mask keeps.

    Exact because no range is empty: offsets strictly increase in every
    arena -- builders prune empty unions and
    :func:`repro.core.arena.validate_arena_bounds` rejects a repeated
    offset on every load -- and ``reduceat`` reads a range's end as the
    next range's start.
    """
    return np.add.reduceat(weights, _as_np(off)[:-1], dtype=np.int64)


def _forest_counts(weights: Sequence[object], offsets):
    """For every entry of a node with at least one child slot, the
    product over its slots of the slot's ``weights`` summed over the
    entry's child range (:func:`_segment_sums`).  A leaf child's
    weights are ``None`` -- one tuple per child entry -- and it
    contributes its range width (:func:`_widths`), with no pass over
    the leaf's column.  The caller guarantees the products fit
    int64."""
    parts = [
        _segment_sums(weight, off) if weight is not None
        else _widths(off)
        for weight, off in zip(weights, offsets)
    ]
    total = parts[0]
    for part in parts[1:]:
        total *= part
    return total


def _both(mask, other):
    """The conjunction of two masks; one of them may be ``None``."""
    if mask is None or other is None:
        return other if mask is None else mask
    return mask & other


def _compress(vector, mask):
    """The entries of ``vector`` (or column) that ``mask`` keeps."""
    return _as_np(vector)[mask]


def _gather(columns: Sequence[object], vmaps: Sequence[object]):
    """The columns end to end, each taken through its id table
    (``None``: verbatim)."""
    return np.concatenate(
        [
            _as_np(column) if vmap is None else _take(vmap, _as_np(column))
            for column, vmap in zip(columns, vmaps)
        ]
    )


def _value_mask(column, pool, predicate: Callable[[object], bool]):
    """The keep mask of ``predicate`` over a column's decoded values.

    The predicate runs once per *distinct id present*, in id order
    (never over the whole pool: a shared pool holds values of every
    attribute, on which the predicate could be meaningless), and the
    per-entry test is one table lookup.
    """
    view = _as_np(column)
    table = np.zeros(len(pool), dtype=bool)
    for vid in np.unique(view).tolist():
        table[vid] = bool(predicate(pool[vid]))
    return table[view]
