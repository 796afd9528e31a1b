"""Column primitives: the one place the engine speaks numpy.

An arena (:mod:`repro.core.arena`) is parallel int64 columns -- value
ids, child offsets and the refs of shared slots per f-tree node -- and
everything that rewrites, counts, validates or serialises it
whole-column at a time is spelled with the primitives below, each with
one numpy body.  numpy is a
declared dependency; this is the only module under ``src/repro`` that
imports it, so how a column operation is realised is decided here and
nowhere else.

Vocabulary: a *column* is a read-only int64 ndarray, what every arena
holds and every primitive reads; a *mask* is a bool ndarray.  A kernel
builds its output columns as fresh int64 vectors and hands them to
:class:`~repro.core.arena.ArenaRep`, which publishes each through
:func:`_frozen` -- no copy, and from then on no writes.  Only
:class:`~repro.core.arena.ArenaWriter` appends, to ``array('q')``
buffers of its own that :func:`_frozen` views in place once the arena
is finished.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np


def _frozen(column):
    """``column`` as a published arena column: a read-only int64
    ndarray -- the vector itself, or a view of any other int64 buffer
    (a writer's), never a copy of either."""
    column = np.asarray(column, dtype=np.int64)
    column.setflags(write=False)
    return column


def _vector(ints: Iterable[int]):
    """An int64 vector of ``ints`` (an id table, say)."""
    return np.fromiter(ints, dtype=np.int64)


def _from_le_bytes(data):
    """Little-endian int64 bytes as a column, viewed in place."""
    return np.frombuffer(data, dtype="<i8")


def _le_bytes(column) -> bytes:
    """A column as little-endian int64 bytes."""
    return column.astype("<i8", copy=False).tobytes()


def _append(dest, vector) -> None:
    """Append an int64 vector to a writer's ``array('q')`` buffer."""
    dest.frombytes(vector.tobytes())


def _column_bounds(column) -> Tuple[int, int]:
    """``(min, max)`` of a column; ``(0, -1)`` when it is empty."""
    if not len(column):
        return 0, -1
    return int(column.min()), int(column.max())


def _take(column, idx):
    """``column[idx]`` for an index vector (any order, repeats)."""
    return column[idx]


def _widths(off):
    """Per entry of a child slot, the width of its child range: the
    differences of the slot's offsets."""
    return np.diff(off)


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


def _ranges(counts):
    """The offsets column of per-entry child counts: 0, then the
    running sum."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _expand(off, idx):
    """``(widths, inner)``: the number of child entries of each of the
    entries ``idx`` of the child slot with offsets ``off``, and the
    indices of those child entries, run after run."""
    idx = np.asarray(idx, dtype=np.int64)
    first = off[idx]
    widths = off[idx + 1] - first
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
    present = np.zeros(len(pool), dtype=bool)
    for column in columns:
        present[column] = True
    distinct = np.flatnonzero(present)
    rank, ranks = _value_ranks(distinct.tolist(), pool)
    table = np.empty(len(present), dtype=np.int64)
    table[distinct] = rank
    return [table[column] for column in columns], ranks


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
    return np.add.reduceat(weights, off[:-1], dtype=np.int64)


def _forest_counts(weights: Sequence[object], offsets, refs):
    """For every entry of a node with at least one child slot, the
    product over its slots of the slot's ``weights`` summed over the
    entry's child range (:func:`_segment_sums` per range, read through
    the slot's refs where it has them).  A leaf child's weights are
    ``None`` -- one tuple per child entry -- and it contributes its
    range width (:func:`_widths`), with no pass over the leaf's
    column.  The caller guarantees the products fit int64."""
    total = None
    for weight, off, ref in zip(weights, offsets, refs):
        part = (
            _segment_sums(weight, off) if weight is not None
            else _widths(off)
        )
        if ref is not None:
            part = part[ref]
        total = part if total is None else total * part
    return total


def _reach(weights, off, ref, exact: bool):
    """For every child entry of a slot, how many entries of the plain
    form it stands for: the ``weights`` of the parent entries whose
    range holds it, summed (``None`` weights: one each).  Python ints
    (an object vector) when ``exact``, int64 otherwise."""
    dtype = object if exact else np.int64
    if weights is None:
        weights = np.ones(len(off) - 1 if ref is None else len(ref), dtype)
    else:
        weights = weights.astype(dtype, copy=False)
    if ref is not None:
        per_range = np.zeros(len(off) - 1, dtype)
        np.add.at(per_range, ref, weights)
        weights = per_range
    return np.repeat(weights, _widths(off))


def _survivors(mask):
    """The indices ``mask`` keeps, in order."""
    return np.flatnonzero(mask)


def _live_ranges(counts, ref):
    """``(offsets, ref)`` of a shared slot whose ranges kept ``counts``
    entries each: the ranges left empty are dropped and ``ref`` is
    renumbered onto the rest (no kept entry refers to an empty one)."""
    live = counts > 0
    if live.all():
        return _ranges(counts), ref
    return _ranges(counts[live]), (np.cumsum(live) - 1)[ref]


def _both(mask, other):
    """The conjunction of two masks; one of them may be ``None``."""
    if mask is None or other is None:
        return other if mask is None else mask
    return mask & other


def _compress(vector, mask):
    """The entries of ``vector`` (or column) that ``mask`` keeps."""
    return vector[mask]


def _gather(columns: Sequence[object], vmaps: Sequence[object]):
    """The columns end to end, each taken through its id table
    (``None``: verbatim)."""
    return np.concatenate(
        [
            column if vmap is None else _take(vmap, column)
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
    table = np.zeros(len(pool), dtype=bool)
    for vid in np.unique(column).tolist():
        table[vid] = bool(predicate(pool[vid]))
    return table[column]
