"""Columnar kernels for the restructuring f-plan operators.

Each operator of :mod:`repro.ops.swap`, ``merge``, ``normalise`` and
``absorb`` is implemented here, directly on the flat columns of
:class:`~repro.core.arena.ArenaRep`, **level-synchronously**: one pass
per f-tree node over whole columns, never a walk per entry.

- value ids are copied **verbatim** (every kernel's output shares its
  input's pool), so no interning happens on the hot path;
- columns an operator does not touch are not copied at all: the output
  arena shares them with its input (arenas are immutable);
- what an operator does rewrite is spelled with two column primitives.
  The **forest gather** (:func:`_gather_forest`) takes the child
  forests of entries ``idx`` of one node -- any order, repeats allowed
  -- as, per descendant node, one indexed read of the value column, a
  child index vector expanded from the gathered ranges, and child
  ranges that are prefix sums of the gathered widths.  The **mask
  cascade** (:func:`_cascade`) takes keep masks on some columns,
  carries them up the ancestor chain (an entry survives iff its
  continuation union keeps an entry: a cumulative keep count read at
  ``hi`` and ``lo``), down to every descendant, and compacts each
  affected node once -- the eager pruning of emptied unions that is the
  contract of :func:`repro.reference.ops.rewrite_at_level`;
- each operator then is index arithmetic on its own level's columns
  over composite (occurrence, value-rank) keys: swap is one stable
  sort of the (a, b) pairs plus three gathers, merge a sorted
  intersection plus one cascade, absorb an owner vector from ``A``
  down to ``B``, an equality mask and one cascade, push-up one gather
  of the first copies.  Only the distinct ids of the compared columns
  are ever decoded and ranked (:func:`_rank_columns`), never the pool.

Every primitive has a numpy body and a stdlib body under the module's
usual ``_np is not None`` switch: without numpy it is the same
algorithm, one pass per node, not a different one.

Every kernel is *prepared* once per (f-tree, operator, args) -- node
indices, child-slot mappings and the destination skeleton are resolved
at prepare time and cached (least recently used out) -- so repeated
executions (plan replays, shard fan-out, IVM delta merges) run without
touching the f-tree at all, and arenas produced by the same prepared
kernel share one destination skeleton.  Runs are tallied in
:data:`COUNTERS`, the ``kernels`` metrics namespace.

:func:`compiled_plan_for` lifts this to whole f-plans: all step
kernels of an :class:`~repro.optimiser.fplan.FPlan` are prepared
up-front, chained by a generated driver, and cached weakly per plan.

The union comes in two kernels with one result (see
:mod:`repro.ops.union` for the two contracts): :func:`union_arenas`
recombines k shard results in one level-synchronous pass -- per f-tree
node, the k value columns end to end, one sort-and-group on
(output parent, value rank), child ranges as prefix sums -- and
:func:`union_arena` is the pairwise two-pointer merge kept for delta
maintenance, where one side is tiny and bulk runs (:func:`_copy_run`)
beat whole-column passes.  Both take value ids across pools through
:func:`_pool_remaps` when the inputs do not share one;
:func:`product_arena` covers the remaining binary operator.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import and_, eq, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.arena import (
    ArenaError,
    ArenaRep,
    ValuePool,
    _as_np,
    _extend_ids,
    _i64,
    _np,
    _skeleton_of,
    _Skeleton,
)
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.obs.metrics import Tally

#: The ``kernels`` metrics namespace (see :func:`counters`), registered
#: by every :class:`~repro.service.session.QuerySession`: process-wide
#: tallies of operator-kernel runs, folded in once per run.
#: ``entries_in`` / ``entries_out`` are whole-arena entry counts before
#: and after, ``entries_pruned`` the entries mask cascades dropped,
#: ``gathers`` the forest gathers issued, ``cache_evictions`` the
#: prepared kernels pushed out of the cache.  All repeat exactly for a
#: fixed sequence of calls.
COUNTERS = Tally(
    (
        "runs",
        "entries_in",
        "entries_out",
        "entries_pruned",
        "gathers",
        "cache_evictions",
    )
)


def counters() -> Dict[str, int]:
    """The ``kernels`` collector: :data:`COUNTERS` plus the number of
    prepared kernels currently cached."""
    return dict(COUNTERS.snapshot(), cache_size=len(_KERNEL_CACHE))


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


# -- column primitives --------------------------------------------------------
#
# Each realised with numpy or with the stdlib alone.  A "vector" below
# is an int64 (a mask: bool) ndarray or a list accordingly; a "column"
# is what an arena holds (``array('q')`` or an mmap-backed ndarray).


def _column(vector) -> array:
    """A vector as an arena column."""
    out = _i64()
    if _np is None:
        out.extend(vector)
    elif len(vector):  # (an empty memoryview cannot be cast)
        vector = _np.ascontiguousarray(vector, dtype=_np.int64)
        out.frombytes(vector.data.cast("B"))
    return out


def _take(column, idx):
    """``column[idx]`` for an index vector (any order, repeats)."""
    if _np is not None:
        return _as_np(column)[idx]
    return list(map(column.__getitem__, idx))


def _spread(slots, los: Sequence[object], his: Sequence[object]):
    """``slots[e]`` repeated once per child entry of input entry ``e``
    (child ranges ``[lo, hi)`` given per part, end to end): the owner
    vector of the child column, valid because child ranges tile it."""
    if _np is not None:
        widths = _np.concatenate(
            [_as_np(hi) - _as_np(lo) for lo, hi in zip(los, his)]
        )
        return _np.repeat(slots, widths)
    widths = (hi - lo for lo, hi in zip(chain(*los), chain(*his)))
    return list(chain.from_iterable(map(repeat, slots, widths)))


def _owners(lo, hi, of=None):
    """For every child entry of the slot ``(lo, hi)``, the index of
    the entry that owns it -- or what ``of`` holds at that index."""
    if of is None:
        n = len(lo)
        of = range(n) if _np is None else _np.arange(n, dtype=_np.int64)
    return _spread(of, [lo], [hi])


def _ranges(counts) -> Tuple[array, array]:
    """Tiling ``(child_lo, child_hi)`` for per-entry child counts."""
    if _np is not None:
        his = _np.cumsum(counts)
        return _column(his - counts), _column(his)
    bounds = list(accumulate(counts, initial=0))
    return _column(bounds[:-1]), _column(bounds[1:])


def _expand(lo, hi, idx):
    """``(widths, inner)``: the number of child entries of each of the
    entries ``idx`` of one child slot, and the indices of those child
    entries, run after run."""
    if _np is not None:
        idx = _np.asarray(idx, dtype=_np.int64)
        first = _as_np(lo)[idx]
        widths = _as_np(hi)[idx] - first
        ends = _np.cumsum(widths)
        first -= ends - widths
        inner = _np.repeat(first, widths)
        inner += _np.arange(len(inner), dtype=_np.int64)
        return widths, inner
    first, last = _take(lo, idx), _take(hi, idx)
    return (
        list(map(sub, last, first)),
        list(chain.from_iterable(map(range, first, last))),
    )


def _rank_columns(pool, columns: Sequence[object]):
    """``(rank vectors, number of ranks)``: every id of ``columns``
    replaced by its dense value rank, ranked jointly.  Only the
    distinct ids present are decoded and sorted -- a shared pool holds
    the values of every attribute of the database, comparable with
    these or not -- so ``TypeError`` means incomparable values *within*
    the compared columns."""
    if _np is not None:
        views = [_as_np(column) for column in columns]
        present = _np.zeros(len(pool), dtype=bool)
        for view in views:
            present[view] = True
        distinct = _np.flatnonzero(present)
        rank, ranks = _value_ranks(distinct.tolist(), pool)
        table = _np.empty(len(present), dtype=_np.int64)
        table[distinct] = rank
        return [table[view] for view in views], ranks
    distinct = list(set(chain(*columns)))
    rank, ranks = _value_ranks(distinct, pool)
    table = dict(zip(distinct, rank))
    return [list(map(table.__getitem__, c)) for c in columns], ranks


def _keys(owners, ranks, stride: int):
    """Composite (owner, value-rank) sort keys; ``owners=None`` when
    there is one owner (a root level)."""
    if owners is None:
        return ranks
    if _np is not None:
        return owners * stride + ranks
    return [o * stride + r for o, r in zip(owners, ranks)]


def _sort_groups(keys):
    """``(order, starts, counts)``: the stable sort order of ``keys``
    and, per run of equal keys in that order, where it starts and how
    long it is."""
    n = len(keys)
    if _np is not None:
        order = _np.argsort(keys, kind="stable")
        ordered = keys[order]
        fresh = _np.empty(n, dtype=bool)
        fresh[0] = True
        _np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        starts = _np.flatnonzero(fresh)
        return order, starts, _np.diff(starts, append=n)
    order = sorted(range(n), key=keys.__getitem__)
    starts = [
        i
        for i in range(n)
        if i == 0 or keys[order[i]] != keys[order[i - 1]]
    ]
    return order, starts, list(map(sub, starts[1:] + [n], starts))


def _match(left, right):
    """Keep masks of two strictly increasing key vectors: the entries
    whose key the other side holds too (a sorted intersection)."""
    if _np is not None:
        at = _np.searchsorted(right, left)
        at[at == len(right)] = 0
        keep_left = right[at] == left
        keep_right = _np.zeros(len(right), dtype=bool)
        keep_right[at[keep_left]] = True
        return keep_left, keep_right
    common = set(left).intersection(right)
    return (
        list(map(common.__contains__, left)),
        list(map(common.__contains__, right)),
    )


def _count_slots(slots, n: int):
    """How often each of ``0..n-1`` occurs in ``slots``."""
    if _np is not None:
        return _np.bincount(slots, minlength=n)
    counts = [0] * n
    for slot in slots:
        counts[slot] += 1
    return counts


def _kept(mask, lo, hi):
    """How many child entries ``mask`` keeps for every entry of the
    slot ``(lo, hi)``: a cumulative keep count read at both ends."""
    if _np is not None:
        total = _np.zeros(len(mask) + 1, dtype=_np.int64)
        _np.cumsum(mask, out=total[1:])
        return total[_as_np(hi)] - total[_as_np(lo)]
    total = list(accumulate(mask, initial=0))
    return [total[h] - total[l] for l, h in zip(lo, hi)]


def _both(mask, other):
    """The conjunction of two masks; one of them may be ``None``."""
    if mask is None or other is None:
        return other if mask is None else mask
    return mask & other if _np is not None else list(map(and_, mask, other))


def _compress(vector, mask):
    """The entries of ``vector`` (or column) that ``mask`` keeps."""
    if _np is not None:
        return _as_np(vector)[mask]
    return list(compress(vector, mask))


# -- the two forest primitives ------------------------------------------------


def _hangs_in(skel: _Skeleton, node: int) -> Tuple[int, int]:
    """``(parent, slot)``: the child slot ``node`` hangs in;
    ``(-1, -1)`` for a root."""
    p = skel.parent[node]
    return (p, skel.children[p].index(node)) if p != -1 else (-1, -1)


class _Columns:
    """One kernel run's working columns, in *source* node numbering.

    They start out as the input arena's own columns, shared and never
    mutated; the primitives replace the ones an operator rewrites, and
    :meth:`_Kernel.run` relabels the lot into the destination skeleton.
    ``pruned`` and ``gathers`` are the run's tallies.
    """

    __slots__ = ("values", "lo", "hi", "pruned", "gathers")

    def __init__(self, arena: ArenaRep) -> None:
        self.values = list(arena.values)
        self.lo = [list(slots) for slots in arena.child_lo]
        self.hi = [list(slots) for slots in arena.child_hi]
        self.pruned = 0
        self.gathers = 0


def _gather_forest(
    arena: ArenaRep,
    out: _Columns,
    node: int,
    idx,
    slots: Sequence[int],
) -> None:
    """The forest gather: the child forests in ``slots`` of entries
    ``idx`` of ``node`` (any order, repeats allowed, possibly none).

    Writes the gathered child ranges of those slots (aligned with
    ``idx``) and every column below them; ``node``'s own value column
    is its caller's business.  One node at a time, each index vector
    dropped as soon as its children's are expanded from it.
    """
    out.gathers += 1
    children = arena.skel.children
    pending = [(node, j, idx) for j in slots]
    while pending:
        node, j, idx = pending.pop()
        widths, inner = _expand(
            arena.child_lo[node][j], arena.child_hi[node][j], idx
        )
        out.lo[node][j], out.hi[node][j] = _ranges(widths)
        child = children[node][j]
        out.values[child] = _column(_take(arena.values[child], inner))
        pending.extend(
            (child, k, inner) for k in range(len(children[child]))
        )


def _cascade(
    arena: ArenaRep, out: _Columns, masks: Dict[int, object]
) -> bool:
    """The mask cascade: drop the entries ``masks`` (node -> keep mask
    over its column) rejects, everything they own and every ancestor
    entry they leave with an empty union.  ``False`` when the whole
    relation empties; otherwise every affected node's columns are
    compacted into ``out``, once each.
    """
    skel = arena.skel
    every, some = (
        (all, any) if _np is None else (_np.ndarray.all, _np.ndarray.any)
    )
    keep = {n: mask for n, mask in masks.items() if not every(mask)}
    #: Kept child entries per parent entry, by child node.  Still right
    #: after the way down: that only drops entries of dropped parents.
    counted = {}
    # Up, children before parents: an entry survives iff each masked
    # child union of it keeps an entry.  A level that loses nothing
    # ends the climb (and leaves its siblings' subtrees shared).
    for node in range(max(keep, default=0), 0, -1):
        if node not in keep or skel.parent[node] == -1:
            continue
        p, j = _hangs_in(skel, node)
        counts = counted[node] = _kept(
            keep[node], arena.child_lo[p][j], arena.child_hi[p][j]
        )
        alive = counts > 0 if _np is not None else [c > 0 for c in counts]
        if not every(alive):
            keep[p] = _both(keep.get(p), alive)
    for r in skel.roots:
        if r in keep and not some(keep[r]):
            return False
    # Down, parents before children: a dropped entry takes its forest.
    for node in range(min(keep, default=0) + 1, len(skel)):
        if skel.parent[node] in keep:
            p, j = _hangs_in(skel, node)
            below = _owners(
                arena.child_lo[p][j], arena.child_hi[p][j], keep[p]
            )
            keep[node] = _both(keep.get(node), below)
    # Compact: every masked node rewrites its value column and the
    # ranges of the slot it hangs in (its parent may have lost nothing).
    for node, mask in keep.items():
        column = _column(_compress(arena.values[node], mask))
        out.pruned += len(mask) - len(column)
        out.values[node] = column
        p, j = _hangs_in(skel, node)
        if p != -1:
            counts = counted.get(node)
            if counts is None:
                counts = _kept(
                    mask, arena.child_lo[p][j], arena.child_hi[p][j]
                )
            if p in keep:
                counts = _compress(counts, keep[p])
            out.lo[p][j], out.hi[p][j] = _ranges(counts)
    return True


# -- the operator kernels -----------------------------------------------------


class _Kernel:
    """Base of the prepared single-operator kernels.

    A restructuring operator rewrites the level at which its operands
    sit -- in every occurrence at once -- and leaves every other column
    alone.  Preparation resolves where each destination column comes
    from: destination node ``d`` takes the value column of source node
    ``value_src[d]`` and, per child, the range columns of source slot
    ``slot_src[d][child]`` -- by default the slot that child's label
    hangs in in the source tree.  :meth:`run` lets the subclass's
    :meth:`rewrite` replace working columns, then relabels.
    """

    __slots__ = (
        "src_tree", "out_tree", "sskel", "dskel", "value_src", "slot_src",
    )

    def __init__(
        self,
        tree: FTree,
        sskel: _Skeleton,
        out_tree: FTree,
        renamed: Optional[Dict[object, int]] = None,
        slot_of: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        """``renamed``: destination label -> source node, for labels
        the source tree does not have; ``slot_of``: source node ->
        the source slot whose ranges its destination node takes over,
        where that is not the node's own."""
        self.src_tree = tree
        self.out_tree = out_tree
        self.sskel = sskel
        dskel = self.dskel = _skeleton_of(out_tree)
        index = {**sskel.index, **(renamed or {})}
        self.value_src = [index[label] for label in dskel.labels]
        slot_of = slot_of or {}
        self.slot_src = [
            [
                slot_of.get(s) or _hangs_in(sskel, s)
                for s in map(self.value_src.__getitem__, kids)
            ]
            for kids in dskel.children
        ]

    def rewrite(
        self, arena: ArenaRep, out: _Columns
    ) -> bool:  # pragma: no cover - abstract
        """Replace the working columns the operator changes; ``False``
        when the relation empties."""
        raise NotImplementedError

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        out = _Columns(arena)
        result = None
        if self.rewrite(arena, out):
            result = ArenaRep(
                self.dskel,
                [out.values[s] for s in self.value_src],
                [[out.lo[s][j] for s, j in row] for row in self.slot_src],
                [[out.hi[s][j] for s, j in row] for row in self.slot_src],
                arena.pool,
            )
        COUNTERS.add(
            runs=1,
            entries_in=arena.entry_count,
            entries_out=0 if result is None else result.entry_count,
            entries_pruned=out.pruned,
            gathers=out.gathers,
        )
        return result

    def _occurrences(self, arena: ArenaRep, node: int):
        """The occurrence (parent entry) of every entry of a level
        member; ``None`` at the root level, where there is one."""
        p, pos = _hangs_in(self.sskel, node)
        if p == -1:
            return None
        return _owners(arena.child_lo[p][pos], arena.child_hi[p][pos])


class SwapKernel(_Kernel):
    """``chi_{A,B}`` on columns (Figure 4, all occurrences at once).

    Every ``B`` entry is one (a, b) pair.  One stable sort of the pairs
    by (occurrence, rank of b) gives the output order: runs of equal
    keys are the new ``B`` entries, headed by their first pair (the
    smallest ``a``, as the heap merge pops it), the pairs themselves
    the new ``A`` entries.  The payloads follow by forest gather:
    ``E_a`` by the pairs' ``A`` index, ``T_ab`` by their ``B`` index,
    ``T_b`` by the heads' ``B`` index.  A swap never prunes.
    """

    __slots__ = ("sa", "sb", "j_b", "e_slots", "tb_slots", "tab_slots")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.swap import _swap_parts, swap_tree

        node_a, node_b, _, t_b, _ = _swap_parts(tree, a_attr, b_attr)
        sskel = _skeleton_of(tree)
        sa = self.sa = sskel.index[node_a.label]
        sb = self.sb = sskel.index[node_b.label]
        self.j_b = sskel.children[sa].index(sb)
        # B takes over the slot A hung in, A the slot B hung in.
        slot_of = {sa: (sa, self.j_b)}
        if sskel.parent[sa] != -1:
            slot_of[sb] = _hangs_in(sskel, sa)
        super().__init__(
            tree, sskel, swap_tree(tree, a_attr, b_attr), slot_of=slot_of
        )
        self.e_slots = [
            j for j in range(len(sskel.children[sa])) if j != self.j_b
        ]
        tb_labels = {t.label for t in t_b}
        self.tb_slots = [
            j
            for j, k in enumerate(sskel.children[sb])
            if sskel.labels[k] in tb_labels
        ]
        self.tab_slots = [
            j
            for j, k in enumerate(sskel.children[sb])
            if sskel.labels[k] not in tb_labels
        ]

    def rewrite(self, arena: ArenaRep, out: _Columns) -> bool:
        sa, sb, j_b = self.sa, self.sb, self.j_b
        owner = _owners(arena.child_lo[sa][j_b], arena.child_hi[sa][j_b])
        (rank_b,), stride = _rank_columns(arena.pool, [arena.values[sb]])
        occurrence = self._occurrences(arena, sa)  # of every A entry ...
        if occurrence is not None:
            occurrence = _take(occurrence, owner)  # ... of every pair
        order, starts, counts = _sort_groups(
            _keys(occurrence, rank_b, stride)
        )
        heads = _take(order, starts)
        pairs_a = _take(owner, order)
        out.values[sa] = _column(_take(arena.values[sa], pairs_a))
        out.values[sb] = _column(_take(arena.values[sb], heads))
        out.lo[sa][j_b], out.hi[sa][j_b] = _ranges(counts)
        if occurrence is not None:
            p, pos = _hangs_in(self.sskel, sa)
            out.lo[p][pos], out.hi[p][pos] = _ranges(
                _count_slots(
                    _take(occurrence, heads), len(arena.values[p])
                )
            )
        _gather_forest(arena, out, sa, pairs_a, self.e_slots)
        _gather_forest(arena, out, sb, order, self.tab_slots)
        _gather_forest(arena, out, sb, heads, self.tb_slots)
        return True


class MergeKernel(_Kernel):
    """``mu_{A,B}`` on columns: the sorted intersection of the two
    sibling columns' (occurrence, value-rank) keys gives two keep
    masks, one cascade prunes what they reject (and the occurrences
    they empty), and the survivors -- equally many on both sides of
    every occurrence, in the same order -- become the merged node:
    ``A``'s value ids, both child-slot sets."""

    __slots__ = ("sa", "sb")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.merge import _merge_parts, merge_tree

        node_a, node_b, merged = _merge_parts(tree, a_attr, b_attr)
        sskel = _skeleton_of(tree)
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        super().__init__(
            tree,
            sskel,
            merge_tree(tree, a_attr, b_attr),
            renamed={merged.label: self.sa},
        )

    def rewrite(self, arena: ArenaRep, out: _Columns) -> bool:
        sa, sb = self.sa, self.sb
        (rank_a, rank_b), stride = _rank_columns(
            arena.pool, [arena.values[sa], arena.values[sb]]
        )
        keep_a, keep_b = _match(
            _keys(self._occurrences(arena, sa), rank_a, stride),
            _keys(self._occurrences(arena, sb), rank_b, stride),
        )
        return _cascade(arena, out, {sa: keep_a, sb: keep_b})


class PushKernel(_Kernel):
    """``psi_B`` on columns: ``B``'s union does not depend on ``A``, so
    all its copies within one occurrence are equal; gather the one
    below each occurrence's first ``A`` entry as the hoisted ``B``, and
    let ``A`` keep its other columns verbatim."""

    __slots__ = ("sa", "j_b")

    def __init__(self, tree: FTree, b_attr: str) -> None:
        from repro.ops.normalise import push_up_tree

        node_b = tree.node_of(b_attr)
        node_a = tree.parent_of(node_b)
        sskel = _skeleton_of(tree)
        super().__init__(tree, sskel, push_up_tree(tree, b_attr))
        self.sa = sskel.index[node_a.label]
        self.j_b = sskel.children[self.sa].index(sskel.index[node_b.label])

    def rewrite(self, arena: ArenaRep, out: _Columns) -> bool:
        p, pos = _hangs_in(self.sskel, self.sa)
        firsts = [0] if p == -1 else arena.child_lo[p][pos]
        _gather_forest(arena, out, self.sa, firsts, (self.j_b,))
        return True


class RestrictKernel(_Kernel):
    """The restriction phase of ``alpha_{A,B}``: an owner vector
    carried from ``A`` down to ``B`` says which ``A`` entry encloses
    every ``B`` entry; the ``B`` entries whose value equals it are
    kept, one cascade prunes the rest (up to the root where unions
    empty), and the survivors -- one per surviving entry of ``B``'s
    parent -- hand their child slots to that parent."""

    __slots__ = ("sa", "sb", "path")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.absorb import _absorb_parts, _structural_tree

        node_a, node_b = _absorb_parts(tree, a_attr, b_attr)
        structural, merged = _structural_tree(tree, node_a, node_b)
        sskel = _skeleton_of(tree)
        sa = self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        super().__init__(
            tree, sskel, structural, renamed={merged.label: sa}
        )
        #: The slots leading from A down to B, top first.
        self.path: List[Tuple[int, int]] = []
        x = self.sb
        while x != sa:
            self.path.insert(0, _hangs_in(sskel, x))
            x = sskel.parent[x]

    def rewrite(self, arena: ArenaRep, out: _Columns) -> bool:
        owner = None  # the A entry above every entry of the path node
        for node, j in self.path:
            owner = _owners(
                arena.child_lo[node][j], arena.child_hi[node][j], owner
            )
        (rank_a, rank_b), _ = _rank_columns(
            arena.pool, [arena.values[self.sa], arena.values[self.sb]]
        )
        enclosing = _take(rank_a, owner)
        keep = (
            enclosing == rank_b
            if _np is not None
            else list(map(eq, enclosing, rank_b))
        )
        return _cascade(arena, out, {self.sb: keep})


class KernelChain:
    """A prepared sequence of kernels run back to back (absorb =
    restriction + normalisation replay; select-eq = filter +
    normalisation replay; compiled plans = one kernel per step)."""

    __slots__ = ("kernels", "out_tree")

    def __init__(self, kernels: Sequence[object], out_tree: FTree) -> None:
        self.kernels = list(kernels)
        self.out_tree = out_tree

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        current: Optional[ArenaRep] = arena
        for kernel in self.kernels:
            current = kernel.run(current)
            if current is None:
                return None
        return current


def _normalise_chain(tree: FTree) -> KernelChain:
    """Prepared push-up kernels replaying ``normalise_tree(tree)``."""
    from repro.ops.normalise import normalise_tree

    kernels: List[PushKernel] = []
    current = tree
    _, trace = normalise_tree(tree)
    for attr in trace:
        kernel = PushKernel(current, attr)
        kernels.append(kernel)
        current = kernel.out_tree
    return KernelChain(kernels, current)


def _absorb_chain(tree: FTree, a_attr: str, b_attr: str) -> KernelChain:
    restrict = RestrictKernel(tree, a_attr, b_attr)
    tail = _normalise_chain(restrict.out_tree)
    return KernelChain([restrict] + tail.kernels, tail.out_tree)


# -- prepared-kernel cache ----------------------------------------------------

_PREPARERS: Dict[str, Callable[..., object]] = {
    "swap": SwapKernel,
    "merge": MergeKernel,
    "push": PushKernel,
    "absorb": _absorb_chain,
    "normalise": _normalise_chain,
}

#: Prepared kernels, least recently used first (a plain dict keeps
#: insertion order; a hit re-inserts its entry).
_KERNEL_CACHE: Dict[tuple, object] = {}
_KERNEL_CACHE_MAX = 512
_KERNEL_CACHE_LOCK = threading.Lock()


def kernel_for(tree: FTree, kind: str, args: Sequence[str] = ()):
    """The prepared arena kernel for ``kind`` (``swap``/``merge``/
    ``push``/``absorb``/``normalise``) on ``tree``, cached by the
    tree's canonical key so plan replays and repeated shard/delta
    executions skip preparation (and share destination skeletons).
    A full cache evicts its least recently used kernel, so a stream
    of never-repeating plans cannot flush the hot ones."""
    key = (tree.key(), kind, tuple(args))
    with _KERNEL_CACHE_LOCK:
        kernel = _KERNEL_CACHE.pop(key, None)
        if kernel is not None:
            _KERNEL_CACHE[key] = kernel
            return kernel
    kernel = _PREPARERS[kind](tree, *args)  # prepared outside the lock
    evicted = 0
    with _KERNEL_CACHE_LOCK:
        if key not in _KERNEL_CACHE:  # (a racing preparer may have won)
            while len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
                del _KERNEL_CACHE[next(iter(_KERNEL_CACHE))]
                evicted += 1
        _KERNEL_CACHE[key] = kernel
    if evicted:
        COUNTERS.add(cache_evictions=evicted)
    return kernel


def apply(
    fr: FactorisedRelation, kind: str, args: Sequence[str] = ()
) -> FactorisedRelation:
    """One operator on a relation: ``fr`` through the prepared kernel
    for ``kind`` on its f-tree (the empty relation only changes tree)."""
    kernel = kernel_for(fr.tree, kind, args)
    return FactorisedRelation(
        kernel.out_tree, None if fr.is_empty() else kernel.run(fr.rep)
    )


# -- whole-plan compilation ---------------------------------------------------


class CompiledArenaPlan:
    """An f-plan compiled to a chain of prepared columnar kernels.

    All per-step preparation (skeletons, slot mappings, normalisation
    traces) happens once at compile time; execution is one generated
    driver running kernel after kernel over flat columns -- no f-tree
    transforms, no per-step key assertions.
    """

    __slots__ = ("kernels", "steps", "out_tree", "_drive")

    def __init__(self, plan) -> None:
        kernels = []
        for step, in_tree, expected in zip(
            plan.steps, plan.trees, plan.trees[1:]
        ):
            kernel = kernel_for(in_tree, step.kind, step.args)
            if kernel.out_tree.key() != expected.key():
                raise AssertionError(
                    f"kernel for {step} produced an unexpected f-tree"
                )
            kernels.append(kernel)
        self.kernels = kernels
        #: The source f-plan steps, index-aligned with :attr:`kernels`
        #: (labels for :mod:`repro.obs.profile`).
        self.steps = tuple(plan.steps)
        self.out_tree = plan.output_tree
        self._drive = _plan_driver(len(kernels))

    def execute(self, fr: FactorisedRelation) -> FactorisedRelation:
        if fr.is_empty():
            return FactorisedRelation(self.out_tree, None)
        return FactorisedRelation(
            self.out_tree, self._drive(fr.rep, self.kernels)
        )


_DRIVER_CACHE: Dict[int, Callable] = {}


def _plan_driver(n: int) -> Callable:
    """Generate (once per plan length) the straight-line driver that
    chains ``n`` kernel runs -- the whole-plan analogue of the
    per-skeleton enumeration codegen in :mod:`repro.core.arena`."""
    driver = _DRIVER_CACHE.get(n)
    if driver is not None:
        return driver
    lines = ["def _run(arena, kernels):"]
    for i in range(n):
        lines.append(f"    arena = kernels[{i}].run(arena)")
        lines.append("    if arena is None:")
        lines.append("        return None")
    lines.append("    return arena")
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated
    driver = namespace["_run"]
    _DRIVER_CACHE[n] = driver
    return driver


_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled_plan_for(plan) -> CompiledArenaPlan:
    """The compiled arena pipeline for ``plan``, weakly cached per
    plan object (plans are themselves cached by the session layer, so
    a hot query compiles once)."""
    compiled = _PLAN_CACHE.get(plan)
    if compiled is None:
        compiled = CompiledArenaPlan(plan)
        _PLAN_CACHE[plan] = compiled
    return compiled


# -- union and product --------------------------------------------------------


def _pool_remaps(pools: Sequence[object]):
    """``(out_pool, vmaps)`` for arenas about to share one output:
    ``vmaps[t]`` is an id table taking ``pools[t]`` into ``out_pool``,
    or ``None`` where that pool *is* the first one.  The first pool is
    extended by the others' unseen values in part order -- a
    :class:`ValuePool` in place (shared pools are append-only, and the
    output keeps the sharing identity), a list pool as a copy -- with
    one intern table for the whole call."""
    first = pools[0]
    if all(pool is first for pool in pools):
        return first, [None] * len(pools)
    if isinstance(first, ValuePool):
        out_pool = first
        intern_value = first.intern
    else:
        out_pool = list(first)
        intern: Dict[type, Dict[object, int]] = {}
        for vid, value in enumerate(out_pool):
            intern.setdefault(value.__class__, {}).setdefault(value, vid)

        def intern_value(value: object) -> int:
            table = intern.setdefault(value.__class__, {})
            vid = table.get(value)
            if vid is None:
                vid = table[value] = len(out_pool)
                out_pool.append(value)
            return vid

    vmaps: List[object] = []
    for pool in pools:
        if pool is first:
            vmaps.append(None)
            continue
        ids = [intern_value(value) for value in pool]
        vmaps.append(
            ids if _np is None else _np.asarray(ids, dtype=_np.int64)
        )
    return out_pool, vmaps


def _extend_shifted(dest: array, source, lo: int, hi: int, delta: int) -> None:
    """Append ``source[lo:hi] + delta`` to ``dest`` (bulk, both column
    kinds: ``array('q')`` and mmap-backed int64 ndarrays)."""
    if delta == 0:
        _extend_ids(dest, source, lo, hi)
    elif _np is not None:
        view = _as_np(source)[lo:hi] + delta
        dest.frombytes(view.tobytes())
    else:
        dest.extend(x + delta for x in source[lo:hi])


class _Writer:
    """Append-only column writer for the delta merge: value ids go in
    verbatim (no intern table), and an entry is committed after its
    children with the watermarks taken before them."""

    __slots__ = ("skel", "values", "child_lo", "child_hi")

    def __init__(self, skel: _Skeleton) -> None:
        n = len(skel)
        self.skel = skel
        self.values: List[array] = [_i64() for _ in range(n)]
        self.child_lo: List[List[array]] = [
            [_i64() for _ in skel.children[i]] for i in range(n)
        ]
        self.child_hi: List[List[array]] = [
            [_i64() for _ in skel.children[i]] for i in range(n)
        ]

    def mark_children(self, idx: int) -> List[int]:
        """Watermarks of ``idx``'s direct child columns."""
        values = self.values
        return [len(values[k]) for k in self.skel.children[idx]]

    def commit_children(
        self, idx: int, vid: int, cmarks: List[int]
    ) -> None:
        values = self.values
        child_lo = self.child_lo[idx]
        child_hi = self.child_hi[idx]
        for j, k in enumerate(self.skel.children[idx]):
            child_lo[j].append(cmarks[j])
            child_hi[j].append(len(values[k]))
        values[idx].append(vid)

    def finish(self, pool) -> ArenaRep:
        return ArenaRep(
            self.skel, self.values, self.child_lo, self.child_hi, pool
        )


def _copy_run(
    src: ArenaRep,
    w: _Writer,
    si: int,
    di: int,
    lo: int,
    hi: int,
    vmap=None,
) -> None:
    """Bulk-append entries ``[lo, hi)`` of src node ``si`` (and their
    whole descendant forests) to dst node ``di``.

    Requires structurally identical subtrees under ``si`` and ``di``
    (same labels; canonical child sorting then makes the child orders
    coincide, so the recursion is positional).  Values copy verbatim,
    or through ``vmap`` (an id remap table) for cross-pool copies;
    child ranges copy with one constant shift per (slot, run).
    """
    if hi <= lo:
        return
    if vmap is None:
        _extend_ids(w.values[di], src.values[si], lo, hi)
    elif _np is not None:
        col = _as_np(src.values[si])[lo:hi]
        w.values[di].frombytes(vmap[col].tobytes())
    else:
        column = src.values[si]
        w.values[di].extend(vmap[column[e]] for e in range(lo, hi))
    skids = src.skel.children[si]
    dkids = w.skel.children[di]
    for j in range(len(skids)):
        los = src.child_lo[si][j]
        his = src.child_hi[si][j]
        c_lo = los[lo]
        c_hi = his[hi - 1]
        delta = len(w.values[dkids[j]]) - c_lo
        _extend_shifted(w.child_lo[di][j], los, lo, hi, delta)
        _extend_shifted(w.child_hi[di][j], his, lo, hi, delta)
        _copy_run(src, w, skids[j], dkids[j], c_lo, c_hi, vmap)


def union_arena(left: ArenaRep, right: ArenaRep) -> ArenaRep:
    """The *delta merge*: structural union of two arenas over the same
    f-tree by a decoded two-pointer merge per union occurrence, with
    one-sided runs bulk-copied.  Its work is proportional to the
    smaller side's entries plus the runs between them, which is what
    :func:`repro.ivm.apply_deltas` wants (a cached result of hundreds
    of entries meets a delta of a handful); k comparable parts go
    through :func:`union_arenas` instead, once.  Shares the left pool
    when both inputs already do; otherwise right ids are remapped
    through one table.  Exactness needs branch-compatible inputs, as
    in :func:`repro.ops.union.union`."""
    skel = left.skel
    w = _Writer(skel)
    out_pool, (_, vmap) = _pool_remaps((left.pool, right.pool))
    lpool = left.pool
    rpool = right.pool

    def merge(si: int, llo: int, lhi: int, rlo: int, rhi: int) -> None:
        lvals = left.values[si]
        rvals = right.values[si]
        kids = skel.children[si]
        i, j = llo, rlo
        while i < lhi and j < rhi:
            lv = lpool[lvals[i]]
            rv = rpool[rvals[j]]
            if lv < rv:
                stop = i + 1
                while stop < lhi and lpool[lvals[stop]] < rv:
                    stop += 1
                _copy_run(left, w, si, si, i, stop)
                i = stop
            elif rv < lv:
                stop = j + 1
                while stop < rhi and rpool[rvals[stop]] < lv:
                    stop += 1
                _copy_run(right, w, si, si, j, stop, vmap)
                j = stop
            else:
                marks = w.mark_children(si)
                for js, k in enumerate(kids):
                    merge(
                        k,
                        left.child_lo[si][js][i],
                        left.child_hi[si][js][i],
                        right.child_lo[si][js][j],
                        right.child_hi[si][js][j],
                    )
                w.commit_children(si, lvals[i], marks)
                i += 1
                j += 1
        if i < lhi:
            _copy_run(left, w, si, si, i, lhi)
        if j < rhi:
            _copy_run(right, w, si, si, j, rhi, vmap)

    for r in skel.roots:
        merge(
            r, 0, len(left.values[r]), 0, len(right.values[r])
        )
    return w.finish(out_pool)


# -- the k-way shard union: one pass per f-tree node ---------------------------


def _gather(columns: Sequence[object], vmaps: Sequence[object]):
    """The columns end to end, each taken through its id table."""
    if _np is not None:
        return _np.concatenate(
            [
                _as_np(column) if vmap is None else vmap[_as_np(column)]
                for column, vmap in zip(columns, vmaps)
            ]
        )
    out: List[int] = []
    for column, vmap in zip(columns, vmaps):
        out.extend(
            column if vmap is None else map(vmap.__getitem__, column)
        )
    return out


def _group(ids, owners, n_owners: int, pool):
    """Merge one node's concatenated entries: ``(out_ids, slots,
    counts)`` -- the output column, the output index of every input
    entry, and the number of output entries per owner (the output
    index of the parent entry; ``owners=None`` for a root, which has
    no ranges to count for).

    Entries with one owner and ``==``-equal values form one output
    entry, emitted in (owner, value) order and carrying the id of the
    first of them in input order -- the left-most part's.
    """
    (rank,), ranks = _rank_columns(pool, [ids])
    order, starts, sizes = _sort_groups(_keys(owners, rank, ranks))
    winners = _take(order, starts)
    if _np is not None:
        slots = _np.empty(len(ids), dtype=_np.int64)
        slots[order] = _np.repeat(
            _np.arange(len(starts), dtype=_np.int64), sizes
        )
    else:
        slots = [0] * len(ids)
        for slot, (start, size) in enumerate(zip(starts, sizes)):
            for e in order[start:start + size]:
                slots[e] = slot
    counts = (
        None
        if owners is None
        else _count_slots(_take(owners, winners), n_owners)
    )
    return _take(ids, winners), slots, counts


def union_arenas(parts: Sequence[ArenaRep]) -> ArenaRep:
    """Structural union of k >= 2 non-empty arenas over one f-tree, one
    pass per f-tree node (level-synchronous): the *shard recombination*.

    Visiting nodes in pre-order, each node's k value columns are put
    end to end (ids taken into the output pool, see
    :func:`_pool_remaps`), every entry tagged with the output index of
    its parent entry, and :func:`_group` sorts and merges them in one
    go; the parent's child ranges are prefix sums of the per-parent
    group counts, and each child column inherits its owner vector
    through :func:`_spread`.  O(#nodes) column operations with numpy
    (one sort per node without), every output column written once --
    against k-1 rewrites of the growing result by a fold of
    :func:`union_arena`, whose output this reproduces byte for byte.
    Exactness needs branch-compatible inputs, as there.
    """
    skel = parts[0].skel
    out_pool, vmaps = _pool_remaps([part.pool for part in parts])
    n = len(skel)
    values: List[array] = [None] * n  # type: ignore[list-item]
    child_lo: List[List[array]] = [[] for _ in range(n)]
    child_hi: List[List[array]] = [[] for _ in range(n)]
    #: Per node, left by its parent: (owner vector, number of output
    #: entries the parent has); a root has one virtual owner.
    pending: List[Tuple[object, int]] = [(None, 1)] * n
    for i in range(n):  # pre-order: parents come before their children
        ids = _gather([part.values[i] for part in parts], vmaps)
        owners, n_owners = pending[i]
        pending[i] = (None, 0)  # the vector is as long as the column
        if owners is not None and len(owners) != len(ids):
            raise ArenaError(
                f"node {skel.parent[i]}: child ranges do not tile "
                f"the column of node {i}"
            )
        out_ids, slots, counts = _group(ids, owners, n_owners, out_pool)
        values[i] = _column(out_ids)
        p = skel.parent[i]
        if p != -1:
            # Children are visited in slot order, so appending lines
            # the ranges up with ``skel.children[p]``.
            lo, hi = _ranges(counts)
            child_lo[p].append(lo)
            child_hi[p].append(hi)
        for j, k in enumerate(skel.children[i]):
            spread = _spread(
                slots,
                [part.child_lo[i][j] for part in parts],
                [part.child_hi[i][j] for part in parts],
            )
            pending[k] = (spread, len(out_ids))
    return ArenaRep(skel, values, child_lo, child_hi, out_pool)


def product_arena(
    out_tree: FTree, left: ArenaRep, right: ArenaRep
) -> ArenaRep:
    """Cartesian product: the output forest adopts both input column
    sets verbatim (zero copies when the pools are already shared;
    otherwise the right value columns are re-based onto the
    concatenated pool with one vectorised shift)."""
    dskel = _skeleton_of(out_tree)
    n = len(dskel)
    values: List[array] = [None] * n  # type: ignore[list-item]
    child_lo: List[List[array]] = [None] * n  # type: ignore[list-item]
    child_hi: List[List[array]] = [None] * n  # type: ignore[list-item]
    shared = left.pool is right.pool
    if shared:
        pool = left.pool
        shift = 0
    else:
        pool = list(left.pool) + list(right.pool)
        shift = len(left.pool)

    def adopt(src: ArenaRep, delta: int) -> None:
        sskel = src.skel
        for i in range(len(sskel)):
            di = dskel.index[sskel.labels[i]]
            if delta == 0:
                values[di] = src.values[i]
            else:
                shifted = _i64()
                _extend_shifted(
                    shifted, src.values[i], 0, len(src.values[i]), delta
                )
                values[di] = shifted
            child_lo[di] = list(src.child_lo[i])
            child_hi[di] = list(src.child_hi[i])

    adopt(left, 0)
    adopt(right, shift)
    return ArenaRep(dskel, values, child_lo, child_hi, pool)
