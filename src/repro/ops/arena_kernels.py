"""Columnar kernels for the restructuring f-plan operators.

Each operator of :mod:`repro.ops.swap`, ``merge``, ``normalise`` and
``absorb`` is implemented here, directly on the flat columns of
:class:`~repro.core.arena.ArenaRep`:

- value ids are copied **verbatim** (every kernel's output shares its
  input's pool), so no interning happens on the hot path;
- subtrees untouched by an operator move as contiguous column runs
  (:func:`_copy_run`: one ``memcpy``-shaped append per column, offsets
  fixed up by a constant shift), never entry by entry;
- the per-occurrence driving loop (:class:`_LevelKernel.run`) locates
  every occurrence of the level at which the operator's anchor node
  sits and prunes emptied unions eagerly on the way back up (the
  contract of :func:`repro.reference.ops.rewrite_at_level`).

Every kernel is *prepared* once per (f-tree, operator, args) -- node
indices, child-slot mappings and the destination skeleton are resolved
at prepare time and cached -- so repeated executions (plan replays,
shard fan-out, IVM delta merges) run without touching the f-tree at
all, and arenas produced by the same prepared kernel share one
destination skeleton (keeping the per-skeleton enumeration codegen
cache of :mod:`repro.core.arena` warm).

:func:`compiled_plan_for` lifts this to whole f-plans: all step
kernels of an :class:`~repro.optimiser.fplan.FPlan` are prepared
up-front, chained by a generated driver, and cached weakly per plan.

The union comes in two kernels with one result (see
:mod:`repro.ops.union` for the two contracts): :func:`union_arenas`
recombines k shard results in one level-synchronous pass -- per f-tree
node, the k value columns end to end, one sort-and-group on
(output parent, value rank), child ranges as prefix sums -- and
:func:`union_arena` is the pairwise two-pointer merge kept for delta
maintenance, where one side is tiny.  Both take value ids across pools
through :func:`_pool_remaps` when the inputs do not share one;
:func:`product_arena` covers the remaining binary operator.
The level pass is written over four column primitives, each with a
numpy body and a stdlib body under the module's usual ``_np is not
None`` switch: without numpy it is the same algorithm, one sort per
node, not a fallback to the fold.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from itertools import accumulate, chain, repeat
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
    """Append-only column writer that never interns.

    The operator kernels copy value ids verbatim from their input (the
    output shares the input pool), so unlike
    :class:`~repro.core.arena.ArenaWriter` there is no intern table:
    :meth:`commit_id` takes the id directly.  ``mark``/``rollback``
    give the same contiguous-subtree transaction the build path uses.
    """

    __slots__ = ("skel", "values", "child_lo", "child_hi", "scratch")

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
        #: Per-run kernel scratch (e.g. the decoded pool rank table of
        #: the vectorised swap).  Lives on the writer, not the kernel:
        #: prepared kernels are cached and shared across executions --
        #: and threads -- while a writer belongs to exactly one run.
        self.scratch: Dict[str, object] = {}

    def mark(self, idx: int) -> List[int]:
        values = self.values
        return [
            len(values[k]) for k in range(idx + 1, self.skel.end[idx])
        ]

    def commit_id(self, idx: int, vid: int, marks: List[int]) -> None:
        values = self.values
        for j, k in enumerate(self.skel.children[idx]):
            self.child_lo[idx][j].append(marks[k - idx - 1])
            self.child_hi[idx][j].append(len(values[k]))
        values[idx].append(vid)

    def mark_children(self, idx: int) -> List[int]:
        """Direct-children watermarks only -- for commit sites that
        never roll back (:meth:`mark` snapshots the whole descendant
        range, which the hot per-entry loops cannot afford)."""
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

    def rollback(self, idx: int, marks: List[int]) -> None:
        for k, watermark in zip(
            range(idx + 1, self.skel.end[idx]), marks
        ):
            del self.values[k][watermark:]
            for slot in self.child_lo[k]:
                del slot[watermark:]
            for slot in self.child_hi[k]:
                del slot[watermark:]

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


def _value_ranks(ids: Sequence[int], pool) -> Tuple[List[int], int]:
    """Dense sort rank of each of the distinct ``ids`` by its decoded
    value (aligned with ``ids``), and the number of ranks.  Ids whose
    values compare *equal* share a rank (interning is per-type, so
    ``1`` and ``1.0`` hold distinct ids) -- the equality grouping of
    the heap and two-pointer merges.  Incomparable values raise
    ``TypeError``, as they would there."""
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


def _pool_rank(pool):
    """:func:`_value_ranks` of every pool id, as an int64 numpy table.
    Returns ``False`` when the pool holds incomparable values (the
    caller falls back to the heap) or numpy is unavailable.
    """
    if _np is None:
        return False
    try:
        ranks, _ = _value_ranks(range(len(pool)), pool)
    except TypeError:
        return False
    return _np.asarray(ranks, dtype=_np.int64)


# -- the per-occurrence driver ------------------------------------------------


class _LevelKernel:
    """Base of the prepared single-operator kernels.

    A restructuring operator rewrites every *occurrence* of the level
    at which its anchor node sits.  :meth:`run` walks the spine -- the chain of
    the anchor's ancestors -- per entry, calls the operator-specific
    :meth:`level` at each occurrence, prunes entries whose rewritten
    occurrence emptied (rollback), and bulk-copies everything off the
    spine.  Subclasses fill in :meth:`level`, which must write **all**
    destination members of the rewritten level (the level is where the
    forest changes shape, so only the subclass knows the mapping) and
    return ``False`` when the occurrence emptied.
    """

    __slots__ = (
        "src_tree",
        "out_tree",
        "sskel",
        "dskel",
        "anchor",
        "p",
        "level_nodes",
        "spine",
        "passthrough",
    )

    def __init__(
        self, tree: FTree, out_tree: FTree, anchor_label
    ) -> None:
        self.src_tree = tree
        self.out_tree = out_tree
        sskel = _skeleton_of(tree)
        dskel = _skeleton_of(out_tree)
        self.sskel = sskel
        self.dskel = dskel
        sa = sskel.index[anchor_label]
        self.anchor = sa
        p = sskel.parent[sa]
        self.p = p
        self.level_nodes: Tuple[int, ...] = (
            sskel.roots if p == -1 else sskel.children[p]
        )
        # Spine: the anchor's ancestors, root first.  Per spine node:
        # (src idx, dst idx, continuation slot, passthrough child
        # copies) -- labels above the level are untouched by every
        # operator here, so dst nodes resolve by label.
        spine: List[Tuple[int, int, int, List[Tuple[int, int, int]]]] = []
        chain: List[int] = []
        x = p
        while x != -1:
            chain.append(x)
            x = sskel.parent[x]
        chain.reverse()
        for d, sx in enumerate(chain):
            dx = dskel.index[sskel.labels[sx]]
            if d + 1 < len(chain):
                nxt = chain[d + 1]
                j_cont = sskel.children[sx].index(nxt)
                passthrough = [
                    (j, k, dskel.index[sskel.labels[k]])
                    for j, k in enumerate(sskel.children[sx])
                    if j != j_cont
                ]
            else:
                # The chain's last node is the level's parent: walk()
                # hands its entries straight to level(), which owns
                # every level member -- no continuation slot, and no
                # passthrough (whose labels may not even survive the
                # operator, e.g. a merged-away sibling).
                j_cont = -1
                passthrough = []
            spine.append((sx, dx, j_cont, passthrough))
        self.spine = spine
        # Level members the operator leaves untouched; subclasses
        # remove their operands from this list.
        self.passthrough: List[Tuple[int, int, int]] = []

    def _keep_members(self, consumed: Sequence[int]) -> None:
        """Record the level members copied verbatim by :meth:`level`."""
        skip = set(consumed)
        self.passthrough = [
            (pos, m, self.dskel.index[self.sskel.labels[m]])
            for pos, m in enumerate(self.level_nodes)
            if m not in skip
        ]

    def _rng(
        self, arena: ArenaRep, pos: int, node: int, e: Optional[int]
    ) -> Tuple[int, int]:
        """Entry range of level member ``node`` at occurrence ``e``."""
        if e is None:
            return 0, len(arena.values[node])
        return (
            arena.child_lo[self.p][pos][e],
            arena.child_hi[self.p][pos][e],
        )

    def _copy_passthrough(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> None:
        for pos, m, dm in self.passthrough:
            lo, hi = self._rng(arena, pos, m, e)
            _copy_run(arena, w, m, dm, lo, hi)

    def level(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        w = _Writer(self.dskel)
        if self.p == -1:
            if not self.level(arena, w, None):
                return None
            return w.finish(arena.pool)
        spine = self.spine
        sskel = self.sskel
        last = len(spine) - 1

        def walk(d: int, lo: int, hi: int) -> bool:
            sx, dx, j_cont, passthrough = spine[d]
            vals = arena.values[sx]
            kept = False
            if d == last:
                for e in range(lo, hi):
                    marks = w.mark(dx)
                    if self.level(arena, w, e):
                        w.commit_id(dx, vals[e], marks)
                        kept = True
                    else:
                        w.rollback(dx, marks)
                return kept
            los = arena.child_lo[sx][j_cont]
            his = arena.child_hi[sx][j_cont]
            for e in range(lo, hi):
                marks = w.mark(dx)
                if walk(d + 1, los[e], his[e]):
                    for j, k, dk in passthrough:
                        _copy_run(
                            arena,
                            w,
                            k,
                            dk,
                            arena.child_lo[sx][j][e],
                            arena.child_hi[sx][j][e],
                        )
                    w.commit_id(dx, vals[e], marks)
                    kept = True
                else:
                    w.rollback(dx, marks)
            return kept

        root = spine[0][0]
        if not walk(0, 0, len(arena.values[root])):
            return None
        for r in sskel.roots:
            if r != root:
                _copy_run(
                    arena,
                    w,
                    r,
                    self.dskel.index[sskel.labels[r]],
                    0,
                    len(arena.values[r]),
                )
        return w.finish(arena.pool)


# -- swap ---------------------------------------------------------------------


class SwapKernel(_LevelKernel):
    """``chi_{A,B}`` on columns: the Figure 4 heap merge, with all
    subtree payloads (``E_a``, ``F_b``, ``G_ab``) moved as bulk runs."""

    __slots__ = (
        "sa",
        "sb",
        "a_pos",
        "j_b",
        "dna",
        "dnb",
        "e_slots",
        "tb_slots",
        "tab_slots",
        "j_a_slot",
        "leaf_fast",
        "copy_plan",
    )

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.swap import _swap_parts, swap_tree

        node_a, node_b, a_others, t_b, t_ab = _swap_parts(
            tree, a_attr, b_attr
        )
        super().__init__(
            tree, swap_tree(tree, a_attr, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.j_b = sskel.children[self.sa].index(self.sb)
        self.dna = dskel.index[node_a.label]
        self.dnb = dskel.index[node_b.label]
        self.e_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
            if j != self.j_b
        ]
        tb_labels = {t.label for t in t_b}
        self.tb_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
            if sskel.labels[k] in tb_labels
        ]
        self.tab_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
            if sskel.labels[k] not in tb_labels
        ]
        self._keep_members((self.sa,))
        # Leaf-shaped swap (B is A's only subtree and carries none of
        # its own): the whole occurrence reduces to one argsort-and-
        # group over the B column -- no per-entry Python at all.
        self.j_a_slot = dskel.children[self.dnb].index(self.dna)
        self.leaf_fast = (
            _np is not None
            and not self.e_slots
            and not self.tb_slots
            and not self.tab_slots
            and not dskel.children[self.dna]
        )
        # Batched-run copy plan: a swap never prunes an occurrence
        # (every A entry owns a non-empty B union), so every column
        # except the two swapped nodes' copies verbatim.  Resolve the
        # per-node slot mapping now; the slot that pointed at A points
        # at B's node in the output (the subtree root's label changed).
        self.copy_plan: List[
            Tuple[int, int, List[Tuple[int, int, int]]]
        ] = []
        if self.leaf_fast:
            for si in range(len(sskel)):
                if si == self.sa or si == self.sb:
                    continue
                di = dskel.index[sskel.labels[si]]
                slots = []
                for j, k in enumerate(sskel.children[si]):
                    dst_label = (
                        node_b.label
                        if k == self.sa
                        else sskel.labels[k]
                    )
                    dj = dskel.children[di].index(
                        dskel.index[dst_label]
                    )
                    slots.append((j, dj, k))
                self.copy_plan.append((si, di, slots))

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        """Whole-column batched swap: one argsort over a composite
        (occurrence, value-rank) key replaces the per-occurrence walk
        entirely.  Falls back to the generic driver when the shape is
        not leaf-fast, the pool is not comparable, or columns are not
        occurrence-contiguous."""
        if not self.leaf_fast:
            return super().run(arena)
        rank = _pool_rank(arena.pool)
        if rank is False:
            return super().run(arena)
        np = _np
        sskel = self.sskel
        sa, sb, p = self.sa, self.sb, self.p
        vals_a = _as_np(arena.values[sa])
        vals_b = _as_np(arena.values[sb])
        n_a = len(vals_a)
        if n_a == 0:
            return None
        bl = _as_np(arena.child_lo[sa][self.j_b])
        bh = _as_np(arena.child_hi[sa][self.j_b])
        if len(vals_b) != int((bh - bl).sum()):
            return super().run(arena)
        if p != -1:
            occ_lo = _as_np(arena.child_lo[p][self.a_pos])
            occ_hi = _as_np(arena.child_hi[p][self.a_pos])
            if n_a != int((occ_hi - occ_lo).sum()):
                return super().run(arena)
            a_occ = np.repeat(
                np.arange(len(occ_lo), dtype=np.int64),
                occ_hi - occ_lo,
            )
        else:
            occ_lo = None
            a_occ = np.zeros(n_a, dtype=np.int64)
        owners = np.repeat(
            np.arange(n_a, dtype=np.int64), bh - bl
        )
        kb = rank[vals_b]
        occ_b = a_occ[owners]
        stride = int(kb.max()) + 1 if len(kb) else 1
        order = np.argsort(occ_b * stride + kb, kind="stable")
        comp_sorted = (occ_b * stride + kb)[order]
        boundary = (
            np.flatnonzero(comp_sorted[1:] != comp_sorted[:-1]) + 1
        )
        n_out = len(comp_sorted)
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), boundary)
        )
        ends = np.concatenate(
            (boundary, np.asarray([n_out], dtype=np.int64))
        )
        w = _Writer(self.dskel)
        w.values[self.dna].frombytes(
            vals_a[owners[order]].tobytes()
        )
        b_sorted = vals_b[order]
        w.values[self.dnb].frombytes(b_sorted[starts].tobytes())
        w.child_lo[self.dnb][self.j_a_slot].frombytes(
            starts.tobytes()
        )
        w.child_hi[self.dnb][self.j_a_slot].frombytes(
            ends.tobytes()
        )
        if p != -1:
            per_occ = np.bincount(
                occ_b[order][starts], minlength=len(occ_lo)
            ).astype(np.int64)
            group_hi = np.cumsum(per_occ)
            group_lo = group_hi - per_occ
        for si, di, slots in self.copy_plan:
            column = arena.values[si]
            _extend_ids(w.values[di], column, 0, len(column))
            for j, dj, k in slots:
                if si == p and k == sa:
                    w.child_lo[di][dj].frombytes(group_lo.tobytes())
                    w.child_hi[di][dj].frombytes(group_hi.tobytes())
                    continue
                src_lo = arena.child_lo[si][j]
                src_hi = arena.child_hi[si][j]
                _extend_ids(w.child_lo[di][dj], src_lo, 0, len(src_lo))
                _extend_ids(w.child_hi[di][dj], src_hi, 0, len(src_hi))
        return w.finish(arena.pool)

    def _level_vectorised(
        self, arena: ArenaRep, w: _Writer, e: Optional[int], rank
    ) -> bool:
        np = _np
        sa, sb = self.sa, self.sb
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        if a_hi <= a_lo:
            return self._level_heap(arena, w, e)
        bl = _as_np(arena.child_lo[sa][self.j_b])
        bh = _as_np(arena.child_hi[sa][self.j_b])
        seg_lo = int(bl[a_lo])
        seg_hi = int(bh[a_hi - 1])
        counts = bh[a_lo:a_hi] - bl[a_lo:a_hi]
        if seg_hi - seg_lo != int(counts.sum()):
            # Non-contiguous B runs inside the occurrence; take the
            # cursor-per-entry heap instead of gathering.
            return self._level_heap(arena, w, e)
        b_seg = _as_np(arena.values[sb])[seg_lo:seg_hi]
        n_out = len(b_seg)
        if n_out == 0:
            return False
        owners = np.repeat(
            np.arange(a_lo, a_hi, dtype=np.int64), counts
        )
        order = np.argsort(rank[b_seg], kind="stable")
        b_sorted = b_seg[order]
        keys = rank[b_sorted]
        boundary = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), boundary)
        )
        ends = np.concatenate(
            (boundary, np.asarray([n_out], dtype=np.int64))
        )
        dna, dnb = self.dna, self.dnb
        base_a = len(w.values[dna])
        a_ids = _as_np(arena.values[sa])[owners[order]]
        w.values[dna].frombytes(a_ids.tobytes())
        slot = self.j_a_slot
        w.child_lo[dnb][slot].frombytes((starts + base_a).tobytes())
        w.child_hi[dnb][slot].frombytes((ends + base_a).tobytes())
        w.values[dnb].frombytes(b_sorted[starts].tobytes())
        self._copy_passthrough(arena, w, e)
        return True

    def level(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:
        if self.leaf_fast:
            rank = w.scratch.get("swap_rank")
            if rank is None:
                rank = _pool_rank(arena.pool)
                w.scratch["swap_rank"] = rank
            if rank is not False:
                return self._level_vectorised(arena, w, e, rank)
        return self._level_heap(arena, w, e)

    def _level_heap(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:
        sa, sb = self.sa, self.sb
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        vals_b = arena.values[sb]
        bl = arena.child_lo[sa][self.j_b]
        bh = arena.child_hi[sa][self.j_b]
        a_cl, a_ch = arena.child_lo[sa], arena.child_hi[sa]
        b_cl, b_ch = arena.child_lo[sb], arena.child_hi[sb]
        pool = arena.pool
        dna, dnb = self.dna, self.dnb

        # Figure 4: one cursor per A-entry into its inner B-union,
        # merged by a min-heap keyed on the next (decoded) B value.
        n = a_hi - a_lo
        positions: List[int] = [0] * n
        heap: List[Tuple[object, int]] = []
        for i in range(n):
            b0 = bl[a_lo + i]
            positions[i] = b0
            heap.append((pool[vals_b[b0]], i))
        heapq.heapify(heap)

        while heap:
            b_min = heap[0][0]
            group_marks = w.mark_children(dnb)
            b_vid = -1
            first = True
            while heap and heap[0][0] == b_min:
                _, i = heapq.heappop(heap)
                a_e = a_lo + i
                bp = positions[i]
                if first:
                    first = False
                    b_vid = vals_b[bp]
                    for j, k, dk in self.tb_slots:
                        _copy_run(
                            arena, w, k, dk, b_cl[j][bp], b_ch[j][bp]
                        )
                marks_a = w.mark_children(dna)
                for j, k, dk in self.e_slots:
                    _copy_run(
                        arena, w, k, dk, a_cl[j][a_e], a_ch[j][a_e]
                    )
                for j, k, dk in self.tab_slots:
                    _copy_run(
                        arena, w, k, dk, b_cl[j][bp], b_ch[j][bp]
                    )
                w.commit_children(dna, vals_a[a_e], marks_a)
                positions[i] = bp + 1
                if bp + 1 < bh[a_e]:
                    heapq.heappush(
                        heap, (pool[vals_b[bp + 1]], i)
                    )
            w.commit_children(dnb, b_vid, group_marks)
        self._copy_passthrough(arena, w, e)
        return True


# -- merge --------------------------------------------------------------------


class MergeKernel(_LevelKernel):
    """``mu_{A,B}`` on columns: a decoded sort-merge of the two
    sibling value columns; matched entries adopt both child forests."""

    __slots__ = ("sa", "sb", "a_pos", "b_pos", "dm", "a_slots", "b_slots")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.merge import _merge_parts, merge_tree

        node_a, node_b, merged = _merge_parts(tree, a_attr, b_attr)
        super().__init__(
            tree, merge_tree(tree, a_attr, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.b_pos = self.level_nodes.index(self.sb)
        self.dm = dskel.index[merged.label]
        self.a_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
        ]
        self.b_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
        ]
        self._keep_members((self.sa, self.sb))

    def level(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:
        sa, sb = self.sa, self.sb
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        b_lo, b_hi = self._rng(arena, self.b_pos, sb, e)
        vals_a, vals_b = arena.values[sa], arena.values[sb]
        a_cl, a_ch = arena.child_lo[sa], arena.child_hi[sa]
        b_cl, b_ch = arena.child_lo[sb], arena.child_hi[sb]
        pool = arena.pool
        dm = self.dm
        i, j = a_lo, b_lo
        kept = False
        while i < a_hi and j < b_hi:
            av = pool[vals_a[i]]
            bv = pool[vals_b[j]]
            if av < bv:
                i += 1
            elif bv < av:
                j += 1
            else:
                marks = w.mark_children(dm)
                for js, k, dk in self.a_slots:
                    _copy_run(
                        arena, w, k, dk, a_cl[js][i], a_ch[js][i]
                    )
                for js, k, dk in self.b_slots:
                    _copy_run(
                        arena, w, k, dk, b_cl[js][j], b_ch[js][j]
                    )
                w.commit_children(dm, vals_a[i], marks)
                kept = True
                i += 1
                j += 1
        if not kept:
            return False
        self._copy_passthrough(arena, w, e)
        return True


# -- push-up ------------------------------------------------------------------


class PushKernel(_LevelKernel):
    """``psi_B`` on columns: hoist ``B``'s (independent, hence
    everywhere-equal) union from the first ``A`` entry, then re-emit
    the ``A`` union without the ``B`` slot."""

    __slots__ = ("sa", "sb", "a_pos", "j_b", "dna", "dnb", "e_slots")

    def __init__(self, tree: FTree, b_attr: str) -> None:
        from repro.ops.normalise import push_up_tree

        node_b = tree.node_of(b_attr)
        node_a = tree.parent_of(node_b)
        super().__init__(
            tree, push_up_tree(tree, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.j_b = sskel.children[self.sa].index(self.sb)
        self.dna = dskel.index[node_a.label]
        self.dnb = dskel.index[node_b.label]
        self.e_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
            if j != self.j_b
        ]
        self._keep_members((self.sa,))

    def level(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:
        sa = self.sa
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        a_cl, a_ch = arena.child_lo[sa], arena.child_hi[sa]
        # All copies of B's union are equal by independence; hoist the
        # first.
        _copy_run(
            arena,
            w,
            self.sb,
            self.dnb,
            a_cl[self.j_b][a_lo],
            a_ch[self.j_b][a_lo],
        )
        dna = self.dna
        for a_e in range(a_lo, a_hi):
            marks = w.mark_children(dna)
            for j, k, dk in self.e_slots:
                _copy_run(arena, w, k, dk, a_cl[j][a_e], a_ch[j][a_e])
            w.commit_children(dna, vals_a[a_e], marks)
        self._copy_passthrough(arena, w, e)
        return True


# -- absorb -------------------------------------------------------------------


class _AbsorbStructuralKernel(_LevelKernel):
    """The restriction phase of ``alpha_{A,B}``: below every ``A``
    entry, descend to ``B``'s occurrences, keep only the entry whose
    value equals the enclosing ``A`` value (binary search on the
    decoded column), splice ``B``'s children into its parent, and
    prune emptied unions on the way back up."""

    __slots__ = ("sa", "sb", "a_pos", "dm", "path")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.absorb import _absorb_parts, _structural_tree

        node_a, node_b = _absorb_parts(tree, a_attr, b_attr)
        structural, merged = _structural_tree(tree, node_a, node_b)
        super().__init__(tree, structural, node_a.label)
        sskel, dskel = self.sskel, self.dskel
        sa = sskel.index[node_a.label]
        sb = sskel.index[node_b.label]
        self.sa = sa
        self.sb = sb
        self.a_pos = self.level_nodes.index(sa)
        self.dm = dskel.index[merged.label]
        # Owners of the forests on the path from A down to B's parent;
        # per owner: (src idx, dst idx, continuation slot, passthrough
        # child copies, splice pairs -- the last only at B's parent).
        chain: List[int] = []
        x = sskel.parent[sb]
        while x != sa:
            chain.append(x)
            x = sskel.parent[x]
        chain.append(sa)
        chain.reverse()
        path = []
        for d, sx in enumerate(chain):
            dx = self.dm if sx == sa else dskel.index[sskel.labels[sx]]
            nxt = chain[d + 1] if d + 1 < len(chain) else sb
            j_cont = sskel.children[sx].index(nxt)
            passthrough = [
                (j, k, dskel.index[sskel.labels[k]])
                for j, k in enumerate(sskel.children[sx])
                if j != j_cont
            ]
            splice = None
            if nxt == sb:
                splice = [
                    (j, k, dskel.index[sskel.labels[k]])
                    for j, k in enumerate(sskel.children[sb])
                ]
            path.append((sx, dx, j_cont, passthrough, splice))
        self.path = path
        self._keep_members((sa,))

    def _below(
        self,
        arena: ArenaRep,
        w: _Writer,
        d: int,
        e: int,
        a_val: object,
    ) -> bool:
        sx, _, j_cont, passthrough, splice = self.path[d]
        lo = arena.child_lo[sx][j_cont][e]
        hi = arena.child_hi[sx][j_cont][e]
        if splice is not None:
            # The continuation member is B itself: restrict its union
            # to a_val -- bisect_left on the decoded column.
            sb = self.sb
            vals_b = arena.values[sb]
            pool = arena.pool
            p_lo, p_hi = lo, hi
            while p_lo < p_hi:
                mid = (p_lo + p_hi) // 2
                if pool[vals_b[mid]] < a_val:
                    p_lo = mid + 1
                else:
                    p_hi = mid
            if p_lo >= hi or pool[vals_b[p_lo]] != a_val:
                return False
            for j, k, dk in splice:
                _copy_run(
                    arena,
                    w,
                    k,
                    dk,
                    arena.child_lo[sb][j][p_lo],
                    arena.child_hi[sb][j][p_lo],
                )
            for j, k, dk in passthrough:
                _copy_run(
                    arena,
                    w,
                    k,
                    dk,
                    arena.child_lo[sx][j][e],
                    arena.child_hi[sx][j][e],
                )
            return True
        nxt_sx, nxt_dx = self.path[d + 1][0], self.path[d + 1][1]
        vals = arena.values[nxt_sx]
        kept = False
        for t in range(lo, hi):
            marks = w.mark(nxt_dx)
            if self._below(arena, w, d + 1, t, a_val):
                w.commit_id(nxt_dx, vals[t], marks)
                kept = True
            else:
                w.rollback(nxt_dx, marks)
        if not kept:
            return False
        for j, k, dk in passthrough:
            _copy_run(
                arena,
                w,
                k,
                dk,
                arena.child_lo[sx][j][e],
                arena.child_hi[sx][j][e],
            )
        return True

    def level(
        self, arena: ArenaRep, w: _Writer, e: Optional[int]
    ) -> bool:
        sa = self.sa
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        pool = arena.pool
        dm = self.dm
        kept = False
        for a_e in range(a_lo, a_hi):
            a_vid = vals_a[a_e]
            marks = w.mark(dm)
            if self._below(arena, w, 0, a_e, pool[a_vid]):
                w.commit_id(dm, a_vid, marks)
                kept = True
            else:
                w.rollback(dm, marks)
        if not kept:
            return False
        self._copy_passthrough(arena, w, e)
        return True


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
    structural = _AbsorbStructuralKernel(tree, a_attr, b_attr)
    tail = _normalise_chain(structural.out_tree)
    return KernelChain([structural] + tail.kernels, tail.out_tree)


# -- prepared-kernel cache ----------------------------------------------------

_PREPARERS: Dict[str, Callable[..., object]] = {
    "swap": SwapKernel,
    "merge": MergeKernel,
    "push": PushKernel,
    "absorb": _absorb_chain,
    "normalise": _normalise_chain,
}

_KERNEL_CACHE: Dict[tuple, object] = {}
_KERNEL_CACHE_MAX = 512


def kernel_for(tree: FTree, kind: str, args: Sequence[str] = ()):
    """The prepared arena kernel for ``kind`` (``swap``/``merge``/
    ``push``/``absorb``/``normalise``) on ``tree``, cached by the
    tree's canonical key so plan replays and repeated shard/delta
    executions skip preparation (and share destination skeletons,
    keeping the enumeration codegen cache warm)."""
    key = (tree.key(), kind, tuple(args))
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
            _KERNEL_CACHE.clear()
        kernel = _PREPARERS[kind](tree, *args)
        _KERNEL_CACHE[key] = kernel
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
#
# Column primitives, each realised with numpy or with the stdlib alone.
# A "vector" below is an int64 ndarray or a list of ints accordingly.


def _column(vector) -> array:
    """A vector as an arena column."""
    out = _i64()
    if _np is not None:
        out.frombytes(vector.astype(_np.int64, copy=False).tobytes())
    else:
        out.extend(vector)
    return out


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


def _group(ids, owners, n_owners: int, pool):
    """Merge one node's concatenated entries: ``(out_ids, slots,
    counts)`` -- the output column, the output index of every input
    entry, and the number of output entries per owner (the output
    index of the parent entry; ``owners=None`` for a root).

    Entries with one owner and ``==``-equal values form one output
    entry, emitted in (owner, value) order and carrying the id of the
    first of them in input order -- the left-most part's.
    """
    n = len(ids)
    if _np is not None:
        distinct, inverse = _np.unique(ids, return_inverse=True)
        rank, ranks = _value_ranks(distinct.tolist(), pool)
        keys = _np.asarray(rank, dtype=_np.int64)[inverse]
        if owners is not None:
            keys += owners * ranks
        order = _np.argsort(keys, kind="stable")
        ordered = keys[order]
        fresh = _np.empty(n, dtype=bool)
        fresh[0] = True
        _np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        winners = order[fresh]
        slots = _np.empty(n, dtype=_np.int64)
        slots[order] = _np.cumsum(fresh) - 1
        if owners is None:
            counts = _np.asarray([len(winners)], dtype=_np.int64)
        else:
            counts = _np.bincount(owners[winners], minlength=n_owners)
        return ids[winners], slots, counts
    distinct = list(set(ids))
    rank, ranks = _value_ranks(distinct, pool)
    rank = dict(zip(distinct, rank))
    if owners is None:
        owners = [0] * n
        keys = [rank[vid] for vid in ids]
    else:
        keys = [o * ranks + rank[vid] for o, vid in zip(owners, ids)]
    out_ids: List[int] = []
    slots = [0] * n
    counts = [0] * n_owners
    last = -1
    for e in sorted(range(n), key=keys.__getitem__):
        if keys[e] != last:
            last = keys[e]
            out_ids.append(ids[e])
            counts[owners[e]] += 1
        slots[e] = len(out_ids) - 1
    return out_ids, slots, counts


def _ranges(counts) -> Tuple[array, array]:
    """Tiling ``(child_lo, child_hi)`` for per-entry child counts."""
    if _np is not None:
        his = _np.cumsum(counts)
        return _column(his - counts), _column(his)
    bounds = list(accumulate(counts, initial=0))
    return _column(bounds[:-1]), _column(bounds[1:])


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
