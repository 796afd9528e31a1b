"""Columnar kernels for the restructuring f-plan operators.

Each operator of :mod:`repro.ops.swap`, ``merge``, ``normalise`` and
``absorb`` is implemented here, directly on the flat columns of
:class:`~repro.core.arena.ArenaRep`, **level-synchronously**: one pass
per f-tree node over whole columns, never a walk per entry.

- value ids are copied **verbatim** (every kernel's output shares its
  input's pool), so no interning happens on the hot path;
- columns an operator does not touch are not copied at all: the output
  arena shares them with its input (arenas are immutable);
- what an operator does rewrite is spelled with three primitives on
  the run's working columns (:class:`_Columns`).  The **forest
  gather** (:meth:`_Columns.share`) hands the child forests of
  entries ``idx`` of one node -- any order, repeats allowed -- to the
  output entries by writing ``idx`` into the slots' refs (through the
  refs already there): one index vector per slot, and every column
  below stays shared.  The **one-level gather** (:meth:`_Columns.
  plain`) makes one shared slot plain where a kernel must know every
  child entry's owner: the child column is read by the expanded
  ranges, and the child's own slots take the expanded indices as refs.
  The **mask cascade** (:func:`_cascade`) takes keep masks on some
  columns, carries them up the ancestor chain (an entry survives iff
  its continuation union keeps an entry: a keep count summed over its
  child range), one level down where a plain slot joins two masked
  nodes, and compacts each masked node once; the slots below a
  compacted node keep their columns and lose only the refs of the
  dropped entries -- the eager pruning of emptied unions that is the
  contract of :func:`repro.reference.ops.rewrite_at_level`, with the
  pruned forests left unreferenced rather than copied around;
- each operator then is index arithmetic on its own level's columns
  over composite (occurrence, value-rank) keys: swap is one stable
  sort of the (a, b) pairs plus three forest gathers, merge a sorted
  intersection plus one cascade, absorb an owner vector from ``A``
  down to ``B``, an equality mask and one cascade, push-up one forest
  gather of the first copies.  An occurrence is a union as it is
  held: a range of the slot the level hangs in, which refs may share
  among many entries -- each is rewritten once.  Only the distinct ids
  of the compared columns are ever decoded and ranked
  (:func:`~repro.core.columns._rank_columns`), never the pool.

The whole-column operations they are built from (take, expand, rank,
sort-and-group, sorted intersection, segment sums, compress) are the
primitives of :mod:`repro.core.columns`; this module holds only the
working columns with their gathers, the cascade, the operator kernels
and the unions.

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
(output parent, value rank), child offsets as prefix sums -- and
:func:`union_arena` is the pairwise two-pointer merge kept for delta
maintenance, where one side is tiny and bulk runs (:func:`_copy_run`)
beat whole-column passes.  Both read their inputs' plain forms, and
both take value ids across pools through :func:`_pool_remaps` when the
inputs do not share one;
:func:`product_arena` covers the remaining binary operator.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import LRUCache
from repro.core.arena import (
    ArenaError,
    ArenaRep,
    ArenaWriter,
    ValuePool,
    _gather_slot,
    _skeleton_of,
    _Skeleton,
    _views,
)
from repro.core.columns import (
    _append,
    _both,
    _compress,
    _count_slots,
    _gather,
    _keys,
    _live_ranges,
    _match,
    _owners,
    _rank_columns,
    _ranges,
    _scatter,
    _segment_sums,
    _sort_groups,
    _spread,
    _survivors,
    _take,
    _vector,
)
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.obs.metrics import Tally

#: The ``kernels`` metrics namespace (see :func:`counters`), registered
#: by every :class:`~repro.service.session.QuerySession`: process-wide
#: tallies of operator-kernel runs, folded in once per run.
#: ``entries_in`` / ``entries_out`` are the entries the input and the
#: output arena hold (:attr:`~repro.core.arena.ArenaRep.entry_count`:
#: a shared column counts once, however many refs reach it),
#: ``entries_pruned`` the held entries mask cascades compacted away,
#: ``gathers`` the forest gathers issued.  They count the work, not the
#: plain form: ``repro explain --profile`` reports the plain size
#: (``|E|``) per step.  All repeat exactly for a fixed sequence of
#: calls.
COUNTERS = Tally(
    (
        "runs",
        "entries_in",
        "entries_out",
        "entries_pruned",
        "gathers",
    )
)


def counters() -> Dict[str, int]:
    """The ``kernels`` collector: :data:`COUNTERS` plus the prepared
    kernels pushed out of the cache and the number currently cached."""
    return dict(
        COUNTERS.snapshot(),
        cache_evictions=_KERNEL_CACHE.evictions,
        cache_size=len(_KERNEL_CACHE),
    )


# -- the working columns and the cascade -------------------------------------


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
    Kernels read their operands here, not in the input, so that what a
    gather made plain is what they see.  ``pruned`` and ``gathers`` are
    the run's tallies.
    """

    __slots__ = ("skel", "values", "offsets", "refs", "pruned", "gathers")

    def __init__(self, arena: ArenaRep) -> None:
        self.skel = arena.skel
        self.values = list(arena.values)
        self.offsets = [list(slots) for slots in arena.offsets]
        self.refs = [list(slots) for slots in arena.refs]
        self.pruned = 0
        self.gathers = 0

    def share(self, node: int, idx, slots: Sequence[int]) -> None:
        """The forest gather: output entry ``e`` of ``node`` takes the
        child forests in ``slots`` of entry ``idx[e]`` (any order,
        repeats allowed, possibly none).  Writes only the slots' refs,
        ``(refs or identity)[idx]``; ``node``'s own value column is its
        caller's business."""
        self.gathers += 1
        refs = self.refs[node]
        for j in slots:
            refs[j] = idx if refs[j] is None else _take(refs[j], idx)

    def plain(self, node: int, j: int) -> None:
        """Make slot ``j`` of ``node`` plain, one level deep
        (:func:`~repro.core.arena._gather_slot`)."""
        _gather_slot(
            self.skel, self.values, self.offsets, self.refs, node, j
        )

    def occurrences(self, node: int):
        """The occurrence of every entry of ``node``: the index of the
        range holding it in the slot it hangs in; ``None`` at the root
        level, where there is one."""
        p, pos = _hangs_in(self.skel, node)
        if p == -1:
            return None
        return _owners(self.offsets[p][pos])

    def arena(self, pool) -> ArenaRep:
        """The working columns as an arena over the source skeleton."""
        return ArenaRep(self.skel, self.values, self.offsets, pool, self.refs)


def _cascade(out: _Columns, masks: Dict[int, object]) -> bool:
    """The mask cascade: drop the entries ``masks`` (node -> keep mask
    over its column) rejects, everything they own and every ancestor
    entry they leave with an empty union.  ``False`` when the whole
    relation empties; otherwise every masked node's column is
    compacted in ``out``, once, and what hangs below it is shared:
    its slots keep their offsets and take the survivors' refs.  With
    one mask on the selected node this is the whole of a constant
    selection (:func:`repro.ops.select.select_constant`).

    A mask is over the entries a column holds; a shared slot reads
    range sums through its refs on the way up, and a compacted child
    of one drops the ranges it emptied (no surviving entry refers to
    them).  Masks that depend on an entry's owner (a merge's, an
    absorb's) must come from plain slots, which their kernels make.
    """
    skel = out.skel
    keep = {n: mask for n, mask in masks.items() if not mask.all()}
    #: Kept child entries per range, by child node.  Still right after
    #: the one-level drop below: that only drops entries of dropped
    #: parents.
    counted = {}
    # Up, children before parents: an entry survives iff each masked
    # child union of it keeps an entry.  A level that loses nothing
    # ends the climb (and leaves its siblings' subtrees shared).
    for node in range(max(keep, default=0), 0, -1):
        if node not in keep or skel.parent[node] == -1:
            continue
        p, j = _hangs_in(skel, node)
        counts = counted[node] = _segment_sums(
            keep[node], out.offsets[p][j]
        )
        ref = out.refs[p][j]
        alive = (counts if ref is None else _take(counts, ref)) > 0
        if not alive.all():
            keep[p] = _both(keep.get(p), alive)
    for r in skel.roots:
        if r in keep and not keep[r].any():
            return False
    # Compact, parents before children.  A plain slot between two
    # masked nodes first drops the child entries of dropped parents.
    for node in sorted(keep):
        p, j = _hangs_in(skel, node)
        if p in keep and out.refs[p][j] is None:
            keep[node] = _both(
                keep[node], _owners(out.offsets[p][j], keep[p])
            )
        mask = keep[node]
        column = _compress(out.values[node], mask)
        out.pruned += len(mask) - len(column)
        out.values[node] = column
        refs = out.refs[node]
        for slot, k in enumerate(skel.children[node]):
            if refs[slot] is not None:
                refs[slot] = _compress(refs[slot], mask)
            elif k not in keep:  # a masked child re-tiles this slot
                refs[slot] = _survivors(mask)
        if p == -1:
            continue
        counts = counted.get(node)
        if counts is None:
            counts = _segment_sums(mask, out.offsets[p][j])
        if out.refs[p][j] is not None:
            out.offsets[p][j], out.refs[p][j] = _live_ranges(
                counts, out.refs[p][j]
            )
        else:
            if p in keep:
                counts = _compress(counts, keep[p])
            out.offsets[p][j] = _ranges(counts)
    return True


# -- the operator kernels -----------------------------------------------------


class _Kernel:
    """Base of the prepared single-operator kernels.

    A restructuring operator rewrites the level at which its operands
    sit -- in every occurrence at once -- and leaves every other column
    alone.  Preparation resolves where each destination column comes
    from: destination node ``d`` takes the value column of source node
    ``value_src[d]`` and, per child, the offsets column of source slot
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
        the source slot whose offsets its destination node takes over,
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
                [
                    [out.offsets[s][j] for s, j in row]
                    for row in self.slot_src
                ],
                arena.pool,
                [[out.refs[s][j] for s, j in row] for row in self.slot_src],
            )
        COUNTERS.add(
            runs=1,
            entries_in=arena.entry_count,
            entries_out=0 if result is None else result.entry_count,
            entries_pruned=out.pruned,
            gathers=out.gathers,
        )
        return result


class SwapKernel(_Kernel):
    """``chi_{A,B}`` on columns (Figure 4, all occurrences at once).

    Every ``B`` entry is one (a, b) pair.  One stable sort of the pairs
    by (occurrence, rank of b) gives the output order: runs of equal
    keys are the new ``B`` entries, headed by their first pair (the
    smallest ``a``, as the heap merge pops it), the pairs themselves
    the new ``A`` entries.  The payloads follow by forest gather
    -- shared, not copied: ``E_a`` by the pairs' ``A`` index, ``T_ab``
    by their ``B`` index, ``T_b`` by the heads' ``B`` index.  Only the
    slot from ``A`` to ``B`` is made plain first (the pairs are its
    entries); an occurrence of ``A`` is a union as held, so a shared
    one is swapped once for every entry that refers to it.  A swap
    never prunes.
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
        out.plain(sa, j_b)
        owner = _owners(out.offsets[sa][j_b])
        (rank_b,), stride = _rank_columns(arena.pool, [out.values[sb]])
        occurrence = out.occurrences(sa)  # of every A entry ...
        if occurrence is not None:
            occurrence = _take(occurrence, owner)  # ... of every pair
        order, starts, counts = _sort_groups(
            _keys(occurrence, rank_b, stride)
        )
        heads = _take(order, starts)
        pairs_a = _take(owner, order)
        out.values[sa] = _take(out.values[sa], pairs_a)
        out.values[sb] = _take(out.values[sb], heads)
        out.offsets[sa][j_b] = _ranges(counts)
        if occurrence is not None:
            p, pos = _hangs_in(self.sskel, sa)
            out.offsets[p][pos] = _ranges(
                _count_slots(
                    _take(occurrence, heads), len(out.offsets[p][pos]) - 1
                )
            )
        out.share(sa, pairs_a, self.e_slots)
        out.share(sb, order, self.tab_slots)
        out.share(sb, heads, self.tb_slots)
        return True


class MergeKernel(_Kernel):
    """``mu_{A,B}`` on columns: the sorted intersection of the two
    sibling columns' (occurrence, value-rank) keys gives two keep
    masks, one cascade prunes what they reject (and the occurrences
    they empty), and the survivors -- equally many on both sides of
    every occurrence, in the same order -- become the merged node:
    ``A``'s value ids, both child-slot sets.  The occurrences pair an
    ``A`` union with a ``B`` union per parent entry, so the two slots
    they hang in are made plain first."""

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
        for node in (sa, sb):
            p, pos = _hangs_in(self.sskel, node)
            if p != -1:
                out.plain(p, pos)
        (rank_a, rank_b), stride = _rank_columns(
            arena.pool, [out.values[sa], out.values[sb]]
        )
        keep_a, keep_b = _match(
            _keys(out.occurrences(sa), rank_a, stride),
            _keys(out.occurrences(sb), rank_b, stride),
        )
        return _cascade(out, {sa: keep_a, sb: keep_b})


class PushKernel(_Kernel):
    """``psi_B`` on columns: ``B``'s union does not depend on ``A``, so
    all its copies within one occurrence are equal; gather the one
    below each occurrence's first ``A`` entry as the hoisted ``B`` (a
    forest gather per entry of ``A``'s parent, through the refs of the
    slot ``A`` hangs in), and let ``A`` keep its other columns
    verbatim.  A hoisted root is one union, so it is made plain."""

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
        if p == -1:
            out.share(self.sa, _vector((0,)), (self.j_b,))
            out.plain(self.sa, self.j_b)
            return True
        # The first entry of every occurrence (its range start), per
        # entry of the parent.
        firsts = out.offsets[p][pos][:-1]
        if out.refs[p][pos] is not None:
            firsts = _take(firsts, out.refs[p][pos])
        out.share(self.sa, firsts, (self.j_b,))
        return True


class RestrictKernel(_Kernel):
    """The restriction phase of ``alpha_{A,B}``: an owner vector
    carried from ``A`` down to ``B`` says which ``A`` entry encloses
    every ``B`` entry; the ``B`` entries whose value equals it are
    kept, one cascade prunes the rest (up to the root where unions
    empty), and the survivors -- one per surviving entry of ``B``'s
    parent -- hand their child slots to that parent.  The owner vector
    needs the slots on the path plain; ``A``'s own may stay shared."""

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
            out.plain(node, j)
            owner = _owners(out.offsets[node][j], owner)
        (rank_a, rank_b), _ = _rank_columns(
            arena.pool, [out.values[self.sa], out.values[self.sb]]
        )
        keep = _take(rank_a, owner) == rank_b
        return _cascade(out, {self.sb: keep})


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


def _constant_chain(tree: FTree, attribute: str) -> KernelChain:
    """The tree half of an equality selection on ``attribute``: the
    push-ups normalising ``tree`` once that node is constant (the
    value filter is :func:`repro.ops.select._filter`)."""
    from repro.ops.select import _constant_tree

    return _normalise_chain(_constant_tree(tree, tree.node_of(attribute)))


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
    "constant": _constant_chain,
}

#: Prepared kernels, least recently used out.
_KERNEL_CACHE_MAX = 512
_KERNEL_CACHE = LRUCache(_KERNEL_CACHE_MAX)


def kernel_for(tree: FTree, kind: str, args: Sequence[str] = ()):
    """The prepared arena kernel for ``kind`` (``swap``/``merge``/
    ``push``/``absorb``/``normalise``/``constant``) on ``tree``, cached
    by the tree's canonical key so plan replays and repeated shard/delta
    executions skip preparation (and share destination skeletons).
    A full cache evicts its least recently used kernel, so a stream
    of never-repeating plans cannot flush the hot ones."""
    key = (tree.key(), kind, tuple(args))
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _PREPARERS[kind](tree, *args)
        _KERNEL_CACHE.put(key, kernel)
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
        vmaps.append(_vector(map(intern_value, pool)))
    return out_pool, vmaps


def _copy_run(
    src: ArenaRep,
    w: ArenaWriter,
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
    offsets copy with one constant shift per (slot, run).
    """
    if hi <= lo:
        return
    ids = src.values[si][lo:hi]
    _append(w.values[di], ids if vmap is None else _take(vmap, ids))
    for off, dest, sk, dk in zip(
        src.offsets[si],
        w.offsets[di],
        src.skel.children[si],
        w.skel.children[di],
    ):
        c_lo, c_hi = off[lo], off[hi]
        _append(dest, off[lo + 1 : hi + 1] + (len(w.values[dk]) - c_lo))
        _copy_run(src, w, sk, dk, c_lo, c_hi, vmap)


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
    left, right = left.dense(), right.dense()
    skel = left.skel
    out_pool, (_, vmap) = _pool_remaps((left.pool, right.pool))
    w = ArenaWriter(skel, out_pool)
    lpool = left.pool
    rpool = right.pool
    lvalues, loffsets = _views(left)
    rvalues, roffsets = _views(right)

    def merge(si: int, llo: int, lhi: int, rlo: int, rhi: int) -> None:
        lvals = lvalues[si]
        rvals = rvalues[si]
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
                for k, loff, roff in zip(
                    skel.children[si], loffsets[si], roffsets[si]
                ):
                    merge(k, loff[i], loff[i + 1], roff[j], roff[j + 1])
                w.commit(si, lvals[i])
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
    return w.finish()


# -- the k-way shard union: one pass per f-tree node ---------------------------


def _group(ids, owners, n_owners: int, pool):
    """Merge one node's concatenated entries: ``(out_ids, slots,
    counts)`` -- the output column, the output index of every input
    entry, and the number of output entries per owner (the output
    index of the parent entry; ``owners=None`` for a root, which has
    no offsets to count for).

    Entries with one owner and ``==``-equal values form one output
    entry, emitted in (owner, value) order and carrying the id of the
    first of them in input order -- the left-most part's.
    """
    (rank,), ranks = _rank_columns(pool, [ids])
    order, starts, sizes = _sort_groups(_keys(owners, rank, ranks))
    winners = _take(order, starts)
    # In sorted order every entry's output slot is its group's index.
    slots = _scatter(order, _owners(_ranges(sizes)))
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
    go; the parent's child offsets are prefix sums of the per-parent
    group counts, and each child column inherits its owner vector
    through :func:`_spread`.  O(#nodes) column operations, every
    output column written once --
    against k-1 rewrites of the growing result by a fold of
    :func:`union_arena`, whose output this reproduces byte for byte.
    Exactness needs branch-compatible inputs, as there.
    """
    parts = [part.dense() for part in parts]
    skel = parts[0].skel
    out_pool, vmaps = _pool_remaps([part.pool for part in parts])
    n = len(skel)
    values: List[object] = [None] * n
    offsets: List[List[object]] = [[] for _ in range(n)]
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
        values[i] = out_ids
        p = skel.parent[i]
        if p != -1:
            # Children are visited in slot order, so appending lines
            # the offsets up with ``skel.children[p]``.
            offsets[p].append(_ranges(counts))
        for j, k in enumerate(skel.children[i]):
            spread = _spread(slots, [part.offsets[i][j] for part in parts])
            pending[k] = (spread, len(out_ids))
    return ArenaRep(skel, values, offsets, out_pool)


def product_arena(
    out_tree: FTree, left: ArenaRep, right: ArenaRep
) -> ArenaRep:
    """Cartesian product: the output forest adopts both input column
    sets verbatim (zero copies when the pools are already shared;
    otherwise the right value columns are re-based onto the
    concatenated pool with one vectorised shift), shared slots
    included."""
    dskel = _skeleton_of(out_tree)
    n = len(dskel)
    values: List[object] = [None] * n
    offsets: List[List[object]] = [None] * n  # type: ignore[list-item]
    refs: List[List[object]] = [None] * n  # type: ignore[list-item]
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
            values[di] = src.values[i] + delta if delta else src.values[i]
            offsets[di] = list(src.offsets[i])
            refs[di] = list(src.refs[i])

    adopt(left, 0)
    adopt(right, shift)
    return ArenaRep(dskel, values, offsets, pool, refs)
