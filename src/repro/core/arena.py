"""The arena: the engine's one physical form of f-representations.

Definition 2 of the paper fixes the shape of an f-representation over
an f-tree ``T``: over a forest it is a product with one factor per
tree; over a tree rooted at a node it is a union over distinct values,
sorted strictly increasing (the order constraint the swap and merge
algorithms rely on), each value paired with an f-representation over
the children forest.  Spelled as one Python object per union entry
(the :mod:`repro.reference` oracle does exactly that), every hot-path
walk -- building, counting, enumerating, aggregating -- is dominated
by allocator churn and attribute chasing.  The literature on
memory-resident layouts (Szépkúti's compact multidimensional arrays,
EMBANKS' disk-based indexes) shows the alternative: a *flat,
offset-addressed* layout of the same hierarchy.

:class:`ArenaRep` stores an f-representation as parallel integer
columns, one set per f-tree node (nodes numbered in canonical
pre-order):

- ``values[i]`` -- one interned value id per union entry of node ``i``,
  across *all* occurrences of that node's unions, in DFS order (so each
  single union occupies a contiguous run, sorted by value);
- ``offsets[i][j]`` -- one CSR-style offsets column per child slot
  ``j``: ``len(values[i]) + 1`` entries starting at 0, entry ``e``'s
  child union being the half-open range ``[off[e], off[e+1])`` of
  child ``j``'s columns (DFS construction makes every child union
  contiguous, and child unions tile their column in parent-entry
  order);
- ``refs[i][j]`` -- ``None`` for a *plain* slot, as above; otherwise
  the slot is *shared*: ``refs[i][j]`` holds one range index per entry
  of node ``i``, and entry ``e``'s child union is the range
  ``[off[r], off[r+1])`` with ``r = refs[i][j][e]``.  The ranges of
  ``off`` still tile the child column, but an entry may share its
  range with other entries, and a range may belong to no entry at all;
- ``pool`` -- the interned distinct values; ids are indices into it.

One union entry therefore costs ``1 + #children`` machine-word array
slots (plus one leading 0 per child slot).  Offsets are structural:
the layout itself says that child ranges tile their column, so no
range can overlap another or leave a gap, and the one invariant left
to check is that offsets strictly increase (no union is empty).

Shared slots are how the restructuring kernels move forests without
copying them: a swap hands each of its output entries the forest of
an input entry by writing that entry's index into ``refs``, and every
column below stays the input's own (the d-representations of
Olteanu and Závodný store such repeats once, too).  The *plain form*
of an arena (:meth:`ArenaRep.dense`) gathers every shared slot, one
level at a time from the roots down; it is what the eager forest
copies used to build, and what the codec, the unions, the aggregates
and every other reader that walks whole columns take.  Counting,
enumeration, projection, the constant filter and the kernels read
shared slots as they are.  Sizes stay logical: :meth:`ArenaRep.
singleton_count` is the plain form's, while :attr:`ArenaRep.
entry_count` and :meth:`ArenaRep.nbytes` count what the arena holds.
Every column is a read-only int64 ndarray, so it also serialises as
raw bytes (see the arena layout in :mod:`repro.persist.codec`).
Whole-column work -- counting, validation, the selection mask -- goes
through the numpy primitives of :mod:`repro.core.columns`, per-entry
walks through memoryviews (:func:`_views`); counts switch to exact
Python integers wherever int64 could overflow.

Conventions: the *empty* relation is encoded as ``None`` (never as an
empty arena) and inside a non-empty arena no union is ever empty (the
operators prune eagerly); the nullary tuple (a forest with no trees) is
an arena with zero nodes, which counts one tuple and enumerates a
single empty row.

The arena is immutable: :class:`ArenaRep` marks every column
read-only as it takes it, so operators cannot write into a column in
place, and derived arenas (kernel outputs, selection filters,
subtree-dropping projections) may *share* columns and the value pool
with their source.  A shared result therefore pins its source's
columns, the entries no range of it reaches included.  The pool may
contain values that no surviving entry references (rolled-back build
entries, filtered selections); decoding simply never visits them.
"""

from __future__ import annotations

import threading
from array import array
from itertools import accumulate
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache import LRUCache
from repro.core.columns import (
    _column_bounds,
    _expand,
    _forest_counts,
    _frozen,
    _ranges,
    _reach,
    _take,
    _widths,
)
from repro.core.ftree import FTree

#: Pre-multiplication bound under which int64 arithmetic cannot
#: overflow; counts that may exceed it are computed with exact Python
#: integers instead of numpy.
_INT64_SAFE = 1 << 62


class FRepError(ValueError):
    """Raised when an f-representation violates its invariants."""


class ArenaError(FRepError):
    """Raised when an arena violates its structural invariants."""


class ValuePool:
    """A shareable, append-only interned-value pool.

    Ordinary arenas own a plain ``list`` pool; a :class:`ValuePool` is
    the *shared* variant: many arenas (every shard result of one
    database, every column batch on one wire connection) reference the
    same pool object, so their value ids are directly comparable and
    :func:`repro.ops.arena_kernels.union_arena` can merge columns
    without any id remapping.  Interning is thread-safe (shard workers
    and the server's task pool intern concurrently); reads are
    lock-free, misses take a lock.  Ids are never remapped or removed
    -- :meth:`ArenaWriter.finish` builds a pool only for private
    arenas -- so ids handed out remain valid forever.
    """

    __slots__ = ("_values", "_intern", "_lock")

    def __init__(self, values: Sequence[object] = ()) -> None:
        self._values: List[object] = list(values)
        self._intern: Dict[type, Dict[object, int]] = {}
        self._lock = threading.Lock()
        for vid, value in enumerate(self._values):
            table = self._intern.setdefault(value.__class__, {})
            table.setdefault(value, vid)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, vid):
        return self._values[vid]

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def intern(self, value: object) -> int:
        table = self._intern.get(value.__class__)
        if table is not None:
            vid = table.get(value)
            if vid is not None:
                return vid
        with self._lock:
            # Re-check under the lock: another thread may have interned
            # the value (or created the type table) since the fast path.
            table = self._intern.get(value.__class__)
            if table is None:
                table = self._intern[value.__class__] = {}
            vid = table.get(value)
            if vid is None:
                vid = len(self._values)
                self._values.append(value)
                table[value] = vid
            return vid

    def values_since(self, base: int) -> List[object]:
        """The values appended at ids ``base..`` (for wire deltas)."""
        return self._values[base:]

    def __reduce__(self):
        # Pickling (process-pool task results) drops the lock and the
        # sharing identity: the receiving process gets its own pool.
        return (ValuePool, (list(self._values),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValuePool(len={len(self._values)})"


# -- skeleton: the per-tree node layout --------------------------------------


class _Skeleton:
    """The canonical pre-order layout of one f-tree's nodes.

    Node ``i``'s descendants are exactly the contiguous index range
    ``(i, end[i])`` -- the property the factoriser's ancestor tests and
    subtree-dropping projections rely on.
    """

    __slots__ = (
        "labels",
        "attr_tuples",
        "children",
        "parent",
        "roots",
        "end",
        "index",
    )

    def __init__(self, tree: FTree) -> None:
        labels: List[FrozenSet[str]] = []
        attr_tuples: List[Tuple[str, ...]] = []
        children: List[Tuple[int, ...]] = []
        parent: List[int] = []
        end: List[int] = []

        def walk(node, parent_idx: int) -> int:
            idx = len(labels)
            labels.append(node.label)
            attr_tuples.append(tuple(sorted(node.label)))
            children.append(())
            parent.append(parent_idx)
            end.append(idx + 1)
            children[idx] = tuple(walk(c, idx) for c in node.children)
            end[idx] = len(labels)
            return idx

        self.roots: Tuple[int, ...] = tuple(
            walk(root, -1) for root in tree.roots
        )
        self.labels = labels
        self.attr_tuples = attr_tuples
        self.children = children
        self.parent = parent
        self.end = end
        self.index: Dict[FrozenSet[str], int] = {
            label: i for i, label in enumerate(labels)
        }

    def __len__(self) -> int:
        return len(self.labels)

    def node_of_attr(self, attribute: str) -> int:
        for i, label in enumerate(self.labels):
            if attribute in label:
                return i
        raise ArenaError(f"attribute {attribute!r} not in this arena")


def _skeleton_of(tree: FTree) -> _Skeleton:
    """``tree``'s skeleton, built once and kept on the (immutable)
    tree, like its ``key()`` and attribute index."""
    skel = tree._skel
    if skel is None:
        skel = tree._skel = _Skeleton(tree)
    return skel


# -- the arena ---------------------------------------------------------------


class ArenaRep:
    """A flat, columnar f-representation (see the module docstring);
    every column it is given is published read-only, uncopied.
    ``refs`` defaults to every slot plain; :attr:`shared` holds the
    nodes that hang in a shared slot (empty: a plain arena)."""

    __slots__ = ("skel", "values", "offsets", "refs", "shared", "pool")

    def __init__(
        self,
        skel: _Skeleton,
        values: Sequence[object],
        offsets: Sequence[Sequence[object]],
        pool: Sequence[object],
        refs: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        self.skel = skel
        self.values = [_frozen(column) for column in values]
        self.offsets = [[_frozen(off) for off in slots] for slots in offsets]
        if refs is None:
            self.refs = [[None] * len(slots) for slots in offsets]
            self.shared: FrozenSet[int] = frozenset()
        else:
            self.refs = [
                [None if ref is None else _frozen(ref) for ref in slots]
                for slots in refs
            ]
            self.shared = frozenset(
                k
                for kids, slots in zip(skel.children, self.refs)
                for k, ref in zip(kids, slots)
                if ref is not None
            )
        self.pool = pool

    def __reduce__(self):
        # Unpickling (process-pool task results) goes through
        # ``__init__``, so the columns arrive read-only again -- in the
        # plain form, which holds no unreferenced entries.
        plain = self.dense()
        return (
            ArenaRep,
            (plain.skel, plain.values, plain.offsets, plain.pool),
        )

    def dense(self) -> "ArenaRep":
        """The plain form: every shared slot gathered (the arena
        itself when it has none).  Top-down, one level per slot
        (:func:`_gather_slot`), so each column is gathered once."""
        if not self.shared:
            return self
        values = list(self.values)
        offsets = [list(slots) for slots in self.offsets]
        refs = [list(slots) for slots in self.refs]
        for i in range(len(self.skel)):  # pre-order: parents first
            for j in range(len(refs[i])):
                _gather_slot(self.skel, values, offsets, refs, i, j)
        return ArenaRep(self.skel, values, offsets, self.pool)

    # -- introspection -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.skel)

    @property
    def entry_count(self) -> int:
        """Union entries held across all columns (shared ones once)."""
        return sum(len(column) for column in self.values)

    def singleton_count(self) -> int:
        """The paper's ``|E|``: the plain form's entries weighted by
        label width, exact (see :func:`_plain_lengths`)."""
        return sum(
            length * len(label)
            for length, label in zip(_plain_lengths(self), self.skel.labels)
        )

    def nbytes(self) -> int:
        """Approximate bytes held by the integer columns, refs
        included."""
        total = 0
        for i, column in enumerate(self.values):
            total += column.nbytes
            for off, ref in zip(self.offsets[i], self.refs[i]):
                total += off.nbytes + (0 if ref is None else ref.nbytes)
        return total

    def attributes(self) -> Tuple[str, ...]:
        out: List[str] = []
        for attrs in self.skel.attr_tuples:
            out.extend(attrs)
        return tuple(sorted(out))

    def __repr__(self) -> str:
        return (
            f"ArenaRep(nodes={self.node_count}, "
            f"entries={self.entry_count}, pool={len(self.pool)})"
        )

    def copy(self) -> "ArenaRep":
        """A plain copy that shares nothing with this arena."""
        plain = self.dense()
        return ArenaRep(
            self.skel,
            [column.copy() for column in plain.values],
            [[off.copy() for off in slots] for slots in plain.offsets],
            list(self.pool),
        )


def _gather_slot(
    skel: _Skeleton,
    values: List[object],
    offsets: List[List[object]],
    refs: List[List[object]],
    node: int,
    j: int,
) -> None:
    """Make child slot ``j`` of ``node`` plain, one level deep, in the
    working lists given: the child column is gathered range by range
    through the slot's refs, its offsets become the prefix sums of the
    gathered widths, and every slot of the child takes the gathered
    indices as (or into) its refs -- nothing further down is copied.
    A plain slot is left as it is."""
    ref = refs[node][j]
    if ref is None:
        return
    widths, inner = _expand(offsets[node][j], ref)
    offsets[node][j] = _ranges(widths)
    refs[node][j] = None
    k = skel.children[node][j]
    values[k] = _take(values[k], inner)
    refs[k] = [inner if r is None else _take(r, inner) for r in refs[k]]


def _plain_lengths(arena: ArenaRep) -> List[int]:
    """Per node, its entry count in the plain form: top-down, every
    entry weighted by the plain entries it stands for (:func:`_reach`;
    no weights below plain slots under a plain parent).  The weights
    are int64 while the child's total provably fits, exact Python
    integers from there down."""
    skel = arena.skel
    weights: List[object] = [None] * len(skel)
    lengths: List[int] = []
    for i, column in enumerate(arena.values):  # pre-order
        weight = weights[i]
        lengths.append(len(column) if weight is None else int(weight.sum()))
        for off, ref, k in zip(
            arena.offsets[i], arena.refs[i], skel.children[i]
        ):
            if weight is not None or ref is not None:
                exact = lengths[i] * len(arena.values[k]) > _INT64_SAFE
                weights[k] = _reach(weight, off, ref, exact)
    return lengths


def _views(arena: ArenaRep) -> Tuple[list, List[list]]:
    """``(values, offsets)``: every column of ``arena`` as its ``.data``
    memoryview, bound in O(1) each.  Per-entry walks index these: an
    item of one is a Python int, where an ndarray read makes a numpy
    scalar at twice the cost."""
    return (
        [column.data for column in arena.values],
        [[off.data for off in slots] for slots in arena.offsets],
    )


# -- incremental construction ------------------------------------------------


class ArenaWriter:
    """Append-only arena construction with subtree rollback.

    The builders -- the factoriser (:class:`repro.core.build.
    Factoriser`) and the delta merge (:func:`repro.ops.arena_kernels.
    union_arena`) -- construct arenas entry by entry: children are
    written first, then the entry itself (:meth:`commit`: its value,
    and per child slot one offset, the child column's length).  An
    entry whose children forest turns out empty is *rolled back* by
    :meth:`truncate`, which needs only the watermark of a direct child
    and finds the deeper ones in the offsets.

    The writer is the one place columns grow: as ``array('q')``
    buffers, which :meth:`finish` hands over uncopied.  With a private
    pool (``pool=None``) value columns under construction are plain
    lists holding the raw value objects, and values become ids only in
    :meth:`finish`, once per column.  Given a pool -- a shared
    :class:`ValuePool`, or the output pool of a merge -- they are
    buffers from the start and the caller writes ids (a shared pool
    then grows in write order, rolled-back entries included).
    """

    __slots__ = ("skel", "values", "offsets", "pool")

    def __init__(self, tree_or_skel, pool=None) -> None:
        skel = (
            tree_or_skel
            if isinstance(tree_or_skel, _Skeleton)
            else _skeleton_of(tree_or_skel)
        )
        self.skel = skel
        n = len(skel)
        self.values: List = [
            [] if pool is None else array("q") for _ in range(n)
        ]
        self.offsets: List[List[array]] = [
            [array("q", (0,)) for _ in skel.children[i]] for i in range(n)
        ]
        self.pool = pool

    def commit(self, idx: int, value) -> None:
        """Append an entry to node ``idx`` whose children forest was
        just written: its child ranges end at the child columns' ends."""
        values = self.values
        for off, k in zip(self.offsets[idx], self.skel.children[idx]):
            off.append(len(values[k]))
        values[idx].append(value)

    def truncate(self, idx: int, watermark: int) -> int:
        """Discard node ``idx``'s entries from ``watermark`` on, with
        everything they own below; returns the entries discarded.

        Needs no watermark per descendant: the first discarded entry's
        offset ``off[watermark]`` *is* each child column's watermark.
        """
        column = self.values[idx]
        discarded = len(column) - watermark
        if not discarded:
            return 0
        for off, k in zip(self.offsets[idx], self.skel.children[idx]):
            discarded += self.truncate(k, off[watermark])
            del off[watermark + 1 :]
        del column[watermark:]
        return discarded

    def finish(self) -> ArenaRep:
        """Freeze the arena.

        A private pool is built here: one pass per column, in node
        order, gives every (type, value) its id at its first use, so
        the pool holds only values that surviving entries reference,
        and each slot keeps the first object seen.  A given pool is
        taken as it is: its ids may also be referenced by other arenas.
        """
        if self.pool is not None:
            return ArenaRep(self.skel, self.values, self.offsets, self.pool)
        pool: List[object] = []
        tables: Dict[type, Dict[object, int]] = {}
        columns = [_ids(column, tables, pool) for column in self.values]
        return ArenaRep(self.skel, columns, self.offsets, pool)


def _ids(
    column: List[object],
    tables: Dict[type, Dict[object, int]],
    pool: List[object],
) -> array:
    """``column``'s values as pool ids, adding unseen values to ``pool``
    in first-use order.  One table per value *type*: ``True == 1 ==
    1.0``, yet decoding must not change a value's type."""
    kinds = set(map(type, column))
    if len(kinds) > 1:  # rare: one value at a time, each of one type
        return array("q", [_ids([v], tables, pool)[0] for v in column])
    table = tables.setdefault(kinds.pop(), {}) if kinds else {}
    for value in dict.fromkeys(column):
        if value not in table:
            table[value] = len(pool)
            pool.append(value)
    return array("q", map(table.__getitem__, column))


# -- validation --------------------------------------------------------------


def validate_arena_bounds(
    tree: FTree, arena: Optional[ArenaRep]
) -> None:
    """Flat structural checks: skeleton alignment, id bounds and, per
    child slot, an offsets column that starts at 0, strictly increases
    and ends at the child column's length -- with ``n + 1`` entries
    for a plain slot, and for a shared one ``n`` refs, each the index
    of one of its ranges.  O(entries) vectorised integer scans, so the
    persistence layer can afford them on every load.

    Overlaps and gaps cannot be spelled in offsets; what the checks
    rule out is a range reaching outside its child column and an empty
    range (a repeated offset), which the column kernels (the segment
    sums of the mask cascade, the bulk runs of the delta merge) rely on
    never seeing -- a CRC-valid but tampered blob must be rejected
    here, not crash (or mis-answer) later.
    """
    if arena is None:
        return
    skel = arena.skel
    expected = _skeleton_of(tree)
    if skel is not expected and skel.labels != expected.labels:
        raise ArenaError("arena skeleton does not match the f-tree")
    pool_size = len(arena.pool)
    for i in range(len(skel)):
        column = arena.values[i]
        low, high = _column_bounds(column)
        if len(column) and not (0 <= low and high < pool_size):
            raise ArenaError(
                f"node {i}: value ids outside the pool "
                f"[{low}, {high}] vs {pool_size}"
            )
        for off, ref, k in zip(
            arena.offsets[i], arena.refs[i], skel.children[i]
        ):
            if ref is None and len(off) != len(column) + 1:
                raise ArenaError(
                    f"node {i}: {len(off)} child offsets for "
                    f"{len(column)} entries (want one more)"
                )
            if ref is not None:
                _check_refs(i, ref, len(column), len(off) - 1)
            limit = len(arena.values[k])
            if not len(off) or off[0] != 0 or off[-1] != limit:
                raise ArenaError(
                    f"node {i}: child offsets do not run from 0 to "
                    f"the child column's length {limit}"
                )
            if not (_widths(off) > 0).all():
                raise ArenaError(
                    f"node {i}: child offsets not strictly increasing "
                    f"(an empty union)"
                )


def _check_refs(node: int, ref, entries: int, ranges: int) -> None:
    """A shared slot's refs: one per entry, each a range index."""
    if len(ref) != entries:
        raise ArenaError(
            f"node {node}: {len(ref)} child refs for {entries} entries"
        )
    low, high = _column_bounds(ref)
    if entries and not (0 <= low and high < ranges):
        raise ArenaError(
            f"node {node}: child refs outside the slot's ranges "
            f"[{low}, {high}] vs {ranges}"
        )


def validate_tree(tree: FTree) -> None:
    """Check the f-tree side: path constraint must hold."""
    if not tree.satisfies_path_constraint():
        raise FRepError(
            f"f-tree violates the path constraint: {tree.pretty_inline()}"
        )


def validate_arena(tree: FTree, arena: Optional[ArenaRep]) -> None:
    """Full structural checks: bounds, no empty union, the per-union
    strict value order, and exactly one value per union of a
    ``constant`` node.  Every union is checked once where it is held:
    per range of the slot its node hangs in, shared or not."""
    if arena is None:
        return
    validate_arena_bounds(tree, arena)
    skel = arena.skel
    pool = arena.pool
    values, offsets = _views(arena)
    constant = {node.label for node in tree.iter_nodes() if node.constant}

    for idx, column in enumerate(values):
        p = skel.parent[idx]
        if p == -1:
            bounds = [0, len(column)]
        else:
            bounds = offsets[p][skel.children[p].index(idx)]
        single = skel.labels[idx] in constant
        for lo, hi in zip(bounds, bounds[1:]):
            if lo >= hi:
                raise ArenaError(
                    f"node {idx}: empty union inside a non-empty arena"
                )
            if single and hi - lo != 1:
                raise ArenaError(
                    f"constant node {sorted(skel.labels[idx])} holds "
                    f"{hi - lo} values"
                )
            for e in range(lo + 1, hi):
                if not pool[column[e - 1]] < pool[column[e]]:
                    raise ArenaError(
                        f"node {idx}: union values not strictly "
                        f"increasing at entry {e}"
                    )


# -- size and counting -------------------------------------------------------


def representation_size(arena: Optional[ArenaRep]) -> int:
    """``|E|`` in singletons -- O(#nodes) on the arena."""
    return 0 if arena is None else arena.singleton_count()


def _prefix(counts: List[int]) -> List[int]:
    return list(accumulate(counts, initial=0))


def _ints(counts) -> List[int]:
    """A per-entry count column as exact Python integers."""
    return counts if isinstance(counts, list) else counts.tolist()


def _entry_counts(arena: ArenaRep) -> List[object]:
    """Per node, per entry: tuples represented below-and-including the
    entry (the children-forest product).  A leaf's is ``None``: one
    tuple per entry, so a parent counts a leaf child union as its range
    width and no per-leaf vector is built.  Bottom-up; one vectorised
    pass per inner node (an int64 vector, :func:`_forest_counts`) while
    the products provably fit int64, exact Python integers (a list)
    from there up.  Counts are per entry *held*: a shared slot's range
    sums are taken through its refs.  Like the segment sums it rests
    on, it needs child ranges that are non-empty, as every arena's are
    (:func:`validate_arena_bounds`)."""
    skel = arena.skel
    n = len(skel)
    counts: List[object] = [None] * n
    for idx in range(n - 1, -1, -1):
        kids = skel.children[idx]
        if not kids:
            continue
        below = [counts[k] for k in kids]
        bound = 1
        for k, child in zip(kids, below):
            if child is None:  # a segment of a leaf: at most its column
                peak = len(arena.values[k])
            elif isinstance(child, list):
                break
            else:
                peak = int(child.max()) * len(child) if len(child) else 0
            bound *= max(peak, 1)
            if bound > _INT64_SAFE:
                break
        else:
            counts[idx] = _forest_counts(
                below, arena.offsets[idx], arena.refs[idx]
            )
            continue
        total = [1] * len(arena.values[idx])
        for child, off, ref in zip(
            below, arena.offsets[idx], arena.refs[idx]
        ):
            off = off.data  # Python ints: these products may pass int64
            if child is not None:  # tuples below, not child entries
                prefix = _prefix(_ints(child))
                off = [prefix[end] for end in off]
            sums = [hi - lo for lo, hi in zip(off, off[1:])]
            if ref is not None:
                sums = [sums[r] for r in ref.data]
            total = [t * w for t, w in zip(total, sums)]
        counts[idx] = total
    return counts


def _range_total(counts: List[object], idx: int, lo: int, hi: int) -> int:
    """Exact Python-int tuples below the entries ``lo .. hi-1`` of node
    ``idx``, read off :func:`_entry_counts`."""
    column = counts[idx]
    if column is None:
        return hi - lo
    return sum(_ints(column[lo:hi]))


def tuple_count(arena: Optional[ArenaRep]) -> int:
    """Number of represented tuples, by sum/product over the columns."""
    if arena is None:
        return 0
    counts = _entry_counts(arena)
    total = 1
    for r in arena.skel.roots:
        total *= _range_total(counts, r, 0, len(arena.values[r]))
        if total == 0:
            return 0
    return total


# -- enumeration -------------------------------------------------------------
#
# Two interchangeable engines with identical output order:
#
# - a generic recursive walk (the reference, always available);
# - a *compiled* enumerator: per (skeleton, attribute order) we
#   generate the statically nested ``for`` loops the skeleton dictates
#   -- one loop per node, ranges read straight off the offset columns
#   -- and ``exec`` them once.  No per-entry unit lists, no recursion,
#   no dict lookups per row; the technique FDB's descendants (LMFAO
#   and friends) apply to aggregation, applied here to enumeration.
#
# Compiled enumerators are cached by what their source text depends on
# -- the skeleton's shape, its nodes' attributes, which slots are
# shared (a shared slot reads its range through one more index) and
# the output order -- so every arena of that shape shares the
# machine-made loop nest,
# whichever skeleton object it carries (equal trees built apart, e.g.
# decoded from different blobs, carry different ones).

#: CPython rejects more than ~20 statically nested blocks; deeper
#: skeletons use the recursive walk.
_MAX_CODEGEN_NODES = 18

#: Arenas smaller than this enumerate via the walk: below it, the
#: one-off exec/compile cost dominates the loop savings.
_CODEGEN_MIN_ENTRIES = 32

#: Distinct loop nests kept compiled (least recently used out).
_ENUM_CACHE_SIZE = 256

_ENUM_CACHE = LRUCache(_ENUM_CACHE_SIZE)


def counters() -> Dict[str, int]:
    """The ``enumerator`` metrics namespace, registered by every
    :class:`~repro.service.session.QuerySession`: the loop nests
    pushed out of the cache and the number currently compiled."""
    return {
        "cache_evictions": _ENUM_CACHE.evictions,
        "cache_size": len(_ENUM_CACHE),
    }


def _pool_list(pool) -> Sequence[object]:
    """The list behind ``pool``: a shared :class:`ValuePool` is read
    through its backing list, so a lookup is no Python-level call."""
    return pool._values if isinstance(pool, ValuePool) else pool


def _compile_rows(
    skel: _Skeleton,
    order: Tuple[str, ...],
    shared: FrozenSet[int] = frozenset(),
) -> Callable[[ArenaRep], Iterator[tuple]]:
    """Build (or fetch) the compiled enumerator for one skeleton, the
    nodes hanging in shared slots and one output attribute order."""
    key = (
        skel.roots,
        tuple(skel.children),
        tuple(skel.attr_tuples),
        order,
        shared,
    )
    compiled = _ENUM_CACHE.get(key)
    if compiled is not None:
        return compiled

    # A node's value goes to a local of its own; a row is the tuple
    # of those locals, in output order.
    node_of = {
        attr: idx
        for idx, attrs in enumerate(skel.attr_tuples)
        for attr in attrs
    }
    wanted = {node_of[attr] for attr in order}
    row = "".join(f"_x{node_of[attr]}, " for attr in order)
    lines: List[str] = [
        "def _rows(arena):",
        "    _values, _off = _views(arena)",
        "    _pool = _pool_list(arena.pool)",
        "    _refs = arena.refs",
    ]
    # Local binds: one name per column, resolved once.
    for idx in range(len(skel)):
        lines.append(f"    _v{idx} = _values[{idx}]")
        for j, k in enumerate(skel.children[idx]):
            lines.append(f"    _o{k} = _off[{idx}][{j}]")
            if k in shared:
                lines.append(f"    _r{k} = _refs[{idx}][{j}].data")

    def emit(units: List[Tuple[int, Optional[int]]], depth: int) -> None:
        pad = "    " * (depth + 1)
        if not units:
            lines.append(f"{pad}yield ({row})")
            return
        (idx, parent), rest = units[0], units[1:]
        var = f"_e{idx}"
        if parent is None:
            rng = f"range(len(_v{idx}))"
        elif idx in shared:
            lines.append(f"{pad}_q{idx} = _r{idx}[_e{parent}]")
            rng = f"range(_o{idx}[_q{idx}], _o{idx}[_q{idx} + 1])"
        else:
            rng = f"range(_o{idx}[_e{parent}], _o{idx}[_e{parent} + 1])"
        lines.append(f"{pad}for {var} in {rng}:")
        if idx in wanted:
            body = "    " * (depth + 2)
            lines.append(f"{body}_x{idx} = _pool[_v{idx}[{var}]]")
        children = [(k, idx) for k in skel.children[idx]]
        emit(children + rest, depth + 1)

    emit([(r, None) for r in skel.roots], 0)
    namespace: Dict[str, object] = {
        "_pool_list": _pool_list,
        "_views": _views,
    }
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated
    compiled = namespace["_rows"]
    _ENUM_CACHE.put(key, compiled)
    return compiled


def _iter_rows_walk(
    arena: ArenaRep, attributes: Sequence[str]
) -> Iterator[tuple]:
    """The generic recursive enumeration walk (reference engine)."""
    skel = arena.skel
    order = tuple(attributes)
    slot_of = {attr: i for i, attr in enumerate(order)}
    node_slots: List[Tuple[int, ...]] = [
        tuple(
            slot_of[attr]
            for attr in attrs
            if attr in slot_of
        )
        for attrs in skel.attr_tuples
    ]
    buffer: List[object] = [None] * len(order)
    pool = _pool_list(arena.pool)
    values, offsets = _views(arena)
    refs = [
        [None if ref is None else ref.data for ref in slots]
        for slots in arena.refs
    ]
    children = skel.children

    def walk(units: Tuple[Tuple[int, int, int], ...]) -> Iterator[tuple]:
        if not units:
            yield tuple(buffer)
            return
        (idx, lo, hi) = units[0]
        rest = units[1:]
        column = values[idx]
        slots = node_slots[idx]
        kids = tuple(zip(children[idx], offsets[idx], refs[idx]))
        for e in range(lo, hi):
            value = pool[column[e]]
            for s in slots:
                buffer[s] = value
            child_units = []
            for k, off, ref in kids:
                r = e if ref is None else ref[e]
                child_units.append((k, off[r], off[r + 1]))
            yield from walk(tuple(child_units) + rest)

    yield from walk(
        tuple((r, 0, len(values[r])) for r in skel.roots)
    )


def iter_rows(
    arena: Optional[ArenaRep], attributes: Sequence[str]
) -> Iterator[tuple]:
    """Tuples projected onto ``attributes``, depth-first with unions in
    value order.  Large arenas with shallow skeletons run through the
    compiled per-skeleton loop nest; everything else takes the
    recursive walk -- both produce identical sequences.  The engine's
    generator is returned as it is, so a row costs one generator frame,
    and an unknown attribute raises :class:`KeyError` at call time."""
    if arena is None:
        return iter(())
    order = tuple(attributes)
    known = {
        attr
        for attrs in arena.skel.attr_tuples
        for attr in attrs
    }
    for attr in order:
        if attr not in known:
            # A silent None column would turn a typo into wrong data.
            raise KeyError(attr)
    if (
        0 < arena.node_count <= _MAX_CODEGEN_NODES
        and arena.entry_count >= _CODEGEN_MIN_ENTRIES
    ):
        return _compile_rows(arena.skel, order, arena.shared)(arena)
    return _iter_rows_walk(arena, order)


def iter_assignments(
    arena: Optional[ArenaRep],
) -> Iterator[Dict[str, object]]:
    """Yield every tuple as an attr->value dict (:func:`iter_rows`
    order)."""
    if arena is None:
        return
    attrs: List[str] = []
    for label in arena.skel.attr_tuples:
        attrs.extend(label)
    for row in iter_rows(arena, attrs):
        yield dict(zip(attrs, row))


# -- operator kernels --------------------------------------------------------


def drop_subtrees(
    arena: ArenaRep, new_tree: FTree, dropped: Sequence[int]
) -> ArenaRep:
    """Project away whole subtrees: the kept columns transfer verbatim.

    ``dropped`` holds the arena node ids of the subtree roots to
    remove; ``new_tree`` must be the input tree with exactly those
    subtrees deleted (same labels, same relative order), which the
    caller (:func:`repro.ops.project.project`) guarantees.  Shares the
    surviving columns, refs and the pool with the source arena.
    """
    skel = arena.skel
    gone = set()
    for idx in dropped:
        gone.update(range(idx, skel.end[idx]))
    kept = [i for i in range(len(skel)) if i not in gone]
    new_skel = _skeleton_of(new_tree)
    if [skel.labels[i] for i in kept] != new_skel.labels:
        raise ArenaError(
            "dropped subtrees do not line up with the projected f-tree"
        )
    values = [arena.values[i] for i in kept]
    offsets, refs = (
        [
            [
                slot
                for slot, k in zip(slots[i], skel.children[i])
                if k not in gone
            ]
            for i in kept
        ]
        for slots in (arena.offsets, arena.refs)
    )
    return ArenaRep(new_skel, values, offsets, arena.pool, refs)
