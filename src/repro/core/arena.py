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
- ``child_lo[i][j]`` / ``child_hi[i][j]`` -- per entry, the half-open
  range of entries in child ``j``'s columns holding that entry's child
  union (DFS construction makes every child union contiguous);
- ``pool`` -- the interned distinct values; ids are indices into it.

One union entry therefore costs ``1 + 2 * #children`` machine-word
array slots.  Columns are :class:`array.array` (``'q'``, int64) so they
also serialise as raw bytes (see the ``arena`` blob kind in
:mod:`repro.persist.codec`).  When numpy is importable the counting
kernels use vectorised segment sums (with an explicit int64 overflow
guard falling back to exact Python integers); the stdlib path is always
available and always exact.

Conventions: the *empty* relation is encoded as ``None`` (never as an
empty arena) and inside a non-empty arena no union is ever empty (the
operators prune eagerly); the nullary tuple (a forest with no trees) is
an arena with zero nodes, which counts one tuple and enumerates a
single empty row.

The arena is immutable by convention: operators never mutate columns in
place, and derived arenas (selection filters, subtree-dropping
projections) may *share* column arrays and the value pool with their
source.  The pool may contain values that no surviving entry references
(rolled-back build entries, filtered selections); decoding simply never
visits them.
"""

from __future__ import annotations

import threading
from array import array
from itertools import accumulate
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.ftree import FTree

try:  # optional acceleration; the stdlib path below is always complete
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free CI
    _np = None

#: Pre-multiplication bound under which int64 arithmetic cannot
#: overflow; counts that may exceed it are computed with exact Python
#: integers instead of numpy.
_INT64_SAFE = 1 << 62


class FRepError(ValueError):
    """Raised when an f-representation violates its invariants."""


class ArenaError(FRepError):
    """Raised when an arena violates its structural invariants."""


def _i64() -> array:
    return array("q")


def _extend_ids(dest: array, source, lo: int, hi: int) -> None:
    """Append ``source[lo:hi]`` (an ``array('q')`` or an int64 ndarray,
    e.g. an mmap-backed column view) to ``dest`` verbatim."""
    if _np is not None and isinstance(source, _np.ndarray):
        dest.frombytes(source[lo:hi].tobytes())
    else:
        dest.extend(source[lo:hi])


def _as_np(column):
    """An int64 ndarray view of a column (``None`` without numpy)."""
    if _np is None:
        return None
    if isinstance(column, _np.ndarray):
        return column
    return _np.frombuffer(column, dtype=_np.int64)


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
    -- :meth:`ArenaWriter.finish` skips its pool compaction for shared
    pools -- so ids handed out remain valid forever.
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
    ``(i, end[i])`` -- the property every rollback and bulk-copy below
    relies on.
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
    return _Skeleton(tree)


# -- the arena ---------------------------------------------------------------


class ArenaRep:
    """A flat, columnar f-representation (see the module docstring)."""

    __slots__ = ("skel", "values", "child_lo", "child_hi", "pool")

    def __init__(
        self,
        skel: _Skeleton,
        values: List[array],
        child_lo: List[List[array]],
        child_hi: List[List[array]],
        pool: List[object],
    ) -> None:
        self.skel = skel
        self.values = values
        self.child_lo = child_lo
        self.child_hi = child_hi
        self.pool = pool

    # -- introspection -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.skel)

    @property
    def entry_count(self) -> int:
        """Total union entries across all columns."""
        return sum(len(column) for column in self.values)

    def singleton_count(self) -> int:
        """The paper's ``|E|``: entries weighted by label width."""
        return sum(
            len(column) * len(self.skel.labels[i])
            for i, column in enumerate(self.values)
        )

    def nbytes(self) -> int:
        """Approximate bytes held by the integer columns."""
        total = 0
        for i, column in enumerate(self.values):
            total += column.itemsize * len(column)
            for lo, hi in zip(self.child_lo[i], self.child_hi[i]):
                total += lo.itemsize * len(lo)
                total += hi.itemsize * len(hi)
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
        return ArenaRep(
            self.skel,
            [array("q", column) for column in self.values],
            [[array("q", a) for a in slots] for slots in self.child_lo],
            [[array("q", a) for a in slots] for slots in self.child_hi],
            list(self.pool),
        )


# -- incremental construction ------------------------------------------------


class ArenaWriter:
    """Append-only arena construction with subtree rollback.

    The ground-representation builder (:class:`repro.core.build.
    Factoriser`) and the selection filter construct arenas entry by
    entry: children are written first, and an entry whose children
    forest turns out empty is *rolled back*.
    Two ways to do that: :meth:`mark` / :meth:`rollback` record one
    watermark per descendant column up front (pre-order makes
    descendants a contiguous index range); :meth:`truncate` needs only
    the watermark of a direct child and finds the deeper ones in the
    columns themselves.
    """

    __slots__ = (
        "skel",
        "values",
        "child_lo",
        "child_hi",
        "pool",
        "_intern",
        "_shared",
    )

    def __init__(self, tree_or_skel, pool: Optional[ValuePool] = None) -> None:
        skel = (
            tree_or_skel
            if isinstance(tree_or_skel, _Skeleton)
            else _skeleton_of(tree_or_skel)
        )
        self.skel = skel
        n = len(skel)
        self.values: List[array] = [_i64() for _ in range(n)]
        self.child_lo: List[List[array]] = [
            [_i64() for _ in skel.children[i]] for i in range(n)
        ]
        self.child_hi: List[List[array]] = [
            [_i64() for _ in skel.children[i]] for i in range(n)
        ]
        self._shared = pool is not None
        if self._shared:
            self.pool = pool  # type: ignore[assignment]
            self._intern = None  # type: ignore[assignment]
            return
        self.pool: List[object] = []
        # One intern table per value *type*: True == 1 and 1.0 == 1
        # must not collapse into one pool slot (decoding would change
        # value types), and a per-type dict avoids allocating a
        # (type, value) key tuple on the build hot path.
        self._intern: Dict[type, Dict[object, int]] = {}

    def intern(self, value: object) -> int:
        if self._shared:
            return self.pool.intern(value)  # type: ignore[union-attr]
        table = self._intern.get(value.__class__)
        if table is None:
            table = self._intern[value.__class__] = {}
        vid = table.get(value)
        if vid is None:
            vid = table[value] = len(self.pool)
            self.pool.append(value)
        return vid

    def mark(self, idx: int) -> List[int]:
        """Watermarks of every descendant column of ``idx``."""
        values = self.values
        return [
            len(values[k])
            for k in range(idx + 1, self.skel.end[idx])
        ]

    def rollback(self, idx: int, marks: List[int]) -> None:
        """Discard everything written below ``idx`` since :meth:`mark`."""
        for k, watermark in zip(
            range(idx + 1, self.skel.end[idx]), marks
        ):
            del self.values[k][watermark:]
            for slot in self.child_lo[k]:
                del slot[watermark:]
            for slot in self.child_hi[k]:
                del slot[watermark:]

    def truncate(self, idx: int, watermark: int) -> int:
        """Discard node ``idx``'s entries from ``watermark`` on, with
        everything they own below; returns the entries discarded.

        Needs no watermark per descendant: the first discarded entry's
        ``child_lo`` *is* each child column's watermark, because child
        unions tile their column in parent-entry order.
        """
        column = self.values[idx]
        discarded = len(column) - watermark
        if not discarded:
            return 0
        los, his = self.child_lo[idx], self.child_hi[idx]
        for j, k in enumerate(self.skel.children[idx]):
            discarded += self.truncate(k, los[j][watermark])
            del los[j][watermark:]
            del his[j][watermark:]
        del column[watermark:]
        return discarded

    def extend_leaf(self, idx: int, leaf_values: Iterable[object]) -> None:
        """Fast path: append a whole leaf union (no children, no marks)."""
        column = self.values[idx]
        if self._shared:
            column.extend(map(self.pool.intern, leaf_values))  # type: ignore[union-attr]
            return
        # Candidate lists are homogeneous in practice: resolve the
        # per-type intern table once per run of one type, not once per
        # value.
        tables, pool = self._intern, self.pool
        table: Dict[object, int] = {}
        current_class = None
        for value in leaf_values:
            if value.__class__ is not current_class:
                current_class = value.__class__
                table = tables.setdefault(current_class, {})
            vid = table.get(value)
            if vid is None:
                vid = table[value] = len(pool)
                pool.append(value)
            column.append(vid)

    def finish(self) -> ArenaRep:
        """Compact the pool to referenced values and freeze the arena.

        Rollbacks may leave interned values no surviving entry uses;
        remapping ids to first-use order keeps the pool tight and the
        arena deterministic for a given construction order.  A
        *shared* :class:`ValuePool` is never compacted: its ids are
        also referenced by other arenas.
        """
        if self._shared:
            return ArenaRep(
                self.skel,
                self.values,
                self.child_lo,
                self.child_hi,
                self.pool,
            )
        remap: Dict[int, int] = {}
        pool: List[object] = []
        for column in self.values:
            for e, vid in enumerate(column):
                new = remap.get(vid)
                if new is None:
                    new = remap[vid] = len(pool)
                    pool.append(self.pool[vid])
                column[e] = new
        return ArenaRep(
            self.skel, self.values, self.child_lo, self.child_hi, pool
        )


# -- validation --------------------------------------------------------------


def _column_bounds(column: array) -> Tuple[int, int]:
    """(min, max) of a column, vectorised when numpy is present."""
    if not len(column):
        return 0, -1
    if _np is not None:
        view = _np.frombuffer(column, dtype=_np.int64)
        return int(view.min()), int(view.max())
    return min(column), max(column)


def validate_arena_bounds(
    tree: FTree, arena: Optional[ArenaRep]
) -> None:
    """Flat structural checks: skeleton alignment, column parallelism,
    id and range bounds, and DFS contiguity.  O(entries) integer scans
    (vectorised under numpy), so the persistence layer can afford them
    on every load.

    The *contiguity* (exact tiling) check matters beyond tidiness:
    every construction path appends child unions in parent-entry
    order, so ``child_lo[0] == 0``, ``child_hi[e] == child_lo[e+1]``
    and ``child_hi[-1] == len(child column)``.  The bulk-copy kernels
    (:func:`select_filter`) rely on that layout, so a CRC-valid but
    tampered blob with merely in-bounds ranges must be rejected here,
    not crash (or mis-answer) later.
    """
    if arena is None:
        return
    skel = arena.skel
    expected = _skeleton_of(tree)
    if skel.labels != expected.labels:
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
        for j, k in enumerate(skel.children[i]):
            los = arena.child_lo[i][j]
            his = arena.child_hi[i][j]
            if len(los) != len(column) or len(his) != len(column):
                raise ArenaError(
                    f"node {i}: child ranges not parallel to values"
                )
            limit = len(arena.values[k])
            if not len(column):
                if limit:
                    raise ArenaError(
                        f"node {k}: orphaned child entries (parent "
                        f"node {i} has none)"
                    )
                continue
            if los[0] != 0 or his[-1] != limit:
                raise ArenaError(
                    f"node {i}: child ranges do not tile the child "
                    f"column [0, {limit})"
                )
            if _np is not None:
                lo_view = _np.frombuffer(los, dtype=_np.int64)
                hi_view = _np.frombuffer(his, dtype=_np.int64)
                bad = not bool((lo_view < hi_view).all())
                if not bad and len(column) > 1:
                    bad = not bool(
                        (lo_view[1:] == hi_view[:-1]).all()
                    )
            else:
                bad = any(lo >= hi for lo, hi in zip(los, his))
                if not bad:
                    bad = any(
                        los[e + 1] != his[e]
                        for e in range(len(column) - 1)
                    )
            if bad:
                raise ArenaError(
                    f"node {i}: child ranges are empty, overlap or "
                    f"leave gaps (unions must tile in DFS order)"
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
    ``constant`` node."""
    if arena is None:
        return
    validate_arena_bounds(tree, arena)
    skel = arena.skel
    pool = arena.pool
    constant = {node.label for node in tree.iter_nodes() if node.constant}
    single = [label in constant for label in skel.labels]

    def check_union(idx: int, lo: int, hi: int) -> None:
        column = arena.values[idx]
        if lo >= hi:
            raise ArenaError(
                f"node {idx}: empty union inside a non-empty arena"
            )
        if single[idx] and hi - lo != 1:
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
        for j, k in enumerate(skel.children[idx]):
            for e in range(lo, hi):
                check_union(
                    k,
                    arena.child_lo[idx][j][e],
                    arena.child_hi[idx][j][e],
                )

    for r in skel.roots:
        check_union(r, 0, len(arena.values[r]))


# -- size and counting -------------------------------------------------------


def representation_size(arena: Optional[ArenaRep]) -> int:
    """``|E|`` in singletons -- O(#nodes) on the arena."""
    return 0 if arena is None else arena.singleton_count()


def _prefix(counts: List[int]) -> List[int]:
    return list(accumulate(counts, initial=0))


def _entry_counts(arena: ArenaRep) -> List[object]:
    """Per node, per entry: tuples represented below-and-including the
    entry (the children-forest product).  Bottom-up; numpy-vectorised
    per node when the segment sums provably fit int64, exact Python
    integers otherwise."""
    skel = arena.skel
    n = len(skel)
    counts: List[object] = [None] * n  # list[int] or int64 ndarray
    for idx in range(n - 1, -1, -1):
        m = len(arena.values[idx])
        kids = skel.children[idx]
        if not kids:
            counts[idx] = (
                _np.ones(m, dtype=_np.int64)
                if _np is not None
                else [1] * m
            )
            continue
        if _np is not None and all(
            isinstance(counts[k], _np.ndarray) for k in kids
        ):
            bound = 1
            for k in kids:
                child = counts[k]
                peak = int(child.max()) if len(child) else 0
                bound *= max(peak * len(child), 1)
                if bound > _INT64_SAFE:
                    break
            if bound <= _INT64_SAFE:
                total = _np.ones(m, dtype=_np.int64)
                for j, k in enumerate(kids):
                    child = counts[k]
                    prefix = _np.zeros(
                        len(child) + 1, dtype=_np.int64
                    )
                    _np.cumsum(child, out=prefix[1:])
                    lo = _np.frombuffer(
                        arena.child_lo[idx][j], dtype=_np.int64
                    )
                    hi = _np.frombuffer(
                        arena.child_hi[idx][j], dtype=_np.int64
                    )
                    total *= prefix[hi] - prefix[lo]
                counts[idx] = total
                continue
        # Exact fallback (also the numpy-free path).
        total_list = [1] * m
        for j, k in enumerate(kids):
            child = counts[k]
            if _np is not None and isinstance(child, _np.ndarray):
                child = child.tolist()
            prefix = _prefix(child)
            los = arena.child_lo[idx][j]
            his = arena.child_hi[idx][j]
            for e in range(m):
                total_list[e] *= prefix[his[e]] - prefix[los[e]]
        counts[idx] = total_list
    return counts


def _column_total(column) -> int:
    """Exact Python-int sum of a per-entry count column."""
    if _np is not None and isinstance(column, _np.ndarray):
        return sum(column.tolist())
    return sum(column)


def tuple_count(arena: Optional[ArenaRep]) -> int:
    """Number of represented tuples, by sum/product over the columns."""
    if arena is None:
        return 0
    counts = _entry_counts(arena)
    total = 1
    for r in arena.skel.roots:
        total *= _column_total(counts[r])
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
# -- the skeleton's shape, its nodes' attributes and the output order
# -- so every arena of that shape shares the machine-made loop nest,
# whichever skeleton object it carries (each build makes a fresh one).

#: CPython rejects more than ~20 statically nested blocks; deeper
#: skeletons use the recursive walk.
_MAX_CODEGEN_NODES = 18

#: Arenas smaller than this enumerate via the walk: below it, the
#: one-off exec/compile cost dominates the loop savings.
_CODEGEN_MIN_ENTRIES = 32

#: Distinct loop nests kept compiled (oldest out).
_ENUM_CACHE_SIZE = 256

_ENUM_CACHE: Dict[tuple, Callable[["ArenaRep"], Iterator[tuple]]] = {}

# Guards insertion and eviction (a miss compiles outside it; lookups
# are lock-free).
_ENUM_CACHE_LOCK = threading.Lock()


def _compile_rows(
    skel: _Skeleton, order: Tuple[str, ...]
) -> Callable[[ArenaRep], Iterator[tuple]]:
    """Build (or fetch) the compiled enumerator for one skeleton and
    output attribute order."""
    key = (skel.roots, tuple(skel.children), tuple(skel.attr_tuples), order)
    compiled = _ENUM_CACHE.get(key)
    if compiled is not None:
        return compiled

    slot_of = {attr: i for i, attr in enumerate(order)}
    lines: List[str] = [
        "def _rows(arena):",
        "    _values = arena.values",
        "    _lo = arena.child_lo",
        "    _hi = arena.child_hi",
        "    _pool = arena.pool",
        f"    _buffer = [None] * {len(order)}",
    ]
    # Local binds: one name per column, resolved once.
    for idx in range(len(skel)):
        lines.append(f"    _v{idx} = _values[{idx}]")
        for j, k in enumerate(skel.children[idx]):
            lines.append(f"    _l{k} = _lo[{idx}][{j}]")
            lines.append(f"    _h{k} = _hi[{idx}][{j}]")

    def emit(units: List[Tuple[int, Optional[int]]], depth: int) -> None:
        pad = "    " * (depth + 1)
        if not units:
            lines.append(f"{pad}yield tuple(_buffer)")
            return
        (idx, parent), rest = units[0], units[1:]
        var = f"_e{idx}"
        if parent is None:
            rng = f"range(len(_v{idx}))"
        else:
            rng = f"range(_l{idx}[_e{parent}], _h{idx}[_e{parent}])"
        lines.append(f"{pad}for {var} in {rng}:")
        body = "    " * (depth + 2)
        slots = [
            slot_of[attr]
            for attr in skel.attr_tuples[idx]
            if attr in slot_of
        ]
        if slots:
            lines.append(f"{body}_x = _pool[_v{idx}[{var}]]")
            for slot in slots:
                lines.append(f"{body}_buffer[{slot}] = _x")
        children = [(k, idx) for k in skel.children[idx]]
        emit(children + rest, depth + 1)

    emit([(r, None) for r in skel.roots], 0)
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated
    compiled = namespace["_rows"]
    with _ENUM_CACHE_LOCK:
        while len(_ENUM_CACHE) >= _ENUM_CACHE_SIZE:
            del _ENUM_CACHE[next(iter(_ENUM_CACHE))]
        _ENUM_CACHE[key] = compiled
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
    pool = arena.pool
    values = arena.values
    child_lo, child_hi = arena.child_lo, arena.child_hi
    children = skel.children

    def walk(units: Tuple[Tuple[int, int, int], ...]) -> Iterator[tuple]:
        if not units:
            yield tuple(buffer)
            return
        (idx, lo, hi) = units[0]
        rest = units[1:]
        column = values[idx]
        slots = node_slots[idx]
        kids = children[idx]
        los, his = child_lo[idx], child_hi[idx]
        for e in range(lo, hi):
            value = pool[column[e]]
            for s in slots:
                buffer[s] = value
            child_units = tuple(
                (k, los[j][e], his[j][e]) for j, k in enumerate(kids)
            )
            yield from walk(child_units + rest)

    yield from walk(
        tuple((r, 0, len(values[r])) for r in skel.roots)
    )


def iter_rows(
    arena: Optional[ArenaRep], attributes: Sequence[str]
) -> Iterator[tuple]:
    """Yield tuples projected onto ``attributes``, depth-first with
    unions in value order.  Large arenas with shallow skeletons run
    through the compiled per-skeleton loop nest; everything else takes
    the recursive walk -- both produce identical sequences."""
    if arena is None:
        return
    known = {
        attr
        for attrs in arena.skel.attr_tuples
        for attr in attrs
    }
    for attr in attributes:
        if attr not in known:
            # A silent None column would turn a typo into wrong data.
            raise KeyError(attr)
    node_count = arena.node_count
    if (
        0 < node_count <= _MAX_CODEGEN_NODES
        and arena.entry_count >= _CODEGEN_MIN_ENTRIES
    ):
        compiled = _compile_rows(arena.skel, tuple(attributes))
        yield from compiled(arena)
        return
    yield from _iter_rows_walk(arena, attributes)


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


def _extend_offset(dest: array, source: array, lo: int, hi: int, delta: int) -> None:
    """Append ``source[lo:hi] + delta`` to ``dest``."""
    if delta == 0:
        dest.extend(source[lo:hi])
    elif _np is not None:
        shifted = (
            _np.frombuffer(source, dtype=_np.int64)[lo:hi] + delta
        )
        dest.frombytes(shifted.astype(_np.int64).tobytes())
    else:
        dest.extend(x + delta for x in source[lo:hi])


def _keep_lookup(
    arena: ArenaRep, target: int, predicate: Callable[[object], bool]
):
    """A per-value-id keep table for ``target``'s column.

    The predicate runs once per *distinct id actually present* in the
    column (never over the whole pool: a shared pool holds values of
    every attribute, on which the predicate could be meaningless), and
    the per-entry test collapses into an integer table lookup.
    """
    column = arena.values[target]
    pool = arena.pool
    if _np is not None:
        col = _as_np(column)
        keep = _np.zeros(len(pool), dtype=bool)
        for vid in _np.unique(col).tolist():
            keep[vid] = bool(predicate(pool[vid]))
        return keep, col
    keep_dict: Dict[int, bool] = {}
    for vid in set(column):
        keep_dict[vid] = bool(predicate(pool[vid]))
    return keep_dict, None


def select_filter(
    arena: ArenaRep,
    attribute: str,
    predicate: Callable[[object], bool],
) -> Optional[ArenaRep]:
    """Keep only the entries of ``attribute``'s node passing
    ``predicate``, cascading the pruning of emptied unions upward --
    the arena kernel behind constant selections.

    Subtrees that cannot contain the target node are copied wholesale
    (contiguous column slices with offset fix-up) instead of entry by
    entry, and the predicate itself is vectorised: it runs once per
    distinct value id, the resulting boolean mask over the target
    column is compacted into maximal kept runs, and each run is
    bulk-copied (values, child ranges and subtrees alike).  Returns
    ``None`` when the whole relation empties.
    """
    skel = arena.skel
    target = skel.node_of_attr(attribute)
    on_path = [False] * len(skel)
    walk_up = target
    while walk_up != -1:
        on_path[walk_up] = True
        walk_up = skel.parent[walk_up]

    writer = ArenaWriter(skel)
    new_values = writer.values
    new_lo, new_hi = writer.child_lo, writer.child_hi
    pool = arena.pool
    # The output shares the input pool: value ids are copied verbatim.
    writer.pool = pool  # type: ignore[attr-defined]

    keep, target_np = _keep_lookup(arena, target, predicate)

    def copy_bulk(idx: int, lo: int, hi: int) -> None:
        _extend_ids(new_values[idx], arena.values[idx], lo, hi)
        for j, k in enumerate(skel.children[idx]):
            los = arena.child_lo[idx][j]
            his = arena.child_hi[idx][j]
            child_lo = los[lo]
            child_hi = his[hi - 1]
            delta = len(new_values[k]) - child_lo
            _extend_offset(new_lo[idx][j], los, lo, hi, delta)
            _extend_offset(new_hi[idx][j], his, lo, hi, delta)
            copy_bulk(k, child_lo, child_hi)

    def copy_target(lo: int, hi: int) -> bool:
        """Mask the target occurrence, bulk-copy the kept runs."""
        if target_np is not None:
            mask = keep[target_np[lo:hi]]
            if mask.all():
                copy_bulk(target, lo, hi)
                return True
            hits = _np.flatnonzero(mask)
            if not len(hits):
                return False
            # Compact consecutive hits into [start, stop) runs.
            breaks = _np.flatnonzero(_np.diff(hits) > 1) + 1
            for run in _np.split(hits, breaks):
                copy_bulk(
                    target, lo + int(run[0]), lo + int(run[-1]) + 1
                )
            return True
        column = arena.values[target]
        kept = False
        e = lo
        while e < hi:
            if not keep[column[e]]:
                e += 1
                continue
            stop = e + 1
            while stop < hi and keep[column[stop]]:
                stop += 1
            copy_bulk(target, e, stop)
            kept = True
            e = stop
        return kept

    def copy_union(idx: int, lo: int, hi: int) -> bool:
        if idx == target:
            return copy_target(lo, hi)
        if not on_path[idx]:
            copy_bulk(idx, lo, hi)
            return True
        column = arena.values[idx]
        kids = skel.children[idx]
        kept = False
        for e in range(lo, hi):
            marks = writer.mark(idx)
            ok = True
            for j, k in enumerate(kids):
                if not copy_union(
                    k,
                    arena.child_lo[idx][j][e],
                    arena.child_hi[idx][j][e],
                ):
                    ok = False
                    break
            if not ok:
                writer.rollback(idx, marks)
                continue
            for j, k in enumerate(kids):
                new_lo[idx][j].append(marks[k - idx - 1])
                new_hi[idx][j].append(len(new_values[k]))
            new_values[idx].append(column[e])
            kept = True
        return kept

    for r in skel.roots:
        if not copy_union(r, 0, len(arena.values[r])):
            return None
    return ArenaRep(skel, new_values, new_lo, new_hi, pool)


def drop_subtrees(
    arena: ArenaRep, new_tree: FTree, dropped: Sequence[int]
) -> ArenaRep:
    """Project away whole subtrees: the kept columns transfer verbatim.

    ``dropped`` holds the arena node ids of the subtree roots to
    remove; ``new_tree`` must be the input tree with exactly those
    subtrees deleted (same labels, same relative order), which the
    caller (:func:`repro.ops.project.project`) guarantees.  Shares the
    surviving column arrays and the pool with the source arena.
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
    child_lo: List[List[array]] = []
    child_hi: List[List[array]] = []
    for i in kept:
        keep_slots = [
            j
            for j, k in enumerate(skel.children[i])
            if k not in gone
        ]
        child_lo.append([arena.child_lo[i][j] for j in keep_slots])
        child_hi.append([arena.child_hi[i][j] for j in keep_slots])
    return ArenaRep(new_skel, values, child_lo, child_hi, arena.pool)
