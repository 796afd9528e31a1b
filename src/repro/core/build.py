"""Factorising flat relational data over an f-tree.

Given input relations and an f-tree ``T`` whose node labels are the
attribute equivalence classes of an equi-join query, this module
computes the f-representation of the join result over ``T`` directly --
without ever materialising the flat result.  This is the engine's
"query evaluation on flat data" path (Experiment 3) and realises the
``O(|Q| * |D|^{s(T-hat)})`` computation referenced in Section 2.

Algorithm
---------
The paper's FDB reads its relations *sorted*; here each relation is
indexed once as a sorted trie and that trie is kept.  The classes of
``T`` a relation meets lie on one root-to-leaf path (the path
constraint), so the relation is arranged along that path:
:meth:`Relation.trie <repro.relational.relation.Relation.trie>` nests
one insertion-ordered ``dict`` per met class, in depth order, keys
ascending -- ``list(level)`` is the sorted list of values the relation
allows for a class under the ancestor values that lead to ``level``,
and ``value in level`` is the intersection test.  Attributes outside
``T`` are projected away, and a tuple that violates an intra-relation
class equality (two attributes of the relation in one class with
different values) stops contributing at the level of that class.  A
relation that meets several branches (constant nodes are free of the
path constraint) is indexed once per maximal path.

Factorisation is one top-down pass that carries a *cursor* per
(relation, level): a node reads the current trie level of every
relation covering it, walks the smallest and keeps the values all
others contain, and for each value moves the cursors of the relations
that continue below to ``level[value]`` before recursing into the
children forest.  Values whose children forest is empty are pruned, so
the constructed representation contains no empty unions.  Nodes are
compiled, once per run, into closures with their columns, children and
cursor slots pre-bound; there is no per-entry context to build or key.

The tries are cached on the :class:`Relation` objects.  A relation is
immutable and every mutation, constant selection, delta or re-partition
creates a new one, so a trie cannot go stale and is reclaimed with its
relation; shard views and delta views share the database's relation
objects and therefore its tries.

Entries are appended to the arena's columns
(:class:`~repro.core.arena.ArenaWriter`) as raw values: a leaf union is
one ``list.extend`` of its trie level, and a single-relation chain node
whose only child is a leaf of the same relation writes both in one
fused loop.  With a private pool values become ids only in
:meth:`~repro.core.arena.ArenaWriter.finish`, once per column; a shared
:class:`~repro.core.arena.ValuePool` interns each value as it is
written, in walk order, because other arenas share its ids.  Children
are written first, and an entry whose children forest comes up empty
is rolled back by truncating what its earlier children wrote; a
committed one appends, per child slot, one offset: the child column's
length.  What gets written is contractual, not incidental: candidates
are visited in a fixed order and ids assigned in a fixed order, so the
arena -- column contents and pool order, private or shared pool -- is
byte for byte what the per-node indexes this module used to build
produced (``tests/data/factorise_golden.json`` pins it).  Persisted blobs, wire
frames and size ratios do not depend on the builder.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.arena import ArenaRep, ArenaWriter, _skeleton_of
from repro.core.ftree import FTree, FTreeError
from repro.obs.metrics import Tally
from repro.relational.relation import Relation

#: The ``factorise`` metrics namespace, registered by every
#: :class:`~repro.service.session.QuerySession`: process-wide tallies,
#: counted in plain ints and folded in once per constructor (the trie
#: counts) and once per run (the rest) -- never per entry.  All of them
#: repeat exactly for a fixed sequence of calls.  ``entries_committed``
#: are the union entries of the returned representations,
#: ``entries_rolled_back`` those written and then discarded because an
#: ancestor's children forest came up empty.
COUNTERS = Tally(
    (
        "calls",
        "trie_builds",
        "trie_hits",
        "trie_rows_scanned",
        "entries_committed",
        "entries_rolled_back",
    )
)

#: Per node: (cursor slot read, cursor slot written or -1), one pair
#: per covering relation path.
_Sources = List[Tuple[int, int]]


def _candidates_fn(
    cursors: List[Optional[dict]], sources: _Sources
) -> Callable[[], Union[dict, list]]:
    """A function returning a node's candidate values -- the ascending
    intersection of its covering relations' current trie levels --
    under the cursors' current position.  The value objects are those
    of the smallest level (the first one on ties)."""
    slots = [read for read, _ in sources]
    if len(slots) == 1:
        (only,) = slots
        return lambda: cursors[only]
    if len(slots) == 2:
        first, second = slots

        def of_two() -> list:
            small, other = cursors[first], cursors[second]
            if len(other) < len(small):
                small, other = other, small
            return [value for value in small if value in other]

        return of_two

    def of_many() -> Union[dict, list]:
        levels = [cursors[slot] for slot in slots]
        small = found = min(levels, key=len)
        for other in levels:
            if other is not small:
                found = [value for value in found if value in other]
        return found

    return of_many


def _moves(sources: _Sources) -> _Sources:
    """The cursor moves a node makes per entry: one (slot read, slot
    written) per relation that continues below it."""
    return [pair for pair in sources if pair[1] >= 0]


class Factoriser:
    """Reusable factorisation of a fixed set of relations over an f-tree.

    The constructor resolves one trie per relation path (building the
    ones the relations do not hold yet); :meth:`run` walks them and
    appends the result to arena columns.

    >>> from repro.relational.relation import Relation
    >>> from repro.core.ftree import FTree
    >>> r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])],
    ...                          edges=[{"a", "b"}])
    >>> rep = Factoriser([r], tree).run()
    >>> [rep.pool[vid] for vid in rep.values[0]]
    [1, 2]
    """

    def __init__(
        self, relations: Sequence[Relation], tree: FTree
    ) -> None:
        self.tree = tree
        self.relations = list(relations)
        covered = set()
        for relation in self.relations:
            covered.update(relation.attributes)
        tree_attrs = set(tree.attributes())
        if tree_attrs - covered:
            raise FTreeError(
                f"f-tree attributes {sorted(tree_attrs - covered)} not "
                f"present in any input relation"
            )
        skel = self._skel = _skeleton_of(tree)
        # Cursor slots: one per (relation path, level).  Level 0 holds
        # the trie itself; deeper slots are filled during the walk.
        self._cursors: List[Optional[dict]] = []
        self._sources: List[_Sources] = [[] for _ in skel.labels]
        builds = hits = scanned = 0
        for relation in self.relations:
            position = relation.schema.positions()
            met = [
                idx
                for idx, attrs in enumerate(skel.attr_tuples)
                if any(attr in position for attr in attrs)
            ]
            for deepest in met:
                if any(deepest < idx < skel.end[deepest] for idx in met):
                    continue  # not the end of a path
                path = [
                    idx for idx in met if idx <= deepest < skel.end[idx]
                ]
                trie, cached = relation.trie(
                    tuple(
                        tuple(
                            position[attr]
                            for attr in skel.attr_tuples[idx]
                            if attr in position
                        )
                        for idx in path
                    )
                )
                if cached:
                    hits += 1
                else:
                    builds += 1
                    scanned += len(relation)
                slot = len(self._cursors)
                self._cursors.append(trie)
                self._cursors.extend([None] * (len(path) - 1))
                for depth, idx in enumerate(path):
                    below = slot + depth + 1 if idx != deepest else -1
                    self._sources[idx].append((slot + depth, below))
        COUNTERS.add(
            trie_builds=builds, trie_hits=hits, trie_rows_scanned=scanned
        )

    def _compile(self, make: Callable) -> List[Callable]:
        """One ``emit`` closure per node, roots returned in order.

        ``make(idx, cursors, sources, kids)`` gets this run's cursor
        slots, the node's sources and its children's emitters.
        Pre-order numbers children after their parent, so
        walking the numbers backwards compiles children first -- and
        without recursion, so no closure refers to itself and the
        whole lot is freed by reference count when the run returns.
        """
        skel = self._skel
        cursors = list(self._cursors)
        emits: List[Optional[Callable]] = [None] * len(skel.labels)
        for idx in reversed(range(len(emits))):
            kids = [emits[k] for k in skel.children[idx]]
            emits[idx] = make(idx, cursors, self._sources[idx], kids)
        return [emits[root] for root in skel.roots]

    def run(self, pool=None) -> Optional[ArenaRep]:
        """Compute the arena representation; ``None`` when empty.

        ``pool`` interns values into a shared :class:`~repro.core.
        arena.ValuePool` (e.g. one pool per worker process) instead of
        a private per-arena pool, so arenas built for different shards
        recombine by id without re-interning.
        """
        skel = self._skel
        writer = ArenaWriter(skel, pool)
        values, truncate = writer.values, writer.truncate
        discarded = [0]
        if pool is None:  # raw values: ``finish()`` assigns the ids

            def writes(column: list) -> Tuple[Callable, Callable]:
                return column.append, column.extend

        else:  # a shared pool interns in walk order
            intern = pool.intern

            def writes(column: list) -> Tuple[Callable, Callable]:
                return (
                    lambda value: column.append(intern(value)),
                    lambda found: column.extend(map(intern, found)),
                )

        def make(idx, cursors, sources, kid_emits):
            """``emit()`` appends the node's union under the current
            cursors to its column; false when the union is empty."""
            candidates = _candidates_fn(cursors, sources)
            column = values[idx]
            put, put_all = writes(column)
            if not kid_emits:

                def emit_leaf() -> bool:
                    found = candidates()
                    if not found:
                        return False
                    put_all(found)
                    return True

                return emit_leaf

            moves = _moves(sources)
            kid_ids = skel.children[idx]
            # Per child: its emitter, its column, this node's offsets.
            kids = [
                (emit, values[k], off.append)
                for emit, k, off in zip(
                    kid_emits, kid_ids, writer.offsets[idx]
                )
            ]

            if len(kids) == 1 and len(moves) == len(sources) == 1:
                # The commonest node by far: one relation, one child.
                ((read, write),) = moves
                ((kid, below, add),) = kids
                (child,) = kid_ids
                same = self._sources[child] == [(write, -1)]
                if same and not skel.children[child]:
                    # ... and that child a leaf of the same relation:
                    # the child union is the trie level itself.
                    _, fill = writes(below)

                    def emit_chain_leaf() -> bool:
                        before = len(column)
                        for value, level in cursors[read].items():
                            if level:  # (empty under an a = b class)
                                fill(level)
                                add(len(below))
                                put(value)
                        return len(column) > before

                    return emit_chain_leaf

                def emit_chain() -> bool:
                    before = len(column)
                    for value, level in cursors[read].items():
                        cursors[write] = level
                        if kid():
                            add(len(below))
                            put(value)
                    return len(column) > before

                return emit_chain

            def emit() -> bool:
                before = len(column)
                for value in candidates():
                    for read, write in moves:
                        cursors[write] = cursors[read][value]
                    marks = [len(kid[1]) for kid in kids]
                    for kid in kids:
                        if not kid[0]():
                            # Earlier children wrote; this one and the
                            # later ones left nothing behind.
                            for k, mark in zip(kid_ids, marks):
                                discarded[0] += truncate(k, mark)
                            break
                    else:
                        for _, below, add in kids:
                            add(len(below))
                        put(value)
                return len(column) > before

            return emit

        empty = not all(emit() for emit in self._compile(make))
        written = sum(map(len, values))
        COUNTERS.add(
            calls=1,
            entries_committed=0 if empty else written,
            entries_rolled_back=discarded[0] + (written if empty else 0),
        )
        return None if empty else writer.finish()


def factorise(
    relations: Sequence[Relation], tree: FTree, pool=None
) -> Optional[ArenaRep]:
    """One-shot factorisation; ``pool`` as in :meth:`Factoriser.run`."""
    return Factoriser(relations, tree).run(pool)
