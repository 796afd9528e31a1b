"""In-memory relations with set semantics and sorted tuple storage.

The paper's RDB engine receives its relations sorted, enabling optimal
multi-way sort-merge join plans (Section 5, "Competing Engines").  We
keep the same invariant: a :class:`Relation` stores distinct tuples in
lexicographic order, so merge-based operators can rely on the order
without re-sorting.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.schema import RelationSchema, SchemaError

Row = Tuple[object, ...]

#: One group of column positions per trie level (see
#: :meth:`Relation.trie`).
TrieGroups = Tuple[Tuple[int, ...], ...]

#: Tries kept per relation; a relation queried along more distinct
#: access paths than this drops its oldest trie.
TRIE_CACHE_SIZE = 16

# Guards insertion into / eviction from the per-relation trie caches
# (taken on a miss only; lookups are lock-free).
_TRIE_CACHE_LOCK = threading.Lock()


def _build_trie(rows: List[Row], groups: TrieGroups) -> dict:
    """The trie of :meth:`Relation.trie`, by one pass over ``rows``.

    Within a level, keys that compare equal (``1``, ``True``, ``1.0``)
    are one key, represented by the value of the *first* row (in the
    relation's own order) that reaches that level under that prefix.
    """
    flat = [p for positions in groups for p in positions]
    if len(flat) == 1:
        return dict.fromkeys(sorted({row[flat[0]] for row in rows}))
    spans = []
    start = 0
    for positions in groups:
        spans.append((start, start + len(positions)))
        start += len(positions)
    last_lo, last_hi = spans.pop()
    root: dict = {}
    # Rows equal on every indexed column are interchangeable, and the
    # first of them is the one whose values get to represent a key.
    for key in dict.fromkeys(map(itemgetter(*flat), rows)):
        level = root
        for lo, hi in spans:
            if hi - lo > 1 and len(set(key[lo:hi])) != 1:
                break
            below = level.get(key[lo])
            if below is None:
                below = level[key[lo]] = {}
            level = below
        else:
            if last_hi - last_lo == 1 or len(set(key[last_lo:])) == 1:
                level.setdefault(key[last_lo])
    return _sorted_trie(root, len(groups))


def _sorted_trie(level: dict, depth: int) -> dict:
    """``level`` rebuilt with every dict in ascending key order."""
    if depth == 1:
        return dict.fromkeys(sorted(level))
    return {
        key: _sorted_trie(level[key], depth - 1) for key in sorted(level)
    }


class Relation:
    """A sorted, duplicate-free in-memory relation.

    >>> r = Relation.from_rows("R", ("a", "b"), [(2, 1), (1, 2), (2, 1)])
    >>> list(r)
    [(1, 2), (2, 1)]
    >>> r.cardinality
    2
    """

    __slots__ = ("schema", "_rows", "_distinct_cache", "_tries")

    def __init__(self, schema: RelationSchema, rows: List[Row]) -> None:
        """Build from ``rows`` assumed sorted and distinct.

        Use :meth:`from_rows` for unsorted input.
        """
        self.schema = schema
        self._rows = rows
        self._distinct_cache: Dict[str, int] = {}
        self._tries: Dict[TrieGroups, dict] = {}

    def __getstate__(self) -> Tuple[RelationSchema, List[Row]]:
        """Pickle the data only: the derived caches are rebuilt on
        demand, not shipped to worker processes."""
        return self.schema, self._rows

    def __setstate__(self, state: Tuple[RelationSchema, List[Row]]) -> None:
        self.__init__(*state)

    @staticmethod
    def from_rows(
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> "Relation":
        """Normalise arbitrary row input: tuple-ify, dedupe, sort."""
        schema = RelationSchema(name, tuple(attributes))
        normalised = sorted({tuple(row) for row in rows})
        for row in normalised:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"row {row!r} does not match arity {schema.arity} "
                    f"of {name!r}"
                )
        return Relation(schema, normalised)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self.schema.attributes

    @property
    def cardinality(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Row]:
        """The sorted tuple list (do not mutate)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        import bisect

        key = tuple(row)
        idx = bisect.bisect_left(self._rows, key)
        return idx < len(self._rows) and self._rows[idx] == key

    def __eq__(self, other: object) -> bool:
        """Equality as sets of tuples over the same attribute set."""
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.attributes) != set(other.attributes):
            return False
        if self.attributes == other.attributes:
            return self._rows == other._rows
        # Align attribute order before comparing.
        perm = [other.schema.index_of(a) for a in self.attributes]
        reordered = sorted(tuple(row[i] for i in perm) for row in other)
        return self._rows == reordered

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {self.attributes}, "
            f"{self.cardinality} rows)"
        )

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values of ``attribute`` (cached)."""
        if attribute not in self._distinct_cache:
            idx = self.schema.index_of(attribute)
            self._distinct_cache[attribute] = len(
                {row[idx] for row in self._rows}
            )
        return self._distinct_cache[attribute]

    def trie(self, groups: TrieGroups) -> Tuple[dict, bool]:
        """The sorted trie over ``groups``, and whether it was cached.

        ``groups`` names one tuple of column positions per level.  The
        trie is nested insertion-ordered ``dict``s: level ``d`` maps
        each distinct value of ``groups[d]``'s columns -- under the
        prefix that leads there -- to the next level (``None`` at the
        last), in ascending value order, so ``list(level)`` is the
        sorted candidate list and ``value in level`` the intersection
        test.  Columns outside ``groups`` are projected away.  A group
        of several positions asserts their equality: a row whose
        values differ there contributes its prefix above that level
        and nothing at or below it.

        Tries are cached on the relation (at most
        :data:`TRIE_CACHE_SIZE`, oldest out).  A relation is immutable
        and every mutation path builds a new one, so a cached trie can
        never go stale and dies with its relation.  Tries are
        read-only once built; two threads missing at once both build,
        and either result is kept.

        >>> r = Relation.from_rows("R", ("a", "b"), [(2, 1), (1, 2), (1, 1)])
        >>> r.trie(((1,), (0,)))
        ({1: {1: None, 2: None}, 2: {1: None}}, False)
        """
        tries = self._tries
        trie = tries.get(groups)
        if trie is not None:
            return trie, True
        trie = _build_trie(self._rows, groups)
        with _TRIE_CACHE_LOCK:
            while len(tries) >= TRIE_CACHE_SIZE:
                del tries[next(iter(tries))]
            tries[groups] = trie
        return trie, False

    def values(self, attribute: str) -> List[object]:
        """Sorted distinct values of ``attribute``."""
        idx = self.schema.index_of(attribute)
        return sorted({row[idx] for row in self._rows})

    def renamed(
        self, new_name: str, mapping: Optional[Dict[str, str]] = None
    ) -> "Relation":
        """Copy with renamed relation/attributes; rows are shared."""
        return Relation(
            self.schema.renamed(new_name, mapping or {}), self._rows
        )

    def sorted_by(self, attributes: Sequence[str]) -> List[Row]:
        """Rows sorted by the given attributes first (stable)."""
        positions = [self.schema.index_of(a) for a in attributes]
        return sorted(
            self._rows, key=lambda row: tuple(row[p] for p in positions)
        )

    def head(self, n: int = 10) -> List[Row]:
        """First ``n`` rows, for display."""
        return self._rows[:n]

    def pretty(self, limit: int = 10) -> str:
        """A small fixed-width rendering for examples and docs."""
        header = " | ".join(self.attributes)
        rule = "-" * len(header)
        body = [" | ".join(str(v) for v in row) for row in self.head(limit)]
        suffix = [] if len(self) <= limit else [f"... ({len(self)} rows)"]
        return "\n".join([header, rule, *body, *suffix])
