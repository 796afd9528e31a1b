"""The LRU cache of delta-maintained factorised results.

Entries are **unprojected** join results (see
:func:`repro.ivm.maintain.join_query`) versioned as
``(base_version, applied_deltas)``: ``version`` is the database
version the stored representation is currently valid at, and
``deltas_applied`` counts how many recorded deltas have been folded in
since the entry was first computed.  A lookup against a database whose
version moved tries to *catch the entry up* via
:func:`repro.ivm.maintain.apply_deltas` -- factorising only the fresh
rows that pass the query's constants, one term per relation, over the
entry's own f-tree and unioning them in -- and only
drops the entry when the gap is not absorbable (deletes/updates on a
referenced relation, schema changes, or a truncated delta log).

Staleness safety: an entry is served only after its ``version`` field
equals the live database version, i.e. after a successful catch-up.
The mutation-differential harness (``tests/test_ivm.py``) cross-checks
served answers against recompute-from-scratch and SQLite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cache import LRUCache
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ivm.maintain import apply_deltas, join_query
from repro.query.query import Query
from repro.relational.database import Database


def join_key(query: Query) -> Tuple:
    """The canonical key of ``query``'s join (projection stripped),
    read off ``query``'s own memoised key instead of re-keying a
    stripped copy.

    >>> q = Query.make(["R", "S"], [("a", "b")], projection=["a"])
    >>> join_key(q) == join_query(q).canonical_key()
    True
    """
    return query.canonical_key()[:3] + (None,)


@dataclass
class CachedResult:
    """One cached unprojected join result plus its maintenance state."""

    key: Tuple
    #: The projection-stripped query the result answers.
    query: Query
    #: The f-tree the result (and every folded delta) factorises over.
    tree: FTree
    #: The unprojected factorised join result, mutated by catch-ups.
    result: FactorisedRelation
    #: Database version :attr:`result` is valid at.
    version: int
    #: Recorded deltas folded in since the entry was first stored.
    deltas_applied: int = 0
    hits: int = 0
    #: Serve-time projection memo: projection tuple -> (version,
    #: projected result).  Valid while the version matches
    #: :attr:`version`; repeated serves of the same projection at an
    #: unchanged version skip the (expensive) project operator, and a
    #: catch-up that merged nothing re-stamps the memo.
    projected: Dict[Tuple[str, ...], Tuple[int, FactorisedRelation]] = (
        field(default_factory=dict)
    )


class ResultCache:
    """An LRU of :class:`CachedResult`, caught up lazily on lookup.

    The entries live in an :class:`~repro.cache.LRUCache` of
    ``capacity`` (``None`` = unbounded), the one eviction policy.

    Counters (all monotone): ``hits``/``misses``/``evictions`` are the
    LRU's own (a dropped stale entry looks up as a miss);
    ``delta_merges`` counts the delta terms actually unioned into an
    entry (at most one per referenced relation per catch-up) and
    ``delta_rows`` the fresh rows they carried after constant
    filtering; ``delta_skips`` counts the terms proven empty and never
    unioned -- no fresh row passed the query's constants on that
    relation, or the term factorised to empty; ``invalidations``
    counts entries dropped because a version gap was not absorbable.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._entries = LRUCache(capacity)
        self.delta_merges = 0
        self.delta_skips = 0
        self.delta_rows = 0
        self.invalidations = 0

    def lookup(
        self,
        query: Query,
        database: Database,
        check_invariants: bool = False,
    ) -> Optional[CachedResult]:
        """The up-to-date entry for ``query``'s join, or ``None``.

        A version-lagging entry is caught up in place before being
        served; an entry that cannot be caught up is dropped (counted
        as an invalidation *and* a miss).  Served entries always
        satisfy ``entry.version == database.version``.
        """
        key = join_key(query)
        entry = self._entries.peek(key)
        if entry is not None and entry.version != database.version:
            folded = apply_deltas(
                entry,
                database,
                check_invariants=check_invariants,
            )
            if folded is None:
                self._entries.pop(key)
                self.invalidations += 1
            else:
                merges, skips, rows = folded
                self.delta_merges += merges
                self.delta_skips += skips
                self.delta_rows += rows
        # The one hit-or-miss tally, and the recency refresh.
        entry = self._entries.get(key)
        if entry is not None:
            entry.hits += 1
        return entry

    def store(
        self,
        query: Query,
        database: Database,
        tree: FTree,
        result: FactorisedRelation,
    ) -> CachedResult:
        """Cache an unprojected join result computed at the database's
        current version; returns the new entry."""
        key = join_key(query)
        entry = CachedResult(
            key=key,
            query=join_query(query),
            tree=tree,
            result=result,
            version=database.version,
        )
        self._entries.put(key, entry)
        return entry

    def clear(self) -> None:
        """Drop every entry, counting them as invalidations (used on
        unexplainable version gaps; counters are monotone)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query_key: Tuple) -> bool:
        return query_key in self._entries

    def counters(self) -> Dict[str, int]:
        entries = self._entries
        return {
            "hits": entries.hits,
            "misses": entries.misses,
            "evictions": entries.evictions,
            "delta_merges": self.delta_merges,
            "delta_skips": self.delta_skips,
            "delta_rows": self.delta_rows,
            "invalidations": self.invalidations,
            "size": len(entries),
        }
