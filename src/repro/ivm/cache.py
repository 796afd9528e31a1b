"""The LRU cache of delta-maintained factorised results.

Entries are **unprojected** join results (see
:func:`repro.ivm.maintain.join_query`) versioned as
``(base_version, applied_deltas)``: ``version`` is the database
version the stored representation is currently valid at, and
``deltas_applied`` counts how many recorded deltas have been folded in
since the entry was first computed.  A lookup against a database whose
version moved tries to *catch the entry up* via
:func:`repro.ivm.maintain.apply_deltas` -- factorising only the fresh
rows over the entry's own f-tree and unioning them in -- and only
drops the entry when the gap is not absorbable (deletes/updates on a
referenced relation, schema changes, or a truncated delta log).

Staleness safety: an entry is served only after its ``version`` field
equals the live database version, i.e. after a successful catch-up.
The mutation-differential harness (``tests/test_ivm.py``) cross-checks
served answers against recompute-from-scratch and SQLite.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.ivm.maintain import apply_deltas, join_query
from repro.query.query import Query
from repro.relational.database import Database


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
    #: unchanged version skip the (expensive) project operator.
    projected: Dict[Tuple[str, ...], Tuple[int, FactorisedRelation]] = (
        field(default_factory=dict)
    )


class ResultCache:
    """An LRU of :class:`CachedResult`, caught up lazily on lookup.

    ``capacity=None`` means unbounded; otherwise inserts beyond
    capacity evict the least recently used entry (the
    :class:`~repro.service.cache.PlanCache` policy).

    Counters (all monotone): ``hits``/``misses``/``evictions`` follow
    the plan-cache convention; ``delta_merges`` and ``delta_rows``
    count the folded delta results and the fresh rows they carried;
    ``invalidations`` counts entries dropped because a version gap was
    not absorbable.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"cache capacity must be positive or None, got {capacity}"
            )
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, CachedResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.delta_merges = 0
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
        key = join_query(query).canonical_key()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.version != database.version:
            folded = apply_deltas(
                entry,
                database,
                check_invariants=check_invariants,
            )
            if folded is None:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self.delta_merges += folded[0]
            self.delta_rows += folded[1]
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
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
        stripped = join_query(query)
        key = stripped.canonical_key()
        entry = CachedResult(
            key=key,
            query=stripped,
            tree=tree,
            result=result,
            version=database.version,
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if (
            self.capacity is not None
            and len(self._entries) > self.capacity
        ):
            self._entries.popitem(last=False)
            self.evictions += 1
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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "delta_merges": self.delta_merges,
            "delta_rows": self.delta_rows,
            "invalidations": self.invalidations,
            "size": len(self._entries),
        }
