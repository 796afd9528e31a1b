"""Horizontally sharded databases.

"On the Scalability of Multidimensional Databases" (Szepkuti,
PAPERS.md) observes that a compressed physical representation only
pays off at scale when the physical organisation scales with the
data.  :class:`ShardedDatabase` is that organisation for this engine:
every relation is split row-wise over ``shards`` per-shard
:class:`~repro.relational.database.Database` instances while the class
itself *remains* a ``Database`` -- the merged catalogue view -- so all
existing engines, statistics and the serving layer keep working
unchanged on top of it.

Partitioning strategies
-----------------------

``hash``
    Row ``r`` lives on shard ``stable_row_hash(r) % shards``.  The
    hash is content-based and process-stable (``zlib.crc32`` over
    ``repr``), so parent and pool workers agree on placement and a
    deleted/updated row is found on the shard its content names.
``round_robin``
    Row ``i`` of the (sorted, duplicate-free) relation lives on shard
    ``i % shards`` -- deterministic because relations store their
    tuples in lexicographic order, and balanced by construction.

Every mutation (insert, delete, update) goes through the merged view
first -- reusing the ``Database`` mutation semantics, its ``version``
counter and its recorded delta -- and then repartitions.  Under the
``hash`` strategy repartitioning is *incremental*: placement is
content-addressed, so the recorded delta's inserted/removed rows are
routed to exactly the shards their content names and every other
partition is left untouched (``repartitions_delta``); ``round_robin``
placement depends on global row positions and falls back to wholesale
rebuilds (``repartitions_full``).  Either way shards never drift from
the catalogue.

The per-shard evaluation contract used by :mod:`repro.exec`:
:meth:`ShardedDatabase.shard_view` builds a plain ``Database`` holding
shard ``i``'s partition of one *fan-out* relation plus full copies of
every other relation.  Evaluating a join query against each view and
unioning the factorised results (:func:`repro.ops.union.union_all`)
reproduces the unsharded answer exactly, because the fan-out
partitions are disjoint and every result tuple embeds exactly one
fan-out row.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.costs.cardinality import Statistics
from repro.relational.database import Database
from repro.relational.relation import Relation

#: Supported row-placement strategies.
PARTITION_STRATEGIES = ("hash", "round_robin")


class ShardingError(ValueError):
    """Raised for invalid shard configurations or shard lookups."""


def stable_row_hash(row: Tuple[object, ...]) -> int:
    """A process-stable, content-based hash of one row.

    Python's built-in ``hash`` is salted per process for strings
    (``PYTHONHASHSEED``), which would make parent and pool workers
    disagree on row placement; CRC32 over ``repr`` is stable across
    processes and runs.
    """
    return zlib.crc32(repr(row).encode("utf-8"))


class ShardedDatabase(Database):
    """A ``Database`` whose relations are row-partitioned over shards.

    The instance itself holds the merged view (all rows of every
    relation), so the full ``Database`` read API -- schema, lookup,
    statistics, iteration -- is inherited unchanged; :meth:`shard`
    exposes the per-shard partitions.

    >>> sdb = ShardedDatabase(shards=2)
    >>> _ = sdb.add_rows("R", ("a", "b"), [(i, i) for i in range(6)])
    >>> len(sdb["R"])
    6
    >>> sum(len(sdb.shard(i)["R"]) for i in range(2))
    6
    """

    def __init__(
        self,
        shards: int = 2,
        strategy: str = "hash",
        relations: Iterable[Relation] = (),
    ) -> None:
        if shards < 1:
            raise ShardingError(f"need at least one shard, got {shards}")
        if strategy not in PARTITION_STRATEGIES:
            raise ShardingError(
                f"unknown strategy {strategy!r}; "
                f"pick one of {PARTITION_STRATEGIES}"
            )
        self.strategy = strategy
        self._shard_dbs: List[Database] = [
            Database() for _ in range(shards)
        ]
        self._shard_stats: List[Optional[Statistics]] = [None] * shards
        self._shard_stats_version = -1
        #: Monotone repartition counters: ``full`` counts wholesale
        #: per-relation rebuilds (:meth:`_partition`), ``delta`` counts
        #: incremental routings that touched only affected shards.
        self.repartitions_full = 0
        self.repartitions_delta = 0
        super().__init__(relations)

    @classmethod
    def from_database(
        cls, database: Database, shards: int, strategy: str = "hash"
    ) -> "ShardedDatabase":
        """Shard an existing flat database (relations are shared, not
        copied; the row lists are immutable by convention)."""
        return cls(
            shards=shards, strategy=strategy, relations=iter(database)
        )

    # -- shard access ------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shard_dbs)

    def shard(self, index: int) -> Database:
        """The ``index``-th partition as a plain ``Database``."""
        if not 0 <= index < len(self._shard_dbs):
            raise ShardingError(
                f"shard {index} out of range 0..{len(self._shard_dbs) - 1}"
            )
        return self._shard_dbs[index]

    def shard_sizes(self, name: str) -> List[int]:
        """Per-shard tuple counts of one relation (balance check)."""
        self[name]  # raise on unknown relations
        return [len(shard[name]) for shard in self._shard_dbs]

    def shard_statistics(self, index: int) -> Statistics:
        """Per-shard catalogue statistics, cached per :attr:`version`.

        The merged-view statistics remain available through the
        inherited API (``Statistics.of_database(self)`` sees the full
        rows); these describe one partition, e.g. for per-worker cost
        decisions.
        """
        if self._shard_stats_version != self.version:
            self._shard_stats = [None] * len(self._shard_dbs)
            self._shard_stats_version = self.version
        if self._shard_stats[index] is None:
            self._shard_stats[index] = Statistics.of_database(
                self.shard(index)
            )
        return self._shard_stats[index]

    def shard_view(self, index: int, fanout: str) -> Database:
        """A single-shard evaluation view: shard ``index``'s partition
        of the ``fanout`` relation plus full copies of all others.

        Relation objects are shared with the merged view (no row
        copies); the returned ``Database`` is throwaway.
        """
        partition = self.shard(index)[fanout]
        view = Database()
        for relation in self:
            view.add(partition if relation.name == fanout else relation)
        return view

    # -- mutations (merged view first, then repartition) -------------------

    def add(self, relation: Relation) -> Relation:
        super().add(relation)
        self._partition(relation.name)
        return relation

    def extend_rows(
        self, name: str, rows: Iterable[Sequence[object]]
    ) -> Relation:
        if self.strategy == "hash":
            # Append fast path: hash placement is content-based, so
            # existing rows cannot move -- route only the genuinely
            # fresh rows (read off the recorded delta) to their shards
            # instead of re-hashing the whole relation.
            merged = super().extend_rows(name, rows)
            self._route_appended(name, self.delta_log.last().inserted)
            self.repartitions_delta += 1
            return merged
        # Round-robin placement depends on every row's global sorted
        # position, which an insert shifts: full rebuild required.
        merged = super().extend_rows(name, rows)
        self._partition(name)
        return merged

    def _route_appended(
        self, name: str, fresh: Sequence[Tuple[object, ...]]
    ) -> None:
        """Merge genuinely new rows (sorted, as every recorded delta
        holds them) into their hash shards only."""
        count = len(self._shard_dbs)
        buckets: List[List[Tuple[object, ...]]] = [
            [] for _ in range(count)
        ]
        for row in fresh:
            buckets[stable_row_hash(row) % count].append(row)
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue  # untouched shards keep their partition
            shard_db = self._shard_dbs[index]
            shard_db._store(shard_db[name].with_rows(bucket))

    def delete_rows(self, name, rows=None, where=None) -> int:
        removed = super().delete_rows(name, rows=rows, where=where)
        if removed:
            if self.strategy == "hash":
                # A deleted row is found on the shard its content
                # names: drop the recorded rows from just those
                # shards, leaving the others untouched.
                self._route_removed(name, self.delta_log.last().removed)
                self.repartitions_delta += 1
            else:
                self._partition(name)
        return removed

    def update_rows(self, name, where, updates) -> int:
        changed = super().update_rows(name, where, updates)
        if changed:
            if self.strategy == "hash":
                # An update is a remove+insert pair on the recorded
                # delta; the rewritten rows may hash to *different*
                # shards than the originals, and routing both sides
                # touches exactly the affected partitions.
                delta = self.delta_log.last()
                self._route_removed(name, delta.removed)
                self._route_appended(name, delta.inserted)
                self.repartitions_delta += 1
            else:
                self._partition(name)
        return changed

    def _route_removed(
        self, name: str, removed: Sequence[Tuple[object, ...]]
    ) -> None:
        """Drop removed rows from the hash shards that hold them."""
        count = len(self._shard_dbs)
        buckets: List[set] = [set() for _ in range(count)]
        for row in removed:
            buckets[stable_row_hash(row) % count].add(row)
        schema = self[name].schema
        for index, doomed in enumerate(buckets):
            if not doomed:
                continue  # untouched shards keep their partition
            shard_db = self._shard_dbs[index]
            part = shard_db[name]
            shard_db._store(
                Relation(
                    schema,
                    [row for row in part.rows if row not in doomed],
                )
            )

    def _partition(self, name: str) -> None:
        """Rebuild every shard's partition of ``name`` from the merged
        view (deterministic for both strategies)."""
        relation = self[name]
        count = len(self._shard_dbs)
        buckets: List[List[Tuple[object, ...]]] = [
            [] for _ in range(count)
        ]
        if self.strategy == "hash":
            for row in relation.rows:
                buckets[stable_row_hash(row) % count].append(row)
        else:  # round_robin over the sorted row order
            for i, row in enumerate(relation.rows):
                buckets[i % count].append(row)
        for shard_db, bucket in zip(self._shard_dbs, buckets):
            # Buckets preserve the sorted order of ``relation.rows``,
            # so the Relation constructor's invariant holds directly.
            part = Relation(relation.schema, bucket)
            if name in shard_db:
                shard_db._store(part)
            else:
                shard_db.add(part)
        self._shard_stats = [None] * count
        self.repartitions_full += 1

    def repartition_counters(self) -> Dict[str, int]:
        """How partitions have been maintained: ``full`` wholesale
        rebuilds vs ``delta`` incremental routings."""
        return {
            "full": self.repartitions_full,
            "delta": self.repartitions_delta,
        }

    # -- fan-out choice ----------------------------------------------------

    def fanout_relation(self, names: Sequence[str]) -> str:
        """The relation of ``names`` to partition a query over.

        The largest relation wins (most work to spread); ties break on
        the name so parent and workers agree.
        """
        if not names:
            raise ShardingError("no relations to fan out over")
        return max(names, key=lambda n: (len(self[n]), n))
