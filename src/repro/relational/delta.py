"""Row-level mutation deltas and the bounded per-database delta log.

Incremental view maintenance (:mod:`repro.ivm`) needs to know *what*
changed between two database versions, not merely *that* the version
counter moved.  Every mutation on :class:`~repro.relational.database.
Database` records one :class:`Delta` -- the relation touched plus the
exact sets of inserted and removed tuples -- in a bounded
:class:`DeltaLog`.  Consumers holding a result computed at version
``v`` ask :meth:`DeltaLog.since` for the deltas ``v -> current``; a
``None`` answer means the gap is not explainable (log truncated,
schema changed, or the version is from another database's timeline)
and the consumer must fall back to wholesale invalidation, exactly as
before this log existed.

The log is deliberately conservative:

- schema changes (``Database.add``) are recorded as opaque
  :attr:`Delta.schema_change` markers that poison any range containing
  them -- no consumer tries to absorb a new relation incrementally;
- capacity is bounded (default :data:`DEFAULT_CAPACITY`); once old
  deltas roll off, ranges reaching past the retained window return
  ``None`` rather than a partial answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

#: Deltas retained before old entries roll off the log.  Sized for
#: serving workloads (a handful of mutations between queries), not for
#: replication: consumers needing unbounded history should snapshot.
DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class Delta:
    """One recorded mutation: the database moved *to* ``version``.

    ``inserted`` and ``removed`` are the exact row-set differences
    (new minus old and old minus new), so an update that collides two
    rows into one is represented faithfully and replaying
    ``(old - removed) | inserted`` reproduces the new relation.
    """

    version: int
    relation: str
    inserted: Tuple[Tuple[object, ...], ...] = ()
    removed: Tuple[Tuple[object, ...], ...] = ()
    #: True for catalogue-level changes (new relation registered);
    #: such deltas cannot be absorbed incrementally by any consumer.
    schema_change: bool = False


@dataclass
class DeltaLog:
    """A bounded, append-only record of a database's recent mutations.

    >>> log = DeltaLog(capacity=8)
    >>> log.record(Delta(version=1, relation="R", inserted=((1, 2),)))
    >>> [d.relation for d in log.since(0)]
    ['R']
    >>> log.since(1)
    []
    """

    capacity: int = DEFAULT_CAPACITY
    _entries: Deque[Delta] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"delta log capacity must be positive, got {self.capacity}"
            )

    def record(self, delta: Delta) -> None:
        """Append one delta, dropping the oldest beyond capacity."""
        self._entries.append(delta)
        while len(self._entries) > self.capacity:
            self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)

    def last(self) -> Optional[Delta]:
        return self._entries[-1] if self._entries else None

    def since(self, version: int) -> Optional[List[Delta]]:
        """The deltas moving the database from ``version`` to now.

        Returns ``[]`` when ``version`` is current, or ``None`` when
        the range cannot be explained: the requested version is ahead
        of the log, the range reaches past the retained window, or it
        contains a schema change.  ``None`` means "invalidate
        wholesale"; callers must not treat it as an empty list.
        """
        if not self._entries:
            # An empty log explains only "nothing happened".  With no
            # entries we cannot know the current version here; the
            # Database wrapper handles the version == current case
            # before consulting the log.
            return None
        newest = self._entries[-1].version
        if version > newest:
            return None  # version from the future (or another timeline)
        if version == newest:
            return []
        oldest = self._entries[0].version
        if version < oldest - 1:
            return None  # range reaches past the retained window
        out: List[Delta] = []
        for delta in self._entries:
            if delta.version <= version:
                continue
            if delta.schema_change:
                return None  # catalogue changed inside the range
            out.append(delta)
        return out
