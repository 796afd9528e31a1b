"""The one bounded cache: a thread-safe LRU with hit/miss/eviction
counters.

Every in-process cache -- plans, f-plans, results, a relation's tries,
compiled enumerators, prepared kernels, a server's statements, a
decoder's f-trees -- is an :class:`LRUCache`: one eviction policy and
one set of gauges.  The module imports nothing from :mod:`repro`, so
every layer may use it.

Entries live in an insertion-ordered ``dict``: a hit re-inserts its
entry at the back and an insertion into a full cache evicts from the
front, so a stream of never-repeating keys cannot flush an entry that
is still being hit.  The eviction comes before the insertion, so the
cache never holds more than ``capacity`` entries, not even for the
unlocked readers ``len`` and ``counters``.  One lock per cache keeps
the bound under concurrent ``get`` / ``put``.  Callers build a missing
value outside it: two threads that miss at once both build, and the
later ``put`` wins.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterator, List, Optional


class LRUCache:
    """A mapping bounded to ``capacity`` entries, least recently used
    out (``capacity=None`` = unbounded).  ``None`` is not a storable
    value: :meth:`get` returns it for a miss.

    It compares like a ``dict`` of its entries (order ignored), so a
    fresh cache equals ``{}``.

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")  # touches "a": "b" is now the LRU entry
    1
    >>> cache.put("c", 3)  # evicts "b"
    'b'
    >>> cache.get("b") is None
    True
    >>> cache.counters()
    {'hits': 1, 'misses': 1, 'evictions': 1, 'size': 2}
    >>> cache == {"a": 1, "c": 3}
    True
    """

    __slots__ = (
        "capacity", "hits", "misses", "evictions", "_entries", "_lock"
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"cache capacity must be positive or None, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value (now the most recently used), or ``None``."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is None:
                self.misses += 1
                return None
            self._entries[key] = value
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> Optional[Hashable]:
        """Insert (as the most recently used); returns the key the
        insertion evicted, if the cache was full."""
        with self._lock:
            entries = self._entries
            evicted = None
            if (
                entries.pop(key, None) is None
                and self.capacity is not None
                and len(entries) >= self.capacity
            ):
                evicted = next(iter(entries))
                del entries[evicted]
                self.evictions += 1
            entries[key] = value
            return evicted

    def peek(self, key: Hashable) -> Optional[object]:
        """The cached value without touching recency *or* counters
        (observability reads must not skew hit rates)."""
        return self._entries.get(key)

    def pop(self, key: Hashable) -> Optional[object]:
        """Remove ``key``'s entry (not an eviction); its value or
        ``None``."""
        with self._lock:
            return self._entries.pop(key, None)

    def values(self) -> List[object]:
        """Cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop all entries (counters are kept: they are monotone)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does *not* refresh recency."""
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LRUCache):
            other = other._entries
        return self._entries == other
