"""The cluster tier: replicated shard ownership with fault tolerance.

:class:`RemoteExecutor` spreads every shard over every worker; this
module gives each shard its own R replicas.  Two pieces:

- :class:`ClusterMap` -- a consistent-hash ring assigning each shard
  of a sharded database to ``replication_factor`` distinct replica
  workers.  The ring is derived from nothing but the worker addresses
  and the shard count (which the per-shard FDBP manifest names, see
  :func:`ClusterMap.from_manifest`), so every coordinator and every
  driver computes the *same* assignment without coordination, and a
  membership change moves only ~1/N of the shards
  (:meth:`ClusterMap.rebalance` yields the per-worker ``own`` /
  ``disown`` delta that the wire frames of the same name carry).

- :class:`ReplicatedExecutor` -- :class:`RemoteExecutor` with the
  ring as each shard's chain: a (query, shard) task goes to the
  shard's replicas in ring order, and the wire path's failure handling
  (retry on the next replica with per-attempt timeouts and jittered
  backoff, quarantine behind half-open probes, a loud
  ``degrade-to-local`` only when *every* replica is down) applies
  unchanged.

Ownership is a *serving contract*, not a data-placement one: a worker
process still loads the full sharded directory (a shard view joins
its fan-out partition against full copies of every other relation, so
partial loading would change answers), but it only *answers* ``shard``
requests for shards it owns -- everything else is refused with an
``OwnershipError`` the coordinator treats as a routing miss, not a
sick worker.  FDBP shard files are small (results and relations
travel factorised), which is exactly what makes R-way replication of
the serving duty cheap.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.client import (
    Address,
    NetError,
    RemoteSession,
    parse_address,
)
from repro.net.remote import RemoteExecutor

__all__ = ["ClusterMap", "ReplicatedExecutor"]


def _ring_point(key: str) -> int:
    """A stable, well-spread 64-bit ring position for ``key``.

    Hashlib (not ``hash``) so every process -- coordinator, driver,
    CI script -- agrees on the ring without ``PYTHONHASHSEED``
    ceremony.
    """
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ClusterMap:
    """Consistent-hash assignment of shards to R replica workers.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or tuples).  Order
        does not matter -- the ring depends only on the address
        *values*.
    shard_count:
        Number of shards being served (``manifest["shards"]`` of a
        sharded FDBP directory; see :meth:`from_manifest`).
    replication_factor:
        Distinct workers per shard.  Clamped to the worker count.
    points_per_worker:
        Virtual nodes per worker on the ring; more points = smoother
        balance and smaller movement on membership changes.
    """

    def __init__(
        self,
        workers: Sequence[Address],
        shard_count: int,
        replication_factor: int = 2,
        points_per_worker: int = 64,
    ) -> None:
        addresses = [parse_address(w) for w in workers]
        if not addresses:
            raise ValueError("ClusterMap needs at least one worker")
        if shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, "
                f"got {replication_factor}"
            )
        if points_per_worker < 1:
            raise ValueError("points_per_worker must be >= 1")
        self.workers: Tuple[str, ...] = tuple(
            f"{host}:{port}" for host, port in addresses
        )
        if len(set(self.workers)) != len(self.workers):
            raise ValueError(
                f"duplicate worker addresses in {self.workers}"
            )
        self.shard_count = int(shard_count)
        self.replication_factor = min(
            int(replication_factor), len(self.workers)
        )
        self.points_per_worker = int(points_per_worker)
        ring: List[Tuple[int, str]] = []
        for worker in self.workers:
            for v in range(self.points_per_worker):
                ring.append((_ring_point(f"{worker}#{v}"), worker))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    @classmethod
    def from_manifest(
        cls,
        path: str,
        workers: Sequence[Address],
        replication_factor: int = 2,
        **kwargs: Any,
    ) -> "ClusterMap":
        """A ring over the shard count of a saved sharded directory
        (reads only ``manifest.fdbp``, no shard data)."""
        from repro.persist import load_shard_manifest

        manifest = load_shard_manifest(path)
        return cls(
            workers,
            int(manifest["shards"]),
            replication_factor,
            **kwargs,
        )

    def replicas_for(self, shard: int) -> Tuple[str, ...]:
        """The shard's replica workers, in ring (preference) order."""
        if not 0 <= shard < self.shard_count:
            raise ValueError(
                f"shard {shard} out of range 0..{self.shard_count - 1}"
            )
        start = bisect_right(
            self._points, _ring_point(f"shard:{shard}")
        )
        chosen: List[str] = []
        total = len(self._ring)
        for step in range(total):
            worker = self._ring[(start + step) % total][1]
            if worker not in chosen:
                chosen.append(worker)
                if len(chosen) == self.replication_factor:
                    break
        return tuple(chosen)

    def assignments(self) -> Dict[str, Tuple[int, ...]]:
        """``worker -> (owned shards)`` covering every worker (an
        unloaded worker maps to an empty tuple)."""
        owned: Dict[str, List[int]] = {w: [] for w in self.workers}
        for shard in range(self.shard_count):
            for worker in self.replicas_for(shard):
                owned[worker].append(shard)
        return {w: tuple(shards) for w, shards in owned.items()}

    def rebalance(
        self, workers: Sequence[Address]
    ) -> Tuple["ClusterMap", Dict[str, Dict[str, Tuple[int, ...]]]]:
        """The map for a changed membership, plus the movement delta.

        Returns ``(new_map, {worker: {"own": (...), "disown": (...)}})``
        covering every worker present in either membership whose owned
        set changed -- exactly the ``own``/``disown`` frames a
        coordinator pushes.  Consistent hashing keeps the delta small:
        only shards adjacent to the joining/leaving worker's ring
        points move.
        """
        new = ClusterMap(
            workers,
            self.shard_count,
            self.replication_factor,
            self.points_per_worker,
        )
        before = self.assignments()
        after = new.assignments()
        delta: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        for worker in sorted(set(before) | set(after)):
            was = set(before.get(worker, ()))
            now = set(after.get(worker, ()))
            own = tuple(sorted(now - was))
            disown = tuple(sorted(was - now))
            if own or disown:
                delta[worker] = {"own": own, "disown": disown}
        return new, delta

    def __repr__(self) -> str:
        return (
            f"ClusterMap({len(self.workers)} workers, "
            f"{self.shard_count} shards, "
            f"R={self.replication_factor})"
        )


class ReplicatedExecutor(RemoteExecutor):
    """Fault-tolerant fan-out over replicated shard workers.

    The execution contract and the failure handling are
    :class:`RemoteExecutor`'s (retry along the chain with backoff,
    quarantine with half-open probes, loud local degrade only when the
    whole chain failed); only the chain changes: each (query, shard)
    goes to the shard's R replicas in :class:`ClusterMap` ring order.
    A worker whose hello advertises ``owned_shards`` is only routed
    shards it owns, and an ``OwnershipError`` response is a routing
    miss (retry on the next replica), never a quarantine.  The
    retry / quarantine tuning is exposed as constructor options, and
    :meth:`set_workers` rebalances a changed membership.
    """

    name = "replicated"
    degrade_spans = ("degrade-to-local", "degrade-to-local")

    def __init__(
        self,
        workers: Sequence[Address],
        replication_factor: int = 2,
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
        attempt_timeout: Optional[float] = None,
        backoff_base: float = RemoteExecutor.backoff_base,
        backoff_cap: float = RemoteExecutor.backoff_cap,
        backoff_jitter: float = RemoteExecutor.backoff_jitter,
        quarantine_seconds: float = RemoteExecutor.quarantine_seconds,
        quarantine_cap: float = RemoteExecutor.quarantine_cap,
        points_per_worker: int = 64,
        seed: Optional[int] = None,
        flight_path: Optional[str] = None,
    ) -> None:
        super().__init__(
            workers, timeout=timeout, connect_timeout=connect_timeout
        )
        self.replication_factor = max(1, int(replication_factor))
        if attempt_timeout is not None:
            self.attempt_timeout = attempt_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = min(max(backoff_jitter, 0.0), 1.0)
        self.quarantine_seconds = quarantine_seconds
        self.quarantine_cap = quarantine_cap
        self.points_per_worker = points_per_worker
        self._rng = random.Random(seed)
        self._index_of = {k: i for i, k in enumerate(self._keys)}
        self._maps: Dict[int, ClusterMap] = {}
        self._shard_count: Optional[int] = None
        self.rebalances = 0
        #: ``flight_path`` makes loud faults (degrade-to-local, retry
        #: exhaustion) dump the flight ring to disk the moment they
        #: happen.
        self.flight.path = flight_path

    def describe(self) -> str:
        return (
            f"replicated ({len(self.addresses)} workers, "
            f"R={self.replication_factor}, "
            f"{self.live_workers} healthy)"
        )

    def counters(self) -> Dict[str, Any]:
        return {**super().counters(), "rebalances": self.rebalances}

    # -- the consistent-hash ring ------------------------------------------

    def _map_for(self, shard_count: int) -> ClusterMap:
        got = self._maps.get(shard_count)
        if got is None:
            got = self._maps[shard_count] = ClusterMap(
                self._keys,
                shard_count,
                self.replication_factor,
                self.points_per_worker,
            )
        self._shard_count = shard_count
        return got

    def _chain(self, shard: Optional[int]) -> List[int]:
        """The shard's replicas in ring (preference) order; whole
        queries keep the round-robin over every worker."""
        if shard is None:
            return super()._chain(None)
        count = max(self._shard_count or 1, shard + 1)
        return [
            self._index_of[key]
            for key in self._map_for(count).replicas_for(shard)
        ]

    def _prepare(self, session) -> None:
        super()._prepare(session)
        count = getattr(session.database, "shard_count", 1)
        if count and count > 0:
            self._map_for(count)

    # -- membership / rebalancing ------------------------------------------

    def set_workers(
        self,
        workers: Sequence[Address],
        shard_count: Optional[int] = None,
    ) -> Dict[str, Dict[str, Tuple[int, ...]]]:
        """Adopt a changed membership and push the ownership delta.

        Recomputes the ring for the new worker set, sends each
        reachable worker its ``own``/``disown`` frames (best-effort:
        an unreachable worker simply keeps its old contract -- its
        hello still advertises what it owns, so routing stays
        correct), then swaps the executor's fleet state, keeping live
        connections of retained workers.  Returns the delta that was
        pushed.
        """
        new_addresses = [parse_address(w) for w in workers]
        if not new_addresses:
            raise ValueError("set_workers needs at least one worker")
        new_keys = [f"{h}:{p}" for h, p in new_addresses]
        count = shard_count or self._shard_count
        delta: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        if count:
            delta = self._map_for(count).rebalance(new_keys)[1]
        old_sessions = dict(zip(self._keys, self._sessions))
        self._sessions = [None] * len(self._keys)  # detach, keep open
        pushed: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        for key, change in delta.items():
            session = old_sessions.get(key)
            opened_here = False
            if session is None or session.closed:
                try:
                    session = RemoteSession(
                        key,
                        timeout=self.timeout,
                        connect_timeout=self.connect_timeout,
                    )
                    opened_here = True
                except NetError:
                    continue
                if key in old_sessions or key in new_keys:
                    old_sessions[key] = session
            try:
                if change["own"]:
                    session.own_shards(change["own"])
                if change["disown"]:
                    session.disown_shards(change["disown"])
                pushed[key] = change
            except NetError:
                continue
            finally:
                if opened_here and key not in new_keys:
                    session.close()
        # Swap in the new fleet, carrying over live sessions and
        # quarantine state of retained workers.
        old_state = {
            key: (
                old_sessions.get(key),
                self._quarantined_until[i],
                self._quarantine_streak[i],
            )
            for i, key in enumerate(self._keys)
        }
        self.addresses = new_addresses
        self._keys = new_keys
        self._index_of = {k: i for i, k in enumerate(new_keys)}
        n = len(new_keys)
        self._sessions = [None] * n
        self._quarantined_until = [0.0] * n
        self._quarantine_streak = [0] * n
        self._version_skew = [False] * n
        for i, key in enumerate(new_keys):
            session, until, streak = old_state.get(key, (None, 0.0, 0))
            self._sessions[i] = session
            self._quarantined_until[i] = until
            self._quarantine_streak[i] = streak
        for key, session in old_sessions.items():
            if key not in self._index_of and session is not None:
                session.close()
        self._maps.clear()
        self.rebalances += 1
        self.flight.record(
            "rebalance",
            workers=list(new_keys),
            pushed=sorted(pushed),
        )
        return pushed
