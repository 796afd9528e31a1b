"""The cluster tier: replicated shard ownership with fault tolerance.

:class:`RemoteExecutor` made multi-host execution *possible*; this
module makes it *survivable*.  Two pieces:

- :class:`ClusterMap` -- a consistent-hash ring assigning each shard
  of a sharded database to ``replication_factor`` distinct replica
  workers.  The ring is derived from nothing but the worker addresses
  and the shard count (which the per-shard FDBP manifest names, see
  :func:`ClusterMap.from_manifest`), so every coordinator and every
  driver computes the *same* assignment without coordination, and a
  membership change moves only ~1/N of the shards
  (:meth:`ClusterMap.rebalance` yields the per-worker ``own`` /
  ``disown`` delta that the wire frames of the same name carry).

- :class:`ReplicatedExecutor` -- a drop-in
  :class:`~repro.exec.executor.Executor` that routes each
  (query, shard) task to the shard's replicas in ring order and
  *retries on the next replica* -- with per-attempt timeouts and
  jittered exponential backoff -- on connection loss, timeout or
  version mismatch.  A failing worker is **quarantined** behind a
  half-open health probe (the quarantine window doubles on repeated
  failures; after it expires exactly one trial request is allowed
  through).  Only when *every* replica of a shard is down does the
  coordinator evaluate the shard locally, and then loudly: a
  ``degrade-to-local`` span plus the ``degrade_to_local`` counter --
  degrading is correct but must never be silent, because a degraded
  cluster is one coordinator doing all the work.

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
import time
from bisect import bisect_right
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec import worker as worker_mod
from repro.net.client import (
    Address,
    NetError,
    RemoteSession,
    parse_address,
)
from repro.net.remote import RemoteExecutor
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder
from repro.query.query import Query

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

    The execution contract is :class:`RemoteExecutor`'s (plans
    compiled once on the coordinator, per-shard parts recombined by
    ``ops.union``, answers byte-identical to local evaluation); only
    the routing changes:

    - each (query, shard) goes to the shard's first healthy replica
      on the :class:`ClusterMap` ring;
    - a failed attempt (connection loss, per-attempt timeout, server
      error) **retries on the next replica**, after a jittered
      exponential backoff, under a ``remote[i]:retry`` span;
    - a worker that fails is **quarantined** for
      ``quarantine_seconds`` (doubling per consecutive failure, capped
      at ``quarantine_cap``); when the window expires the next attempt
      is the half-open probe -- one trial reconnect that either
      restores the worker or re-quarantines it for longer;
    - a worker whose hello advertises ``owned_shards`` is only routed
      shards it owns; an ``OwnershipError`` response is a routing miss
      (retry next replica), never a quarantine;
    - a version-mismatched worker is skipped for the current batch and
      re-probed on the next (the executor-level twin of
      :meth:`RemoteExecutor._revive_version_mismatches`);
    - only when **all** replicas of a shard failed does the shard run
      locally, under a ``degrade-to-local`` span and counter.

    Counters surface through the session registry's ``cluster``
    namespace (``registry.snapshot()``, the ``stats``/``metrics`` wire
    frames, and the Prometheus endpoint).
    """

    name = "replicated"

    def __init__(
        self,
        workers: Sequence[Address],
        replication_factor: int = 2,
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
        attempt_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.5,
        quarantine_seconds: float = 5.0,
        quarantine_cap: float = 60.0,
        points_per_worker: int = 64,
        seed: Optional[int] = None,
        flight_path: Optional[str] = None,
    ) -> None:
        super().__init__(
            workers, timeout=timeout, connect_timeout=connect_timeout
        )
        self.replication_factor = max(1, int(replication_factor))
        #: Per-attempt wait; the total per-task budget is roughly
        #: R * (attempt_timeout + backoff), after which the task
        #: degrades to local evaluation.
        self.attempt_timeout = (
            attempt_timeout if attempt_timeout is not None else timeout
        )
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = min(max(backoff_jitter, 0.0), 1.0)
        self.quarantine_seconds = quarantine_seconds
        self.quarantine_cap = quarantine_cap
        self.points_per_worker = points_per_worker
        self._rng = random.Random(seed)
        self._keys = [f"{h}:{p}" for h, p in self.addresses]
        self._index_of = {k: i for i, k in enumerate(self._keys)}
        self._maps: Dict[int, ClusterMap] = {}
        self._shard_count: Optional[int] = None
        n = len(self.addresses)
        self._quarantined_until = [0.0] * n
        self._quarantine_streak = [0] * n
        self._version_skew = [False] * n
        self._batch_version: Optional[int] = None
        self._registry = None
        #: Monotone counters (on top of the inherited remote_tasks /
        #: local_fallbacks / lost_workers).
        self.retries = 0
        self.timeouts = 0
        self.connect_failures = 0
        self.worker_errors = 0
        self.version_mismatches = 0
        self.ownership_misses = 0
        self.quarantines = 0
        self.probes = 0
        self.probe_recoveries = 0
        self.probe_failures = 0
        self.degrade_to_local = 0
        self.rebalances = 0
        #: The same fault counters attributed per worker address, so a
        #: multi-worker incident names its victims instead of only a
        #: fleet-wide aggregate.
        self._per_worker: Dict[str, Dict[str, int]] = {}
        #: The coordinator-side fault narrative (see repro.obs.flight);
        #: ``flight_path`` makes loud faults (degrade-to-local, retry
        #: exhaustion) dump the ring to disk the moment they happen.
        self.flight = FlightRecorder(path=flight_path)

    # -- fleet state -------------------------------------------------------

    @property
    def live_workers(self) -> int:
        now = time.monotonic()
        return sum(
            1 for until in self._quarantined_until if until <= now
        )

    @property
    def quarantined_workers(self) -> int:
        now = time.monotonic()
        return sum(
            1 for until in self._quarantined_until if until > now
        )

    def describe(self) -> str:
        return (
            f"replicated ({len(self.addresses)} workers, "
            f"R={self.replication_factor}, "
            f"{self.live_workers} healthy)"
        )

    def counters(self) -> Dict[str, Any]:
        """The ``cluster`` collector namespace (see repro.obs)."""
        return {
            "workers": len(self.addresses),
            "replication_factor": self.replication_factor,
            "healthy_workers": self.live_workers,
            "quarantined_workers": self.quarantined_workers,
            "remote_tasks": self.remote_tasks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "connect_failures": self.connect_failures,
            "worker_errors": self.worker_errors,
            "version_mismatches": self.version_mismatches,
            "ownership_misses": self.ownership_misses,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "probe_recoveries": self.probe_recoveries,
            "probe_failures": self.probe_failures,
            "degrade_to_local": self.degrade_to_local,
            "rebalances": self.rebalances,
            "per_worker": {
                key: dict(tallies)
                for key, tallies in self._per_worker.items()
            },
        }

    def _tag(self, index_or_key, name: str) -> None:
        """Attribute one fault-counter increment to a worker."""
        key = (
            self._keys[index_or_key]
            if isinstance(index_or_key, int)
            else str(index_or_key)
        )
        tallies = self._per_worker.setdefault(key, {})
        tallies[name] = tallies.get(name, 0) + 1

    def _ensure_registered(self, session) -> None:
        registry = getattr(session, "registry", None)
        if registry is None or registry is self._registry:
            return
        registry.register("cluster", self.counters)
        registry.register("flight", self.flight.counters)
        self._registry = registry

    def invalidate(self) -> None:
        super().invalidate()
        # A database-version move is the classic mismatch trigger;
        # give skewed workers a fresh hello.
        self._version_skew = [False] * len(self.addresses)

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

    def _replica_chain(self, shard: int) -> List[int]:
        """Worker indices to try for ``shard``, in preference order."""
        count = self._shard_count or 1
        if shard >= count:
            count = shard + 1
        return [
            self._index_of[key]
            for key in self._map_for(count).replicas_for(shard)
        ]

    def _full_chain(self) -> List[int]:
        """Round-robin chain for whole-query (unsharded) routing."""
        n = len(self.addresses)
        start = self.remote_tasks % n
        return [(start + k) % n for k in range(n)]

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
        self._lost = [False] * n
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

    # -- health / quarantine -----------------------------------------------

    def _quarantine(self, index: int) -> None:
        self.quarantines += 1
        self._tag(index, "quarantines")
        streak = min(self._quarantine_streak[index] + 1, 8)
        self._quarantine_streak[index] = streak
        window = min(
            self.quarantine_cap,
            self.quarantine_seconds * (2 ** (streak - 1)),
        )
        self._quarantined_until[index] = time.monotonic() + window
        self.flight.record(
            "quarantine-open",
            worker=self._keys[index],
            streak=streak,
            window=window,
        )
        session = self._sessions[index]
        self._sessions[index] = None
        if session is not None:
            session.close()

    def _record_success(self, index: int) -> None:
        if self._quarantine_streak[index]:
            self.probe_recoveries += 1
            self.flight.record(
                "quarantine-close", worker=self._keys[index]
            )
        self._quarantine_streak[index] = 0
        self._quarantined_until[index] = 0.0

    def _record_failure(self, index: int, exc: Exception) -> None:
        """Classify one failed attempt and update worker health."""
        text = str(exc)
        if "OwnershipError" in text:
            # The worker is fine; *we* routed a shard it does not
            # own.  Retry elsewhere, never quarantine.
            self.ownership_misses += 1
            self._tag(index, "ownership_misses")
            self.flight.record(
                "ownership-miss", worker=self._keys[index]
            )
            return
        if isinstance(exc, (TimeoutError, _FutureTimeout)):
            self.timeouts += 1
            self._tag(index, "timeouts")
        elif "server error (" in text:
            # The worker answered -- with an error.  It is alive;
            # replicas may still succeed (their state can differ), and
            # if the error is deterministic the local degrade surfaces
            # it.  Don't poison the worker for unrelated shards.
            self.worker_errors += 1
            self._tag(index, "worker_errors")
            return
        if self._quarantine_streak[index]:
            self.probe_failures += 1
        self._quarantine(index)

    def _eligible(self, index: int) -> bool:
        """May worker ``index`` be attempted right now?  Quarantined
        workers whose window has expired are eligible -- that attempt
        *is* the half-open probe."""
        if self._version_skew[index]:
            return False
        return self._quarantined_until[index] <= time.monotonic()

    def _usable_session(
        self,
        index: int,
        db_version: int,
        shard: Optional[int] = None,
    ) -> Optional[RemoteSession]:
        """A connected, version-matched, shard-owning session for
        worker ``index``, or ``None`` (health state updated)."""
        if not self._eligible(index):
            return None
        probing = self._quarantine_streak[index] > 0
        session = self._sessions[index]
        if session is None or session.closed:
            if probing:
                self.probes += 1
            try:
                session = RemoteSession(
                    self.addresses[index],
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                )
            except NetError:
                self.connect_failures += 1
                self._tag(index, "connect_failures")
                if probing:
                    self.probe_failures += 1
                self._quarantine(index)
                return None
            self._sessions[index] = session
        if session.server_info.get("db_version") != db_version:
            # Alive but serving another snapshot: skip it for this
            # batch, re-probe on the next (satellite of the same fix
            # in RemoteExecutor).
            self.version_mismatches += 1
            self._version_skew[index] = True
            self._sessions[index] = None
            session.close()
            return None
        owned = session.server_info.get("owned_shards")
        if (
            shard is not None
            and isinstance(owned, list)
            and shard not in owned
        ):
            # Known non-owner: routing around it costs nothing here,
            # versus a wasted round trip ending in OwnershipError.
            self.ownership_misses += 1
            self._tag(index, "ownership_misses")
            return None
        return session

    def _backoff_sleep(self, attempt: int) -> None:
        """Jittered exponential backoff before retry ``attempt``
        (attempt 0 is the first try -- no wait)."""
        if attempt <= 0:
            return
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        delay = base * (1.0 - self.backoff_jitter * self._rng.random())
        if delay > 0:
            time.sleep(delay)

    # -- execution ---------------------------------------------------------

    def execute(self, session, queries: Sequence[Query], engine: str):
        self._ensure_registered(session)
        # Version-skew marks are per-batch: a worker that reloaded
        # since the last batch deserves a fresh hello.
        self._version_skew = [False] * len(self.addresses)
        database = session.database
        count = getattr(database, "shard_count", 1)
        if count and count > 0:
            self._map_for(count)
        self._batch_version = database.version
        return super().execute(session, queries, engine)

    def _submit_shard(
        self, query: Query, tree, index: int, fanout: str, version: int
    ):
        """Pipelined first attempt: submit to the first usable replica
        so every worker is busy before any result is awaited.  The
        task dict carries the chain so gathering can fail over."""
        chain = self._replica_chain(index)
        task = {
            "chain": chain,
            "pos": len(chain),
            "worker": None,
            "future": None,
            "attempted": 0,
        }
        for pos, worker_index in enumerate(chain):
            if not self._eligible(worker_index):
                continue
            if task["attempted"]:
                self.retries += 1
                self._tag(worker_index, "retries")
            task["attempted"] += 1
            remote = self._usable_session(
                worker_index, version, shard=index
            )
            if remote is None:
                continue
            try:
                future = remote.submit_shard(query, tree, index, fanout)
            except NetError as exc:
                self._record_failure(worker_index, exc)
                continue
            self.remote_tasks += 1
            task.update(pos=pos, worker=worker_index, future=future)
            break
        return task

    def _submit_full(self, query: Query, tree, version: int):
        chain = self._full_chain()
        task = {
            "chain": chain,
            "pos": len(chain),
            "worker": None,
            "future": None,
            "attempted": 0,
        }
        for pos, worker_index in enumerate(chain):
            if not self._eligible(worker_index):
                continue
            if task["attempted"]:
                self.retries += 1
                self._tag(worker_index, "retries")
            task["attempted"] += 1
            remote = self._usable_session(worker_index, version)
            if remote is None:
                continue
            try:
                future = remote.submit_execute(query, tree)
            except NetError as exc:
                self._record_failure(worker_index, exc)
                continue
            self.remote_tasks += 1
            task.update(pos=pos, worker=worker_index, future=future)
            break
        return task

    def _await_first(self, task):
        """Resolve the pipelined first attempt of a task, or None."""
        future = task["future"]
        if future is None:
            return None
        worker_index = task["worker"]
        try:
            seconds, fr, spans = future.result(self.attempt_timeout)
        except (NetError, TimeoutError, _FutureTimeout, OSError) as exc:
            self._record_failure(worker_index, exc)
            return None
        self._record_success(worker_index)
        return seconds, fr, worker_index, spans

    def _retry_chain(self, task, version, shard, submit_fn):
        """Walk the remaining replicas with backoff; each retry runs
        under a ``remote[i]:retry`` span so a trace shows exactly
        where the failover went."""
        attempted = task["attempted"]
        for pos in range(task["pos"] + 1, len(task["chain"])):
            worker_index = task["chain"][pos]
            if not self._eligible(worker_index):
                continue
            self.retries += 1
            self._tag(worker_index, "retries")
            self._backoff_sleep(attempted)
            attempted += 1
            with obs_trace.span(
                f"remote[{worker_index}]:retry",
                shard=shard,
                attempt=attempted,
            ):
                outcome = self._attempt_sync(
                    worker_index, version, shard, submit_fn
                )
            if outcome is not None:
                return outcome
        return None

    def _attempt_sync(self, worker_index, version, shard, submit_fn):
        """One synchronous attempt against one worker."""
        remote = self._usable_session(worker_index, version, shard)
        if remote is None:
            return None
        try:
            future = submit_fn(remote)
        except NetError as exc:
            self._record_failure(worker_index, exc)
            return None
        self.remote_tasks += 1
        try:
            seconds, fr, spans = future.result(self.attempt_timeout)
        except (NetError, TimeoutError, _FutureTimeout, OSError) as exc:
            self._record_failure(worker_index, exc)
            return None
        self._record_success(worker_index)
        return seconds, fr, worker_index, spans

    def _gather_shard(
        self, session, query: Query, tree, index: int, fanout: str, task
    ):
        version = session.database.version
        outcome = self._await_first(task)
        if outcome is None:
            outcome = self._retry_chain(
                task,
                version,
                index,
                lambda remote: remote.submit_shard(
                    query, tree, index, fanout
                ),
            )
        if outcome is not None:
            seconds, part, worker_index, spans = outcome
            self._absorb_spans(worker_index, spans)
            return seconds, part
        # Every replica of this shard is down: evaluate locally, and
        # say so -- an explicit span plus counter, because a silently
        # degraded cluster is one coordinator doing all the work.
        chain_keys = [self._keys[i] for i in task["chain"]]
        self.flight.record(
            "retry-exhausted", shard=index, chain=chain_keys
        )
        self.degrade_to_local += 1
        self.local_fallbacks += 1
        for key in chain_keys:
            self._tag(key, "degrade_to_local")
        self.flight.record(
            "degrade-to-local", shard=index, chain=chain_keys
        )
        with obs_trace.span("degrade-to-local", shard=index):
            return worker_mod.timed_call(
                worker_mod.evaluate_shard,
                session.database,
                session.check_invariants,
                query,
                tree,
                index,
                fanout,
            )

    def _gather_full(self, session, query: Query, tree, task):
        version = session.database.version
        outcome = self._await_first(task)
        if outcome is None:
            outcome = self._retry_chain(
                task,
                version,
                None,
                lambda remote: remote.submit_execute(query, tree),
            )
        if outcome is not None:
            seconds, fr, worker_index, spans = outcome
            self._absorb_spans(worker_index, spans)
            return seconds, fr
        chain_keys = [self._keys[i] for i in task["chain"]]
        self.flight.record("retry-exhausted", chain=chain_keys)
        self.degrade_to_local += 1
        self.local_fallbacks += 1
        for key in chain_keys:
            self._tag(key, "degrade_to_local")
        self.flight.record("degrade-to-local", chain=chain_keys)
        with obs_trace.span("degrade-to-local"):
            return worker_mod.timed_call(
                worker_mod.evaluate_full,
                session.database,
                session.check_invariants,
                query,
                tree,
            )
