"""Multi-host shard execution: the executor loop over the wire.

:class:`RemoteExecutor` closes the ROADMAP's "distributing shards over
multiple hosts" item.  It is an :class:`~repro.exec.Executor`, so a
:class:`~repro.service.session.QuerySession` adopts it like any other
(``QuerySession(db, executor=RemoteExecutor([...]))``): plans, the
result cache, the union and the projection run in the coordinator
through the one loop of :meth:`~repro.exec.Executor.execute`, and only
the tasks travel -- the ``shard`` / ``execute`` half of the wire
protocol, to a fleet of *shard workers*: ordinary ``repro serve``
processes, each of which loaded the same sharded database from its
per-shard FDBP files (``repro serve --db saved-dir/``).

- each (query, shard) task goes to the shard's *chain* of workers --
  here every worker, starting at ``workers[s % n]``; the worker
  evaluates the shard view **without** projection and returns the part
  factorised;
- on an *unsharded* database whole queries round-robin across workers
  (``execute`` messages), equally unprojected;
- the coordinator unions, caches and projects exactly as in-process
  execution does, so the differential guarantees carry over.

This module is the whole wire path;
:class:`~repro.net.cluster.ReplicatedExecutor` only swaps the chain for
a consistent-hash ring of R replicas per shard.  Along a chain:

- a failed attempt (connection loss, timeout) **retries on the next
  worker**, after a jittered exponential backoff, under a
  ``remote[i]:retry`` span;
- a worker that fails is **quarantined** (the window doubles per
  consecutive failure); when the window expires the next attempt is
  the half-open probe that restores it or quarantines it for longer;
- an error the worker *answered* with is classified by the server's
  error type (:attr:`~repro.net.client.NetError.server_type`): an
  ``OwnershipError`` is a routing miss, anything else a worker error;
  neither quarantines;
- a worker serving another database version is skipped for the batch
  and re-probed on the next;
- only when the whole chain failed does the task run on the
  coordinator's own copy of the database -- the answer is identical,
  only slower -- and then loudly: a span, the ``degrade_to_local``
  counter and ``retry-exhausted`` / ``degrade-to-local`` flight events.
  A fleet of zero live workers degrades to local execution, never to
  an error.

Counters surface through the session registry's ``cluster`` and
``flight`` namespaces (``registry.snapshot()``, ``repro stats`` and
the Prometheus endpoint).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import worker
from repro.exec.executor import Executor
from repro.net.client import Address, NetError, RemoteSession, parse_address
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder
from repro.query.query import Query


@dataclass
class _Task:
    """One task's walk down its worker chain."""

    query: Query
    tree: Any
    shard: Optional[int]
    fanout: Optional[str]
    chain: List[int]
    #: The coordinator-side evaluation: ``() -> (seconds, result)``.
    local: Callable[[], Tuple[float, Any]]
    #: Chain position of the pipelined first attempt (``len(chain)``
    #: when no worker took it: every eligible one already failed).
    pos: int = 0
    worker: Optional[int] = None
    future: Optional[Future] = None
    attempts: int = 0


class RemoteExecutor(Executor):
    """Fan (query, shard) evaluation out over shard-worker servers.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        tuples).  Connections are opened lazily and re-used.
    timeout:
        Seconds to wait for each remote evaluation before the next
        worker of the chain is tried.
    connect_timeout:
        Seconds to wait for each worker connect + hello.
    """

    name = "remote"

    #: Retry and quarantine tuning; ReplicatedExecutor takes each as a
    #: constructor option.
    backoff_base = 0.05
    backoff_cap = 2.0
    backoff_jitter = 0.5
    quarantine_seconds = 5.0
    quarantine_cap = 60.0
    #: Span wrapping a task the coordinator evaluated itself:
    #: ``(whole query, shard)``.
    degrade_spans = ("execute-local-fallback", "shard-local-fallback")

    def __init__(
        self,
        workers: Sequence[Address],
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
    ) -> None:
        if not workers:
            raise ValueError(f"{type(self).__name__} needs a worker")
        self.addresses: List[Tuple[str, int]] = [
            parse_address(w) for w in workers
        ]
        self._keys = [f"{h}:{p}" for h, p in self.addresses]
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: Per-attempt wait; a task's total budget is roughly the chain
        #: length times (attempt_timeout + backoff).
        self.attempt_timeout = timeout
        self.replication_factor = len(self.addresses)
        self._rng = random.Random()
        n = len(self.addresses)
        self._sessions: List[Optional[RemoteSession]] = [None] * n
        self._quarantined_until = [0.0] * n
        self._quarantine_streak = [0] * n
        self._version_skew = [False] * n
        self._batch_version: Optional[int] = None
        self._registry = None
        #: Monotone counters.
        self.remote_tasks = 0
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
        #: The same fault counters attributed per worker address, so a
        #: multi-worker incident names its victims instead of only a
        #: fleet-wide aggregate.
        self._per_worker: Dict[str, Dict[str, int]] = {}
        #: The coordinator-side fault narrative (see repro.obs.flight).
        self.flight = FlightRecorder()

    # -- fleet state -------------------------------------------------------

    @property
    def local_fallbacks(self) -> int:
        """Tasks the coordinator evaluated itself."""
        return self.degrade_to_local

    @property
    def live_workers(self) -> int:
        now = time.monotonic()
        return sum(
            1 for until in self._quarantined_until if until <= now
        )

    @property
    def quarantined_workers(self) -> int:
        return len(self.addresses) - self.live_workers

    def describe(self) -> str:
        return (
            f"remote ({len(self.addresses)} workers, "
            f"{self.live_workers} live)"
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

    def invalidate(self) -> None:
        """Database version moved: drop connections so the version
        check re-runs against each worker's hello."""
        for index, session in enumerate(self._sessions):
            self._sessions[index] = None
            if session is not None:
                session.close()
        self._version_skew = [False] * len(self.addresses)

    def close(self) -> None:
        self.invalidate()

    def _chain(self, shard: Optional[int]) -> List[int]:
        """Worker indices to try for a task, in preference order: every
        worker, from ``shard % n`` for a shard, round-robin for a whole
        query."""
        n = len(self.addresses)
        start = self.remote_tasks if shard is None else shard
        return [(start + k) % n for k in range(n)]

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
        server_type = getattr(exc, "server_type", None)
        if server_type == "OwnershipError":
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
        elif server_type is not None:
            # The worker answered -- with an error.  It is alive;
            # others may still succeed (their state can differ), and
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
        self, index: int, shard: Optional[int]
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
        if session.server_info.get("db_version") != self._batch_version:
            # Alive but serving another snapshot; using it would mix
            # database versions.  Skip it for this batch: a worker that
            # reloads (or a coordinator that catches up) comes back.
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

    # -- the submit / gather hooks -----------------------------------------

    def _prepare(self, session) -> None:
        registry = session.registry
        if registry is not self._registry:
            registry.register("cluster", self.counters)
            registry.register("flight", self.flight.counters)
            self._registry = registry
        # Version-skew marks are per batch: a worker that reloaded
        # since the last batch deserves a fresh hello.
        self._version_skew = [False] * len(self.addresses)
        self._batch_version = session.database.version

    def _submit(
        self,
        session,
        query: Query,
        tree,
        shard: Optional[int] = None,
        fanout: Optional[str] = None,
    ) -> _Task:
        """Pipelined first attempt: submit to the first usable worker
        of the chain, so every worker is busy before any result is
        awaited; gathering walks on from there."""
        chain = self._chain(shard)
        task = _Task(
            query,
            tree,
            shard,
            fanout,
            chain,
            partial(
                worker.timed_call,
                worker.evaluate,
                session.database,
                session.check_invariants,
                query,
                tree,
                shard,
                fanout,
            ),
            pos=len(chain),
        )
        for pos, index in enumerate(chain):
            if not self._eligible(index):
                continue
            if task.attempts:
                self.retries += 1
                self._tag(index, "retries")
            task.attempts += 1
            future = self._send(index, task)
            if future is not None:
                task.pos, task.worker, task.future = pos, index, future
                break
        return task

    def _gather(self, task: _Task) -> Tuple[float, Any]:
        outcome = None
        if task.future is not None:
            outcome = self._await(task.worker, task.future)
        return outcome or self._retry(task) or self._degrade(task)

    def _send(self, index: int, task: _Task) -> Optional[Future]:
        """Submit ``task`` to worker ``index``; ``None`` when it could
        not be sent (health state updated)."""
        remote = self._usable_session(index, task.shard)
        if remote is None:
            return None
        try:
            if task.shard is None:
                future = remote.submit_execute(task.query, task.tree)
            else:
                future = remote.submit_shard(
                    task.query, task.tree, task.shard, task.fanout
                )
        except NetError as exc:
            self._record_failure(index, exc)
            return None
        self.remote_tasks += 1
        return future

    def _await(self, index: int, future: Future):
        """One attempt's ``(seconds, result)``, its worker-side spans
        merged into the active trace prefixed ``remote[i]:``; ``None``
        when it failed (health state updated)."""
        try:
            seconds, fr, spans = future.result(self.attempt_timeout)
        except (NetError, TimeoutError, _FutureTimeout, OSError) as exc:
            self._record_failure(index, exc)
            return None
        self._record_success(index)
        trace = obs_trace.current()
        if trace is not None and spans:
            trace.extend(spans, prefix=f"remote[{index}]:")
        return seconds, fr

    def _retry(self, task: _Task):
        """Walk the rest of the chain with backoff, one synchronous
        attempt per worker, each under a ``remote[i]:retry`` span so a
        trace shows exactly where the failover went."""
        attempts = task.attempts
        outcome = None
        for index in task.chain[task.pos + 1 :]:
            if not self._eligible(index):
                continue
            self.retries += 1
            self._tag(index, "retries")
            self._backoff_sleep(attempts)
            attempts += 1
            with obs_trace.span(
                f"remote[{index}]:retry", shard=task.shard, attempt=attempts
            ):
                future = self._send(index, task)
                if future is not None:
                    outcome = self._await(index, future)
            if outcome is not None:
                break
        return outcome

    def _degrade(self, task: _Task) -> Tuple[float, Any]:
        """The whole chain failed: evaluate on the coordinator, and say
        so -- a span, a counter and flight events, because a silently
        degraded fleet is one coordinator doing all the work."""
        chain = [self._keys[i] for i in task.chain]
        where = {} if task.shard is None else {"shard": task.shard}
        self.flight.record("retry-exhausted", chain=chain, **where)
        self.degrade_to_local += 1
        for key in chain:
            self._tag(key, "degrade_to_local")
        self.flight.record("degrade-to-local", chain=chain, **where)
        with obs_trace.span(
            self.degrade_spans[task.shard is not None], **where
        ):
            return task.local()
