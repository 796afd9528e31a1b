"""Multi-host shard execution: ``ParallelExecutor`` over the wire.

:class:`RemoteExecutor` closes the ROADMAP's "distributing shards over
multiple hosts" item.  It is an :class:`~repro.exec.Executor`, so a
:class:`~repro.service.session.QuerySession` adopts it like any other
(``QuerySession(db, executor=RemoteExecutor([...]))``), and it speaks
the ``shard`` / ``execute`` half of the wire protocol to a fleet of
*shard workers* -- ordinary ``repro serve`` processes, each of which
loaded the same sharded database from its per-shard FDBP files
(``repro serve --db saved-dir/``).

The execution contract is exactly
:class:`~repro.exec.ParallelExecutor`'s, with hosts in place of pool
processes:

- plans are compiled once in the coordinator (cache- and store-aware,
  via the session's ``compile`` hook);
- each (query, shard) pair fans out to the worker that owns the shard
  (``shard s -> workers[s % n]`` by default); the worker evaluates the
  shard view **without** projection and returns the partial result
  factorised;
- the coordinator recombines the parts with
  :func:`repro.ops.union.union_all` and applies the projection once --
  the same recombination, so the differential guarantees carry over;
- on an *unsharded* database, whole queries round-robin across
  workers instead (``execute`` messages, projection applied remotely).

Degradation: a worker that cannot be reached (dead on connect, lost
mid-query, or serving a different database version) is marked lost and
its work is **re-executed locally** on the coordinator's own copy of
the database -- the answer is identical, only slower -- and counted in
:attr:`RemoteExecutor.local_fallbacks`.  A fleet of zero live workers
therefore degrades to serial local execution, never to an error.
Connection loss is permanent until :meth:`RemoteExecutor.invalidate`;
a *version mismatch* is re-probed at every batch, because a worker
that reloads the right snapshot comes back on its own.

For replica-aware routing with retry/backoff/quarantine semantics --
the cluster tier proper -- see
:class:`repro.net.cluster.ReplicatedExecutor`, which builds on this
executor.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import List, Optional, Sequence, Tuple

from repro.exec import worker as worker_mod
from repro.exec.executor import Executor
from repro.net.client import Address, NetError, RemoteSession, parse_address
from repro.obs import trace as obs_trace
from repro.query.query import Query
from repro.storage.sharded import ShardedDatabase


class RemoteExecutor(Executor):
    """Fan (query, shard) evaluation out over shard-worker servers.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        tuples).  Connections are opened lazily and re-used.
    timeout:
        Seconds to wait for each remote evaluation before treating the
        worker as lost.
    connect_timeout:
        Seconds to wait for each worker connect + hello.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[Address],
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
    ) -> None:
        if not workers:
            raise ValueError("RemoteExecutor needs at least one worker")
        self.addresses: List[Tuple[str, int]] = [
            parse_address(w) for w in workers
        ]
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._sessions: List[Optional[RemoteSession]] = [None] * len(
            self.addresses
        )
        #: Per-worker loss state: False (live), "conn" (unreachable --
        #: permanent until invalidate()) or "version" (serving another
        #: database snapshot -- re-probed at the next batch, because a
        #: worker that reloads comes back on its own).
        self._lost: List[object] = [False] * len(self.addresses)
        #: Monotone counters.
        self.remote_tasks = 0
        self.local_fallbacks = 0
        self.lost_workers = 0

    # -- worker fleet ------------------------------------------------------

    @property
    def live_workers(self) -> int:
        return sum(1 for lost in self._lost if not lost)

    def describe(self) -> str:
        return (
            f"remote ({len(self.addresses)} workers, "
            f"{self.live_workers} live)"
        )

    def _mark_lost(self, index: int, reason: str = "conn") -> None:
        if not self._lost[index]:
            self._lost[index] = reason
            self.lost_workers += 1
        session = self._sessions[index]
        self._sessions[index] = None
        if session is not None:
            session.close()

    def _revive_version_mismatches(self) -> None:
        """Give version-mismatched workers a fresh chance this batch.

        A mismatch is transient by nature -- the worker may reload the
        right snapshot, or this coordinator may catch up to the
        worker's -- so pinning it dead for the executor's lifetime
        turned one stale hello into permanent local fallbacks.  The
        reconnect in :meth:`_session_for` re-checks the hello; a still-
        mismatched worker is simply marked again.
        """
        for index, reason in enumerate(self._lost):
            if reason == "version":
                self._lost[index] = False

    def _session_for(self, index: int, db_version: int):
        """A live, version-compatible connection to worker ``index``,
        or ``None``."""
        if self._lost[index]:
            return None
        session = self._sessions[index]
        if session is None or session.closed:
            try:
                session = RemoteSession(
                    self.addresses[index],
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                )
            except NetError:
                self._mark_lost(index)
                return None
            self._sessions[index] = session
        if session.server_info.get("db_version") != db_version:
            # The worker answers for a different snapshot; using it
            # would silently mix database versions.  Skip it for this
            # batch (re-probed next batch -- see
            # _revive_version_mismatches).
            self._mark_lost(index, "version")
            return None
        return session

    def _pick(self, preferred: int, db_version: int):
        """The preferred worker, else any live one: (index, session)."""
        n = len(self.addresses)
        for offset in range(n):
            index = (preferred + offset) % n
            session = self._session_for(index, db_version)
            if session is not None:
                return index, session
        return None, None

    def invalidate(self) -> None:
        """Database version moved: drop connections so the version
        check re-runs against each worker's hello."""
        for index, session in enumerate(self._sessions):
            self._sessions[index] = None
            if session is not None:
                session.close()

    def close(self) -> None:
        self.invalidate()

    # -- execution ---------------------------------------------------------

    def execute(self, session, queries: Sequence[Query], engine: str):
        if not queries:
            return []
        if engine in ("flat", "sqlite"):
            return [
                session._execute_serial(query, engine)
                for query in queries
            ]
        database = session.database
        version = database.version
        self._revive_version_mismatches()
        sharded = (
            isinstance(database, ShardedDatabase)
            and database.shard_count > 1
        )
        plans = [session.compile(query) for query in queries]

        # Fan out: submissions return futures, so every worker is busy
        # before the first result is awaited.
        jobs: List[Tuple[str, object]] = []
        for query, (plan, hit) in zip(queries, plans):
            if engine == "auto" and session._would_explode(plan):
                jobs.append(("fallback", None))
                continue
            # Delta-maintained result cache: a warm entry needs no
            # fan-out at all (catch-up runs on the coordinator).
            serve_start = time.perf_counter()
            served = session._serve_cached(query)
            if served is not None:
                jobs.append(
                    ("served", (served, time.perf_counter() - serve_start))
                )
            elif sharded:
                fanout = database.fanout_relation(query.relations)
                parts = [
                    self._submit_shard(
                        query, plan.tree, index, fanout, version
                    )
                    for index in range(database.shard_count)
                ]
                jobs.append(("shards", (fanout, parts)))
            else:
                jobs.append(
                    ("full", self._submit_full(query, plan.tree, version))
                )

        results = []
        for query, (plan, hit), (kind, payload) in zip(
            queries, plans, jobs
        ):
            if kind == "fallback":
                results.append(
                    session._fallback_result(
                        query, time.perf_counter(), cached=hit
                    )
                )
                continue
            if kind == "served":
                fr, elapsed = payload
                results.append(
                    session._wrap_fdb_result(
                        query, fr, cached=True, elapsed=elapsed
                    )
                )
                continue
            if kind == "full":
                # Whole-query results arrive projected from the
                # worker, so they cannot seed the (unprojected)
                # result cache; only the sharded path does.
                elapsed, fr = self._gather_full(
                    session, query, plan.tree, payload
                )
            else:
                fanout, submitted = payload
                parts: List = []
                slowest = 0.0
                for index, pending in enumerate(submitted):
                    seconds, part = self._gather_shard(
                        session, query, plan.tree, index, fanout, pending
                    )
                    slowest = max(slowest, seconds)
                    parts.append(part)
                combine_start = time.perf_counter()
                fr = worker_mod.combine_shards(
                    parts,
                    query,
                    session.check_invariants,
                    project=False,
                )
                session._cache_result(query, plan.tree, fr)
                fr = worker_mod.project_result(
                    fr, query, session.check_invariants
                )
                elapsed = slowest + (
                    time.perf_counter() - combine_start
                )
            results.append(
                session._wrap_fdb_result(
                    query, fr, cached=hit, elapsed=elapsed
                )
            )
        return results

    # -- submission / gathering with degradation ---------------------------

    def _submit_shard(
        self, query: Query, tree, index: int, fanout: str, version: int
    ):
        """(worker index, future) or None when no worker took it."""
        worker_index, remote = self._pick(index, version)
        if remote is None:
            return None
        try:
            future = remote.submit_shard(query, tree, index, fanout)
        except NetError:
            self._mark_lost(worker_index)
            return None
        self.remote_tasks += 1
        return worker_index, future

    def _submit_full(self, query: Query, tree, version: int):
        worker_index, remote = self._pick(self.remote_tasks, version)
        if remote is None:
            return None
        try:
            future = remote.submit_execute(query, tree)
        except NetError:
            self._mark_lost(worker_index)
            return None
        self.remote_tasks += 1
        return worker_index, future

    def _gather_shard(
        self, session, query: Query, tree, index: int, fanout: str, pending
    ):
        if pending is not None:
            worker_index, future = pending
            try:
                seconds, part, spans = future.result(self.timeout)
            except (NetError, TimeoutError, _FutureTimeout, OSError):
                self._mark_lost(worker_index)
            else:
                self._absorb_spans(worker_index, spans)
                return seconds, part
        # Degrade: evaluate this shard on the coordinator's own copy.
        # The fallback gets its own span so a trace shows *where* the
        # work really ran when a worker was lost.
        self.local_fallbacks += 1
        with obs_trace.span("shard-local-fallback", shard=index):
            return worker_mod.timed_call(
                worker_mod.evaluate_shard,
                session.database,
                session.check_invariants,
                query,
                tree,
                index,
                fanout,
            )

    def _gather_full(self, session, query: Query, tree, pending):
        if pending is not None:
            worker_index, future = pending
            try:
                seconds, fr, spans = future.result(self.timeout)
            except (NetError, TimeoutError, _FutureTimeout, OSError):
                self._mark_lost(worker_index)
            else:
                self._absorb_spans(worker_index, spans)
                return seconds, fr
        self.local_fallbacks += 1
        with obs_trace.span("execute-local-fallback"):
            return worker_mod.timed_call(
                worker_mod.evaluate_full,
                session.database,
                session.check_invariants,
                query,
                tree,
            )

    @staticmethod
    def _absorb_spans(worker_index: int, spans) -> None:
        """Merge one remote part's span records into the active trace,
        prefixed by the worker that produced them."""
        trace = obs_trace.current()
        if trace is not None and spans:
            trace.extend(spans, prefix=f"remote[{worker_index}]:")
