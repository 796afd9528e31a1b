"""Executors: the strategy objects that run compiled queries.

The serving layer (:mod:`repro.service`) owns *what* to run -- plan
caching, deduplication, fallback routing -- and delegates *how* to run
it to an :class:`Executor`:

- :class:`SerialExecutor` evaluates one query at a time in the calling
  process (the semantics this repository always had);
- :class:`ParallelExecutor` fans work out over a process pool (thread
  pool where processes are unavailable): cache-missed queries are
  *compiled* in parallel (Figure 9: the optimiser dominates per-query
  cost, so parallelising it is what moves throughput), then executed
  in parallel -- per query on a flat database, per (query, shard) on a
  :class:`~repro.storage.ShardedDatabase`, whose partial factorised
  results are unioned via :mod:`repro.ops.union` before projection.

Executors never construct result objects themselves; they hand
factorised results back through the session's wrapper hooks, keeping
the layering storage -> execution -> serving acyclic.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import worker
from repro.obs import trace as obs_trace
from repro.query.query import Query
from repro.storage.sharded import ShardedDatabase

#: Accepted ``pool`` arguments for :class:`ParallelExecutor`.
POOL_KINDS = ("auto", "process", "thread")


class Executor:
    """How a session evaluates its (already deduplicated) queries.

    The ``session`` argument of :meth:`execute` is a
    :class:`~repro.service.session.QuerySession`; executors use its
    documented executor hooks (``lookup_plan`` / ``store_plan`` /
    ``_execute_serial`` / ``_wrap_fdb_result`` / ``_fallback_result``
    / ``_serve_cached`` / ``_cache_result``) and never touch engines
    directly.
    """

    name = "base"

    def execute(self, session, queries: Sequence[Query], engine: str):
        """Evaluate ``queries`` (unique within the call), returning
        results in order."""
        raise NotImplementedError

    def invalidate(self) -> None:
        """The session's database version moved; drop derived state."""

    def close(self) -> None:
        """Release pools and other resources (idempotent)."""

    def describe(self) -> str:
        return self.name


class SerialExecutor(Executor):
    """One query at a time, in-process -- the reference semantics."""

    name = "serial"

    def execute(self, session, queries: Sequence[Query], engine: str):
        return [
            session._execute_serial(query, engine) for query in queries
        ]


class _CallerPool:
    """A thread pool of one worker, run by the thread that submits.

    A coordinator that hands each task to a lone worker thread and
    sleeps until it is done evaluates in exactly the order a loop
    would, plus two thread switches per wave whose latency is the
    operating system's and varies with the load on the machine.
    ``submit`` therefore runs the task at once and returns its
    finished future, errors included.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(
        self, wait: bool = True, cancel_futures: bool = False
    ) -> None:
        pass


class ParallelExecutor(Executor):
    """Fan queries (and shards) out over a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.
    pool:
        ``"process"`` (real parallelism; the database snapshot is
        shipped to each worker once per version), ``"thread"``
        (correctness-only fallback, GIL-bound; a pool of one thread
        is the calling thread), or ``"auto"`` (probe for process
        support, fall back to threads).

    The pool is built lazily against a ``(database, version)`` token
    and discarded whenever the version moves, so workers never serve
    stale snapshots.  ``flat`` and ``sqlite`` engine requests are not
    parallelised -- they run through the session's serial path.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        pool: str = "auto",
    ) -> None:
        if pool not in POOL_KINDS:
            raise ValueError(
                f"unknown pool kind {pool!r}; pick one of {POOL_KINDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or min(os.cpu_count() or 2, 8)
        self.requested_pool = pool
        #: Resolved pool kind ("process"/"thread"), set on first use.
        self.pool_kind: Optional[str] = None
        self._pool = None
        self._token: Optional[Tuple[int, int]] = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self, session) -> None:
        token = (id(session.database), session.database.version)
        if self._pool is not None and self._token == token:
            return
        self.close()
        if self.requested_pool in ("auto", "process"):
            pool = None
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=worker.init_worker,
                    initargs=(
                        session.database,
                        session.plan_search,
                        session.cost_model,
                        session.check_invariants,
                    ),
                )
                pool.submit(worker.ping).result(timeout=60)
                self._pool, self.pool_kind = pool, "process"
            except Exception:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                if self.requested_pool == "process":
                    raise
                self._pool = self._thread_pool()
                self.pool_kind = "thread"
        else:
            self._pool = self._thread_pool()
            self.pool_kind = "thread"
        self._token = token

    def _thread_pool(self):
        if self.max_workers == 1:
            return _CallerPool()
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def invalidate(self) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._token = None

    def describe(self) -> str:
        kind = self.pool_kind or self.requested_pool
        return f"parallel ({kind} pool, {self.max_workers} workers)"

    # -- task submission (process pools use the shipped snapshot) ----------

    def _submit_compile(self, session, query: Query) -> Future:
        if self.pool_kind == "process":
            return self._pool.submit(worker.compile_task, query)
        return self._pool.submit(
            partial(
                worker.compile_direct,
                session.database,
                session.plan_search,
                session.cost_model,
                session.check_invariants,
                query,
                statistics=session._fdb._stats,
            )
        )

    def _submit_full(self, session, query: Query, tree) -> Future:
        # Workers return the *unprojected* join result; the
        # coordinator caches it for delta maintenance, then projects.
        # The active trace context (a plain dict) rides along so
        # worker-side spans come back correlated.
        ctx = obs_trace.context()
        if self.pool_kind == "process":
            return self._pool.submit(worker.join_task, query, tree, ctx)
        return self._pool.submit(
            partial(
                worker.traced_call,
                ctx,
                worker.evaluate_join,
                session.database,
                session.check_invariants,
                query,
                tree,
            )
        )

    def _submit_shard(
        self, session, query: Query, tree, index: int, fanout: str
    ) -> Future:
        ctx = obs_trace.context()
        if self.pool_kind == "process":
            return self._pool.submit(
                worker.shard_task, query, tree, index, fanout, ctx
            )
        return self._pool.submit(
            partial(
                worker.traced_call,
                ctx,
                worker.evaluate_shard,
                session.database,
                session.check_invariants,
                query,
                tree,
                index,
                fanout,
            )
        )

    # -- execution ---------------------------------------------------------

    def execute(self, session, queries: Sequence[Query], engine: str):
        if not queries:
            return []
        if engine in ("flat", "sqlite"):
            # Nothing to parallelise: these engines exist as cross
            # checks, not throughput paths.
            return [
                session._execute_serial(query, engine)
                for query in queries
            ]
        self._ensure_pool(session)

        # Wave 1: compile every cache miss concurrently.  Validation
        # stays in the coordinator so schema errors raise in the
        # caller, not inside a worker.
        plans: Dict[int, Tuple[object, bool]] = {}
        pending: List[Tuple[int, Future]] = []
        for i, query in enumerate(queries):
            plan = session.lookup_plan(query)
            if plan is not None:
                plans[i] = (plan, True)
            else:
                query.validate_against(session.database.schema())
                pending.append((i, self._submit_compile(session, query)))
        if pending:
            with obs_trace.span("compile-wave", misses=len(pending)):
                for i, future in pending:
                    plans[i] = (
                        session.store_plan(queries[i], future.result()),
                        False,
                    )

        # Wave 2: fan execution out -- per query, or per (query, shard)
        # on a sharded store.  Explosion fallbacks run serially in the
        # coordinator (they are flat-engine work by definition).
        database = session.database
        sharded = (
            isinstance(database, ShardedDatabase)
            and database.shard_count > 1
        )
        jobs: List[Tuple[str, object]] = []
        for i, query in enumerate(queries):
            plan, hit = plans[i]
            if engine == "auto" and session._would_explode(plan):
                jobs.append(("fallback", None))
                continue
            # Delta-maintained result cache: a warm (or caught-up)
            # entry skips evaluation entirely -- nothing to fan out.
            serve_start = time.perf_counter()
            served = session._serve_cached(query)
            if served is not None:
                jobs.append(
                    ("served", (served, time.perf_counter() - serve_start))
                )
            elif sharded:
                fanout = database.fanout_relation(query.relations)
                jobs.append(
                    (
                        "shards",
                        [
                            self._submit_shard(
                                session, query, plan.tree, s, fanout
                            )
                            for s in range(database.shard_count)
                        ],
                    )
                )
            else:
                jobs.append(
                    ("full", self._submit_full(session, query, plan.tree))
                )

        # Gather.  Reported ``elapsed`` is evaluation time only --
        # worker-side for full tasks, critical path (slowest shard, or
        # all shards where the pool runs them on the caller) plus
        # recombination for sharded ones; queueing behind other
        # queries and the shared compile wave are excluded, keeping
        # per-query numbers comparable with the serial executor's.
        results = []
        for i, query in enumerate(queries):
            plan, hit = plans[i]
            kind, payload = jobs[i]
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
            trace = obs_trace.current()
            if kind == "full":
                elapsed, fr, records = payload.result()
                if trace is not None and records:
                    trace.extend(records, prefix="worker:")
                finish_start = time.perf_counter()
                session._cache_result(query, plan.tree, fr)
                fr = worker.project_result(
                    fr, query, session.check_invariants
                )
                elapsed += time.perf_counter() - finish_start
            else:
                parts = [future.result() for future in payload]
                if trace is not None:
                    for _, _, records in parts:
                        if records:
                            trace.extend(records, prefix="worker:")
                combine_start = time.perf_counter()
                fr = worker.combine_shards(
                    [part for _, part, _ in parts],
                    query,
                    session.check_invariants,
                    project=False,
                )
                session._cache_result(query, plan.tree, fr)
                fr = worker.project_result(
                    fr, query, session.check_invariants
                )
                # A caller-run pool evaluates the shards back to back:
                # their times add up instead of overlapping.
                overlap = sum if isinstance(self._pool, _CallerPool) else max
                elapsed = overlap(seconds for seconds, _, _ in parts) + (
                    time.perf_counter() - combine_start
                )
            results.append(
                session._wrap_fdb_result(
                    query, fr, cached=hit, elapsed=elapsed
                )
            )
        return results
