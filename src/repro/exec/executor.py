"""Executors: the strategy objects that run compiled queries.

The serving layer (:mod:`repro.service`) owns *what* to run -- plan
caching, deduplication, fallback routing -- and delegates *how* to run
it to an :class:`Executor`.  Every executor evaluates through the one
loop of :meth:`Executor.execute` (plans, explosion fallback, result
cache, one whole-query task or one task per shard, union, cache,
projection); the subclasses keep only where a task runs:

- :class:`SerialExecutor` runs each query as one task in the calling
  process, a :class:`~repro.storage.ShardedDatabase` through its
  merged view (the semantics this repository always had);
- :class:`ParallelExecutor` submits to a process pool (thread pool
  where processes are unavailable): cache-missed queries are
  *compiled* in parallel (Figure 9: the optimiser dominates per-query
  cost, so parallelising it is what moves throughput), then evaluated
  in parallel -- per query on a flat database, per (query, shard) on a
  sharded one, whose partial factorised results are unioned via
  :mod:`repro.ops.union` before projection;
- :class:`repro.net.RemoteExecutor` and
  :class:`repro.net.ReplicatedExecutor` submit to shard-worker servers
  over the wire.

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
from typing import List, Optional, Sequence, Tuple

from repro.exec import worker
from repro.obs import trace as obs_trace
from repro.query.query import Query
from repro.storage.sharded import ShardedDatabase

#: Accepted ``pool`` arguments for :class:`ParallelExecutor`.
POOL_KINDS = ("auto", "process", "thread")


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


#: Runs in-caller work (serial tasks, coordinator-side compiles) as
#: finished futures; stateless, so one serves every executor.
_CALLER = _CallerPool()


def _in_caller(fn, *args) -> Tuple[float, object, List[dict]]:
    """A task run in the caller's own trace: its spans are already
    recorded, so it hands back none."""
    seconds, result = worker.timed_call(fn, *args)
    return seconds, result, []


class Executor:
    """How a session evaluates its (already deduplicated) queries.

    :meth:`execute` is the whole evaluation sequence, shared by every
    executor.  Its ``session`` argument is a
    :class:`~repro.service.session.QuerySession`; the loop uses its
    documented executor hooks (``lookup_plan`` / ``store_plan`` /
    ``_optimise`` / ``_would_explode`` / ``_fallback_result`` /
    ``_flat_result`` / ``_sqlite_result`` / ``_serve_cached`` /
    ``_cache_result`` / ``_wrap_fdb_result``) and never touches
    engines directly.

    A subclass says only how a task is submitted and gathered:

    - ``_prepare(session)`` -- per-call setup before any submission;
    - ``_submit_compile(session, query)`` -> a future of the f-tree
      (default: the session's optimiser, in the caller);
    - ``_submit(session, query, tree, shard=None, fanout=None)`` -> a
      pending task: the whole query, or one shard, unprojected;
    - ``_gather(pending)`` -> ``(seconds, result)`` (default: a future
      of :func:`~repro.exec.worker.traced_call`'s triple);

    plus two fixed properties, :attr:`fans_out` and :attr:`times_add`.
    """

    name = "base"
    #: Evaluate a :class:`~repro.storage.ShardedDatabase` as one task
    #: per (query, shard) and union the parts; ``False`` evaluates its
    #: merged view as one whole-query task.
    fans_out = True
    #: Whether one query's task times add up (the tasks ran back to
    #: back on the caller) rather than overlap.
    times_add = False

    def execute(self, session, queries: Sequence[Query], engine: str):
        """Evaluate ``queries`` (unique within the call), returning
        results in order."""
        if engine == "flat":
            return [
                session._flat_result(q, time.perf_counter(), cached=False)
                for q in queries
            ]
        if engine == "sqlite":
            return [
                session._sqlite_result(q, time.perf_counter())
                for q in queries
            ]
        if not queries:
            return []
        self._prepare(session)
        database = session.database
        shards = (
            database.shard_count
            if self.fans_out and isinstance(database, ShardedDatabase)
            else 1
        )

        # Plans.  A miss is validated here, so a schema error raises in
        # the caller and not inside a task, then compiled; the misses
        # resolve as one wave.  ``planning`` is each query's own share
        # of the caller's clock (lookup, plus a compile run in the
        # caller), never its wait on the shared wave.
        plans: List = []
        planning: List[float] = []
        misses: List[Tuple[int, Future]] = []
        for i, query in enumerate(queries):
            start = time.perf_counter()
            plans.append(session.lookup_plan(query))
            if plans[i] is None:
                query.validate_against(database.schema())
                misses.append((i, self._submit_compile(session, query)))
            planning.append(time.perf_counter() - start)
        hits = [plan is not None for plan in plans]
        if misses:
            with obs_trace.span("compile-wave", misses=len(misses)):
                for i, future in misses:
                    plans[i] = session.store_plan(
                        queries[i], future.result()
                    )

        # Fan out: every task is submitted before the first is awaited.
        # Explosion fallbacks run on the flat engine in the gather loop;
        # a warm (or caught-up) result-cache entry needs no task.
        jobs: List[Tuple[str, object]] = []
        for query, plan in zip(queries, plans):
            if engine == "auto" and session._would_explode(plan):
                jobs.append(("fallback", None))
                continue
            start = time.perf_counter()
            with obs_trace.span("result-cache"):
                served = session._serve_cached(query)
            if served is not None:
                jobs.append(
                    ("served", (time.perf_counter() - start, served))
                )
            elif shards > 1:
                fanout = database.fanout_relation(query.relations)
                tasks = [
                    self._submit(session, query, plan.tree, s, fanout)
                    for s in range(shards)
                ]
                jobs.append(("tasks", tasks))
            else:
                jobs.append(
                    ("tasks", [self._submit(session, query, plan.tree)])
                )

        # Gather.  ``elapsed`` is the query's planning share plus its
        # evaluation: task times (summed where they ran back to back,
        # else the slowest) and recombination.  Queueing behind other
        # queries and the shared compile wave are excluded.
        results = []
        for query, plan, hit, planned, (kind, payload) in zip(
            queries, plans, hits, planning, jobs
        ):
            if kind == "fallback":
                results.append(
                    session._fallback_result(
                        query, time.perf_counter() - planned, cached=hit
                    )
                )
                continue
            if kind == "served":
                seconds, fr = payload
                results.append(
                    session._wrap_fdb_result(
                        query, fr, cached=True, elapsed=planned + seconds
                    )
                )
                continue
            parts = [self._gather(pending) for pending in payload]
            start = time.perf_counter()
            if len(parts) == 1:
                fr = parts[0][1]
            else:
                fr = worker.combine_shards(
                    [part for _, part in parts],
                    query,
                    session.check_invariants,
                    project=False,
                )
            session._cache_result(query, plan.tree, fr)
            fr = worker.project_result(
                fr, query, session.check_invariants
            )
            total = sum if self.times_add else max
            elapsed = (
                planned
                + total(seconds for seconds, _ in parts)
                + (time.perf_counter() - start)
            )
            results.append(
                session._wrap_fdb_result(
                    query, fr, cached=hit, elapsed=elapsed
                )
            )
        return results

    # -- the submit / gather hooks -----------------------------------------

    def _prepare(self, session) -> None:
        """Per-call setup before the first submission."""

    def _submit_compile(self, session, query: Query) -> Future:
        return _CALLER.submit(session._optimise, query)

    def _submit(
        self,
        session,
        query: Query,
        tree,
        shard: Optional[int] = None,
        fanout: Optional[str] = None,
    ):
        raise NotImplementedError

    def _gather(self, pending) -> Tuple[float, object]:
        seconds, fr, records = pending.result()
        trace = obs_trace.current()
        if trace is not None and records:
            trace.extend(records, prefix="worker:")
        return seconds, fr

    # -- lifecycle ---------------------------------------------------------

    def invalidate(self) -> None:
        """The session's database version moved; drop derived state."""

    def close(self) -> None:
        """Release pools and other resources (idempotent)."""

    def describe(self) -> str:
        return self.name


class SerialExecutor(Executor):
    """One query at a time, in-process -- the reference semantics.

    A :class:`~repro.storage.ShardedDatabase` is evaluated through its
    merged view, one task per query: in the caller, fanning out would
    only add the union's cost.
    """

    name = "serial"
    fans_out = False
    times_add = True

    def _submit(self, session, query, tree, shard=None, fanout=None):
        return _CALLER.submit(
            _in_caller,
            worker.evaluate_join,
            session.database,
            session.check_invariants,
            query,
            tree,
        )


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
    parallelised -- they run on the caller.
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

    def _prepare(self, session) -> None:
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

    @property
    def times_add(self) -> bool:
        return isinstance(self._pool, _CallerPool)

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

    def _submit(self, session, query, tree, shard=None, fanout=None):
        # The active trace context (a plain dict) rides along so
        # worker-side spans come back correlated.
        ctx = obs_trace.context()
        if self.pool_kind == "process":
            return self._pool.submit(
                worker.pool_task, ctx, query, tree, shard, fanout
            )
        return self._pool.submit(
            partial(
                worker.traced_call,
                ctx,
                worker.evaluate,
                session.database,
                session.check_invariants,
                query,
                tree,
                shard,
                fanout,
            )
        )
