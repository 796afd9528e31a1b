"""Executors: where the tasks of a session's evaluation run.

The serving layer (:mod:`repro.service`) owns the evaluation: plan
caching, deduplication, fallback routing, the result cache, the union
and the projection all run in the one loop of
:class:`~repro.service.session.QuerySession`.  An :class:`Executor`
only *places* that loop's tasks -- f-tree compiles and evaluations of a
whole query or of one (query, shard) pair -- and gathers them back:

- :class:`SerialExecutor` runs each query as one task in the calling
  process, a :class:`~repro.storage.ShardedDatabase` through its
  merged view (the semantics this repository always had);
- :class:`ParallelExecutor` submits to a process pool (thread pool
  where processes are unavailable): cache-missed queries are
  *compiled* in parallel (Figure 9: the optimiser dominates per-query
  cost, so parallelising it is what moves throughput), then evaluated
  in parallel -- per query on a flat database, per (query, shard) on a
  sharded one, whose partial factorised results the session unions
  via :mod:`repro.ops.union` before projection;
- :class:`repro.net.RemoteExecutor` and
  :class:`repro.net.ReplicatedExecutor` submit to shard-worker servers
  over the wire.

An executor reads only the public ``database``, ``check_invariants``
and ``registry`` of the session it is handed, and never imports the
serving layer: the layering storage -> execution -> serving stays
acyclic.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from functools import partial
from typing import List, Optional, Tuple

from repro.exec import worker
from repro.obs import trace as obs_trace
from repro.query.query import Query

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
    """Where a session's tasks run.

    The session's evaluation loop calls, per batch of (already
    deduplicated) queries:

    - ``_prepare(session)`` -- per-call setup before any submission;
    - ``_submit_compile(session, query)`` -> a future of the f-tree
      (default: the optimiser, in the caller);
    - ``_submit(session, query, tree, shard=None, fanout=None)`` -> a
      pending task: the whole query, or one shard, unprojected;
    - ``_gather(pending)`` -> ``(seconds, result)`` (default: a future
      of :func:`~repro.exec.worker.traced_call`'s triple);

    and reads two fixed properties, :attr:`fans_out` and
    :attr:`times_add`.  A subclass overrides these and the lifecycle
    methods (:meth:`invalidate`, :meth:`close`, :meth:`describe`).
    """

    name = "base"
    #: Evaluate a :class:`~repro.storage.ShardedDatabase` as one task
    #: per (query, shard) and union the parts; ``False`` evaluates its
    #: merged view as one whole-query task.
    fans_out = True
    #: Whether one query's task times add up (the tasks ran back to
    #: back on the caller) rather than overlap.
    times_add = False

    # -- the submit / gather hooks -----------------------------------------

    def _prepare(self, session) -> None:
        """Per-call setup before the first submission."""

    def _submit_compile(self, session, query: Query) -> Future:
        return _CALLER.submit(
            worker.compile_in_caller,
            session.database,
            session.check_invariants,
            query,
        )

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
                    initargs=(session.database, session.check_invariants),
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
                session.check_invariants,
                query,
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
