"""Task bodies shared by every executor.

Every :class:`~repro.exec.executor.Executor` evaluates through the one
loop of :meth:`~repro.exec.executor.Executor.execute`; a *task* is one
call of :func:`evaluate` -- a whole query, or one (query, shard) pair
-- returning the **unprojected** result the coordinator unions, caches
and projects.  Where it runs is the executor's business: in the caller
(``SerialExecutor``), in a pool worker (``ParallelExecutor``), or on a
shard-worker server (``repro.net``; the server calls the same
functions).

A process pool ships the database to each worker **once** (via the
pool initializer) and afterwards sends only small task tuples --
(query, f-tree, shard index) -- so the per-task pickling cost stays
independent of the data size; :func:`pool_task` reads that per-process
state.  Workers are stateless beyond the database snapshot: a mutation
bumps ``Database.version`` in the coordinator, which discards the pool
and spawns a fresh one against the new snapshot (see
``ParallelExecutor._prepare``).
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, List, Optional, Tuple

from repro import ops
from repro.obs import trace as obs_trace
from repro.core.arena import ValuePool
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.query.query import Query
from repro.storage.sharded import ShardedDatabase

#: Per-process state, populated by :func:`init_worker`.
_STATE: Dict[str, object] = {}

#: Per-process shared value pools, one per database snapshot: every
#: arena built against the same snapshot (all shards, all queries)
#: interns into one pool, so per-shard results recombine by id in
#: ``ops.union`` without re-interning.  Weakly keyed so a discarded
#: snapshot releases its pool; keyed by version so a mutated database
#: gets a fresh pool instead of accreting dead values.
_POOLS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_pool_for(database) -> ValuePool:
    """The process-wide shared intern pool for ``database``."""
    version = getattr(database, "version", None)
    cached = _POOLS.get(database)
    if cached is not None and cached[0] == version:
        return cached[1]
    pool = ValuePool()
    try:
        _POOLS[database] = (version, pool)
    except TypeError:  # not weak-referenceable: fall back, uncached
        pass
    return pool


def init_worker(
    database,
    plan_search: str,
    cost_model: str,
    check_invariants: bool,
) -> None:
    """Pool initializer: build one engine per worker process."""
    _STATE["database"] = database
    _STATE["check_invariants"] = check_invariants
    _STATE["engine"] = FDB(
        database,
        plan_search=plan_search,
        cost_model=cost_model,
        check_invariants=check_invariants,
    )


def ping() -> bool:
    """Pool liveness probe (process pools may be unavailable in
    restricted sandboxes; the executor probes before committing)."""
    return True


def timed_call(fn, *args) -> Tuple[float, object]:
    """Run ``fn`` and return (worker-side seconds, result).

    Per-query timings under a pool cannot be read off the coordinator
    clock (every future's completion time includes unrelated queueing),
    so evaluation tasks time themselves.
    """
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def traced_call(
    ctx: Optional[dict], fn, *args
) -> Tuple[float, object, List[dict]]:
    """:func:`timed_call` under a fresh worker-side trace.

    Contextvars do not cross the pool boundary, so the coordinator
    ships ``trace.context()`` (a plain dict) and the worker seeds a
    local :class:`~repro.obs.trace.Trace` from it.  The returned span
    records are plain dicts -- picklable -- for the coordinator to
    :meth:`~repro.obs.trace.Trace.extend` back into its own trace.
    ``ctx=None`` still traces (records are cheap and the caller may
    drop them); the shared trace id is simply absent.
    """
    trace = obs_trace.Trace(trace_id=(ctx or {}).get("id"))
    with obs_trace.activate(trace):
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
    return seconds, result, trace.records


def compile_task(query: Query) -> FTree:
    return _STATE["engine"].optimal_tree(query)


def pool_task(
    ctx: Optional[dict],
    query: Query,
    tree: FTree,
    shard: Optional[int] = None,
    fanout: Optional[str] = None,
) -> Tuple[float, FactorisedRelation, List[dict]]:
    """Process-pool body of one task over the shipped snapshot.
    ``ctx`` carries the coordinator's trace context; worker-side spans
    come back as the third tuple element."""
    return traced_call(
        ctx,
        evaluate,
        _STATE["database"],
        bool(_STATE["check_invariants"]),
        query,
        tree,
        shard,
        fanout,
    )


# -- direct variants (threads, the caller, servers, tests) -----------------


def compile_direct(
    database,
    plan_search: str,
    cost_model: str,
    check_invariants: bool,
    query: Query,
    statistics=None,
) -> FTree:
    engine = FDB(
        database,
        plan_search=plan_search,
        cost_model=cost_model,
        check_invariants=check_invariants,
        statistics=statistics if cost_model == "estimates" else None,
    )
    return engine.optimal_tree(query)


def evaluate_join(
    database,
    check_invariants: bool,
    query: Query,
    tree: FTree,
) -> FactorisedRelation:
    """Evaluate one query over the full database **without** the
    projection: factorised join over the precompiled tree, constants
    inside.  The unprojected form is what the coordinator's result
    cache keeps for delta maintenance.

    The result interns into a private pool: a whole-query result is
    never unioned, and the codec ships a result's whole pool, so a
    shared (never compacted) pool would put every value of the
    snapshot into each wire frame and pool pickle.
    """
    engine = FDB(database, check_invariants=check_invariants)
    with obs_trace.span("factorise"):
        return engine.factorise_query(query, tree=tree)


def project_result(
    fr: FactorisedRelation, query: Query, check_invariants: bool
) -> FactorisedRelation:
    """Apply ``query``'s projection to a join result (no-op without
    one)."""
    if query.projection is not None:
        with obs_trace.span("project"):
            fr = ops.project(fr, query.projection)
        if check_invariants:
            fr.validate()
    return fr


def evaluate_full(
    database,
    check_invariants: bool,
    query: Query,
    tree: FTree,
) -> FactorisedRelation:
    """Evaluate one query over the full database: factorised join over
    the precompiled tree, constants inside, projection applied."""
    fr = evaluate_join(database, check_invariants, query, tree)
    return project_result(fr, query, check_invariants)


def evaluate_shard(
    database: ShardedDatabase,
    check_invariants: bool,
    query: Query,
    tree: FTree,
    index: int,
    fanout: str,
) -> FactorisedRelation:
    """Evaluate one query over one shard view, **without** projection.

    Projection must wait until the per-shard results are unioned (see
    :mod:`repro.ops.union`); the coordinator applies it once.
    """
    view = database.shard_view(index, fanout)
    engine = FDB(
        view,
        check_invariants=check_invariants,
        # Key the pool on the sharded parent: every shard of a
        # snapshot interns into the same pool, which is what makes the
        # coordinator-side union recombine ids verbatim.
        shared_pool=shared_pool_for(database),
    )
    with obs_trace.span("shard", shard=index):
        return engine.factorise_query(query, tree=tree)


def evaluate(
    database,
    check_invariants: bool,
    query: Query,
    tree: FTree,
    shard: Optional[int] = None,
    fanout: Optional[str] = None,
) -> FactorisedRelation:
    """One executor task, unprojected: the whole query
    (``shard=None``) or one shard view of it."""
    if shard is None:
        return evaluate_join(database, check_invariants, query, tree)
    return evaluate_shard(
        database, check_invariants, query, tree, shard, fanout
    )


def combine_shards(
    parts, query: Query, check_invariants: bool, project: bool = True
) -> FactorisedRelation:
    """Union per-shard factorised results and apply the projection.

    ``parts`` must hold one result per shard (an empty shard yields an
    empty relation, never a missing entry) -- an empty list
    here would silently masquerade as an empty *result*, so it is an
    error instead.  ``project=False`` stops after the union, for
    coordinators that cache the unprojected join result
    (:mod:`repro.ivm`) before projecting.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("combine_shards needs at least one shard result")
    with obs_trace.span("union", parts=len(parts)):
        fr = ops.union_all(parts)
    if check_invariants:
        fr.validate()
    if not project:
        return fr
    return project_result(fr, query, check_invariants)
