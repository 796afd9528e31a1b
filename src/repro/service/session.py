"""Query sessions: the serving layer's thin coordinator.

The paper's experiments (Figure 9) show that for FDB the *optimiser*
dominates per-query cost: finding an optimal f-tree or f-plan is
exponential in the worst case, while executing the chosen plan on
factorised data is cheap.  A production deployment serving repeated
traffic therefore must not pay the optimiser per arriving query.

:class:`QuerySession` is the serving layer of the three-layer stack
(storage -> execution -> serving).  It owns the *policy*:

- **plan cache**: compiled plans (optimal f-trees for the flat input
  path, :class:`~repro.optimiser.fplan.FPlan` step sequences for the
  factorised input path) are cached under
  :meth:`~repro.query.query.Query.canonical_key` in an LRU-bounded
  :class:`~repro.service.cache.PlanCache`, so reformulated repeats
  (reordered ``FROM``/``WHERE``, flipped equalities) hit;
- **statistics reuse**: one :class:`~repro.costs.cardinality.
  Statistics` catalogue per session, shared by every engine and
  rebuilt only when the :class:`~repro.relational.database.Database`
  version counter moves (row-level inserts, deletes and updates all
  bump it);
- **batch execution**: :meth:`QuerySession.run_batch` deduplicates
  canonically-equal queries and evaluates each equivalence class once;
- **explosion fallback**: when the estimated factorised size exceeds
  ``fallback_budget``, evaluation routes to the flat engine under the
  session's (time/row) :class:`~repro.relational.budget.Budget`
  instead of materialising a pathological factorisation;
- **warm start**: with a :class:`~repro.persist.PlanStore`, the
  in-memory plan cache becomes the hot tier of a two-tier cache --
  lookups fall through to the disk store (hits are promoted into the
  LRU), compiles are written through to it -- so a fresh session, or a
  fresh *process*, starts with every previously compiled plan.

The *mechanism* -- how the deduplicated queries actually run -- lives
in the injected :class:`~repro.exec.Executor`: serial in-process by
default, or :class:`~repro.exec.ParallelExecutor` for pool-parallel
compilation and (on a :class:`~repro.storage.ShardedDatabase`)
per-shard fan-out.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import cycle guard: persist sits beside serving
    from repro.persist import PlanStore

from repro import ops
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.core.build import COUNTERS as FACTORISE_COUNTERS
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.costs.cardinality import Statistics, estimate_representation_size
from repro.engine import FDB
from repro.exec import Executor, SerialExecutor
from repro.ivm import ResultCache
from repro.optimiser.bitspace import COUNTERS as OPTIMISER_COUNTERS
from repro.optimiser.fplan import FPlan
from repro.ops.arena_kernels import counters as kernel_counters
from repro.ops.union import COUNTERS as UNION_COUNTERS
from repro.query.query import Query, QueryError, equality_partition
from repro.relational.budget import Budget
from repro.relational.database import Database
from repro.relational.engine import RelationalEngine
from repro.relational.relation import Relation
from repro.relational.sqlite_engine import SQLiteEngine
from repro.service.cache import PlanCache

#: Engines a session can route a query to.  ``auto`` means "factorised
#: unless the estimate says the factorisation explodes".
ENGINES = ("auto", "fdb", "flat", "sqlite")


@dataclass
class SessionStats:
    """Counters describing what a session did (all monotone)."""

    queries: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    fplan_hits: int = 0
    fplan_misses: int = 0
    fplan_evictions: int = 0
    fplan_search_exhausted: int = 0
    stats_builds: int = 0
    invalidations: int = 0
    delta_refreshes: int = 0
    result_hits: int = 0
    result_misses: int = 0
    fallbacks: int = 0
    batch_queries: int = 0
    batch_deduped: int = 0
    store_hits: int = 0
    store_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit rate over flat-path queries (0.0 when idle)."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.as_dict().items()]
        return f"SessionStats({', '.join(parts)})"


@dataclass
class CachedPlan:
    """A compiled flat-path plan: the optimal f-tree plus metadata."""

    key: Tuple
    tree: FTree
    hits: int = 0
    #: Estimated factorisation size (singletons), filled lazily the
    #: first time the fallback check needs it.
    estimated_size: Optional[float] = None


@dataclass
class SessionResult:
    """One evaluated query, normalised across engines.

    ``rows()`` always yields sorted distinct tuples over the sorted
    attribute order, so results from different engines (or a cached
    result shared by canonically-equal queries whose projections list
    attributes in different orders) compare equal exactly when they
    represent the same relation.
    """

    query: Query
    engine: str
    cached: bool
    elapsed: float
    deduped: bool = False
    factorised: Optional[FactorisedRelation] = None
    flat: Optional[Relation] = None
    raw: Optional[List[tuple]] = None
    raw_attributes: Optional[Tuple[str, ...]] = None
    plan: Optional[FPlan] = None
    #: Span records of the trace that served this query (plain dicts,
    #: see :mod:`repro.obs.trace`); ``None`` when tracing was off.
    spans: Optional[List[dict]] = None
    trace_id: Optional[str] = None

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Result attributes in canonical (sorted) order."""
        if self.factorised is not None:
            return self.factorised.attributes
        if self.flat is not None:
            return tuple(sorted(self.flat.attributes))
        return tuple(sorted(set(self.raw_attributes or ())))

    def rows(self) -> List[tuple]:
        """Sorted distinct result tuples over :attr:`attributes`."""
        order = self.attributes
        if self.factorised is not None:
            return sorted(set(self.factorised.rows(order)))
        if self.flat is not None:
            perm = [self.flat.schema.index_of(a) for a in order]
            return sorted(
                {tuple(row[i] for i in perm) for row in self.flat}
            )
        raw_attrs = list(self.raw_attributes or ())
        perm = [raw_attrs.index(a) for a in order]
        return sorted(
            {tuple(row[i] for i in perm) for row in self.raw or []}
        )

    def count(self) -> int:
        """Number of distinct result tuples (no enumeration for FDB)."""
        if self.factorised is not None:
            return self.factorised.count()
        if self.flat is not None:
            return len(self.flat)
        return len(self.rows())


class QuerySession:
    """A stateful facade over the three engines with plan caching.

    Parameters
    ----------
    database:
        The shared flat (or :class:`~repro.storage.ShardedDatabase`)
        store.  Sessions watch its
        :attr:`~repro.relational.database.Database.version` and drop
        every cache when it moves.
    plan_search / cost_model:
        Forwarded to :class:`~repro.engine.FDB`.
    fallback_budget:
        Estimated-singleton threshold above which ``auto`` queries are
        routed to the flat engine; ``None`` disables the fallback.
    budget:
        Optional :class:`~repro.relational.budget.Budget` guarding the
        flat engine (fallbacks inherit the paper's timeout protocol).
    executor:
        The :class:`~repro.exec.Executor` evaluating (deduplicated)
        queries; defaults to a fresh
        :class:`~repro.exec.SerialExecutor`.  The session owns it:
        :meth:`close` shuts it down.
    cache_size:
        LRU bound applied to both plan caches (``None`` = unbounded).
    plan_store:
        Optional :class:`~repro.persist.PlanStore`.  The in-memory
        plan cache becomes a write-through LRU tier over it: lookups
        that miss the LRU consult the store (a disk hit skips the
        optimiser and is promoted into the LRU), and freshly compiled
        plans are written through, giving cross-session and
        cross-process plan sharing.  Stale entries (other database
        version) are evicted by the store itself.
    result_cache_size:
        LRU bound of the delta-maintained result cache
        (:mod:`repro.ivm`): unprojected factorised join results are
        kept across data-only mutations and caught up by factorising
        just the delta rows.  ``None`` = unbounded, ``0`` = disabled
        (every query re-evaluates, the pre-IVM behaviour).
    tracing / slow_log / registry:
        Observability (:mod:`repro.obs`).  ``tracing`` (default on,
        near-free) records lifecycle spans per evaluation and attaches
        them to each :class:`SessionResult`; ``slow_log`` is an
        optional :class:`~repro.obs.slowlog.SlowQueryLog` receiving
        structured entries for queries over its threshold;
        ``registry`` injects a shared
        :class:`~repro.obs.metrics.MetricsRegistry` (a fresh one is
        created otherwise) -- see :meth:`snapshot`.

    >>> from repro.relational.database import Database
    >>> from repro.query.parser import parse_query
    >>> db = Database()
    >>> _ = db.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> _ = db.add_rows("S", ("c", "d"), [(1, 5), (2, 5), (2, 6)])
    >>> session = QuerySession(db)
    >>> q = parse_query("SELECT * FROM R, S WHERE b = c")
    >>> session.run(q).count()
    5
    >>> session.run(parse_query(
    ...     "SELECT * FROM S, R WHERE c = b")).cached
    True
    """

    def __init__(
        self,
        database: Database,
        plan_search: str = "exhaustive",
        cost_model: str = "asymptotic",
        fallback_budget: Optional[float] = None,
        budget: Optional[Budget] = None,
        check_invariants: bool = False,
        executor: Optional[Executor] = None,
        cache_size: Optional[int] = None,
        plan_store: Optional["PlanStore"] = None,
        result_cache_size: Optional[int] = 64,
        tracing: bool = True,
        slow_log: Optional[SlowQueryLog] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.database = database
        self.plan_search = plan_search
        self.cost_model = cost_model
        self.fallback_budget = fallback_budget
        self.budget = budget
        self.check_invariants = check_invariants
        self.cache_size = cache_size
        self.plan_store = plan_store
        self.executor = executor if executor is not None else SerialExecutor()
        self.stats = SessionStats()
        self._sqlite: Optional[SQLiteEngine] = None
        self._submitter = None
        self._submitter_lock = threading.Lock()
        #: Delta-maintained unprojected results (:mod:`repro.ivm`);
        #: ``result_cache_size=0`` disables result caching entirely.
        self._results: Optional[ResultCache] = (
            ResultCache(result_cache_size)
            if result_cache_size != 0
            else None
        )
        #: Observability (see :mod:`repro.obs`): ``tracing`` gates the
        #: per-query lifecycle spans (near-free, on by default --
        #: ``bench_obs.py`` holds it to <5%); the registry unifies the
        #: session's scattered counters behind one :meth:`snapshot`,
        #: and servers graft their own collectors onto it.
        self.tracing = tracing
        self.slow_log = slow_log
        self.registry = registry if registry is not None else MetricsRegistry()
        self._query_seconds = self.registry.histogram("query_seconds")
        self._slow_queries = self.registry.counter("slow_queries_total")
        self._traces = self.registry.counter("traces_total")
        self.registry.register("session", self.stats.as_dict)
        self.registry.register("caches", self.cache_counters)
        # Process-wide: the searches, the factoriser, the operator
        # kernels and the shard union are plain functions with no
        # session to report to.
        self.registry.register("optimiser", OPTIMISER_COUNTERS.snapshot)
        self.registry.register("factorise", FACTORISE_COUNTERS.snapshot)
        self.registry.register("kernels", kernel_counters)
        self.registry.register("union", UNION_COUNTERS.snapshot)
        self.registry.register(
            "submitter",
            lambda: (
                self._submitter.counters()
                if self._submitter is not None
                else None
            ),
        )
        self.registry.register(
            "plan_store",
            lambda: (
                self.plan_store.counters()
                if self.plan_store is not None
                else None
            ),
        )
        self.registry.register(
            "slow_log",
            lambda: (
                self.slow_log.counters()
                if self.slow_log is not None
                else None
            ),
        )
        self._bind()

    # -- cache lifecycle ---------------------------------------------------

    def _bind(self) -> None:
        """(Re)build engines and empty caches for the current version.

        The cache *objects* survive rebinds (only their entries drop),
        so :meth:`cache_counters` stays a lifetime view, consistent
        with the monotone counters in :attr:`stats`.
        """
        self._version = self.database.version
        if not hasattr(self, "_plans"):
            self._plans: PlanCache = PlanCache(self.cache_size)
            self._fplans: PlanCache = PlanCache(self.cache_size)
        else:
            self._plans.clear()
            self._fplans.clear()
        self._statistics: Optional[Statistics] = None
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        shared = None
        if self.cost_model == "estimates":
            shared = self.statistics()
        self._fdb = FDB(
            self.database,
            plan_search=self.plan_search,
            check_invariants=self.check_invariants,
            cost_model=self.cost_model,
            statistics=shared,
        )
        self._flat = RelationalEngine(self.database, budget=self.budget)
        if self._results is not None:
            self._results.clear()
        self.executor.invalidate()

    def _refresh(self) -> None:
        """Bring the session up to date after database mutations.

        A version move whose recorded deltas are data-only
        (:meth:`~repro.relational.database.Database.changes_since`)
        takes the *delta* path: compiled plans and cached results
        survive -- plans stay valid under row-level change, results
        are caught up lazily by the :class:`~repro.ivm.ResultCache` --
        and only the derived per-version state (statistics, fallback
        estimates, pools, the SQLite mirror) is dropped.  Schema
        changes and unexplainable gaps fall back to the wholesale
        :meth:`_bind`, the pre-IVM behaviour.
        """
        if self.database.version == self._version:
            return
        self.stats.invalidations += 1
        if self.database.changes_since(self._version) is None:
            self._bind()
            return
        self.stats.delta_refreshes += 1
        self._version = self.database.version
        self._statistics = None
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        for plan in self._plans.values():
            plan.estimated_size = None
        if self.cost_model == "estimates":
            # The engine pins a statistics catalogue; rebuild it over
            # fresh statistics so estimate-based costs track the data.
            self._fdb = FDB(
                self.database,
                plan_search=self.plan_search,
                check_invariants=self.check_invariants,
                cost_model=self.cost_model,
                statistics=self.statistics(),
            )
        self.executor.invalidate()

    def statistics(self) -> Statistics:
        """The session's statistics catalogue (built at most once per
        database version)."""
        if self._statistics is None:
            self._statistics = Statistics.of_database(self.database)
            self.stats.stats_builds += 1
        return self._statistics

    @property
    def cached_plan_count(self) -> int:
        return len(self._plans) + len(self._fplans)

    def cache_counters(self) -> Dict[str, Dict[str, int]]:
        """Counters of the plan caches and the delta-maintained result
        cache (zeros when result caching is disabled)."""
        return {
            "plans": self._plans.counters(),
            "fplans": self._fplans.counters(),
            "results": (
                self._results.counters()
                if self._results is not None
                else ResultCache().counters()
            ),
        }

    def snapshot(self) -> Dict:
        """The unified observability snapshot (:mod:`repro.obs`):
        instruments plus every registered collector namespace --
        session stats, cache/ivm counters, submitter, plan
        store, slow log, and (when a server grafted itself on) the
        server counters."""
        return self.registry.snapshot()

    def close(self) -> None:
        if self._submitter is not None:
            self._submitter.close()
            self._submitter = None
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        self.executor.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- planning ----------------------------------------------------------

    def lookup_plan(self, query: Query) -> Optional[CachedPlan]:
        """The cached flat-path plan for ``query``, or ``None``.

        Executor hook: a hit updates recency and the hit counters; a
        miss only counts (callers compile and :meth:`store_plan`).

        With a :attr:`plan_store`, an LRU miss falls through to the
        disk tier: a disk hit is promoted into the LRU and reported as
        a (store) hit, so callers skip the optimiser exactly as for an
        in-memory hit.
        """
        with obs_trace.span("plan-cache"):
            key = query.canonical_key()
            plan = self._plans.get(key)
            if plan is not None:
                plan.hits += 1
                self.stats.plan_hits += 1
                return plan
            if self.plan_store is not None:
                tree = self.plan_store.get(query, self.database)
                if tree is not None:
                    plan = CachedPlan(key=key, tree=tree)
                    if self._plans.put(key, plan) is not None:
                        self.stats.plan_evictions += 1
                    plan.hits += 1
                    self.stats.plan_hits += 1
                    self.stats.store_hits += 1
                    return plan
                self.stats.store_misses += 1
            self.stats.plan_misses += 1
            return None

    def store_plan(self, query: Query, tree: FTree) -> CachedPlan:
        """Executor hook: cache a freshly compiled f-tree.

        Write-through: with a :attr:`plan_store` the plan also lands
        on disk, so other sessions and processes warm-start from it.
        """
        key = query.canonical_key()
        plan = CachedPlan(key=key, tree=tree)
        if self._plans.put(key, plan) is not None:
            self.stats.plan_evictions += 1
        if self.plan_store is not None:
            self.plan_store.put(query, self.database, tree)
        return plan

    def compile(self, query: Query) -> Tuple[CachedPlan, bool]:
        """The cached flat-path plan for ``query`` and whether it hit.

        A miss runs the f-tree optimiser (the expensive step this
        subsystem exists to amortise) and caches the result under the
        query's canonical key.
        """
        self._refresh()
        cached = self.lookup_plan(query)
        if cached is not None:
            return cached, True
        query.validate_against(self.database.schema())
        return self.store_plan(query, self._optimise(query)), False

    def _optimise(self, query: Query) -> FTree:
        """Executor hook: run the f-tree optimiser for a validated
        plan-cache miss (callers :meth:`store_plan` the tree)."""
        with obs_trace.span("optimise"):
            return self._fdb.optimal_tree(query)

    def _would_explode(self, plan: CachedPlan) -> bool:
        if self.fallback_budget is None:
            return False
        if plan.estimated_size is None:
            plan.estimated_size = estimate_representation_size(
                plan.tree, self.statistics()
            )
        return plan.estimated_size > self.fallback_budget

    # -- execution ---------------------------------------------------------

    def run(self, query: Query, engine: str = "auto") -> SessionResult:
        """Evaluate one query, routed per ``engine``."""
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick {ENGINES}")
        self._refresh()
        self.stats.queries += 1
        trace = self._begin_trace()
        with obs_trace.activate(trace):
            result = self.executor.execute(self, [query], engine)[0]
        self._observe(
            result,
            trace=trace if trace is not None else obs_trace.current(),
        )
        return result

    def submitter(self, max_wave: Optional[int] = None):
        """The session's lazily created :class:`~repro.service.
        batching.BatchSubmitter` (overlapping submission).

        The first call fixes ``max_wave``; later calls return the same
        submitter.  While it is active the submitter's coalescer thread
        is the session's only evaluator -- do not call :meth:`run` /
        :meth:`run_batch` concurrently from other threads.
        """
        with self._submitter_lock:
            if self._submitter is None:
                from repro.service.batching import BatchSubmitter

                self._submitter = BatchSubmitter(self, max_wave=max_wave)
            return self._submitter

    def submit(self, query: Query, engine: str = "auto", trace=None):
        """Overlapping submission: enqueue one query, get a
        :class:`concurrent.futures.Future` of its
        :class:`SessionResult`.

        Concurrent submitters (threads, asyncio handlers via
        ``asyncio.wrap_future``) are coalesced into shared batch waves
        -- deduplicated and fanned out together -- by the session's
        :meth:`submitter`; see :mod:`repro.service.batching`.
        ``trace`` optionally carries the submitting request's
        :class:`~repro.obs.trace.Trace` through the coalescer so its
        spans (e.g. the server-side parse) land on the served result.
        """
        return self.submitter().submit(query, engine, trace=trace)

    def run_batch(
        self,
        queries: Sequence[Query],
        engine: str = "auto",
        observe: bool = True,
    ) -> List[SessionResult]:
        """Evaluate a batch, one evaluation per canonical query.

        Results come back in input order; canonically-equal repeats
        share the first occurrence's result (flagged ``deduped``, with
        zero elapsed time).  Evaluation goes through the session's
        executor.  Snapshot semantics depend on it: a
        :class:`~repro.exec.ParallelExecutor` pins the snapshot its
        pool workers hold for every pooled (factorised-path) query,
        while the serial executor -- and the fallback/flat/sqlite
        routes of every executor -- read the live database, so
        mutating it mid-batch from another thread yields mixed-version
        answers.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick {ENGINES}")
        self._refresh()
        slots: List[Tuple[Tuple, bool]] = []
        unique: List[Query] = []
        position: Dict[Tuple, int] = {}
        for query in queries:
            self.stats.batch_queries += 1
            key = query.canonical_key()
            if key in position:
                self.stats.batch_deduped += 1
                slots.append((key, True))
            else:
                position[key] = len(unique)
                unique.append(query)
                slots.append((key, False))
        self.stats.queries += len(unique)
        trace = self._begin_trace() if observe else None
        with obs_trace.activate(trace):
            evaluated = self.executor.execute(self, unique, engine)
        out: List[SessionResult] = []
        for query, (key, deduped) in zip(queries, slots):
            result = evaluated[position[key]]
            if deduped:
                out.append(
                    replace(result, query=query, deduped=True, elapsed=0.0)
                )
            else:
                out.append(result)
        if observe:
            # The batch shares one trace; ``observe=False`` callers
            # (the BatchSubmitter) observe per item themselves.
            active = trace if trace is not None else obs_trace.current()
            for result in out:
                self._observe(result, trace=active)
        return out

    def run_on(
        self, fr: FactorisedRelation, query: Query
    ) -> SessionResult:
        """Evaluate over a factorised input, caching the f-plan.

        Mirrors :meth:`FDB.evaluate_on` (constants, then equalities via
        an f-plan, then projection) but keys the optimised
        :class:`FPlan` on (input f-tree, canonical equality partition)
        so repeated follow-up selections replay the cached step
        sequence instead of re-optimising.
        """
        self._refresh()
        self.stats.queries += 1
        trace = self._begin_trace()
        with obs_trace.activate(trace):
            start = time.perf_counter()
            current = fr
            for cond in query.constants:
                if cond.attribute not in current.tree.attributes():
                    raise QueryError(
                        f"unknown attribute {cond.attribute!r}"
                    )
                with obs_trace.span("select"):
                    current = ops.select_constant(current, cond)
                if self.check_invariants:
                    current.validate()
            key = (
                current.tree.key(),
                equality_partition(query.equalities),
            )
            with obs_trace.span("fplan-cache"):
                plan = self._fplans.get(key)
            if plan is not None:
                self.stats.fplan_hits += 1
                hit = True
            else:
                self.stats.fplan_misses += 1
                hit = False
                pairs = [(eq.left, eq.right) for eq in query.equalities]
                exhausted = self._fdb.fplan_search_exhausted
                with obs_trace.span("fplan-optimise"):
                    plan = self._fdb.plan_for(current.tree, pairs)
                self.stats.fplan_search_exhausted += (
                    self._fdb.fplan_search_exhausted - exhausted
                )
                if self._fplans.put(key, plan) is not None:
                    self.stats.fplan_evictions += 1
            with obs_trace.span("fplan-execute", steps=len(plan.steps)):
                current = plan.execute(current)
            if self.check_invariants:
                current.validate()
            if query.projection is not None:
                with obs_trace.span("project"):
                    current = ops.project(current, query.projection)
                if self.check_invariants:
                    current.validate()
            result = SessionResult(
                query=query,
                engine="fdb",
                cached=hit,
                elapsed=time.perf_counter() - start,
                factorised=current,
                plan=plan,
            )
        self._observe(
            result,
            trace=trace if trace is not None else obs_trace.current(),
        )
        return result

    # -- executor hooks ----------------------------------------------------
    #
    # Executors evaluate queries through these; they encapsulate result
    # construction and engine access so the execution layer never
    # imports the serving layer.

    def _flat_result(
        self, query: Query, start: float, cached: bool
    ) -> SessionResult:
        flat = self._flat.evaluate(query)
        return SessionResult(
            query=query,
            engine="flat",
            cached=cached,
            elapsed=time.perf_counter() - start,
            flat=flat,
        )

    def _fallback_result(
        self, query: Query, start: float, cached: bool
    ) -> SessionResult:
        """Route an exploding ``auto`` query to the flat engine."""
        self.stats.fallbacks += 1
        return self._flat_result(query, start, cached=cached)

    def _sqlite_result(self, query: Query, start: float) -> SessionResult:
        query.validate_against(self.database.schema())
        rows = self._sqlite_engine().evaluate(query)
        if query.projection is not None:
            columns = query.projection
        else:
            columns = tuple(
                attr
                for name in query.relations
                for attr in self.database[name].attributes
            )
        return SessionResult(
            query=query,
            engine="sqlite",
            cached=False,
            elapsed=time.perf_counter() - start,
            raw=rows,
            raw_attributes=columns,
        )

    def _serve_cached(
        self, query: Query
    ) -> Optional[FactorisedRelation]:
        """Executor hook: serve ``query`` from the delta-maintained
        result cache, or ``None`` on a miss.

        The cache stores unprojected join results (union of delta
        terms does not commute with projection, see
        :mod:`repro.ivm.maintain`); the projection is applied here,
        at serve time.  A version-lagging entry is caught up -- only
        the fresh rows are factorised and unioned in -- before being
        served, so answers are always current.
        """
        if self._results is None:
            return None
        entry = self._results.lookup(
            query,
            self.database,
            check_invariants=self.check_invariants,
        )
        if entry is None:
            self.stats.result_misses += 1
            return None
        self.stats.result_hits += 1
        fr = entry.result
        if query.projection is not None:
            pkey = tuple(query.projection)
            memo = entry.projected.get(pkey)
            if memo is not None and memo[0] == entry.version:
                return memo[1]
            fr = ops.project(fr, query.projection)
            if self.check_invariants:
                fr.validate()
            entry.projected[pkey] = (entry.version, fr)
        return fr

    def _cache_result(
        self, query: Query, tree: FTree, fr: FactorisedRelation
    ) -> None:
        """Executor hook: cache a freshly evaluated **unprojected**
        join result for delta maintenance (no-op when disabled)."""
        if self._results is not None:
            self._results.store(query, self.database, tree, fr)

    def _wrap_fdb_result(
        self,
        query: Query,
        factorised: FactorisedRelation,
        cached: bool,
        elapsed: float,
    ) -> SessionResult:
        """Executor hook: package a factorised result."""
        return SessionResult(
            query=query,
            engine="fdb",
            cached=cached,
            elapsed=elapsed,
            factorised=factorised,
        )

    # -- observability -----------------------------------------------------

    def _begin_trace(self) -> Optional[obs_trace.Trace]:
        """A fresh :class:`~repro.obs.trace.Trace` for one top-level
        evaluation -- or ``None`` when tracing is off *or* a trace is
        already active (a server request or batch wave owns it)."""
        if not self.tracing or obs_trace.current() is not None:
            return None
        self._traces.inc()
        return obs_trace.Trace()

    def _observe(
        self,
        result: SessionResult,
        trace: Optional[obs_trace.Trace] = None,
        wave: Optional[obs_trace.Trace] = None,
    ) -> None:
        """Account one served result: latency histogram, span
        attachment, slow-query log.

        ``trace`` is the per-request trace (request-scoped spans plus
        the identity used for correlation); ``wave`` the shared batch-
        wave trace a :class:`~repro.service.batching.BatchSubmitter`
        evaluated the result under (its spans cover every query of the
        wave and are appended after the request's own).
        """
        records: List[dict] = []
        trace_id = None
        origin = None
        if trace is not None:
            trace_id = trace.trace_id
            origin = trace.origin
            records.extend(trace.records)
        if wave is not None and wave is not trace:
            if trace_id is None:
                trace_id = wave.trace_id
            records.extend(wave.records)
        if records:
            result.spans = records
        if trace_id is not None:
            result.trace_id = trace_id
        self._query_seconds.observe(result.elapsed)
        log = self.slow_log
        if log is None:
            return
        if result.elapsed < log.threshold:
            log.note_fast()
        else:
            self._slow_queries.inc()
            log.observe(
                sql=str(result.query),
                engine=result.engine,
                elapsed=result.elapsed,
                trace_id=trace_id,
                origin=origin,
                spans=records,
                plan=self._plan_text(result),
            )

    def _plan_text(self, result: SessionResult) -> Optional[str]:
        """The chosen plan of a logged slow query, compactly: the
        f-plan when the result carries one, else the cached f-tree."""
        if result.plan is not None:
            return str(result.plan)
        entry = self._plans.peek(result.query.canonical_key())
        if entry is None:
            return None
        return entry.tree.pretty()

    # -- helpers -----------------------------------------------------------

    def _sqlite_engine(self) -> SQLiteEngine:
        if self._sqlite is None:
            self._sqlite = SQLiteEngine(self.database, budget=self.budget)
        return self._sqlite
