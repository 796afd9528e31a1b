"""Plan-cache semantics of the serving layer (:mod:`repro.service`)."""

from __future__ import annotations

import pytest

from repro.query.parser import parse_query
from repro.query.query import Query
from repro.relational.database import Database
from repro.service import QuerySession
from repro.workloads import permuted_variant, repeated_query_workload


@pytest.fixture
def db() -> Database:
    database = Database()
    database.add_rows(
        "R", ("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)]
    )
    database.add_rows("S", ("c", "d"), [(1, 7), (2, 8), (2, 9)])
    database.add_rows("U", ("e",), [(7,), (8,)])
    return database


@pytest.fixture
def session(db) -> QuerySession:
    return QuerySession(db)


JOIN = "SELECT * FROM R, S WHERE b = c"
REORDERED = "SELECT * FROM S, R WHERE c = b"


# -- plan-cache hits and misses -------------------------------------------


def test_first_evaluation_is_a_miss(session):
    result = session.run(parse_query(JOIN))
    assert result.engine == "fdb"
    assert not result.cached
    assert session.stats.plan_misses == 1
    assert session.stats.plan_hits == 0


def test_reordered_from_and_where_hits(session):
    first = session.run(parse_query(JOIN))
    second = session.run(parse_query(REORDERED))
    assert second.cached
    assert session.stats.plan_hits == 1
    assert second.rows() == first.rows()


def test_permuted_variants_always_hit(session, db):
    query = Query.make(
        ["R", "S", "U"],
        equalities=[("b", "c"), ("d", "e")],
        constants=[("a", "<=", 2)],
        projection=["a", "d", "e"],
    )
    base = session.run(query)
    for seed in range(5):
        variant = permuted_variant(query, seed=seed)
        assert variant.canonical_key() == query.canonical_key()
        result = session.run(variant)
        assert result.cached
        assert result.rows() == base.rows()
    assert session.stats.plan_misses == 1
    assert session.stats.plan_hits == 5


def test_different_query_misses(session):
    session.run(parse_query(JOIN))
    other = session.run(parse_query("SELECT * FROM R, S WHERE b = d"))
    assert not other.cached
    assert session.stats.plan_misses == 2


# -- invalidation on database mutation ------------------------------------


def test_add_rows_invalidates_plans(session, db):
    session.run(parse_query(JOIN))
    db.add_rows("V", ("f",), [(1,)])
    result = session.run(parse_query(JOIN))
    assert not result.cached
    assert session.stats.invalidations == 1
    assert session.stats.plan_misses == 2


def test_extend_rows_delta_refresh_serves_warm(session, db):
    session.statistics()
    session.run(parse_query(JOIN))
    before = session.stats.stats_builds
    assert session.statistics() is session.statistics()
    assert session.stats.stats_builds == before  # reused, not rebuilt

    db.extend_rows("S", [(1, 99)])
    result = session.run(parse_query(JOIN))
    # An append is absorbed: the plan survives and the cached result
    # is caught up by unioning in the factorised delta rows.
    assert result.cached
    assert session.stats.invalidations == 1
    assert session.stats.delta_refreshes == 1
    assert session.stats.result_hits == 1
    assert session.cache_counters()["results"]["delta_merges"] == 1
    # Statistics are still rebuilt: cardinalities changed.
    assert session.statistics().cardinalities["S"] == 4
    assert session.stats.stats_builds == before + 1
    # The new tuple (c=1 joins b=1) is visible in the served result.
    assert (1, 1, 1, 99) in result.rows()


def test_version_counter_moves_once_per_mutation(db):
    start = db.version
    db.extend_rows("R", [(5, 5)])
    db.add_rows("W", ("g",), [(1,)])
    assert db.version == start + 2


def test_delete_rows_invalidates_cached_result_not_plan(session, db):
    session.run(parse_query(JOIN))
    assert session.statistics().cardinalities["R"] == 4
    builds = session.stats.stats_builds

    assert db.delete_rows("R", where=lambda row: row[0] == 1) == 2
    result = session.run(parse_query(JOIN))
    # Removes cannot be folded into a factorised union: the cached
    # *result* dies, but the compiled plan survives the data change.
    assert result.cached  # plan hit
    assert session.stats.invalidations == 1
    assert session.stats.delta_refreshes == 1
    assert session.stats.result_misses == 2  # cold run + dropped entry
    assert session.cache_counters()["results"]["invalidations"] == 1
    assert session.statistics().cardinalities["R"] == 2
    assert session.stats.stats_builds == builds + 1
    # Rows joining through the deleted a=1 tuples are gone.
    assert all(row[0] != 1 for row in result.rows())


def test_update_rows_invalidates_cached_result_not_plan(session, db):
    session.run(parse_query(JOIN))
    assert session.statistics().distincts["S"]["d"] == 3
    builds = session.stats.stats_builds

    # (1, 7) already has d=7, so two of the three rows actually change.
    assert db.update_rows("S", lambda row: True, {"d": 7}) == 2
    result = session.run(parse_query(JOIN))
    assert result.cached  # plan hit; the result itself was rebuilt
    assert session.stats.invalidations == 1
    assert session.stats.delta_refreshes == 1
    assert session.cache_counters()["results"]["invalidations"] == 1
    assert session.statistics().distincts["S"]["d"] == 1
    assert session.stats.stats_builds == builds + 1
    assert all(row[3] == 7 for row in result.rows())


# -- batch execution -------------------------------------------------------


def test_batch_dedup_counts_in_stats(session):
    queries = [
        parse_query(JOIN),
        parse_query(REORDERED),
        parse_query("SELECT a FROM R"),
        parse_query(JOIN),
    ]
    results = session.run_batch(queries)
    assert [r.deduped for r in results] == [False, True, False, True]
    assert session.stats.batch_queries == 4
    assert session.stats.batch_deduped == 2
    assert session.stats.plan_misses == 2  # one per canonical query
    assert results[1].rows() == results[0].rows()


def test_batch_results_keep_input_order(session):
    workload = repeated_query_workload(
        session.database, unique=2, total=6, equalities=1, seed=3
    )
    results = session.run_batch(workload)
    assert len(results) == 6
    for query, result in zip(workload, results):
        assert result.query is query
    assert (
        session.stats.batch_deduped
        == 6 - session.stats.plan_misses
    )


# -- statistics reuse and fallback ----------------------------------------


def test_statistics_built_once_per_version(session):
    assert session.stats.stats_builds == 0  # lazy until needed
    first = session.statistics()
    again = session.statistics()
    assert first is again
    assert session.stats.stats_builds == 1


def test_estimates_cost_model_shares_session_statistics(db):
    session = QuerySession(db, cost_model="estimates")
    assert session.stats.stats_builds == 1
    assert session._fdb._stats is session.statistics()
    assert session.stats.stats_builds == 1


def test_fallback_budget_routes_to_flat(db):
    session = QuerySession(db, fallback_budget=0.0)
    result = session.run(parse_query(JOIN))
    assert result.engine == "flat"
    assert session.stats.fallbacks == 1
    # A generous budget keeps the factorised path.
    roomy = QuerySession(db, fallback_budget=1e12)
    assert roomy.run(parse_query(JOIN)).engine == "fdb"
    assert roomy.stats.fallbacks == 0


def test_fallback_estimate_cached_on_plan(db):
    session = QuerySession(db, fallback_budget=0.0)
    session.run(parse_query(JOIN))
    session.run(parse_query(REORDERED))
    assert session.stats.stats_builds == 1  # estimate computed once
    assert session.stats.plan_hits == 1  # fallback still uses the cache


# -- LRU bounds on the plan caches -----------------------------------------


DISTINCT_QUERIES = [
    "SELECT * FROM R",
    "SELECT * FROM S",
    "SELECT * FROM R, S WHERE b = c",
    "SELECT * FROM R, S WHERE b = d",
]


def test_cache_size_bounds_plan_cache(db):
    session = QuerySession(db, cache_size=2)
    for sql in DISTINCT_QUERIES:
        session.run(parse_query(sql))
    assert len(session._plans) == 2
    assert session.stats.plan_evictions == 2
    assert session.cached_plan_count == 2


def test_eviction_is_least_recently_used(db):
    # Result caching off: this test observes plan-cache recency via
    # ``cached``, which a warm result would otherwise short-circuit.
    session = QuerySession(db, cache_size=2, result_cache_size=0)
    session.run(parse_query(DISTINCT_QUERIES[0]))
    session.run(parse_query(DISTINCT_QUERIES[1]))
    session.run(parse_query(DISTINCT_QUERIES[0]))  # refresh #0
    session.run(parse_query(DISTINCT_QUERIES[2]))  # evicts #1
    assert session.run(parse_query(DISTINCT_QUERIES[0])).cached
    assert not session.run(parse_query(DISTINCT_QUERIES[1])).cached
    assert session.stats.plan_evictions >= 1


def test_evicted_plans_are_recompiled_correctly(db):
    bounded = QuerySession(db, cache_size=1)
    unbounded = QuerySession(db)
    for sql in DISTINCT_QUERIES * 2:
        assert (
            bounded.run(parse_query(sql)).rows()
            == unbounded.run(parse_query(sql)).rows()
        )
    # Capacity one and a cycle of four: every run is a miss.
    assert bounded.stats.plan_hits == 0
    assert bounded.stats.plan_misses == 8
    assert unbounded.stats.plan_hits == 4


def test_cache_counters_exposed(db):
    session = QuerySession(db, cache_size=2)
    for sql in DISTINCT_QUERIES:
        session.run(parse_query(sql))
    counters = session.cache_counters()
    assert counters["plans"]["size"] == 2
    assert counters["plans"]["evictions"] == 2
    assert counters["plans"]["misses"] == 4
    assert counters["fplans"]["size"] == 0


def test_invalid_cache_size_rejected(db):
    with pytest.raises(ValueError):
        QuerySession(db, cache_size=0)


def test_run_on_fplan_cache_is_bounded(db):
    session = QuerySession(db, cache_size=1)
    fr = session.run(parse_query("SELECT * FROM R, S")).factorised
    session.run_on(fr, Query.make([], equalities=[("b", "c")]))
    session.run_on(fr, Query.make([], equalities=[("b", "d")]))
    session.run_on(fr, Query.make([], equalities=[("b", "c")]))
    assert len(session._fplans) == 1
    assert session.stats.fplan_evictions == 2
    assert session.stats.fplan_hits == 0  # cycle of two, capacity one


# -- facade odds and ends --------------------------------------------------


def test_unknown_engine_rejected(session):
    with pytest.raises(ValueError):
        session.run(parse_query(JOIN), engine="postgres")


def test_cached_plan_hit_counter(session):
    query = parse_query(JOIN)
    session.run(query)
    session.run(query)
    session.run(query)
    (plan,) = session._plans.values()
    assert plan.hits == 2
    assert session.cached_plan_count == 1


def test_run_on_caches_fplans(session):
    fr = session.run(parse_query("SELECT * FROM R, S")).factorised
    first = session.run_on(fr, Query.make([], equalities=[("b", "c")]))
    second = session.run_on(fr, Query.make([], equalities=[("c", "b")]))
    assert not first.cached
    assert second.cached
    assert session.stats.fplan_hits == 1
    assert first.rows() == second.rows()
    assert first.plan is second.plan


def test_run_on_survives_an_exhausted_fplan_search(db, monkeypatch):
    """A search that hits its state cap degrades to the greedy plan
    instead of failing the request -- and says so in the stats."""
    import functools

    import repro.engine
    from repro.optimiser import SearchExhausted, exhaustive_fplan

    session = QuerySession(db)
    fr = session.run(parse_query("SELECT * FROM R, S, U")).factorised
    follow = Query.make([], equalities=[("b", "c"), ("d", "e")])
    pairs = [(eq.left, eq.right) for eq in follow.equalities]
    with pytest.raises(SearchExhausted):
        exhaustive_fplan(fr.tree, pairs, max_states=1)

    monkeypatch.setattr(
        repro.engine,
        "exhaustive_fplan",
        functools.partial(exhaustive_fplan, max_states=1),
    )
    result = session.run_on(fr, follow)
    assert session.stats.fplan_search_exhausted == 1
    flat = session.run(
        parse_query("SELECT * FROM R, S, U WHERE b = c AND d = e"),
        engine="flat",
    )
    assert result.rows() == flat.rows()
    assert result.rows()  # a non-trivial answer: (.., 2, 2, 8, 8) etc.
    # The degraded plan is cached like any other: no second search.
    assert session.run_on(fr, follow).cached
    assert session.stats.fplan_search_exhausted == 1


def test_session_context_manager_closes_sqlite(db):
    with QuerySession(db) as session:
        result = session.run(parse_query(JOIN), engine="sqlite")
        assert result.engine == "sqlite"
        assert session._sqlite is not None
    assert session._sqlite is None


def test_session_serves_and_caches_factorised_results(db):
    with QuerySession(db) as session:
        cold = session.run(parse_query(JOIN))
        warm = session.run(parse_query(JOIN))
        assert cold.factorised is not None
        assert cold.factorised.rep is not None
        assert not cold.cached and warm.cached
        assert cold.rows() == warm.rows()
    with QuerySession(db) as reference:
        assert reference.run(parse_query(JOIN)).rows() == cold.rows()


def test_there_is_no_encoding_to_choose(db):
    """One physical representation: the knob is gone outright, not
    aliased or ignored."""
    from repro.engine import FDB

    for factory in (QuerySession, FDB):
        with pytest.raises(TypeError, match="encoding"):
            factory(db, encoding="arena")
