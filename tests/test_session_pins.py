"""Counter pins of the session's evaluation loop.

One fixed script -- ``run`` (on the factorised and on the flat engine),
``run_batch`` with a canonical duplicate and an exploding query that
the fallback routes to the flat engine, ``run_on``, ``extend_rows``,
then ``run`` again -- is played under the serial and the in-caller
parallel executor, on a flat and on a 3-shard database.  The session
counters, the cache counters and the span names every result carries
must equal the literals below: a change to the loop may not move a
single count or span.
"""

from __future__ import annotations

import pytest

from repro.exec import ParallelExecutor, SerialExecutor
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.service import QuerySession
from repro.storage.sharded import ShardedDatabase

JOIN = "SELECT * FROM R, S WHERE b = c"
REORDERED = "SELECT * FROM S, R WHERE c = b"
PROJECTED = "SELECT a, d FROM R, S WHERE b = c AND a <= 2"
#: Estimated at 31 singletons against the fallback budget of 25; the
#: joins stay below it, before and after the append.
EXPLODING = "SELECT * FROM R, V"
FOLLOW_UP = "SELECT * FROM R, S WHERE a = d"


def _database(shards: int) -> Database:
    database = Database() if shards == 1 else ShardedDatabase(shards)
    database.add_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)])
    database.add_rows("S", ("c", "d"), [(1, 7), (2, 8), (2, 9)])
    database.add_rows("V", ("f", "g"), [(i, i % 3) for i in range(12)])
    return database


def _session(kind: str, shards: int) -> QuerySession:
    return QuerySession(
        _database(shards), fallback_budget=25, executor=EXECUTORS[kind]()
    )


def _script(session: QuerySession):
    results = [session.run(parse_query(JOIN))]
    results += session.run_batch(
        [
            parse_query(PROJECTED),
            parse_query(EXPLODING),
            parse_query(REORDERED),
            parse_query(JOIN),
        ]
    )
    results.append(session.run(parse_query(PROJECTED), engine="flat"))
    results.append(
        session.run_on(results[0].factorised, parse_query(FOLLOW_UP))
    )
    session.database.extend_rows("R", [(4, 2), (5, 9)])
    results.append(session.run(parse_query(JOIN)))
    return results


EXECUTORS = {
    "serial": SerialExecutor,
    "parallel": lambda: ParallelExecutor(max_workers=1, pool="thread"),
}

SESSION = {
    "queries": 7,
    "plan_hits": 2,
    "plan_misses": 3,
    "plan_evictions": 0,
    "fplan_hits": 0,
    "fplan_misses": 1,
    "fplan_evictions": 0,
    "fplan_search_exhausted": 0,
    "stats_builds": 2,
    "invalidations": 1,
    "delta_refreshes": 1,
    "result_hits": 2,
    "result_misses": 2,
    "fallbacks": 1,
    "batch_queries": 4,
    "batch_deduped": 1,
    "store_hits": 0,
    "store_misses": 0,
}

CACHES = {
    "plans": {"hits": 2, "misses": 3, "evictions": 0, "size": 3},
    "fplans": {"hits": 0, "misses": 1, "evictions": 0, "size": 1},
    "results": {
        "hits": 2,
        "misses": 2,
        "evictions": 0,
        "delta_merges": 1,
        "delta_skips": 0,
        "delta_rows": 2,
        "invalidations": 0,
        "size": 2,
    },
}

#: One batch shares one trace, so its four results carry the same spans.
_SERIAL_BATCH = [
    "plan-cache",
    "optimise",
    "plan-cache",
    "optimise",
    "plan-cache",
    "compile-wave",
    "result-cache",
    "factorise",
    "result-cache",
    "project",
]
_PARALLEL_BATCH = [
    "plan-cache",
    "plan-cache",
    "plan-cache",
    "compile-wave",
    "result-cache",
    "result-cache",
    "worker:factorise",
    "project",
]
_SHARDED_BATCH = [
    "plan-cache",
    "plan-cache",
    "plan-cache",
    "compile-wave",
    "result-cache",
    "result-cache",
    "worker:shard",
    "worker:shard",
    "worker:shard",
    "union",
    "project",
]
#: The flat run, the follow-up and the caught-up rerun.
_TAIL = [
    [],
    ["fplan-cache", "fplan-optimise", "fplan-execute"],
    ["plan-cache", "result-cache"],
]
_SERIAL = [
    ["plan-cache", "optimise", "compile-wave", "result-cache", "factorise"],
    *[_SERIAL_BATCH] * 4,
    *_TAIL,
]
SPANS = {
    ("serial", 1): _SERIAL,
    # The serial executor evaluates a sharded database's merged view.
    ("serial", 3): _SERIAL,
    ("parallel", 1): [
        ["plan-cache", "compile-wave", "result-cache", "worker:factorise"],
        *[_PARALLEL_BATCH] * 4,
        *_TAIL,
    ],
    ("parallel", 3): [
        [
            "plan-cache",
            "compile-wave",
            "result-cache",
            "worker:shard",
            "worker:shard",
            "worker:shard",
            "union",
        ],
        *[_SHARDED_BATCH] * 4,
        *_TAIL,
    ],
}


@pytest.mark.parametrize("shards", [1, 3], ids=["flat", "sharded3"])
@pytest.mark.parametrize("kind", sorted(EXECUTORS))
def test_the_loop_moves_no_counter_and_no_span(kind, shards):
    with _session(kind, shards) as session:
        results = _script(session)
        assert session.snapshot()["session"] == SESSION
        assert session.cache_counters() == CACHES
    names = [
        [record["name"] for record in result.spans or ()]
        for result in results
    ]
    assert names == SPANS[kind, shards]
