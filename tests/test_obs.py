"""The observability layer (:mod:`repro.obs`): registry, tracing,
slow-query log, per-kernel profiling -- and the propagation paths
across pools and the wire that make one trace tell the whole story."""

from __future__ import annotations

import json

import pytest

from repro import persist
from repro.net import RemoteExecutor, RemoteSession, ServerThread
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    activate,
    context,
    current,
    span,
)
from repro.obs import trace as obs_trace
from repro.obs.profile import profile_plan
from repro.obs.report import optimiser_line, session_lines
from repro.query.parser import parse_query
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


def _database(seed: int = 81):
    return random_database(
        relations=3, attributes=6, tuples=8, domain=4, seed=seed
    )


def _span_names(result):
    return [record["name"] for record in result.spans or ()]


# -- metrics registry --------------------------------------------------------


def test_registry_instruments_and_snapshot():
    registry = MetricsRegistry()
    registry.counter("frames_total").inc()
    registry.counter("frames_total").inc(2)
    registry.gauge("depth").set(4)
    registry.gauge("depth").dec()
    histogram = registry.histogram("latency")
    histogram.observe(2e-6)
    histogram.observe(1.0)
    registry.register("adapter", lambda: {"calls": 7, "live": True})
    registry.register("absent", lambda: None)

    snap = registry.snapshot()
    assert snap["metrics"]["frames_total"] == 3
    assert snap["metrics"]["depth"] == 3
    hist = snap["metrics"]["latency"]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(1.0 + 2e-6)
    assert hist["buckets"][-1] == [None, 2]
    assert snap["adapter"] == {"calls": 7, "live": True}
    assert snap["absent"] is None  # absent subsystems stay visible
    # The whole snapshot must be JSON-safe: it ships in wire frames.
    json.dumps(snap)


def test_registry_reserves_metrics_namespace_and_replaces():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.register("metrics", dict)
    registry.register("ns", lambda: {"v": 1})
    registry.register("ns", lambda: {"v": 2})  # re-register replaces
    assert registry.snapshot()["ns"] == {"v": 2}


def test_prometheus_text_exposition():
    registry = MetricsRegistry()
    registry.counter("queries_total").inc(5)
    registry.histogram("query_seconds").observe(3e-6)
    registry.register(
        "server",
        lambda: {"requests": 9, "draining": False, "name": "skipme"},
    )
    text = registry.prometheus_text()
    assert "# TYPE repro_queries_total counter" in text
    assert "repro_queries_total 5" in text
    assert "# TYPE repro_query_seconds histogram" in text
    assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_query_seconds_count 1" in text
    assert "repro_server_requests 9" in text
    assert "repro_server_draining 0" in text  # bools become 0/1
    assert "skipme" not in text  # strings are identity, not metrics
    # The fixed bucket ladder spans 1us..~67s.
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
    assert len(LATENCY_BUCKETS) == 14


# -- tracing -----------------------------------------------------------------


def test_span_without_active_trace_is_shared_noop():
    assert current() is None
    assert context() is None
    noop = span("anything")
    assert noop is span("anything else")  # one shared object
    with noop:
        pass


def test_trace_records_spans_and_bounds_them():
    trace = Trace(max_records=3)
    with activate(trace):
        assert current() is trace
        assert context() == {"id": trace.trace_id}
        for i in range(5):
            with span("step", i=i):
                pass
    assert current() is None
    assert len(trace.records) == 3
    assert trace.dropped == 2
    record = trace.records[0]
    assert record["name"] == "step" and record["i"] == 0
    assert record["secs"] >= 0.0 and record["start"] >= 0.0


def test_trace_extend_prefixes_and_activate_none_is_noop():
    trace = Trace()
    trace.extend(
        [{"name": "factorise", "start": 0.0, "secs": 0.1}],
        prefix="worker:",
    )
    assert trace.records[0]["name"] == "worker:factorise"
    with activate(None):
        assert current() is None


# -- slow-query log ----------------------------------------------------------


def test_slow_log_threshold_and_jsonl_file(tmp_path):
    path = str(tmp_path / "slow.jsonl")
    log = SlowQueryLog(threshold=0.5, path=path, capacity=2)
    assert log.observe("fast", "fdb", 0.1) is None
    for i in range(3):
        entry = log.observe(
            f"slow{i}", "fdb", 1.0 + i, trace_id="t", origin={"id": "t"}
        )
        assert entry is not None and entry["sql"] == f"slow{i}"
    counters = log.counters()
    assert counters == {
        "threshold": 0.5,
        "observed": 4,
        "recorded": 3,
        "retained": 2,  # ring capacity
        "rotations": 0,
    }
    assert [e["sql"] for e in log.tail()] == ["slow1", "slow2"]
    lines = [
        json.loads(line)
        for line in open(path, encoding="utf-8").read().splitlines()
    ]
    assert len(lines) == 3  # the file keeps everything the ring drops
    assert lines[0]["origin"] == {"id": "t"}


def test_slow_log_rotation_boundary(tmp_path):
    """Keep-one rotation: the cap moves the file to PATH.1 exactly
    when the next line would cross it, and a second rotation
    overwrites the first rotated file."""
    import os

    path = str(tmp_path / "slow.jsonl")
    log = SlowQueryLog(threshold=0.0, path=path, max_bytes=400)
    log.observe("first", "fdb", 1.0)
    size_of_one = os.path.getsize(path)
    assert 0 < size_of_one <= 400
    # Fill right up to (but not over) the cap: no rotation yet.
    while os.path.getsize(path) + size_of_one <= 400:
        log.observe("first", "fdb", 1.0)
    assert log.rotations == 0
    assert not os.path.exists(path + ".1")
    full_size = os.path.getsize(path)
    # The boundary entry: appending would cross the cap, so the full
    # file rotates aside and a fresh one starts with just this entry.
    log.observe("boundary", "fdb", 1.0)
    assert log.rotations == 1
    assert os.path.getsize(path + ".1") == full_size
    fresh = open(path, encoding="utf-8").read().splitlines()
    assert len(fresh) == 1
    assert json.loads(fresh[0])["sql"] == "boundary"
    # Keep-one: the next rotation replaces PATH.1, never PATH.2.
    while log.rotations == 1:
        log.observe("again", "fdb", 1.0)
    assert log.counters()["rotations"] == 2
    assert not os.path.exists(path + ".2")
    rotated = open(path + ".1", encoding="utf-8").read().splitlines()
    assert all(json.loads(line)["sql"] != "first" for line in rotated)


# -- Prometheus endpoint hygiene ---------------------------------------------


def test_prometheus_endpoint_http_hygiene():
    """The metrics endpoint answers HEAD (headers only), sends the
    Prometheus content type, and 404s unknown paths instead of
    hanging or resetting."""
    import http.client

    session = QuerySession(_database(93))
    with ServerThread(session, metrics_port=0) as server:
        host, port = server.server.metrics_address

        def request(method, target):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(method, target)
                response = conn.getresponse()
                return response.status, dict(response.headers), response.read()
            finally:
                conn.close()

        status, headers, body = request("GET", "/metrics")
        assert status == 200
        assert "text/plain; version=0.0.4" in headers["Content-Type"]
        assert b"repro_server_requests" in body
        # HEAD: same status and headers, no body, connection closes
        # cleanly (health checkers probe this way).
        status, headers, body = request("HEAD", "/metrics")
        assert status == 200
        assert "text/plain; version=0.0.4" in headers["Content-Type"]
        assert int(headers["Content-Length"]) > 0
        assert body == b""
        # Unknown path: a clean 404 with a body, not a hang or reset.
        status, _, body = request("GET", "/nope")
        assert status == 404
        assert body == b"not found\n"
        # Unknown method: also a 404, and the server survives it.
        status, _, _ = request("POST", "/metrics")
        assert status == 404
        status, _, _ = request("GET", "/metrics")
        assert status == 200  # still serving


# -- session integration -----------------------------------------------------


def test_session_results_carry_spans_and_trace_id():
    with QuerySession(_database()) as session:
        result = session.run(parse_query("SELECT a00 FROM R0, R1 WHERE a01 = a02"))
        assert result.trace_id is not None
        names = _span_names(result)
        assert "optimise" in names
        assert "plan-cache" in names
        assert "factorise" in names
        assert "project" in names
        snap = session.snapshot()
        assert snap["metrics"]["traces_total"] == 1
        assert snap["metrics"]["query_seconds"]["count"] == 1


def test_tracing_off_yields_no_spans():
    with QuerySession(_database(), tracing=False) as session:
        result = session.run(parse_query("SELECT a00 FROM R0"))
        assert result.spans is None
        assert result.trace_id is None
        assert session.snapshot()["metrics"]["traces_total"] == 0


def test_session_slow_log_records_plan_and_spans():
    log = SlowQueryLog(threshold=0.0)  # log everything
    with QuerySession(_database(), slow_log=log) as session:
        session.run(parse_query("SELECT a00 FROM R0, R1 WHERE a01 = a02"))
        entry = log.tail(1)[0]
        assert "R0" in entry["sql"]
        assert entry["engine"] == "fdb"
        assert entry["trace_id"] is not None
        assert any(s["name"] == "factorise" for s in entry["spans"])
        assert entry["plan"] is not None  # the chosen f-tree
        assert session.snapshot()["slow_log"]["recorded"] >= 1


def test_run_on_profiles_fplan_spans():
    with QuerySession(_database()) as session:
        base = session.run(parse_query("SELECT * FROM R0, R1"))
        follow = parse_query("SELECT * FROM R0, R1 WHERE a00 = a02")
        result = session.run_on(base.factorised, follow)
        names = _span_names(result)
        assert "fplan-cache" in names
        assert "fplan-optimise" in names
        assert "fplan-execute" in names


def test_report_session_lines_render_snapshot():
    with QuerySession(_database()) as session:
        session.run_batch(
            [parse_query("SELECT a00 FROM R0")] * 2
        )
        lines = session_lines(session.snapshot(), total_queries=2)
    assert any(
        line.startswith("plans: 1 compiled, 0 cache hits") for line in lines
    )
    assert any("batch-deduplicated" in line for line in lines)
    assert any(line.startswith("results:") for line in lines)


# -- the optimiser namespace --------------------------------------------------


def _optimiser_delta(run):
    """What one fresh session adds to the process-wide tallies."""
    from repro.optimiser.bitspace import COUNTERS, counters

    before = COUNTERS.snapshot()
    with QuerySession(_database()) as session:
        run(session)
        assert session.snapshot()["optimiser"] == counters()
        lines = session_lines(session.snapshot())
    return COUNTERS.since(before), lines


def test_optimiser_counts_repeat_exactly_for_a_fixed_query():
    def run(session):
        base = session.run(
            parse_query("SELECT * FROM R0, R1, R2 WHERE a01 = a02")
        )
        follow = parse_query(
            "SELECT * FROM R0, R1, R2 WHERE a00 = a04 AND a03 = a05"
        )
        session.run_on(base.factorised, follow)

    first, lines = _optimiser_delta(run)
    second, _ = _optimiser_delta(run)
    assert first["ftree_searches"] == 1
    assert first["fplan_searches"] == 1
    assert first["ftree_subproblems"] > 0
    assert first["fplan_states_generated"] >= (
        first["fplan_states_expanded"]
    ) > 0
    # The LP counts depend on how warm the process-wide memo is; every
    # other count is a function of the searches alone.
    deterministic = [k for k in first if not k.startswith("cover_")]
    assert len(deterministic) == 6
    assert {k: first[k] for k in deterministic} == {
        k: second[k] for k in deterministic
    }
    assert second["cover_lp_solves"] == 0  # all solved the first time
    assert any(line.startswith("optimiser: ") for line in lines)


def test_optimiser_namespace_weighs_the_cover_memo(monkeypatch):
    from repro.costs.cost_model import clear_cover_cache
    from repro.costs.edge_cover import SIGNATURE_COVERS, SignatureCoverMemo
    from repro.optimiser.bitspace import counters

    monkeypatch.setattr(SignatureCoverMemo, "LIMIT", 4)
    clear_cover_cache()
    drops = SIGNATURE_COVERS.drops
    triangle = frozenset({0b011, 0b110, 0b101})
    SIGNATURE_COVERS.cover(triangle)  # one solved group, one key
    assert counters()["cover_memo_size"] == 2
    for extra in (0b1000, 0b10000, 0b100000):
        SIGNATURE_COVERS.cover(triangle | {extra})
    gauges = counters()
    # The last key found the memo full (group + three keys): it was
    # dropped wholesale, and that key is all it holds.
    assert gauges["cover_memo_drops"] == drops + 1
    assert gauges["cover_memo_size"] == 1
    line = optimiser_line(gauges)
    assert line.endswith(f"memo size 1 ({drops + 1} drops)")
    clear_cover_cache()


# -- the factorise namespace ---------------------------------------------------


def test_factorise_counts_repeat_exactly_for_a_fixed_query():
    from repro.core.build import COUNTERS

    def delta():
        before = COUNTERS.snapshot()
        with QuerySession(_database()) as session:
            for _ in range(2):  # the second run is a result-cache hit
                session.run(
                    parse_query("SELECT * FROM R0, R1, R2 WHERE a01 = a02")
                )
            assert session.snapshot()["factorise"] == COUNTERS.snapshot()
            lines = session_lines(session.snapshot())
        return COUNTERS.since(before), lines

    first, lines = delta()
    second, _ = delta()
    assert first == second  # fresh databases: tries are built both times
    assert first["calls"] == 1
    assert first["trie_builds"] == 3 and first["trie_hits"] == 0
    assert first["trie_rows_scanned"] == sum(len(r) for r in _database())
    assert first["entries_committed"] > 0
    assert any(line.startswith("factorise: ") for line in lines)


# -- propagation: process pool ----------------------------------------------


def test_spans_cross_the_pool_boundary():
    from repro.exec import ParallelExecutor

    db = ShardedDatabase.from_database(_database(83), shards=2)
    executor = ParallelExecutor(max_workers=2)
    with QuerySession(db, executor=executor) as session:
        result = session.run(parse_query("SELECT a00 FROM R0, R1 WHERE a01 = a02"))
        names = _span_names(result)
        # Worker-side spans come back prefixed, one per shard ...
        assert names.count("worker:shard") == 2
        # ... and coordinator-side recombination spans sit beside them.
        assert "union" in names
        assert "project" in names


# -- propagation: the wire ---------------------------------------------------


def test_trace_id_crosses_the_wire_into_the_server_slow_log():
    log = SlowQueryLog(threshold=0.0)
    session = QuerySession(_database(85), slow_log=log)
    with ServerThread(session) as server:
        with RemoteSession(server.address) as client:
            trace = Trace()
            with activate(trace):
                result = client.run("SELECT a00 FROM R0, R1 WHERE a01 = a02")
            # The server's entry correlates back to this client ...
            entry = log.tail(1)[0]
            assert entry["trace_id"] == trace.trace_id
            assert entry["origin"]["id"] == trace.trace_id
            assert entry["origin"]["client"] >= 1  # the request id
            # ... the result carries the server-side breakdown ...
            assert result.trace_id == trace.trace_id
            assert "factorise" in _span_names(result)
            # ... and the client trace absorbed it, prefixed.
            merged = [r["name"] for r in trace.records]
            assert any(n == "server:parse" for n in merged)
            assert any(n == "server:factorise" for n in merged)


def test_untraced_remote_results_stay_lean():
    session = QuerySession(_database(85))
    with ServerThread(session) as server:
        with RemoteSession(server.address) as client:
            result = client.run("SELECT a00 FROM R0")
            # No client trace -> the server does not ship span records
            # (they would bloat every untraced response).
            assert result.spans is None


def test_remote_executor_merges_remote_and_fallback_spans(tmp_path):
    db = ShardedDatabase.from_database(_database(87), shards=2)
    path = str(tmp_path / "sharded")
    persist.save(db, path)
    worker_session = QuerySession(persist.load(path))
    server = ServerThread(worker_session)
    executor = RemoteExecutor([server.address], timeout=30)
    coordinator = QuerySession(db, executor=executor, result_cache_size=0)
    query = random_spj_queries(
        db, 1, seed=88, max_relations=2, max_equalities=1
    )[0]
    try:
        result = coordinator.run(query)
        names = _span_names(result)
        assert any(n.startswith("remote[0]:shard") for n in names)
        server.stop()  # the fleet dies; the next run degrades locally
        second = coordinator.run(query)
        names = _span_names(second)
        assert "shard-local-fallback" in names
        assert executor.local_fallbacks > 0
    finally:
        coordinator.close()
        server.stop()


# -- per-kernel plan profiling -----------------------------------------------


def test_profile_plan_times_every_kernel():
    db = _database(89)
    with QuerySession(db) as session:
        base = session.run(parse_query("SELECT * FROM R0, R1"))
        fr = base.factorised
        pairs = [("a00", "a02")]
        plan = session._fdb.plan_for(fr.tree, pairs)
        assert plan.steps  # the equality forces restructuring
        result, profile = profile_plan(plan, fr)
        # Honest numbers: the profiled run produces the same result
        # the fused driver does.
        fused = plan.execute(fr)
        assert sorted(result.rows()) == sorted(fused.rows())
        # One row per kernel run: a chain step (absorb) has several.
        assert [row.index for row in profile.rows] == sorted(
            row.index for row in profile.rows
        )
        assert {row.index for row in profile.rows} <= set(
            range(len(plan.steps))
        )
        assert profile.total_seconds >= 0.0
        for row in profile.rows:
            assert row.kind in ("swap", "merge", "absorb", "push")
            assert row.kernel.endswith("Kernel")
        table = profile.format_table()
        assert "operator" in table and "kernel" in table
        assert "total:" in table


def test_profile_plan_reports_the_kernels_of_a_chain_separately():
    """An absorb is a restriction plus the push-ups its normalisation
    replays: each gets a row, under the step's index and operator."""
    from repro.core.build import factorise
    from repro.core.factorised import FactorisedRelation
    from repro.core.ftree import FTree
    from repro.optimiser.fplan import FPlan, Step
    from repro.relational.relation import Relation

    schemas = [
        ("a", "x"), ("x", "y"), ("y", "b"), ("b", "c"),
        ("a", "i"), ("x", "j"), ("y", "k"),
    ]
    tree = FTree.from_nested(
        [
            (
                "a",
                [
                    ("x", [("y", [("b", [("c", [])]), ("k", [])]), ("j", [])]),
                    ("i", []),
                ],
            )
        ],
        edges=[set(attrs) for attrs in schemas],
    )
    relations = [
        Relation.from_rows(
            "R_" + "_".join(attrs), attrs, [(u, v) for u in (1, 2) for v in (1, 2)]
        )
        for attrs in schemas
    ]
    fr = FactorisedRelation(tree, factorise(relations, tree))
    plan = FPlan(tree, [Step("absorb", ("a", "b"))])
    result, profile = profile_plan(plan, fr)
    assert sorted(result.rows()) == sorted(plan.execute(fr).rows())
    kernels = [row.kernel for row in profile.rows]
    assert kernels[0] == "RestrictKernel"
    assert len(kernels) >= 2 and set(kernels[1:]) == {"PushKernel"}
    assert {(row.index, row.op, row.kind) for row in profile.rows} == {
        (0, "alpha(a, b)", "absorb")
    }
    assert profile.total_seconds == sum(row.seconds for row in profile.rows)
    assert profile.format_table().count("alpha(a, b)") == len(kernels)


def test_profile_plan_identity_and_empty_inputs():
    db = _database(89)
    with QuerySession(db) as session:
        base = session.run(parse_query("SELECT * FROM R0"))
        fr = base.factorised
        plan = session._fdb.plan_for(fr.tree, [])
        result, profile = profile_plan(plan, fr)
        assert profile.rows == []
        assert "identity plan" in profile.format_table()
        assert sorted(result.rows()) == sorted(fr.rows())


# -- the CLI surface ---------------------------------------------------------


def test_cli_explain_profile_smoke(tmp_path, capsys):
    from repro.cli import main

    csv_path = tmp_path / "R.csv"
    csv_path.write_text("a,b\n1,1\n1,2\n2,2\n")
    csv2 = tmp_path / "S.csv"
    csv2.write_text("c,d\n1,10\n2,20\n")
    code = main(
        [
            "explain",
            "SELECT * FROM R, S WHERE b = c",
            "--csv",
            str(csv_path),
            str(csv2),
            "--profile",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "f-tree" in out
    assert "f-plan" in out
    assert "optimiser: 1 f-tree searches" in out
    assert "1 f-plan searches" in out
    assert "factorise: 1 calls, 2 tries built (5 rows scanned)" in out
    assert "kernel" in out  # the per-operator table header
    assert "total:" in out
