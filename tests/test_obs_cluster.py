"""The cluster-wide observability plane: federation, heat maps,
advisor, flight recorder.

The tentpole promise is one-terminal legibility of a fleet: a
federation poll must never hang on a dead or slow worker (bounded
timeouts per scrape), a killed worker must flip to DOWN-with-age
within one poll, the advisor must name that worker's shards, and the
flight recorder must narrate the coordinator's fault handling as
structured JSONL.  Unit tests drive the advisor on synthetic views --
it is a pure function, that's the point -- and integration tests run
the whole plane against a real 3-worker fleet, with ChaosProxy
supplying the faults.
"""

from __future__ import annotations

import json
import time

import pytest

from fault_injection import ChaosProxy
from test_cluster import Cluster, _database, _queries

from repro.cli import main
from repro.net import RemoteSession, ReplicatedExecutor
from repro.obs import ClusterFederation, FlightRecorder, MetricsRegistry, advise
from repro.obs.report import cluster_lines
from repro.service import QuerySession


# -- flight recorder ---------------------------------------------------------


def test_flight_recorder_ring_bound_and_dumps(tmp_path):
    path = str(tmp_path / "flight.jsonl")
    recorder = FlightRecorder(capacity=3, path=path)
    for i in range(5):
        recorder.record("quarantine-open", worker=f"w{i}:1", streak=1)
    events = recorder.events()
    assert [e["worker"] for e in events] == ["w2:1", "w3:1", "w4:1"]
    assert [e["seq"] for e in events] == [3, 4, 5]
    assert recorder.recorded == 5 and recorder.dropped == 2
    assert recorder.auto_dumps == 0  # quarantines are not loud
    # A loud event rewrites the whole ring to disk immediately.
    recorder.record("degrade-to-local", shard=1, chain=["w4:1"])
    assert recorder.auto_dumps == 1
    lines = [
        json.loads(line)
        for line in open(path, encoding="utf-8").read().splitlines()
    ]
    assert len(lines) == 3  # the retained ring, not the full history
    assert lines[-1]["event"] == "degrade-to-local"
    assert lines[-1]["chain"] == ["w4:1"]
    # dump_text is the same document as the file.
    assert recorder.dump_text().splitlines()[-1] == json.dumps(
        lines[-1], sort_keys=True, default=str
    )
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder().dump()  # no path configured


def test_flight_recorder_rides_the_registry_snapshot():
    registry = MetricsRegistry()
    recorder = FlightRecorder(capacity=8)
    registry.register("flight", recorder.counters)
    recorder.record("ownership-miss", worker="w0:1")
    snap = registry.snapshot()
    assert snap["flight"]["recorded"] == 1
    assert snap["flight"]["events"][0]["event"] == "ownership-miss"
    json.dumps(snap)  # still wire-frame safe
    text = registry.prometheus_text()
    # Counters flatten; the events list is identity data and must not.
    assert "repro_flight_recorded 1" in text
    assert "ownership-miss" not in text


# -- the advisor (pure function over synthetic views) ------------------------


def _synthetic_view(**overrides):
    view = {
        "workers_total": 3,
        "live_workers": 3,
        "polls": 2,
        "scrape_failures": 0,
        "shard_count": 4,
        "replication_factor": 2,
        "workers": {
            f"worker[{i}]": {
                "address": f"w{i}:1",
                "live": True,
                "staleness": 0.1,
                "error": None,
                "polls": 2,
                "failures": 0,
                "db_version": 7,
                "owned_shards": [i],
                "ring_shards": [i],
                "heat_queries": 10.0,
                "server": {"requests": 5, "ownership_rejections": 0},
                "cluster": None,
                "snapshot": {},
            }
            for i in range(3)
        },
        "rollup": {},
        "heat": {
            "shards": {
                str(i): {
                    "queries": 10,
                    "rows": 100,
                    "seconds": 0.5,
                    "replicas": [f"w{i}:1", f"w{(i + 1) % 3}:1"],
                    "primary": f"w{i}:1",
                }
                for i in range(3)
            },
            "worker_load": {f"w{i}:1": 10.0 for i in range(3)},
            "skew": 1.0,
        },
    }
    view.update(overrides)
    return view


def test_advisor_healthy_cluster_gives_no_advice():
    assert advise(_synthetic_view()) == []


def test_advisor_flags_a_dead_workers_shards():
    view = _synthetic_view()
    view["workers"]["worker[1]"].update(
        live=False, staleness=12.5, error="connection refused"
    )
    view["live_workers"] = 2
    recs = advise(view)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["action"] == "set_workers"
    assert rec["drop"] == "w1:1"
    assert rec["workers"] == ["w0:1", "w2:1"]
    assert rec["shards"] == [1]  # names the shards now one replica short
    assert "w1:1" in rec["reason"] and "12.5" in rec["reason"]


def test_advisor_with_no_live_workers_says_investigate():
    view = _synthetic_view()
    for worker in view["workers"].values():
        worker["live"] = False
        worker["staleness"] = None
    view["live_workers"] = 0
    recs = advise(view)
    assert all(r["action"] == "investigate" for r in recs)
    assert "never scraped" in recs[0]["reason"]


def test_advisor_heat_skew_moves_the_hottest_shard():
    view = _synthetic_view()
    view["heat"]["worker_load"] = {"w0:1": 40.0, "w1:1": 1.0, "w2:1": 1.0}
    view["heat"]["shards"]["0"]["queries"] = 40
    recs = advise(view, heat_skew_threshold=2.0)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["action"] == "replica-chain"
    assert rec["from"] == "w0:1"
    assert rec["to"] in ("w1:1", "w2:1")
    assert rec["shard"] == 0
    assert "skew" in rec["reason"]
    # Below the threshold the same shape is healthy.
    view["heat"]["worker_load"] = {"w0:1": 12.0, "w1:1": 9.0, "w2:1": 9.0}
    assert advise(view) == []


def test_advisor_quarantine_rate_flags_a_flapping_worker():
    view = _synthetic_view()
    coordinator = {
        "per_worker": {
            "w2:1": {"quarantines": 4, "retries": 6},
            "w0:1": {"quarantines": 1},
        }
    }
    recs = advise(view, cluster=coordinator)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["action"] == "set_workers"
    assert rec["drop"] == "w2:1"
    assert "quarantined 4x" in rec["reason"]
    # A dead worker is not double-flagged by its quarantine count.
    view["workers"]["worker[2]"]["live"] = False
    view["live_workers"] = 2
    recs = advise(view, cluster=coordinator)
    assert [r["drop"] for r in recs] == ["w2:1"]


def test_cluster_lines_render_the_view_and_advice():
    view = _synthetic_view()
    view["workers"]["worker[1]"].update(live=False, staleness=3.0)
    view["live_workers"] = 2
    lines = cluster_lines(view, advise(view))
    text = "\n".join(lines)
    assert "2/3 workers live" in text
    assert "DOWN (age 3.0s)" in text
    assert "shard 0: 10 queries" in text
    assert "advisor:" in text and "[set_workers]" in text
    healthy = "\n".join(cluster_lines(_synthetic_view(), []))
    assert "cluster looks healthy" in healthy


# -- federation unit behaviour -----------------------------------------------


def test_federation_address_validation():
    with pytest.raises(ValueError, match="at least one"):
        ClusterFederation([])
    with pytest.raises(ValueError, match="duplicate"):
        ClusterFederation(["w:1", "w:1"])
    with pytest.raises(ValueError, match="port"):
        ClusterFederation(["just-a-host"])
    fed = ClusterFederation([("10.0.0.1", 9000), "10.0.0.2:9001"])
    assert fed.keys == ("10.0.0.1:9000", "10.0.0.2:9001")


def test_federation_labelled_prometheus_from_synthetic_view():
    fed = ClusterFederation(["w0:1", "w1:1", "w2:1"], shard_count=4)
    text = fed.prometheus_text(_synthetic_view())
    assert 'repro_worker_up{worker="w0:1"} 1' in text
    assert 'repro_worker_server_requests{worker="w1:1"} 5' in text
    assert 'repro_shard_queries{shard="0"} 10' in text
    assert 'repro_shard_seconds{shard="2"} 0.5' in text
    assert "repro_cluster_live_workers 3" in text
    # One TYPE line per family, not per sample.
    assert text.count("# TYPE repro_worker_up gauge") == 1


# -- the plane against a real fleet ------------------------------------------


def test_federation_scrapes_a_fleet_heat_and_rollup(tmp_path):
    cluster = Cluster(tmp_path, db_seed=81, shards=4, workers=3)
    queries = _queries(cluster.db, 82, 6)
    executor = ReplicatedExecutor(
        cluster.keys, replication_factor=2, timeout=30
    )
    fed = ClusterFederation(cluster.keys, replication_factor=2)
    try:
        with QuerySession(cluster.sharded, executor=executor) as coord:
            results = coord.run_batch(queries)
        assert [r.rows() for r in results] == cluster.expected(queries)
        fed.poll()
        view = fed.view()
        assert view["live_workers"] == 3
        assert view["shard_count"] == 4  # learned from the hello
        for worker in view["workers"].values():
            assert worker["live"] and worker["staleness"] < 30
            assert worker["server"]["requests"] >= 1
            assert worker["ring_shards"]  # drawn against the ring
        # The heat map saw every shard the batch touched, attributed
        # to replica chains.
        shards = view["heat"]["shards"]
        assert shards, "expected a non-empty heat map"
        total = sum(entry["queries"] for entry in shards.values())
        assert total == executor.remote_tasks
        for entry in shards.values():
            assert entry["rows"] >= 0 and entry["seconds"] > 0
            assert len(entry["replicas"]) == 2
            assert entry["primary"] == entry["replicas"][0]
        # Roll-up sums numeric leaves across workers.
        assert view["rollup"]["server"]["requests"] == sum(
            w["server"]["requests"] for w in view["workers"].values()
        )
        # The labelled exposition names every worker and shard.
        text = fed.prometheus_text(view)
        for key in cluster.keys:
            assert f'repro_worker_up{{worker="{key}"}} 1' in text
        assert 'repro_shard_queries{shard="' in text
        # A small synthetic batch can legitimately skew hot (few
        # queries, few shards), so the heat rule may fire -- but no
        # liveness rule should: every worker is up.
        assert all(
            r["action"] != "set_workers" for r in advise(view)
        )
    finally:
        fed.stop()
        cluster.close()


def test_dead_worker_goes_stale_and_advisor_names_its_shards(tmp_path):
    """Killing a worker flips it to DOWN with a staleness age within
    one poll, the poll itself never hangs, and the advisor recommends
    a membership without it, naming its shards."""
    cluster = Cluster(tmp_path, db_seed=83, shards=4, workers=3)
    proxy = ChaosProxy(cluster.addresses[0])
    keys = [f"{proxy.address[0]}:{proxy.address[1]}"] + cluster.keys[1:]
    # Re-own against the proxied ring so routing matches the keys the
    # federation sees.
    fed = ClusterFederation(
        keys,
        replication_factor=2,
        connect_timeout=2.0,
        request_timeout=2.0,
        shard_count=4,
    )
    try:
        fed.poll()
        first = fed.view()
        assert first["live_workers"] == 3
        # Possibly none: the ring is drawn from ephemeral ports.
        victim_shards = first["workers"]["worker[0]"]["ring_shards"]
        # Kill the worker behind the proxy: refuse new connections and
        # cut the live ones.
        proxy.refuse(True)
        proxy.kill_connections()
        start = time.monotonic()
        fed.poll()
        elapsed = time.monotonic() - start
        assert elapsed < 10  # bounded by the scrape timeouts
        view = fed.view()
        assert view["live_workers"] == 2
        victim = view["workers"]["worker[0]"]
        assert not victim["live"]
        assert victim["staleness"] is not None  # age since last success
        assert victim["error"]
        recs = advise(view)
        assert recs and recs[0]["action"] == "set_workers"
        assert recs[0]["drop"] == keys[0]
        assert recs[0]["shards"] == list(
            victim_shards or victim["owned_shards"] or ()
        )
        assert sorted(recs[0]["workers"]) == sorted(keys[1:])
        # The last good snapshot is kept, aged -- not thrown away.
        assert victim["server"] is not None
    finally:
        fed.stop()
        proxy.close()
        cluster.close()


def test_slow_worker_never_hangs_the_poll(tmp_path):
    cluster = Cluster(tmp_path, db_seed=84, shards=2, workers=2)
    proxy = ChaosProxy(cluster.addresses[0])
    proxy.delay = 30.0  # far beyond the scrape budget
    keys = [f"{proxy.address[0]}:{proxy.address[1]}", cluster.keys[1]]
    fed = ClusterFederation(
        keys, connect_timeout=0.5, request_timeout=0.5
    )
    try:
        start = time.monotonic()
        fed.poll()
        elapsed = time.monotonic() - start
        assert elapsed < 10  # one slow worker does not stall the rest
        view = fed.view()
        assert view["workers"]["worker[1]"]["live"]
        assert not view["workers"]["worker[0]"]["live"]
    finally:
        fed.stop()
        proxy.close()
        cluster.close()


def test_coordinator_flight_recorder_and_per_worker_attribution(
    tmp_path,
):
    """Quarantine + degrade events land in the coordinator's flight
    recorder as structured JSONL (auto-dumped on the loud ones), and
    the cluster counters attribute the faults to worker addresses."""
    cluster = Cluster(tmp_path, db_seed=85, shards=2, workers=2)
    queries = _queries(cluster.db, 86, 3)
    flight_path = str(tmp_path / "flight.jsonl")
    executor = ReplicatedExecutor(
        cluster.keys,
        replication_factor=2,
        timeout=10,
        connect_timeout=2,
        backoff_base=0.01,
        quarantine_seconds=30,
        flight_path=flight_path,
    )
    try:
        # Kill the whole fleet: every shard must degrade to local,
        # loudly, and the narrative must name the chain it walked.
        cluster.close()
        with QuerySession(cluster.sharded, executor=executor) as coord:
            results = coord.run_batch(queries)
            snap = coord.snapshot()
        assert [r.rows() for r in results] == cluster.expected(queries)
        assert executor.degrade_to_local > 0
        events = executor.flight.events()
        kinds = {event["event"] for event in events}
        assert "quarantine-open" in kinds
        assert "retry-exhausted" in kinds
        assert "degrade-to-local" in kinds
        degrade = next(
            e for e in events if e["event"] == "degrade-to-local"
        )
        assert set(degrade["chain"]) <= set(cluster.keys)
        assert degrade["seq"] > 0 and degrade["ts"] > 0
        # Loud faults dumped the ring to disk automatically.
        assert executor.flight.auto_dumps > 0
        dumped = [
            json.loads(line)
            for line in open(flight_path, encoding="utf-8")
            .read()
            .splitlines()
        ]
        assert any(e["event"] == "degrade-to-local" for e in dumped)
        # Per-worker attribution: the incident names its victims.
        per_worker = executor.counters()["per_worker"]
        for key in set(degrade["chain"]):
            assert per_worker[key]["degrade_to_local"] >= 1
        assert any(
            tallies.get("quarantines", 0) >= 1
            or tallies.get("connect_failures", 0) >= 1
            for tallies in per_worker.values()
        )
        # The registry's flight namespace carries the same events.
        assert snap["flight"]["recorded"] == executor.flight.recorded
        assert any(
            e["event"] == "degrade-to-local"
            for e in snap["flight"]["events"]
        )
    finally:
        executor.close()


def test_server_flight_events_via_stats_cli(tmp_path, capsys):
    """A worker's own flight recorder captures ownership misses, and
    ``repro stats --connect --events`` dumps them as JSONL."""
    from repro.net import NetError
    from repro.storage import ShardedDatabase

    cluster = Cluster(tmp_path, db_seed=87, shards=2, workers=1)
    try:
        query = _queries(cluster.db, 88, 1)[0]
        with QuerySession(
            ShardedDatabase.from_database(cluster.db, shards=2)
        ) as local:
            plan, _ = local.compile(query)
        server = cluster.servers[0]
        fanout = cluster.sharded.fanout_relation(query.relations)
        with RemoteSession(server.address) as client:
            # Shed shard 1 (a rebalance event), then route it here
            # anyway (an ownership-miss event).
            client.disown_shards([1])
            with pytest.raises(NetError, match="OwnershipError"):
                client.submit_shard(
                    query, plan.tree, 1, fanout
                ).result(30)
        events = server.server.flight.events()
        kinds = [e["event"] for e in events]
        assert "rebalance" in kinds
        assert "ownership-miss" in kinds
        miss = next(e for e in events if e["event"] == "ownership-miss")
        assert miss["shard"] == 1
        address = f"{server.address[0]}:{server.address[1]}"
        assert main(["stats", "--connect", address, "--events"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()]
        assert any(e["event"] == "ownership-miss" for e in lines)
        assert all("seq" in e and "ts" in e for e in lines)
    finally:
        cluster.close()


def test_cluster_status_cli_renders_fleet_heat_and_advice(
    tmp_path, capsys
):
    """The acceptance scenario: one command against a 3-worker fleet
    renders per-worker liveness, merged counters and the heat map."""
    cluster = Cluster(tmp_path, db_seed=89, shards=4, workers=3)
    queries = _queries(cluster.db, 90, 4)
    executor = ReplicatedExecutor(
        cluster.keys, replication_factor=2, timeout=30
    )
    try:
        with QuerySession(cluster.sharded, executor=executor) as coord:
            coord.run_batch(queries)
        address_list = ",".join(cluster.keys)
        assert (
            main(
                [
                    "cluster-status",
                    address_list,
                    "--replication-factor",
                    "2",
                    "--timeout",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3/3 workers live" in out
        assert "heat map" in out
        for key in cluster.keys:
            assert key in out
        # Every worker is live, so the only advice there can be is
        # about heat: the ring is drawn from the workers' ephemeral
        # ports, and some draws put enough of four shards on one
        # worker to cross the 2x skew threshold.
        advice = out[out.index("advisor:") :].splitlines()
        assert advice == ["advisor: cluster looks healthy"] or (
            advice[0] == "advisor:"
            and all("[replica-chain]" in line for line in advice[1:])
        )
        # The labelled exposition, same fleet.
        assert (
            main(
                [
                    "cluster-status",
                    address_list,
                    "--prometheus",
                    "--timeout",
                    "10",
                ]
            )
            == 0
        )
        prom = capsys.readouterr().out
        assert 'repro_worker_up{worker="' in prom
        assert 'repro_shard_queries{shard="' in prom
        # And the raw view as JSON.
        assert (
            main(
                [
                    "cluster-status",
                    address_list,
                    "--json",
                    "--timeout",
                    "10",
                ]
            )
            == 0
        )
        view = json.loads(capsys.readouterr().out)
        assert view["live_workers"] == 3
    finally:
        executor.close()
        cluster.close()


def test_federation_http_endpoint_hygiene():
    """The coordinator-side exposition endpoint follows the same HTTP
    contract as the worker endpoint: GET/HEAD, the Prometheus content
    type, 404 for unknown paths."""
    import http.client

    fed = ClusterFederation(["127.0.0.1:1"], shard_count=2)
    fed.poll()  # dead worker: still a perfectly scrapable view
    try:
        host, port = fed.serve_http()

        def request(method, target):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(method, target)
                response = conn.getresponse()
                return (
                    response.status,
                    dict(response.headers),
                    response.read(),
                )
            finally:
                conn.close()

        status, headers, body = request("GET", "/metrics")
        assert status == 200
        assert "text/plain; version=0.0.4" in headers["Content-Type"]
        assert b'repro_worker_up{worker="127.0.0.1:1"} 0' in body
        status, headers, body = request("HEAD", "/metrics")
        assert status == 200 and body == b""
        assert int(headers["Content-Length"]) > 0
        status, _, _ = request("GET", "/nope")
        assert status == 404
    finally:
        fed.stop()
