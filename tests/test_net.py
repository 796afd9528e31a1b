"""The network tier: protocol framing, server robustness, client,
remote execution.

The evaluation-correctness side (served results == every in-process
engine) lives in tests/test_differential.py per the PR-1 policy; this
file covers the protocol-level contracts: framing round trips,
truncated/corrupt/oversized frames, mid-query disconnects (must error
cleanly, never hang the server), pipelining, backpressure, STATS,
graceful drain, and RemoteExecutor degradation.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro import persist
from repro.net import (
    NetError,
    ProtocolError,
    RemoteExecutor,
    RemoteSession,
    ServerThread,
    parse_address,
)
from repro.net import protocol
from repro.query.parser import parse_query
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


def _database(seed: int = 61):
    return random_database(
        relations=3, attributes=6, tuples=6, domain=4, seed=seed
    )


@pytest.fixture()
def served():
    """A live server over a small random database."""
    session = QuerySession(_database())
    with ServerThread(session) as server:
        yield server
    # Gauge hygiene: after the drain every admission and connection
    # must have retired -- exceptional paths included -- or the
    # pending/active gauges would drift and poison later snapshots.
    stats = server.server.stats
    assert stats.active_connections == 0
    assert stats.pending == 0


# -- protocol framing --------------------------------------------------------


def test_frame_round_trip():
    frame = protocol.encode_frame(
        "query", {"id": 7, "sql": "SELECT a00 FROM R0"}, b"\x01\x02"
    )
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    kind, header, payload = protocol.decode_body(frame[4:])
    assert kind == "query"
    assert header == {"id": 7, "sql": "SELECT a00 FROM R0"}
    assert payload == b"\x01\x02"


def test_decode_rejects_foreign_and_corrupt_bodies():
    good = protocol.encode_frame("stats", {"id": 1})[4:]
    with pytest.raises(ProtocolError, match="magic"):
        protocol.decode_body(b"XX" + good[2:])
    with pytest.raises(ProtocolError, match="protocol version"):
        protocol.decode_body(good[:2] + b"\x99" + good[3:])
    with pytest.raises(ProtocolError, match="kind"):
        protocol.decode_body(
            protocol.MAGIC + bytes([protocol.PROTOCOL_VERSION, 4])
            + b"bogu" + struct.pack(">I", 2) + b"{}"
        )
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.decode_body(good[: len(good) - 3])
    with pytest.raises(ProtocolError):
        protocol.decode_body(b"")


def test_result_pack_unpack_round_trips_all_payload_kinds():
    db = _database()
    query = parse_query("SELECT a00 FROM R0")
    with QuerySession(db) as session:
        for engine in ("fdb", "flat", "sqlite"):
            result = session.run(query, engine=engine)
            meta, payload = protocol.pack_result(result)
            rebuilt = protocol.unpack_result(query, meta, payload)
            assert rebuilt.engine == result.engine
            assert rebuilt.rows() == result.rows()
            assert rebuilt.count() == result.count()


def test_parse_address_forms():
    assert parse_address(("h", 9)) == ("h", 9)
    assert parse_address("h:9") == ("h", 9)
    assert parse_address("h") == ("h", protocol.DEFAULT_PORT)
    with pytest.raises(ValueError):
        parse_address("h:not-a-port")


# -- server robustness -------------------------------------------------------


def _raw_connect(address):
    sock = socket.create_connection(address, timeout=10)
    frame = protocol.recv_frame(sock)  # consume the hello
    assert frame is not None and frame[0] == "hello"
    return sock


def test_hello_describes_the_database(served):
    with RemoteSession(served.address) as client:
        info = client.server_info
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert info["encoding"] == "arena"
        assert info["sharded"] is False
        assert info["relations"] == ["R0", "R1", "R2"]


def test_oversized_frame_errors_cleanly(served):
    sock = _raw_connect(served.address)
    try:
        sock.sendall(struct.pack(">I", 2**31))  # declare a huge frame
        kind, header, _ = protocol.recv_frame(sock)
        assert kind == "error"
        assert "exceeds" in header["error"]
        assert protocol.recv_frame(sock) is None  # server closed it
    finally:
        sock.close()
    # ... and the server is still perfectly serviceable.
    with RemoteSession(served.address) as client:
        assert client.run("SELECT a00 FROM R0").count() >= 0


def test_corrupt_frame_errors_cleanly(served):
    sock = _raw_connect(served.address)
    try:
        sock.sendall(struct.pack(">I", 8) + b"garbage!")
        kind, header, _ = protocol.recv_frame(sock)
        assert kind == "error"
        assert header["type"] == "ProtocolError"
        assert protocol.recv_frame(sock) is None
    finally:
        sock.close()
    with RemoteSession(served.address) as client:
        assert client.run("SELECT a00 FROM R0").count() >= 0


def test_truncated_frame_then_disconnect_is_clean(served):
    sock = _raw_connect(served.address)
    frame = protocol.encode_frame(
        "query", {"id": 1, "sql": "SELECT a00 FROM R0"}
    )
    sock.sendall(frame[: len(frame) // 2])  # die mid-frame
    sock.close()
    with RemoteSession(served.address) as client:
        assert client.run("SELECT a00 FROM R0").count() >= 0


def test_disconnect_mid_query_never_hangs_the_server(served):
    # Fire a query and vanish before the response can be written.
    sock = _raw_connect(served.address)
    sock.sendall(
        protocol.encode_frame(
            "query",
            {"id": 1, "sql": "SELECT * FROM R0, R1, R2"},
        )
    )
    sock.close()
    # The server must survive losing the response sink and keep
    # serving other clients promptly.
    with RemoteSession(served.address) as client:
        assert client.run("SELECT a00 FROM R0").count() >= 0
        stats = client.stats()
        assert stats["server"]["queries"] >= 2


def test_unknown_engine_is_a_per_request_error(served):
    with RemoteSession(served.address) as client:
        with pytest.raises(NetError, match="unknown engine"):
            client.run("SELECT a00 FROM R0", engine="warp")
        # the connection survives the rejected request
        assert client.run("SELECT a00 FROM R0").count() >= 0


def test_malformed_sql_is_a_per_request_error(served):
    from repro.query.query import QueryError

    with RemoteSession(served.address) as client:
        # The client parses before sending: malformed SQL fails fast,
        # locally, without burning a round trip.
        with pytest.raises(QueryError):
            client.run("SELEC nonsense")
        assert client.run("SELECT a00 FROM R0").count() >= 0
    # A peer that skips the client library still gets a per-request
    # error frame, not a dropped connection.
    sock = _raw_connect(served.address)
    try:
        sock.sendall(
            protocol.encode_frame(
                "query", {"id": 5, "sql": "SELEC nonsense"}
            )
        )
        kind, header, _ = protocol.recv_frame(sock)
        assert kind == "error"
        assert header["id"] == 5
        assert header["type"] == "QueryError"
        # connection still usable afterwards
        sock.sendall(
            protocol.encode_frame(
                "query", {"id": 6, "sql": "SELECT a00 FROM R0"}
            )
        )
        kind, header, _ = protocol.recv_frame(sock)
        assert kind == "result"
        assert header["id"] == 6
    finally:
        sock.close()


def test_pipelining_under_tight_admission_bound():
    session = QuerySession(_database(62))
    with ServerThread(session, max_pending=2) as server:
        with RemoteSession(server.address) as client:
            queries = random_spj_queries(
                session.database,
                6,
                seed=63,
                max_relations=2,
                max_equalities=2,
            )
            # 18 requests in flight against a bound of 2: admission
            # backpressure must delay, never deadlock or drop.
            futures = [
                client.submit(q) for q in queries * 3
            ]
            results = [f.result(30) for f in futures]
            assert len(results) == 18
            stats = client.stats()
            assert stats["server"]["peak_pending"] <= 2
            assert stats["server"]["queries"] == 18
            assert stats["submitter"]["waves"] >= 1


def test_stats_document_shape(served):
    with RemoteSession(served.address) as client:
        client.run("SELECT a00 FROM R0")
        stats = client.stats()
        assert {"server", "session", "caches", "submitter"} <= set(stats)
        assert stats["server"]["connections"] >= 1
        assert stats["server"]["max_pending"] > 0
        assert stats["session"]["queries"] >= 1
        assert "plans" in stats["caches"]
        # The stats frame is the unified registry snapshot: the
        # instruments ride along.
        assert "metrics" in stats
        assert stats["metrics"]["query_seconds"]["count"] >= 1
        assert set(stats["caches"]) == {"plans", "fplans", "results"}


def test_metrics_frame_returns_snapshot_and_prometheus_text(served):
    with RemoteSession(served.address) as client:
        client.run("SELECT a00 FROM R0")
        snapshot = client.metrics()
        assert snapshot["metrics"]["query_seconds"]["count"] >= 1
        assert snapshot["session"]["queries"] >= 1
        text = client.metrics_text()
        assert "# TYPE repro_query_seconds histogram" in text
        assert "repro_server_requests" in text
        assert "repro_session_queries" in text


def test_prometheus_http_endpoint_scrapes():
    session = QuerySession(_database(91))
    with ServerThread(session, metrics_port=0) as server:
        with RemoteSession(server.address) as client:
            client.run("SELECT a00 FROM R0")
        host, port = server.server.metrics_address
        import urllib.request

        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert "repro_query_seconds_bucket" in body
        assert "repro_server_requests" in body
        assert "repro_caches_plans_hits" in body
        # Anything else is a 404, and the server survives it.
        import urllib.error

        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://{host}:{port}/nope", timeout=10
            )


def test_graceful_drain_completes_inflight_work():
    session = QuerySession(_database(64))
    server = ServerThread(session)
    client = RemoteSession(server.address)
    futures = [
        client.submit("SELECT a00 FROM R0") for _ in range(5)
    ]
    server.stop()  # drain: admitted requests still get answers
    results = []
    for future in futures:
        try:
            results.append(future.result(30))
        except NetError:
            pass  # raced the drain before admission: rejected cleanly
    for result in results:
        assert result.count() >= 0
    # after drain the port no longer accepts connections
    with pytest.raises((NetError, OSError)):
        RemoteSession(server.address, connect_timeout=2)
    client.close()


def test_client_close_fails_pending_futures(served):
    client = RemoteSession(served.address)
    future = client.submit("SELECT * FROM R0, R1, R2")
    client.close()
    with pytest.raises(NetError):
        future.result(10)


class _Unclosable:
    """A socket wrapper whose shutdown/close are no-ops, so the reader
    thread stays blocked in recv and close() hits its join timeout."""

    def __init__(self, sock):
        self._sock = sock

    def shutdown(self, *args):
        pass

    def close(self):
        pass

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_close_with_stuck_reader_warns_and_fails_pending(served):
    from concurrent.futures import Future

    client = RemoteSession(served.address, reader_join_timeout=0.2)
    assert client.run("SELECT a00 FROM R0").count() >= 0
    real_sock = client._sock
    client._sock = _Unclosable(real_sock)
    stranded: Future = Future()
    with client._state_lock:
        client._pending[99999] = (stranded, ())
    try:
        with pytest.warns(RuntimeWarning, match="did not exit"):
            client.close()
        # The session says what happened instead of hanging or
        # silently leaking: defunct flag up, pending futures failed.
        assert client.defunct
        with pytest.raises(NetError, match="stuck reader"):
            stranded.result(0)
    finally:
        # Release the (daemon) reader thread: shutdown interrupts the
        # blocked recv; close alone would not.
        try:
            real_sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        real_sock.close()
    client._reader.join(timeout=10)
    assert not client._reader.is_alive()


def test_clean_close_is_not_defunct(served):
    client = RemoteSession(served.address)
    client.close()
    assert client.closed and not client.defunct


# -- RemoteExecutor ----------------------------------------------------------


def test_remote_executor_requires_workers():
    with pytest.raises(ValueError):
        RemoteExecutor([])


def test_remote_executor_degrades_to_local_when_workers_die(tmp_path):
    db = _database(65)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    worker_session = QuerySession(persist.load(path))
    queries = random_spj_queries(
        db, 4, seed=66, max_relations=2, max_equalities=2
    )
    with QuerySession(sharded) as plain:
        expected = [plain.run(q).rows() for q in queries]
    server = ServerThread(worker_session)
    executor = RemoteExecutor([server.address], timeout=30)
    coordinator = QuerySession(sharded, executor=executor)
    try:
        first = coordinator.run_batch(queries[:2])
        assert [r.rows() for r in first] == expected[:2]
        assert executor.remote_tasks > 0
        assert executor.live_workers == 1
        server.stop()  # the whole fleet dies
        second = coordinator.run_batch(queries[2:])
        assert [r.rows() for r in second] == expected[2:]
        assert executor.live_workers == 0
        assert executor.local_fallbacks > 0
        assert "0 live" in executor.describe()
    finally:
        coordinator.close()


def test_remote_executor_degrades_visibly_in_the_registry(tmp_path):
    """A RemoteExecutor session that degrades to local shows it in the
    unified snapshot and on the Prometheus text, like a cluster."""
    db = _database(69)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    server = ServerThread(QuerySession(persist.load(path)))
    executor = RemoteExecutor([server.address], timeout=30)
    queries = random_spj_queries(
        db, 2, seed=69, max_relations=2, max_equalities=1
    )
    with QuerySession(sharded, executor=executor) as coordinator:
        try:
            coordinator.run(queries[0])
            assert coordinator.snapshot()["cluster"]["degrade_to_local"] == 0
        finally:
            server.stop()  # its only worker dies
        coordinator.run(queries[1])
        snap = coordinator.snapshot()
        text = coordinator.registry.prometheus_text()
    assert snap["cluster"]["degrade_to_local"] > 0
    assert snap["cluster"]["quarantined_workers"] == 1
    events = [e["event"] for e in snap["flight"]["events"]]
    assert "degrade-to-local" in events
    assert "repro_cluster_degrade_to_local" in text


def test_remote_executor_skips_version_mismatched_workers(tmp_path):
    db = _database(67)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    stale = persist.load(path)
    stale.extend_rows("R0", [(99, 99)])  # bump the worker's version
    with ServerThread(QuerySession(stale)) as server:
        executor = RemoteExecutor([server.address], timeout=30)
        with QuerySession(sharded, executor=executor) as coordinator:
            query = random_spj_queries(
                db, 1, seed=68, max_relations=2, max_equalities=1
            )[0]
            with QuerySession(sharded) as plain:
                expected = plain.run(query).rows()
            assert coordinator.run(query).rows() == expected
            # the mismatched worker was never used remotely
            assert executor.remote_tasks == 0
            assert executor.local_fallbacks > 0


def test_version_mismatch_is_reprobed_when_the_coordinator_catches_up(
    tmp_path,
):
    """A mismatch is transient, not terminal: once the coordinator's
    version matches the worker's again, the next batch must go remote
    (the executor re-probes the hello instead of keeping the worker
    pinned dead forever)."""
    db = _database(70)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "sharded")
    persist.save(sharded, path)
    ahead = persist.load(path)
    ahead.extend_rows("R0", [(99, 99)])  # worker runs one ahead
    with ServerThread(QuerySession(ahead)) as server:
        executor = RemoteExecutor([server.address], timeout=30)
        with QuerySession(sharded, executor=executor) as coordinator:
            queries = random_spj_queries(
                db, 4, seed=72, max_relations=2, max_equalities=1
            )
            coordinator.run_batch(queries[:2])
            assert executor.remote_tasks == 0  # mismatched: skipped
            assert executor.local_fallbacks > 0
            # The coordinator applies the same mutation; versions now
            # agree.  Fresh queries, so the delta-maintained result
            # cache cannot satisfy the batch without fan-out.
            sharded.extend_rows("R0", [(99, 99)])
            results = coordinator.run_batch(queries[2:])
            assert executor.remote_tasks > 0
            assert executor.live_workers == 1
            with QuerySession(ahead) as plain:
                expected = [plain.run(q).rows() for q in queries[2:]]
            assert [r.rows() for r in results] == expected


def test_cli_batch_connect(served, capsys):
    from repro.cli import main

    host, port = served.address
    rc = main(
        [
            "batch",
            "--connect",
            f"{host}:{port}",
            "--sql",
            "SELECT a00 FROM R0",
            "SELECT a00 FROM R0",
            "-v",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "remote" in out
    assert "batch-deduplicated" in out
    assert "server:" in out


def test_oversized_response_degrades_to_per_request_error():
    """A response bigger than max_frame must become an error frame,
    never a connection-killing oversized frame."""
    session = QuerySession(_database(69))
    with ServerThread(session, max_frame=512) as server:
        with RemoteSession(server.address, max_frame=512) as client:
            # The cartesian product result blob exceeds 512 bytes ...
            with pytest.raises(NetError, match="exceeds"):
                client.run("SELECT * FROM R0, R1, R2")
            # ... but the connection survives, and small results pass.
            assert client.run("SELECT a00 FROM R0") is not None


def test_run_timeout_raises_neterror_and_releases_the_slot(served):
    # Delay the response through a proxy rather than racing a zero
    # timeout: on localhost the server can answer inside any window,
    # so timeout=0.0 flakes when the reader wins the race.
    from fault_injection import ChaosProxy

    proxy = ChaosProxy(served.address)
    try:
        client = RemoteSession(proxy.address, timeout=0.2)
        proxy.delay = 2.0
        with pytest.raises(NetError, match="within"):
            client.run("SELECT a00 FROM R0")
        with client._state_lock:
            assert not client._pending  # timed-out entry was released
        proxy.delay = 0.0
        client.timeout = 30.0
        assert client.run("SELECT a00 FROM R0").count() >= 0
        client.close()
    finally:
        proxy.close()
