"""The cluster robustness tier: ring, ownership, retry, quarantine.

Correctness under fault injection is the whole point: every scenario
that kills, delays, refuses or truncates a worker must still produce
answers byte-identical to local evaluation, with the failure visible
in the executor's counters (a silent degrade is a bug even when the
rows are right).  The chaos itself comes from
:mod:`tests.fault_injection` -- a byte-level TCP proxy, so workers
fail exactly the way real networks fail.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from fault_injection import ChaosProxy

from repro import persist
from repro.net import (
    ClusterMap,
    NetError,
    OwnershipError,
    ProtocolError,
    QueryServer,
    RemoteSession,
    ReplicatedExecutor,
    ServerThread,
)
from repro.obs import trace as obs_trace
from repro.persist import PersistError
from repro.service import QuerySession
from repro.storage import ShardedDatabase
from repro.workloads import random_database, random_spj_queries


def _database(seed: int = 71):
    return random_database(
        relations=3, attributes=6, tuples=6, domain=4, seed=seed
    )


def _queries(db, seed: int, count: int = 6):
    return random_spj_queries(
        db, count, seed=seed, max_relations=2, max_equalities=2
    )


class Cluster:
    """N shard workers serving one saved sharded database, each owning
    the shards a :class:`ClusterMap` over the given keys assigns it.

    ``keys`` defaults to the workers' real addresses; tests that put a
    :class:`ChaosProxy` in front of a worker pass the proxy addresses
    instead, so the ring (and therefore the coordinator's routing)
    goes through the chaos.
    """

    def __init__(
        self,
        tmp_path,
        db_seed: int = 71,
        shards: int = 4,
        workers: int = 3,
        replication_factor: int = 2,
        strategy: str = "hash",
        keys=None,
        own: bool = True,
    ):
        self.db = _database(db_seed)
        self.sharded = ShardedDatabase.from_database(
            self.db, shards=shards, strategy=strategy
        )
        self.path = str(tmp_path / f"sharded-{db_seed}")
        persist.save(self.sharded, self.path)
        self.servers = [
            ServerThread(
                QuerySession(persist.load(self.path)),
                owned_shards=[] if own else None,
            )
            for _ in range(workers)
        ]
        self.addresses = [server.address for server in self.servers]
        self.keys = keys or [f"{h}:{p}" for h, p in self.addresses]
        self.map = ClusterMap(
            self.keys, shards, replication_factor
        )
        if own:
            assignments = self.map.assignments()
            for key, server in zip(self.keys, self.servers):
                if assignments[key]:
                    with RemoteSession(server.address) as client:
                        client.own_shards(assignments[key])

    def expected(self, queries):
        with QuerySession(self.sharded) as plain:
            return [plain.run(q).rows() for q in queries]

    def close(self):
        for server in self.servers:
            try:
                server.stop()
            except Exception:
                pass


# -- ClusterMap --------------------------------------------------------------


def test_ring_is_deterministic_distinct_and_balanced():
    workers = ["w0:1", "w1:1", "w2:1"]
    a = ClusterMap(workers, 16, replication_factor=2)
    b = ClusterMap(list(reversed(workers)), 16, replication_factor=2)
    # Derived from values alone: any process computes the same ring.
    assert a.assignments() == b.assignments()
    for shard in range(16):
        replicas = a.replicas_for(shard)
        assert len(replicas) == 2
        assert len(set(replicas)) == 2
    # Every worker carries a share, and R-way replication doubles the
    # total placement count.
    loads = {w: len(s) for w, s in a.assignments().items()}
    assert all(load >= 1 for load in loads.values())
    assert sum(loads.values()) == 16 * 2


def test_ring_validation_and_clamping():
    assert ClusterMap(["w:1"], 4, replication_factor=3).replication_factor == 1
    with pytest.raises(ValueError, match="duplicate"):
        ClusterMap(["w:1", "w:1"], 4)
    with pytest.raises(ValueError):
        ClusterMap([], 4)
    with pytest.raises(ValueError):
        ClusterMap(["w:1"], 0)
    with pytest.raises(ValueError, match="out of range"):
        ClusterMap(["w:1"], 4).replicas_for(4)


def test_rebalance_moves_only_the_departed_workers_shards():
    workers = [f"w{i}:1" for i in range(4)]
    old = ClusterMap(workers, 32, replication_factor=2)
    before = old.assignments()
    new, delta = old.rebalance(workers[:3])
    after = new.assignments()
    # The departed worker disowns everything it had and owns nothing.
    assert delta["w3:1"] == {"own": (), "disown": before["w3:1"]}
    # Consistent hashing: a shard that never touched w3 does not move.
    untouched = [
        s for s in range(32) if "w3:1" not in old.replicas_for(s)
    ]
    assert untouched, "expected some shards to avoid w3 entirely"
    for shard in untouched:
        assert old.replicas_for(shard) == new.replicas_for(shard)
    # Full coverage survives the departure.
    placed = sorted(s for shards in after.values() for s in shards)
    assert placed == sorted(list(range(32)) * 2)


def test_from_manifest_reads_the_shard_count(tmp_path):
    db = _database(72)
    sharded = ShardedDatabase.from_database(db, shards=5)
    path = str(tmp_path / "saved")
    persist.save(sharded, path)
    cmap = ClusterMap.from_manifest(path, ["a:1", "b:1"], 2)
    assert cmap.shard_count == 5
    with pytest.raises(PersistError, match="manifest"):
        ClusterMap.from_manifest(str(tmp_path), ["a:1"])


# -- manifest / shard-file robustness (satellite 3) --------------------------


def test_corrupt_or_missing_shard_files_name_the_culprit(tmp_path):
    db = _database(73)
    sharded = ShardedDatabase.from_database(db, shards=3)
    path = str(tmp_path / "saved")
    persist.save(sharded, path)
    shard_file = os.path.join(path, "shard-0000.fdbp")
    blob = open(shard_file, "rb").read()
    # A flipped payload byte fails the manifest checksum, by name.
    with open(shard_file, "wb") as handle:
        handle.write(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(PersistError, match="shard-0000.fdbp"):
        persist.load(path)
    # A truncated shard file is unreadable, by name.
    with open(shard_file, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(PersistError, match="shard-0000.fdbp"):
        persist.load(path)
    # A missing shard file, by name.
    os.remove(shard_file)
    with pytest.raises(
        PersistError, match="missing shard file 'shard-0000.fdbp'"
    ):
        persist.load(path)


def test_truncated_manifest_names_the_manifest(tmp_path):
    db = _database(74)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "saved")
    persist.save(sharded, path)
    manifest = os.path.join(path, persist.MANIFEST_NAME)
    blob = open(manifest, "rb").read()
    with open(manifest, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(PersistError, match="manifest.fdbp"):
        persist.load(path)
    with pytest.raises(PersistError, match="manifest.fdbp"):
        persist.load_shard_manifest(path)


def test_cluster_answers_from_the_surviving_copy(tmp_path):
    """One worker's saved copy is corrupt, so that worker never comes
    up; the replica holding an intact copy answers everything."""
    db = _database(75)
    sharded = ShardedDatabase.from_database(db, shards=2)
    good = str(tmp_path / "good")
    bad = str(tmp_path / "bad")
    persist.save(sharded, good)
    persist.save(sharded, bad)
    shard_file = os.path.join(bad, "shard-0001.fdbp")
    blob = open(shard_file, "rb").read()
    with open(shard_file, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(PersistError, match="shard-0001.fdbp"):
        persist.load(bad)  # the would-be second worker is dead on boot
    queries = _queries(db, 76)
    with QuerySession(sharded) as plain:
        expected = [plain.run(q).rows() for q in queries]
    server = ServerThread(
        QuerySession(persist.load(good))
    )
    dead_port = server.address[1] + 1  # nothing listens there
    dead_key = f"127.0.0.1:{dead_port}"
    executor = ReplicatedExecutor(
        [dead_key, server.address],
        replication_factor=2,
        timeout=30,
        quarantine_seconds=30,
    )
    try:
        with QuerySession(sharded, executor=executor) as coordinator:
            results = coordinator.run_batch(queries)
        assert [r.rows() for r in results] == expected
        assert executor.degrade_to_local == 0
        assert executor.remote_tasks > 0
        # Only attempted (and so only counted) when the ring put the
        # dead worker first for some shard; either way every answer
        # came from the surviving copy.
        cmap = executor._map_for(2)
        if any(
            cmap.replicas_for(s)[0] == dead_key for s in range(2)
        ):
            assert executor.connect_failures > 0
    finally:
        server.stop()


# -- ownership over the wire -------------------------------------------------


def test_ownership_contract_over_the_wire(tmp_path):
    db = _database(77)
    sharded = ShardedDatabase.from_database(db, shards=2)
    session = QuerySession(sharded)
    query = _queries(db, 78, 1)[0]
    with QuerySession(
        ShardedDatabase.from_database(db, shards=2)
    ) as local:
        plan, _ = local.compile(query)
    fanout = sharded.fanout_relation(query.relations)
    with ServerThread(session, owned_shards=[0]) as server:
        with RemoteSession(server.address) as client:
            assert client.server_info["owned_shards"] == [0]
            # Owned shard answers; the other is a typed refusal that
            # leaves the connection usable.
            assert client.submit_shard(query, plan.tree, 0, fanout).result(30)
            with pytest.raises(NetError, match="OwnershipError"):
                client.submit_shard(query, plan.tree, 1, fanout).result(30)
            receipt = client.own_shards([1])
            assert receipt["owned"] == [0, 1]
            assert client.server_info["owned_shards"] == [0, 1]
            assert client.submit_shard(query, plan.tree, 1, fanout).result(30)
            receipt = client.disown_shards([0])
            assert receipt["owned"] == [1]
            with pytest.raises(NetError, match="OwnershipError"):
                client.submit_shard(query, plan.tree, 0, fanout).result(30)
        stats = server.server.stats
        assert stats.own_requests == 1
        assert stats.disown_requests == 1
        assert stats.ownership_rejections == 2


def test_failures_are_classified_by_the_servers_error_type():
    """A worker error whose *message* mentions OwnershipError (here a
    query naming a relation of that name) is a worker error, not a
    routing miss: classification reads the server's error type."""
    db = _database(98)
    with QuerySession(db) as local:
        plan, _ = local.compile(_queries(db, 99, 1)[0])
    executor = ReplicatedExecutor(["w:1"], replication_factor=1)
    with ServerThread(QuerySession(db)) as server:
        with RemoteSession(server.address) as client:
            with pytest.raises(NetError) as caught:
                client.submit_execute(
                    "SELECT * FROM OwnershipError", plan.tree
                ).result(30)
    exc = caught.value
    assert "OwnershipError" in str(exc)
    assert exc.server_type == "QueryError"
    executor._record_failure(0, exc)
    assert executor.worker_errors == 1
    assert executor.ownership_misses == 0
    assert executor.quarantines == 0


def test_ownership_rejects_unsharded_and_out_of_range():
    with QuerySession(_database(79)) as flat_session:
        with pytest.raises(ProtocolError, match="unsharded"):
            QueryServer(flat_session, owned_shards=[0])
    sharded = ShardedDatabase.from_database(_database(79), shards=2)
    with QuerySession(sharded) as session:
        with pytest.raises(ProtocolError, match="out of range"):
            QueryServer(session, owned_shards=[5])
        with pytest.raises(OwnershipError, match="does not own"):
            raise OwnershipError("this worker does not own shard 1")


def test_executor_routes_around_a_known_non_owner(tmp_path):
    """A worker whose hello says it owns nothing is skipped before a
    round trip is wasted; its server never sees a shard request."""
    cluster = Cluster(
        tmp_path, db_seed=80, shards=4, workers=2, replication_factor=2
    )
    try:
        # Re-contract: worker 0 owns nothing, worker 1 owns all.
        with RemoteSession(cluster.addresses[0]) as client:
            client.disown_shards(range(4))
        with RemoteSession(cluster.addresses[1]) as client:
            client.own_shards(range(4))
        queries = _queries(cluster.db, 81)
        expected = cluster.expected(queries)
        executor = ReplicatedExecutor(
            cluster.keys, replication_factor=2, timeout=30
        )
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            results = coordinator.run_batch(queries)
        assert [r.rows() for r in results] == expected
        assert executor.degrade_to_local == 0
        assert executor.remote_tasks > 0
        for server in cluster.servers:
            assert server.server.stats.ownership_rejections == 0
    finally:
        cluster.close()


# -- ReplicatedExecutor: healthy ring ----------------------------------------


def test_healthy_ring_matches_local_and_registers_counters(tmp_path):
    cluster = Cluster(tmp_path, db_seed=82, shards=4, workers=3)
    try:
        queries = _queries(cluster.db, 83)
        expected = cluster.expected(queries)
        executor = ReplicatedExecutor(
            cluster.keys, replication_factor=2, timeout=30
        )
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            results = coordinator.run_batch(queries)
            snap = coordinator.snapshot()
            text = coordinator.registry.prometheus_text()
        assert [r.rows() for r in results] == expected
        assert executor.remote_tasks > 0
        assert executor.retries == 0
        assert executor.degrade_to_local == 0
        assert executor.quarantined_workers == 0
        # The cluster namespace rides the unified registry: snapshot
        # and Prometheus text both carry the counters.
        assert snap["cluster"]["remote_tasks"] == executor.remote_tasks
        assert snap["cluster"]["healthy_workers"] == 3
        assert "repro_cluster_remote_tasks" in text
        assert "repro_cluster_degrade_to_local 0" in text
        assert "replicated (3 workers" in executor.describe()
        # No coordinator routing miss ever reached a worker.
        for server in cluster.servers:
            assert server.server.stats.ownership_rejections == 0
    finally:
        cluster.close()


# -- fault injection ---------------------------------------------------------


def _proxied_cluster(tmp_path, db_seed, shards=4, workers=3, R=2):
    """A cluster whose every worker sits behind a ChaosProxy, with the
    ring computed over the *proxy* addresses."""
    staging = Cluster(
        tmp_path, db_seed=db_seed, shards=shards, workers=workers,
        replication_factor=R, own=False,
    )
    proxies = [ChaosProxy(address) for address in staging.addresses]
    keys = [f"{h}:{p}" for h, p in (p.address for p in proxies)]
    cluster = Cluster.__new__(Cluster)
    cluster.db = staging.db
    cluster.sharded = staging.sharded
    cluster.path = staging.path
    cluster.servers = staging.servers
    cluster.addresses = staging.addresses
    cluster.keys = keys
    cluster.map = ClusterMap(keys, shards, R)
    assignments = cluster.map.assignments()
    for key, server in zip(keys, cluster.servers):
        with RemoteSession(server.address) as client:
            client.disown_shards(range(shards))
            if assignments[key]:
                client.own_shards(assignments[key])
    return cluster, proxies


def _primary_of_most_shards(cluster):
    """The worker index that is first replica for the most shards."""
    tally = {key: 0 for key in cluster.keys}
    for shard in range(cluster.map.shard_count):
        tally[cluster.map.replicas_for(shard)[0]] += 1
    victim_key = max(tally, key=tally.get)
    assert tally[victim_key] >= 1
    return cluster.keys.index(victim_key)


def test_worker_killed_mid_batch_retries_to_replica(tmp_path):
    """The acceptance scenario: R=2, a worker dies mid-batch (its
    response truncated inside a frame), answers stay byte-identical
    with zero local degrades -- the replica absorbed the work."""
    cluster, proxies = _proxied_cluster(tmp_path, db_seed=84)
    executor = ReplicatedExecutor(
        cluster.keys,
        replication_factor=2,
        timeout=30,
        backoff_base=0.01,
        quarantine_seconds=30,
        seed=7,
    )
    try:
        queries = _queries(cluster.db, 85, 8)
        expected = cluster.expected(queries)
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            healthy = coordinator.run_batch(queries[:4])
            assert [r.rows() for r in healthy] == expected[:4]
            assert executor.retries == 0
            victim = _primary_of_most_shards(cluster)
            # Mid-frame: the next response through the victim's proxy
            # is cut after 40 bytes -- inside its length-prefixed
            # frame -- and every later reconnect dies the same way.
            proxies[victim].kill_after_bytes(40)
            wounded = coordinator.run_batch(queries[4:])
            assert [r.rows() for r in wounded] == expected[4:]
        assert proxies[victim].kills >= 1, "chaos never fired"
        assert executor.retries > 0
        assert executor.degrade_to_local == 0
        assert executor.quarantines >= 1
        assert executor.quarantined_workers == 1
    finally:
        for proxy in proxies:
            proxy.close()
        cluster.close()


def test_slow_worker_times_out_and_the_replica_answers(tmp_path):
    cluster, proxies = _proxied_cluster(tmp_path, db_seed=86)
    executor = ReplicatedExecutor(
        cluster.keys,
        replication_factor=2,
        timeout=30,
        attempt_timeout=0.15,
        backoff_base=0.01,
        quarantine_seconds=30,
        seed=7,
    )
    try:
        queries = _queries(cluster.db, 87, 6)
        expected = cluster.expected(queries)
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            healthy = coordinator.run_batch(queries[:3])
            assert [r.rows() for r in healthy] == expected[:3]
            victim = _primary_of_most_shards(cluster)
            proxies[victim].delay = 1.0  # >> attempt_timeout
            slow = coordinator.run_batch(queries[3:])
            assert [r.rows() for r in slow] == expected[3:]
        assert executor.timeouts > 0
        assert executor.retries > 0
        assert executor.degrade_to_local == 0
    finally:
        for proxy in proxies:
            proxy.close()
        cluster.close()


def test_all_replicas_down_degrades_loudly(tmp_path):
    """R=1 and the sole owner dead: the shard must still answer --
    locally, under an explicit span and counter."""
    cluster = Cluster(
        tmp_path, db_seed=88, shards=4, workers=2, replication_factor=1
    )
    executor = ReplicatedExecutor(
        cluster.keys,
        replication_factor=1,
        timeout=30,
        quarantine_seconds=30,
    )
    try:
        queries = _queries(cluster.db, 89)
        expected = cluster.expected(queries)
        victim = _primary_of_most_shards(cluster)
        cluster.servers[victim].stop()
        trace = obs_trace.Trace()
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            with obs_trace.activate(trace):
                results = coordinator.run_batch(queries)
        assert [r.rows() for r in results] == expected
        assert executor.degrade_to_local > 0
        assert executor.local_fallbacks >= executor.degrade_to_local
        degrade_spans = [
            r for r in trace.records if r["name"] == "degrade-to-local"
        ]
        assert len(degrade_spans) == executor.degrade_to_local
        assert all("shard" in r for r in degrade_spans)
    finally:
        cluster.close()


def test_quarantine_blocks_attempts_then_half_open_probe_recovers(
    tmp_path,
):
    db = _database(90)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "saved")
    persist.save(sharded, path)
    server = ServerThread(
        QuerySession(persist.load(path))
    )
    proxy = ChaosProxy(server.address)
    executor = ReplicatedExecutor(
        [proxy.address],
        replication_factor=1,
        timeout=30,
        backoff_base=0.01,
        quarantine_seconds=30,
    )
    # One fresh query per phase: a repeated query would be served
    # from the result cache with no fan-out at all, proving nothing.
    queries = _queries(db, 91, 4)
    with QuerySession(sharded) as plain:
        expected = [plain.run(q).rows() for q in queries]
    try:
        with QuerySession(sharded, executor=executor) as coordinator:
            assert [
                r.rows() for r in coordinator.run_batch(queries[:1])
            ] == expected[:1]
            tasks_when_healthy = executor.remote_tasks
            assert tasks_when_healthy > 0
            # Kill the live connections and refuse reconnects: the
            # worker is quarantined after the failed attempts.
            proxy.kill_connections()
            proxy.refuse(True)
            assert [
                r.rows() for r in coordinator.run_batch(queries[1:2])
            ] == expected[1:2]
            assert executor.quarantines >= 1
            assert executor.quarantined_workers == 1
            failures_after_quarantine = executor.connect_failures
            # Inside the window the worker is not even attempted.
            assert [
                r.rows() for r in coordinator.run_batch(queries[2:3])
            ] == expected[2:3]
            assert executor.connect_failures == failures_after_quarantine
            assert executor.probes == 0
            # Heal the network and expire the window: the next attempt
            # is the half-open probe, and it restores the worker.
            proxy.heal()
            executor._quarantined_until = [0.0]
            assert [
                r.rows() for r in coordinator.run_batch(queries[3:])
            ] == expected[3:]
            assert executor.probes >= 1
            assert executor.probe_recoveries >= 1
            assert executor.quarantined_workers == 0
            assert executor.remote_tasks > tasks_when_healthy
    finally:
        proxy.close()
        server.stop()


def test_probe_failure_doubles_the_quarantine_window(tmp_path):
    db = _database(92)
    sharded = ShardedDatabase.from_database(db, shards=2)
    executor = ReplicatedExecutor(
        ["127.0.0.1:1"],  # nothing listens on port 1
        replication_factor=1,
        timeout=5,
        connect_timeout=2,
        quarantine_seconds=10,
        quarantine_cap=60,
    )
    queries = _queries(db, 93, 2)  # distinct, so neither is cached
    with QuerySession(sharded, executor=executor) as coordinator:
        coordinator.run_batch(queries[:1])
        assert executor.quarantines >= 1
        streak_1 = executor._quarantine_streak[0]
        first_window = executor._quarantined_until[0] - time.monotonic()
        executor._quarantined_until = [0.0]  # expire: next try probes
        coordinator.run_batch(queries[1:])
        assert executor.probes >= 1
        assert executor.probe_failures >= 1
        assert executor._quarantine_streak[0] > streak_1
        second_window = (
            executor._quarantined_until[0] - time.monotonic()
        )
        assert second_window > first_window
    assert executor.degrade_to_local > 0


# -- rebalancing -------------------------------------------------------------


def test_set_workers_rebalances_and_pushes_the_delta(tmp_path):
    cluster = Cluster(tmp_path, db_seed=94, shards=4, workers=3)
    executor = ReplicatedExecutor(
        cluster.keys, replication_factor=2, timeout=30
    )
    try:
        queries = _queries(cluster.db, 95)
        expected = cluster.expected(queries)
        with QuerySession(
            cluster.sharded, executor=executor
        ) as coordinator:
            assert [
                r.rows() for r in coordinator.run_batch(queries[:3])
            ] == expected[:3]
            # Worker 2 leaves the membership: the executor recomputes
            # the ring and pushes own/disown to everyone affected.
            receipts = executor.set_workers(
                cluster.keys[:2], shard_count=4
            )
            assert executor.rebalances == 1
            assert len(executor.addresses) == 2
            departed = cluster.keys[2]
            if departed in receipts:
                assert receipts[departed]["disown"]
            # The survivors now carry every shard between them (R=2
            # over 2 workers = both own everything), per their hellos.
            for address in cluster.addresses[:2]:
                with RemoteSession(address) as client:
                    assert client.server_info["owned_shards"] == [
                        0, 1, 2, 3,
                    ]
            with RemoteSession(cluster.addresses[2]) as client:
                assert client.server_info["owned_shards"] == []
            # ... and the shrunken ring still answers correctly,
            # remotely (fresh queries, so the result cache cannot
            # serve them without fan-out), with no routing misses.
            before = executor.remote_tasks
            assert [
                r.rows() for r in coordinator.run_batch(queries[3:])
            ] == expected[3:]
            assert executor.remote_tasks > before
            assert executor.degrade_to_local == 0
        for server in cluster.servers:
            assert server.server.stats.ownership_rejections == 0
    finally:
        cluster.close()


# -- version mismatch (executor-level, batch-scoped) -------------------------


def test_version_mismatched_worker_is_skipped_then_reprobed(tmp_path):
    db = _database(96)
    sharded = ShardedDatabase.from_database(db, shards=2)
    path = str(tmp_path / "saved")
    persist.save(sharded, path)
    ahead = persist.load(path)
    ahead.extend_rows("R0", [(99, 99)])  # the worker runs one ahead
    server = ServerThread(QuerySession(ahead))
    executor = ReplicatedExecutor(
        [server.address], replication_factor=1, timeout=30
    )
    # Distinct queries per batch: the delta-maintained result cache
    # would serve a repeat with no fan-out, hiding the re-probe.
    queries = _queries(db, 97, 4)
    try:
        with QuerySession(sharded, executor=executor) as coordinator:
            coordinator.run_batch(queries[:2])
            # Mismatch: skipped, degraded, but NOT quarantined.
            assert executor.version_mismatches >= 1
            assert executor.remote_tasks == 0
            assert executor.degrade_to_local > 0
            assert executor.quarantines == 0
            # The coordinator catches up to the worker's version; the
            # next batch re-probes the hello and goes remote again.
            sharded.extend_rows("R0", [(99, 99)])
            degrades_before = executor.degrade_to_local
            results = coordinator.run_batch(queries[2:])
            assert executor.remote_tasks > 0
            assert executor.degrade_to_local == degrades_before
            with QuerySession(ahead) as plain:
                expected = [plain.run(q).rows() for q in queries[2:]]
            assert [r.rows() for r in results] == expected
    finally:
        server.stop()


def test_executor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ReplicatedExecutor([])
    executor = ReplicatedExecutor(["w:1", "w:2"], replication_factor=9)
    assert executor.replication_factor == 9  # clamped per-map, lazily
    cmap = executor._map_for(4)
    assert cmap.replication_factor == 2
    with pytest.raises(ValueError):
        executor.set_workers([])
