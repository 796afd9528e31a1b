"""The six workloads: how each builds its system and runs one op.

An op is what a user does: SQL text in -> ``parse_query`` -> evaluate
-> consume (``count()`` plus the first :data:`CONSUME_ROWS` tuples of
the lazy row iterator).  Every workload exposes the same four calls --
``build`` (everything up to a system that can take its first op),
``begin_round`` (untimed per-round state such as a fresh session),
``run_op`` and ``close`` -- so ``harness.py`` drives them all through
one loop.  With tracing on, ``run_op`` also replays the op's stages
through the layers' public functions (see ``spans.py``).
"""

from __future__ import annotations

import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import time
from collections import Counter
from typing import Dict, Optional, Tuple

from gen import Load, Op
from spans import Tracer
from surface import HERE, Surface

CONSUME_ROWS = 2000
SHARDS = 4
OUT = os.path.join(HERE, "out")
SERVER_START_TIMEOUT = 60.0
RTT_SAMPLES = 25


class Workload:
    """Base: an in-process session over the load's tables."""

    #: a fresh session per round (every op a plan miss + result miss)
    fresh_session = True

    def __init__(self, S: Surface, load: Load, tracer: Tracer) -> None:
        self.S = S
        self.load = load
        self.tr = tracer
        self.db = None
        self.session = None
        self.views: Dict[str, object] = {}
        #: traced-run counters that are not span durations
        self.counters: Counter = Counter()
        self._engine = None

    # -- lifecycle -----------------------------------------------------------

    def make_database(self):
        return self.S.database(self.load.tables)

    def make_session(self):
        return self.S.session(self.db)

    def build(self) -> None:
        self.db = self.make_database()
        if self.load.views:
            with self.make_session() as session:
                for name, sql in self.load.views.items():
                    query = self.S.parse_query(sql)
                    self.views[name] = session.run(query).factorised
        if not self.fresh_session:
            self.session = self.make_session()

    def begin_round(self) -> None:
        if self.fresh_session:
            self.fold_session_stats()
            self.session = self.make_session()

    def close(self) -> None:
        self.fold_session_stats()

    def fold_session_stats(self) -> None:
        """Close the round's session, keeping its public hit counters."""
        if self.session is None:
            return
        stats = self.session.stats
        for key in ("plan_hits", "plan_misses", "result_hits", "result_misses"):
            self.counters[key] += getattr(stats, key, 0)
        results = self.session.cache_counters().get("results", {})
        self.counters["delta_merges"] += results.get("delta_merges", 0)
        self.counters["sessions"] += 1
        self.session.close()
        self.session = None

    # -- one op ----------------------------------------------------------------

    def run_op(self, client: int, op: Op, op_id):
        """Run one user op; returns (count, first rows, a callable giving
        the iterator over every row -- the verification pass hashes it)."""
        S, tr = self.S, self.tr
        sql = self.load.queries[op.qid]
        before = self._stat_marks() if tr.enabled else None
        with tr.span("op", op_id):
            with tr.span("query.parse", op_id):
                query = S.parse_query(sql)
            with tr.span("service.run", op_id) as run:
                if op.kind == "followup":
                    source = self.views[query.relations[0]]
                    result = self.session.run_on(source, query)
                else:
                    result = self.session.run(query)
            with tr.span("core.consume", op_id):
                count, rows = S.consume(result, CONSUME_ROWS)
        if tr.enabled:
            try:
                if op.kind == "followup":
                    self.replay_followup(query, result, op_id, run.id)
                else:
                    self.replay_query(query, op_id, run, before)
            except Exception as exc:
                S.replay_failed(exc)
        return count, rows, lambda: S.row_iterator(result)

    # -- stage replays (traced run only) -------------------------------------

    def _stat_marks(self) -> Tuple[int, int, int]:
        stats = self.session.stats
        merges = self.session.cache_counters().get("results", {})
        return (
            stats.plan_misses,
            stats.result_misses,
            merges.get("delta_merges", 0),
        )

    def engine(self):
        if self._engine is None:
            self._engine = self.S.engine(self.db)
        return self._engine

    def replay_query(self, query, op_id, run, before) -> None:
        """Redo what ``session.run`` did for this op, stage by stage."""
        engine = self.engine()
        if engine is None:
            return
        tr = self.tr
        after = self._stat_marks()
        plan_miss, result_miss, merged = (a > b for a, b in zip(after, before))
        tree = None
        if plan_miss:
            with tr.span("optimiser.ftree", op_id, run.id, replay=True):
                tree = engine.optimal_tree(query)
        fr = None
        if result_miss:
            if tree is None:
                tree = engine.optimal_tree(query)
            fr = self.replay_factorise(engine, query, tree, op_id, run.id)
        elif merged:
            # A cached result caught up with the delta log inside the
            # session; that cannot be redone from outside, so the whole
            # call is attributed to ivm (synthetic span).
            seconds = run.record["end"] - run.record["start"]
            tr.add("ivm.delta_read", op_id, run.id, run.record["start"], seconds)
        if fr is not None and query.projection is not None and self.S.project:
            with tr.span("ops.project", op_id, run.id, replay=True):
                self.S.project(fr, query.projection)

    def replay_factorise(self, engine, query, tree, op_id, parent):
        with self.tr.span("core.factorise", op_id, parent, replay=True) as span:
            fr = engine.factorise_query(query, tree=tree)
        if self.tr.enabled:
            size, flat = self.S.singletons(fr)
            span.record.update(singletons=size, flat_elements=flat)
        return fr

    def replay_followup(self, query, result, op_id, parent) -> None:
        engine = self.engine()
        plan = getattr(result, "plan", None)
        if engine is None or plan is None:
            return
        tr = self.tr
        source = self.views[query.relations[0]]
        if not result.cached:
            pairs = [(eq.left, eq.right) for eq in query.equalities]
            with tr.span("optimiser.fplan", op_id, parent, replay=True):
                engine.plan_for(source.tree, pairs)
        with tr.span(
            "ops.fplan_exec", op_id, parent, replay=True, steps=len(plan.steps)
        ):
            plan.execute(source)


class ShardedFanout(Workload):
    def make_database(self):
        with self.tr.span("storage.partition", "setup"):
            return self.S.sharded(self.load.tables, SHARDS)

    def make_session(self):
        return self.S.session(self.db, executor=self.S.fanout_executor())

    def replay_factorise(self, engine, query, tree, op_id, parent):
        """The fan-out from outside: one shard view and one factorise
        per shard, then the union (what ``repro.exec`` does per miss)."""
        S, tr = self.S, self.tr
        if S.union_all is None:
            return super().replay_factorise(engine, query, tree, op_id, parent)
        pool = S.shared_pool_for(self.db) if S.shared_pool_for else None
        fanout = self.db.fanout_relation(query.relations)
        parts = []
        for index in range(self.db.shard_count):
            with tr.span("storage.shard_view", op_id, parent, replay=True):
                view = self.db.shard_view(index, fanout)
            shard_engine = S.engine(view, shared_pool=pool)
            parts.append(
                super().replay_factorise(shard_engine, query, tree, op_id, parent)
            )
        with tr.span("ops.union", op_id, parent, replay=True):
            fr = S.union_all(parts)
        self.counters["shard_tasks"] += len(parts)
        self.counters["fanout_queries"] += 1
        return fr


class FplanFollowup(Workload):
    # One session for the whole run: the warm-up round fills its f-plan
    # cache, so timed ops replay cached plans (no optimiser).
    fresh_session = False


class AppendRequery(Workload):
    def begin_round(self) -> None:
        # Writes mutate the database: every round starts from a fresh copy.
        self.fold_session_stats()
        self.db = self.make_database()
        self._engine = None
        self.session = self.make_session()

    def run_op(self, client: int, op: Op, op_id):
        if op.kind != "write":
            return super().run_op(client, op, op_id)
        with self.tr.span("op", op_id):
            with self.tr.span("ivm.mutate", op_id, rows=len(op.rows)):
                self.db.extend_rows(op.table, op.rows)
        return None, [], None


class ServedMix(Workload):
    """``python -m repro serve`` in a child process, two closed-loop
    ``RemoteSession`` connections in this one."""

    fresh_session = False

    def __init__(self, S, load, tracer) -> None:
        super().__init__(S, load, tracer)
        self.server: Optional[subprocess.Popen] = None
        self.conns: list = []
        self.dir = os.path.join(OUT, f"served-{os.getpid()}")
        self.db_path = os.path.join(self.dir, "db.fdbp")

    def build(self) -> None:
        S, tr = self.S, self.tr
        self.db = self.make_database()
        os.makedirs(self.dir, exist_ok=True)
        with tr.span("persist.save", "setup"):
            S.save(self.db, self.db_path)
        self.server = subprocess.Popen(
            S.serve_argv(self.db_path),
            env=S.child_env(),
            cwd=self.dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        address = self._await_listening()
        self.conns = [S.RemoteSession(address) for _ in self.load.clients]

    def _await_listening(self) -> str:
        """Parse ``... on HOST:PORT [`` from the server's first line."""
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        fd = self.server.stdout.fileno()
        seen = b""
        while b"\n" not in seen:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise RuntimeError("server did not start listening in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before listening")
            seen += chunk
        return seen.decode().split(" on ", 1)[1].split(" ", 1)[0]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_op(self, client: int, op: Op, op_id):
        S, tr = self.S, self.tr
        with tr.span("op", op_id, qid=op.qid):
            with tr.span("query.parse", op_id):
                query = S.parse_query(self.load.queries[op.qid])
            with tr.span("net.request", op_id, qid=op.qid):
                result = self.conns[client].run(query)
            with tr.span("core.consume", op_id):
                count, rows = S.consume(result, CONSUME_ROWS)
        return count, rows, lambda: S.row_iterator(result)

    def split_requests(self) -> None:
        """Split every client-observed ``net.request`` span using offline
        timings of the same query: a hot in-process evaluation, packing
        and unpacking its result, and the empty-request round trip.  The
        remainder (the span's self time) is server loop + kernel socket
        time."""
        S, tr = self.S, self.tr
        rtts = []
        for _ in range(RTT_SAMPLES):
            start = time.perf_counter()
            self.conns[0].stats()
            rtts.append(time.perf_counter() - start)
        rtt = statistics.median(rtts)
        self.counters["rtt_ms"] = rtt * 1e3
        if S.load is not None:
            with tr.span("persist.load", "setup"):
                S.load(self.db_path)
        offline: Dict[int, Dict[str, float]] = {}
        singletons = payload_bytes = 0
        with self.make_session() as session:
            for qid, sql in enumerate(self.load.queries):
                query = S.parse_query(sql)
                session.run(query)  # fill the result cache
                start = time.perf_counter()
                result = session.run(query)
                parts = {"service.run": time.perf_counter() - start}
                if S.pack_result and S.unpack_result:
                    start = time.perf_counter()
                    meta, payload = S.pack_result(result)
                    parts["net.pack"] = time.perf_counter() - start
                    start = time.perf_counter()
                    S.unpack_result(query, meta, payload)
                    parts["net.unpack"] = time.perf_counter() - start
                    parts["bytes"] = len(payload)
                    payload_bytes += len(payload)
                    singletons += S.singletons(result)[0]
                offline[qid] = parts
        if singletons:
            self.counters["bytes_per_singleton"] = payload_bytes / singletons
        for span in [s for s in tr.spans if s["name"] == "net.request"]:
            parts = offline[span["qid"]]
            for name in ("service.run", "net.pack", "net.unpack"):
                if name in parts:
                    extra = {"bytes": parts["bytes"]} if name == "net.pack" else {}
                    tr.add(
                        name, span["op_id"], span["id"], span["start"],
                        parts[name], **extra,
                    )  # fmt: skip
            tr.add("net.rtt", span["op_id"], span["id"], span["start"], rtt)


WORKLOADS = {
    "flat_join": Workload,
    "sharded_fanout": ShardedFanout,
    "fplan_followup": FplanFollowup,
    "cold_plan": Workload,
    "served_mix": ServedMix,
    "append_requery": AppendRequery,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its waited-for children
    (the ``served_mix`` server; 0 elsewhere), in MiB."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
