"""One workload, one process: set up, verify, measure, report.

Closed loop throughout: a client issues its next op only after the
previous one returned.  A run is

1. the seeded load (``gen``) and the oracle's expected answers;
2. set-up: ``build`` is repeated :data:`SETUP_REPEATS` times (median),
   then one untimed-for-throughput warm-up round runs every op once and
   verifies each distinct result against the oracle.  ``setup_s`` is
   the median build plus the warm-up round (its verification time
   excluded), i.e. everything before the first timed op;
3. timed rounds of the identical op sequence until ``--seconds`` have
   been measured (at least :func:`min_rounds`), ``gc.collect()`` between
   rounds, every op's count compared with the verified one;
4. with ``--trace 1`` instead: pairs of an untraced and a traced round,
   the traced ones feeding the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import threading
import time
from typing import Dict, List, Optional

import gen
import layers
import oracle as oracle_mod
import spans as spans_mod
import surface
import workloads as workloads_mod

SETUP_REPEATS = 3
#: an op slower than this is a failure even if its answer is right
OP_TIMEOUT_S = 30.0


def min_rounds(workload: str, scale: str) -> int:
    if scale == "smoke":
        return 2
    return 3 if workload == "cold_plan" else 5


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Round:
    """One pass over the op sequence; per-client state is kept apart so
    that client threads never write to the same object."""

    def __init__(self, load: gen.Load) -> None:
        self.wall = 0.0
        self.latency = [[0.0] * len(ops) for ops in load.clients]
        self.failures: List[List[str]] = [[] for _ in load.clients]
        self.check_seconds = [0.0] * len(load.clients)
        self.crashed: List[BaseException] = []


class Runner:
    def __init__(self, workload: str, seed: int, scale: str, trace: bool):
        self.name = workload
        self.scale = scale
        self.S = surface.load()
        self.load = gen.make_load(workload, seed, scale)
        self.tracer = spans_mod.Tracer(enabled=False)
        self.trace = trace
        self.oracle = oracle_mod.Oracle(self.load.tables, self.load.views)
        self.oracle_lock = threading.Lock()
        self.expected = self._expected_answers()
        self.verified: set = set()
        self.wl: Optional[workloads_mod.Workload] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    # -- oracle ----------------------------------------------------------------

    def _expected_answers(self):
        """Per op slot: the oracle's answer at that point of the sequence
        (writes are applied to the oracle in op order, so reads after a
        write batch are re-verified against the grown tables)."""
        memo: Dict[tuple, oracle_mod.Expected] = {}  # (query, writes so far)
        out = []
        for ops in self.load.clients:
            slots, writes = [], 0
            for op in ops:
                if op.kind == "write":
                    self.oracle.append(op.table, op.rows)
                    writes += 1
                    slots.append(None)
                    continue
                key = (op.qid, writes)
                if key not in memo:
                    memo[key] = self.oracle.expected(self.load.queries[op.qid])
                slots.append(memo[key])
            out.append(slots)
        return out

    def _verify(self, op: gen.Op, exp, result_rows, first_rows) -> bool:
        """Full check of one distinct (query, answer): the row hash when
        the oracle enumerated the result, a spot check otherwise."""
        key = (op.qid, exp.count, exp.hash)
        if key in self.verified:
            return True
        self.verified.add(key)
        if exp.hash is not None:
            return oracle_mod.rows_hash(result_rows()) == exp.hash
        with self.oracle_lock:
            return self.oracle.spot_check(
                self.load.queries[op.qid], first_rows[: oracle_mod.SPOT_CHECK]
            )

    # -- rounds ----------------------------------------------------------------

    def _client_loop(self, client: int, rnd: Round, verify: bool) -> None:
        wl, clock = self.wl, time.perf_counter
        latency = rnd.latency[client]
        expected = self.expected[client]
        failures = rnd.failures[client]
        for i, op in enumerate(self.load.clients[client]):
            start = clock()
            try:
                count, rows, all_rows = wl.run_op(client, op, f"{client}:{i}")
            except Exception as exc:  # an op that raised is a failed op
                latency[i] = clock() - start
                failures.append(f"op {client}:{i} raised {exc!r}")
                continue
            latency[i] = elapsed = clock() - start
            exp = expected[i]
            if exp is None:
                continue
            if count != exp.count:
                failures.append(
                    f"op {client}:{i} count {count} != verified {exp.count}"
                )
            elif elapsed > OP_TIMEOUT_S:
                failures.append(f"op {client}:{i} took {elapsed:.1f}s")
            elif verify:
                start = clock()
                if not self._verify(op, exp, all_rows, rows):
                    failures.append(f"op {client}:{i} rows differ from oracle")
                rnd.check_seconds[client] += clock() - start

    def _client_thread(self, client: int, rnd: Round, verify: bool) -> None:
        try:
            self._client_loop(client, rnd, verify)
        except BaseException as exc:  # surfaced by run_round after join
            rnd.crashed.append(exc)

    def run_round(self, verify: bool = False) -> Round:
        rnd = Round(self.load)
        self.wl.begin_round()
        gc.collect()
        clients = range(len(self.load.clients))
        start = time.perf_counter()
        if len(clients) == 1:
            self._client_loop(0, rnd, verify)
        else:
            threads = [
                threading.Thread(target=self._client_thread, args=(c, rnd, verify))
                for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if rnd.crashed:
                raise rnd.crashed[0]
        rnd.wall = time.perf_counter() - start - max(rnd.check_seconds)
        self.attempted += self.load.ops_per_round
        for failures in rnd.failures:
            self.failed += len(failures)
            self.errors += failures[:5]
        return rnd

    # -- set-up ------------------------------------------------------------------

    def set_up(self) -> float:
        cls = workloads_mod.WORKLOADS[self.name]
        builds = []
        self.tracer.enabled = self.trace  # build spans: partition, save
        for attempt in range(SETUP_REPEATS):
            if self.wl is not None:
                self.wl.close()
            self.wl = cls(self.S, self.load, self.tracer)
            gc.collect()
            start = time.perf_counter()
            self.wl.build()
            builds.append(time.perf_counter() - start)
        self.tracer.enabled = False
        warm_up = self.run_round(verify=True)
        self.setup_parts = {
            "build_s": builds,
            "warm_up_s": warm_up.wall,
            "distinct_verified": len(self.verified),
        }
        return statistics.median(builds) + warm_up.wall

    def close(self) -> None:
        if self.wl is not None:
            self.wl.close()
            self.wl = None
        self.oracle.close()

    # -- the two kinds of run ------------------------------------------------------

    def measure(self, seconds: float) -> Dict[str, dict]:
        """Tracing off: the end-to-end metrics."""
        setup_s = self.set_up()
        rounds: List[Round] = []
        need = min_rounds(self.name, self.scale)
        measured = 0.0
        while len(rounds) < need or measured < seconds:
            rounds.append(self.run_round())
            measured += rounds[-1].wall
        per_op = [
            statistics.median(r.latency[c][i] for r in rounds)
            for c, ops in enumerate(self.load.clients)
            for i in range(len(ops))
        ]
        self.close()  # reaps the server child so its RSS is counted
        self.samples = {
            "rounds": len(rounds),
            "ops_per_round": len(per_op),
            "beyond_p95": len(per_op) - math.ceil(0.95 * len(per_op)),
            "round_wall_s": [r.wall for r in rounds],
        }
        wall = statistics.median(r.wall for r in rounds)
        return {
            "ops_per_s": {"value": len(per_op) / wall, "unit": "op/s"},
            "p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
            "p95_ms": {"value": percentile(per_op, 0.95) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": workloads_mod.peak_rss_mb(), "unit": "MiB"},
        }

    def traced(self, seconds: float) -> Dict[str, dict]:
        """Pairs of an untraced and a traced round; per-layer metrics
        from the traced ones, ``trace_overhead`` from the pairs."""
        self.set_up()
        build_spans = list(self.tracer.spans)  # storage.partition, persist.save
        self.tracer.reset()
        plain: List[float] = []
        traced: List[float] = []
        measured = 0.0
        rounds = 0
        while rounds < 1 or measured < seconds:
            self.tracer.enabled = False
            plain.append(self.run_round().wall)
            self.tracer.enabled = True
            replayed = self.tracer.replay_seconds
            rnd = self.run_round()
            traced.append(rnd.wall - (self.tracer.replay_seconds - replayed))
            measured += plain[-1] + rnd.wall
            rounds += 1
        if isinstance(self.wl, workloads_mod.ServedMix):
            try:
                self.wl.split_requests()
            except Exception as exc:
                self.S.replay_failed(exc)
        wl = self.wl
        wl.fold_session_stats()
        all_spans = build_spans + self.tracer.spans
        metrics = layers.metrics(
            all_spans,
            wl.counters,
            rounds,
            overhead=statistics.median(plain) / statistics.median(traced),
            unavailable=self.S.unavailable_layers,
        )
        self.layer_table = spans_mod.layer_table(self.tracer.spans)
        self.trace_path = self._write_trace(all_spans)
        self.samples = {"traced_rounds": rounds, "spans": len(all_spans)}
        self.close()
        return metrics

    def _write_trace(self, all_spans: List[dict]) -> str:
        os.makedirs(workloads_mod.OUT, exist_ok=True)
        path = os.path.join(workloads_mod.OUT, f"trace_{self.name}.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": self.name,
                    "digest": self.load.digest(),
                    "spans": all_spans,
                },
                handle,
            )
        return path
