"""Serving-tier throughput: pipelined concurrent clients vs one
sequential connection.

The network tier's aggregate-throughput claim (ISSUE 5 acceptance):
the *same* set of requests, issued by 8 concurrent pipelined clients,
must complete >= 2x faster than issued sequentially over a single
connection.  The win is architectural, not parallelism-for-free: the
server coalesces requests that overlap in time into shared batch
waves (:mod:`repro.service.batching`), so canonically-equal queries
from different clients are evaluated once per wave instead of once
per request, and every result still travels factorised.

A correctness cross-check runs inline: every response must carry
exactly the rows the in-process session returns for the same query.

Scales: default = 8 clients x 12 queries x 2 rounds; smoke = tiny and
unasserted (shared CI runners); FDB_BENCH_FULL=1 doubles the rounds.
"""

from __future__ import annotations

import threading
import time

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.exec import ParallelExecutor
from repro.net import RemoteSession, ServerThread
from repro.service import QuerySession
from repro.workloads import random_database, random_spj_queries


def _params():
    if smoke_mode():
        return dict(
            clients=3, unique=4, rounds=1, tuples=6, domain=5, workers=2
        )
    if full_scale():
        return dict(
            clients=8, unique=12, rounds=4, tuples=200, domain=10,
            workers=4,
        )
    return dict(
        clients=8, unique=12, rounds=2, tuples=200, domain=10, workers=4
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_pipelined_clients_beat_sequential_connection():
    p = _params()
    db = random_database(
        relations=4,
        attributes=8,
        tuples=p["tuples"],
        domain=p["domain"],
        seed=71,
    )
    queries = random_spj_queries(
        db,
        p["unique"],
        seed=72,
        max_relations=3,
        max_equalities=3,
    )
    # Each client issues the full workload `rounds` times -- repeated
    # hot queries, the traffic shape the serving tier exists for.
    per_client = queries * p["rounds"]
    total_requests = p["clients"] * len(per_client)

    # The served session pushes CPU-bound evaluation through the
    # existing ParallelExecutor: coalesced waves then evaluate on all
    # cores, which a one-at-a-time connection can never exploit.
    with QuerySession(db) as reference:
        expected = {str(q): reference.run(q).rows() for q in queries}
    session = QuerySession(
        db,
        executor=ParallelExecutor(max_workers=p["workers"]),
    )

    with ServerThread(session) as server:
        # Warm the plan cache so both phases measure serving, not the
        # one-off optimiser cost -- and cross-check every served
        # answer (untimed) against the in-process reference.
        with RemoteSession(server.address) as warm:
            for query, result in zip(queries, warm.run_batch(queries)):
                assert result.rows() == expected[str(query)]

        # Phase 1: the same total request stream, one connection, one
        # request in flight at a time.
        def sequential() -> None:
            with RemoteSession(server.address) as client:
                for _ in range(p["clients"]):
                    for query in per_client:
                        assert client.run(query) is not None

        seq_seconds = _timed(sequential)

        # Phase 2: 8 concurrent clients, each pipelining its whole
        # stream before collecting -- overlapping submissions coalesce
        # into shared, deduplicated waves.
        errors = []

        def pipelined_client() -> None:
            try:
                with RemoteSession(server.address) as client:
                    futures = [
                        (query, client.submit(query))
                        for query in per_client
                    ]
                    for query, future in futures:
                        assert future.result(120) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def pipelined() -> None:
            threads = [
                threading.Thread(target=pipelined_client)
                for _ in range(p["clients"])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        pipe_seconds = _timed(pipelined)
        assert not errors

        with RemoteSession(server.address) as probe:
            stats = probe.stats()

    speedup = seq_seconds / max(pipe_seconds, 1e-9)
    submitter = stats["submitter"] or {}
    waves = max(submitter.get("waves", 1), 1)
    emit(
        "serve: pipelined clients vs sequential connection",
        "\n".join(
            [
                f"requests per phase        {total_requests}",
                f"unique queries            {p['unique']}",
                f"sequential                {seq_seconds:.4f}s "
                f"({total_requests / max(seq_seconds, 1e-9):.0f} rq/s)",
                f"{p['clients']} pipelined clients      "
                f"{pipe_seconds:.4f}s "
                f"({total_requests / max(pipe_seconds, 1e-9):.0f} rq/s)",
                f"aggregate speedup         {speedup:.1f}x",
                f"waves                     {submitter.get('waves')}"
                f" (mean {submitter.get('wave_queries', 0) / waves:.1f}"
                f" queries/wave)",
                f"batch-deduplicated        "
                f"{stats['session']['batch_deduped']}",
            ]
        ),
    )
    bench_json(
        "serve",
        {
            "requests_per_phase": total_requests,
            "sequential_seconds": seq_seconds,
            "pipelined_seconds": pipe_seconds,
            "throughput_speedup": speedup,
            "sequential_rq_per_s_timing": total_requests
            / max(seq_seconds, 1e-9),
            "pipelined_rq_per_s_timing": total_requests
            / max(pipe_seconds, 1e-9),
        },
        workload=p,
    )
    # Acceptance floor (ISSUE 5): >= 2x aggregate throughput with
    # pipelined concurrent clients.  Not asserted at smoke scale --
    # shared-runner wall clocks gate nothing -- but the correctness
    # cross-checks above always ran.
    if not smoke_mode():
        assert speedup >= 2.0, (
            f"pipelined clients only {speedup:.2f}x over sequential"
        )
