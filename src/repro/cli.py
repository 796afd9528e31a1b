"""Command-line interface for the FDB engine.

Subcommands:

- ``query``      evaluate an SQL-like SPJ query over CSV relations --
                 or, with ``--connect``, on a remote server;
- ``batch``      run many queries through one plan-cached
                 :class:`~repro.service.QuerySession` (optionally
                 against a saved database, ``--db``, with a disk-backed
                 plan store, ``--plan-store``; ``--connect`` sends the
                 batch to a remote server instead);
- ``serve``      expose a session over TCP (:mod:`repro.net`): a plan
                 store by default, pipelined clients, graceful drain
                 on SIGINT/SIGTERM;
- ``save``       persist a (possibly sharded) database in the binary
                 FDBP format;
- ``load``       inspect a persisted file and optionally query it;
- ``compile``    factorise a query result and save it as an FDBP blob;
- ``stats``      show f-tree, sizes and costs of a saved factorisation
                 -- or, with ``--connect``, a live server's unified
                 metrics snapshot (``--prometheus`` for scrape text);
- ``explain``    show a query's f-tree and f-plan; ``--profile`` times
                 every restructuring kernel of the arena pipeline;
- ``experiment`` run one of the paper's experiments (1-4);
- ``shell``      a minimal interactive prompt over loaded CSVs.

Example::

    python -m repro.cli query \\
        "SELECT * FROM Orders, Store WHERE o_item = s_item" \\
        --csv data/Orders.csv data/Store.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro import persist
from repro.core.factorised import FactorisedRelation
from repro.costs.cost_model import s_tree
from repro.engine import FDB
from repro.experiments import (
    exp1,
    exp2,
    exp3,
    exp4,
    format_table,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    run_experiment4,
)
from repro.exec import ParallelExecutor, SerialExecutor
from repro.net.protocol import DEFAULT_PORT
from repro.obs import report
from repro.obs.slowlog import SlowQueryLog
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.relational.budget import Budget, BudgetExceeded
from repro.relational.csvio import load_database
from repro.relational.database import Database
from repro.service.session import QuerySession
from repro.storage import PARTITION_STRATEGIES, ShardedDatabase


def _load(paths: Sequence[str]) -> Database:
    if not paths:
        raise SystemExit("no input relations: pass --csv file.csv ...")
    return load_database(list(paths))


def _load_database_arg(args: argparse.Namespace) -> Database:
    """The input database: ``--db`` (persisted) beats ``--csv``."""
    saved = args.db
    if saved:
        try:
            loaded = persist.load(saved)
        except persist.PersistError as exc:
            raise SystemExit(f"cannot load {saved!r}: {exc}")
        if not isinstance(loaded, Database):
            raise SystemExit(
                f"{saved!r} holds a "
                f"{type(loaded).__name__}, not a database"
            )
        return loaded
    return _load(args.csv)


def _print_result(fr, flat: bool, limit: int) -> None:
    print(f"f-tree:\n{fr.tree.pretty()}")
    print(
        f"{fr.count()} tuples, {fr.size()} singletons "
        f"(flat: {fr.flat_data_elements()} values)"
    )
    print(f"s(T) = {s_tree(fr.tree)}")
    if flat:
        for i, row in enumerate(fr.rows()):
            if i >= limit:
                print(f"... ({fr.count()} rows)")
                break
            print(" ", row)
    else:
        text = fr.pretty()
        if len(text) > 2000:
            text = text[:2000] + " ..."
        print(text)


@contextmanager
def _remote(args: argparse.Namespace, what: str) -> Iterator:
    """A :class:`~repro.net.RemoteSession` to ``--connect``; a network
    failure anywhere inside ends the command with one line."""
    from repro.net import NetError, RemoteSession

    try:
        with RemoteSession(args.connect) as client:
            yield client
    except NetError as exc:
        raise SystemExit(f"remote {what} failed: {exc}")


def _cluster_workers(
    spec: str, what: str, replication_factor: int
) -> List[str]:
    """The workers of a ``host:port,...`` list, checked together with
    the ``--replication-factor`` they are laid out under."""
    workers = [part.strip() for part in spec.split(",") if part.strip()]
    if not workers:
        raise SystemExit(f"{what} needs at least one host:port worker")
    if replication_factor < 1:
        raise SystemExit(
            f"--replication-factor must be >= 1, got {replication_factor}"
        )
    return workers


def cmd_query(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_query_remote(args)
    db = _load(args.csv)
    fdb = FDB(db)
    query = parse_query(args.query)
    start = time.perf_counter()
    fr = fdb.evaluate(query)
    elapsed = time.perf_counter() - start
    _print_result(fr, args.flat, args.limit)
    print(f"evaluated in {elapsed:.4f}s")
    return 0


def _cmd_query_remote(args: argparse.Namespace) -> int:
    with _remote(args, "query") as client:
        start = time.perf_counter()
        result = client.run(parse_query(args.query))
        elapsed = time.perf_counter() - start
        if result.factorised is not None:
            _print_result(result.factorised, args.flat, args.limit)
        else:
            rows = result.rows()
            print(f"{', '.join(result.attributes)}")
            for i, row in enumerate(rows):
                if i >= args.limit:
                    print(f"... ({len(rows)} rows)")
                    break
                print(" ", row)
        host, port = client.address
        print(
            f"evaluated in {elapsed:.4f}s on {host}:{port} "
            f"(engine {result.engine}, server-side "
            f"{result.elapsed:.4f}s)"
        )
    return 0


def _batch_queries(args: argparse.Namespace) -> List[Query]:
    """The batch workload: the query file's lines, then ``--sql``, the
    whole of it ``--repeat`` times."""
    statements: List[str] = []
    if args.queries:
        if args.queries == "-":
            text = sys.stdin.read()
        else:
            with open(args.queries) as handle:
                text = handle.read()
        for line in text.splitlines():
            line = line.strip().rstrip(";")
            if line and not line.startswith("#"):
                statements.append(line)
    statements.extend(args.sql or [])
    if not statements:
        raise SystemExit(
            "no queries: pass a query file (or '-') or --sql ..."
        )
    return [parse_query(stmt) for stmt in statements] * args.repeat


def _print_batch(
    args: argparse.Namespace,
    results,
    elapsed: float,
    where: str,
    snapshot,
    **summary,
) -> None:
    """One batch's report, local or remote: a line per query with
    ``-v``, the throughput line, then the counter summary of a registry
    snapshot -- the local session's, or the server's stats frame, which
    has the same keys (:func:`repro.obs.report.session_lines`)."""
    if args.verbose:
        for i, result in enumerate(results):
            flag = (
                "dedup"
                if result.deduped
                else ("hit" if result.cached else "miss")
            )
            print(
                f"[{i:3d}] {result.engine:6s} {flag:5s} "
                f"{result.count():8d} tuples  "
                f"{result.elapsed:.4f}s  {result.query}"
            )
    print(
        f"{len(results)} queries in {elapsed:.4f}s "
        f"({len(results) / max(elapsed, 1e-9):.1f} q/s) [{where}]"
    )
    for line in report.session_lines(snapshot, **summary):
        print(line)


def _cmd_batch_remote(args: argparse.Namespace) -> int:
    queries = _batch_queries(args)
    with _remote(args, "batch") as client:
        start = time.perf_counter()
        results = client.run_batch(queries, engine=args.engine)
        elapsed = time.perf_counter() - start
        host, port = client.address
        _print_batch(
            args, results, elapsed, f"remote {host}:{port}", client.stats()
        )
    return 0


def _local_session(
    args: argparse.Namespace, executor=None, **options
) -> QuerySession:
    """The session ``batch`` and ``serve`` evaluate through.

    Checks ``--shards`` / ``--workers`` / ``--cache-size``, loads
    ``--db`` or ``--csv`` and shards the database -- a saved sharded
    layout must agree with ``--shards`` -- then builds the executor and
    the ``--plan-store``.  An ``executor`` given replaces the
    ``--workers`` one; ``options`` go to :class:`QuerySession` as given.
    """
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.cache_size is not None and args.cache_size < 1:
        raise SystemExit(
            f"--cache-size must be >= 1 (omit it for an unbounded "
            f"cache), got {args.cache_size}"
        )
    db = _load_database_arg(args)
    if args.shards > 1:
        if isinstance(db, ShardedDatabase):
            if (
                db.shard_count != args.shards
                or db.strategy != args.strategy
            ):
                raise SystemExit(
                    f"--shards {args.shards} ({args.strategy}) "
                    f"conflicts with the saved layout of {args.db!r}: "
                    f"{db.shard_count} shards ({db.strategy}); omit "
                    f"--shards to use the saved layout, or re-save"
                )
        else:
            db = ShardedDatabase.from_database(
                db, shards=args.shards, strategy=args.strategy
            )
    if executor is None:
        executor = (
            ParallelExecutor(max_workers=args.workers)
            if args.workers > 1
            else SerialExecutor()
        )
    return QuerySession(
        db,
        executor=executor,
        fallback_budget=args.fallback_budget,
        cache_size=args.cache_size,
        plan_store=(
            persist.PlanStore(args.plan_store) if args.plan_store else None
        ),
        **options,
    )


def cmd_batch(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_batch_remote(args)
    queries = _batch_queries(args)
    executor = None
    if args.cluster:
        from repro.net.cluster import ReplicatedExecutor

        executor = ReplicatedExecutor(
            _cluster_workers(
                args.cluster, "--cluster", args.replication_factor
            ),
            replication_factor=args.replication_factor,
            flight_path=args.flight_log,
        )
    session = _local_session(
        args,
        budget=(
            Budget(timeout_seconds=args.timeout)
            if args.timeout is not None
            else None
        ),
        executor=executor,
    )
    start = time.perf_counter()
    try:
        results = session.run_batch(queries, engine=args.engine)
    except BudgetExceeded as exc:
        raise SystemExit(f"batch aborted: {exc}")
    finally:
        session.close()
    elapsed = time.perf_counter() - start
    db = session.database
    layout = []
    if isinstance(db, ShardedDatabase):
        layout.append(f"{db.shard_count} shards ({db.strategy})")
    layout.append(session.executor.describe())
    plan_store = session.plan_store
    _print_batch(
        args,
        results,
        elapsed,
        ", ".join(layout),
        session.snapshot(),
        total_queries=len(results),
        plan_store_path=(
            plan_store.path if plan_store is not None else None
        ),
    )
    if executor is not None:
        c = executor.counters()
        print(
            f"cluster: {c['healthy_workers']}/{c['workers']} workers "
            f"healthy (R={c['replication_factor']}), "
            f"remote_tasks={c['remote_tasks']} "
            f"retries={c['retries']} "
            f"quarantines={c['quarantines']} "
            f"degrade_to_local={c['degrade_to_local']}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.net.protocol import ProtocolError
    from repro.net.server import QueryServer

    owned_shards = None
    if args.own_shards:
        try:
            owned_shards = sorted(
                {
                    int(part)
                    for part in args.own_shards.split(",")
                    if part.strip()
                }
            )
        except ValueError:
            raise SystemExit(
                f"--own-shards expects comma-separated shard indices, "
                f"got {args.own_shards!r}"
            )
    session = _local_session(
        args,
        slow_log=SlowQueryLog(
            threshold=args.slow_query_threshold,
            path=args.slow_query_log or None,
            max_bytes=args.slow_query_log_max_bytes,
        ),
    )
    db = session.database
    plan_store = session.plan_store

    async def _main() -> int:
        try:
            server = QueryServer(
                session,
                host=args.host,
                port=args.port,
                max_pending=args.max_pending,
                metrics_port=args.metrics_port,
                owned_shards=owned_shards,
            )
        except ProtocolError as exc:
            raise SystemExit(f"--own-shards: {exc}")
        await server.start()
        host, port = server.address
        shape = []
        if isinstance(db, ShardedDatabase):
            shape.append(f"{db.shard_count} shards ({db.strategy})")
        if owned_shards is not None:
            shape.append(
                "owns shards "
                + ",".join(str(i) for i in owned_shards)
            )
        shape.append(session.executor.describe())
        if plan_store is not None:
            shape.append(f"plan store at {plan_store.path}")
        print(
            f"repro.net serving {len(db)} relations, "
            f"{db.total_size} tuples on {host}:{port} "
            f"[{', '.join(shape)}]",
            flush=True,
        )
        metrics_addr = server.metrics_address
        if metrics_addr is not None:
            print(
                f"metrics on http://{metrics_addr[0]}:"
                f"{metrics_addr[1]}/metrics",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        print("draining ...", flush=True)
        await server.drain()
        stats = server.stats
        print(
            f"drained: served {stats.requests} requests "
            f"({stats.queries} queries, {stats.batches} batches) over "
            f"{stats.connections} connections",
            flush=True,
        )
        return 0

    return asyncio.run(_main())


def cmd_save(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    db = _load(args.csv)
    if args.shards > 1:
        db = ShardedDatabase.from_database(
            db, shards=args.shards, strategy=args.strategy
        )
    persist.save(db, args.output)
    shape = (
        f"{db.shard_count} shards ({db.strategy}), "
        if isinstance(db, ShardedDatabase)
        else ""
    )
    print(
        f"saved {len(db)} relations, {db.total_size} tuples "
        f"({shape}version {db.version}) to {args.output} "
        f"[FDBP format v{persist.FORMAT_VERSION}]"
    )
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    try:
        info = persist.inspect(args.path)
        loaded = persist.load(args.path)
    except persist.PersistError as exc:
        raise SystemExit(f"cannot load {args.path!r}: {exc}")
    print(f"kind: {info['kind']}")
    if isinstance(loaded, Database):
        shape = (
            f" over {loaded.shard_count} shards ({loaded.strategy})"
            if isinstance(loaded, ShardedDatabase)
            else ""
        )
        print(
            f"{len(loaded)} relations, {loaded.total_size} tuples"
            f"{shape}, version {loaded.version}"
        )
        for relation in loaded:
            print(
                f"  {relation.name}({', '.join(relation.attributes)}): "
                f"{len(relation)} tuples"
            )
        for statement in args.sql or []:
            fr = FDB(loaded).evaluate(parse_query(statement))
            print(f"{statement!r}: {fr.count()} tuples, "
                  f"{fr.size()} singletons")
    else:
        for key, value in sorted(info.items()):
            if key != "kind":
                print(f"  {key}: {value}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    db = _load(args.csv)
    fdb = FDB(db)
    fr = fdb.evaluate(parse_query(args.query))
    persist.save(fr, args.output)
    print(
        f"saved {fr.count()} tuples as {fr.size()} singletons "
        f"to {args.output}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_stats_remote(args)
    if not args.factorisation:
        raise SystemExit(
            "pass a saved factorisation, or --connect HOST:PORT for "
            "a live server's metrics"
        )
    try:
        fr = persist.load(args.factorisation)
    except persist.PersistError as exc:
        raise SystemExit(f"cannot load {args.factorisation!r}: {exc}")
    if not isinstance(fr, FactorisedRelation):
        raise SystemExit(
            f"{args.factorisation!r} holds a {type(fr).__name__}, "
            f"not a factorisation"
        )
    _print_result(fr, flat=False, limit=0)
    return 0


def _cmd_stats_remote(args: argparse.Namespace) -> int:
    """The unified observability snapshot of a running server."""
    import json

    with _remote(args, "stats") as client:
        if args.prometheus:
            print(client.metrics_text(), end="")
        elif args.events:
            # The flight recorder's ring, as JSONL -- it travels inside
            # the metrics snapshot (the `flight` collector namespace),
            # so no extra wire frame is needed.
            snapshot = client.metrics()
            flight = snapshot.get("flight") or {}
            for event in flight.get("events") or []:
                print(json.dumps(event, sort_keys=True, default=str))
        else:
            snapshot = client.metrics()
            snapshot.pop("id", None)
            print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """One terminal's view of a whole worker fleet.

    Scrapes every worker's ``metrics`` frame (bounded timeouts -- a
    dead worker shows up as DOWN with a staleness age, it never hangs
    the poll), merges the snapshots, renders per-worker liveness, the
    shard heat map against the replica chains, and the rebalance
    advisor's recommendations.
    """
    import json

    from repro.obs.cluster import ClusterFederation, advise

    workers = _cluster_workers(
        args.workers, "cluster-status", args.replication_factor
    )
    try:
        federation = ClusterFederation(
            workers,
            replication_factor=args.replication_factor,
            connect_timeout=args.timeout,
            request_timeout=args.timeout,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        while True:
            federation.poll()
            view = federation.view()
            if args.prometheus:
                print(federation.prometheus_text(view), end="")
            elif args.json:
                print(
                    json.dumps(
                        view, indent=2, sort_keys=True, default=str
                    )
                )
            else:
                for line in report.cluster_lines(view, advise(view)):
                    print(line)
            if not args.watch:
                break
            print("", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        federation.stop()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Show the f-tree and f-plan a query compiles to -- and, with
    ``--profile``, the per-operator kernel timing of the arena
    pipeline that executes it (the serving-layer twin of fig 7/8)."""
    from repro import ops
    from repro.core.build import COUNTERS as FACTORISE_COUNTERS
    from repro.exec import worker
    from repro.obs.profile import profile_plan
    from repro.ops.union import COUNTERS as UNION_COUNTERS
    from repro.optimiser import bitspace

    db = _load_database_arg(args)
    query = parse_query(args.query)
    searched = bitspace.COUNTERS.snapshot()
    factorised = FACTORISE_COUNTERS.snapshot()
    unioned = UNION_COUNTERS.snapshot()
    fdb = FDB(db, plan_search=args.planner)
    # Mirror QuerySession.run_on: factorise the base join, apply the
    # constants, then restructure for the equalities via an f-plan --
    # the path whose per-kernel cost --profile exposes.
    base = Query.make(query.relations)
    tree = fdb.optimal_tree(base)
    if isinstance(db, ShardedDatabase) and db.shard_count > 1:
        # A sharded store evaluates per shard and recombines, as its
        # executors do, so --profile can show what the fan-out cost.
        fanout = db.fanout_relation(base.relations)
        fr = worker.combine_shards(
            [
                worker.evaluate_shard(
                    db, False, base, tree, index, fanout
                )
                for index in range(db.shard_count)
            ],
            base,
            False,
        )
    else:
        fr = fdb.factorise_query(base, tree=tree)
    for cond in query.constants:
        if cond.attribute not in fr.tree.attributes():
            raise SystemExit(f"unknown attribute {cond.attribute!r}")
        fr = ops.select_constant(fr, cond)
    pairs = [(eq.left, eq.right) for eq in query.equalities]
    plan = fdb.plan_for(fr.tree, pairs)
    print(f"f-tree (base join):\n{fr.tree.pretty()}")
    if plan.steps:
        print(f"f-plan ({len(plan.steps)} steps, cost {plan.cost}):")
        for i, step in enumerate(plan.steps):
            print(f"  [{i}] {step}")
    else:
        print("f-plan: identity (no restructuring needed)")
    # What the two searches above cost (the memo gauges: process-wide).
    spent = dict(bitspace.counters(), **bitspace.COUNTERS.since(searched))
    print(report.optimiser_line(spent))
    result, profile = profile_plan(plan, fr)
    if query.projection is not None:
        result = ops.project(result, query.projection)
    print(
        f"result: {result.count()} tuples, "
        f"{result.size()} singletons"
    )
    if args.profile:
        print(report.factorise_line(FACTORISE_COUNTERS.since(factorised)))
        unioned = report.union_line(UNION_COUNTERS.since(unioned))
        if unioned is not None:
            print(unioned)
        print(profile.format_table())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    number = args.number
    if number == 1:
        rows = run_experiment1(
            relations_values=tuple(args.relations),
            equalities_values=tuple(args.equalities),
            repeats=args.repeats,
        )
        print(format_table(exp1.headers(), exp1.as_cells(rows)))
    elif number == 2:
        rows = run_experiment2(
            k_values=tuple(args.equalities),
            l_values=(1, 2, 3),
            repeats=args.repeats,
        )
        print(format_table(exp2.headers(), exp2.as_cells(rows)))
    elif number == 3:
        rows = run_experiment3(
            sizes=tuple(args.sizes),
            k_values=tuple(args.equalities),
            timeout=args.timeout,
        )
        print(format_table(exp3.headers(), exp3.as_cells(rows)))
    elif number == 4:
        rows = run_experiment4(
            k_values=tuple(args.equalities),
            timeout=args.timeout,
        )
        print(format_table(exp4.headers(), exp4.as_cells(rows)))
    else:
        raise SystemExit(f"no experiment {number}; pick 1-4")
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    db = _load(args.csv)
    fdb = FDB(db)
    print(f"loaded: {', '.join(db.names)}  (\\q to quit)")
    while True:
        try:
            line = input("fdb> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in ("\\q", "quit", "exit"):
            break
        try:
            fr = fdb.evaluate(parse_query(line))
            _print_result(fr, flat=args.flat, limit=args.limit)
        except Exception as exc:  # surface errors, keep the loop
            print(f"error: {exc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FDB: a query engine for factorised databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Arguments several sub-commands share, declared once each.

    def add_csv(p):
        p.add_argument(
            "--csv",
            nargs="+",
            default=[],
            help="CSV relation files (header row = attribute names)",
        )

    def add_connect(p):
        p.add_argument(
            "--connect",
            default=None,
            metavar="HOST:PORT",
            help="evaluate on a running 'repro serve' server instead "
            "of in-process (local data options are ignored)",
        )

    def add_db(p):
        p.add_argument(
            "--db",
            default=None,
            help="use a database saved with 'repro save' (overrides "
            "--csv; a sharded save keeps its layout)",
        )

    def add_shards(p):
        p.add_argument(
            "--shards",
            type=int,
            default=1,
            help="partition the database over N shards (storage layer)",
        )
        p.add_argument(
            "--strategy",
            choices=list(PARTITION_STRATEGIES),
            default="hash",
            help="row-placement strategy for --shards > 1",
        )

    def add_session(p):
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="evaluate with a parallel executor over N pool workers",
        )
        p.add_argument(
            "--cache-size",
            type=int,
            default=None,
            help="LRU bound on the plan caches (default: unbounded)",
        )
        p.add_argument(
            "--fallback-budget",
            type=float,
            default=None,
            help="estimated-singleton cap before auto queries fall back "
            "to the flat engine",
        )

    def add_replication_factor(p):
        p.add_argument(
            "--replication-factor",
            type=int,
            default=2,
            help="replicas per shard on the hash ring (default 2, "
            "clamped to the worker count)",
        )

    def add_rows(p):
        p.add_argument(
            "--flat", action="store_true", help="print flat rows"
        )
        p.add_argument("--limit", type=int, default=20)

    q = sub.add_parser("query", help="evaluate an SPJ query")
    add_csv(q)
    add_connect(q)
    q.add_argument("query")
    add_rows(q)
    q.set_defaults(func=cmd_query)

    b = sub.add_parser(
        "batch",
        help="run many queries through one plan-cached session",
    )
    add_csv(b)
    add_connect(b)
    add_db(b)
    add_shards(b)
    add_session(b)
    add_replication_factor(b)
    b.add_argument(
        "queries",
        nargs="?",
        help="file with one SPJ query per line ('-' for stdin)",
    )
    b.add_argument(
        "--sql",
        nargs="+",
        help="inline queries (appended to the file's, if any)",
    )
    b.add_argument(
        "--engine",
        choices=["auto", "fdb", "flat", "sqlite"],
        default="auto",
    )
    b.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query budget (seconds) for flat evaluation",
    )
    b.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="repeat the whole workload N times (warms the cache)",
    )
    b.add_argument(
        "--plan-store",
        default=None,
        help="directory of a disk-backed plan store; compiled plans "
        "are shared across sessions and processes",
    )
    b.add_argument(
        "--cluster",
        default=None,
        metavar="HOST:PORT,...",
        help="route (query, shard) tasks to these shard workers with "
        "the replicated executor (retry on the next replica, "
        "quarantine, local degrade only when all replicas are down); "
        "workers must serve the same --db",
    )
    b.add_argument(
        "--flight-log",
        default=None,
        metavar="PATH",
        help="with --cluster: dump the coordinator's flight-recorder "
        "ring to this JSONL file automatically on loud faults "
        "(degrade-to-local, retry exhaustion)",
    )
    b.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print one line per query",
    )
    b.set_defaults(func=cmd_batch)

    srv = sub.add_parser(
        "serve",
        help="serve a session over TCP (repro.net query server)",
    )
    add_csv(srv)
    add_db(srv)
    add_shards(srv)
    add_session(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port (0 = ephemeral, printed on startup)",
    )
    srv.add_argument(
        "--plan-store",
        default=".repro-plans",
        help="disk-backed plan store directory for cross-process warm "
        "starts (default '.repro-plans'; pass '' to disable)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=128,
        help="admission bound: in-flight requests before the server "
        "stops reading (TCP backpressure)",
    )
    srv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve Prometheus text metrics over HTTP on this "
        "port (GET /metrics)",
    )
    srv.add_argument(
        "--slow-query-threshold",
        type=float,
        default=1.0,
        help="seconds above which a query lands in the slow-query "
        "log (default 1.0)",
    )
    srv.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help="append slow-query entries as JSON lines to this file "
        "(in-memory ring buffer only, when omitted)",
    )
    srv.add_argument(
        "--slow-query-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the slow-query log file when it would cross N "
        "bytes (keep-one policy: the previous file moves to "
        "PATH.1); unbounded when omitted",
    )
    srv.add_argument(
        "--own-shards",
        default=None,
        metavar="I,J,...",
        help="answer shard requests only for these shard indices "
        "(the cluster ownership contract; other shards are refused "
        "with OwnershipError so a coordinator retries a replica)",
    )
    srv.set_defaults(func=cmd_serve)

    sv = sub.add_parser(
        "save",
        help="persist a (possibly sharded) database in FDBP format",
    )
    add_csv(sv)
    sv.add_argument("-o", "--output", required=True)
    add_shards(sv)
    sv.set_defaults(func=cmd_save)

    ld = sub.add_parser(
        "load", help="inspect (and query) a persisted FDBP file"
    )
    ld.add_argument("path")
    ld.add_argument(
        "--sql",
        nargs="+",
        help="queries to evaluate against a loaded database",
    )
    ld.set_defaults(func=cmd_load)

    c = sub.add_parser(
        "compile", help="factorise a query result to a file"
    )
    add_csv(c)
    c.add_argument("query")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser(
        "stats",
        help="inspect a saved factorisation, or a live server's "
        "unified metrics snapshot (--connect)",
    )
    s.add_argument("factorisation", nargs="?")
    add_connect(s)
    s.add_argument(
        "--prometheus",
        action="store_true",
        help="with --connect: print the Prometheus text exposition "
        "instead of the JSON snapshot",
    )
    s.add_argument(
        "--events",
        action="store_true",
        help="with --connect: dump the server's flight-recorder ring "
        "(structured fault events) as JSON lines",
    )
    s.set_defaults(func=cmd_stats)

    cs = sub.add_parser(
        "cluster-status",
        help="federate a worker fleet's metrics into one view: "
        "per-worker liveness, merged counters, the shard heat map "
        "and rebalance advice",
    )
    cs.add_argument(
        "workers",
        metavar="HOST:PORT,...",
        help="comma-separated worker addresses to scrape",
    )
    add_replication_factor(cs)
    cs.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and re-rendering every --interval seconds",
    )
    cs.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch polls (default 2.0)",
    )
    cs.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-worker scrape bound in seconds (default 5.0); a "
        "dead worker shows as DOWN, it never hangs the poll",
    )
    cs.add_argument(
        "--prometheus",
        action="store_true",
        help="print the worker-labelled Prometheus exposition "
        "instead of the text report",
    )
    cs.add_argument(
        "--json",
        action="store_true",
        help="print the raw federated view as JSON",
    )
    cs.set_defaults(func=cmd_cluster_status)

    ex = sub.add_parser(
        "explain",
        help="show a query's f-tree and f-plan; --profile times "
        "every restructuring kernel",
    )
    add_csv(ex)
    ex.add_argument("query")
    add_db(ex)
    ex.add_argument(
        "--planner",
        choices=["exhaustive", "greedy"],
        default="exhaustive",
        help="the f-plan search (Section 4.2 / 4.3); the f-tree "
        "search has no such choice",
    )
    ex.add_argument(
        "--profile",
        action="store_true",
        help="execute the plan one kernel at a time and print the "
        "per-operator timing table",
    )
    ex.set_defaults(func=cmd_explain)

    e = sub.add_parser(
        "experiment", help="run a Section 5 experiment"
    )
    e.add_argument("number", type=int, choices=[1, 2, 3, 4])
    e.add_argument(
        "--relations", type=int, nargs="+", default=[2, 4, 6]
    )
    e.add_argument(
        "--equalities", type=int, nargs="+", default=[2, 3]
    )
    e.add_argument(
        "--sizes", type=int, nargs="+", default=[1000]
    )
    e.add_argument("--repeats", type=int, default=2)
    e.add_argument("--timeout", type=float, default=30.0)
    e.set_defaults(func=cmd_experiment)

    sh = sub.add_parser("shell", help="interactive query prompt")
    add_csv(sh)
    add_rows(sh)
    sh.set_defaults(func=cmd_shell)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
