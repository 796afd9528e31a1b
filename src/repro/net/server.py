"""The asyncio query server: one ``QuerySession`` behind a TCP port.

Design
------
The server owns exactly one
:class:`~repro.service.session.QuerySession` and never evaluates a
query on the event loop:

- ``query`` and ``batch`` requests go through the session's
  :meth:`~repro.service.session.QuerySession.submit` (the overlapping
  batch submitter): requests arriving from *different* connections
  while a wave is running are coalesced into the next wave --
  deduplicated, compiled once, fanned out together -- which is where
  the serving tier's aggregate-throughput win comes from.  The
  returned :class:`concurrent.futures.Future` is awaited via
  ``asyncio.wrap_future``, so the loop stays free;
- ``shard`` and ``execute`` requests (the
  :class:`~repro.net.remote.RemoteExecutor` worker protocol) run the
  stateless :mod:`repro.exec.worker` entry points on a small thread
  pool -- they touch only the immutable database snapshot, never the
  session's caches.

Per-connection **pipelining** falls out of the request ids: the reader
coroutine admits each frame into the bounded admission queue and
immediately reads the next one, responses are written (under a
per-connection lock) whenever their evaluation finishes, and clients
match them back by id -- possibly out of order.

**Backpressure** is the admission semaphore: when ``max_pending``
requests are in flight the reader coroutines stop reading, the kernel
socket buffers fill, and remote senders block in ``send`` -- the
standard TCP story, with no unbounded queue anywhere.

**Graceful drain** (:meth:`QueryServer.drain`): stop accepting
connections, answer new requests with a ``draining`` error, wait for
every admitted request to finish, then close the connections and the
session.  ``repro serve`` wires SIGINT/SIGTERM to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.cache import LRUCache
from repro.core.ftree import FTree
from repro.exec import worker as worker_mod
from repro.net import protocol
from repro.net.protocol import DEFAULT_MAX_FRAME, ProtocolError
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.storage.sharded import ShardedDatabase

DEFAULT_HOST = "127.0.0.1"

#: Parsed statements a server keeps, SQL text -> ``Query`` (least
#: recently used out).
STATEMENT_MEMO_SIZE = 1024


class OwnershipError(RuntimeError):
    """A ``shard`` request named a shard this worker does not own.

    Deliberately its own type (the error frame carries the type name):
    a routing miss is the coordinator's problem -- it retries the next
    replica -- and must not be confused with a sick worker, which gets
    quarantined.
    """


@dataclass
class ServerStats:
    """Lifetime counters of one server (all monotone except gauges)."""

    connections: int = 0
    active_connections: int = 0
    requests: int = 0
    queries: int = 0
    batches: int = 0
    shard_tasks: int = 0
    execute_tasks: int = 0
    stats_requests: int = 0
    mutations: int = 0
    own_requests: int = 0
    disown_requests: int = 0
    ownership_rejections: int = 0
    errors: int = 0
    protocol_errors: int = 0
    oversized_frames: int = 0
    pending: int = 0
    peak_pending: int = 0
    rejected_draining: int = 0
    #: Statements answered from the parsed-statement memo.
    statement_hits: int = 0
    #: Pooled payloads whose column section came from the connection's
    #: memo (see :class:`repro.persist.codec.ArenaPoolEncoder`).
    payload_reuses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class QueryServer:
    """Serve one :class:`QuerySession` to concurrent TCP clients.

    Parameters
    ----------
    session:
        The session to serve.  The server owns it: :meth:`drain`
        closes it.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    max_pending:
        Admission bound: at most this many requests are in flight
        across all connections; further frames wait unread
        (TCP backpressure).
    max_frame:
        Reject frames larger than this many bytes (both a malformed-
        peer guard and a memory bound).
    task_threads:
        Thread-pool size for ``shard``/``execute`` worker tasks.
    metrics_port:
        When set, additionally serve a plain-HTTP Prometheus text
        endpoint (``GET /metrics``) on this port -- the standard
        scrape surface, separate from the binary query port.
    owned_shards:
        When set (a sequence of shard indices), this worker *owns*
        only those shards: ``shard`` requests for any other index are
        refused with an :class:`OwnershipError` so a replicated
        coordinator routes them to a replica that does own them.
        ``None`` (the default) means the worker answers for every
        shard.  Membership changes adjust ownership at runtime via
        ``own``/``disown`` frames.
    """

    def __init__(
        self,
        session,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_pending: int = 128,
        max_frame: int = DEFAULT_MAX_FRAME,
        task_threads: int = 4,
        metrics_port: Optional[int] = None,
        owned_shards: Optional[Sequence[int]] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.session = session
        self.owned: Optional[Set[int]] = None
        if owned_shards is not None:
            self.owned = self._validated_shards(owned_shards)
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.max_frame = max_frame
        self.metrics_port = metrics_port
        self.stats = ServerStats()
        # Share the session's registry so one snapshot covers every
        # tier; register the server's own counters alongside.
        self.registry: MetricsRegistry = getattr(
            session, "registry", None
        ) or MetricsRegistry()
        self.registry.register("server", self._server_counters)
        # Per-shard heat map: query/row/latency tallies keyed by shard
        # index (string keys -- they travel in JSON wire frames).  The
        # federation poller aggregates these across the fleet into the
        # ring-utilisation view.
        self._shard_heat: Dict[str, Dict[str, float]] = {}
        self._heat_lock = threading.Lock()
        self.registry.register("heat", self._heat_counters)
        # Flight recorder: ownership misses and rebalances are the
        # worker-side narrative a post-mortem needs.
        self.flight = FlightRecorder()
        self.registry.register("flight", self.flight.counters)
        self._request_seconds = self.registry.histogram(
            "request_seconds"
        )
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._pool = ThreadPoolExecutor(
            max_workers=task_threads, thread_name_prefix="repro-net-task"
        )
        self._tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._idle: Optional[asyncio.Event] = None
        self._statements = LRUCache(STATEMENT_MEMO_SIZE)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._sem = asyncio.Semaphore(self.max_pending)
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self.metrics_port
            )
        self.started_at = time.time()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolves ``port=0`` requests."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """The bound (host, port) of the Prometheus endpoint, if any."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: finish admitted work, then close.

        New connections are refused (listener closed), new requests on
        live connections answered with a ``draining`` error, admitted
        requests run to completion and deliver their responses; then
        every connection, the task pool and the session are closed.
        Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            with contextlib.suppress(Exception):
                await self._metrics_server.wait_closed()
        if self._idle is not None:
            await self._idle.wait()
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()
        self._pool.shutdown(wait=True)
        self.session.close()

    # -- shard ownership ---------------------------------------------------

    def _validated_shards(self, shards: Sequence[int]) -> Set[int]:
        """``shards`` as a set of in-range indices, or raise."""
        database = self.session.database
        if not isinstance(database, ShardedDatabase):
            raise ProtocolError(
                "this server holds an unsharded database; shard "
                "ownership does not apply"
            )
        indices: Set[int] = set()
        for shard in shards:
            index = int(shard)
            if not 0 <= index < database.shard_count:
                raise ProtocolError(
                    f"shard {index} out of range "
                    f"0..{database.shard_count - 1}"
                )
            indices.add(index)
        return indices

    def owned_shards(self) -> Optional[Tuple[int, ...]]:
        """The sorted owned shard indices, or ``None`` = all shards."""
        return None if self.owned is None else tuple(sorted(self.owned))

    # -- connection handling -----------------------------------------------

    def _hello_header(self) -> Dict[str, Any]:
        database = self.session.database
        sharded = isinstance(database, ShardedDatabase)
        owned = self.owned_shards()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "repro.net",
            # The one representation there is; a literal so clients
            # of earlier builds, which read it, still parse the hello.
            "encoding": "arena",
            "max_frame": self.max_frame,
            "sharded": sharded,
            "shard_count": database.shard_count if sharded else 1,
            "strategy": database.strategy if sharded else None,
            "relations": sorted(database.names),
            "db_version": database.version,
            # None = this worker answers for every shard; a list = it
            # owns only those (the replicated coordinator routes
            # around the rest without a wasted round trip).
            "owned_shards": None if owned is None else list(owned),
        }

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self.stats.active_connections += 1
        self._writers.add(writer)
        lock = asyncio.Lock()
        # One shared wire pool per connection: every factorised result
        # goes out as an incremental delta against it (encode+send run
        # under the connection lock, so deltas hit the wire in the
        # order they were cut).
        pool_enc = protocol.ArenaPoolEncoder()
        try:
            await self._send(writer, lock, "hello", self._hello_header())
            while True:
                try:
                    head = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # EOF (clean or mid-preamble): just go away
                (length,) = struct.unpack(">I", head)
                if length > self.max_frame:
                    # Refuse to buffer it; the stream is beyond repair
                    # (we will not skip `length` bytes of hostility).
                    self.stats.oversized_frames += 1
                    await self._send_error(
                        writer,
                        lock,
                        None,
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte limit",
                        kind="ProtocolError",
                    )
                    break
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # truncated mid-frame: peer died, clean up
                try:
                    kind, header, payload = protocol.decode_body(body)
                except ProtocolError as exc:
                    # Framing held but the body is foreign/garbled; we
                    # cannot trust anything that follows either.
                    self.stats.protocol_errors += 1
                    await self._send_error(
                        writer, lock, None, str(exc), kind="ProtocolError"
                    )
                    break
                self.stats.requests += 1
                rid = header.get("id")
                if self._draining:
                    self.stats.rejected_draining += 1
                    await self._send_error(
                        writer, lock, rid, "server is draining"
                    )
                    continue
                # Admission: holding the reader here until a slot
                # frees is the backpressure mechanism.
                await self._sem.acquire()
                if self._draining:
                    # drain() may have started while we were parked on
                    # the semaphore; admitting now would process work
                    # after the server reported itself drained.
                    self._sem.release()
                    self.stats.rejected_draining += 1
                    await self._send_error(
                        writer, lock, rid, "server is draining"
                    )
                    continue
                self._admitted()
                try:
                    task = asyncio.ensure_future(
                        self._process(
                            kind, header, payload, writer, lock, pool_enc
                        )
                    )
                    self._tasks.add(task)
                    task.add_done_callback(self._task_done)
                except BaseException:
                    # Failing to even schedule the task must not leak
                    # the pending gauge or the admission slot: the
                    # drain barrier and backpressure both hang off
                    # them (tests assert the gauges return to zero).
                    self._retire()
                    raise
        finally:
            self.stats.active_connections -= 1
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _admitted(self) -> None:
        self.stats.pending += 1
        self.stats.peak_pending = max(
            self.stats.peak_pending, self.stats.pending
        )
        self._idle.clear()

    def _retire(self) -> None:
        """Undo one :meth:`_admitted`: every admission retires exactly
        once, on *every* path (completion, cancellation, scheduling
        failure), or the pending gauge drifts and drain deadlocks."""
        self.stats.pending -= 1
        if self.stats.pending == 0:
            self._idle.set()
        self._sem.release()

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._retire()
        with contextlib.suppress(asyncio.CancelledError):
            exc = task.exception()
            if exc is not None:  # _process never raises by design
                self.stats.errors += 1

    # -- request processing ------------------------------------------------

    async def _process(
        self,
        kind: str,
        header: Dict[str, Any],
        payload: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pool_enc: "protocol.ArenaPoolEncoder",
    ) -> None:
        rid = header.get("id")
        start = time.perf_counter()
        try:
            if kind == "query":
                await self._process_query(header, writer, lock, pool_enc)
            elif kind == "batch":
                await self._process_batch(header, writer, lock, pool_enc)
            elif kind == "shard":
                await self._process_worker_task(
                    kind, header, payload, writer, lock, pool_enc
                )
            elif kind == "execute":
                await self._process_worker_task(
                    kind, header, payload, writer, lock, pool_enc
                )
            elif kind == "mutate":
                await self._process_mutate(header, payload, writer, lock)
            elif kind in ("own", "disown"):
                await self._process_ownership(kind, header, writer, lock)
            elif kind == "stats":
                self.stats.stats_requests += 1
                await self._send(
                    writer, lock, "stats-result", self.describe_stats(rid)
                )
            elif kind == "metrics":
                self.stats.stats_requests += 1
                await self._send(
                    writer,
                    lock,
                    "metrics-result",
                    {"id": rid, **self.registry.snapshot()},
                    self.registry.prometheus_text().encode("utf-8"),
                )
            else:
                raise ProtocolError(
                    f"server cannot handle {kind!r} messages"
                )
        except Exception as exc:
            self.stats.errors += 1
            await self._send_error(
                writer, lock, rid, str(exc), kind=type(exc).__name__
            )
        finally:
            self._request_seconds.observe(time.perf_counter() - start)

    async def _process_query(
        self,
        header: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pool_enc: "protocol.ArenaPoolEncoder",
    ) -> None:
        self.stats.queries += 1
        trace = self._seed_trace(header)
        with obs_trace.activate(trace):
            with obs_trace.span("parse"):
                query = self._statement(str(header["sql"]))
        engine = str(header.get("engine") or "auto")
        future = self.session.submit(query, engine, trace=trace)
        result = await asyncio.wrap_future(future)
        spans = bool(header.get("trace") or header.get("spans"))

        def pack():
            meta, payload = protocol.pack_result(result, pool_enc, spans)
            meta["id"] = header.get("id")
            return "result", meta, payload

        await self._send_packed(writer, lock, pool_enc, pack)

    async def _process_batch(
        self,
        header: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pool_enc: "protocol.ArenaPoolEncoder",
    ) -> None:
        self.stats.batches += 1
        statements = header["sql"]
        if not isinstance(statements, list):
            raise ProtocolError("batch 'sql' must be a list of statements")
        engine = str(header.get("engine") or "auto")
        trace = self._seed_trace(header)
        with obs_trace.activate(trace):
            with obs_trace.span("parse", statements=len(statements)):
                queries = [self._statement(str(stmt)) for stmt in statements]
        # One submit per query (not run_batch): that is what lets the
        # coalescer interleave *other* clients' queries with these.
        # Every statement shares the request's trace: its spans land
        # on each result next to the wave's own.
        futures = [
            self.session.submit(q, engine, trace=trace) for q in queries
        ]
        results = [await asyncio.wrap_future(f) for f in futures]
        spans = bool(header.get("trace") or header.get("spans"))

        def pack():
            metas, payload = protocol.pack_results(results, pool_enc, spans)
            return (
                "batch-result",
                {"id": header.get("id"), "results": metas},
                payload,
            )

        await self._send_packed(writer, lock, pool_enc, pack)

    def _statement(self, sql: str) -> Query:
        """``sql`` parsed, from the statement memo when it was seen
        before (a ``Query`` is frozen, so requests share one)."""
        query = self._statements.get(sql)
        if query is None:
            query = parse_query(sql)
            self._statements.put(sql, query)
        else:
            self.stats.statement_hits += 1
        return query

    def _seed_trace(
        self, header: Dict[str, Any]
    ) -> Optional[obs_trace.Trace]:
        """A server-side trace seeded from the request header.

        The client's ``trace`` context (``{"id", "client"}``) becomes
        the trace's id and *origin*, so server-side slow-query log
        entries correlate back to the client's request.  ``None`` when
        the session has tracing off.
        """
        if not getattr(self.session, "tracing", False):
            return None
        ctx = header.get("trace")
        if not isinstance(ctx, dict):
            ctx = None
        return obs_trace.Trace(
            trace_id=(ctx or {}).get("id"), origin=ctx
        )

    async def _process_worker_task(
        self,
        kind: str,
        header: Dict[str, Any],
        payload: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pool_enc: "protocol.ArenaPoolEncoder",
    ) -> None:
        if kind == "shard":
            self.stats.shard_tasks += 1
        else:
            self.stats.execute_tasks += 1
        query = self._statement(str(header["sql"]))
        loop = asyncio.get_running_loop()
        elapsed, fr, records = await loop.run_in_executor(
            self._pool, self._run_worker_task, kind, header, payload, query
        )
        meta = {
            "id": header.get("id"),
            "engine": "fdb",
            "cached": False,
            "deduped": False,
            "elapsed": elapsed,
            # Pooled parts are what lets a RemoteExecutor coordinator
            # union per-shard arenas by id: every part on this
            # connection references the same client-side pool.
            "payload": "fdbp-pool",
        }
        if records and (header.get("trace") or header.get("spans")):
            # Worker-host spans travel back in the part meta (only for
            # traced requests); the coordinator merges them prefixed
            # ``remote[i]:``.
            meta["spans"] = records
        await self._send_packed(
            writer,
            lock,
            pool_enc,
            lambda: ("result", meta, pool_enc.encode(fr)),
        )

    def _run_worker_task(
        self, kind: str, header: Dict[str, Any], payload: bytes, query: Query
    ) -> Tuple[float, object, list]:
        """Thread-pool body of a ``shard``/``execute`` request."""
        ctx = header.get("trace")
        if not isinstance(ctx, dict):
            ctx = None
        tree = protocol.unpack_blob(payload)
        if not isinstance(tree, FTree):
            raise ProtocolError(
                f"{kind} payload holds a {type(tree).__name__}, "
                f"not an f-tree"
            )
        database = self.session.database
        check = self.session.check_invariants
        if kind == "shard":
            if not isinstance(database, ShardedDatabase):
                raise ProtocolError(
                    "this server holds an unsharded database; "
                    "'shard' requests need a sharded one"
                )
            index = int(header["shard"])
            if not 0 <= index < database.shard_count:
                raise ProtocolError(
                    f"shard {index} out of range "
                    f"0..{database.shard_count - 1}"
                )
            if self.owned is not None and index not in self.owned:
                self.stats.ownership_rejections += 1
                self.flight.record(
                    "ownership-miss",
                    shard=index,
                    owned=sorted(self.owned),
                )
                raise OwnershipError(
                    f"this worker does not own shard {index} "
                    f"(owned: {sorted(self.owned)})"
                )
            fanout = str(header["fanout"])
            elapsed, fr, records = worker_mod.traced_call(
                ctx,
                worker_mod.evaluate_shard,
                database,
                check,
                query,
                tree,
                index,
                fanout,
            )
            self._record_heat(index, elapsed, fr)
        else:
            # Unprojected like a shard part: the coordinator caches the
            # join for delta maintenance, then projects.
            elapsed, fr, records = worker_mod.traced_call(
                ctx,
                worker_mod.evaluate_join,
                database,
                check,
                query,
                tree,
            )
        return elapsed, fr, records

    async def _process_mutate(
        self,
        header: Dict[str, Any],
        payload: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        self.stats.mutations += 1
        loop = asyncio.get_running_loop()
        meta = await loop.run_in_executor(
            self._pool, self._run_mutate, header, payload
        )
        meta["id"] = header.get("id")
        await self._send(writer, lock, "mutate-result", meta)

    def _run_mutate(
        self, header: Dict[str, Any], payload: bytes
    ) -> Dict[str, Any]:
        """Thread-pool body of a ``mutate`` request.

        Mutations go through the live session database, so its version
        bump and recorded delta drive the same refresh path a local
        embedder would see: absorbable appends keep plans and catch
        cached results up, everything else invalidates.
        """
        op = str(header.get("op") or "")
        relation = str(header["relation"])
        rows = protocol.unpack_rows(payload, int(header["arity"]))
        database = self.session.database
        if op == "extend":
            before = len(database[relation])
            merged = database.extend_rows(relation, rows)
            count = len(merged) - before
        elif op == "delete":
            count = database.delete_rows(relation, rows=rows)
        else:
            raise ProtocolError(
                f"unknown mutate op {op!r}; pick 'extend' or 'delete'"
            )
        return {
            "op": op,
            "relation": relation,
            "count": count,
            "db_version": database.version,
        }

    async def _process_ownership(
        self,
        kind: str,
        header: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """``own``/``disown``: adjust this worker's shard ownership.

        Rebalancing tool of the cluster tier: on a membership change
        the coordinator recomputes the consistent-hash ring and tells
        each surviving worker which shards it gained (``own``) or shed
        (``disown``).  The receipt echoes the full post-change owned
        set, so both sides agree on the contract.
        """
        shards = header.get("shards")
        if not isinstance(shards, list):
            raise ProtocolError(
                f"{kind} 'shards' must be a list of shard indices"
            )
        indices = self._validated_shards(shards)
        database = self.session.database
        everything = set(range(database.shard_count))
        current = everything if self.owned is None else set(self.owned)
        if kind == "own":
            self.stats.own_requests += 1
            current |= indices
        else:
            self.stats.disown_requests += 1
            current -= indices
        self.owned = current
        self.flight.record(
            "rebalance",
            op=kind,
            shards=sorted(indices),
            owned=sorted(current),
        )
        await self._send(
            writer,
            lock,
            f"{kind}-result",
            {
                "id": header.get("id"),
                "owned": sorted(current),
                "shard_count": database.shard_count,
            },
        )

    # -- introspection -----------------------------------------------------

    def _record_heat(self, index: int, elapsed: float, fr) -> None:
        """Tally one shard evaluation into the heat map."""
        try:
            rows = int(fr.count())
        except Exception:
            rows = 0
        with self._heat_lock:
            entry = self._shard_heat.setdefault(
                str(index), {"queries": 0, "rows": 0, "seconds": 0.0}
            )
            entry["queries"] += 1
            entry["rows"] += rows
            entry["seconds"] += float(elapsed)

    def _heat_counters(self) -> Dict[str, Any]:
        """The registry's ``heat`` namespace: per-shard load, keyed by
        shard index."""
        with self._heat_lock:
            return {
                shard: dict(entry)
                for shard, entry in self._shard_heat.items()
            }

    def _server_counters(self) -> Dict[str, Any]:
        """The registry's ``server`` namespace: lifetime counters plus
        configuration and liveness facts."""
        return {
            **self.stats.as_dict(),
            "max_pending": self.max_pending,
            "draining": self._draining,
            "uptime": (
                time.time() - self.started_at
                if self.started_at
                else 0.0
            ),
        }

    def describe_stats(self, rid=None) -> Dict[str, Any]:
        """The ``STATS`` response header: one registry snapshot --
        server, session, cache, queue, store and ivm counters in one
        document (see :mod:`repro.obs.metrics`)."""
        return {"id": rid, **self.registry.snapshot()}

    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot Prometheus scrape: minimal HTTP/1.0, text format.

        Deliberately tiny -- no routing, no keep-alive: a scraper
        sends one GET (or HEAD -- health checkers probe that way and
        get the same headers, no body), gets the exposition, and the
        connection closes.  Any other method or path is answered with
        a clean 404, never a hang or a reset.
        """
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=10
            )
            # Drain (and ignore) the header block.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=10
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            method = parts[0] if parts else ""
            head_only = method == "HEAD"
            if (
                len(parts) >= 2
                and method in ("GET", "HEAD")
                and parts[1].split("?")[0] in ("/metrics", "/")
            ):
                body = self.registry.prometheus_text().encode("utf-8")
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
            else:
                body = b"not found\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
            writer.write(head if head_only else head + body)
            await writer.drain()
        except Exception:
            pass  # a broken scraper must never hurt the server
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- writing -----------------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        kind: str,
        header: Dict[str, Any],
        payload: bytes = b"",
    ) -> None:
        await self._send_packed(
            writer, lock, None, lambda: (kind, header, payload)
        )

    async def _send_packed(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pool,
        pack,
    ) -> None:
        """Pack (via ``pack()``) and write one frame atomically.

        Packing runs *under* the connection lock: pooled arena
        payloads cut a delta against the connection pool, and the
        client replays deltas in arrival order, so cut-and-send must
        not interleave across concurrent responses.  The encoder's
        watermark only commits once the frame really goes out; a
        dropped frame (oversize, dead peer) rolls back and the next
        payload re-ships the delta.
        """
        async with lock:
            try:
                reused = 0 if pool is None else pool.reuses
                kind, header, payload = pack()
                if pool is not None:
                    self.stats.payload_reuses += pool.reuses - reused
                frame = protocol.encode_frame(kind, header, payload)
            except Exception:
                if pool is not None:
                    pool.rollback()
                raise  # _process turns this into an error response
            if len(frame) - 4 > self.max_frame and kind != "error":
                # Never emit a frame the peer is entitled to reject
                # (it would tear down the connection and every
                # in-flight request with it); a too-large *response*
                # degrades to a per-request error instead.
                if pool is not None:
                    pool.rollback()
                self.stats.errors += 1
                frame = protocol.encode_frame(
                    "error",
                    {
                        "id": header.get("id"),
                        "error": (
                            f"response of {len(frame) - 4} bytes "
                            f"exceeds the {self.max_frame}-byte frame "
                            f"limit; raise max_frame or split the batch"
                        ),
                        "type": "ProtocolError",
                    },
                )
            elif pool is not None:
                # Commit before the write: a failed write means the
                # peer is gone, and its pool state dies with the
                # connection anyway.
                pool.commit()
            with contextlib.suppress(ConnectionError, RuntimeError):
                # A peer that disconnected mid-query simply loses its
                # response; the server must not hang or crash over it.
                writer.write(frame)
                await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        rid,
        message: str,
        kind: str = "error",
    ) -> None:
        await self._send(
            writer,
            lock,
            "error",
            {"id": rid, "error": message, "type": kind},
        )


class ServerThread:
    """Run a :class:`QueryServer` on a daemon thread (tests, benchmarks
    and embedding into synchronous programs).

    >>> # doctest-style sketch; see tests/test_net.py for real use
    >>> # with ServerThread(session) as server:
    >>> #     client = RemoteSession(server.address)
    """

    def __init__(self, session, **server_kwargs) -> None:
        import threading

        self._session = session
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[QueryServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.address is None:
            raise RuntimeError("server thread failed to start")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in ctor
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = QueryServer(self._session, **self._kwargs)
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.address = self.server.address
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    def stop(self) -> None:
        """Drain the server and join the thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    close = stop

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
