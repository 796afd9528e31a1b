"""The synchronous client library: ``QuerySession`` over a socket.

:class:`RemoteSession` mirrors the serving-layer API --
:meth:`~RemoteSession.run`, :meth:`~RemoteSession.run_batch`,
:meth:`~RemoteSession.submit`, :meth:`~RemoteSession.close`, context
management -- and returns the very same
:class:`~repro.service.session.SessionResult` objects, rebuilt from
the wire (results arrive *factorised*; enumeration happens client
side, on demand).  Existing callers therefore switch tiers by changing
one constructor::

    session = QuerySession(db)                      # in-process
    session = RemoteSession(("10.0.0.5", 7432))     # served

Pipelining: :meth:`submit` sends the request and returns a
:class:`concurrent.futures.Future` without waiting; a background
reader thread matches responses (which the server may complete out of
order) back to futures by request id.  Many submissions can be in
flight on one connection -- that, multiplied across connections, is
what the server's wave coalescing feeds on.
"""

from __future__ import annotations

import itertools
import socket
import threading
import warnings
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_PORT,
    ProtocolError,
)
from repro.obs import trace as obs_trace
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.service.session import SessionResult

Address = Union[str, Tuple[str, int]]

#: "No per-call timeout given -- use the session default."  A real
#: sentinel, because ``None`` is a meaningful timeout (wait forever).
_UNSET = object()


class NetError(RuntimeError):
    """A remote request failed: server-side error, lost connection,
    or protocol violation.

    ``server_type`` names the server-side exception class of an error
    the server answered with (``"QueryError"``, ``"OwnershipError"``,
    ...); it is ``None`` for transport failures.
    """

    def __init__(self, message: str, server_type: Optional[str] = None):
        super().__init__(message)
        self.server_type = server_type


def parse_address(address: Address) -> Tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``(host, port)`` -> (host, port)."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address)
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            return host or "127.0.0.1", int(port_text)
        except ValueError as exc:
            raise ValueError(
                f"malformed address {address!r} (want host:port)"
            ) from exc
    return text, DEFAULT_PORT


def _as_query(query: Union[Query, str]) -> Query:
    return query if isinstance(query, Query) else parse_query(str(query))


class RemoteSession:
    """A connection to one ``repro serve`` server.

    Parameters
    ----------
    address:
        ``(host, port)``, ``"host:port"`` or ``"host"`` (default port
        :data:`~repro.net.protocol.DEFAULT_PORT`).
    timeout:
        Seconds :meth:`run`/:meth:`run_batch`/:meth:`stats` wait for
        their response (``None`` = forever).  :meth:`submit` futures
        are unaffected -- callers choose their own wait.
    connect_timeout:
        Seconds to wait for the TCP connect plus the server hello.
    max_frame:
        Reject inbound frames larger than this.
    wire_pool:
        Opt into the shared wire value pool (on by default, used only
        when the server advertises it): factorised results arrive
        as columns over one per-connection interned pool, shipped
        incrementally, and all results on this connection share the
        receiver pool -- so shard parts recombine by id in
        ``ops.union``.  Set false to force plain self-contained blobs.
    reader_join_timeout:
        Seconds :meth:`close` waits for the reader thread to exit.  A
        reader still alive afterwards marks the session *defunct*
        (:attr:`defunct`), warns, and fails pending futures -- it is
        never silently leaked.
    """

    def __init__(
        self,
        address: Address = ("127.0.0.1", DEFAULT_PORT),
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire_pool: bool = True,
        reader_join_timeout: float = 10.0,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        self.max_frame = max_frame
        self.reader_join_timeout = reader_join_timeout
        self._ids = itertools.count(1)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        #: id -> (future, context); context tells the reader thread how
        #: to decode the response payload.
        self._pending: Dict[int, Tuple[Future, Tuple]] = {}
        self._closed = False
        self._defunct = False
        try:
            self._sock = socket.create_connection(
                self.address, timeout=connect_timeout
            )
        except OSError as exc:
            raise NetError(
                f"cannot connect to {self.address[0]}:"
                f"{self.address[1]}: {exc}"
            ) from exc
        try:
            hello = protocol.recv_frame(self._sock, self.max_frame)
        except (ProtocolError, OSError) as exc:
            self._sock.close()
            raise NetError(f"handshake failed: {exc}") from exc
        if hello is None or hello[0] != "hello":
            self._sock.close()
            raise NetError(
                f"{self.address[0]}:{self.address[1]} did not say hello "
                f"(got {hello[0] if hello else 'EOF'})"
            )
        #: The server's hello header: protocol version, shard layout,
        #: relation names, database version.
        self.server_info: Dict[str, Any] = hello[1]
        #: The connection's shared wire pool (decoder side); responses
        #: are decoded on the single reader thread, in arrival order,
        #: which is exactly the order the server cut the pool deltas.
        self._wire_pool = bool(
            wire_pool and self.server_info.get("wire_pool")
        )
        self._pool_dec = protocol.ArenaPoolDecoder()
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client", daemon=True
        )
        self._reader.start()

    # -- the public QuerySession-shaped API --------------------------------

    def _await(self, rid: int, future: Future, timeout=_UNSET):
        """Block on a response; timeouts become :class:`NetError` and
        release the pending entry (a late response is then ignored).
        ``timeout`` overrides the session default for this one call
        (federation pollers scrape with a bound tighter than the
        query timeout)."""
        wait = self.timeout if timeout is _UNSET else timeout
        try:
            return future.result(wait)
        except (TimeoutError, _FutureTimeout):
            with self._state_lock:
                self._pending.pop(rid, None)
            raise NetError(
                f"no response from {self.address[0]}:"
                f"{self.address[1]} within {wait}s"
            ) from None

    def run(
        self, query: Union[Query, str], engine: str = "auto"
    ) -> SessionResult:
        """Evaluate one query on the server (blocking)."""
        query = _as_query(query)
        rid, future = self._request(
            "query",
            {"sql": str(query), "engine": engine},
            context=("result", query),
        )
        return self._absorb_spans(self._await(rid, future))

    def submit(
        self, query: Union[Query, str], engine: str = "auto"
    ) -> Future:
        """Pipelined submission: send now, resolve later.

        The returned future is not bound to :attr:`timeout`; callers
        choose their own wait in ``future.result(...)``.
        """
        query = _as_query(query)
        _, future = self._request(
            "query",
            {"sql": str(query), "engine": engine},
            context=("result", query),
        )
        return future

    def run_batch(
        self,
        queries: Sequence[Union[Query, str]],
        engine: str = "auto",
    ) -> List[SessionResult]:
        """Evaluate a batch in one round trip (server-side dedup)."""
        parsed = [_as_query(q) for q in queries]
        rid, future = self._request(
            "batch",
            {"sql": [str(q) for q in parsed], "engine": engine},
            context=("batch", parsed),
        )
        results = self._await(rid, future)
        for result in results:
            self._absorb_spans(result)
        return results

    def _absorb_spans(self, result: SessionResult) -> SessionResult:
        """Merge a result's server-side spans into the caller's active
        trace (if any), prefixed ``server:`` -- so one client-side
        trace shows the whole client -> server -> worker breakdown."""
        trace = obs_trace.current()
        if trace is not None and result.spans:
            trace.extend(result.spans, prefix="server:")
        return result

    def stats(self, timeout=_UNSET) -> Dict[str, Any]:
        """The server's ``STATS`` document: the unified registry
        snapshot (server / session / cache / queue / plan-store /
        slow-log counters) plus the request id."""
        rid, future = self._request("stats", {}, context=("stats",))
        return self._await(rid, future, timeout)

    def metrics(self, timeout=_UNSET) -> Dict[str, Any]:
        """The server's unified metrics snapshot (a plain nested
        dict; the same document the Prometheus endpoint flattens)."""
        snapshot, _ = self._await(
            *self._request("metrics", {}, context=("metrics",)),
            timeout,
        )
        return snapshot

    def metrics_text(self, timeout=_UNSET) -> str:
        """The server's metrics in Prometheus text exposition format."""
        _, text = self._await(
            *self._request("metrics", {}, context=("metrics",)),
            timeout,
        )
        return text

    # -- mutations ---------------------------------------------------------

    def extend_rows(
        self, relation: str, rows: Sequence[Sequence[object]]
    ) -> Dict[str, Any]:
        """Append ``rows`` to ``relation`` on the server.

        Returns the server's mutation receipt: ``op``, ``relation``,
        ``count`` (genuinely new rows) and the post-mutation
        ``db_version``.  The server applies the append through its
        live session database, so absorbable deltas keep served plans
        and cached results warm exactly as they would in-process.
        """
        return self._mutate("extend", relation, rows)

    def delete_rows(
        self, relation: str, rows: Sequence[Sequence[object]]
    ) -> Dict[str, Any]:
        """Delete ``rows`` from ``relation`` on the server; the receipt
        ``count`` says how many were actually present."""
        return self._mutate("delete", relation, rows)

    def _mutate(
        self,
        op: str,
        relation: str,
        rows: Sequence[Sequence[object]],
    ) -> Dict[str, Any]:
        normalised = [tuple(row) for row in rows]
        arity, payload = protocol.pack_rows(normalised)
        rid, future = self._request(
            "mutate",
            {"op": op, "relation": relation, "arity": arity},
            payload=payload,
            context=("mutate",),
        )
        return self._await(rid, future)

    # -- the worker protocol (RemoteExecutor) ------------------------------

    def submit_shard(
        self,
        query: Union[Query, str],
        tree: FTree,
        shard: int,
        fanout: str,
    ) -> Future:
        """Evaluate (query, shard) on the worker; resolves to
        ``(worker_seconds, FactorisedRelation, span_records)`` without
        projection."""
        query = _as_query(query)
        _, future = self._request(
            "shard",
            {"sql": str(query), "shard": int(shard), "fanout": fanout},
            payload=protocol.pack_blob(tree),
            context=("part",),
        )
        return future

    def submit_execute(
        self, query: Union[Query, str], tree: FTree
    ) -> Future:
        """Evaluate a whole query on the worker; resolves to
        ``(worker_seconds, FactorisedRelation, span_records)`` without
        projection."""
        query = _as_query(query)
        _, future = self._request(
            "execute",
            {"sql": str(query)},
            payload=protocol.pack_blob(tree),
            context=("part",),
        )
        return future

    # -- shard ownership (ClusterMap rebalancing) --------------------------

    def own_shards(self, shards: Sequence[int]) -> Dict[str, Any]:
        """Tell the worker to start answering for ``shards``.

        Returns the ownership receipt (``owned``: the full post-change
        owned list, ``shard_count``) and mirrors it into
        :attr:`server_info`, so coordinator-side routing sees the new
        contract without a reconnect.
        """
        return self._change_ownership("own", shards)

    def disown_shards(self, shards: Sequence[int]) -> Dict[str, Any]:
        """Tell the worker to stop answering for ``shards``."""
        return self._change_ownership("disown", shards)

    def _change_ownership(
        self, kind: str, shards: Sequence[int]
    ) -> Dict[str, Any]:
        rid, future = self._request(
            kind,
            {"shards": [int(s) for s in shards]},
            context=("own",),
        )
        receipt = self._await(rid, future)
        self.server_info["owned_shards"] = list(
            receipt.get("owned") or ()
        )
        return receipt

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def defunct(self) -> bool:
        """True when close() could not join the reader thread: the
        session leaked a thread and must not be reused or retried."""
        return self._defunct

    def close(self) -> None:
        """Close the connection; pending futures fail with
        :class:`NetError`.  Idempotent."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=self.reader_join_timeout)
            if self._reader.is_alive():
                # The reader is wedged (a hung recv despite the
                # shutdown above, or a stuck decode).  Joining forever
                # would hang the caller; returning silently would leak
                # the thread *and* strand every pending future.  Say
                # so, mark the session defunct, and fail the futures.
                self._defunct = True
                warnings.warn(
                    f"repro.net reader thread for {self.address[0]}:"
                    f"{self.address[1]} did not exit within "
                    f"{self.reader_join_timeout}s; session marked "
                    f"defunct and pending requests failed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._fail_pending(
                    NetError(
                        "session closed with a stuck reader thread; "
                        "pending requests abandoned"
                    )
                )
                return
        self._fail_pending(NetError("session closed"))

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _request(
        self,
        kind: str,
        header: Dict[str, Any],
        payload: bytes = b"",
        context: Tuple = (),
    ) -> Tuple[int, Future]:
        rid = next(self._ids)
        future: Future = Future()
        if self._wire_pool and kind in (
            "query",
            "batch",
            "shard",
            "execute",
        ):
            header = {**header, "pool": True}
        if kind in ("query", "batch", "shard", "execute", "mutate"):
            # Carry the caller's trace context (plus our request id)
            # to the server: its trace -- and its slow-query log
            # entries -- then correlate back to this client request.
            ctx = obs_trace.context()
            if ctx is not None:
                header = {
                    **header,
                    "trace": {**ctx, "client": rid},
                }
        with self._state_lock:
            if self._closed:
                raise NetError("session is closed")
            self._pending[rid] = (future, context)
        frame = protocol.encode_frame(
            kind, {**header, "id": rid}, payload
        )
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            with self._state_lock:
                self._pending.pop(rid, None)
            self.close()
            raise NetError(f"connection lost: {exc}") from exc
        return rid, future

    def _fail_pending(self, error: Exception) -> None:
        with self._state_lock:
            pending, self._pending = self._pending, {}
        for future, _ in pending.values():
            if not future.done():
                future.set_exception(error)

    def _read_loop(self) -> None:
        error: Optional[Exception] = None
        try:
            while True:
                frame = protocol.recv_frame(self._sock, self.max_frame)
                if frame is None:
                    break
                self._dispatch(*frame)
        except (ProtocolError, OSError) as exc:
            if not self._closed:
                error = NetError(f"connection lost: {exc}")
        finally:
            with self._state_lock:
                self._closed = True
            self._fail_pending(
                error or NetError("connection closed by server")
            )

    def _dispatch(
        self, kind: str, header: Dict[str, Any], payload: bytes
    ) -> None:
        rid = header.get("id")
        if rid is None:
            if kind == "error":
                # Connection-fatal server error (oversized/corrupt
                # frame): every in-flight request is lost.
                self._fail_pending(
                    NetError(f"server error: {header.get('error')}")
                )
            return
        with self._state_lock:
            entry = self._pending.pop(rid, None)
        if entry is None:
            # Response to a request we gave up on: its pooled payloads
            # still carry pool deltas the stream depends on -- absorb
            # them, or every later pooled result would desync.
            self._absorb_orphan(kind, header, payload)
            return
        future, context = entry
        try:
            future.set_result(
                self._decode(kind, header, payload, context)
            )
        except Exception as exc:
            future.set_exception(exc)

    def _absorb_orphan(
        self, kind: str, header: Dict[str, Any], payload: bytes
    ) -> None:
        """Apply the pool deltas of a response nobody is waiting for."""
        try:
            if kind == "result":
                if header.get("payload") == "fdbp-pool":
                    self._pool_dec.decode(payload)
            elif kind == "batch-result":
                offset = 0
                for meta in header.get("results") or []:
                    nbytes = int(meta.get("nbytes", 0))
                    part = payload[offset : offset + nbytes]
                    offset += nbytes
                    if meta.get("payload") == "fdbp-pool":
                        self._pool_dec.decode(part)
        except Exception:
            # A malformed orphan leaves the pool where it was; the
            # next pooled decode will report the desync loudly.
            pass

    def _decode(
        self,
        kind: str,
        header: Dict[str, Any],
        payload: bytes,
        context: Tuple,
    ):
        if kind == "error":
            server_type = str(header.get("type", "error"))
            raise NetError(
                f"server error ({server_type}): {header.get('error')}",
                server_type=server_type,
            )
        shape = context[0] if context else None
        if kind == "result" and shape == "result":
            return protocol.unpack_result(
                context[1], header, payload, self._pool_dec
            )
        if kind == "result" and shape == "part":
            if header.get("payload") == "fdbp-pool":
                fr = protocol.unpack_pooled(payload, self._pool_dec)
            else:
                fr = protocol.unpack_blob(payload)
            if not isinstance(fr, FactorisedRelation):
                raise NetError(
                    f"worker returned a {type(fr).__name__}, not a "
                    f"factorised relation"
                )
            return (
                float(header.get("elapsed", 0.0)),
                fr,
                list(header.get("spans") or ()),
            )
        if kind == "batch-result" and shape == "batch":
            return protocol.unpack_results(
                context[1], header["results"], payload, self._pool_dec
            )
        if kind == "stats-result" and shape == "stats":
            return header
        if kind == "metrics-result" and shape == "metrics":
            return header, payload.decode("utf-8")
        if kind == "mutate-result" and shape == "mutate":
            return header
        if kind in ("own-result", "disown-result") and shape == "own":
            return header
        raise NetError(
            f"unexpected {kind!r} response for a {shape!r} request"
        )
