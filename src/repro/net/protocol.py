"""The length-prefixed wire protocol of the network tier.

Every message travelling either direction is one *frame*::

    +-------------+--------------------------------------------------+
    | u32 length  | body                                             |
    +-------------+--------------------------------------------------+

    body := magic "FN" | u8 protocol version | u8 kind-length | kind
            | u32 header-length | header (JSON) | payload (rest)

The four-byte length prefix makes framing trivial and *bounded*: a
reader knows, before buffering anything, whether the peer is about to
exceed :data:`DEFAULT_MAX_FRAME` and can reject the frame without
reading it (oversized frames are a denial-of-service vector, not a
protocol feature).  The two magic bytes and the version byte reject
foreign, older and newer peers before any JSON is parsed.  Version 2
ships arenas with one offsets column per child slot; a version-1 peer
(two range columns per slot) is refused at the frame header rather
than misread, as is any other version -- there is no compatibility
reader.

``kind`` names the message (:data:`REQUEST_KINDS` /
:data:`RESPONSE_KINDS`); the JSON *header* carries the small,
schema-level facts (request ids, SQL text, engine names, counters);
the *payload* carries bulk data in the FDBP binary format of
:mod:`repro.persist.codec`.  That reuse is the point of the protocol:
a factorised query result is serialised by the same codec that
persists it, so results travel *factorised* -- a result ships its
interned pool plus near-verbatim column bytes, and the
client's deserialisation cost is ~O(bytes) (the PR-4 ~27x codec-load
property becomes a wire property).

Result framing
--------------
:func:`pack_result` turns a
:class:`~repro.service.session.SessionResult` into ``(meta, payload)``
where ``meta["payload"]`` says how to read the bytes back:

- ``"fdbp-pool"`` -- every factorised result and shard part: the
  codec's one arena body (value columns and one offsets column per
  child slot) against the connection's value pool
  (:class:`~repro.persist.codec.ArenaPoolEncoder`) plus a CRC32.  The
  pool ships once per connection as incremental deltas, columns
  reference it by id, and every decoded arena on the connection
  shares the receiver pool -- so streamed shard parts recombine in
  ``ops.union`` without re-interning.  It is the only result mode:
  there is no per-request choice;
- ``"fdbp"``  -- one self-describing FDBP blob, for flat ``relation``
  results (and, on the request side, the f-tree of a ``shard`` or
  ``execute`` task);
- ``"rows"``  -- tagged value rows (the SQLite comparator's raw
  tuples, which have no factorised form);
- ``"none"``  -- no payload (errors, pure-counter responses).

:func:`unpack_result` is the exact inverse and rebuilds a
``SessionResult``, so remote callers receive the same object local
callers do.  Called without a connection's encoder and decoder, the
pair uses fresh ones: the payload then carries the result's whole
pool.
"""

from __future__ import annotations

import io
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.core.factorised import FactorisedRelation
from repro.persist import codec
from repro.persist.codec import (
    ArenaPoolDecoder,
    ArenaPoolEncoder,
    PersistError,
)
from repro.query.query import Query
from repro.relational.relation import Relation
from repro.service.session import SessionResult

MAGIC = b"FN"
PROTOCOL_VERSION = 2

#: Default upper bound on one frame (header + payload), either way.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7432

#: Messages a client may send.
REQUEST_KINDS = (
    "query",
    "batch",
    "shard",
    "execute",
    "stats",
    "metrics",
    "mutate",
    "own",
    "disown",
)

#: Messages a server may send.
RESPONSE_KINDS = (
    "hello",
    "result",
    "batch-result",
    "stats-result",
    "metrics-result",
    "mutate-result",
    "own-result",
    "disown-result",
    "error",
)

_KINDS = frozenset(REQUEST_KINDS) | frozenset(RESPONSE_KINDS)


class ProtocolError(ValueError):
    """Raised for malformed, foreign, truncated or oversized frames."""


# -- framing -----------------------------------------------------------------


def encode_frame(
    kind: str, header: Dict[str, Any], payload: bytes = b""
) -> bytes:
    """One complete frame, length prefix included."""
    if kind not in _KINDS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    kind_bytes = kind.encode("ascii")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(
        (
            MAGIC,
            struct.pack(">B", PROTOCOL_VERSION),
            struct.pack(">B", len(kind_bytes)),
            kind_bytes,
            struct.pack(">I", len(header_bytes)),
            header_bytes,
            payload,
        )
    )
    return struct.pack(">I", len(body)) + body


def decode_body(body: bytes) -> Tuple[str, Dict[str, Any], bytes]:
    """Parse one frame body into (kind, header, payload)."""
    if len(body) < 4:
        raise ProtocolError("truncated frame: short preamble")
    if body[:2] != MAGIC:
        raise ProtocolError(
            f"not a repro.net frame (magic {body[:2]!r}, "
            f"expected {MAGIC!r})"
        )
    if body[2] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {body[2]} "
            f"(this build speaks version {PROTOCOL_VERSION})"
        )
    kind_len = body[3]
    offset = 4 + kind_len
    if len(body) < offset + 4:
        raise ProtocolError("truncated frame: short kind")
    try:
        kind = body[4:offset].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError("malformed message kind") from exc
    if kind not in _KINDS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    (header_len,) = struct.unpack_from(">I", body, offset)
    offset += 4
    if len(body) < offset + header_len:
        raise ProtocolError("truncated frame: short header")
    try:
        header = json.loads(body[offset : offset + header_len])
    except (ValueError, RecursionError) as exc:
        # Beyond JSON syntax and encodings (both ValueErrors), a
        # header of 5 000 digits exceeds int()'s digit limit and one
        # nested 100 000 deep exceeds the recursion limit.
        raise ProtocolError("malformed frame header") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return kind, header, bytes(body[offset + header_len :])


# -- blocking-socket transport (the synchronous client) ----------------------


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; :class:`ProtocolError` on early EOF."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[Tuple[str, Dict[str, Any], bytes]]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    try:
        head = sock.recv(4)
    except (ConnectionResetError, BrokenPipeError):
        return None
    if not head:
        return None
    if len(head) < 4:
        head += recv_exact(sock, 4 - len(head))
    (length,) = struct.unpack(">I", head)
    if length > max_frame:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit"
        )
    return decode_body(recv_exact(sock, length))


# -- result packing ----------------------------------------------------------


def _encode_rows(rows: List[tuple], arity: int) -> bytes:
    for row in rows:
        if len(row) != arity:
            raise ProtocolError(
                f"row of arity {len(row)} in a {arity}-column result"
            )
    out = io.BytesIO()
    codec._encode_rows(out, rows)
    return out.getvalue()


def _decode_rows(payload: bytes, arity: int) -> List[tuple]:
    src = io.BytesIO(payload)
    try:
        rows = codec._decode_rows(src, arity)
    except PersistError as exc:
        raise ProtocolError(f"malformed rows payload: {exc}") from exc
    if src.read(1):
        raise ProtocolError("rows payload has trailing bytes")
    return rows


def pack_rows(
    rows: List[tuple],
) -> Tuple[int, bytes]:
    """(arity, payload) for a list of raw rows (mutate requests).

    Rows travel as the codec's tagged values -- the same value space
    relations store -- not as JSON, so mutations round-trip exactly
    what a local ``extend_rows``/``delete_rows`` would see.
    """
    rows = [tuple(row) for row in rows]
    arity = len(rows[0]) if rows else 0
    return arity, _encode_rows(rows, arity)


def unpack_rows(payload: bytes, arity: int) -> List[tuple]:
    """Inverse of :func:`pack_rows`."""
    return _decode_rows(payload, int(arity))


def pack_blob(obj: object) -> bytes:
    """One in-memory FDBP blob (the codec's on-disk framing, verbatim)."""
    kind, header, payload = codec.encode(obj)
    out = io.BytesIO()
    codec.write_blob(out, kind, header, payload)
    return out.getvalue()


def unpack_blob(data: bytes) -> object:
    """Inverse of :func:`pack_blob` (checksummed, self-describing)."""
    try:
        return codec.decode(*codec.read_blob(io.BytesIO(data)))
    except PersistError as exc:
        raise ProtocolError(f"malformed FDBP payload: {exc}") from exc


def unpack_pooled(
    payload: bytes, pool: ArenaPoolDecoder
) -> FactorisedRelation:
    """Decode one ``fdbp-pool`` payload against the connection pool."""
    try:
        return pool.decode(payload)
    except PersistError as exc:
        raise ProtocolError(f"malformed pooled payload: {exc}") from exc


def pack_result(
    result: SessionResult,
    pool: Optional[ArenaPoolEncoder] = None,
    include_spans: bool = True,
) -> Tuple[Dict[str, Any], bytes]:
    """(meta, payload) for one evaluated query (see module docstring).

    Factorised results are encoded by ``pool``, the connection's
    encoder, whose commit/rollback the caller owns (the watermark may
    only advance once the frame actually went out); without one, by a
    fresh encoder.
    """
    meta: Dict[str, Any] = {
        "engine": result.engine,
        "cached": result.cached,
        "deduped": result.deduped,
        "elapsed": result.elapsed,
    }
    # Observability rides in the meta: span records are plain JSON
    # dicts, so a remote caller sees the same breakdown a local one
    # does (client-side code prefixes them "server:" on merge).  The
    # server only sets ``include_spans`` for requests that carried a
    # trace context -- untraced traffic must not grow by hundreds of
    # bytes of span records per result.
    if result.trace_id is not None:
        meta["trace"] = result.trace_id
    if include_spans and result.spans:
        meta["spans"] = result.spans
    if result.factorised is not None:
        if pool is None:
            pool = ArenaPoolEncoder()
        meta["payload"] = "fdbp-pool"
        return meta, pool.encode(result.factorised)
    if result.flat is not None:
        meta["payload"] = "fdbp"
        return meta, pack_blob(result.flat)
    meta["payload"] = "rows"
    attributes = list(result.raw_attributes or ())
    meta["attributes"] = attributes
    return meta, _encode_rows(result.raw or [], len(attributes))


def unpack_result(
    query: Query,
    meta: Dict[str, Any],
    payload: bytes,
    pool: Optional[ArenaPoolDecoder] = None,
) -> SessionResult:
    """Rebuild the :class:`SessionResult` a server packed; ``pool``
    is the connection's decoder (a fresh one without it)."""
    try:
        engine = meta["engine"]
        cached = bool(meta["cached"])
        deduped = bool(meta.get("deduped", False))
        elapsed = float(meta.get("elapsed", 0.0))
        payload_kind = meta["payload"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result meta: {meta!r}") from exc
    spans = meta.get("spans")
    obs = {
        "spans": list(spans) if spans else None,
        "trace_id": meta.get("trace"),
    }
    if payload_kind == "fdbp-pool":
        return SessionResult(
            query=query,
            engine=engine,
            cached=cached,
            deduped=deduped,
            elapsed=elapsed,
            factorised=unpack_pooled(
                payload, ArenaPoolDecoder() if pool is None else pool
            ),
            **obs,
        )
    if payload_kind == "fdbp":
        obj = unpack_blob(payload)
        if isinstance(obj, Relation):
            return SessionResult(
                query=query,
                engine=engine,
                cached=cached,
                deduped=deduped,
                elapsed=elapsed,
                flat=obj,
                **obs,
            )
        raise ProtocolError(
            f"result blob holds a {type(obj).__name__}, not a relation"
        )
    if payload_kind == "rows":
        attributes = tuple(meta.get("attributes") or ())
        return SessionResult(
            query=query,
            engine=engine,
            cached=cached,
            deduped=deduped,
            elapsed=elapsed,
            raw=_decode_rows(payload, len(attributes)),
            raw_attributes=attributes,
            **obs,
        )
    raise ProtocolError(f"unknown result payload kind {payload_kind!r}")


def pack_results(
    results: List[SessionResult],
    pool: ArenaPoolEncoder,
    include_spans: bool = True,
) -> Tuple[List[Dict[str, Any]], bytes]:
    """Frame a whole batch: per-result metas (with byte extents) plus
    the concatenated payloads.  The pooled payloads of one batch chain
    their deltas in order; the decoder replays them the same way."""
    metas: List[Dict[str, Any]] = []
    parts: List[bytes] = []
    for result in results:
        meta, payload = pack_result(result, pool, include_spans)
        meta["nbytes"] = len(payload)
        metas.append(meta)
        parts.append(payload)
    return metas, b"".join(parts)


def unpack_results(
    queries: List[Query],
    metas: List[Dict[str, Any]],
    payload: bytes,
    pool: ArenaPoolDecoder,
) -> List[SessionResult]:
    if len(queries) != len(metas):
        raise ProtocolError(
            f"batch of {len(queries)} queries answered with "
            f"{len(metas)} results"
        )
    out: List[SessionResult] = []
    offset = 0
    for query, meta in zip(queries, metas):
        try:
            nbytes = int(meta["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed batch meta: {meta!r}"
            ) from exc
        if nbytes < 0 or offset + nbytes > len(payload):
            raise ProtocolError("batch payload extents out of range")
        out.append(
            unpack_result(
                query, meta, payload[offset : offset + nbytes], pool
            )
        )
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError("batch payload has trailing bytes")
    return out
