"""The versioned binary on-disk format (the EMBANKS direction).

Every persisted object is one *blob*::

    +--------+---------+------+----------------+---------------------+
    | magic  | version | kind | header (JSON)  | payload (binary)    |
    | 4 B    | u16     | str8 | u32 len + data | u32 crc32 + u64 len |
    |        |         |      |                | + data              |
    +--------+---------+------+----------------+---------------------+

- ``magic`` is the four bytes ``FDBP`` -- anything else is not ours;
- ``version`` is :data:`FORMAT_VERSION`; readers reject other values
  (format evolution means bumping it and keeping a decoder per
  version, not silently re-interpreting bytes);
- ``kind`` (u8 length + ASCII) names the payload type -- one of
  :data:`KINDS` -- so a file is self-describing and ``load`` can
  dispatch without a filename convention;
- the *header* is a small JSON object with the schema-level facts
  (attribute names, relation names, database version, shard layout),
  readable without touching the payload;
- the *payload* carries the data itself in the compact value format
  below, guarded by a CRC32 and an explicit length, so truncation and
  bit-rot are detected before anything is decoded.

Values (the singletons of the paper's representations) are encoded
with one tag byte each: ``None``, booleans, integers (zig-zag LEB128
varints, arbitrary precision via a big-int escape), floats (IEEE-754
doubles) and UTF-8 strings.  That covers everything the engine's
relations can hold; exotic types raise :class:`PersistError` at save
time rather than round-tripping approximately.

A factorised representation is *already* the compressed form of its
relation, so no further compression pass is applied (see
``benchmarks/bench_persist.py`` for the size comparison against the
flat CSV equivalent).  A factorised relation persists as an ``arena``
blob (:mod:`repro.core.arena`): the interned value pool is tag-encoded
once, and the per-node integer columns are written as raw
little-endian int64 byte runs.  Loading is therefore ~O(bytes) --
``array.frombytes`` plus a bounds check.  (The ``factorised`` kind --
an object representation walked depth-first -- is retired: no build
writes it, and reading one raises :class:`PersistError` telling the
caller to re-evaluate and re-save.)
"""

from __future__ import annotations

import io
import json
import mmap as mmap_module
import os
import shutil
import struct
import sys
import tempfile
import zlib
from array import array
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

try:  # optional: zero-copy mmap column views (stdlib path copies)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free CI
    _np = None

from repro.core import arena as arena_mod
from repro.core.arena import ArenaRep
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree
from repro.optimiser.fplan import FPlan, Step
from repro.query.hypergraph import Hypergraph
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.storage.sharded import ShardedDatabase

MAGIC = b"FDBP"
FORMAT_VERSION = 1

#: Payload kinds a blob can carry.
KINDS = (
    "relation",
    "database",
    "ftree",
    "fplan",
    "arena",
    "plan-entry",
    "shard-manifest",
)

#: File names inside a sharded-database directory.
MANIFEST_NAME = "manifest.fdbp"
SHARD_PATTERN = "shard-{index:04d}.fdbp"


class PersistError(ValueError):
    """Raised for unreadable, corrupt or incompatible persisted data."""


# -- value format ------------------------------------------------------------

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BIGINT = 6

#: Integers beyond this magnitude take the decimal big-int escape
#: (LEB128 of arbitrary precision works too, but a bound keeps the
#: varint loop trivially terminating on adversarial input).
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _write_varint(out: BinaryIO, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(src: BinaryIO) -> int:
    result = 0
    shift = 0
    while True:
        raw = src.read(1)
        if not raw:
            raise PersistError("truncated varint in payload")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 70:
            raise PersistError("varint overflow in payload")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def write_value(out: BinaryIO, value: object) -> None:
    """Encode one singleton value with its tag byte."""
    if value is None:
        out.write(bytes((_TAG_NONE,)))
    elif value is True:
        out.write(bytes((_TAG_TRUE,)))
    elif value is False:
        out.write(bytes((_TAG_FALSE,)))
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.write(bytes((_TAG_INT,)))
            _write_varint(out, _zigzag(value) & (2**64 - 1))
        else:
            digits = str(value).encode("ascii")
            out.write(bytes((_TAG_BIGINT,)))
            _write_varint(out, len(digits))
            out.write(digits)
    elif isinstance(value, float):
        out.write(bytes((_TAG_FLOAT,)))
        out.write(struct.pack(">d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.write(bytes((_TAG_STR,)))
        _write_varint(out, len(data))
        out.write(data)
    else:
        raise PersistError(
            f"cannot persist value of type {type(value).__name__}: "
            f"{value!r}"
        )


def read_value(src: BinaryIO) -> object:
    """Decode one tagged value."""
    raw = src.read(1)
    if not raw:
        raise PersistError("truncated value in payload")
    tag = raw[0]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return _unzigzag(_read_varint(src))
    if tag == _TAG_FLOAT:
        data = src.read(8)
        if len(data) != 8:
            raise PersistError("truncated float in payload")
        return struct.unpack(">d", data)[0]
    if tag == _TAG_STR:
        length = _read_varint(src)
        data = src.read(length)
        if len(data) != length:
            raise PersistError("truncated string in payload")
        return data.decode("utf-8")
    if tag == _TAG_BIGINT:
        length = _read_varint(src)
        data = src.read(length)
        if len(data) != length:
            raise PersistError("truncated big integer in payload")
        try:
            return int(data.decode("ascii"))
        except ValueError as exc:
            raise PersistError(f"malformed big integer {data!r}") from exc
    raise PersistError(f"unknown value tag {tag}")


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out.write(data)


def _read_str(src: BinaryIO) -> str:
    length = _read_varint(src)
    data = src.read(length)
    if len(data) != length:
        raise PersistError("truncated string in payload")
    return data.decode("utf-8")


# -- blob container ----------------------------------------------------------


def write_blob(
    handle: BinaryIO, kind: str, header: Dict[str, Any], payload: bytes
) -> None:
    """Write one framed blob: magic, version, kind, header, payload."""
    if kind == "factorised":  # written by earlier builds only
        raise PersistError(
            "blob kind 'factorised' is retired: it holds an "
            "object-encoded factorised result, which this build no "
            "longer reads; re-evaluate the query and save the result "
            "again (it is then written as an 'arena' blob)"
        )
    if kind not in KINDS:
        raise PersistError(f"unknown blob kind {kind!r}")
    kind_bytes = kind.encode("ascii")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    handle.write(MAGIC)
    handle.write(struct.pack(">H", FORMAT_VERSION))
    handle.write(struct.pack(">B", len(kind_bytes)))
    handle.write(kind_bytes)
    handle.write(struct.pack(">I", len(header_bytes)))
    handle.write(header_bytes)
    handle.write(struct.pack(">I", zlib.crc32(payload)))
    handle.write(struct.pack(">Q", len(payload)))
    handle.write(payload)


def _exactly(handle: BinaryIO, n: int, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise PersistError(f"truncated file: short {what}")
    return data


def read_header(handle: BinaryIO) -> Tuple[str, Dict[str, Any]]:
    """Read magic, version, kind and header -- the payload untouched.

    This is the cheap half of :func:`read_blob`: inspecting a
    multi-gigabyte database file costs a few hundred bytes of I/O, not
    a full read-and-checksum pass.
    """
    magic = handle.read(4)
    if magic != MAGIC:
        raise PersistError(
            f"not an FDBP file (magic {magic!r}, expected {MAGIC!r})"
        )
    (version,) = struct.unpack(">H", _exactly(handle, 2, "format version"))
    if version != FORMAT_VERSION:
        raise PersistError(
            f"unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    (kind_len,) = struct.unpack(">B", _exactly(handle, 1, "kind length"))
    try:
        kind = _exactly(handle, kind_len, "kind").decode("ascii")
    except UnicodeDecodeError as exc:
        raise PersistError("malformed blob kind") from exc
    if kind == "factorised":  # written by earlier builds only
        raise PersistError(
            "blob kind 'factorised' is retired: it holds an "
            "object-encoded factorised result, which this build no "
            "longer reads; re-evaluate the query and save the result "
            "again (it is then written as an 'arena' blob)"
        )
    if kind not in KINDS:
        raise PersistError(f"unknown blob kind {kind!r}")
    (header_len,) = struct.unpack(">I", _exactly(handle, 4, "header length"))
    try:
        header = json.loads(
            _exactly(handle, header_len, "header").decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistError("malformed blob header") from exc
    if not isinstance(header, dict):
        raise PersistError("blob header must be a JSON object")
    return kind, header


def read_blob(handle: BinaryIO) -> Tuple[str, Dict[str, Any], bytes]:
    """Read and verify one framed blob; returns (kind, header, payload).

    Raises :class:`PersistError` for foreign files, unsupported format
    versions, malformed headers, truncation and checksum mismatches --
    a blob either decodes exactly or not at all.
    """
    kind, header = read_header(handle)
    (crc,) = struct.unpack(">I", _exactly(handle, 4, "payload checksum"))
    (length,) = struct.unpack(">Q", _exactly(handle, 8, "payload length"))
    payload = _exactly(handle, length, "payload")
    if zlib.crc32(payload) != crc:
        raise PersistError(
            "payload checksum mismatch: file is corrupt"
        )
    return kind, header, payload


# -- relations ---------------------------------------------------------------


def _encode_rows(out: BinaryIO, relation: Relation) -> None:
    """Row-count varint followed by every row's tagged values -- the
    one row codec shared by the relation and database blob kinds."""
    _write_varint(out, len(relation.rows))
    for row in relation.rows:
        for value in row:
            write_value(out, value)


def _decode_rows(src: BinaryIO, arity: int) -> List[Tuple[object, ...]]:
    count = _read_varint(src)
    return [
        tuple(read_value(src) for _ in range(arity))
        for _ in range(count)
    ]


def _encode_relation(relation: Relation) -> bytes:
    out = io.BytesIO()
    _encode_rows(out, relation)
    return out.getvalue()


def _relation_header(relation: Relation) -> Dict[str, Any]:
    return {
        "name": relation.name,
        "attributes": list(relation.attributes),
        "rows": len(relation),
    }


def _decode_relation(header: Dict[str, Any], payload: bytes) -> Relation:
    try:
        name = header["name"]
        attributes = tuple(header["attributes"])
        count = header["rows"]
    except (KeyError, TypeError) as exc:
        raise PersistError(f"malformed relation header: {header!r}") from exc
    src = io.BytesIO(payload)
    rows = _decode_rows(src, len(attributes))
    if len(rows) != count:
        raise PersistError(
            f"relation {name!r}: header says {count} rows, "
            f"payload says {len(rows)}"
        )
    if src.read(1):
        raise PersistError(f"relation {name!r}: trailing bytes in payload")
    # Rows were saved in the Relation's sorted order; re-sorting via
    # from_rows also re-checks the invariant cheaply.
    return Relation.from_rows(name, attributes, rows)


# -- databases ---------------------------------------------------------------


def _encode_database(db: Database) -> Tuple[Dict[str, Any], bytes]:
    out = io.BytesIO()
    relations = list(db)
    _write_varint(out, len(relations))
    for relation in relations:
        _write_str(out, relation.name)
        _write_varint(out, len(relation.attributes))
        for attr in relation.attributes:
            _write_str(out, attr)
        _encode_rows(out, relation)
    header = {
        "relations": {
            relation.name: list(relation.attributes)
            for relation in relations
        },
        "order": [relation.name for relation in relations],
        "db_version": db.version,
        "total_rows": db.total_size,
    }
    return header, out.getvalue()


def _decode_database(header: Dict[str, Any], payload: bytes) -> Database:
    src = io.BytesIO(payload)
    count = _read_varint(src)
    db = Database()
    for _ in range(count):
        name = _read_str(src)
        arity = _read_varint(src)
        attributes = tuple(_read_str(src) for _ in range(arity))
        db.add(
            Relation.from_rows(name, attributes, _decode_rows(src, arity))
        )
    if src.read(1):
        raise PersistError("database payload has trailing bytes")
    expected = header.get("total_rows")
    if expected is not None and db.total_size != expected:
        raise PersistError(
            f"database rows do not match header: "
            f"{db.total_size} != {expected}"
        )
    version = header.get("db_version")
    if isinstance(version, int):
        # Restore the mutation counter so version-keyed derived state
        # (plan stores, statistics) stays valid across save/load.
        db._version = version
    return db


# -- f-trees -----------------------------------------------------------------


def _encode_node(out: BinaryIO, node: FNode) -> None:
    _write_varint(out, len(node.label))
    for attr in sorted(node.label):
        _write_str(out, attr)
    out.write(bytes((1 if node.constant else 0,)))
    _write_varint(out, len(node.children))
    for child in node.children:
        _encode_node(out, child)


def _decode_node(src: BinaryIO) -> FNode:
    width = _read_varint(src)
    if width == 0:
        raise PersistError("f-tree node with empty label")
    label = {_read_str(src) for _ in range(width)}
    raw = src.read(1)
    if not raw:
        raise PersistError("truncated f-tree node")
    constant = bool(raw[0])
    children = [_decode_node(src) for _ in range(_read_varint(src))]
    return FNode(label, children, constant)


def _encode_ftree(tree: FTree) -> bytes:
    out = io.BytesIO()
    _write_varint(out, len(tree.roots))
    for root in tree.roots:
        _encode_node(out, root)
    edges = sorted(tuple(sorted(edge)) for edge in tree.edges)
    _write_varint(out, len(edges))
    for edge in edges:
        _write_varint(out, len(edge))
        for attr in edge:
            _write_str(out, attr)
    return out.getvalue()


def _ftree_header(tree: FTree) -> Dict[str, Any]:
    return {
        "attributes": sorted(tree.attributes()),
        "edges": len(tree.edges.edges),
    }


def _decode_ftree_from(src: BinaryIO) -> FTree:
    roots = [_decode_node(src) for _ in range(_read_varint(src))]
    edges = []
    for _ in range(_read_varint(src)):
        width = _read_varint(src)
        edges.append({_read_str(src) for _ in range(width)})
    return FTree(roots, Hypergraph(edges))


def _decode_ftree(payload: bytes) -> FTree:
    src = io.BytesIO(payload)
    tree = _decode_ftree_from(src)
    if src.read(1):
        raise PersistError("f-tree payload has trailing bytes")
    return tree


# -- f-plans -----------------------------------------------------------------


def _encode_fplan(plan: FPlan) -> Tuple[Dict[str, Any], bytes]:
    out = io.BytesIO()
    tree_bytes = _encode_ftree(plan.input_tree)
    _write_varint(out, len(tree_bytes))
    out.write(tree_bytes)
    _write_varint(out, len(plan.steps))
    for step in plan.steps:
        _write_str(out, step.kind)
        _write_varint(out, len(step.args))
        for arg in step.args:
            _write_str(out, arg)
    header = {
        "steps": [step.kind for step in plan.steps],
        "attributes": sorted(plan.input_tree.attributes()),
    }
    return header, out.getvalue()


def _decode_fplan(payload: bytes) -> FPlan:
    src = io.BytesIO(payload)
    tree_len = _read_varint(src)
    tree_bytes = src.read(tree_len)
    if len(tree_bytes) != tree_len:
        raise PersistError("truncated f-plan input tree")
    tree = _decode_ftree(tree_bytes)
    steps = []
    for _ in range(_read_varint(src)):
        kind = _read_str(src)
        argc = _read_varint(src)
        steps.append(Step(kind, tuple(_read_str(src) for _ in range(argc))))
    if src.read(1):
        raise PersistError("f-plan payload has trailing bytes")
    try:
        # FPlan re-applies every step to rebuild the intermediate
        # trees, so an inconsistent step sequence fails here, loudly.
        return FPlan(tree, steps)
    except ValueError as exc:
        raise PersistError(f"invalid persisted f-plan: {exc}") from exc


# -- factorised relations (arena blobs) ---------------------------------------
#
# Columns are array('q') (exactly 8-byte signed on every CPython
# platform); the file format fixes little-endian so blobs are portable
# across hosts.

_BIG_ENDIAN = sys.byteorder == "big"


def _write_i64_column(out: BinaryIO, column: array) -> None:
    _write_varint(out, len(column))
    if _BIG_ENDIAN:  # pragma: no cover - little-endian dev machines
        column = array("q", column)
        column.byteswap()
    out.write(column.tobytes())


def _read_i64_column(src: BinaryIO) -> array:
    count = _read_varint(src)
    data = src.read(8 * count)
    if len(data) != 8 * count:
        raise PersistError("truncated arena column")
    column = array("q")
    column.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover
        column.byteswap()
    return column


class _BufferReader:
    """A minimal binary reader over a memoryview (e.g. an mmap).

    ``read`` copies (for the small varint/value pieces the tagged
    decoders consume); ``view`` hands out zero-copy slices for the
    bulk integer columns.
    """

    __slots__ = ("_view", "_pos")

    def __init__(self, view: memoryview) -> None:
        self._view = view
        self._pos = 0

    def read(self, n: int = -1) -> bytes:
        if n < 0:
            n = len(self._view) - self._pos
        data = bytes(self._view[self._pos : self._pos + n])
        self._pos += len(data)
        return data

    def view(self, n: int) -> memoryview:
        if self._pos + n > len(self._view):
            raise PersistError("truncated arena column")
        out = self._view[self._pos : self._pos + n]
        self._pos += n
        return out


def _read_i64_column_mapped(src: _BufferReader):
    """A column straight off a mapped buffer.

    With numpy the result is a zero-copy ``int64`` *view* into the
    mapping -- bytes are only paged in when a kernel touches them; the
    stdlib fallback copies into an ``array('q')`` (still one pass, no
    object decode).
    """
    count = _read_varint(src)
    raw = src.view(8 * count)
    if _np is not None and not _BIG_ENDIAN:
        return _np.frombuffer(raw, dtype="<i8")
    column = array("q")
    column.frombytes(raw)
    if _BIG_ENDIAN:  # pragma: no cover
        column.byteswap()
    return column


def _encode_arena(fr: FactorisedRelation) -> Tuple[Dict[str, Any], bytes]:
    out = io.BytesIO()
    tree_bytes = _encode_ftree(fr.tree)
    _write_varint(out, len(tree_bytes))
    out.write(tree_bytes)
    rep = fr.rep
    if rep is None:
        out.write(bytes((0,)))
        payload = out.getvalue()
        return (
            {
                "attributes": list(fr.attributes),
                "empty": True,
                "singletons": 0,
            },
            payload,
        )
    out.write(bytes((1,)))
    _write_varint(out, len(rep.pool))
    for value in rep.pool:
        write_value(out, value)
    skel = rep.skel
    _write_varint(out, len(skel))
    for i in range(len(skel)):
        _write_i64_column(out, rep.values[i])
        for j in range(len(skel.children[i])):
            _write_i64_column(out, rep.child_lo[i][j])
            _write_i64_column(out, rep.child_hi[i][j])
    header = {
        "attributes": list(fr.attributes),
        "empty": False,
        "singletons": rep.singleton_count(),
    }
    return header, out.getvalue()


def _decode_arena(payload: bytes) -> FactorisedRelation:
    return _decode_arena_from(io.BytesIO(payload), _read_i64_column)


def _decode_arena_mapped(view: memoryview) -> FactorisedRelation:
    return _decode_arena_from(_BufferReader(view), _read_i64_column_mapped)


def _decode_arena_from(src, read_column) -> FactorisedRelation:
    tree_len = _read_varint(src)
    tree_bytes = src.read(tree_len)
    if len(tree_bytes) != tree_len:
        raise PersistError("truncated arena-relation tree")
    tree = _decode_ftree(tree_bytes)
    flag = src.read(1)
    if not flag:
        raise PersistError("truncated arena payload")
    if flag[0] == 0:
        if src.read(1):
            raise PersistError("arena payload has trailing bytes")
        return FactorisedRelation(tree, None)
    pool = [read_value(src) for _ in range(_read_varint(src))]
    skel = arena_mod._skeleton_of(tree)
    node_count = _read_varint(src)
    if node_count != len(skel):
        raise PersistError(
            f"arena payload has {node_count} node columns for a "
            f"{len(skel)}-node f-tree"
        )
    values: List[array] = []
    child_lo: List[List[array]] = []
    child_hi: List[List[array]] = []
    for i in range(node_count):
        values.append(read_column(src))
        los: List[array] = []
        his: List[array] = []
        for _ in skel.children[i]:
            los.append(read_column(src))
            his.append(read_column(src))
        child_lo.append(los)
        child_hi.append(his)
    if src.read(1):
        raise PersistError("arena payload has trailing bytes")
    rep = ArenaRep(skel, values, child_lo, child_hi, pool)
    # Flat integer bounds scans only (vectorised under numpy): loading
    # stays ~O(bytes).  Value-order validation is available explicitly
    # via FactorisedRelation.validate().
    try:
        arena_mod.validate_arena_bounds(tree, rep)
    except ValueError as exc:
        raise PersistError(
            f"persisted arena violates its invariants: {exc}"
        ) from exc
    return FactorisedRelation(tree, rep)


# -- pooled arena payloads (the wire's shared value pool) --------------------
#
# A connection that streams many factorised results (per-shard
# parts, batch answers, repeated queries) re-ships the same interned
# values over and over in every ``arena`` blob.  The *pooled* payload
# form below amortises that: both ends keep one value pool per
# connection, each payload carries only the values first seen on this
# connection (a contiguous *delta* of pool ids), and the integer
# columns reference the connection pool by id.  Decoded arenas all
# share the receiver's pool object, so client-side recombination
# (``ops.union`` over shard parts) merges columns by id without
# re-interning -- the wire analogue of the worker-process shared pool.
#
# The payload is self-checking (trailing CRC32) but *stateful*: it can
# only be decoded by the peer pool that has seen every earlier delta
# on the same connection, in order.  It is therefore a wire-only form,
# never written to disk, and both sides fall back to plain ``arena``
# blobs when either end does not opt in.


def _write_i64_any(out: BinaryIO, column) -> None:
    """Write an int64 column that may be array('q'), ndarray or any
    int iterable (remapped columns)."""
    if _np is not None and isinstance(column, _np.ndarray):
        _write_varint(out, len(column))
        out.write(column.astype("<i8", copy=False).tobytes())
        return
    if not isinstance(column, array):
        column = array("q", column)
    _write_i64_column(out, column)


class ArenaPoolEncoder:
    """Sender side of one connection's shared wire pool.

    ``encode`` re-interns the result's private pool into the
    connection pool, remaps the value columns, and emits only the
    newly-appended pool values.  The watermark of shipped values moves
    in two phases -- ``encode`` marks it pending, ``commit`` publishes
    it once the frame carrying the payload actually reached the socket
    -- so a payload dropped before sending (oversized frame, encode
    error) is simply re-shipped by the next delta instead of leaving
    the peer with a hole in its pool.  Callers must serialise
    encode+send per connection (the server holds its per-connection
    write lock across both).
    """

    __slots__ = ("pool", "shipped", "_pending")

    def __init__(self) -> None:
        self.pool = arena_mod.ValuePool()
        self.shipped = 0
        self._pending: Optional[int] = None

    def commit(self) -> None:
        """Publish the watermark cut by the last ``encode``."""
        if self._pending is not None:
            self.shipped = self._pending
            self._pending = None

    def rollback(self) -> None:
        """Forget an un-sent delta (it will be re-shipped next time)."""
        self._pending = None

    def encode(self, fr: FactorisedRelation) -> bytes:
        out = io.BytesIO()
        tree_bytes = _encode_ftree(fr.tree)
        _write_varint(out, len(tree_bytes))
        out.write(tree_bytes)
        rep = fr.rep
        if rep is None:
            out.write(bytes((0,)))
        else:
            out.write(bytes((1,)))
            src_pool = rep.pool
            if src_pool is self.pool:
                vmap = None
            else:
                vmap = [self.pool.intern(value) for value in src_pool]
            base = (
                self.shipped if self._pending is None else self._pending
            )
            delta = self.pool.values_since(base)
            _write_varint(out, base)
            _write_varint(out, len(delta))
            for value in delta:
                write_value(out, value)
            self._pending = base + len(delta)
            if vmap is None:
                remap = lambda column: column  # noqa: E731
            elif _np is not None:
                vmap_arr = _np.asarray(vmap, dtype=_np.int64)
                remap = lambda column: vmap_arr[  # noqa: E731
                    arena_mod._as_np(column)
                ]
            else:
                remap = lambda column: array(  # noqa: E731
                    "q", (vmap[vid] for vid in column)
                )
            skel = rep.skel
            _write_varint(out, len(skel))
            for i in range(len(skel)):
                _write_i64_any(out, remap(rep.values[i]))
                for j in range(len(skel.children[i])):
                    _write_i64_any(out, rep.child_lo[i][j])
                    _write_i64_any(out, rep.child_hi[i][j])
        body = out.getvalue()
        return body + struct.pack(">I", zlib.crc32(body))


class ArenaPoolDecoder:
    """Receiver side of one connection's shared wire pool.

    Payloads must be decoded in the order they were encoded: each one
    states the pool size it expects (``base``) and appends its delta.
    Every decoded arena references the *same* growing value list, so
    results from one connection recombine by id.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[object] = []

    def decode(self, payload: bytes) -> FactorisedRelation:
        if len(payload) < 4:
            raise PersistError("truncated pooled arena payload")
        body = payload[:-4]
        (crc,) = struct.unpack(">I", payload[-4:])
        if zlib.crc32(body) != crc:
            raise PersistError("pooled arena payload failed its checksum")
        src = io.BytesIO(body)
        tree_len = _read_varint(src)
        tree_bytes = src.read(tree_len)
        if len(tree_bytes) != tree_len:
            raise PersistError("truncated pooled arena tree")
        tree = _decode_ftree(tree_bytes)
        flag = src.read(1)
        if not flag:
            raise PersistError("truncated pooled arena payload")
        if flag[0] == 0:
            if src.read(1):
                raise PersistError("pooled arena payload has trailing bytes")
            return FactorisedRelation(tree, None)
        base = _read_varint(src)
        if base != len(self.values):
            raise PersistError(
                f"pooled arena delta expects {base} already-shipped "
                f"values but this connection holds {len(self.values)} "
                f"(out-of-order or cross-connection payload)"
            )
        self.values.extend(
            read_value(src) for _ in range(_read_varint(src))
        )
        skel = arena_mod._skeleton_of(tree)
        node_count = _read_varint(src)
        if node_count != len(skel):
            raise PersistError(
                f"pooled arena payload has {node_count} node columns "
                f"for a {len(skel)}-node f-tree"
            )
        values: List[array] = []
        child_lo: List[List[array]] = []
        child_hi: List[List[array]] = []
        for i in range(node_count):
            values.append(_read_i64_column(src))
            los: List[array] = []
            his: List[array] = []
            for _ in skel.children[i]:
                los.append(_read_i64_column(src))
                his.append(_read_i64_column(src))
            child_lo.append(los)
            child_hi.append(his)
        if src.read(1):
            raise PersistError("pooled arena payload has trailing bytes")
        limit = len(self.values)
        for column in values:
            if not len(column):
                continue
            if _np is not None:
                arr = _np.frombuffer(column, dtype=_np.int64)
                bad = int(arr.max()) >= limit or int(arr.min()) < 0
            else:  # pragma: no cover - numpy-free fallback
                bad = max(column) >= limit or min(column) < 0
            if bad:
                raise PersistError(
                    "pooled arena value id outside the connection pool"
                )
        rep = ArenaRep(skel, values, child_lo, child_hi, self.values)
        try:
            arena_mod.validate_arena_bounds(tree, rep)
        except ValueError as exc:
            raise PersistError(
                f"pooled arena violates its invariants: {exc}"
            ) from exc
        return FactorisedRelation(tree, rep)


# -- sharded databases (per-shard files + manifest) --------------------------


def _save_sharded(db: ShardedDatabase, path: str) -> None:
    # Build the whole directory aside, then swap it in, so a crash
    # mid-save never tears an existing good copy (the directory-level
    # analogue of the flat path's temp-file + atomic rename).
    staging = path + f".tmp-{os.getpid()}"
    if os.path.isdir(staging):
        shutil.rmtree(staging)
    os.makedirs(staging)
    try:
        shard_files = []
        for index in range(db.shard_count):
            name = SHARD_PATTERN.format(index=index)
            header, payload = _encode_database(db.shard(index))
            with open(os.path.join(staging, name), "wb") as handle:
                write_blob(handle, "database", header, payload)
            shard_files.append(
                {"file": name, "crc": zlib.crc32(payload)}
            )
        manifest = {
            "shards": db.shard_count,
            "strategy": db.strategy,
            "db_version": db.version,
            "relations": {
                relation.name: list(relation.attributes)
                for relation in db
            },
            "order": [relation.name for relation in db],
            "total_rows": db.total_size,
            "shard_files": shard_files,
        }
        with open(
            os.path.join(staging, MANIFEST_NAME), "wb"
        ) as handle:
            write_blob(handle, "shard-manifest", manifest, b"")
        if os.path.isdir(path):
            # Directories cannot be renamed over each other: retire
            # the old copy first.  Worst case after a crash here is
            # the previous save surviving under the .old name.
            retired = path + f".old-{os.getpid()}"
            os.rename(path, retired)
            os.rename(staging, path)
            shutil.rmtree(retired)
        else:
            os.rename(staging, path)
    except BaseException:
        if os.path.isdir(staging):
            shutil.rmtree(staging)
        raise


def load_shard_manifest(path: str) -> Dict[str, Any]:
    """The manifest dict of a sharded-database directory.

    Cheap (no shard file is opened): cluster tooling derives shard
    counts and per-shard file names from it without loading data.
    Errors name the manifest, so a truncated or garbled
    ``manifest.fdbp`` is diagnosable from the message alone.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise PersistError(
            f"{path!r} is not a sharded database: no {MANIFEST_NAME}"
        )
    try:
        with open(manifest_path, "rb") as handle:
            kind, manifest, _ = read_blob(handle)
    except PersistError as exc:
        raise PersistError(
            f"unreadable manifest {MANIFEST_NAME!r} in {path!r}: {exc}"
        ) from exc
    if kind != "shard-manifest":
        raise PersistError(
            f"expected a shard-manifest blob, found {kind!r}"
        )
    return manifest


def _load_sharded(path: str) -> ShardedDatabase:
    manifest = load_shard_manifest(path)
    try:
        shards = int(manifest["shards"])
        strategy = manifest["strategy"]
        order = list(manifest["order"])
        shard_files = manifest["shard_files"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"malformed manifest: {manifest!r}") from exc
    if len(shard_files) != shards:
        raise PersistError(
            f"manifest names {len(shard_files)} shard files "
            f"for {shards} shards"
        )
    parts: List[Database] = []
    for entry in shard_files:
        shard_path = os.path.join(path, entry["file"])
        if not os.path.exists(shard_path):
            raise PersistError(f"missing shard file {entry['file']!r}")
        try:
            with open(shard_path, "rb") as handle:
                kind, header, payload = read_blob(handle)
        except PersistError as exc:
            raise PersistError(
                f"unreadable shard file {entry['file']!r}: {exc}"
            ) from exc
        if kind != "database":
            raise PersistError(
                f"shard file {entry['file']!r} holds {kind!r}, "
                f"not a database"
            )
        if zlib.crc32(payload) != entry.get("crc"):
            raise PersistError(
                f"shard file {entry['file']!r} does not match the "
                f"manifest checksum"
            )
        parts.append(_decode_database(header, payload))
    # Merge the partitions back into whole relations, in the saved
    # catalogue order, then re-shard: partitioning is deterministic
    # (content-addressed hash / sorted-order round-robin), so the
    # rebuilt partitions must equal the loaded ones -- checked below.
    merged: Dict[str, Relation] = {}
    try:
        for name in order:
            rows: List[Tuple[object, ...]] = []
            attributes: Optional[Tuple[str, ...]] = None
            for part in parts:
                if name in part:
                    attributes = part[name].attributes
                    rows.extend(part[name].rows)
            if attributes is None:
                raise PersistError(
                    f"relation {name!r} appears in no shard file"
                )
            merged[name] = Relation.from_rows(name, attributes, rows)
        db = ShardedDatabase(
            shards=shards,
            strategy=strategy,
            relations=[merged[name] for name in order],
        )
    except PersistError:
        raise
    except ValueError as exc:
        # ShardingError / SchemaError from a manifest that framed
        # correctly but describes an impossible database.
        raise PersistError(f"malformed sharded database: {exc}") from exc
    for index, part in enumerate(parts):
        for name in order:
            rebuilt = db.shard(index)[name]
            if name not in part or rebuilt.rows != part[name].rows:
                raise PersistError(
                    f"shard {index} partition of {name!r} does not "
                    f"reproduce the saved partition (corrupt shard "
                    f"file or strategy drift)"
                )
    version = manifest.get("db_version")
    if isinstance(version, int):
        db._version = version
    expected = manifest.get("total_rows")
    if expected is not None and db.total_size != expected:
        raise PersistError(
            f"sharded database rows do not match manifest: "
            f"{db.total_size} != {expected}"
        )
    return db


# -- public single-object API ------------------------------------------------


def encode(obj: object) -> Tuple[str, Dict[str, Any], bytes]:
    """Encode a supported object to (kind, header, payload)."""
    if isinstance(obj, ShardedDatabase):
        raise PersistError(
            "a ShardedDatabase persists as a directory; use save(obj, "
            "path) with a directory path"
        )
    if isinstance(obj, Relation):
        return "relation", _relation_header(obj), _encode_relation(obj)
    if isinstance(obj, Database):
        header, payload = _encode_database(obj)
        return "database", header, payload
    if isinstance(obj, FTree):
        return "ftree", _ftree_header(obj), _encode_ftree(obj)
    if isinstance(obj, FPlan):
        header, payload = _encode_fplan(obj)
        return "fplan", header, payload
    if isinstance(obj, FactorisedRelation):
        header, payload = _encode_arena(obj)
        return "arena", header, payload
    raise PersistError(
        f"cannot persist objects of type {type(obj).__name__}"
    )


def decode(kind: str, header: Dict[str, Any], payload: bytes) -> object:
    """Decode a blob back to its object (inverse of :func:`encode`)."""
    try:
        if kind == "relation":
            return _decode_relation(header, payload)
        if kind == "database":
            return _decode_database(header, payload)
        if kind == "ftree":
            return _decode_ftree(payload)
        if kind == "fplan":
            return _decode_fplan(payload)
        if kind == "arena":
            return _decode_arena(payload)
    except PersistError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise PersistError(f"malformed {kind} blob: {exc}") from exc
    raise PersistError(f"cannot decode blobs of kind {kind!r}")


def save(obj: object, path: str) -> None:
    """Persist ``obj`` to ``path``.

    A :class:`~repro.storage.sharded.ShardedDatabase` becomes a
    *directory* (per-shard database files plus a manifest); everything
    else becomes a single blob file.  Writes go through a temporary
    file and an atomic rename, so readers never observe half a blob.
    """
    if isinstance(obj, ShardedDatabase):
        _save_sharded(obj, path)
        return
    kind, header, payload = encode(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".fdbp.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_blob(handle, kind, header, payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str, mmap: bool = False) -> object:
    """Load whatever :func:`save` put at ``path``.

    Dispatches on the blob's self-described kind (directories load as
    sharded databases); raises :class:`PersistError` for anything
    unreadable, truncated, corrupt or version-incompatible.

    ``mmap=True`` memory-maps ``arena`` blobs instead of reading them:
    the integer columns become zero-copy views into the mapping (numpy
    ``int64`` views when numpy is available, ``array('q')`` copies
    otherwise), so opening a large persisted result costs ~O(page
    faults) of the bytes actually touched rather than a full read.
    Trade-off: the payload CRC is **not** verified up front (that
    would page the whole file in); the structural bounds check still
    runs, and framing/truncation errors are detected as usual.  Kinds
    other than ``arena`` -- including sharded-database directories,
    whose row payloads must be decoded value by value regardless --
    fall back to the ordinary checksummed read.
    """
    if os.path.isdir(path):
        return _load_sharded(path)
    if mmap:
        return _load_mapped(path)
    try:
        with open(path, "rb") as handle:
            kind, header, payload = read_blob(handle)
    except OSError as exc:
        raise PersistError(f"cannot read {path!r}: {exc}") from exc
    return decode(kind, header, payload)


def _load_mapped(path: str) -> object:
    """The ``mmap=True`` path of :func:`load` (files only)."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise PersistError(f"cannot read {path!r}: {exc}") from exc
    with handle:
        kind, header = read_header(handle)
        if kind != "arena":
            handle.seek(0)
            kind, header, payload = read_blob(handle)
            return decode(kind, header, payload)
        _exactly(handle, 4, "payload checksum")  # deliberately unused
        (length,) = struct.unpack(">Q", _exactly(handle, 8, "payload length"))
        offset = handle.tell()
        try:
            mapping = mmap_module.mmap(
                handle.fileno(), 0, access=mmap_module.ACCESS_READ
            )
        except (OSError, ValueError) as exc:
            raise PersistError(f"cannot mmap {path!r}: {exc}") from exc
    if offset + length > len(mapping):
        raise PersistError("truncated file: short payload")
    if offset + length < len(mapping):
        raise PersistError("arena file has trailing bytes")
    view = memoryview(mapping)[offset:]
    # The mapping stays alive exactly as long as the column views do
    # (each numpy view references the memoryview, which references the
    # mmap object); nothing to close explicitly.
    try:
        return _decode_arena_mapped(view)
    except PersistError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise PersistError(f"malformed arena blob: {exc}") from exc


def inspect(path: str) -> Dict[str, Any]:
    """The kind and header of a persisted file.

    Reads only the preamble (:func:`read_header`): the payload is
    neither read nor checksummed, so inspecting an arbitrarily large
    file costs a few hundred bytes of I/O.
    """
    target = (
        os.path.join(path, MANIFEST_NAME)
        if os.path.isdir(path)
        else path
    )
    try:
        with open(target, "rb") as handle:
            kind, header = read_header(handle)
    except OSError as exc:
        raise PersistError(f"cannot read {path!r}: {exc}") from exc
    return {"kind": kind, **header}
