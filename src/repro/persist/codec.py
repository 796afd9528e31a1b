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
flat CSV equivalent).  An arena (:mod:`repro.core.arena`) has one byte
layout, written by :class:`ArenaPoolEncoder` and read by
:class:`ArenaPoolDecoder`: the values first seen against a value pool,
tag-encoded, then the per-node integer columns as raw little-endian
int64 byte runs that reference the pool by id, one offsets column per
child slot.  The network tier sends
it against a per-connection pool (payload kind ``fdbp-pool``); a saved
result -- blob kind ``offset-arena`` -- is the same body cut by a fresh
encoder against an empty pool, so its ids are the identity.  Loading is
therefore ~O(bytes) -- columns are viewed in the bytes read, not
copied, then one vectorised bounds scan and one value-order pass over
the entries.  Kinds earlier builds wrote are listed in
:data:`RETIRED_KINDS`; reading one raises :class:`PersistError`
telling the caller to re-evaluate and re-save.

Every length-prefixed field is read through one bounded read, so a
hostile length allocates no more than the input holds and is a
:class:`PersistError` like any truncation.
"""

from __future__ import annotations

import functools
import io
import json
import os
import shutil
import struct
import tempfile
import weakref
import zlib
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro.cache import LRUCache
from repro.core import arena as arena_mod
from repro.core.arena import ArenaRep
from repro.core.columns import _from_le_bytes, _le_bytes, _take, _vector
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FNode, FTree, FTreeError
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
    "offset-arena",
    "plan-entry",
    "shard-manifest",
)

#: Kinds earlier builds wrote and this one refuses by name: kind ->
#: what such a blob holds.
RETIRED_KINDS = {
    "factorised": "an object-encoded factorised result",
    "arena": "a factorised result in the pre-pool column layout",
    "pooled-arena": (
        "a factorised result whose child ranges are (child_lo, "
        "child_hi) column pairs"
    ),
}

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

#: The most one read of a length-prefixed field asks for at once
#: (see :func:`_exactly`).
_READ_CHUNK = 1 << 20


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
    """Unsigned LEB128, minimal only: :func:`_write_varint` never ends
    a varint in a zero byte after the first, so such bytes are not
    read as a second spelling of a smaller number."""
    result = 0
    shift = 0
    while True:
        raw = src.read(1)
        if not raw:
            raise PersistError("truncated varint in payload")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift and not byte:
                raise PersistError("non-canonical (over-long) varint")
            return result
        shift += 7
        if shift > 70:
            raise PersistError("varint overflow in payload")


def _exactly(src: BinaryIO, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes of ``src``: the one read behind every
    length-prefixed field.

    A length is read from the input, so it may be forged: a buffered
    file's ``read(n)`` allocates ``n`` bytes before it reads any, and
    ``read`` raises ``OverflowError`` past ``sys.maxsize``.  Reading in
    chunks of at most :data:`_READ_CHUNK` bytes allocates no more than
    the input holds, and a length it does not hold is refused like any
    short read."""
    data = src.read(n if n < _READ_CHUNK else _READ_CHUNK)
    if len(data) == n:
        return data
    chunks = [data]
    left = n - len(data)
    while data and left:
        data = src.read(left if left < _READ_CHUNK else _READ_CHUNK)
        chunks.append(data)
        left -= len(data)
    if left:
        raise PersistError(f"truncated input: short {what}")
    return b"".join(chunks)


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
    """Decode one tagged value, spelled as :func:`write_value` spells
    it: an integer inside int64 never takes the big-int escape, and a
    big integer's digits are ``str(value)``'s."""
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
        zigzag = _read_varint(src)
        if zigzag >> 64:
            raise PersistError("integer varint beyond int64 in payload")
        return _unzigzag(zigzag)
    if tag == _TAG_FLOAT:
        data = src.read(8)
        if len(data) != 8:
            raise PersistError("truncated float in payload")
        return struct.unpack(">d", data)[0]
    if tag == _TAG_STR:
        return _read_str(src)
    if tag == _TAG_BIGINT:
        data = _exactly(src, _read_varint(src), "big integer")
        try:
            text = data.decode("ascii")
            value = int(text)
        except ValueError as exc:
            raise PersistError(f"malformed big integer {data!r}") from exc
        if _INT64_MIN <= value <= _INT64_MAX or str(value) != text:
            raise PersistError(f"non-canonical big integer {data!r}")
        return value
    raise PersistError(f"unknown value tag {tag}")


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    _write_varint(out, len(data))
    out.write(data)


def _read_str(src: BinaryIO) -> str:
    data = _exactly(src, _read_varint(src), "string")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PersistError(f"malformed string in payload: {exc}") from exc


# -- blob container ----------------------------------------------------------


def _check_kind(kind: str) -> None:
    """Refuse a kind this build neither reads nor writes, naming a
    retired one and what to do about it."""
    if kind in RETIRED_KINDS:
        raise PersistError(
            f"blob kind {kind!r} is retired: it holds "
            f"{RETIRED_KINDS[kind]}, which this build no longer reads; "
            f"re-evaluate the query and save the result again (it is "
            f"then written as an 'offset-arena' blob)"
        )
    if kind not in KINDS:
        raise PersistError(f"unknown blob kind {kind!r}")


def write_blob(
    handle: BinaryIO, kind: str, header: Dict[str, Any], payload: bytes
) -> None:
    """Write one framed blob: magic, version, kind, header, payload."""
    _check_kind(kind)
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
    _check_kind(kind)
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


def _encode_rows(out: BinaryIO, rows: List[Tuple[object, ...]]) -> None:
    """Row-count varint followed by every row's tagged values -- the
    one row codec, shared by the relation and database blob kinds and
    the wire's row payloads."""
    _write_varint(out, len(rows))
    for row in rows:
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
    _encode_rows(out, relation.rows)
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
        _encode_rows(out, relation.rows)
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


def _decode_ftree(payload: bytes) -> FTree:
    """The f-tree ``payload`` encodes.  Only the canonical encoding is
    read: bytes that would not re-encode to themselves (unsorted or
    repeated attributes, nodes or edges, a constant flag other than
    0/1, an over-long varint) raise :class:`PersistError`."""
    src = io.BytesIO(payload)
    roots = [_decode_node(src) for _ in range(_read_varint(src))]
    edges = []
    for _ in range(_read_varint(src)):
        width = _read_varint(src)
        edges.append({_read_str(src) for _ in range(width)})
    if src.read(1):
        raise PersistError("f-tree payload has trailing bytes")
    try:
        tree = FTree(roots, Hypergraph(edges))
    except FTreeError as exc:
        raise PersistError(f"invalid persisted f-tree: {exc}") from exc
    if _encode_ftree(tree) != payload:
        raise PersistError("non-canonical f-tree payload")
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
    """The f-plan ``payload`` encodes; like :func:`_decode_ftree`, only
    its canonical encoding is read."""
    src = io.BytesIO(payload)
    tree = _decode_ftree(
        _exactly(src, _read_varint(src), "f-plan input tree")
    )
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
        plan = FPlan(tree, steps)
    except ValueError as exc:
        raise PersistError(f"invalid persisted f-plan: {exc}") from exc
    if _encode_fplan(plan)[1] != payload:
        raise PersistError("non-canonical f-plan payload")
    return plan


# -- factorised relations: the one arena layout ------------------------------
#
# One *body* encodes an ArenaRep against a value pool the reader holds
# the first ``base`` values of::
#
#     body    := varint tree length | f-tree | u8 flag (0 = empty)
#                [ varint base | varint n | n tagged values | columns ]
#     columns := varint node count, then per node (pre-order) its value
#                column and one offsets column per child slot (entry
#                count + 1 offsets, 0 first, the child column's length
#                last: entry e's child union is [off[e], off[e+1]))
#     column  := varint entry count | entries as little-endian int64
#
# Both ends keep the pool: the encoder interns the result's values into
# it, the body carries only the values appended since ``base`` (the
# *delta*), and the value columns reference the pool by id.
#
# - On the wire (payload kind ``fdbp-pool``) the pool is the
#   connection's, so a stream of results (shard parts, batch answers,
#   repeated queries) ships each value once, and every decoded arena
#   shares the receiver's pool -- ``ops.union`` over shard parts merges
#   columns by id without re-interning.  A payload is the body plus a
#   CRC32 of it, and only the peer that has seen every earlier delta,
#   in order, can decode it.
# - On disk (blob kind ``offset-arena``) the body is cut by a fresh
#   encoder against an empty pool: base 0, the whole pool as the delta,
#   ids the identity.  The blob frame carries the CRC.
#
# Columns are read-only int64 ndarrays; on the wire and on disk they
# are always little-endian, so the bytes are portable across hosts.  A
# decoded column is a view of the bytes read, not a copy.


def _write_i64_column(out: BinaryIO, column) -> None:
    _write_varint(out, len(column))
    out.write(_le_bytes(column))


def _read_i64_column(src: BinaryIO):
    """A column viewed in place in the bytes it was read as."""
    return _from_le_bytes(
        _exactly(src, 8 * _read_varint(src), "arena column")
    )


class _Sent:
    """What an encoder keeps of one result it has encoded: the body's
    fixed parts, ready to be written again."""

    __slots__ = ("ref", "head", "seen", "columns")

    def __init__(self, ref, head: bytes, seen: int, columns) -> None:
        #: Weak reference to the result (its callback drops this entry).
        self.ref = ref
        #: Tree section plus the empty/non-empty flag byte.
        self.head = head
        #: How many of the result's own pool values are interned into
        #: the encoder's pool (a shared pool may grow afterwards).
        self.seen = seen
        #: Node count, remapped value columns and offsets; ``None``
        #: for the empty relation.
        self.columns: Optional[bytes] = columns


def _forget(encoder_ref, key: int, ref) -> None:
    """Weakref callback: a result died, so drop its memo entry (the
    callback runs before the result's id can be handed out again)."""
    encoder = encoder_ref()
    if encoder is not None:
        encoder._sent.pop(key, None)


class ArenaPoolEncoder:
    """The one arena writer: the sender side of a value pool.

    ``body`` re-interns the result's private pool into this pool,
    remaps the value columns, and emits only the newly-appended pool
    values; ``encode`` adds the wire payload's CRC.  A server keeps one
    encoder per connection; ``save`` uses a fresh one per result.  The
    watermark of shipped values moves in two phases -- ``encode`` marks
    it pending, ``commit`` publishes it once the frame carrying the
    payload actually reached the socket -- so a payload dropped before
    sending (oversized frame, encode error) is simply re-shipped by the
    next delta instead of leaving the peer with a hole in its pool.
    Callers must serialise encode+send per connection (the server holds
    its per-connection write lock across both).

    A result sent again on the same connection costs only its pool
    delta and the CRC.  The first ``encode`` of a result keeps its tree
    section and its *column section* -- the value columns already
    remapped to connection-pool ids, plus the offsets -- keyed by
    the result's identity; a weakref callback drops the entry when the
    result dies, so the memo holds the column bytes of live results
    only.  Re-using the column section is sound because the connection
    pool never remaps or removes an id, and because nothing writes into
    an arena once it is constructed: operators build new columns (or
    share old ones read-only) and ``ivm.apply_deltas`` replaces
    ``entry.result`` with a new relation instead of touching the old
    one.  Values a shared result pool gained since the last send are
    interned first, in pool order, so the bytes equal a fresh
    encode's; ``rollback`` only rewinds the watermark, so the next
    payload re-ships the delta either way.  ``reuses`` counts the
    payloads whose column section came from the memo.
    """

    __slots__ = (
        "pool", "shipped", "reuses", "_pending", "_sent", "__weakref__"
    )

    def __init__(self) -> None:
        self.pool = arena_mod.ValuePool()
        self.shipped = 0
        self.reuses = 0
        self._pending: Optional[int] = None
        self._sent: Dict[int, _Sent] = {}

    def commit(self) -> None:
        """Publish the watermark cut by the last ``encode``."""
        if self._pending is not None:
            self.shipped = self._pending
            self._pending = None

    def rollback(self) -> None:
        """Forget an un-sent delta (it will be re-shipped next time)."""
        self._pending = None

    def encode(self, fr: FactorisedRelation) -> bytes:
        """``fr``'s wire payload: its body plus a CRC32 of the body."""
        body = self.body(fr)
        return body + struct.pack(">I", zlib.crc32(body))

    def body(self, fr: FactorisedRelation) -> bytes:
        """``fr``'s body against this pool (the layout above)."""
        sent = self._sent.get(id(fr))
        if sent is None or sent.ref() is not fr:
            sent = self._remember(fr)
        elif sent.columns is not None:
            self.reuses += 1
            src_pool = fr.rep.pool
            if src_pool is not self.pool and len(src_pool) > sent.seen:
                fresh = src_pool[sent.seen :]
                for value in fresh:
                    self.pool.intern(value)
                sent.seen += len(fresh)
        if sent.columns is None:
            return sent.head
        base = self.shipped if self._pending is None else self._pending
        delta = self.pool.values_since(base)
        out = io.BytesIO()
        out.write(sent.head)
        _write_varint(out, base)
        _write_varint(out, len(delta))
        for value in delta:
            write_value(out, value)
        out.write(sent.columns)
        self._pending = base + len(delta)
        return out.getvalue()

    def _remember(self, fr: FactorisedRelation) -> _Sent:
        """Encode ``fr``'s fixed sections once and keep them."""
        out = io.BytesIO()
        tree_bytes = _encode_ftree(fr.tree)
        _write_varint(out, len(tree_bytes))
        out.write(tree_bytes)
        rep = None if fr.rep is None else fr.rep.dense()
        out.write(bytes((0 if rep is None else 1,)))
        head = out.getvalue()
        seen = 0
        columns = None
        if rep is not None:
            vmap = None
            if rep.pool is not self.pool:
                vmap = _vector(map(self.pool.intern, rep.pool))
                seen = len(vmap)
            out = io.BytesIO()
            skel = rep.skel
            _write_varint(out, len(skel))
            for i in range(len(skel)):
                column = rep.values[i]
                if vmap is not None:
                    column = _take(vmap, column)
                _write_i64_column(out, column)
                for off in rep.offsets[i]:
                    _write_i64_column(out, off)
            columns = out.getvalue()
        key = id(fr)
        forget = functools.partial(_forget, weakref.ref(self), key)
        ref = weakref.ref(fr, forget)
        sent = self._sent[key] = _Sent(ref, head, seen, columns)
        return sent


#: Distinct f-tree sections an :class:`ArenaPoolDecoder` keeps decoded
#: (least recently used out).
TREE_MEMO_SIZE = 256


class ArenaPoolDecoder:
    """The one arena reader: the receiver side of a value pool.

    Bodies must be read in the order they were cut: each one states
    the pool size it expects (``base``) and appends its delta.  Every
    decoded arena references the *same* growing value list, so results
    from one connection recombine by id.  A body that fails to decode
    leaves the pool as it was.

    Tree sections are decoded once per connection: equal bytes map to
    one shared (immutable) :class:`FTree`, whose skeleton is therefore
    built once too.

    Only the canonical body -- the bytes an :class:`ArenaPoolEncoder`
    writes -- is read, so a body that decodes re-encodes to itself: the
    tree section must be canonical, the flag 0 or 1, every varint and
    value minimally spelled, and no pool value may arrive twice (a
    sender's pool interns, per type, as :class:`~repro.core.arena.
    ValuePool` does; ``_seen`` holds the values this pool has, per
    type).
    """

    __slots__ = ("values", "_seen", "_trees")

    def __init__(self) -> None:
        self.values: List[object] = []
        self._seen: Dict[type, set] = {}
        self._trees = LRUCache(TREE_MEMO_SIZE)

    def _tree(self, tree_bytes: bytes) -> FTree:
        tree = self._trees.get(tree_bytes)
        if tree is None:
            tree = _decode_ftree(tree_bytes)
            self._trees.put(tree_bytes, tree)
        return tree

    def decode(self, payload: bytes) -> FactorisedRelation:
        """One wire payload: its CRC checked, then its body read."""
        if len(payload) < 4:
            raise PersistError("truncated pooled arena payload")
        body = payload[:-4]
        (crc,) = struct.unpack(">I", payload[-4:])
        if zlib.crc32(body) != crc:
            raise PersistError("pooled arena payload failed its checksum")
        return self.read(io.BytesIO(body))

    def read(self, src: BinaryIO) -> FactorisedRelation:
        """One body, to the end of ``src``."""
        tree = self._tree(_exactly(src, _read_varint(src), "arena tree"))
        flag = src.read(1)
        if not flag:
            raise PersistError("truncated input: short arena flag")
        if flag[0] > 1:
            raise PersistError(f"arena flag {flag[0]} is neither 0 nor 1")
        if flag[0] == 0:
            if src.read(1):
                raise PersistError("arena payload has trailing bytes")
            return FactorisedRelation(tree, None)
        base = _read_varint(src)
        if base != len(self.values):
            raise PersistError(
                f"pooled arena delta expects {base} already-shipped "
                f"values but this connection holds {len(self.values)} "
                f"(out-of-order or cross-connection payload)"
            )
        seen, values = self._seen, self.values
        try:
            for _ in range(_read_varint(src)):
                value = read_value(src)
                kind = seen.get(value.__class__)
                if kind is None:
                    kind = seen[value.__class__] = set()
                elif value in kind:
                    raise PersistError(f"pool value {value!r} shipped twice")
                kind.add(value)
                values.append(value)
            rep = self._columns(src, tree)
        except BaseException:
            for value in values[base:]:
                seen[value.__class__].discard(value)
            del values[base:]
            raise
        return FactorisedRelation(tree, rep)

    def _columns(self, src, tree: FTree) -> ArenaRep:
        """The column section, validated against the pool."""
        skel = arena_mod._skeleton_of(tree)
        node_count = _read_varint(src)
        if node_count != len(skel):
            raise PersistError(
                f"arena payload has {node_count} node columns "
                f"for a {len(skel)}-node f-tree"
            )
        values: List[object] = []
        offsets: List[List[object]] = []
        for kids in skel.children:
            values.append(_read_i64_column(src))
            offsets.append([_read_i64_column(src) for _ in kids])
        if src.read(1):
            raise PersistError("arena payload has trailing bytes")
        rep = ArenaRep(skel, values, offsets, self.values)
        try:
            # Flat, vectorised integer scans, so decoding stays
            # ~O(bytes); also the check that every value id is inside
            # the pool.
            arena_mod.validate_arena_bounds(tree, rep)
        except ValueError as exc:
            raise PersistError(
                f"arena payload violates its invariants: {exc}"
            ) from exc
        return rep


def _read_saved(src) -> FactorisedRelation:
    """A saved result: one body against an empty pool, checked whole.

    A file may have been rewritten under a fresh checksum, so beyond
    the reader's bounds scan it must pass
    ``FactorisedRelation.validate()`` -- the path constraint and the
    value order, whose ``<`` raises ``TypeError`` on values that do not
    compare.
    """
    fr = ArenaPoolDecoder().read(src)
    try:
        return fr.validate()
    except (ValueError, TypeError) as exc:
        raise PersistError(
            f"saved arena violates its invariants: {exc}"
        ) from exc


def _arena_header(fr: FactorisedRelation) -> Dict[str, Any]:
    return {
        "attributes": list(fr.attributes),
        "empty": fr.rep is None,
        "singletons": 0 if fr.rep is None else fr.rep.singleton_count(),
    }


# -- sharded databases (per-shard files + manifest) --------------------------


def _fsync(path: str) -> None:
    """Flush ``path`` -- a file, or a directory's entries -- to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _save_sharded(db: ShardedDatabase, path: str) -> None:
    # Build the whole directory aside, then swap it in, so a crash
    # mid-save never tears an existing good copy (the directory-level
    # analogue of the flat path's temp-file + atomic rename).  Every
    # file and the staging directory are fsynced before the swap, the
    # parent directory after it.
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
        for name in [*os.listdir(staging), os.curdir]:  # files, then dir
            _fsync(os.path.join(staging, name))
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
        _fsync(os.path.dirname(os.path.abspath(path)))
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
        body = ArenaPoolEncoder().body(obj)
        return "offset-arena", _arena_header(obj), body
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
        if kind == "offset-arena":
            return _read_saved(io.BytesIO(payload))
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
    file and an atomic rename, so readers never observe half a blob;
    the file is fsynced before the rename and its directory after it,
    so a save that returned survives a crash.
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
            handle.flush()
            os.fsync(fd)
        os.replace(tmp, path)
        _fsync(directory)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str) -> object:
    """Load whatever :func:`save` put at ``path``.

    Dispatches on the blob's self-described kind (directories load as
    sharded databases); raises :class:`PersistError` for anything
    unreadable, truncated, corrupt or version-incompatible.
    """
    if os.path.isdir(path):
        return _load_sharded(path)
    try:
        with open(path, "rb") as handle:
            kind, header, payload = read_blob(handle)
    except OSError as exc:
        raise PersistError(f"cannot read {path!r}: {exc}") from exc
    return decode(kind, header, payload)


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
