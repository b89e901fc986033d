"""Zero-copy typed-buffer interchange: the cluster's batch wire codec.

Everything that moves between nodes in bulk — replication catch-up
batches, ``cols`` telemetry ops, streaming-accumulator snapshots — is
encoded here as a length+CRC framed binary batch, reusing the WAL's
framing discipline (:mod:`repro.persistence.wal`):

.. code-block:: text

    +-------------------+-------------------+------------------+
    | payload length    | CRC32(payload)    | payload bytes    |
    | 4 bytes, uint32   | 4 bytes, uint32   | `length` bytes   |
    +-------------------+-------------------+------------------+

Inside a payload, values are a one-byte tag plus a body.  Homogeneous
numeric columns — the typed spine buffers PR 9 promoted
(``array('q'/'d')``), KMV sketch members, id/tick/count vectors — travel
as **raw little-endian buffers**: encode is one ``array.tobytes``,
decode is one ``array.frombytes`` straight off a ``memoryview`` slice
(no per-element boxing, no intermediate copies; ``decode_column_view``
additionally hands back a zero-copy ``np.frombuffer`` view when numpy
is importable and ``REPRO_NO_NUMPY=1`` is not set).  Everything
irregular — op dicts, string tables, ragged rows — falls back to the
WAL's tagged-JSON codec (the C ``json`` encoder), so every value
round-trips bit-identically; the hypothesis suite
(``tests/persistence/test_interchange_codec.py``) pins
``decode(encode(x)) == x`` over the full op-kind space including
NaN/±inf floats, int64 boundary values, empty columns and ragged rows.

Tag lanes:

====== ======================= ===========================================
tag    body                    decodes to
====== ======================= ===========================================
JSON   u32 len + tagged JSON   whatever the WAL codec round-trips
I64COL u32 n + n×8 LE bytes    ``array('q')``
F64COL u32 n + n×8 LE bytes    ``array('d')``  (NaN/±inf bit-exact)
U64COL u32 n + n×8 LE bytes    ``array('Q')``  (sketch hash members)
ILIST  u32 n + n×8 LE bytes    ``list[int]``   (all fit int64)
FLIST  u32 n + n×8 LE bytes    ``list[float]``
LIST   u32 n + n values        ``list`` (used when items carry buffers)
TUPLE  u32 n + n values        ``tuple``
INT    8 LE bytes              ``int`` scalar within int64
FLOAT  8 LE bytes              ``float`` scalar (bit-exact)
STR    u32 len + UTF-8 bytes   ``str`` (surrogatepass: lone surrogates ok)
NONE   —                       ``None``
META   u32 len + JSON state    :class:`~repro.dq.metadata.DQMetadataRecord`
ROWS   columnar compact op     the WAL ``rows`` op dict (ids/ticks as
                               i64 buffers, per-field value columns)
====== ======================= ===========================================

Fidelity caveats (all semantically invisible to the accumulator /
replay protocols, and excluded from :func:`accumulator_fingerprint`):
a decoded :class:`~repro.dq.streaming.FieldAccumulator` drops the
``_hash_memo`` cache, its KMV heap is re-heapified (internal array
order is not observable), and count-table *insertion order* after a
lane split follows int-lane-then-residue order.

The batched catch-up is gated: ``REPRO_NO_INTERCHANGE=1`` turns it
back to the exact per-op replay, and ``forced_interchange(bool)`` flips
the gate for paired equivalence drills — same-seed chaos and topology
storms must be byte-identical either way.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
import sys
import zlib
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Optional, Sequence

from repro.dq.metadata import DQMetadataRecord
from repro.dq.streaming import (
    EntityAccumulator,
    FieldAccumulator,
    KMVSketch,
)
from repro.persistence.wal import (
    _pack,
    _plain,
    decode_payload,
    encode_payload,
)

#: Tagged JSON **without** key sorting — for payloads whose dict
#: insertion order is observable on the absorb side (telemetry row data
#: drives the accumulator's field discovery order).  ``decode_payload``
#: inverts both: ``json.loads`` preserves document order.
_ORDERED_ENCODER = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False
)


def _encode_ordered(obj) -> bytes:
    return _ORDERED_ENCODER.encode(
        obj if _plain(obj) else _pack(obj)
    ).encode("utf-8")

#: Environment gate: set to ``1`` to force every interchange consumer
#: back onto the exact per-op / per-reading legacy paths.
NO_INTERCHANGE_ENV = "REPRO_NO_INTERCHANGE"

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
_BIG_ENDIAN = sys.byteorder == "big"

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class InterchangeError(RuntimeError):
    """Base class for interchange codec failures."""


class CorruptFrame(InterchangeError):
    """A frame failed its length or CRC check."""


# -- the gate ---------------------------------------------------------------

_active = os.environ.get(NO_INTERCHANGE_ENV, "") in ("", "0")


def interchange_active() -> bool:
    """Is the encoded batch path on (env gate + any forced override)?"""
    return _active


@contextmanager
def forced_interchange(on: bool):
    """Force the interchange gate for the duration of a ``with`` block —
    the paired-equivalence hook (batched vs per-op catch-up) the benches
    and property suites drive."""
    global _active
    previous = _active
    _active = bool(on)
    try:
        yield
    finally:
        _active = previous


# -- framing (the WAL discipline) ------------------------------------------

def frame(payload: bytes) -> bytes:
    """Wrap a payload in the length+CRC header."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data) -> memoryview:
    """Validate a frame and return a zero-copy view of its payload."""
    view = memoryview(data)
    if len(view) < HEADER_SIZE:
        raise CorruptFrame("truncated frame header")
    length, crc = _HEADER.unpack_from(view, 0)
    body = view[HEADER_SIZE:HEADER_SIZE + length]
    if len(body) != length:
        raise CorruptFrame("truncated frame body")
    if zlib.crc32(body) != crc:
        raise CorruptFrame("frame CRC mismatch")
    return body


# -- value tags -------------------------------------------------------------

_T_JSON = 0x01
_T_I64COL = 0x02
_T_F64COL = 0x03
_T_U64COL = 0x04
_T_ILIST = 0x05
_T_FLIST = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_INT = 0x09
_T_FLOAT = 0x0A
_T_STR = 0x0B
_T_NONE = 0x0C
_T_META = 0x0D
_T_ROWS = 0x0E
_T_PROWS = 0x0F
_T_SLIST = 0x10

_B_JSON = bytes([_T_JSON])
_B_I64COL = bytes([_T_I64COL])
_B_F64COL = bytes([_T_F64COL])
_B_U64COL = bytes([_T_U64COL])
_B_ILIST = bytes([_T_ILIST])
_B_FLIST = bytes([_T_FLIST])
_B_LIST = bytes([_T_LIST])
_B_TUPLE = bytes([_T_TUPLE])
_B_INT = bytes([_T_INT])
_B_FLOAT = bytes([_T_FLOAT])
_B_STR = bytes([_T_STR])
_B_NONE = bytes([_T_NONE])
_B_META = bytes([_T_META])
_B_ROWS = bytes([_T_ROWS])
_B_PROWS = bytes([_T_PROWS])
_B_SLIST = bytes([_T_SLIST])

#: Payload kind bytes: the first byte of every framed payload, so a
#: frame produced by one encoder cannot be fed to another's decoder.
_K_OPS = 0x51
_K_TELEMETRY = 0x52
_K_ACC = 0x53
_K_COLUMN = 0x54

_COL_TAGS = {"q": _B_I64COL, "d": _B_F64COL, "Q": _B_U64COL}
_COL_TYPECODES = {_T_I64COL: "q", _T_F64COL: "d", _T_U64COL: "Q"}


def _emit_bytes(out: list, data: bytes) -> None:
    out.append(_U32.pack(len(data)))
    out.append(data)


def _emit_buffer(out: list, buf: array) -> None:
    """A typed array as u32 count + raw little-endian element bytes."""
    if _BIG_ENDIAN:
        buf = array(buf.typecode, buf)
        buf.byteswap()
    out.append(_U32.pack(len(buf)))
    out.append(buf.tobytes())


def _read_bytes(view: memoryview, pos: int) -> tuple[bytes, int]:
    (length,) = _U32.unpack_from(view, pos)
    pos += 4
    return bytes(view[pos:pos + length]), pos + length


def _read_buffer(
    view: memoryview, pos: int, typecode: str
) -> tuple[array, int]:
    """Decode a raw buffer lane zero-copy: ``frombytes`` reads straight
    off the memoryview slice, no intermediate ``bytes`` object."""
    (count,) = _U32.unpack_from(view, pos)
    pos += 4
    nbytes = count * 8
    buf = array(typecode)
    buf.frombytes(view[pos:pos + nbytes])
    if _BIG_ENDIAN:
        buf.byteswap()
    return buf, pos + nbytes


def _encode_value(value, out: list) -> None:
    kind = type(value)
    if kind is str:
        out.append(_B_STR)
        _emit_bytes(out, value.encode("utf-8", "surrogatepass"))
    elif kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_B_INT)
            out.append(_I64.pack(value))
        else:
            out.append(_B_JSON)
            _emit_bytes(out, encode_payload(value))
    elif kind is float:
        out.append(_B_FLOAT)
        out.append(_F64.pack(value))
    elif value is None:
        out.append(_B_NONE)
    elif kind is array:
        tag = _COL_TAGS.get(value.typecode)
        if tag is None:
            raise InterchangeError(
                f"no raw lane for array typecode {value.typecode!r}"
            )
        out.append(tag)
        _emit_buffer(out, value)
    elif kind is list:
        if value:
            kinds = set(map(type, value))
            if kinds == {int}:
                try:
                    buf = array("q", value)
                except OverflowError:
                    buf = None
                if buf is not None:
                    out.append(_B_ILIST)
                    _emit_buffer(out, buf)
                    return
            elif kinds == {float}:
                out.append(_B_FLIST)
                _emit_buffer(out, array("d", value))
                return
            if array in kinds:
                out.append(_B_LIST)
                out.append(_U32.pack(len(value)))
                for item in value:
                    _encode_value(item, out)
                return
            if kinds <= _SCALAR_KINDS:
                # mixed plain scalars (a string column, a nullable int
                # column): raw JSON with no tag transform — scalars
                # never need the WAL codec's ``_pack`` walk, so decode
                # is a bare ``json.loads`` instead of a per-element
                # ``_unpack`` recursion
                out.append(_B_SLIST)
                _emit_bytes(
                    out, _ORDERED_ENCODER.encode(value).encode("utf-8")
                )
                return
        out.append(_B_JSON)
        _emit_bytes(out, encode_payload(value))
    elif kind is tuple and any(type(item) is array for item in value):
        out.append(_B_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif kind is DQMetadataRecord:
        out.append(_B_META)
        _emit_bytes(out, encode_payload(value.to_state()))
    else:
        out.append(_B_JSON)
        _emit_bytes(out, encode_payload(value))


def _decode_value(view: memoryview, pos: int):
    tag = view[pos]
    pos += 1
    if tag == _T_STR:
        raw, pos = _read_bytes(view, pos)
        return raw.decode("utf-8", "surrogatepass"), pos
    if tag == _T_INT:
        (value,) = _I64.unpack_from(view, pos)
        return value, pos + 8
    if tag == _T_FLOAT:
        (value,) = _F64.unpack_from(view, pos)
        return value, pos + 8
    if tag == _T_NONE:
        return None, pos
    if tag == _T_JSON:
        raw, pos = _read_bytes(view, pos)
        return decode_payload(raw), pos
    typecode = _COL_TYPECODES.get(tag)
    if typecode is not None:
        buf, pos = _read_buffer(view, pos, typecode)
        return buf, pos
    if tag == _T_ILIST:
        buf, pos = _read_buffer(view, pos, "q")
        return buf.tolist(), pos
    if tag == _T_FLIST:
        buf, pos = _read_buffer(view, pos, "d")
        return buf.tolist(), pos
    if tag == _T_LIST or tag == _T_TUPLE:
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(view, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_META:
        raw, pos = _read_bytes(view, pos)
        return DQMetadataRecord.from_state(decode_payload(raw)), pos
    if tag == _T_SLIST:
        raw, pos = _read_bytes(view, pos)
        return json.loads(raw), pos
    if tag == _T_ROWS:
        return _decode_rows_op(view, pos)
    if tag == _T_PROWS:
        return _decode_plain_rows_op(view, pos)
    raise CorruptFrame(f"unknown value tag 0x{tag:02x}")


def encode_value(value) -> bytes:
    """One value as an unframed interchange payload (tests / tooling)."""
    out: list = []
    _encode_value(value, out)
    return b"".join(out)


def decode_value(payload):
    """Inverse of :func:`encode_value`."""
    view = memoryview(payload)
    value, pos = _decode_value(view, 0)
    if pos != len(view):
        raise CorruptFrame("trailing bytes after value")
    return value


# -- op batches (replication catch-up) -------------------------------------

def _encode_rows_op(op: dict) -> Optional[bytes]:
    """The compact batched ``rows`` op, columnar: one JSON header for the
    shared provenance, ids / pinned flags / stamp ticks as i64 buffers,
    then one value column per field.  ``None`` when the op is ragged
    (off-layout rows logged as full dicts) — the JSON lane takes it."""
    rows = op.get("rows")
    fields = op.get("fields")
    if not rows or not fields:
        return None
    width = len(fields)
    ids: list[int] = []
    pinned: list[int] = []
    ticks: list[int] = []
    for row in rows:
        if type(row) is not list or len(row) != 4:
            return None
        record_id, values, pin, tick = row
        if (
            type(record_id) is not int
            or type(values) is not list
            or len(values) != width
            or type(pin) is not bool
            or type(tick) is not int
        ):
            return None
        ids.append(record_id)
        pinned.append(1 if pin else 0)
        ticks.append(tick)
    try:
        id_buf = array("q", ids)
        tick_buf = array("q", ticks)
    except OverflowError:
        return None
    header = {key: value for key, value in op.items() if key != "rows"}
    out: list = [_B_ROWS]
    _emit_bytes(out, encode_payload(header))
    _emit_buffer(out, id_buf)
    _emit_buffer(out, array("q", pinned))
    _emit_buffer(out, tick_buf)
    for index in range(width):
        _encode_value([row[1][index] for row in rows], out)
    return b"".join(out)


def _decode_rows_op(view: memoryview, pos: int) -> tuple[dict, int]:
    raw, pos = _read_bytes(view, pos)
    op = decode_payload(raw)
    ids, pos = _read_buffer(view, pos, "q")
    pinned, pos = _read_buffer(view, pos, "q")
    ticks, pos = _read_buffer(view, pos, "q")
    columns = []
    for _ in op.get("fields", ()):
        column, pos = _decode_value(view, pos)
        columns.append(column)
    op["rows"] = [
        [record_id, list(values), bool(pin), tick]
        for record_id, values, pin, tick in zip(
            ids.tolist(), zip(*columns), pinned, ticks.tolist()
        )
    ]
    return op, pos


#: Exact value kinds the coalescer certifies as frozen scalars — a
#: strict subset of :data:`repro.runtime.storage._FROZEN_SCALARS`, so a
#: certified row is always shareable under the store's own walk.
_SCALAR_KINDS = frozenset((str, int, float, bool, type(None)))


def _encode_plain_rows_op(op: dict) -> Optional[bytes]:
    """The plain (``by is None``) ``rows`` op, columnar: rows are
    ``[record_id, data_dict, pinned]`` triples and every data dict must
    carry the same keys in the same order — the layout is lifted into
    the header once and each field ships as one value column.  ``None``
    when any row is off-layout (the JSON lane takes it)."""
    rows = op.get("rows")
    if not rows or "layout" in op:
        return None
    first = rows[0]
    if (
        type(first) is not list
        or len(first) != 3
        or type(first[1]) is not dict
        or not first[1]
    ):
        return None
    layout = list(first[1])
    ids: list[int] = []
    pinned: list[int] = []
    value_rows: list[list] = []
    for row in rows:
        if type(row) is not list or len(row) != 3:
            return None
        record_id, data, pin = row
        if (
            type(record_id) is not int
            or type(data) is not dict
            or type(pin) is not bool
            or list(data) != layout
        ):
            return None
        ids.append(record_id)
        pinned.append(1 if pin else 0)
        value_rows.append(list(data.values()))
    try:
        id_buf = array("q", ids)
    except OverflowError:
        return None
    header = {key: value for key, value in op.items() if key != "rows"}
    header["layout"] = layout
    out: list = [_B_PROWS]
    _emit_bytes(out, encode_payload(header))
    _emit_buffer(out, id_buf)
    _emit_buffer(out, array("q", pinned))
    # one C-speed transpose instead of a per-field pass over the rows
    for column in zip(*value_rows):
        _encode_value(list(column), out)
    return b"".join(out)


def _decode_plain_rows_op(view: memoryview, pos: int) -> tuple[dict, int]:
    raw, pos = _read_bytes(view, pos)
    op = decode_payload(raw)
    layout = op.pop("layout")
    ids, pos = _read_buffer(view, pos, "q")
    pinned, pos = _read_buffer(view, pos, "q")
    columns = []
    for _ in layout:
        column, pos = _decode_value(view, pos)
        columns.append(column)
    op["rows"] = [
        [record_id, dict(zip(layout, values)), bool(pin)]
        for record_id, values, pin in zip(
            ids.tolist(), zip(*columns), pinned
        )
    ]
    return op, pos


#: Minimum contiguous ``insert`` run length worth folding into one
#: synthetic plain ``rows`` op at ship time.
COALESCE_MIN = 16


def coalesce_insert_runs(
    pairs: Sequence[tuple[int, dict]], minimum: int = COALESCE_MIN
) -> list[tuple[int, dict]]:
    """Fold contiguous same-entity ``insert`` runs in a ``(seq, op)``
    tail into one synthetic plain ``rows`` op carried under the run's
    last seq.

    Replaying the synthetic op hits :meth:`EntityStore.restore_record`
    with exactly the arguments each folded ``insert`` would have passed
    (``by is None`` rows carry no provenance sidecar, like inserts), so
    follower state is byte-identical — while the wire pays one columnar
    payload instead of N tagged-JSON op dicts.  ``shareable=True`` on
    the synthetic op certifies every data value would pass the store's
    shareability walk — taken from the ``shareable`` stamp the primary
    re-exports on each insert op when present, else re-derived by a
    frozen-scalar walk here — letting the batched admission path skip
    the per-record walk.
    """
    out: list[tuple[int, dict]] = []
    index, count = 0, len(pairs)
    while index < count:
        seq, op = pairs[index]
        if op.get("op") == "insert":
            entity = op["entity"]
            end = index + 1
            while end < count:
                nxt = pairs[end][1]
                if nxt.get("op") != "insert" or nxt["entity"] != entity:
                    break
                end += 1
            if end - index >= minimum:
                rows = []
                shareable = True
                for _seq, one in pairs[index:end]:
                    data = one["data"]
                    if shareable:
                        stamped = one.get("shareable")
                        if stamped is not None:
                            # the primary already ran its walk at
                            # insert and re-exported the verdict
                            shareable = bool(stamped)
                        else:
                            for value in data.values():
                                if type(value) not in _SCALAR_KINDS:
                                    shareable = False
                                    break
                    rows.append([one["id"], data, bool(one.get("pinned"))])
                out.append((pairs[end - 1][0], {
                    "op": "rows",
                    "entity": entity,
                    "by": None,
                    "shareable": shareable,
                    "rows": rows,
                }))
                index = end
                continue
        out.append((seq, op))
        index += 1
    return out


def encode_op(op: dict) -> bytes:
    """One durable WAL op as an unframed interchange payload.  The
    compact ``rows`` form takes the columnar lane (plain ``by is None``
    rows get their own layout-hoisted lane); every other op kind is a
    tagged-JSON dict (exact round-trip via the WAL codec)."""
    if op.get("op") == "rows":
        encoded = (
            _encode_rows_op(op)
            if op.get("by") is not None
            else _encode_plain_rows_op(op)
        )
        if encoded is not None:
            return encoded
    out: list = []
    _encode_value(op, out)
    return b"".join(out)


def build_op_batch(seqs: Sequence[int], payloads: Sequence[bytes]) -> bytes:
    """Frame pre-encoded op payloads (from :func:`encode_op`) into one
    catch-up batch — the ship path encodes each op once and reuses the
    bytes across followers, paying only the concat + CRC here."""
    out: list = [bytes([_K_OPS]), _U32.pack(len(payloads))]
    _emit_buffer(out, array("q", seqs))
    for payload in payloads:
        out.append(_U32.pack(len(payload)))
        out.append(payload)
    return frame(b"".join(out))


def encode_op_batch(pairs: Sequence[tuple[int, dict]]) -> bytes:
    """``[(seq, op), ...]`` as one framed batch."""
    return build_op_batch(
        [seq for seq, _ in pairs], [encode_op(op) for _, op in pairs]
    )


def decode_op_batch(data) -> list[tuple[int, dict]]:
    """Inverse of :func:`encode_op_batch` — the exact ``(seq, op)``
    pairs, ready for :func:`repro.persistence.apply_op`."""
    view = unframe(data)
    if view[0] != _K_OPS:
        raise CorruptFrame("not an op-batch frame")
    (count,) = _U32.unpack_from(view, 1)
    seqs, pos = _read_buffer(view, 5, "q")
    if len(seqs) != count:
        raise CorruptFrame("op-batch seq column length mismatch")
    pairs = []
    for seq in seqs.tolist():
        (length,) = _U32.unpack_from(view, pos)
        pos += 4
        end = pos + length
        op, pos = _decode_value(view, pos)
        if pos != end:
            raise CorruptFrame("op payload length mismatch")
        pairs.append((seq, op))
    return pairs


# -- telemetry op batches (`cols` slices end-to-end) -----------------------

_TEL_COLS = 0x61
_TEL_GENERIC = 0x62


def encode_telemetry_ops(ops: Sequence[tuple]) -> bytes:
    """A store's deferred telemetry queue as one framed batch.

    ``cols`` ops — the hot shape: layout, per-field typed slices,
    ``(record_id, metadata)`` pairs, census hints — ship their numeric
    slices as raw buffers (the same ``array('q'/'d')`` objects the
    absorb-side :meth:`~repro.dq.streaming.FieldAccumulator.add_column`
    dispatches on, so no re-transpose and no census walk on decode);
    record ids travel as one i64 buffer and the metadata sidecars as a
    single JSON state list.  Every other op kind rides the generic
    value codec with sidecars swapped for their states.
    """
    out: list = [bytes([_K_TELEMETRY]), _U32.pack(len(ops))]
    for op in ops:
        kind = op[0]
        if kind == "cols":
            out.append(bytes([_TEL_COLS]))
            layout = op[1]
            columns = op[2]
            rows_meta = op[3]
            hints = op[4] if len(op) > 4 else None
            _emit_bytes(out, encode_payload({
                "layout": list(layout),
                "hints": list(hints) if hints is not None else None,
            }))
            _emit_buffer(
                out, array("q", [record_id for record_id, _ in rows_meta])
            )
            _emit_bytes(out, encode_payload(
                [metadata.to_state() for _, metadata in rows_meta]
            ))
            out.append(_U32.pack(len(columns)))
            for column in columns:
                _encode_value(
                    column if type(column) in (array, list)
                    else list(column),
                    out,
                )
        else:
            out.append(bytes([_TEL_GENERIC]))
            if kind == "row":
                payload = (kind, op[1], op[2], op[3].to_state())
            elif kind == "meta":
                payload = (kind, op[1], op[2].to_state())
            elif kind == "rows":
                payload = (kind, [
                    (record_id, data, metadata.to_state())
                    for record_id, data, metadata in op[1]
                ])
            else:  # "update" / "delete"
                payload = tuple(op)
            out.append(_B_JSON)
            _emit_bytes(out, _encode_ordered(payload))
    return frame(b"".join(out))


def decode_telemetry_ops(data) -> list[tuple]:
    """Inverse of :func:`encode_telemetry_ops` — op tuples ready for
    :meth:`repro.dq.streaming.EntityAccumulator.absorb`."""
    view = unframe(data)
    if view[0] != _K_TELEMETRY:
        raise CorruptFrame("not a telemetry frame")
    (count,) = _U32.unpack_from(view, 1)
    pos = 5
    ops: list[tuple] = []
    for _ in range(count):
        shape = view[pos]
        pos += 1
        if shape == _TEL_COLS:
            raw, pos = _read_bytes(view, pos)
            header = decode_payload(raw)
            ids, pos = _read_buffer(view, pos, "q")
            raw, pos = _read_bytes(view, pos)
            metas = [
                DQMetadataRecord.from_state(state)
                for state in decode_payload(raw)
            ]
            (ncols,) = _U32.unpack_from(view, pos)
            pos += 4
            columns = []
            for _ in range(ncols):
                column, pos = _decode_value(view, pos)
                columns.append(column)
            hints = header["hints"]
            ops.append((
                "cols",
                tuple(header["layout"]),
                columns,
                list(zip(ids.tolist(), metas)),
                tuple(hints) if hints is not None else None,
            ))
        elif shape == _TEL_GENERIC:
            payload, pos = _decode_value(view, pos)
            kind = payload[0]
            if kind == "row":
                ops.append((
                    kind, payload[1], payload[2],
                    DQMetadataRecord.from_state(payload[3]),
                ))
            elif kind == "meta":
                ops.append((
                    kind, payload[1],
                    DQMetadataRecord.from_state(payload[2]),
                ))
            elif kind == "rows":
                ops.append((kind, [
                    (record_id, data, DQMetadataRecord.from_state(state))
                    for record_id, data, state in payload[1]
                ]))
            else:
                ops.append(tuple(payload))
        else:
            raise CorruptFrame(f"unknown telemetry op shape 0x{shape:02x}")
    return ops


# -- accumulator snapshots --------------------------------------------------

def _split_counts(out: list, table: dict) -> None:
    """A count table as i64 key/count buffers plus a JSON residue for
    keys outside the int64 lane (repr-string keys, bigints)."""
    int_keys: list[int] = []
    int_counts: list[int] = []
    residue: list = []
    for key, count in table.items():
        if type(key) is int and _INT64_MIN <= key <= _INT64_MAX:
            int_keys.append(key)
            int_counts.append(count)
        else:
            residue.append([key, count])
    _emit_buffer(out, array("q", int_keys))
    _emit_buffer(out, array("q", int_counts))
    _emit_bytes(out, encode_payload(residue))


def _read_counts(view: memoryview, pos: int) -> tuple[dict, int]:
    keys, pos = _read_buffer(view, pos, "q")
    counts, pos = _read_buffer(view, pos, "q")
    raw, pos = _read_bytes(view, pos)
    table = dict(zip(keys.tolist(), counts.tolist()))
    for key, count in decode_payload(raw):
        table[key] = count
    return table, pos


def _split_numeric_counts(out: list, table: dict) -> None:
    """The numeric bounds table: int64 keys and float keys each as raw
    buffers (float keys bit-exact — NaN keys survive as distinct
    entries), bigints in the JSON residue."""
    int_keys: list[int] = []
    int_counts: list[int] = []
    float_keys: list[float] = []
    float_counts: list[int] = []
    residue: list = []
    for key, count in table.items():
        kind = type(key)
        if kind is int and _INT64_MIN <= key <= _INT64_MAX:
            int_keys.append(key)
            int_counts.append(count)
        elif kind is float:
            float_keys.append(key)
            float_counts.append(count)
        else:
            residue.append([key, count])
    _emit_buffer(out, array("q", int_keys))
    _emit_buffer(out, array("q", int_counts))
    _emit_buffer(out, array("d", float_keys))
    _emit_buffer(out, array("q", float_counts))
    _emit_bytes(out, encode_payload(residue))


def _read_numeric_counts(view: memoryview, pos: int) -> tuple[dict, int]:
    int_keys, pos = _read_buffer(view, pos, "q")
    int_counts, pos = _read_buffer(view, pos, "q")
    float_keys, pos = _read_buffer(view, pos, "d")
    float_counts, pos = _read_buffer(view, pos, "q")
    raw, pos = _read_bytes(view, pos)
    table: dict = dict(zip(int_keys.tolist(), int_counts.tolist()))
    for key, count in zip(float_keys.tolist(), float_counts.tolist()):
        table[key] = count
    for key, count in decode_payload(raw):
        table[key] = count
    return table, pos


def _encode_field(accumulator: FieldAccumulator, out: list) -> None:
    strings = accumulator._strings
    sketch = accumulator._sketch
    _emit_bytes(out, encode_payload({
        "name": accumulator.name,
        "total": accumulator.total,
        "missing": accumulator.missing,
        "spilled": accumulator.spilled,
        "spill_threshold": accumulator.spill_threshold,
        "num_n": accumulator._num_n,
        "string_count": accumulator._string_count,
        "pattern_counts": list(accumulator._pattern_counts),
        "sketch_k": sketch.k if sketch is not None else None,
        # value → [count, mask] as an ordered LIST (a JSON object would
        # come back key-sorted; the list keeps insertion order exact)
        "strings": (
            [
                [value, entry[0], list(entry[1])]
                for value, entry in strings.items()
            ]
            if strings is not None else None
        ),
    }))
    out.append(_F64.pack(accumulator._num_sum))
    out.append(_F64.pack(accumulator._num_sumsq))
    _encode_value(accumulator._num_min, out)
    _encode_value(accumulator._num_max, out)
    _split_counts(out, accumulator._other_counts)
    _split_numeric_counts(out, accumulator._numeric_counts)
    members = sorted(sketch._members) if sketch is not None else []
    _emit_buffer(out, array("Q", members))


def _decode_field(view: memoryview, pos: int) -> tuple[FieldAccumulator, int]:
    raw, pos = _read_bytes(view, pos)
    header = decode_payload(raw)
    accumulator = FieldAccumulator(
        header["name"], header["spill_threshold"]
    )
    accumulator.total = header["total"]
    accumulator.missing = header["missing"]
    accumulator.spilled = header["spilled"]
    accumulator._num_n = header["num_n"]
    accumulator._string_count = header["string_count"]
    accumulator._pattern_counts = list(header["pattern_counts"])
    strings = header["strings"]
    accumulator._strings = (
        {value: [count, tuple(mask)] for value, count, mask in strings}
        if strings is not None else None
    )
    (accumulator._num_sum,) = _F64.unpack_from(view, pos)
    pos += 8
    (accumulator._num_sumsq,) = _F64.unpack_from(view, pos)
    pos += 8
    accumulator._num_min, pos = _decode_value(view, pos)
    accumulator._num_max, pos = _decode_value(view, pos)
    accumulator._other_counts, pos = _read_counts(view, pos)
    accumulator._numeric_counts, pos = _read_numeric_counts(view, pos)
    members, pos = _read_buffer(view, pos, "Q")
    k = header["sketch_k"]
    if k is not None:
        sketch = KMVSketch(k)
        sketch._members = set(members.tolist())
        sketch._heap = [-value for value in sketch._members]
        heapq.heapify(sketch._heap)
        accumulator._sketch = sketch
    return accumulator, pos


def encode_accumulator(accumulator: EntityAccumulator) -> bytes:
    """One entity's streaming-telemetry state as a framed snapshot.

    Serialized **once** per state change (callers key a cache on the
    ``updates`` counter): the metadata Counter tables, per-field M2
    moments and KMV sketch members all travel as raw buffers, so the
    reduce side rebuilds mergeable accumulators without rehashing a
    single value.  Matches :meth:`EntityAccumulator.snapshot` exactly —
    the per-record ``_meta_state`` delta map is not shipped.
    """
    out: list = [bytes([_K_ACC])]
    _emit_bytes(out, encode_payload({
        "entity": accumulator.entity,
        "spill_threshold": accumulator.spill_threshold,
        "records": accumulator.records,
        "updates": accumulator.updates,
        "traced": accumulator._traced,
        "ts_sum": accumulator._ts_sum,
        "ts_count": accumulator._ts_count,
        "ts_min": accumulator._ts_min,
        "levels": [
            [level, count] for level, count in accumulator._levels.items()
        ],
        "field_count": len(accumulator._fields),
    }))
    _split_counts(out, accumulator._timestamps)
    for field in accumulator._fields.values():
        _encode_field(field, out)
    return frame(b"".join(out))


def decode_accumulator(data) -> EntityAccumulator:
    """Inverse of :func:`encode_accumulator` — a mergeable
    :class:`EntityAccumulator` (``merge_accumulators`` composes them
    across shards exactly like in-process snapshots)."""
    view = unframe(data)
    if view[0] != _K_ACC:
        raise CorruptFrame("not an accumulator frame")
    raw, pos = _read_bytes(view, 1)
    header = decode_payload(raw)
    accumulator = EntityAccumulator(
        header["entity"], header["spill_threshold"]
    )
    accumulator.records = header["records"]
    accumulator.updates = header["updates"]
    accumulator._traced = header["traced"]
    accumulator._ts_sum = header["ts_sum"]
    accumulator._ts_count = header["ts_count"]
    accumulator._ts_min = header["ts_min"]
    accumulator._levels = Counter(
        {level: count for level, count in header["levels"]}
    )
    timestamps, pos = _read_counts(view, pos)
    accumulator._timestamps = Counter(timestamps)
    for _ in range(header["field_count"]):
        field, pos = _decode_field(view, pos)
        accumulator._fields[field.name] = field
    return accumulator


def accumulator_fingerprint(accumulator: EntityAccumulator) -> str:
    """A canonical rendering of every *observable* bit of accumulator
    state — the equality oracle for round-trip and merge drills.

    Canonicalizes exactly what the codec documents as non-observable:
    table iteration order (sorted by key repr), KMV heap layout (the
    member set is the state) and the ``_hash_memo`` cache.
    """
    def table(mapping) -> list:
        return sorted(
            (repr(key), value) for key, value in mapping.items()
        )

    fields = []
    for name, f in accumulator._fields.items():
        fields.append((
            name, f.total, f.missing, f.spilled, f.spill_threshold,
            f._num_n, repr(f._num_sum), repr(f._num_sumsq),
            repr(f._num_min), repr(f._num_max),
            f._string_count, tuple(f._pattern_counts),
            table(f._other_counts),
            table(f._numeric_counts),
            (
                sorted(
                    (value, entry[0], tuple(entry[1]))
                    for value, entry in f._strings.items()
                )
                if f._strings is not None else None
            ),
            (
                (f._sketch.k, sorted(f._sketch._members))
                if f._sketch is not None else None
            ),
        ))
    return repr((
        accumulator.entity,
        accumulator.spill_threshold,
        accumulator.records,
        accumulator.updates,
        accumulator._traced,
        accumulator._ts_sum,
        accumulator._ts_count,
        accumulator._ts_min,
        table(accumulator._levels),
        table(accumulator._timestamps),
        list(accumulator._fields),  # field discovery order is observable
        sorted_fields(fields),
    ))


def sorted_fields(fields: list) -> list:
    """Field *state* sorted by name (discovery order is fingerprinted
    separately, so the state list itself can be order-canonical)."""
    return sorted(fields, key=lambda item: item[0])


# -- typed columns (bench + numpy view lane) -------------------------------

def encode_column(values) -> bytes:
    """One column (typed ``array`` or plain list) as a framed payload."""
    out: list = [bytes([_K_COLUMN])]
    _encode_value(values, out)
    return frame(b"".join(out))


def decode_column(data):
    """Inverse of :func:`encode_column` — ``array('q'/'d'/'Q')`` for
    typed lanes, lists otherwise."""
    view = unframe(data)
    if view[0] != _K_COLUMN:
        raise CorruptFrame("not a column frame")
    value, pos = _decode_value(view, 1)
    if pos != len(view):
        raise CorruptFrame("trailing bytes after column")
    return value


_NP_DTYPES = {_T_I64COL: "<i8", _T_F64COL: "<f8", _T_U64COL: "<u8"}


def decode_column_view(data):
    """Like :func:`decode_column`, but typed lanes come back as a
    **zero-copy** ``np.frombuffer`` view over the frame bytes when the
    numpy kernels are active (``REPRO_NO_NUMPY=1`` honored via
    :mod:`repro.colkernels`); the stdlib ``array`` copy otherwise."""
    from repro import colkernels

    np = colkernels.numpy_module()
    view = unframe(data)
    if view[0] != _K_COLUMN:
        raise CorruptFrame("not a column frame")
    tag = view[1]
    dtype = _NP_DTYPES.get(tag)
    if np is not None and dtype is not None:
        (count,) = _U32.unpack_from(view, 2)
        body = view[6:6 + count * 8]
        if len(body) != count * 8:
            raise CorruptFrame("truncated column body")
        return np.frombuffer(body, dtype=dtype)
    return decode_column(data)
