"""The bullfrogd wire protocol: length-prefixed binary frames.

Every message on the wire is one **frame**::

    +------+----------------+---------------------+
    | type | payload length | payload             |
    | u8   | u32 big-endian | ``length`` bytes    |
    +------+----------------+---------------------+

Frames are self-delimiting, so a reader never needs lookahead beyond
the 5-byte header, and a bounded ``MAX_FRAME`` means garbage input can
never make a peer allocate unboundedly or block forever waiting for a
length that was really line noise.

Client-to-server frames: HELLO (handshake), QUERY (sql + bound
params), TXN (begin/commit/rollback), META (admin passthrough for the
remote shell), PING (pool health checks), CLOSE (clean goodbye), and
the prepared-statement pair PARSE (name + sql, prepared server-side
and remembered per connection) and EXECUTE (run a prepared statement
by name with its parameters inline: the one-frame hot path that skips
the SQL parser entirely).  Frames may be **pipelined**: a client can
write any number of frames before reading replies; the server answers
strictly in request order.

Server-to-client frames: WELCOME (protocol/server version + the
current **schema epoch**, so clients can observe the logical switch),
ROW_HEADER / ROW_BATCH / COMPLETE (result-set streaming in row
batches), ERROR (structured: exception class name + SQLSTATE-like code
+ message + whether the session is still in a transaction), PONG,
META_RESULT.

Values use one tag byte per value and cover every
:mod:`repro.types` value kind (NULL, int — with an arbitrary-precision
escape hatch —, float, Decimal, str, bool, date, datetime).  The
**ERROR frame carries the** :mod:`repro.errors` **class name**, and
:func:`reconstruct_error` re-raises the matching class client-side, so
``except TransactionAborted:`` retry loops work unchanged over a
socket.

**Distributed tracing** rides optional frame trailers: a client that
negotiated the ``trace`` capability (HELLO option ``trace=1``,
acknowledged by a CAP_TRACE bit in an optional WELCOME trailer) may
append ``(trace_id, span_id)`` to QUERY / EXECUTE / TXN frames.  Both
trailers sit *after* every pre-existing field, so old peers in either
direction interoperate: an old client never sends trailers and never
triggers the WELCOME one; a new server accepts trailer-less frames as
untraced.

**The codec is table-driven.**  A value is encoded by one table keyed
by its exact type (a subclass falls back to the ``isinstance`` order),
a row is ``u32 count`` plus the join of its values, and a frame is one
:func:`encode_frame` call; decoders walk the payload at an offset with
precompiled ``Struct.unpack_from`` calls.  The bytes are exactly those
of the field-at-a-time codec this replaced (``tests/wire_reference.py``
keeps it, and a differential test holds both directions to it).

All decode paths raise :class:`~repro.errors.ProtocolError` on
truncated or malformed input — never ``struct.error``, never an
over-read, never a hang: every read checks the remaining length first.
"""

from __future__ import annotations

import datetime
import struct
from decimal import Decimal, InvalidOperation
from typing import Any, Sequence

from .. import errors
from ..errors import ProtocolError, ReproError

PROTOCOL_VERSION = 1

# An over-the-wire frame longer than this is treated as garbage rather
# than something to buffer for: 16 MiB comfortably fits any batch the
# server emits (it caps batches by row count well below this).
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">BI")
HEADER_SIZE = _HEADER.size

# ----------------------------------------------------------------------
# Frame types
# ----------------------------------------------------------------------

# client -> server
HELLO = 0x01
QUERY = 0x02
TXN = 0x03
META = 0x04
PING = 0x05
CLOSE = 0x06
PARSE = 0x07
EXECUTE = 0x09  # 0x08 (BIND) is retired

# server -> client
WELCOME = 0x81
ROW_HEADER = 0x82
ROW_BATCH = 0x83
COMPLETE = 0x84
ERROR = 0x85
PONG = 0x86
META_RESULT = 0x87
PARSE_OK = 0x88

FRAME_TYPES = frozenset(
    {
        HELLO, QUERY, TXN, META, PING, CLOSE, PARSE, EXECUTE,
        WELCOME, ROW_HEADER, ROW_BATCH, COMPLETE, ERROR, PONG, META_RESULT,
        PARSE_OK,
    }
)

# TXN ops
TXN_BEGIN = 1
TXN_COMMIT = 2
TXN_ROLLBACK = 3

# WELCOME capability bits (optional u8 trailer, only sent to clients
# that asked — see encode_welcome)
CAP_TRACE = 0x01

# Trace-trailer marker byte.  The trailer is ``marker u8 == 0x01,
# trace_id i64, span_id i64`` appended after the fixed fields of
# QUERY / EXECUTE / TXN.  A marker value other than 0x01 is reserved
# for future trailer kinds and rejected today.
_TRACE_MARKER = 0x01

# ----------------------------------------------------------------------
# SQLSTATE-like codes
# ----------------------------------------------------------------------

# Most specific class first — the encoder walks the MRO, so subclasses
# not listed here inherit their parent's code.
SQLSTATE_BY_EXC: dict[type, str] = {
    errors.TokenizeError: "42601",
    errors.ParseError: "42601",
    errors.UnknownObjectError: "42P01",
    errors.DuplicateObjectError: "42P07",
    errors.SchemaVersionError: "BF001",
    errors.TypeError_: "42804",
    errors.NotNullViolation: "23502",
    errors.UniqueViolation: "23505",
    errors.CheckViolation: "23514",
    errors.ForeignKeyViolation: "23503",
    errors.ConstraintViolation: "23000",
    errors.DeadlockAvoided: "40P01",
    errors.LockTimeout: "55P03",
    errors.SerializationFailure: "40001",
    errors.TransactionAborted: "40001",
    errors.StorageError: "XX001",
    errors.TransactionError: "25000",
    errors.ExecutionError: "42000",
    errors.MigrationError: "BF000",
    errors.SessionClosed: "08003",
    errors.ProtocolError: "08P01",
    errors.ServerBusyError: "53300",
    errors.ServerShutdownError: "57P01",
    errors.StatementTimeoutError: "57014",
    errors.IdleTimeoutError: "57P05",
    errors.ConnectionClosedError: "08006",
    errors.NetworkError: "08000",
    errors.SqlError: "42601",
    errors.CatalogError: "42P00",
    errors.ReproError: "XX000",
}


def sqlstate_for(exc: BaseException) -> str:
    if isinstance(exc, errors.InvalidRowCount):
        return exc.sqlstate
    for cls in type(exc).__mro__:
        code = SQLSTATE_BY_EXC.get(cls)
        if code is not None:
            return code
    return "XX000"


def reconstruct_error(cls_name: str, sqlstate: str, message: str) -> ReproError:
    """Rebuild the server's exception client-side.

    The class is looked up by name in :mod:`repro.errors`; anything
    unknown (or not instantiable from a bare message, like
    ``TokenizeError``) degrades to the nearest constructible ancestor
    and ultimately to :class:`ReproError`, keeping ``except``-clauses
    over the base classes working.
    """
    cls = getattr(errors, cls_name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    for candidate in cls.__mro__:
        if candidate is Exception:
            break
        try:
            exc = candidate(message)  # type: ignore[call-arg]
        except TypeError:
            continue
        exc.sqlstate = sqlstate  # type: ignore[attr-defined]
        return exc
    exc = ReproError(message)
    exc.sqlstate = sqlstate  # type: ignore[attr-defined]
    return exc


# ======================================================================
# Primitives
# ======================================================================
# Every fixed-width field has one precompiled Struct.  Encoders build a
# frame's payload from ``bytes`` pieces joined once; decoders walk the
# payload with an offset, ``unpack_from`` at that offset, and check the
# remaining length before every read, so a truncated payload raises
# ProtocolError — never struct.error, never an over-read.

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAGGED_I64 = struct.Struct(">Bq")  # value tag + i64
_TAGGED_F64 = struct.Struct(">Bd")  # value tag + f64
_TAGGED_LEN = struct.Struct(">BI")  # value tag + u32 text length
_WELCOME_IDS = struct.Struct(">qq")  # schema_epoch, session_id
_COMPLETE_TAIL = struct.Struct(">qBq")  # rowcount, in_transaction, schema_epoch
_TRACE = struct.Struct(">Bqq")  # marker, trace_id, span_id

_u8 = _U8.pack
_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
_unpack_i64 = _I64.unpack_from
_unpack_f64 = _F64.unpack_from
_pack_tagged_i64 = _TAGGED_I64.pack
_pack_tagged_len = _TAGGED_LEN.pack


def _truncated(wanted: int, remain: int) -> ProtocolError:
    return ProtocolError(
        f"truncated payload: wanted {wanted} bytes, {remain} remain"
    )


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _read_text(buf: bytes, pos: int, end: int) -> tuple[str, int]:
    """A u32-length-prefixed UTF-8 string at ``pos``; returns it and
    the offset after it."""
    if end - pos < 4:
        raise _truncated(4, end - pos)
    (length,) = _unpack_u32(buf, pos)
    pos += 4
    stop = pos + length
    if stop > end:
        raise ProtocolError(
            f"truncated string: declared {length} bytes, {end - pos} remain"
        )
    try:
        return buf[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in string field: {exc}") from exc


def _read_fixed(
    fmt: struct.Struct, buf: bytes, pos: int, end: int
) -> tuple[tuple, int]:
    if end - pos < fmt.size:
        raise _truncated(fmt.size, end - pos)
    return fmt.unpack_from(buf, pos), pos + fmt.size


def _expect_end(pos: int, end: int) -> None:
    if pos != end:
        raise ProtocolError(f"{end - pos} trailing bytes after payload")


def _read_texts(payload: bytes, count: int) -> list[str]:
    """A payload that is exactly ``count`` strings."""
    end = len(payload)
    pos = 0
    texts = []
    for _ in range(count):
        text, pos = _read_text(payload, pos, end)
        texts.append(text)
    _expect_end(pos, end)
    return texts


# ======================================================================
# Value codec (one tag byte per value)
# ======================================================================

_TAG_NULL = ord("N")
_TAG_INT = ord("q")       # fits a signed 64-bit
_TAG_BIGNUM = ord("I")    # arbitrary-precision int, decimal text
_TAG_FLOAT = ord("f")
_TAG_DECIMAL = ord("d")
_TAG_STR = ord("s")
_TAG_BOOL = ord("b")
_TAG_DATE = ord("D")
_TAG_DATETIME = ord("T")

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _tagged_text(tag: int, text: str) -> bytes:
    raw = text.encode("utf-8")
    return _pack_tagged_len(tag, len(raw)) + raw


def _encode_int(value: int) -> bytes:
    if _I64_MIN <= value <= _I64_MAX:
        return _pack_tagged_i64(_TAG_INT, value)
    return _tagged_text(_TAG_BIGNUM, str(value))


def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _pack_tagged_len(_TAG_STR, len(raw)) + raw


# Exact type -> encoder.  A row is ``u32 count`` plus the join of its
# values' encodings; the table lookup replaces a chain of isinstance
# tests per value.
_VALUE_ENCODERS: dict[type, Any] = {
    type(None): lambda value: b"N",
    bool: lambda value: b"b\x01" if value else b"b\x00",
    int: _encode_int,
    float: lambda value: _TAGGED_F64.pack(_TAG_FLOAT, value),
    Decimal: lambda value: _tagged_text(_TAG_DECIMAL, str(value)),
    str: _encode_str,
    datetime.datetime: lambda value: _tagged_text(_TAG_DATETIME, value.isoformat()),
    datetime.date: lambda value: _tagged_text(_TAG_DATE, value.isoformat()),
}

# Subclasses (an IntEnum, a str subclass) take their base's encoder, in
# isinstance order: datetime before date, since datetime is a date.
# ``bool`` cannot be subclassed, so its exact-type entry is the whole
# story.
_SUBCLASS_ORDER = (int, float, Decimal, str, datetime.datetime, datetime.date)


def _encode_other(value: Any) -> bytes:
    for base in _SUBCLASS_ORDER:
        if isinstance(value, base):
            return _VALUE_ENCODERS[base](value)
    raise ProtocolError(
        f"cannot encode value of type {type(value).__name__!r}"
    )


def _row_parts(rows: Sequence[Sequence[Any]]) -> list[bytes]:
    """The encoded pieces of ``rows``, each ``u32 count`` + its values.
    A 64-bit ``int`` — the commonest value — is packed in line; every
    other value goes through the table."""
    get = _VALUE_ENCODERS.get
    parts: list[bytes] = []
    append = parts.append
    for row in rows:
        append(_u32(len(row)))
        for value in row:
            if type(value) is int and _I64_MIN <= value <= _I64_MAX:
                append(_pack_tagged_i64(_TAG_INT, value))
            else:
                append(get(type(value), _encode_other)(value))
    return parts


def _encode_row(row: Sequence[Any]) -> bytes:
    return b"".join(_row_parts((row,)))


# Tags whose payload is text: how the text becomes a value, the error
# a malformed text raises, and the kind named in the ProtocolError.
_TEXT_VALUES = {
    _TAG_BIGNUM: (int, ValueError, "bignum"),
    _TAG_DECIMAL: (Decimal, InvalidOperation, "decimal"),
    _TAG_DATE: (datetime.date.fromisoformat, ValueError, "date"),
    _TAG_DATETIME: (datetime.datetime.fromisoformat, ValueError, "datetime"),
}


def _read_row(buf: bytes, pos: int, end: int) -> tuple[tuple, int]:
    """A ``u32 count`` + tagged values row at ``pos``; returns the row
    and the offset after it.  The fixed-width kinds are unpacked in
    line; the text kinds share :func:`_read_text`."""
    if end - pos < 4:
        raise _truncated(4, end - pos)
    (count,) = _unpack_u32(buf, pos)
    pos += 4
    if count > end - pos:
        # Each value costs >= 1 byte, so a count beyond the remaining
        # payload is garbage; reject before looping on it.
        raise ProtocolError(f"row claims {count} values, payload too short")
    values = []
    append = values.append
    for _ in range(count):
        if pos >= end:
            raise _truncated(1, 0)
        tag = buf[pos]
        pos += 1
        if tag == _TAG_INT:
            if end - pos < 8:
                raise _truncated(8, end - pos)
            append(_unpack_i64(buf, pos)[0])
            pos += 8
        elif tag == _TAG_STR:
            text, pos = _read_text(buf, pos, end)
            append(text)
        elif tag == _TAG_NULL:
            append(None)
        elif tag == _TAG_FLOAT:
            if end - pos < 8:
                raise _truncated(8, end - pos)
            append(_unpack_f64(buf, pos)[0])
            pos += 8
        elif tag == _TAG_BOOL:
            if pos >= end:
                raise _truncated(1, 0)
            append(buf[pos] != 0)
            pos += 1
        else:
            kind = _TEXT_VALUES.get(tag)
            if kind is None:
                raise ProtocolError(f"unknown value tag 0x{tag:02x}")
            parse, error, name = kind
            text, pos = _read_text(buf, pos, end)
            try:
                append(parse(text))
            except error as exc:
                raise ProtocolError(f"invalid {name} literal {text!r}") from exc
    return tuple(values), pos


# ======================================================================
# Frame assembly / disassembly
# ======================================================================


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME"
        )
    return _HEADER.pack(ftype, len(payload)) + payload


def decode_frame(buf: bytes, pos: int = 0) -> tuple[int, bytes, int] | None:
    """Try to peel one frame off ``buf`` starting at ``pos``.

    Returns ``(ftype, payload, next_pos)`` or ``None`` when the buffer
    does not yet hold a complete frame.  Raises :class:`ProtocolError`
    for an unknown frame type or an over-limit length — garbage input
    must fail fast, not make the reader wait for bytes that will never
    arrive.
    """
    if len(buf) - pos < HEADER_SIZE:
        return None
    ftype, length = _HEADER.unpack_from(buf, pos)
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
        )
    body_start = pos + HEADER_SIZE
    if len(buf) - body_start < length:
        return None
    return ftype, bytes(buf[body_start : body_start + length]), body_start + length


# ----------------------------------------------------------------------
# Per-frame payload codecs.  Encoders return whole frames (one
# ``encode_frame`` call each); decoders take payload bytes, return a
# dict (a list of rows for ROW_BATCH), and reject trailing garbage
# inside a well-framed payload.
# ----------------------------------------------------------------------


def _trace_bytes(trace: tuple[int, int] | None) -> bytes:
    """The optional trace trailer: ``(trace_id, span_id)`` of the
    client-side span this request belongs to.  Empty when ``trace`` is
    None, so a frame without one is byte-identical to what an old
    client sends."""
    if trace is None:
        return b""
    trace_id, span_id = trace
    return _TRACE.pack(_TRACE_MARKER, trace_id, span_id)


def _read_trailer(buf: bytes, pos: int, end: int) -> tuple[int, int] | None:
    """The optional trace trailer, which must end the payload.  Absent
    (old peer, or tracing off) when the payload ends at ``pos``;
    malformed markers are rejected so garbage never silently becomes a
    trace id."""
    if pos == end:
        return None
    marker = buf[pos]
    if marker != _TRACE_MARKER:
        raise ProtocolError(f"unknown request trailer marker 0x{marker:02x}")
    (_, trace_id, span_id), pos = _read_fixed(_TRACE, buf, pos, end)
    _expect_end(pos, end)
    return (trace_id, span_id)


def encode_hello(
    client_name: str = "repro",
    version: int = PROTOCOL_VERSION,
    options: dict[str, str] | None = None,
) -> bytes:
    """``options`` is the session-option channel (e.g.
    ``{"isolation": "snapshot"}``).  It is appended after the original
    fixed fields as a u8 count of (key, value) string pairs, so old
    servers that stop reading after ``client_name`` would reject it —
    but new servers still accept old clients, whose payload simply ends
    early (no options)."""
    parts = [_U16.pack(version), _text(client_name)]
    if options:
        if len(options) > 255:
            raise ProtocolError("too many HELLO options (max 255)")
        parts.append(_u8(len(options)))
        for key, value in options.items():
            parts.append(_text(key))
            parts.append(_text(value))
    return encode_frame(HELLO, b"".join(parts))


def decode_hello(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    (version,), pos = _read_fixed(_U16, payload, 0, end)
    client_name, pos = _read_text(payload, pos, end)
    options: dict[str, str] = {}
    if pos < end:  # optional trailer: absent from old clients
        count = payload[pos]
        pos += 1
        if count == 0:
            # The encoder omits the trailer entirely when there are no
            # options, so a zero count is garbage, not a valid HELLO.
            raise ProtocolError("empty HELLO options trailer")
        for _ in range(count):
            key, pos = _read_text(payload, pos, end)
            value, pos = _read_text(payload, pos, end)
            options[key] = value
    _expect_end(pos, end)
    return {"version": version, "client_name": client_name, "options": options}


def encode_welcome(
    server_version: str, schema_epoch: int, session_id: int,
    version: int = PROTOCOL_VERSION,
    capabilities: int = 0,
) -> bytes:
    """``capabilities`` is an optional u8 bitmask trailer (CAP_*).  The
    server only sends a nonzero mask to clients that *asked* for a
    capability in their HELLO options — an old client never requested
    one, never receives the trailer, and sees a byte-identical WELCOME."""
    payload = (
        _U16.pack(version) + _text(server_version)
        + _WELCOME_IDS.pack(schema_epoch, session_id)
    )
    if capabilities:
        if not 0 < capabilities <= 255:
            raise ProtocolError(f"capability mask {capabilities} out of range")
        payload += _u8(capabilities)
    return encode_frame(WELCOME, payload)


def decode_welcome(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    (version,), pos = _read_fixed(_U16, payload, 0, end)
    server_version, pos = _read_text(payload, pos, end)
    (schema_epoch, session_id), pos = _read_fixed(_WELCOME_IDS, payload, pos, end)
    capabilities = 0
    if pos < end:
        capabilities = payload[pos]
        pos += 1
    _expect_end(pos, end)
    return {
        "version": version,
        "server_version": server_version,
        "schema_epoch": schema_epoch,
        "session_id": session_id,
        "capabilities": capabilities,
    }


def encode_query(
    sql: str,
    params: Sequence[Any] = (),
    trace: tuple[int, int] | None = None,
) -> bytes:
    return encode_frame(
        QUERY, _text(sql) + _encode_row(tuple(params)) + _trace_bytes(trace)
    )


def decode_query(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    sql, pos = _read_text(payload, 0, end)
    params, pos = _read_row(payload, pos, end)
    return {"sql": sql, "params": params, "trace": _read_trailer(payload, pos, end)}


def encode_parse(name: str, sql: str) -> bytes:
    return encode_frame(PARSE, _text(name) + _text(sql))


def decode_parse(payload: bytes) -> dict[str, Any]:
    name, sql = _read_texts(payload, 2)
    return {"name": name, "sql": sql}


def encode_parse_ok(name: str) -> bytes:
    return encode_frame(PARSE_OK, _text(name))


def decode_parse_ok(payload: bytes) -> dict[str, Any]:
    (name,) = _read_texts(payload, 1)
    return {"name": name}


def encode_execute(
    name: str,
    params: Sequence[Any] = (),
    trace: tuple[int, int] | None = None,
) -> bytes:
    """EXECUTE a prepared statement with its parameters inline.  The
    ``has_params`` byte is always 1 (0 meant "use the bound portal")."""
    return encode_frame(
        EXECUTE,
        _text(name) + b"\x01" + _encode_row(tuple(params)) + _trace_bytes(trace),
    )


def decode_execute(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    name, pos = _read_text(payload, 0, end)
    if pos >= end:
        raise _truncated(1, 0)
    has_params = payload[pos]
    pos += 1
    if has_params == 1:
        params, pos = _read_row(payload, pos, end)
    elif has_params == 0:
        params = ()
    else:
        raise ProtocolError(f"bad EXECUTE has_params flag {has_params}")
    return {
        "name": name, "params": params,
        "trace": _read_trailer(payload, pos, end),
    }


def encode_txn(op: int, trace: tuple[int, int] | None = None) -> bytes:
    return encode_frame(TXN, _u8(op) + _trace_bytes(trace))


def decode_txn(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    if not end:
        raise _truncated(1, 0)
    op = payload[0]
    trace = _read_trailer(payload, 1, end)
    if op not in (TXN_BEGIN, TXN_COMMIT, TXN_ROLLBACK):
        raise ProtocolError(f"unknown TXN op {op}")
    return {"op": op, "trace": trace}


def encode_meta(command: str) -> bytes:
    """META is the admin side channel: one command string in, one text
    blob back (META_RESULT).  The vocabulary is interpreted by the
    server, not the framing, so adding a command never changes the wire
    format.  Current commands: ``metrics [json]``, ``progress``,
    ``tables``, ``describe <table>``, ``top [json]`` (live monitor
    summary), ``history [json] [seconds]`` (metrics-history ring),
    ``health [json]`` / ``healthz`` (rule report), ``dump [reason]``
    (flight-recorder incident bundle).  The ``json`` forms return a
    JSON document as the text payload — the remote ``\\top`` renderer
    and the client's monitoring helpers parse it client-side."""
    return encode_frame(META, _text(command))


def decode_meta(payload: bytes) -> dict[str, Any]:
    (command,) = _read_texts(payload, 1)
    return {"command": command}


def encode_meta_result(text: str) -> bytes:
    return encode_frame(META_RESULT, _text(text))


def decode_meta_result(payload: bytes) -> dict[str, Any]:
    (text,) = _read_texts(payload, 1)
    return {"text": text}


def encode_row_header(tag: str, columns: Sequence[str]) -> bytes:
    """The column names of a result.  A server builds it once per
    planned query (``Statement.wire_header``), not once per reply."""
    return encode_frame(
        ROW_HEADER,
        _text(tag) + _u32(len(columns)) + b"".join([_text(n) for n in columns]),
    )


def decode_row_header(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    tag, pos = _read_text(payload, 0, end)
    (count,), pos = _read_fixed(_U32, payload, pos, end)
    if count > end - pos:
        raise ProtocolError(
            f"row header claims {count} columns, payload too short"
        )
    columns = []
    for _ in range(count):
        name, pos = _read_text(payload, pos, end)
        columns.append(name)
    _expect_end(pos, end)
    return {"tag": tag, "columns": columns}


def encode_row_batch(rows: Sequence[Sequence[Any]]) -> bytes:
    return encode_frame(ROW_BATCH, _u32(len(rows)) + b"".join(_row_parts(rows)))


def decode_row_batch(payload: bytes) -> list[tuple]:
    end = len(payload)
    if end < 4:
        raise _truncated(4, end)
    (count,) = _unpack_u32(payload, 0)
    if count > end - 4:
        raise ProtocolError(f"batch claims {count} rows, payload too short")
    rows = []
    pos = 4
    for _ in range(count):
        row, pos = _read_row(payload, pos, end)
        rows.append(row)
    _expect_end(pos, end)
    return rows


def encode_complete(
    tag: str, rowcount: int, in_transaction: bool, schema_epoch: int
) -> bytes:
    return encode_frame(
        COMPLETE,
        _text(tag) + _COMPLETE_TAIL.pack(
            rowcount, 1 if in_transaction else 0, schema_epoch
        ),
    )


def decode_complete(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    tag, pos = _read_text(payload, 0, end)
    (rowcount, in_transaction, schema_epoch), pos = _read_fixed(
        _COMPLETE_TAIL, payload, pos, end
    )
    _expect_end(pos, end)
    return {
        "tag": tag,
        "rowcount": rowcount,
        "in_transaction": in_transaction != 0,
        "schema_epoch": schema_epoch,
    }


def encode_error(exc: BaseException, in_transaction: bool) -> bytes:
    return encode_frame(
        ERROR,
        _text(type(exc).__name__) + _text(sqlstate_for(exc)) + _text(str(exc))
        + (b"\x01" if in_transaction else b"\x00"),
    )


def decode_error(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    error_class, pos = _read_text(payload, 0, end)
    sqlstate, pos = _read_text(payload, pos, end)
    message, pos = _read_text(payload, pos, end)
    if pos >= end:
        raise _truncated(1, 0)
    _expect_end(pos + 1, end)
    return {
        "error_class": error_class,
        "sqlstate": sqlstate,
        "message": message,
        "in_transaction": payload[pos] != 0,
    }


def encode_ping() -> bytes:
    return encode_frame(PING)


def encode_pong(schema_epoch: int) -> bytes:
    return encode_frame(PONG, _I64.pack(schema_epoch))


def decode_pong(payload: bytes) -> dict[str, Any]:
    end = len(payload)
    (schema_epoch,), pos = _read_fixed(_I64, payload, 0, end)
    _expect_end(pos, end)
    return {"schema_epoch": schema_epoch}


def encode_close() -> bytes:
    return encode_frame(CLOSE)


# ----------------------------------------------------------------------
# Socket I/O helpers
# ----------------------------------------------------------------------


class FrameStream:
    """Buffered frame reader/writer over a socket-like object.

    ``recv_frame`` blocks until one complete frame is available (or the
    peer closes / a socket timeout fires, which propagate as the
    socket's own exceptions).  Frames are peeled off the buffer at an
    offset; the consumed prefix is dropped only when more bytes must be
    read, so a burst of pipelined replies costs no re-slicing per frame
    and a frame larger than one ``recv`` grows the buffer in place.
    The buffer only ever holds bytes the peer already framed, bounded
    by ``MAX_FRAME`` via :func:`decode_frame`'s length check.
    """

    __slots__ = ("sock", "_buf", "_pos")

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self._buf = bytearray()
        self._pos = 0

    def send_frame(self, frame: bytes) -> int:
        self.sock.sendall(frame)
        return len(frame)

    def recv_frame(self) -> tuple[int, bytes] | None:
        """Next frame, or ``None`` on clean EOF at a frame boundary.
        EOF mid-frame raises :class:`ProtocolError`."""
        buf = self._buf
        while True:
            decoded = decode_frame(buf, self._pos)
            if decoded is not None:
                ftype, payload, self._pos = decoded
                return ftype, payload
            if self._pos:
                del buf[: self._pos]
                self._pos = 0
            chunk = self.sock.recv(65536)
            if not chunk:
                if buf:
                    raise ProtocolError("connection closed mid-frame")
                return None
            buf += chunk
