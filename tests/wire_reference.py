"""Reference wire codec for the differential test.

This is the straightforward ``_Writer`` / ``_Reader`` implementation of
every ``encode_*`` / ``decode_*`` payload codec in
:mod:`repro.net.protocol`, one field at a time.  The production codec
is table-driven and precompiled for speed; ``test_wire_differential.py``
holds it to these bytes and to this accept/reject behaviour.  Frame
types, the SQLSTATE map and ``MAX_FRAME`` are shared vocabulary, not
codec, so they come from the production module.
"""

from __future__ import annotations

import datetime
import struct
from decimal import Decimal, InvalidOperation
from typing import Any, Sequence

from repro.errors import ProtocolError
from repro.net.protocol import (
    CLOSE,
    COMPLETE,
    ERROR,
    EXECUTE,
    FRAME_TYPES,
    HEADER_SIZE,
    HELLO,
    MAX_FRAME,
    META,
    META_RESULT,
    PARSE,
    PARSE_OK,
    PING,
    PONG,
    PROTOCOL_VERSION,
    QUERY,
    ROW_BATCH,
    ROW_HEADER,
    TXN,
    TXN_BEGIN,
    TXN_COMMIT,
    TXN_ROLLBACK,
    WELCOME,
    sqlstate_for,
)

_HEADER = struct.Struct(">BI")
_TRACE_MARKER = 0x01


# ======================================================================
# Primitive writers
# ======================================================================


class _Writer:
    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack(">B", v))

    def u16(self, v: int) -> None:
        self.parts.append(struct.pack(">H", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack(">I", v))

    def i64(self, v: int) -> None:
        self.parts.append(struct.pack(">q", v))

    def f64(self, v: float) -> None:
        self.parts.append(struct.pack(">d", v))

    def str(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.parts.append(raw)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Bounded cursor over one frame payload.  Every read checks the
    remaining length first, so truncated input raises
    :class:`ProtocolError` instead of over-reading into the next frame
    (or off the end of the buffer)."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, pos: int = 0, end: int | None = None) -> None:
        self.buf = buf
        self.pos = pos
        self.end = len(buf) if end is None else end

    def _take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise ProtocolError(
                f"truncated payload: wanted {n} bytes, "
                f"{self.end - self.pos} remain"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def str(self) -> str:
        length = self.u32()
        if length > self.end - self.pos:
            raise ProtocolError(
                f"truncated string: declared {length} bytes, "
                f"{self.end - self.pos} remain"
            )
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}") from exc

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise ProtocolError(
                f"{self.end - self.pos} trailing bytes after payload"
            )


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


def _write_value(w: _Writer, value: Any) -> None:
    if value is None:
        w.u8(_TAG_NULL)
    elif value is True or value is False:
        w.u8(_TAG_BOOL)
        w.u8(1 if value else 0)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            w.u8(_TAG_INT)
            w.i64(value)
        else:
            w.u8(_TAG_BIGNUM)
            w.str(str(value))
    elif isinstance(value, float):
        w.u8(_TAG_FLOAT)
        w.f64(value)
    elif isinstance(value, Decimal):
        w.u8(_TAG_DECIMAL)
        w.str(str(value))
    elif isinstance(value, str):
        w.u8(_TAG_STR)
        w.str(value)
    elif isinstance(value, datetime.datetime):
        # datetime before date: datetime is a date subclass.
        w.u8(_TAG_DATETIME)
        w.str(value.isoformat())
    elif isinstance(value, datetime.date):
        w.u8(_TAG_DATE)
        w.str(value.isoformat())
    else:
        raise ProtocolError(
            f"cannot encode value of type {type(value).__name__!r}"
        )


def _read_value(r: _Reader) -> Any:
    tag = r.u8()
    if tag == _TAG_NULL:
        return None
    if tag == _TAG_BOOL:
        return r.u8() != 0
    if tag == _TAG_INT:
        return r.i64()
    if tag == _TAG_BIGNUM:
        text = r.str()
        try:
            return int(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid bignum literal {text!r}") from exc
    if tag == _TAG_FLOAT:
        return r.f64()
    if tag == _TAG_DECIMAL:
        text = r.str()
        try:
            return Decimal(text)
        except InvalidOperation as exc:
            raise ProtocolError(f"invalid decimal literal {text!r}") from exc
    if tag == _TAG_STR:
        return r.str()
    if tag == _TAG_DATE:
        text = r.str()
        try:
            return datetime.date.fromisoformat(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid date literal {text!r}") from exc
    if tag == _TAG_DATETIME:
        text = r.str()
        try:
            return datetime.datetime.fromisoformat(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid datetime literal {text!r}") from exc
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def _write_row(w: _Writer, row: Sequence[Any]) -> None:
    w.u32(len(row))
    for value in row:
        _write_value(w, value)


def _read_row(r: _Reader) -> tuple:
    count = r.u32()
    if count > r.end - r.pos:
        # Each value costs >= 1 byte, so a count beyond the remaining
        # payload is garbage; reject before looping on it.
        raise ProtocolError(f"row claims {count} values, payload too short")
    return tuple(_read_value(r) for _ in range(count))


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
# Per-frame payload codecs.  Encoders return payload bytes; decoders
# take payload bytes and return a dict, always calling ``expect_end``
# so trailing garbage inside a well-framed payload is still rejected.
# ----------------------------------------------------------------------


def _write_trace(w: _Writer, trace: tuple[int, int] | None) -> None:
    """Append the optional trace trailer: ``(trace_id, span_id)`` of
    the client-side span this request belongs to.  Omitted entirely
    when ``trace`` is None, so a frame without one is byte-identical
    to what an old client sends."""
    if trace is None:
        return
    trace_id, span_id = trace
    w.u8(_TRACE_MARKER)
    w.i64(trace_id)
    w.i64(span_id)


def _read_trace(r: _Reader) -> tuple[int, int] | None:
    """Read the optional trace trailer.  Absent (old peer, or tracing
    off) when the payload ends here; malformed markers are rejected so
    garbage never silently becomes a trace id."""
    if r.pos >= r.end:
        return None
    marker = r.u8()
    if marker != _TRACE_MARKER:
        raise ProtocolError(f"unknown request trailer marker 0x{marker:02x}")
    return (r.i64(), r.i64())


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
    w = _Writer()
    w.u16(version)
    w.str(client_name)
    if options:
        if len(options) > 255:
            raise ProtocolError("too many HELLO options (max 255)")
        w.u8(len(options))
        for key, value in options.items():
            w.str(key)
            w.str(value)
    return encode_frame(HELLO, w.getvalue())


def decode_hello(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out: dict[str, Any] = {"version": r.u16(), "client_name": r.str()}
    options: dict[str, str] = {}
    if r.pos < r.end:  # optional trailer: absent from old clients
        count = r.u8()
        if count == 0:
            # The encoder omits the trailer entirely when there are no
            # options, so a zero count is garbage, not a valid HELLO.
            raise ProtocolError("empty HELLO options trailer")
        for _ in range(count):
            key = r.str()
            options[key] = r.str()
    out["options"] = options
    r.expect_end()
    return out


def encode_welcome(
    server_version: str, schema_epoch: int, session_id: int,
    version: int = PROTOCOL_VERSION,
    capabilities: int = 0,
) -> bytes:
    """``capabilities`` is an optional u8 bitmask trailer (CAP_*).  The
    server only sends a nonzero mask to clients that *asked* for a
    capability in their HELLO options — an old client never requested
    one, never receives the trailer, and sees a byte-identical WELCOME."""
    w = _Writer()
    w.u16(version)
    w.str(server_version)
    w.i64(schema_epoch)
    w.i64(session_id)
    if capabilities:
        if not 0 < capabilities <= 255:
            raise ProtocolError(f"capability mask {capabilities} out of range")
        w.u8(capabilities)
    return encode_frame(WELCOME, w.getvalue())


def decode_welcome(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {
        "version": r.u16(),
        "server_version": r.str(),
        "schema_epoch": r.i64(),
        "session_id": r.i64(),
    }
    out["capabilities"] = r.u8() if r.pos < r.end else 0
    r.expect_end()
    return out


def encode_query(
    sql: str,
    params: Sequence[Any] = (),
    trace: tuple[int, int] | None = None,
) -> bytes:
    w = _Writer()
    w.str(sql)
    _write_row(w, tuple(params))
    _write_trace(w, trace)
    return encode_frame(QUERY, w.getvalue())


def decode_query(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"sql": r.str(), "params": _read_row(r)}
    out["trace"] = _read_trace(r)
    r.expect_end()
    return out


def encode_parse(name: str, sql: str) -> bytes:
    w = _Writer()
    w.str(name)
    w.str(sql)
    return encode_frame(PARSE, w.getvalue())


def decode_parse(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"name": r.str(), "sql": r.str()}
    r.expect_end()
    return out


def encode_parse_ok(name: str) -> bytes:
    w = _Writer()
    w.str(name)
    return encode_frame(PARSE_OK, w.getvalue())


def decode_parse_ok(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"name": r.str()}
    r.expect_end()
    return out


def encode_execute(
    name: str,
    params: Sequence[Any] = (),
    trace: tuple[int, int] | None = None,
) -> bytes:
    """EXECUTE a prepared statement with its parameters inline."""
    w = _Writer()
    w.str(name)
    w.u8(1)  # has_params: always set (0 meant "use the bound portal")
    _write_row(w, tuple(params))
    _write_trace(w, trace)
    return encode_frame(EXECUTE, w.getvalue())


def decode_execute(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    name = r.str()
    has_params = r.u8()
    if has_params not in (0, 1):
        raise ProtocolError(f"bad EXECUTE has_params flag {has_params}")
    params = _read_row(r) if has_params else ()
    trace = _read_trace(r)
    r.expect_end()
    return {"name": name, "params": params, "trace": trace}


def encode_txn(op: int, trace: tuple[int, int] | None = None) -> bytes:
    w = _Writer()
    w.u8(op)
    _write_trace(w, trace)
    return encode_frame(TXN, w.getvalue())


def decode_txn(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    op = r.u8()
    trace = _read_trace(r)
    r.expect_end()
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
    w = _Writer()
    w.str(command)
    return encode_frame(META, w.getvalue())


def decode_meta(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"command": r.str()}
    r.expect_end()
    return out


def encode_meta_result(text: str) -> bytes:
    w = _Writer()
    w.str(text)
    return encode_frame(META_RESULT, w.getvalue())


def decode_meta_result(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"text": r.str()}
    r.expect_end()
    return out


def encode_row_header(tag: str, columns: Sequence[str]) -> bytes:
    w = _Writer()
    w.str(tag)
    w.u32(len(columns))
    for name in columns:
        w.str(name)
    return encode_frame(ROW_HEADER, w.getvalue())


def decode_row_header(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    tag = r.str()
    count = r.u32()
    if count > r.end - r.pos:
        raise ProtocolError(
            f"row header claims {count} columns, payload too short"
        )
    columns = [r.str() for _ in range(count)]
    r.expect_end()
    return {"tag": tag, "columns": columns}


def encode_row_batch(rows: Sequence[Sequence[Any]]) -> bytes:
    w = _Writer()
    w.u32(len(rows))
    for row in rows:
        _write_row(w, row)
    return encode_frame(ROW_BATCH, w.getvalue())


def decode_row_batch(payload: bytes) -> list[tuple]:
    r = _Reader(payload)
    count = r.u32()
    if count > r.end - r.pos:
        raise ProtocolError(f"batch claims {count} rows, payload too short")
    rows = [_read_row(r) for _ in range(count)]
    r.expect_end()
    return rows


def encode_complete(
    tag: str, rowcount: int, in_transaction: bool, schema_epoch: int
) -> bytes:
    w = _Writer()
    w.str(tag)
    w.i64(rowcount)
    w.u8(1 if in_transaction else 0)
    w.i64(schema_epoch)
    return encode_frame(COMPLETE, w.getvalue())


def decode_complete(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {
        "tag": r.str(),
        "rowcount": r.i64(),
        "in_transaction": r.u8() != 0,
        "schema_epoch": r.i64(),
    }
    r.expect_end()
    return out


def encode_error(exc: BaseException, in_transaction: bool) -> bytes:
    w = _Writer()
    w.str(type(exc).__name__)
    w.str(sqlstate_for(exc))
    w.str(str(exc))
    w.u8(1 if in_transaction else 0)
    return encode_frame(ERROR, w.getvalue())


def decode_error(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {
        "error_class": r.str(),
        "sqlstate": r.str(),
        "message": r.str(),
        "in_transaction": r.u8() != 0,
    }
    r.expect_end()
    return out


def encode_ping() -> bytes:
    return encode_frame(PING)


def encode_pong(schema_epoch: int) -> bytes:
    w = _Writer()
    w.i64(schema_epoch)
    return encode_frame(PONG, w.getvalue())


def decode_pong(payload: bytes) -> dict[str, Any]:
    r = _Reader(payload)
    out = {"schema_epoch": r.i64()}
    r.expect_end()
    return out


def encode_close() -> bytes:
    return encode_frame(CLOSE)

