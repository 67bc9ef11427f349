"""Property tests for the bullfrogd wire codec.

The contract under test (protocol.py module docstring): every value
kind round-trips exactly; truncated or garbage input raises
:class:`ProtocolError` — never ``struct.error``, never an over-read
past the declared frame, never a hang waiting for bytes that cannot
arrive.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import errors
from repro.errors import (
    ProtocolError,
    ReproError,
    SchemaVersionError,
    TransactionAborted,
)
from repro.net import protocol

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Every value kind the engine can put in a row (types.py surface):
# NULL, bool, 64-bit int, arbitrary-precision int, float, Decimal,
# str, date, datetime.
value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63) - 1),
    st.floats(allow_nan=False),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.text(max_size=200),
    st.dates(),
    st.datetimes(),
)

row_strategy = st.lists(value_strategy, max_size=12).map(tuple)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@_settings
@given(rows=st.lists(row_strategy, max_size=8))
def test_row_batch_roundtrip(rows):
    frame = protocol.encode_row_batch(rows)
    ftype, payload, consumed = protocol.decode_frame(frame)
    assert ftype == protocol.ROW_BATCH
    assert consumed == len(frame)
    decoded = protocol.decode_row_batch(payload)
    assert decoded == [tuple(r) for r in rows]
    # types must survive exactly: True must not come back as 1, a
    # Decimal must not come back as a float, etc.
    for row, back in zip(rows, decoded):
        for a, b in zip(row, back):
            assert type(a) is type(b)


def test_value_edge_cases_roundtrip():
    import datetime
    from decimal import Decimal

    edge_rows = [
        (),  # empty row
        (None,) * 40,
        (2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**50),
        (float("inf"), float("-inf"), -0.0),
        (Decimal("0.300000000000000000000001"), Decimal("-1E+30")),
        ("", "\x00", "naïve — ünïcode 🐸"),
        (True, False),
        (datetime.date(1, 1, 1), datetime.date(9999, 12, 31)),
        (datetime.datetime(2026, 8, 5, 12, 30, 59, 999999),),
    ]
    payload_frame = protocol.encode_row_batch(edge_rows)
    _, payload, _ = protocol.decode_frame(payload_frame)
    assert protocol.decode_row_batch(payload) == edge_rows


def test_nan_roundtrip():
    frame = protocol.encode_row_batch([(float("nan"),)])
    _, payload, _ = protocol.decode_frame(frame)
    [(value,)] = protocol.decode_row_batch(payload)
    assert math.isnan(value)


def test_huge_row_roundtrip():
    row = tuple(range(5000)) + tuple("v" * 100 for _ in range(500))
    frame = protocol.encode_row_batch([row])
    _, payload, _ = protocol.decode_frame(frame)
    assert protocol.decode_row_batch(payload) == [row]


def test_unencodable_value_rejected():
    with pytest.raises(ProtocolError):
        protocol.encode_row_batch([(object(),)])


@_settings
@given(sql=st.text(max_size=300), params=row_strategy)
def test_query_roundtrip(sql, params):
    frame = protocol.encode_query(sql, params)
    ftype, payload, _ = protocol.decode_frame(frame)
    assert ftype == protocol.QUERY
    out = protocol.decode_query(payload)
    assert out["sql"] == sql
    assert out["params"] == tuple(params)


@_settings
@given(
    tag=st.text(max_size=40),
    columns=st.lists(st.text(max_size=40), max_size=20),
)
def test_row_header_roundtrip(tag, columns):
    _, payload, _ = protocol.decode_frame(
        protocol.encode_row_header(tag, columns)
    )
    out = protocol.decode_row_header(payload)
    assert out == {"tag": tag, "columns": columns}


@_settings
@given(
    tag=st.text(max_size=40),
    rowcount=st.integers(min_value=-1, max_value=2**40),
    in_txn=st.booleans(),
    epoch=st.integers(min_value=0, max_value=2**40),
)
def test_complete_roundtrip(tag, rowcount, in_txn, epoch):
    _, payload, _ = protocol.decode_frame(
        protocol.encode_complete(tag, rowcount, in_txn, epoch)
    )
    out = protocol.decode_complete(payload)
    assert out == {
        "tag": tag,
        "rowcount": rowcount,
        "in_transaction": in_txn,
        "schema_epoch": epoch,
    }


def test_handshake_and_misc_frames_roundtrip():
    _, payload, _ = protocol.decode_frame(protocol.encode_hello("shell", 1))
    assert protocol.decode_hello(payload) == {
        "version": 1,
        "client_name": "shell",
        "options": {},
    }
    # Pre-options clients stop after client_name; the decoder must
    # accept the shorter payload (no trailer -> empty options).
    _, payload, _ = protocol.decode_frame(
        protocol.encode_hello(
            "shell", 1, options={"isolation": "snapshot", "x": "y"}
        )
    )
    assert protocol.decode_hello(payload) == {
        "version": 1,
        "client_name": "shell",
        "options": {"isolation": "snapshot", "x": "y"},
    }
    _, payload, _ = protocol.decode_frame(
        protocol.encode_welcome("1.0.0", 7, 42)
    )
    out = protocol.decode_welcome(payload)
    assert (out["server_version"], out["schema_epoch"], out["session_id"]) == (
        "1.0.0", 7, 42,
    )
    for op in (protocol.TXN_BEGIN, protocol.TXN_COMMIT, protocol.TXN_ROLLBACK):
        _, payload, _ = protocol.decode_frame(protocol.encode_txn(op))
        assert protocol.decode_txn(payload) == {"op": op, "trace": None}
    _, payload, _ = protocol.decode_frame(protocol.encode_meta("metrics"))
    assert protocol.decode_meta(payload) == {"command": "metrics"}
    _, payload, _ = protocol.decode_frame(protocol.encode_meta_result("ok\n"))
    assert protocol.decode_meta_result(payload) == {"text": "ok\n"}
    _, payload, _ = protocol.decode_frame(protocol.encode_pong(3))
    assert protocol.decode_pong(payload) == {"schema_epoch": 3}


@_settings
@given(name=st.text(max_size=60), sql=st.text(max_size=300))
def test_parse_roundtrip(name, sql):
    frame = protocol.encode_parse(name, sql)
    ftype, payload, consumed = protocol.decode_frame(frame)
    assert ftype == protocol.PARSE
    assert consumed == len(frame)
    assert protocol.decode_parse(payload) == {"name": name, "sql": sql}
    _, payload, _ = protocol.decode_frame(protocol.encode_parse_ok(name))
    assert protocol.decode_parse_ok(payload) == {"name": name}


@_settings
@given(name=st.text(max_size=60), params=row_strategy)
def test_execute_inline_params_roundtrip(name, params):
    frame = protocol.encode_execute(name, params)
    ftype, payload, _ = protocol.decode_frame(frame)
    assert ftype == protocol.EXECUTE
    out = protocol.decode_execute(payload)
    assert out["name"] == name
    assert out["params"] == tuple(params)
    # types survive exactly, same contract as ROW_BATCH
    for a, b in zip(params, out["params"]):
        assert type(a) is type(b)


def test_execute_bad_has_params_flag_rejected():
    frame = protocol.encode_execute("q", (1,))
    _, payload, _ = protocol.decode_frame(frame)
    # name is length-prefixed: "q" encodes as u32 len + bytes, then the
    # has_params flag byte follows.
    flag_offset = 4 + len("q".encode("utf-8"))
    assert payload[flag_offset] == 1
    mangled = payload[:flag_offset] + b"\x02" + payload[flag_offset + 1 :]
    with pytest.raises(ProtocolError):
        protocol.decode_execute(mangled)
    # Flag 0 (an old client's "no inline parameters" form) still decodes.
    _, bare, _ = protocol.decode_frame(protocol.encode_execute("q"))
    bare = bare[:flag_offset] + b"\x00"
    assert protocol.decode_execute(bare) == {
        "name": "q", "params": (), "trace": None,
    }


def test_txn_unknown_op_rejected():
    _, payload, _ = protocol.decode_frame(protocol.encode_txn(9))
    with pytest.raises(ProtocolError):
        protocol.decode_txn(payload)


# ----------------------------------------------------------------------
# Typed errors over the wire
# ----------------------------------------------------------------------


def test_error_frame_roundtrip_preserves_class():
    exc = TransactionAborted("deadlock avoided, retry")
    _, payload, _ = protocol.decode_frame(protocol.encode_error(exc, True))
    out = protocol.decode_error(payload)
    assert out["error_class"] == "TransactionAborted"
    assert out["sqlstate"] == "40001"
    assert out["in_transaction"] is True
    rebuilt = protocol.reconstruct_error(
        out["error_class"], out["sqlstate"], out["message"]
    )
    assert isinstance(rebuilt, TransactionAborted)
    assert rebuilt.sqlstate == "40001"
    assert "retry" in str(rebuilt)


def test_reconstruct_error_every_repro_exception():
    """Every exception class the engine can raise must reconstruct to
    itself or a constructible ancestor — ``except`` clauses over the
    errors.py hierarchy must keep working across the wire."""
    for name in dir(errors):
        cls = getattr(errors, name)
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            continue
        rebuilt = protocol.reconstruct_error(name, "XX000", "boom")
        assert isinstance(rebuilt, ReproError)
        # The rebuilt error is the class itself, or an ancestor of it
        # (for classes whose __init__ needs extra arguments).
        assert isinstance(rebuilt, cls) or issubclass(cls, type(rebuilt))


def test_reconstruct_error_unknown_class_degrades():
    rebuilt = protocol.reconstruct_error("NoSuchError", "XX000", "boom")
    assert type(rebuilt) is ReproError
    rebuilt = protocol.reconstruct_error("SchemaVersionError", "BF001", "old")
    assert isinstance(rebuilt, SchemaVersionError)


def test_sqlstate_walks_mro():
    class SubViolation(errors.UniqueViolation):
        pass

    assert protocol.sqlstate_for(SubViolation("x")) == "23505"
    assert protocol.sqlstate_for(ValueError("x")) == "XX000"


# ----------------------------------------------------------------------
# Adversarial input: truncation and garbage
# ----------------------------------------------------------------------

_sample_frames = [
    protocol.encode_hello(),
    protocol.encode_welcome("1.0.0", 3, 9),
    protocol.encode_query("SELECT * FROM t WHERE id = ?", (17, "x", None)),
    protocol.encode_row_header("SELECT", ["id", "v"]),
    protocol.encode_row_batch([(1, "a"), (2, None)]),
    protocol.encode_complete("SELECT", 2, False, 3),
    protocol.encode_error(TransactionAborted("x"), False),
    protocol.encode_meta("metrics"),
    protocol.encode_meta_result("text"),
    protocol.encode_parse("q1", "SELECT * FROM t WHERE id = ?"),
    protocol.encode_parse_ok("q1"),
    protocol.encode_execute("q1", (17, None)),
    # Trace-trailer variants: the optional trailer must obey the same
    # truncation/garbage discipline as every fixed field.
    protocol.encode_welcome("1.0.0", 3, 9, capabilities=protocol.CAP_TRACE),
    protocol.encode_query("SELECT 1", (), trace=(12345, 678)),
    protocol.encode_txn(protocol.TXN_BEGIN, trace=(1, 2)),
    protocol.encode_execute("q1", (17, None), trace=(9, 9)),
]

_decoders = {
    protocol.HELLO: protocol.decode_hello,
    protocol.WELCOME: protocol.decode_welcome,
    protocol.QUERY: protocol.decode_query,
    protocol.ROW_HEADER: protocol.decode_row_header,
    protocol.ROW_BATCH: protocol.decode_row_batch,
    protocol.COMPLETE: protocol.decode_complete,
    protocol.ERROR: protocol.decode_error,
    protocol.META: protocol.decode_meta,
    protocol.META_RESULT: protocol.decode_meta_result,
    protocol.TXN: protocol.decode_txn,
    protocol.PONG: protocol.decode_pong,
    protocol.PARSE: protocol.decode_parse,
    protocol.PARSE_OK: protocol.decode_parse_ok,
    protocol.EXECUTE: protocol.decode_execute,
}


@pytest.mark.parametrize("frame", _sample_frames, ids=lambda f: f"0x{f[0]:02x}")
def test_truncated_payload_always_protocol_error(frame):
    ftype, payload, _ = protocol.decode_frame(frame)
    decoder = _decoders[ftype]
    # Optional trailers are exactly "the frame an old peer would have
    # sent": cutting a traced frame at the pre-trailer boundary yields
    # a *valid* untraced frame, not garbage.  Every other cut must
    # still raise.
    full = decoder(payload)
    boundary_cuts = set()
    if isinstance(full, dict):
        if full.get("trace") is not None:
            boundary_cuts.add(len(payload) - 17)  # marker + 2 x i64
        if full.get("capabilities"):
            boundary_cuts.add(len(payload) - 1)  # capabilities u8
    for cut in range(len(payload)):
        if cut in boundary_cuts:
            assert decoder(payload[:cut]) is not None
            continue
        with pytest.raises(ProtocolError):
            decoder(payload[:cut])


@pytest.mark.parametrize("frame", _sample_frames, ids=lambda f: f"0x{f[0]:02x}")
def test_trailing_garbage_rejected(frame):
    ftype, payload, _ = protocol.decode_frame(frame)
    # WELCOME treats a single trailing byte as its optional
    # capabilities trailer; anything beyond that is garbage.
    garbage = b"\x00\x00" if ftype == protocol.WELCOME else b"\x00"
    with pytest.raises(ProtocolError):
        _decoders[ftype](payload + garbage)


@_settings
@given(data=st.binary(max_size=400))
def test_decode_frame_never_overreads(data):
    """decode_frame on arbitrary bytes: complete frame, None (need more
    bytes), or ProtocolError — never struct.error, never a next_pos
    beyond the buffer."""
    try:
        decoded = protocol.decode_frame(data)
    except ProtocolError:
        return
    if decoded is not None:
        ftype, payload, next_pos = decoded
        assert ftype in protocol.FRAME_TYPES
        assert next_pos <= len(data)
        assert len(payload) <= protocol.MAX_FRAME


@_settings
@given(ftype=st.sampled_from(sorted(_decoders)), data=st.binary(max_size=300))
def test_payload_decoders_raise_only_protocol_error(ftype, data):
    try:
        _decoders[ftype](data)
    except ProtocolError:
        pass  # the only acceptable failure mode


def test_oversized_frame_rejected_without_buffering():
    header = protocol._HEADER.pack(protocol.QUERY, protocol.MAX_FRAME + 1)
    with pytest.raises(ProtocolError):
        protocol.decode_frame(header + b"xx")
    with pytest.raises(ProtocolError):
        protocol.encode_frame(protocol.QUERY, b"\x00" * (protocol.MAX_FRAME + 1))


def test_unknown_frame_type_rejected():
    with pytest.raises(ProtocolError):
        protocol.decode_frame(protocol._HEADER.pack(0x7F, 0))


# ----------------------------------------------------------------------
# FrameStream reassembly
# ----------------------------------------------------------------------


class _ScriptedSocket:
    """A socket stand-in that returns pre-cut chunks from recv()."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.sent = b""

    def recv(self, n):
        if not self.chunks:
            return b""
        return self.chunks.pop(0)

    def sendall(self, data):
        self.sent += data


@_settings
@given(data=st.data(), rows=st.lists(row_strategy, min_size=1, max_size=4))
def test_framestream_reassembles_any_chunking(data, rows):
    frames = [
        protocol.encode_query("SELECT 1"),
        protocol.encode_row_batch(rows),
        protocol.encode_complete("SELECT", len(rows), False, 0),
    ]
    wire = b"".join(frames)
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(wire)), max_size=12
            )
        )
    )
    chunks, prev = [], 0
    for cut in cuts + [len(wire)]:
        if cut > prev:
            chunks.append(wire[prev:cut])
            prev = cut
    stream = protocol.FrameStream(_ScriptedSocket(chunks))
    seen = []
    while True:
        frame = stream.recv_frame()
        if frame is None:
            break
        seen.append(frame)
    assert [f[0] for f in seen] == [
        protocol.QUERY, protocol.ROW_BATCH, protocol.COMPLETE,
    ]
    assert protocol.decode_row_batch(seen[1][1]) == [tuple(r) for r in rows]


def test_framestream_eof_mid_frame_raises():
    frame = protocol.encode_query("SELECT 1")
    stream = protocol.FrameStream(_ScriptedSocket([frame[: len(frame) - 2]]))
    with pytest.raises(ProtocolError):
        stream.recv_frame()


def test_framestream_clean_eof_returns_none():
    stream = protocol.FrameStream(_ScriptedSocket([]))
    assert stream.recv_frame() is None


# ----------------------------------------------------------------------
# Forward compatibility: unknown vocabulary against a live server
# ----------------------------------------------------------------------
# The protocol evolves by vocabulary, not by frame layout: new META
# verbs (``epoch``, ``shards``, ...) and new HELLO options ride the
# existing frames.  The compatibility contract, exercised on both
# peer-version axes:
#
# * new client -> old server: unknown META verbs come back as a
#   ProtocolError ERROR frame and the connection keeps working;
# * old client -> new server: a HELLO without the options trailer is
#   accepted, and the WELCOME carries no capabilities trailer;
# * new client -> old server: unknown HELLO option keys are *ignored*
#   (never echoed as capabilities, never an error).

import socket as _socket

from repro.db import Database
from repro.net import BullfrogServer, ServerConfig, connect

_fc_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

# First words the server (and the cluster router) currently accept;
# the strategies below generate anything *but* these.
_KNOWN_META = frozenset({
    "metrics", "progress", "tables", "top", "history", "health",
    "healthz", "dump", "describe", "epoch", "migrate", "shards",
    "cluster",
})
_KNOWN_HELLO_OPTIONS = frozenset({"isolation", "trace"})

_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=16
)


@pytest.fixture(scope="module")
def fc_server():
    server = BullfrogServer(
        Database(), ServerConfig(port=0, monitor=False)
    ).start()
    yield server
    server.shutdown()


@_fc_settings
@given(verb=_word.filter(lambda v: v not in _KNOWN_META))
def test_unknown_meta_verb_rejected_connection_survives(fc_server, verb):
    with connect(port=fc_server.port) as conn:
        with pytest.raises(ProtocolError) as excinfo:
            conn.meta(verb)
        assert "unknown meta command" in str(excinfo.value)
        # A vocabulary miss is a statement-level error, not a
        # connection-level one: the same connection keeps working.
        assert conn.execute("SELECT 1").rows == [(1,)]


def test_bad_migrate_delay_rejected_connection_survives(fc_server):
    """A malformed verb argument is a vocabulary miss like any other:
    an error reply for the statement, not ``internal_error`` and a
    retired connection (the pre-fix outcome of the bare ``float()``)."""
    with connect(port=fc_server.port) as conn:
        with pytest.raises(ProtocolError, match="bad migrate delay"):
            conn.meta("migrate split nope")
        assert conn.ping() is True
        assert conn.execute("SELECT 1").rows == [(1,)]


def _raw_handshake(port, hello_frame):
    sock = _socket.create_connection(("127.0.0.1", port), timeout=10)
    stream = protocol.FrameStream(sock)
    stream.send_frame(hello_frame)
    frame = stream.recv_frame()
    assert frame is not None
    return sock, stream, frame


@_fc_settings
@given(
    options=st.dictionaries(
        _word.filter(lambda k: k not in _KNOWN_HELLO_OPTIONS),
        st.text(max_size=10),
        max_size=5,
    )
)
def test_unknown_hello_options_ignored(fc_server, options):
    """A newer client advertising options this server has never heard
    of gets a plain WELCOME: no error, no capability echo."""
    sock, stream, (ftype, payload) = _raw_handshake(
        fc_server.port,
        protocol.encode_hello("newer-client", options=options),
    )
    try:
        assert ftype == protocol.WELCOME
        out = protocol.decode_welcome(payload)
        assert out.get("capabilities", 0) == 0
        # The session works normally after the ignored options.
        stream.send_frame(protocol.encode_query("SELECT 1"))
        seen = []
        while True:
            frame = stream.recv_frame()
            assert frame is not None
            seen.append(frame[0])
            if frame[0] in (protocol.COMPLETE, protocol.ERROR):
                break
        assert seen[-1] == protocol.COMPLETE
    finally:
        sock.close()


def test_old_client_short_hello_accepted(fc_server):
    """A pre-options client (payload stops after client_name) must be
    welcomed byte-identically to how old servers welcomed it."""
    sock, stream, (ftype, payload) = _raw_handshake(
        fc_server.port, protocol.encode_hello("old-client")
    )
    try:
        assert ftype == protocol.WELCOME
        out = protocol.decode_welcome(payload)
        assert out.get("capabilities", 0) == 0
        assert out["schema_epoch"] == 0
    finally:
        sock.close()


@_fc_settings
@given(arg=_word.filter(
    lambda v: v not in {"status", "prepare", "commit", "abort"}
))
def test_unknown_epoch_subverb_rejected(fc_server, arg):
    """The cluster verbs are vocabulary too: ``epoch`` with an unknown
    sub-verb must fail the statement, not the connection."""
    with connect(port=fc_server.port) as conn:
        with pytest.raises(ProtocolError):
            conn.meta(f"epoch {arg} tok")
        assert conn.execute("SELECT 1").rows == [(1,)]
