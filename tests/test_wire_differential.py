"""Differential test: the production wire codec against the reference.

:mod:`tests.wire_reference` is the field-at-a-time ``_Writer`` /
``_Reader`` codec; :mod:`repro.net.protocol` is the table-driven one
that replaced it.  The wire must not change, so every ``encode_*``
must produce the reference's bytes, and every ``decode_*`` must accept
exactly what the reference accepts — returning the same values — and
reject (with ``ProtocolError``) exactly what it rejects: on every
prefix of a valid payload, on single-byte corruptions and on random
bytes.
"""

import datetime
import enum
import math
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ProtocolError, TransactionAborted, UniqueViolation
from repro.net import protocol

from . import wire_reference as reference

_settings = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _Int(int):
    """An int subclass: takes the encoder table's fallback path."""


class _Color(enum.IntEnum):
    RED = 1
    HUGE = 2**70


class _Str(str):
    pass


class _Float(float):
    pass


class _Date(datetime.date):
    pass


class _DateTime(datetime.datetime):
    pass


_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_BIG = st.one_of(
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63) - 1),
)

# Every value kind, with the edges a table-driven codec could get
# wrong: the 64-bit boundary, NaN / -0.0 / inf, Decimal NaN / sNaN,
# non-ASCII text, naive and aware datetimes, bool (an int subclass that
# must not encode as one), and subclasses of int / str / float / date /
# datetime.
value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    _I64,
    _BIG,
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
    st.floats(),
    st.sampled_from([float("nan"), -0.0, float("inf"), float("-inf")]),
    st.decimals(),
    st.sampled_from([
        Decimal("NaN"), Decimal("-NaN"), Decimal("sNaN"), Decimal("-0"),
        Decimal("Infinity"), Decimal("1E+30"),
    ]),
    st.text(max_size=40),
    st.sampled_from(["", "naïve — ünïcode 🐸", "\x00"]),
    st.dates(),
    st.datetimes(),
    st.datetimes(timezones=st.just(datetime.timezone.utc)),
    _I64.map(_Int),
    st.sampled_from(list(_Color)),
    st.text(max_size=10).map(_Str),
    st.floats(allow_nan=False).map(_Float),
    st.dates().map(lambda d: _Date(d.year, d.month, d.day)),
    st.datetimes().map(
        lambda d: _DateTime(d.year, d.month, d.day, d.hour, d.minute, d.second)
    ),
)
row_strategy = st.lists(value_strategy, max_size=8).map(tuple)
text = st.text(max_size=30)
trace_strategy = st.none() | st.tuples(_I64, _I64)


def _canon(value):
    """A comparable form: NaN equals NaN, -0.0 differs from 0.0, and
    the type of every scalar is part of its identity."""
    if isinstance(value, dict):
        return ("dict", tuple((k, _canon(v)) for k, v in sorted(value.items())))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canon(v) for v in value))
    if isinstance(value, (float, Decimal)):
        return (type(value).__name__, repr(value))
    return (type(value).__name__, value)


def _outcome(decode, payload):
    try:
        return ("ok", _canon(decode(payload)))
    except ProtocolError:
        return ("rejected", None)


def _encoded(encode, *args, **kwargs):
    try:
        return encode(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc)


# ----------------------------------------------------------------------
# Encoders: byte-identical
# ----------------------------------------------------------------------


@_settings
@given(rows=st.lists(row_strategy, max_size=6))
def test_row_batch_bytes_match_reference(rows):
    assert protocol.encode_row_batch(rows) == reference.encode_row_batch(rows)


@_settings
@given(sql=text, params=row_strategy, trace=trace_strategy)
def test_request_bytes_match_reference(sql, params, trace):
    assert protocol.encode_query(sql, params, trace) == reference.encode_query(
        sql, params, trace
    )
    assert protocol.encode_execute(sql, params, trace) == (
        reference.encode_execute(sql, params, trace)
    )
    for op in (protocol.TXN_BEGIN, protocol.TXN_COMMIT, protocol.TXN_ROLLBACK):
        assert protocol.encode_txn(op, trace) == reference.encode_txn(op, trace)


@_settings
@given(
    name=text,
    sql=text,
    columns=st.lists(text, max_size=6),
    rowcount=_I64,
    flag=st.booleans(),
    epoch=_I64,
    version=st.integers(min_value=0, max_value=2**16 - 1),
    capabilities=st.integers(min_value=0, max_value=255),
    options=st.none() | st.dictionaries(text, text, max_size=4),
)
def test_other_frame_bytes_match_reference(
    name, sql, columns, rowcount, flag, epoch, version, capabilities, options
):
    pairs = [
        ("encode_hello", (name, version, options)),
        ("encode_welcome", (name, epoch, rowcount, version, capabilities)),
        ("encode_parse", (name, sql)),
        ("encode_parse_ok", (name,)),
        ("encode_meta", (sql,)),
        ("encode_meta_result", (sql,)),
        ("encode_row_header", (name, columns)),
        ("encode_complete", (name, rowcount, flag, epoch)),
        ("encode_error", (UniqueViolation(sql), flag)),
        ("encode_error", (TransactionAborted(name), flag)),
        ("encode_pong", (epoch,)),
        ("encode_ping", ()),
        ("encode_close", ()),
    ]
    for attr, args in pairs:
        assert getattr(protocol, attr)(*args) == getattr(reference, attr)(*args), attr


def test_every_codec_has_a_reference():
    ours = {name for name in dir(protocol) if name.startswith(("encode_", "decode_"))}
    theirs = {name for name in dir(reference) if name.startswith(("encode_", "decode_"))}
    assert ours == theirs


@pytest.mark.parametrize("bad", [object(), b"bytes", [1], 1j])
def test_unencodable_values_rejected_like_the_reference(bad):
    assert _encoded(protocol.encode_row_batch, [(1, bad)]) is ProtocolError
    assert _encoded(reference.encode_row_batch, [(1, bad)]) is ProtocolError


@pytest.mark.parametrize("kwargs", [
    {"capabilities": 256}, {"capabilities": -1}, {"version": 2**16},
])
def test_out_of_range_fields_fail_like_the_reference(kwargs):
    args = ("v", 0, 0)
    assert _encoded(protocol.encode_welcome, *args, **kwargs) is _encoded(
        reference.encode_welcome, *args, **kwargs
    )


# ----------------------------------------------------------------------
# Decoders: same accept/reject set, same values
# ----------------------------------------------------------------------

_DECODERS = {
    protocol.HELLO: "decode_hello",
    protocol.WELCOME: "decode_welcome",
    protocol.QUERY: "decode_query",
    protocol.PARSE: "decode_parse",
    protocol.PARSE_OK: "decode_parse_ok",
    protocol.EXECUTE: "decode_execute",
    protocol.TXN: "decode_txn",
    protocol.META: "decode_meta",
    protocol.META_RESULT: "decode_meta_result",
    protocol.ROW_HEADER: "decode_row_header",
    protocol.ROW_BATCH: "decode_row_batch",
    protocol.COMPLETE: "decode_complete",
    protocol.ERROR: "decode_error",
    protocol.PONG: "decode_pong",
}

frame_strategy = st.one_of(
    st.builds(
        reference.encode_hello, text,
        st.integers(min_value=0, max_value=2**16 - 1),
        st.none() | st.dictionaries(text, text, max_size=3),
    ),
    st.builds(
        reference.encode_welcome, text, _I64, _I64,
        capabilities=st.integers(min_value=0, max_value=255),
    ),
    st.builds(reference.encode_query, text, row_strategy, trace_strategy),
    st.builds(reference.encode_parse, text, text),
    st.builds(reference.encode_parse_ok, text),
    st.builds(reference.encode_execute, text, row_strategy, trace_strategy),
    st.builds(
        reference.encode_txn,
        st.sampled_from([1, 2, 3, 0, 9, 255]), trace_strategy,
    ),
    st.builds(reference.encode_meta, text),
    st.builds(reference.encode_meta_result, text),
    st.builds(reference.encode_row_header, text, st.lists(text, max_size=4)),
    st.builds(reference.encode_row_batch, st.lists(row_strategy, max_size=4)),
    st.builds(reference.encode_complete, text, _I64, st.booleans(), _I64),
    st.builds(
        reference.encode_error,
        st.builds(UniqueViolation, text), st.booleans(),
    ),
    st.builds(reference.encode_pong, _I64),
)


def _assert_same(ftype, payload):
    attr = _DECODERS[ftype]
    ours = _outcome(getattr(protocol, attr), payload)
    theirs = _outcome(getattr(reference, attr), payload)
    assert ours == theirs, (attr, payload)


def _probes(byte):
    """Replacement values for one byte: ones that flip flags, tags,
    booleans and length fields."""
    return {0x00, 0x01, 0x02, 0xFF, (byte + 1) % 256} - {byte}


def _assert_same_everywhere(frame):
    """Every prefix of the payload, every prefix with its last byte
    replaced, every byte of the whole payload replaced, and the payload
    with bytes appended."""
    ftype, payload, _ = reference.decode_frame(frame)
    for cut in range(len(payload) + 1):
        _assert_same(ftype, payload[:cut])
        if cut:
            for value in _probes(payload[cut - 1]):
                _assert_same(ftype, payload[: cut - 1] + bytes((value,)))
    for index, byte in enumerate(payload):
        for value in _probes(byte):
            _assert_same(
                ftype, payload[:index] + bytes((value,)) + payload[index + 1:]
            )
    _assert_same(ftype, payload + b"\x00")
    _assert_same(ftype, payload + b"\x01" + bytes(16))


# One frame of every kind, each row holding one value of every kind:
# the corruption sweep is only as strong as the fields it has to flip.
_EVERY_VALUE = (
    None, True, False, 7, -(2**63), 2**70, 1.5, float("nan"), -0.0,
    Decimal("1.25"), Decimal("sNaN"), "naïve", datetime.date(2024, 2, 29),
    datetime.datetime(2024, 2, 29, 12, 30, 1, 5),
    datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc),
    _Int(3), _Str("s"),
)
_RICH_FRAMES = [
    reference.encode_hello("client", 1, {"isolation": "snapshot"}),
    reference.encode_welcome("1.0", 3, 9, capabilities=protocol.CAP_TRACE),
    reference.encode_query("SELECT ?", _EVERY_VALUE, (5, 6)),
    reference.encode_parse("p", "SELECT 1"),
    reference.encode_parse_ok("p"),
    reference.encode_execute("p", _EVERY_VALUE),
    reference.encode_execute("p", (), (1, 2)),
    reference.encode_txn(protocol.TXN_COMMIT, (3, 4)),
    reference.encode_meta("progress"),
    reference.encode_meta_result("text"),
    reference.encode_row_header("SELECT", ["a", "b"]),
    reference.encode_row_batch([_EVERY_VALUE, (), (1,)]),
    reference.encode_complete("SELECT", 3, True, 9),
    reference.encode_error(UniqueViolation("dup"), True),
    reference.encode_pong(5),
]


@pytest.mark.parametrize("frame", _RICH_FRAMES, ids=lambda f: f"0x{f[0]:02x}")
def test_decoders_match_reference_on_every_kind_of_field(frame):
    _assert_same_everywhere(frame)


@settings(_settings, max_examples=60)
@given(frame=frame_strategy)
def test_decoders_match_reference_on_generated_frames(frame):
    _assert_same_everywhere(frame)


@_settings
@given(ftype=st.sampled_from(sorted(_DECODERS)), data=st.binary(max_size=120))
def test_decoders_match_reference_on_random_bytes(ftype, data):
    _assert_same(ftype, data)


@_settings
@given(data=st.binary(max_size=80), pos=st.integers(min_value=0, max_value=8))
def test_decode_frame_matches_reference(data, pos):
    def outcome(decode):
        try:
            return ("ok", decode(data, pos))
        except ProtocolError:
            return ("rejected", None)

    assert outcome(protocol.decode_frame) == outcome(reference.decode_frame)


def test_canon_tells_nan_and_signed_zero_apart():
    # The comparison above is only as strong as this normal form.
    assert _canon(float("nan")) == _canon(float("nan"))
    assert _canon(-0.0) != _canon(0.0)
    assert _canon(True) != _canon(1)
    assert _canon(Decimal("1")) != _canon(1.0)
    assert math.isnan(protocol.decode_row_batch(
        protocol.decode_frame(protocol.encode_row_batch([(float("nan"),)]))[1]
    )[0][0])
