"""``repro.net.session.WireSession``: bullfrogd's session protocol with
no socket, no thread and no server.  Frames go in as decoded
``(type, payload)`` pairs; replies come out of a list sink."""

import ast
import inspect
import time

import pytest

from repro import Database
from repro.errors import ProtocolError
from repro.net import protocol
from repro.net import session as wire_session
from repro.net.session import WireSession


def frames_of(data):
    """Split joined reply bytes back into ``(type, payload)`` frames."""
    out, pos = [], 0
    while (decoded := protocol.decode_frame(data, pos)) is not None:
        ftype, payload, pos = decoded
        out.append((ftype, payload))
    assert pos == len(data)
    return out


class Wire:
    """A machine over a fresh database, with a list as its sink."""

    def __init__(self, db=None):
        self.db = db or Database()
        self.sent = []  # (data, frames) per sink call
        self.machine = WireSession(self.db.connect(), 7, self.sink)

    def sink(self, data, frames):
        self.sent.append((data, frames))
        return 0

    def feed(self, frame):
        ftype, payload, _ = protocol.decode_frame(frame)
        return self.machine.feed(ftype, payload, time.perf_counter())

    def replies(self):
        """Every reply frame since the last call; checks each sink call's
        frame count against the frames it carried."""
        out = []
        for data, count in self.sent:
            got = frames_of(data)
            assert len(got) == count
            out.extend(got)
        self.sent.clear()
        return out


@pytest.fixture
def wire():
    w = Wire()
    seed = w.db.connect()
    seed.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for k in (1, 2, 3):
        seed.execute("INSERT INTO kv VALUES (?, ?)", (k, k * 10))
    assert w.feed(protocol.encode_hello()) is None
    ((ftype, payload),) = w.replies()
    assert ftype == protocol.WELCOME
    assert protocol.decode_welcome(payload)["session_id"] == 7
    return w


def test_hello_is_answered_by_welcome(wire):
    assert wire.machine.greeted


def test_parse_and_three_pipelined_executes_reply_in_order(wire):
    assert wire.feed(
        protocol.encode_parse("get", "SELECT v FROM kv WHERE k = ?")
    ) is None
    for k in (3, 1, 2):
        assert wire.feed(protocol.encode_execute("get", [k])) is None
    # One sink call per reply: a whole reply is one write.
    assert [count for _, count in wire.sent] == [1, 3, 3, 3]
    replies = wire.replies()
    assert [f for f, _ in replies] == [protocol.PARSE_OK] + [
        protocol.ROW_HEADER, protocol.ROW_BATCH, protocol.COMPLETE,
    ] * 3
    assert [
        protocol.decode_row_batch(p)
        for f, p in replies if f == protocol.ROW_BATCH
    ] == [[(30,)], [(10,)], [(20,)]]
    assert wire.machine.statements == 3


def test_transaction_flags_ride_on_complete(wire):
    flags = []
    for frame in (
        protocol.encode_txn(protocol.TXN_BEGIN),
        protocol.encode_query("UPDATE kv SET v = v + 1 WHERE k = 1"),
        protocol.encode_txn(protocol.TXN_COMMIT),
    ):
        assert wire.feed(frame) is None
        ((ftype, payload),) = wire.replies()
        assert ftype == protocol.COMPLETE
        flags.append(protocol.decode_complete(payload)["in_transaction"])
    assert flags == [True, True, False]
    assert wire.machine.transactions == 1
    assert wire.db.connect().execute("SELECT v FROM kv WHERE k = 1").scalar() == 11


def test_unknown_prepared_name_is_an_error_and_the_connection_lives(wire):
    assert wire.feed(protocol.encode_execute("nope", [1])) is None
    ((ftype, payload),) = wire.replies()
    assert ftype == protocol.ERROR
    assert "nope" in protocol.decode_error(payload)["message"]
    assert wire.feed(protocol.encode_ping()) is None
    assert [f for f, _ in wire.replies()] == [protocol.PONG]


def test_first_frame_must_be_hello():
    w = Wire()
    assert w.feed(protocol.encode_ping()) == "protocol_error"
    ((ftype, payload),) = w.replies()
    assert ftype == protocol.ERROR
    assert protocol.decode_error(payload)["sqlstate"] == "08P01"


def test_close_retires_the_connection(wire):
    assert wire.feed(protocol.encode_close()) == "client_close"
    assert wire.replies() == []


def test_a_dead_sink_retires_the_connection(wire):
    def dead(data, frames):
        raise OSError("connection was killed")

    wire.machine.sink = dead
    assert wire.feed(protocol.encode_query("SELECT 1")) == "abrupt_disconnect"
    wire.machine.farewell(ProtocolError("bye"))  # best effort: swallowed


def test_the_machine_imports_no_socket_or_thread_module():
    tree = ast.parse(inspect.getsource(wire_session))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {
        "socket", "select", "selectors", "threading", "concurrent",
    }

