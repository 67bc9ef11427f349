"""Integration tests for ``bullfrogd``: server, client, pool, and the
networked TPC-C path through a live lazy migration.

Every test runs a real server on an ephemeral loopback port — no mocks
between the client library and the session layer, so these exercise
the same code paths as ``python -m repro.net``.
"""

import socket
import threading
import time

import pytest

from repro import Database
from repro.core import (
    BackgroundConfig,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    MigrationController,
    Strategy,
)
from repro.db import Session
from repro.errors import (
    ConnectionClosedError,
    IdleTimeoutError,
    NetworkError,
    ParseError,
    ProtocolError,
    ReproError,
    SchemaVersionError,
    ServerBusyError,
    ServerShutdownError,
    SessionClosed,
    UniqueViolation,
)
from repro.net import (
    BullfrogServer,
    Connection,
    ConnectionPool,
    NetworkTpccClient,
    ServerConfig,
    connect,
)
from repro.net import protocol
from repro.obs import Observability
from repro.testing import InvariantChecker
from repro.tpcc import SCENARIOS, SchemaVariant, create_schema, load_tpcc

from .conftest import TINY_SCALE


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@pytest.fixture
def server():
    """A running server over a fresh instrumented database; yields
    ``(db, server)`` and guarantees shutdown."""
    db = Database(obs=Observability())
    srv = BullfrogServer(db, ServerConfig(port=0)).start()
    try:
        yield db, srv
    finally:
        srv.shutdown(drain_timeout=1.0)


def start_server(db=None, **cfg):
    db = db or Database(obs=Observability())
    faults = cfg.pop("faults", None)
    srv = BullfrogServer(db, ServerConfig(port=0, **cfg), faults=faults)
    return db, srv.start()


def seed_table(conn):
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    conn.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
    conn.execute("INSERT INTO t VALUES (?, ?)", (2, "two"))


def active_txn_count(db):
    """ACTIVE transactions that own work (locks or redo)."""
    s = db.connect()
    rows = s.execute("SELECT * FROM bullfrog_stat_activity").dicts()
    return sum(1 for r in rows if r["locks_held"] or r["redo_records"])


def held_lock_count(db):
    s = db.connect()
    rows = s.execute("SELECT * FROM bullfrog_stat_locks").dicts()
    return sum(1 for r in rows if r["holders"])


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Session lifecycle satellites (close/reset/context manager)
# ----------------------------------------------------------------------


def test_session_close_is_idempotent(db):
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    session.close()
    session.close()  # second close is a no-op
    assert session.closed
    with pytest.raises(SessionClosed):
        session.execute("SELECT * FROM t")
    with pytest.raises(SessionClosed):
        session.begin()


def test_session_close_aborts_open_transaction(db):
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO t VALUES (1, 10)")
    session.begin()
    session.execute("UPDATE t SET v = 99 WHERE id = 1")
    session.close()
    assert active_txn_count(db) == 0
    assert held_lock_count(db) == 0
    other = db.connect()
    assert other.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]


def test_session_context_manager(db):
    with db.connect() as session:
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    assert session.closed


def test_session_reset_clears_transaction(db):
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO t VALUES (1, 10)")
    session.begin()
    session.execute("UPDATE t SET v = 99 WHERE id = 1")
    session.reset()
    assert not session.in_transaction
    assert session.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]
    session.reset()  # idempotent outside a transaction too


# ----------------------------------------------------------------------
# Basic round trips
# ----------------------------------------------------------------------


def test_query_roundtrip_over_socket(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        assert conn.session_id > 0
        seed_table(conn)
        result = conn.execute("SELECT * FROM t WHERE id = ?", (1,))
        assert result.statement == "SELECT"
        assert result.columns == ["id", "v"]
        assert result.rows == [(1, "one")]
        conn.execute("INSERT INTO t VALUES (?, ?)", (3, None))
        assert conn.execute(
            "SELECT v FROM t WHERE id = 3"
        ).rows == [(None,)]


def test_large_result_streams_in_batches(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        conn.execute("CREATE TABLE big (id INT PRIMARY KEY, v TEXT)")
        with conn.transaction():
            for i in range(700):  # > batch_rows=256 → several ROW_BATCHes
                conn.execute("INSERT INTO big VALUES (?, ?)", (i, f"v{i}"))
        result = conn.execute("SELECT * FROM big")
        assert len(result.rows) == 700
        assert sorted(r[0] for r in result.rows) == list(range(700))


def test_typed_errors_survive_the_wire(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        with pytest.raises(UniqueViolation) as info:
            conn.execute("INSERT INTO t VALUES (1, 'dup')")
        assert info.value.sqlstate == "23505"
        # An error must not poison the connection.
        assert conn.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        with pytest.raises(ReproError):
            conn.execute("SELECT FROM WHERE !!!")
        assert conn.ping()


def test_transactions_are_server_authoritative(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        conn.begin()
        assert conn.in_transaction
        conn.execute("UPDATE t SET v = 'changed' WHERE id = 1")
        conn.rollback()
        assert not conn.in_transaction
        assert conn.execute(
            "SELECT v FROM t WHERE id = 1"
        ).rows == [("one",)]
        with conn.transaction():
            conn.execute("UPDATE t SET v = 'committed' WHERE id = 1")
        assert conn.execute(
            "SELECT v FROM t WHERE id = 1"
        ).rows == [("committed",)]


def test_transaction_context_manager_rolls_back_on_error(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        with pytest.raises(UniqueViolation):
            with conn.transaction():
                conn.execute("UPDATE t SET v = 'x' WHERE id = 1")
                conn.execute("INSERT INTO t VALUES (2, 'dup')")
        assert not conn.in_transaction
        assert conn.execute(
            "SELECT v FROM t WHERE id = 1"
        ).rows == [("one",)]


def test_meta_passthrough(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        assert "t" in conn.meta("tables")
        assert "id" in conn.meta("describe t")
        assert "repro_net_connections_accepted_total" in conn.meta("metrics")
        assert '"repro_net' in conn.meta("metrics json")
        assert "no migration" in conn.meta("progress")
        with pytest.raises(ProtocolError):
            conn.meta("no-such-command")


def test_schema_epoch_piggybacks_on_responses(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        epoch0 = conn.schema_epoch
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")  # bumps epoch
        assert conn.schema_epoch > epoch0


# ----------------------------------------------------------------------
# Admission control + lifecycle
# ----------------------------------------------------------------------


def test_admission_control_rejects_with_busy_frame():
    db, srv = start_server(max_connections=2)
    try:
        c1 = connect("127.0.0.1", srv.port)
        c2 = connect("127.0.0.1", srv.port)
        with pytest.raises(ServerBusyError):
            connect("127.0.0.1", srv.port)
        c1.close()
        # A freed slot admits again (deregistration is async).
        assert wait_until(lambda: srv.active_connections() < 2)
        c3 = connect("127.0.0.1", srv.port)
        c3.close()
        c2.close()
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_abrupt_disconnect_releases_locks_and_txns(server):
    """A client killed mid-transaction must leave no ACTIVE transaction
    and no held locks behind (ISSUE acceptance criterion)."""
    db, srv = server
    conn = connect("127.0.0.1", srv.port)
    seed_table(conn)
    conn.begin()
    conn.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
    assert active_txn_count(db) == 1
    assert held_lock_count(db) > 0
    conn._sock.close()  # abrupt: no CLOSE frame, no rollback
    assert wait_until(
        lambda: active_txn_count(db) == 0 and held_lock_count(db) == 0
    )
    # The row is untouched and writable by others.
    other = db.connect()
    assert other.execute("SELECT v FROM t WHERE id = 1").rows == [("one",)]
    other.execute("UPDATE t SET v = 'mine' WHERE id = 1")


def test_network_stat_view(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        rows = conn.execute("SELECT * FROM bullfrog_stat_network").dicts()
        assert len(rows) == 1
        row = rows[0]
        assert row["conn_id"] == conn.session_id
        assert row["statements"] >= 3
        assert row["bytes_in"] > 0 and row["bytes_out"] > 0
    assert wait_until(lambda: srv.active_connections() == 0)
    local = db.connect()
    assert local.execute("SELECT * FROM bullfrog_stat_network").rows == []


def test_unparsable_query_is_counted_like_any_statement(server):
    """QUERY and EXECUTE share one statement path, so SQL that fails to
    parse is that statement's error: counted, and the connection goes
    on."""
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        def statements():
            return conn.execute(
                "SELECT statements FROM bullfrog_stat_network"
            ).scalar()

        before = statements()
        with pytest.raises(ParseError):
            conn.execute("SELEC nonsense")
        assert statements() == before + 2
        assert conn.execute("SELECT 1").rows == [(1,)]


def test_idle_timeout_reaps_connection():
    db, srv = start_server(idle_timeout=0.15)
    try:
        conn = connect("127.0.0.1", srv.port)
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        time.sleep(0.5)
        with pytest.raises((IdleTimeoutError, ConnectionClosedError)):
            conn.execute("SELECT * FROM t")
        assert conn.closed
        assert wait_until(lambda: srv.active_connections() == 0)
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_statement_timeout_kills_connection():
    db, srv = start_server(statement_timeout=0.1)
    session = db.connect()
    session.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
    for i in range(800):
        session.execute("INSERT INTO big VALUES (?, ?)", (i, i))
    try:
        conn = connect("127.0.0.1", srv.port)
        # A quick statement is fine under the timeout...
        conn.execute("SELECT COUNT(*) FROM big WHERE id = 1")
        # ...but a quadratic self-join (~0.7s at 800 rows) is not.
        with pytest.raises(
            (ReproError, ConnectionClosedError)
        ):
            conn.execute(
                "SELECT COUNT(*) FROM big a JOIN big b ON a.v < b.v"
            )
            pytest.fail("statement survived the timeout")  # pragma: no cover
        assert wait_until(lambda: active_txn_count(db) == 0)
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_statement_timeout_rides_the_tick_not_a_timer(monkeypatch):
    """The statement timeout is enforced by the event loop's
    bookkeeping tick: no watchdog thread is started per statement."""
    timers = []

    class CountingTimer(threading.Timer):
        def __init__(self, *args, **kwargs):
            timers.append(args)
            super().__init__(*args, **kwargs)

    db, srv = start_server(Database(), statement_timeout=30)
    try:
        with connect("127.0.0.1", srv.port) as conn:
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            monkeypatch.setattr(threading, "Timer", CountingTimer)
            for i in range(100):
                conn.execute("SELECT id FROM t WHERE id = ?", (i,))
        assert timers == []
    finally:
        srv.shutdown(drain_timeout=1.0)


# ----------------------------------------------------------------------
# Runners: one per active connection
# ----------------------------------------------------------------------


def server_stat(db, column):
    return db.connect().execute(
        f"SELECT {column} FROM bullfrog_stat_server"
    ).scalar()


@pytest.mark.parametrize("waiters", [40, 70])
def test_lock_holder_commit_not_stranded_behind_waiters(waiters):
    """Statements blocked on a transaction's row lock must never hold
    up the frame that ends their wait.  The holder's COMMIT runs at
    once on its own runner — below the old 64-thread cap and above it
    — and every waiter then takes the lock in turn."""
    # Pinned isolation: under snapshot isolation the waiters would fail
    # first-updater-wins (40001) instead of waiting.
    db = Database(lock_timeout=8.0, isolation="read_committed")
    db, srv = start_server(db, max_connections=waiters + 8)
    clients = []
    try:
        with connect("127.0.0.1", srv.port) as setup:
            setup.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            setup.execute("INSERT INTO t VALUES (1, 0)")
        holder = connect("127.0.0.1", srv.port)
        clients.append(holder)
        holder.begin()
        holder.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        clients += [connect("127.0.0.1", srv.port) for _ in range(waiters)]
        outcomes = [None] * waiters

        def wait_on_lock(index):
            try:
                outcomes[index] = clients[index + 1].execute(
                    "UPDATE t SET v = v + 1 WHERE k = 1"
                ).rowcount
            except ReproError as exc:
                outcomes[index] = exc

        threads = [
            threading.Thread(target=wait_on_lock, args=(i,))
            for i in range(waiters)
        ]
        for t in threads:
            t.start()
        wait_until(
            lambda: sum(
                row["waiters"] for row in db.txns.locks.snapshot()
            ) >= waiters,
            timeout=1.0,
        )
        began = time.monotonic()
        holder.commit()
        elapsed = time.monotonic() - began
        for t in threads:
            t.join(timeout=30.0)
        assert elapsed < 1.0, f"holder's COMMIT took {elapsed:.2f}s"
        assert outcomes == [1] * waiters
        assert holder.execute(
            "SELECT v FROM t WHERE k = 1"
        ).rows == [(waiters + 1,)]
        assert wait_until(lambda: server_stat(db, "serving") == 0)
    finally:
        for conn in clients:
            conn.close()
        srv.shutdown(drain_timeout=1.0)


def _replies(sock):
    """Every frame the peer has written so far, as (type, payload)."""
    buf = bytearray()
    while True:
        try:
            chunk = sock.recv(65536)
        except BlockingIOError:
            break
        if not chunk:
            break
        buf += chunk
    frames, pos = [], 0
    while (decoded := protocol.decode_frame(buf, pos)) is not None:
        ftype, payload, pos = decoded
        frames.append((ftype, payload))
    assert pos == len(buf)
    return frames


def test_runner_serves_a_socketpair_without_the_event_loop():
    """Serving a connection is one function call: the runner works on
    one end of a socketpair for a server that was never started."""
    from repro.net.server import _Connection

    db = Database()
    seed = db.connect()
    seed.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for k in (1, 2, 3):
        seed.execute("INSERT INTO kv VALUES (?, ?)", (k, k * 10))
    srv = BullfrogServer(db, ServerConfig(port=0))

    def open_conn(conn_id):
        served, client = socket.socketpair()
        served.setblocking(False)
        client.setblocking(False)
        return _Connection(srv, conn_id, served, None), client

    conn, client = open_conn(1)
    try:
        client.sendall(protocol.encode_hello())
        srv._serve(conn)
        assert [f for f, _ in _replies(client)] == [protocol.WELCOME]

        # PARSE plus three pipelined EXECUTEs: one batch, replies in order.
        client.sendall(
            protocol.encode_parse("get", "SELECT v FROM kv WHERE k = ?")
            + protocol.encode_execute("get", [3])
            + protocol.encode_execute("get", [1])
            + protocol.encode_execute("get", [2])
        )
        srv._serve(conn)
        replies = _replies(client)
        assert [f for f, _ in replies] == [protocol.PARSE_OK] + [
            protocol.ROW_HEADER, protocol.ROW_BATCH, protocol.COMPLETE,
        ] * 3
        assert [
            protocol.decode_row_batch(p)
            for f, p in replies if f == protocol.ROW_BATCH
        ] == [[(30,)], [(10,)], [(20,)]]
        assert not conn.retired and not conn.owned
    finally:
        conn.sock.close()
        client.close()

    # A first frame that is not HELLO: 08P01, and the connection retires.
    conn, client = open_conn(2)
    try:
        client.sendall(protocol.encode_ping())
        srv._serve(conn)
        ((ftype, payload),) = _replies(client)
        assert ftype == protocol.ERROR
        assert protocol.decode_error(payload)["sqlstate"] == "08P01"
        assert conn.retired and conn.session.closed
    finally:
        conn.sock.close()
        client.close()


def test_linger_sees_a_frame_on_a_descriptor_above_fd_setsize():
    """``select`` refuses a descriptor at or above ``FD_SETSIZE``
    (1024); the runner's linger must still see a frame pending on one,
    or such a connection would park after every batch."""
    import os
    import resource

    from repro.net.server import _Connection

    def is_open(fd):
        try:
            os.fstat(fd)
        except OSError:
            return False
        return True

    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    high = next((fd for fd in range(1100, min(soft, 1400)) if not is_open(fd)), None)
    if high is None:
        pytest.skip(f"RLIMIT_NOFILE ({soft}) allows no descriptor above 1100")
    db = Database()
    srv = BullfrogServer(db, ServerConfig(port=0))
    low, client = socket.socketpair()
    os.dup2(low.fileno(), high)
    low.close()
    served = socket.socket(fileno=high)
    served.setblocking(False)
    conn = _Connection(srv, 1, served, None)
    try:
        assert not srv._hot_poll(conn)
        client.sendall(protocol.encode_ping())
        assert srv._hot_poll(conn)
    finally:
        conn.session.close()
        served.close()
        client.close()


def _plan_shape(result):
    """A QUERY PLAN result's lines with every number blanked (timings
    differ between runs) and the sampled ``Trace:`` line dropped."""
    import re

    assert result.columns == ["QUERY PLAN"]
    return [
        re.sub(r"\d+(\.\d+)?", "#", line)
        for (line,) in result.rows
        if not line.startswith("Trace:")
    ]


def test_explain_over_the_wire_matches_embedded(server):
    """EXPLAIN and EXPLAIN ANALYZE come back over bullfrogd — as QUERY
    and as PARSE/EXECUTE — as the same ``QUERY PLAN`` rows an embedded
    session gets."""
    db, srv = server
    embedded = db.connect()
    embedded.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    embedded.execute("INSERT INTO t VALUES (1, 'one')")
    with connect("127.0.0.1", srv.port) as conn:
        for sql in (
            "EXPLAIN SELECT v FROM t WHERE id = ?",
            "EXPLAIN ANALYZE SELECT v FROM t WHERE id = ?",
        ):
            want = _plan_shape(embedded.execute(sql, (1,)))
            assert any("Index Scan" in line for line in want)
            assert _plan_shape(conn.execute(sql, (1,))) == want
            assert _plan_shape(conn.prepare(sql).execute((1,))) == want


def test_hello_of_another_protocol_version_is_refused(server):
    """A HELLO the server cannot speak gets a structured 08P01 ERROR and
    the connection retires, as for a non-HELLO first frame — not a
    WELCOME."""
    _db, srv = server
    with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
        sock.sendall(protocol.encode_hello(version=protocol.PROTOCOL_VERSION + 1))
        received = bytearray()
        while chunk := sock.recv(65536):  # until the server hangs up
            received += chunk
    ftype, payload, end = protocol.decode_frame(received, 0)
    assert ftype == protocol.ERROR and end == len(received)
    error = protocol.decode_error(payload)
    assert error["sqlstate"] == "08P01" and "version" in error["message"]


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def test_graceful_shutdown_drains_within_deadline():
    """Regression for the drain semantics: an in-flight transaction that
    commits promptly is *drained* (not aborted), and shutdown() returns
    well before the deadline."""
    db, srv = start_server()
    conn = connect("127.0.0.1", srv.port)
    seed_table(conn)
    conn.begin()
    conn.execute("UPDATE t SET v = 'draining' WHERE id = 1")

    outcome = {}

    def shut():
        outcome.update(srv.shutdown(drain_timeout=5.0))

    shutter = threading.Thread(target=shut)
    shutter.start()
    time.sleep(0.2)  # let shutdown enter its drain phase
    conn.execute("UPDATE t SET v = 'done' WHERE id = 2")
    conn.commit()  # the drain point: server retires us after this
    began = time.monotonic()
    shutter.join(timeout=5.0)
    assert not shutter.is_alive()
    assert time.monotonic() - began < 4.0  # returned well before deadline
    assert outcome == {"drained": 1, "aborted": 0}
    # The committed work survived; nothing leaked.
    local = db.connect()
    assert local.execute("SELECT v FROM t WHERE id = 1").rows == [("draining",)]
    assert active_txn_count(db) == 0


def test_shutdown_aborts_stragglers_and_refuses_new_connections():
    db, srv = start_server()
    conn = connect("127.0.0.1", srv.port)
    seed_table(conn)
    conn.begin()
    conn.execute("UPDATE t SET v = 'stuck' WHERE id = 1")
    # Never commits: the straggler must be force-aborted at the deadline.
    outcome = srv.shutdown(drain_timeout=0.3)
    assert outcome["aborted"] == 1
    assert active_txn_count(db) == 0 and held_lock_count(db) == 0
    local = db.connect()
    assert local.execute("SELECT v FROM t WHERE id = 1").rows == [("one",)]
    with pytest.raises((ServerShutdownError, ConnectionClosedError)):
        connect("127.0.0.1", srv.port)


def test_draining_server_retires_idle_connection():
    db, srv = start_server()
    conn = connect("127.0.0.1", srv.port)
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    outcome = srv.shutdown(drain_timeout=2.0)
    assert outcome["aborted"] == 0
    with pytest.raises((ServerShutdownError, ConnectionClosedError)):
        conn.execute("SELECT * FROM t")


# ----------------------------------------------------------------------
# Pool: health checks + reconnect-with-backoff
# ----------------------------------------------------------------------


def test_pool_roundtrip_and_reuse(server):
    db, srv = server
    pool = ConnectionPool("127.0.0.1", srv.port, size=2)
    try:
        with pool.acquire() as conn:
            seed_table(conn)
            first_id = conn.session_id
        with pool.acquire() as conn:
            assert conn.session_id == first_id  # same pooled socket
            assert conn.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        assert pool.reconnects == 0
    finally:
        pool.close()


def test_pool_health_check_replaces_dead_connection(server):
    db, srv = server
    pool = ConnectionPool("127.0.0.1", srv.port, size=1, backoff=0.01)
    try:
        with pool.acquire() as conn:
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        # Kill the pooled connection's socket behind the pool's back.
        conn._sock.close()
        with pool.acquire() as conn2:
            assert conn2.execute("SELECT * FROM t").rows == []
        assert pool.health_check_failures == 1
        assert pool.reconnects == 1
    finally:
        pool.close()


def frames_read(db):
    return db.obs.registry.get("repro_net_frames_read_total").value


def test_pool_acquire_checks_liveness_without_a_round_trip(server):
    """Handing out a healthy idle connection costs the server nothing:
    the liveness check is a zero-timeout ``select`` on the idle socket,
    not a PING the server must read and answer."""
    db, srv = server
    pool = ConnectionPool("127.0.0.1", srv.port, size=1)
    try:
        with pool.acquire() as conn:
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        before = frames_read(db)
        with pool.acquire() as conn:
            assert frames_read(db) == before
        assert pool.health_check_failures == 0
        assert pool.stats()["last_ping"] is not None
    finally:
        pool.close()


def test_pool_replaces_connection_killed_server_side(server):
    """A pooled connection whose server end was killed while it sat
    idle (its socket turned readable: farewell frame, then EOF) is
    replaced on acquire, and the caller's statement just works."""
    db, srv = server
    pool = ConnectionPool("127.0.0.1", srv.port, size=1, backoff=0.01)
    try:
        with pool.acquire() as conn:
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        served = srv._conns[conn.session_id]
        srv._kill(served, ServerShutdownError("killed while idle"))
        assert wait_until(lambda: not conn.idle_alive())
        with pool.acquire() as conn2:
            assert conn2 is not conn
            assert conn2.execute("SELECT * FROM t").rows == []
        assert pool.health_check_failures == 1
        assert pool.reconnects == 1
    finally:
        pool.close()


def test_idle_probe_handles_descriptors_above_fd_setsize(server):
    """A process holding many sockets — a router — gets pool
    connections with descriptors above ``select``'s FD_SETSIZE (1024);
    the liveness probe must still see them as alive."""
    import os
    import resource

    db, srv = server
    high = 4096
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high:
        pytest.skip("the descriptor limit is below the probe's test fd")
    with connect("127.0.0.1", srv.port) as conn:
        low = conn._sock
        conn._sock = conn._stream.sock = socket.socket(
            fileno=os.dup2(low.fileno(), high)
        )
        low.close()
        assert conn.idle_alive()
        assert conn.execute("SELECT 1").rows == [(1,)]


def test_pool_rolls_back_leaked_transactions(server):
    db, srv = server
    pool = ConnectionPool("127.0.0.1", srv.port, size=1)
    try:
        with pool.acquire() as conn:
            seed_table(conn)
            conn.begin()
            conn.execute("UPDATE t SET v = 'leak' WHERE id = 1")
            # exits without commit/rollback → pool must reset it
        with pool.acquire() as conn:
            assert not conn.in_transaction
            assert conn.execute(
                "SELECT v FROM t WHERE id = 1"
            ).rows == [("one",)]
    finally:
        pool.close()


def test_pool_connect_backoff_gives_up_cleanly():
    # Nothing listens on this port: grab one and close it immediately.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    pool = ConnectionPool(
        "127.0.0.1", dead_port, size=1,
        max_connect_attempts=2, backoff=0.01, connect_timeout=0.2,
    )
    with pytest.raises(ConnectionClosedError):
        pool.acquire()
    pool.close()


# ----------------------------------------------------------------------
# Fault seams
# ----------------------------------------------------------------------


def test_net_read_fault_kills_connection_and_cleans_up():
    # Reads before the doomed one: HELLO + 3 seed statements + BEGIN +
    # UPDATE = 6; the rule fires on the 7th frame read.
    faults = FaultInjector(FaultPlan([
        FaultRule(point="net.read", action=FaultAction.ABORT, after=6),
    ]))
    db, srv = start_server(faults=faults)
    try:
        conn = connect("127.0.0.1", srv.port)
        seed_table(conn)
        conn.begin()
        conn.execute("UPDATE t SET v = 'doomed' WHERE id = 1")
        with pytest.raises(ReproError):
            conn.execute("SELECT * FROM t")
            conn.execute("SELECT * FROM t")
        assert faults.fired("net.read") == 1
        # Server ran its disconnect cleanup: txn rolled back, locks gone.
        assert wait_until(
            lambda: active_txn_count(db) == 0 and held_lock_count(db) == 0
        )
        local = db.connect()
        assert local.execute(
            "SELECT v FROM t WHERE id = 1"
        ).rows == [("one",)]
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_net_write_fault_mid_response():
    faults = FaultInjector(FaultPlan([
        FaultRule(point="net.write", action=FaultAction.ABORT, after=4),
    ]))
    db, srv = start_server(faults=faults)
    try:
        conn = connect("127.0.0.1", srv.port)
        with pytest.raises((ReproError, ConnectionClosedError)):
            for _ in range(10):
                conn.execute("SELECT 1")
        assert faults.fired("net.write") == 1
        assert wait_until(lambda: srv.active_connections() == 0)
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_net_write_fault_kills_reply_after_its_row_header():
    """The ``net.write`` seam fires once per frame even though a reply
    is queued by one write: with the first two frames (WELCOME, then
    the SELECT's ROW_HEADER) let through, the rule fires on the
    ROW_BATCH.  The client then sees the connection die — never a
    partial Result."""
    faults = FaultInjector(FaultPlan([
        FaultRule(point="net.write", action=FaultAction.ABORT, after=2),
    ]))
    db, srv = start_server(faults=faults)
    try:
        conn = connect("127.0.0.1", srv.port)
        with pytest.raises(ConnectionClosedError):
            conn.execute("SELECT 1")
        assert [event.hit for event in faults.events] == [3]
        assert conn.closed
        assert wait_until(lambda: srv.active_connections() == 0)
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_pipeline_moves_frame_and_byte_counters_exactly(server):
    """One write per reply, one counter bump per batch: the counters
    still count frames and bytes exactly — 16 EXECUTEs read, 16 x
    (ROW_HEADER + ROW_BATCH + COMPLETE) written, and the byte totals
    the client itself sent and received."""
    db, srv = server
    registry = db.obs.registry

    def counters():
        moved = registry.get("repro_net_bytes_total")
        return (
            frames_read(db),
            registry.get("repro_net_frames_written_total").value,
            moved.labels(direction="in").value,
            moved.labels(direction="out").value,
        )

    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        ps = conn.prepare("SELECT v FROM t WHERE id = ?")
        before = counters()
        sent, received = conn.bytes_out, conn.bytes_in
        pipe = conn.pipeline()
        for i in range(16):
            pipe.execute_prepared(ps, [1 + i % 2])
        assert [r.rows for r in pipe.sync()] == [[("one",)], [("two",)]] * 8
        after = counters()
        assert after[0] - before[0] == 16
        assert after[1] - before[1] == 48
        assert after[2] - before[2] == conn.bytes_out - sent
        assert after[3] - before[3] == conn.bytes_in - received


def test_row_header_comes_from_the_plan_that_produced_the_result():
    """The ROW_HEADER cached on a handle serves only results of the plan
    it was encoded for (their ``columns`` *is* that plan's ``names``):
    a repeat of the plan reuses the bytes, a result from a plan a DDL
    has since replaced gets its own header."""
    db = Database()
    admin = db.connect()
    admin.execute("CREATE TABLE w (id INT PRIMARY KEY, v INT)")
    admin.execute("INSERT INTO w VALUES (1, 10)")
    session = db.connect()
    handle = db.prepare("SELECT * FROM w")
    from repro.net.session import _row_header as row_header

    def header_columns(result):
        frame = row_header(handle, result)
        return protocol.decode_row_header(protocol.decode_frame(frame)[1])["columns"]

    before = session.execute_statement(handle, ())
    assert header_columns(before) == ["id", "v"]
    again = session.execute_statement(handle, ())
    assert row_header(handle, again) is row_header(handle, before)
    admin.execute("ALTER TABLE w ADD COLUMN c INT")
    after = session.execute_statement(handle, ())
    assert header_columns(after) == ["id", "v", "c"]
    assert header_columns(before) == ["id", "v"]


def test_cached_row_header_tracks_the_plan_under_concurrent_ddl(server):
    """Every connection running a statement shares its plan's cached
    ROW_HEADER.  Readers hammer a prepared ``SELECT *`` while the table
    gains columns: each reply's header must name exactly the columns of
    its own rows, never a neighbouring plan's."""
    import sys

    db, srv = server
    admin = db.connect()
    admin.execute("CREATE TABLE w (id INT PRIMARY KEY, v INT)")
    admin.execute("INSERT INTO w VALUES (1, 10)")
    stop = threading.Event()
    wrong: list = []
    served: list = []

    def reader():
        with connect("127.0.0.1", srv.port) as conn:
            ps = conn.prepare("SELECT * FROM w WHERE id = ?")
            count = 0
            while not stop.is_set():
                result = ps.execute([1])
                names = ["id", "v"] + [f"c{i}" for i in range(len(result.columns) - 2)]
                if result.columns != names or len(result.rows[0]) != len(names):
                    wrong.append((result.columns, result.rows))
                count += 1
            served.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for t in threads:
            t.start()
        for i in range(12):
            time.sleep(0.02)
            admin.execute(f"ALTER TABLE w ADD COLUMN c{i} INT")
        time.sleep(0.02)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(served) == 4 and all(served)


def test_large_result_streams_within_the_high_water_mark(server):
    """A 20k-row SELECT is not built into one write: it goes out in
    chunks, so the outbound buffer never holds more than
    ``_FLUSH_HIWAT`` plus one ROW_BATCH."""
    from repro.net.session import _BATCH_ROWS, _FLUSH_HIWAT

    db, srv = server
    rows = [(i, f"row-{i:08d}-" + "x" * 30) for i in range(20_000)]
    session = db.connect()
    session.execute("CREATE TABLE big (id INT PRIMARY KEY, v TEXT)")
    session.begin()
    for row in rows:
        session.execute("INSERT INTO big VALUES (?, ?)", row)
    session.commit()
    batch = max(
        len(protocol.encode_row_batch(rows[start : start + _BATCH_ROWS]))
        for start in range(0, len(rows), _BATCH_ROWS)
    )
    with connect("127.0.0.1", srv.port) as conn:
        result = conn.execute("SELECT id, v FROM big")
        assert sorted(result.rows) == rows
        hiwat = conn.execute(
            "SELECT outbuf_hiwat FROM bullfrog_stat_network"
        ).scalar()
    assert _FLUSH_HIWAT <= hiwat <= _FLUSH_HIWAT + batch


def test_net_accept_fault_rejects_connection():
    faults = FaultInjector(FaultPlan([
        FaultRule(point="net.accept", action=FaultAction.ABORT),
    ]))
    db, srv = start_server(faults=faults)
    try:
        with pytest.raises((NetworkError, OSError)):
            connect("127.0.0.1", srv.port, connect_timeout=1.0)
        # The server survives and accepts the next connection.
        with connect("127.0.0.1", srv.port) as conn:
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    finally:
        srv.shutdown(drain_timeout=1.0)


# ----------------------------------------------------------------------
# Networked TPC-C through a live lazy migration (the acceptance run)
# ----------------------------------------------------------------------


def _loaded_tpcc_server():
    db = Database(obs=Observability())
    session = db.connect()
    create_schema(session)
    load_tpcc(db, TINY_SCALE)
    srv = BullfrogServer(db, ServerConfig(port=0)).start()
    return db, srv


@pytest.mark.slow
def test_sixteen_clients_through_live_migration():
    """≥16 concurrent socket clients sustain TPC-C while a
    backwards-incompatible lazy migration (customer split, big flip)
    completes underneath them.  Afterwards: exactly-once invariants
    hold, and no request failed because of the schema switch."""
    from repro.bench.driver import DriverConfig, WorkloadDriver

    db, srv = _loaded_tpcc_server()
    controller = MigrationController(db)
    scenario = SCENARIOS["split"]
    try:
        def make_client(index):
            return NetworkTpccClient(
                "127.0.0.1", srv.port, TINY_SCALE,
                variant=SchemaVariant.BASE,
                new_variant=scenario["variant"],
                seed=100 + index,
            )

        driver = WorkloadDriver(
            make_client, DriverConfig(duration=6.0, rate=None, workers=16)
        )

        def on_start(drv):
            def flip():
                time.sleep(1.0)
                controller.submit(
                    "split", scenario["ddl"],
                    strategy=Strategy.LAZY,
                    background=BackgroundConfig(
                        delay=0.5, chunk=64, interval=0.002
                    ),
                    big_flip=scenario["big_flip"],
                )
                drv.mark("migration start")
            threading.Thread(target=flip, daemon=True).start()

        result = driver.run(on_start=on_start)
        assert result.completed > 50  # the fleet actually sustained load
        # Zero failed requests attributable to the schema switch: every
        # SchemaVersionError is absorbed by the front-end restart.
        assert "SchemaVersionError" not in result.errors
        assert result.connection_errors == 0

        # Drive the migration to completion, then check exactly-once.
        handle = controller.active
        assert wait_until(lambda: handle.is_complete, timeout=30.0)
        report = InvariantChecker(controller.engine).check(
            expect_complete=True, structural_only=True
        )
        assert not report.violations, report.violations

        # No leaked server-side state once the clients hang up.
        assert wait_until(lambda: srv.active_connections() == 0)
        assert active_txn_count(db) == 0 and held_lock_count(db) == 0
    finally:
        srv.shutdown(drain_timeout=2.0)


@pytest.mark.slow
def test_killed_clients_mid_migration_leak_nothing():
    """Connections killed mid-transaction *while the migration runs*
    (net.read ABORT faults) leave no locks or ACTIVE transactions, and
    the migration still completes exactly-once."""
    faults = FaultInjector(FaultPlan([
        FaultRule(
            point="net.read", action=FaultAction.ABORT,
            after=40, times=6,
        ),
    ]))
    db = Database(obs=Observability())
    session = db.connect()
    create_schema(session)
    load_tpcc(db, TINY_SCALE)
    srv = BullfrogServer(db, ServerConfig(port=0), faults=faults).start()
    controller = MigrationController(db)
    scenario = SCENARIOS["split"]
    try:
        controller.submit(
            "split", scenario["ddl"],
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.2, chunk=64, interval=0.002),
            big_flip=scenario["big_flip"],
        )

        def worker(index, errors):
            try:
                client = NetworkTpccClient(
                    "127.0.0.1", srv.port, TINY_SCALE,
                    variant=scenario["variant"],
                    seed=200 + index,
                )
                for _ in range(25):
                    try:
                        client.run_random()
                    except NetworkError:
                        pass  # killed + reconnected; keep going
                client.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        errors: list = []
        threads = [
            threading.Thread(target=worker, args=(i, errors))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        assert faults.fired("net.read") > 0  # kills actually happened

        handle = controller.active
        assert wait_until(lambda: handle.is_complete, timeout=30.0)
        assert wait_until(
            lambda: active_txn_count(db) == 0 and held_lock_count(db) == 0
        )
        report = InvariantChecker(controller.engine).check(
            expect_complete=True, structural_only=True
        )
        assert not report.violations, report.violations
    finally:
        srv.shutdown(drain_timeout=2.0)


def test_driver_books_connection_errors_separately():
    """NetworkError from a client counts as a connection error, not a
    failed transaction, and reconnects are summed into the result."""
    from repro.bench.driver import DriverConfig, WorkloadDriver

    class FlakyClient:
        def __init__(self):
            self.calls = 0
            self.reconnects = 0

        def run_random(self):
            self.calls += 1
            if self.calls == 2:
                self.reconnects += 1
                raise ConnectionClosedError("socket dropped")
            if self.calls == 4:
                raise ValueError("a real failure")
            return "new_order", True

    driver = WorkloadDriver(
        lambda index: FlakyClient(),
        DriverConfig(duration=0.4, rate=None, workers=1),
    )
    result = driver.run()
    assert result.connection_errors >= 1
    assert result.reconnects >= 1
    assert result.errors.get("ConnectionClosedError", 0) >= 1
    assert result.errors.get("ValueError", 0) >= 1
    # the ValueError landed in failed, the network error did not
    assert result.failed >= 1


# ----------------------------------------------------------------------
# Prepared statements + pipelining
# ----------------------------------------------------------------------


def test_prepared_statement_roundtrip(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        ps = conn.prepare("SELECT v FROM t WHERE id = ?")
        assert ps.execute([1]).rows == [("one",)]
        assert ps.execute([2]).rows == [("two",)]


def test_prepared_statement_unknown_name_keeps_connection(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        with pytest.raises(ProtocolError):
            conn.execute_prepared("never_parsed", [1])
        # an unknown-name error is an engine error, not a protocol
        # violation: the connection survives
        assert conn.execute("SELECT v FROM t WHERE id = ?", [1]).rows == [
            ("one",)
        ]


def test_prepared_statement_reparses_across_schema_epoch(server):
    """DDL bumps the schema epoch; a cached statement parsed under the
    old epoch must transparently re-parse, not execute a stale plan."""
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        ps = conn.prepare("SELECT v FROM t WHERE id = ?")
        assert ps.execute([1]).rows == [("one",)]
        epoch_before = conn.schema_epoch
        conn.execute("CREATE TABLE other (a INT PRIMARY KEY)")
        assert ps.execute([2]).rows == [("two",)]
        assert conn.schema_epoch > epoch_before


def test_prepared_statement_sees_schema_version_error_after_flip():
    """A prepared statement against a table retired by the big flip
    raises SchemaVersionError at execution — the front-end-restart
    contract is identical for prepared and parsed statements."""
    db, srv = _loaded_tpcc_server()
    controller = MigrationController(db)
    scenario = SCENARIOS["split"]
    try:
        conn = connect("127.0.0.1", srv.port)
        ps = conn.prepare(
            "SELECT c_balance FROM customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"
        )
        assert ps.execute([1, 1, 1]).rows
        controller.submit(
            "split", scenario["ddl"],
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.1, chunk=64, interval=0.002),
            big_flip=scenario["big_flip"],
        )
        with pytest.raises(SchemaVersionError):
            ps.execute([1, 1, 1])
        # front-end restart: the new-schema statement works prepared
        ps2 = conn.prepare(
            "SELECT c_balance FROM customer_private "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"
        )
        assert ps2.execute([1, 1, 1]).rows
        conn.close()
    finally:
        srv.shutdown(drain_timeout=1.0)


def test_auto_prepare_uses_implicit_statement_cache(server):
    db, srv = server
    with connect("127.0.0.1", srv.port, auto_prepare=8) as conn:
        seed_table(conn)
        for i in (1, 2, 1, 2, 1):
            conn.execute("SELECT v FROM t WHERE id = ?", [i])
        # one cache entry per distinct SQL string (CREATE + INSERT +
        # SELECT), the repeated SELECT prepared exactly once
        assert len(conn._stmt_cache) == 3
        assert "SELECT v FROM t WHERE id = ?" in conn._stmt_cache


def test_pipeline_orders_replies_and_collapses_round_trips(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        ps = conn.prepare("SELECT v FROM t WHERE id = ?")
        pipe = conn.pipeline()
        pipe.begin()
        pipe.execute("UPDATE t SET v = ? WHERE id = ?", ["ONE", 1])
        pipe.execute_prepared(ps, [1])
        pipe.execute_prepared(ps, [2])
        pipe.commit()
        results = pipe.sync()
        assert [r.statement for r in results] == [
            "BEGIN", "UPDATE", "SELECT", "SELECT", "COMMIT",
        ]
        assert results[1].rowcount == 1
        assert results[2].rows == [("ONE",)]
        assert results[3].rows == [("two",)]
        assert not conn.in_transaction


def test_pipeline_embeds_engine_errors_and_survives(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        pipe = conn.pipeline()
        pipe.execute("INSERT INTO t VALUES (?, ?)", (1, "dup"))  # unique PK
        pipe.execute("SELECT v FROM t WHERE id = ?", [2])
        results = pipe.sync()
        assert isinstance(results[0], UniqueViolation)
        assert results[1].rows == [("two",)]
        assert not conn.closed


def test_pipeline_context_manager_syncs(server):
    db, srv = server
    with connect("127.0.0.1", srv.port) as conn:
        seed_table(conn)
        with conn.pipeline() as pipe:
            pipe.execute("SELECT v FROM t WHERE id = ?", [1])
            pipe.execute("SELECT v FROM t WHERE id = ?", [2])
        assert [r.rows for r in pipe.results] == [[("one",)], [("two",)]]


def test_idle_connections_do_not_cost_threads():
    """The event loop holds many parked connections with one I/O
    thread; server-side thread count is bounded by how many
    connections were active at once, not the connection count (the
    thread-per-connection server scaled 1:1)."""
    db, srv = start_server(max_connections=256)
    conns = []
    try:
        for _ in range(128):
            conns.append(connect("127.0.0.1", srv.port))
        assert srv.active_connections() == 128
        assert srv.io_thread_count() == 1
        bullfrog_threads = [
            t for t in threading.enumerate()
            if t.name.startswith("bullfrogd-")
        ]
        assert len(bullfrog_threads) < 32  # io + runners
        # parked connections still answer
        assert all(c.ping() for c in conns[::16])
    finally:
        for c in conns:
            c.close()
        srv.shutdown(drain_timeout=1.0)


@pytest.mark.slow
def test_sixteen_pipelined_clients_through_live_migration():
    """16 clients run pipelined, auto-prepared read/write transactions
    while the customer split migrates underneath them.  Embedded
    SchemaVersionError results trigger the front-end restart (switch to
    the new-schema statements); afterwards the balance increments are
    conserved exactly-once and the migration invariants hold."""
    import random as _random

    db, srv = _loaded_tpcc_server()
    controller = MigrationController(db)
    scenario = SCENARIOS["split"]
    stop = threading.Event()
    completed = [0] * 16
    flips = [0] * 16
    errors: list = []

    base_sel = ("SELECT c_balance FROM customer "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")
    base_upd = ("UPDATE customer SET c_balance = c_balance + 1 "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")
    new_sel = ("SELECT c_balance FROM customer_private "
               "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")
    new_upd = ("UPDATE customer_private SET c_balance = c_balance + 1 "
               "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")

    def balances(table):
        s = db.connect()
        rows = s.execute(f"SELECT c_balance FROM {table}").rows
        s.close()
        return sum(r[0] for r in rows)

    start_sum = balances("customer")

    def worker(index):
        rng = _random.Random(300 + index)
        try:
            conn = connect("127.0.0.1", srv.port, auto_prepare=32)
            flipped = False
            while not stop.is_set():
                key = (
                    rng.randint(1, TINY_SCALE.warehouses),
                    rng.randint(1, TINY_SCALE.districts_per_warehouse),
                    rng.randint(1, TINY_SCALE.customers_per_district),
                )
                sel, upd = (new_sel, new_upd) if flipped else (base_sel, base_upd)
                pipe = conn.pipeline()
                pipe.begin()
                pipe.execute(sel, key)
                i_upd = pipe.execute(upd, key)
                i_commit = pipe.commit()
                results = pipe.sync()
                bad = [r for r in results if isinstance(r, ReproError)]
                if any(isinstance(r, SchemaVersionError) for r in bad):
                    flipped = True
                    flips[index] += 1
                if bad:
                    conn.reset()
                    continue
                # the increment committed iff UPDATE hit a row and
                # COMMIT succeeded — count it exactly then
                if results[i_upd].rowcount == 1 and not isinstance(
                    results[i_commit], ReproError
                ):
                    completed[index] += 1
            conn.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(16)
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(0.8)
        controller.submit(
            "split", scenario["ddl"],
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.3, chunk=64, interval=0.002),
            big_flip=scenario["big_flip"],
        )
        time.sleep(2.5)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert sum(completed) > 50          # the fleet sustained load
        assert sum(flips) >= 1              # the flip was observed live

        handle = controller.active
        assert wait_until(lambda: handle.is_complete, timeout=30.0)
        report = InvariantChecker(controller.engine).check(
            expect_complete=True, structural_only=True
        )
        assert not report.violations, report.violations

        # Exactly-once: every committed increment applied once, none
        # lost by the migration, none double-applied.
        end_sum = balances("customer_private")
        assert end_sum == start_sum + sum(completed)

        assert wait_until(lambda: srv.active_connections() == 0)
        assert active_txn_count(db) == 0 and held_lock_count(db) == 0
    finally:
        stop.set()
        srv.shutdown(drain_timeout=2.0)


# ----------------------------------------------------------------------
# Lifecycle bugfix regressions (pool slot leak, close/acquire race,
# bind-failure socket leak, backoff jitter)
# ----------------------------------------------------------------------


class _StrictResetConnection(Connection):
    """A client whose ``reset()`` propagates transport failures instead
    of swallowing them — the shape of client the pool must survive."""

    def reset(self):  # noqa: D102
        if self._closed:
            return
        if self._in_transaction:
            self.rollback()  # raises ConnectionClosedError on a dead socket


def test_pool_release_returns_slot_even_when_reset_raises():
    """Regression: ``_release`` ran ``conn.reset()`` before releasing
    the semaphore slot; a reset that raised (server died between
    checkout and release) leaked the slot forever — a size-1 pool then
    deadlocked every later ``acquire()``."""
    db, srv = start_server()
    pool = ConnectionPool(
        size=1, health_check=False,
        max_connect_attempts=2, backoff=0.01, backoff_cap=0.02,
        factory=lambda: _StrictResetConnection("127.0.0.1", srv.port),
    )
    handle = pool.acquire()
    handle.conn.begin()
    srv.shutdown(drain_timeout=0.2)  # server dies while checked out
    try:
        handle.release()  # pre-fix: raises AND leaks the only slot
    except NetworkError:
        pass
    done = threading.Event()

    def second_acquire():
        try:
            pool.acquire()
        except NetworkError:
            pass  # server is down; failing is fine, hanging is not
        done.set()

    t = threading.Thread(target=second_acquire, daemon=True)
    t.start()
    assert done.wait(3.0), "acquire() deadlocked: the slot leaked"
    pool.close()


def test_pool_close_wakes_backoff_sleepers():
    """Regression: ``close()`` left in-flight ``acquire()`` calls
    sleeping through their whole backoff schedule against a closed
    pool.  Closing must wake them immediately."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    pool = ConnectionPool(
        "127.0.0.1", dead_port, size=1,
        max_connect_attempts=50, backoff=0.2, backoff_cap=0.2,
    )
    outcome: list = []

    def blocked_acquire():
        try:
            pool.acquire()
            outcome.append("acquired")
        except NetworkError as exc:
            outcome.append(str(exc))

    t = threading.Thread(target=blocked_acquire, daemon=True)
    t.start()
    time.sleep(0.15)  # let it enter a backoff sleep
    pool.close()
    t.join(2.0)
    assert not t.is_alive(), "acquire() slept through close()"
    assert outcome and "pool is closed" in outcome[0]


def test_pool_close_never_hands_out_racing_connection():
    """Regression: a connection created after ``_closed`` flipped was
    handed out (and leaked) from a closed pool."""
    db, srv = start_server()
    gate = threading.Event()

    def slow_factory():
        gate.wait(3.0)  # connect straddles close()
        return connect("127.0.0.1", srv.port)

    pool = ConnectionPool(size=1, factory=slow_factory)
    outcome: dict = {}

    def racing_acquire():
        try:
            handle = pool.acquire()
            outcome["handed_out"] = handle.conn
        except ConnectionClosedError:
            outcome["refused"] = True

    t = threading.Thread(target=racing_acquire, daemon=True)
    t.start()
    time.sleep(0.05)  # acquire is now inside the factory
    pool.close()
    gate.set()
    t.join(3.0)
    assert not t.is_alive()
    assert outcome.get("refused"), (
        f"closed pool handed out {outcome.get('handed_out')}"
    )
    # ...and the racing connection was closed, not leaked server-side
    assert wait_until(lambda: srv.active_connections() == 0)
    srv.shutdown(drain_timeout=0.5)


def test_bind_conflict_does_not_leak_listen_socket():
    """Regression: ``start()`` leaked the listening socket when
    ``bind()`` raised (port already in use)."""
    import gc
    import warnings

    db, srv = start_server()
    gc.collect()  # flush unrelated garbage before recording
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            loser = BullfrogServer(
                Database(), ServerConfig(host="127.0.0.1", port=srv.port)
            )
            with pytest.raises(OSError):
                loser.start()
            del loser
        gc.collect()
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked, [str(w.message) for w in leaked]
    srv.shutdown(drain_timeout=0.5)


def test_decorrelated_jitter_spreads_retry_schedules():
    """Regression for the reconnect thundering herd: deterministic
    exponential backoff made every dropped client retry on the same
    schedule.  Decorrelated jitter must draw different delays from the
    very first retry, within [base, cap]."""
    import random as _random

    from repro.net.client import decorrelated_jitter

    schedules = []
    for seed in range(12):
        delays = decorrelated_jitter(0.05, 1.0, _random.Random(seed))
        schedules.append(tuple(next(delays) for _ in range(5)))
    # spread on the FIRST delay (lockstep is what caused the herd)
    first_delays = {round(s[0], 9) for s in schedules}
    assert len(first_delays) >= 10
    # distinct full schedules, all within bounds
    assert len(set(schedules)) == len(schedules)
    for schedule in schedules:
        for delay in schedule:
            assert 0.05 <= delay <= 1.0
