"""``bullfrogd``: an event-loop socket server in front of a Database.

One I/O thread accepts connections and runs a :mod:`selectors` loop
over the *parked* ones — connections with no request in flight.  When
a parked socket turns readable, the loop switches its READ interest
off, stamps the hand-off time and submits the connection to a
**runner**; the loop never reads that socket itself.  The runner
(:meth:`BullfrogServer._serve`) serves the connection from socket read
to reply: ``recv`` into the input buffer, decode every complete frame,
run the frames in order on the connection's dedicated
:class:`~repro.db.Session`, flush the replies once per batch, and
linger ``_HOT_POLL`` seconds for the next frame before parking the
connection back on the selector.  A chatty client therefore runs
request → reply on one thread, and a client that **pipelines** many
frames before reading a reply gets the replies in request order,
because a connection has at most one runner.  A parked connection
costs one selector slot and a few KB — no thread — which is what lets
one ``bullfrogd`` hold thousands of idle clients.

Runners come from a :class:`~concurrent.futures.ThreadPoolExecutor`
sized ``max_connections``.  Its idle accounting spends one permit per
submit, so every active connection gets a thread of its own.  That is
a correctness requirement: a statement blocked on a 2PL lock (or in
the lazy-migration skip-wait) holds its runner, and the frame that
ends the wait — typically the lock holder's COMMIT — arrives on
another connection, which must never queue behind the waiters.

Prepared statements: PARSE stores ``db.prepare(sql)`` — the database's
one :class:`~repro.db.Statement` handle for that text, shared with
every other connection and with the embedded path — under the client's
name; EXECUTE hands it to :meth:`Session.execute_statement` with the
frame's inline parameters — no SQL text, no tokenizer, no parser, no
lookup by text on the hot path.  A QUERY takes ``db.prepare(sql)``
and then runs exactly like an EXECUTE.  The handle re-plans by itself
after a schema-epoch bump and execution against a retired table still
raises ``SchemaVersionError``, so the paper's front-end-restart story
is unchanged for prepared clients.

**One write per reply**: a statement's ROW_HEADER (encoded once per
planned query and cached on it), ROW_BATCHes and COMPLETE are joined
and queued by one ``_send`` — one lock, one byte count, one counter
bump — and a pipelined batch of replies leaves in one flush.

Connection lifecycle guarantees (unchanged from the threaded server):

* **Abrupt-disconnect cleanup** — any way a connection dies (reset,
  EOF mid-frame, protocol garbage, injected read/write fault, timeout
  kill) funnels into one retire path that rolls back the session's
  open transaction and releases its locks via ``Session.close()``.
* **Admission control** — beyond ``max_connections`` the server sends
  a structured ``ServerBusyError`` frame (SQLSTATE 53300) and closes.
* **Timeouts** — the loop's bookkeeping tick closes a parked
  connection with no frame for ``idle_timeout`` (after an
  ``IdleTimeoutError`` frame) and kills a connection whose current
  statement started more than ``statement_timeout`` ago.
* **Graceful shutdown** — ``shutdown()`` stops accepting, immediately
  retires parked out-of-transaction connections with a
  ``ServerShutdownError`` frame, lets in-flight transactions drain
  until ``drain_timeout`` (runners retire their connection at the
  first statement boundary outside a transaction), then force-closes
  stragglers.

Fault seams ``net.accept`` / ``net.read`` / ``net.write`` follow the
:mod:`repro.core.faults` contract (``is not None`` guard, ABORT at a
net seam = the I/O "fails"); ``net.read`` fires once per decoded
frame, ``net.write`` once per response frame (a reply queued by one
write still passes it once per frame it holds).  Per-connection metrics
live in the attached observability registry and the
``bullfrog_stat_network`` system view; ``bullfrog_stat_server`` is the
one-row summary (connections served by a runner right now, open
connections, the cap, draining).

META frames are answered by the shared admin console
(:func:`repro.obs.console.run`); the server only registers the verbs
that need its own state — ``epoch`` (the shard side of the cluster's
two-phase flip) and ``migrate`` — on the database's verb table, where
a router's own ``epoch`` / ``migrate`` take precedence.
"""

from __future__ import annotations

import json
import select
import selectors
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .. import __version__ as _SERVER_VERSION
from ..catalog.catalog import VirtualTable
from ..db import FLIP_GATE_TIMEOUT, Database, Result, Session, Statement
from ..errors import (
    IdleTimeoutError,
    ProtocolError,
    ReproError,
    ServerBusyError,
    ServerShutdownError,
    StatementTimeoutError,
)
from ..obs import console
from ..obs.registry import NULL_METRIC
from ..obs.sysviews import _BOOL, _FLOAT, _INT, _TEXT  # the views' column types
from ..obs.tracectx import TraceContext
from ..obs.tracectx import activate as _trace_activate
from ..obs.tracectx import deactivate as _trace_deactivate
from ..txn import IsolationLevel
from . import protocol

_RECV_CHUNK = 65536

# How long a runner lingers on its connection's socket after a batch,
# hoping the next frame is already in flight.  A hit keeps the next
# request on the same thread (no selector round trip, no hand-off) —
# chatty connections get thread-per-connection latency while parked
# ones cost only a selector slot.
_HOT_POLL = 0.0005

# Replies are flushed once per statement boundary, not once per frame;
# this caps how much reply data may accumulate before an inline flush
# (large result sets stream in HIWAT-sized writes).
_FLUSH_HIWAT = 262144

_BACKLOG = 16  # bounded TCP accept queue
_BATCH_ROWS = 256  # result-set streaming granularity
_MAX_PREPARED = 1024  # per-connection prepared-statement cap
_TICK = 0.05  # event-loop bookkeeping cadence (seconds)


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 5433  # 0 = ephemeral (tests)
    max_connections: int = 64
    idle_timeout: float | None = None
    statement_timeout: float | None = None
    drain_timeout: float = 5.0
    # Monitoring: when the Database runs instrumented, start() attaches
    # the metrics-history sampler + health engine + flight recorder
    # (obs.attach_monitoring) so `\top` over the wire, the `health`
    # verb, and incident bundles work out of the box.  No-op when obs is detached.
    monitor_interval: float = 0.25  # history sampling cadence (seconds)
    incident_dir: str | None = None  # flight-recorder output (default results/incidents)
    # Cluster two-phase epoch flip: how long a PREPARE may sit without
    # its COMMIT/ABORT before the shard aborts unilaterally (coordinator
    # died between the phases).
    epoch_prepare_timeout: float = 10.0


class _Connection:
    """Server-side bookkeeping for one client socket.

    A connection is either *parked* (READ interest on, no runner) or
    *owned* by exactly one runner (READ interest off).  ``lock`` guards
    ``owned`` and ``retired``: only the I/O thread hands a parked
    connection to a runner, only that runner parks it again, and any
    other thread may retire it only while it is parked.  Everything
    else a runner touches — ``inbuf``, ``inbox``, the session — is the
    owner's alone.  ``out_lock`` guards the outbound buffer and
    ``doomed`` (the loop drains write backlogs; kills come from the
    tick or ``shutdown``).  ``sel_mask`` is the current selector
    interest and is touched only by the I/O thread.
    """

    __slots__ = (
        "id", "sock", "addr", "session", "state", "doomed",
        "connected_at", "last_activity", "statements", "transactions",
        "bytes_in", "bytes_out", "out_hiwat", "inbuf", "inbox",
        "owned", "handoff", "stmt_started", "retired",
        "greeted", "trace", "trace_ctx", "prepared", "lock",
        "out_lock", "outbuf", "want_write", "sel_mask",
    )

    def __init__(self, conn_id: int, sock: socket.socket, addr: Any,
                 session: Session) -> None:
        self.id = conn_id
        self.sock = sock
        self.addr = addr
        self.session = session
        self.state = "idle"  # idle | active | closing
        self.doomed: BaseException | None = None
        self.connected_at = time.monotonic()
        self.last_activity = self.connected_at
        self.statements = 0
        self.transactions = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.out_hiwat = 0  # outbound-buffer high-water mark (bytes)
        self.inbuf = bytearray()
        # (frame type, payload): decoded by the runner, not yet run.
        self.inbox: deque[tuple[int, bytes]] = deque()
        self.owned = False
        # perf_counter of the loop's hand-off to a runner — what the
        # first batch's net_queue wait is measured from.
        self.handoff = time.perf_counter()
        # monotonic start of the statement running now (None between
        # statements); the tick enforces statement_timeout from it.
        self.stmt_started: float | None = None
        self.retired = False
        self.greeted = False
        self.trace = False  # client asked for trace trailers (HELLO)
        self.trace_ctx: TraceContext | None = None  # current request hop
        self.prepared: dict[str, Statement] = {}  # PARSE name -> handle
        self.lock = threading.Lock()
        self.out_lock = threading.Lock()
        self.outbuf = bytearray()
        self.want_write = False
        self.sel_mask = 0  # current selector interest; I/O thread only


class BullfrogServer:
    """A BullFrog database served over TCP."""

    def __init__(
        self,
        db: Database,
        config: ServerConfig | None = None,
        faults: Any = None,
    ) -> None:
        self.db = db
        self.config = config or ServerConfig()
        # Network fault seams follow the core contract: ``None`` by
        # default, one ``is not None`` guard per seam.
        self.faults = faults
        self._listen_sock: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._waker_r: socket.socket | None = None
        self._waker_w: socket.socket | None = None
        self._io_thread: threading.Thread | None = None
        self._ioq: deque[tuple] = deque()  # cross-thread selector requests
        self._runners: ThreadPoolExecutor | None = None
        self._conns: dict[int, _Connection] = {}
        self._conns_latch = threading.Lock()
        self._next_conn_id = 0
        self._running = False
        self._io_running = False
        self._draining = threading.Event()
        # Whether start() created the history sampler (vs. finding one
        # already attached, e.g. by an embedding application) — shutdown
        # only stops a sampler it owns.
        self._monitor_owns_history = False
        # Shard side of the cluster epoch flip (DESIGN.md section 16):
        # PREPARE closes ``db.flip_gate`` under a token, COMMIT performs
        # the logical schema switch before reopening it, so no two
        # statements on this shard ever straddle the flip.  The
        # auto-abort timer reopens the gate if the coordinator dies
        # between the phases.
        self._epoch_latch = threading.Lock()
        self._epoch_token: str | None = None
        self._epoch_abort_timer: threading.Timer | None = None
        self._migration_controller: Any = None
        self.port: int | None = None
        self._init_metrics()
        self._register_network_view()
        self._register_server_view()
        # The database's own ``epoch`` / ``migrate`` (a router flips its
        # shards instead) win; a previous server's on this database go.
        for verb, handler in (("epoch", self._verb_epoch),
                              ("migrate", self._verb_migrate)):
            if getattr(db.admin_verbs.get(verb), "__self__", None) is not db:
                db.admin_verbs[verb] = handler

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        obs = self.db.obs
        if obs is None:
            null = NULL_METRIC
            self._m_accepted = null
            self._m_rejected = null
            self._m_active = null
            self._m_bytes_in = null
            self._m_bytes_out = null
            self._m_disconnects = null
            self._g_serving = null
            self._rt_cells = {}
            return
        registry = obs.registry
        self._m_accepted = registry.counter(
            "repro_net_connections_accepted_total",
            "client connections admitted by bullfrogd",
        ).cell()
        self._m_rejected = registry.counter(
            "repro_net_connections_rejected_total",
            "client connections refused (admission control / shutdown)",
            labelnames=("reason",),
        )
        self._m_active = registry.gauge(
            "repro_net_active_connections",
            "currently open client connections",
        ).cell()
        bytes_total = registry.counter(
            "repro_net_bytes_total",
            "protocol bytes moved by bullfrogd",
            labelnames=("direction",),
        )
        self._m_bytes_in = bytes_total.labels(direction="in")
        self._m_bytes_out = bytes_total.labels(direction="out")
        self._m_disconnects = registry.counter(
            "repro_net_disconnects_total",
            "connection teardowns by cause",
            labelnames=("cause",),
        )
        # Refreshed on the event-loop tick so the history ring (and
        # therefore incident bundles) records how many connections were
        # active over time, not just the instant a view is queried.
        self._g_serving = registry.gauge(
            "repro_net_connections_serving",
            "client connections currently owned by a runner",
        ).cell()
        rt = registry.histogram(
            "repro_net_request_seconds",
            "server-side protocol round trip (frame decoded -> last "
            "response byte handed to the kernel)",
            labelnames=("kind",),
        )
        self._rt_cells = {
            kind: rt.labels(kind=kind).observe
            for kind in ("query", "txn", "meta", "ping",
                         "parse", "execute")
        }

    # ------------------------------------------------------------------
    # bullfrog_stat_network
    # ------------------------------------------------------------------
    def _register_network_view(self) -> None:
        def produce(ctx: Any) -> list[tuple]:
            now = time.monotonic()
            with self._conns_latch:
                conns = list(self._conns.values())
            rows = [
                (
                    conn.id,
                    f"{conn.addr[0]}:{conn.addr[1]}" if conn.addr else "?",
                    conn.state,
                    now - conn.connected_at,
                    now - conn.last_activity,
                    conn.session.in_transaction,
                    conn.statements,
                    conn.transactions,
                    conn.bytes_in,
                    conn.bytes_out,
                    len(conn.inbox),
                    conn.out_hiwat,
                )
                for conn in conns
            ]
            rows.sort()
            return rows

        # Overwrites any previous registration (server restart on the
        # same Database), exactly like re-registering a producer.
        self.db.catalog.register_virtual(VirtualTable(
            "bullfrog_stat_network",
            (
                "conn_id", "peer", "state", "connected_seconds",
                "idle_seconds", "in_transaction", "statements",
                "transactions", "bytes_in", "bytes_out",
                "inbox_depth", "outbuf_hiwat",
            ),
            (_INT, _TEXT, _TEXT, _FLOAT, _FLOAT, _BOOL, _INT, _INT,
             _INT, _INT, _INT, _INT),
            produce,
        ))

    # ------------------------------------------------------------------
    # bullfrog_stat_server (one row of server health)
    # ------------------------------------------------------------------
    def _register_server_view(self) -> None:
        def produce(ctx: Any) -> list[tuple]:
            with self._conns_latch:
                conns = list(self._conns.values())
            return [(
                sum(conn.owned for conn in conns),
                len(conns),
                self.config.max_connections,
                self._draining.is_set(),
            )]

        self.db.catalog.register_virtual(VirtualTable(
            "bullfrog_stat_server",
            ("serving", "connections", "max_connections", "draining"),
            (_INT, _INT, _INT, _BOOL),
            produce,
        ))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "BullfrogServer":
        if self._running:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.config.host, self.config.port))
            sock.listen(_BACKLOG)
            sock.setblocking(False)
        except OSError:
            # A failed bind (port in use) must not leak the socket.
            sock.close()
            raise
        self._listen_sock = sock
        self.port = sock.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, "listen")
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._selector.register(self._waker_r, selectors.EVENT_READ, "waker")
        # One runner per active connection at most, so the pool never
        # needs more threads than connections it may admit.
        self._runners = ThreadPoolExecutor(
            max_workers=self.config.max_connections,
            thread_name_prefix="bullfrogd-runner",
        )
        self._running = True
        self._io_running = True
        self._io_thread = threading.Thread(
            target=self._io_loop, daemon=True, name="bullfrogd-io"
        )
        self._io_thread.start()
        self._attach_monitoring()
        return self

    def _attach_monitoring(self) -> None:
        """Wire the history sampler / health engine / flight recorder
        onto the database's observability bundle.  Skipped when
        observability is detached — the zero-cost contract holds."""
        obs = self.db.obs
        if obs is None:
            return
        history = obs.history
        self._monitor_owns_history = history is None or not history.running
        obs.attach_monitoring(
            self.db,
            interval=self.config.monitor_interval,
            incident_dir=self.config.incident_dir,
        )

    def monitor_summary(self) -> dict:
        """The ``top json`` payload (history summary + health report +
        this server's ``bullfrog_stat_server`` row)."""
        return console.monitor_summary(self.db)

    def __enter__(self) -> "BullfrogServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    @property
    def address(self) -> tuple[str, int]:
        assert self.port is not None, "server not started"
        return (self.config.host, self.port)

    def active_connections(self) -> int:
        with self._conns_latch:
            return len(self._conns)

    def io_thread_count(self) -> int:
        """How many threads multiplex sockets (always 1: the loop)."""
        return 1 if self._io_running else 0

    def _wake(self) -> None:
        waker = self._waker_w
        if waker is None:
            return
        try:
            waker.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe already full = loop already waking

    # ------------------------------------------------------------------
    # Event loop (the single I/O thread)
    # ------------------------------------------------------------------
    def _io_loop(self) -> None:
        sel = self._selector
        assert sel is not None
        next_tick = time.monotonic()
        while self._io_running:
            try:
                events = sel.select(_TICK)
            except OSError:
                events = []
            for key, mask in events:
                tag = key.data
                if tag == "waker":
                    try:
                        while self._waker_r.recv(4096):  # type: ignore[union-attr]
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif tag == "listen":
                    self._handle_accept()
                else:
                    if mask & selectors.EVENT_WRITE:
                        self._handle_writable(tag)
                    if mask & selectors.EVENT_READ:
                        self._hand_off(tag)
            self._drain_ioq()
            now = time.monotonic()
            if now >= next_tick:
                next_tick = now + _TICK
                self._tick(now)

    def _drain_ioq(self) -> None:
        """Apply selector mutations requested by other threads — all
        register/modify/unregister calls happen on the I/O thread."""
        sel = self._selector
        assert sel is not None
        while True:
            try:
                req = self._ioq.popleft()
            except IndexError:
                return
            op = req[0]
            if op == "want_write":
                conn = req[1]
                if conn.retired or conn.want_write:
                    continue
                self._sel_update(conn, conn.sel_mask | selectors.EVENT_WRITE)
                conn.want_write = True
            elif op == "resume_read":
                # A runner parked its connection: hand the socket back
                # to the event loop.  Level-triggered readiness means
                # any bytes that arrived while ownership was in flight
                # surface on the very next select().
                conn = req[1]
                if conn.retired:
                    continue
                self._sel_update(conn, conn.sel_mask | selectors.EVENT_READ)
            elif op == "close":
                conn = req[1]
                with conn.out_lock:
                    try:
                        self._flush_out_locked(conn)
                    except OSError:
                        pass
                self._sel_update(conn, 0)
                try:
                    conn.sock.close()
                except OSError:
                    pass
            elif op == "stop_accept":
                if self._listen_sock is not None:
                    try:
                        sel.unregister(self._listen_sock)
                    except (KeyError, ValueError, OSError):
                        pass
                    try:
                        self._listen_sock.close()
                    except OSError:
                        pass

    def _sel_update(self, conn: _Connection, mask: int) -> None:
        """Move one socket to a new selector interest set (I/O thread
        only).  ``mask`` 0 means unregistered — the state of a socket
        whose runner is reading it directly.  On any selector
        error the socket is forced out of the selector; the close path
        cleans up the fd."""
        sel = self._selector
        if sel is None or conn.sel_mask == mask:
            return
        try:
            if mask == 0:
                sel.unregister(conn.sock)
            elif conn.sel_mask == 0:
                sel.register(conn.sock, mask, conn)
            else:
                sel.modify(conn.sock, mask, conn)
            conn.sel_mask = mask
        except (KeyError, ValueError, OSError):
            conn.sel_mask = 0
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass

    # ------------------------------------------------------------------
    # Accept + admission control
    # ------------------------------------------------------------------
    def _handle_accept(self) -> None:
        assert self._listen_sock is not None
        while True:
            try:
                sock, addr = self._listen_sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listen socket closed by shutdown()
            faults = self.faults
            if faults is not None and "net.accept" in faults.watching:
                try:
                    faults.fire("net.accept", addr=addr)
                except Exception:
                    # Injected accept failure: the connection is dropped
                    # before admission, exactly like a dying client.
                    self._m_rejected.labels(reason="fault").inc()
                    sock.close()
                    continue
            obs = self.db.obs
            if obs is not None:
                obs.count("net.accept")
            if self._draining.is_set():
                self._refuse(sock, ServerShutdownError("server is shutting down"))
                self._m_rejected.labels(reason="shutdown").inc()
                continue
            with self._conns_latch:
                admitted = len(self._conns) < self.config.max_connections
                if admitted:
                    self._next_conn_id += 1
                    conn_id = self._next_conn_id
            if not admitted:
                self._refuse(
                    sock,
                    ServerBusyError(
                        f"server busy: max_connections "
                        f"({self.config.max_connections}) reached"
                    ),
                )
                self._m_rejected.labels(reason="busy").inc()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Connection(conn_id, sock, addr, self.db.connect())
            with self._conns_latch:
                self._conns[conn_id] = conn
            self._sel_update(conn, selectors.EVENT_READ)
            self._m_accepted.inc()
            self._m_active.inc()

    def _refuse(self, sock: socket.socket, exc: ReproError) -> None:
        """Reject a pre-admission socket with a clean error frame (the
        accepted socket is still in blocking mode here)."""
        try:
            sock.sendall(protocol.encode_error(exc, in_transaction=False))
        except OSError:
            pass
        finally:
            sock.close()

    def _hand_off(self, conn: _Connection) -> None:
        """A parked socket turned readable (a frame, EOF or a reset):
        give the connection to a runner.  READ interest goes dark first
        — from here until the runner parks it, the runner is the only
        thread reading this socket."""
        with conn.lock:
            if conn.owned or conn.retired:
                return
            conn.owned = True
        self._sel_update(conn, conn.sel_mask & ~selectors.EVENT_READ)
        conn.handoff = time.perf_counter()
        self._runners.submit(self._serve, conn)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _flush_out_locked(self, conn: _Connection) -> None:
        """Drain as much outbound buffer as the kernel will take.
        Caller holds ``out_lock``.  Raises OSError on a dead socket."""
        while conn.outbuf:
            mv = memoryview(conn.outbuf)
            try:
                n = conn.sock.send(mv)
            except (BlockingIOError, InterruptedError):
                return
            finally:
                mv.release()
            if n <= 0:
                return
            del conn.outbuf[:n]

    def _handle_writable(self, conn: _Connection) -> None:
        try:
            with conn.out_lock:
                self._flush_out_locked(conn)
                drained = not conn.outbuf
        except OSError:
            # Dead socket: stop watching it.  A parked connection
            # retires here; a runner meets the error itself.
            drained = True
            self._retire_parked(conn, "abrupt_disconnect")
        if drained and conn.want_write:
            self._sel_update(conn, conn.sel_mask & ~selectors.EVENT_WRITE)
            conn.want_write = False

    def _send(self, conn: _Connection, data: bytes, frames: int = 1) -> None:
        """Queue ``frames`` whole response frames, already joined into
        ``data`` — a statement's reply is one call: one ``out_lock``,
        one byte count, one counter bump.  Replies accumulate in the
        outbound buffer and are flushed at the next statement boundary
        (``_flush_conn``), so one write syscall covers a whole reply —
        or a whole pipelined batch of replies; the high-water mark
        bounds buffering for huge result sets.  The ``net.write`` seam
        still fires once per frame; a frame it fails takes the rest of
        ``data`` with it (nothing of it is queued).  Raises OSError when
        the connection is dead/killed."""
        faults = self.faults
        if faults is not None and "net.write" in faults.watching:
            for _ in range(frames):
                try:
                    faults.fire("net.write", conn_id=conn.id)
                except Exception as exc:  # SimulatedCrash (BaseException) passes
                    raise OSError(f"injected write failure: {exc}") from exc
        obs = self.db.obs
        if obs is not None:
            obs.count("net.write", frames)
        with conn.out_lock:
            if conn.doomed is not None:
                raise OSError("connection was killed")
            outbuf = conn.outbuf
            outbuf += data
            buffered = len(outbuf)
            if buffered > conn.out_hiwat:
                conn.out_hiwat = buffered
            if buffered >= _FLUSH_HIWAT:
                self._flush_out_locked(conn)
        conn.bytes_out += len(data)
        self._m_bytes_out.inc(len(data))

    def _flush_conn(self, conn: _Connection) -> None:
        """Hand buffered replies to the kernel; if it cannot take them
        all, arm the event loop's WRITE path to drain the rest.  Raises
        OSError on a dead socket."""
        with conn.out_lock:
            if conn.doomed is not None:
                return
            self._flush_out_locked(conn)
            pending = bool(conn.outbuf)
        if pending and not conn.want_write:
            self._ioq.append(("want_write", conn))
            self._wake()

    def _send_error(
        self, conn: _Connection, exc: BaseException,
        send: Callable[[_Connection, bytes], None] | None = None,
    ) -> None:
        """Every ERROR frame to an admitted connection is built here:
        the structured error plus the session's transaction flag (the
        client's ``in_transaction`` is server-authoritative).  ``send``
        defaults to the buffered ``_send``."""
        frame = protocol.encode_error(exc, conn.session.in_transaction)
        (send or self._send)(conn, frame)

    def _try_send(self, conn: _Connection, frame: bytes) -> None:
        try:
            self._send(conn, frame)
            self._flush_conn(conn)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Runner: one connection from socket read to reply
    # ------------------------------------------------------------------
    def _serve(self, conn: _Connection) -> None:
        """Serve an owned connection until it parks or retires.  Each
        batch: read what the socket has, decode every complete frame,
        run them in order, flush once (after the last frame), then
        linger ``_HOT_POLL`` for the next batch.  The first batch has
        waited since the loop's hand-off — what ``net_queue`` prices."""
        ready = conn.handoff
        try:
            while True:
                cause, error = self._recv_frames(conn)
                if not self._run_frames(conn, ready):
                    return
                if error is not None:
                    # Garbage framing: the frames before it have run;
                    # answer with a structured 08P01 frame, then hang up.
                    self._send_error(conn, error, self._try_send)
                if cause is not None:
                    self._retire(
                        conn, "killed" if conn.doomed is not None else cause
                    )
                    return
                if not self._hot_poll(conn):
                    self._park(conn)
                    return
                ready = time.perf_counter()
        except BaseException:
            # _handle_frame answers every Exception a frame raises, so
            # this is a simulated crash or a server bug.  The executor
            # would file it in a future nobody reads: report it here.
            sys.excepthook(*sys.exc_info())
            raise

    def _recv_frames(
        self, conn: _Connection
    ) -> tuple[str | None, ProtocolError | None]:
        """Read what the socket holds and decode every complete frame
        into the inbox, firing ``net.read`` once per frame.  Returns why
        the connection must retire once those frames have run (``None``
        while it lives) and the framing error to answer, if any."""
        cause = None
        try:
            while True:
                chunk = conn.sock.recv(_RECV_CHUNK)
                if not chunk:
                    cause = "eof"
                    break
                conn.inbuf += chunk
                if len(chunk) < _RECV_CHUNK:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            cause = "abrupt_disconnect"
        inbuf = conn.inbuf
        inbox = conn.inbox
        decoded_frames = 0
        pos = 0
        error = None
        faults = self.faults
        try:
            while True:
                decoded = protocol.decode_frame(inbuf, pos)
                if decoded is None:
                    break
                if faults is not None and "net.read" in faults.watching:
                    try:
                        faults.fire("net.read", conn_id=conn.id)
                    except Exception:
                        # Injected ABORT = "this read failed": frames
                        # already decoded still run, then the
                        # connection dies like a reset peer.
                        cause = "abrupt_disconnect"
                        break
                ftype, payload, pos = decoded
                inbox.append((ftype, payload))
                decoded_frames += 1
        except ProtocolError as exc:
            error, cause = exc, "protocol_error"
        obs = self.db.obs
        if decoded_frames and obs is not None:
            obs.count("net.read", decoded_frames)
        if pos:
            del inbuf[:pos]
            conn.last_activity = time.monotonic()
            conn.bytes_in += pos
            self._m_bytes_in.inc(pos)
        if cause == "eof" and inbuf:
            cause = "protocol_error"  # the peer hung up mid-frame
        return cause, error

    def _run_frames(self, conn: _Connection, ready: float) -> bool:
        """Run the decoded frames in order; False once the connection
        has been retired."""
        inbox = conn.inbox
        while inbox:
            ftype, payload = inbox.popleft()
            conn.state = "active"
            if not self._handle_frame(conn, ftype, payload, ready):
                return False
            conn.state = "idle"
            if conn.doomed is not None:
                self._retire(conn, "killed")
                return False
            if self._draining.is_set() and not conn.session.in_transaction:
                # Drain point: this connection's transaction (if any)
                # just finished; retire it politely.
                self._send_error(
                    conn, ServerShutdownError("server is shutting down"),
                    self._try_send,
                )
                self._retire(conn, "shutdown")
                return False
        return True

    def _hot_poll(self, conn: _Connection) -> bool:
        """Linger on the owned connection's socket before parking.  A
        hit keeps the next request → reply exchange on this thread,
        with no selector round trip and no hand-off — a busy terminal
        gets thread-per-connection latency while parked connections
        still cost only a selector slot.  True when the socket turned
        readable (new frames, or a disconnect to act on)."""
        if conn.doomed is not None or self._draining.is_set():
            return False
        try:
            readable, _, _ = select.select([conn.sock], [], [], _HOT_POLL)
        except (OSError, ValueError):
            return False
        return bool(readable)

    def _park(self, conn: _Connection) -> None:
        """Release ownership and hand the socket back to the event loop
        (READ interest was off while the runner owned it).  A kill that
        lands from here on turns the parked socket readable, and the
        runner it is handed to retires it."""
        conn.last_activity = time.monotonic()
        with conn.lock:
            conn.owned = False
        self._ioq.append(("resume_read", conn))
        self._wake()

    def _retire(self, conn: _Connection, cause: str) -> None:
        """The single disconnect path: roll back, release, deregister.
        ``Session.close()`` aborts any open transaction, which releases
        every lock the connection held.  Callers own the connection —
        its runner, or ``_retire_parked`` after winning it."""
        conn.retired = True
        conn.state = "closing"
        conn.session.close()
        with self._conns_latch:
            self._conns.pop(conn.id, None)
        self._m_active.dec()
        self._m_disconnects.labels(cause=cause).inc()
        self._ioq.append(("close", conn))
        self._wake()

    def _retire_parked(
        self, conn: _Connection, cause: str,
        farewell: ReproError | None = None, unless_in_txn: bool = False,
    ) -> None:
        """Retire a connection no runner owns (idle timeout, the
        shutdown sweep, a dead socket seen by the loop), after sending
        ``farewell`` as its last frame.  An owned connection is left to
        its runner; ``unless_in_txn`` also spares one whose client is
        mid-transaction."""
        with conn.lock:
            if (
                conn.owned or conn.retired
                or (unless_in_txn and conn.session.in_transaction)
            ):
                return
            conn.retired = True
        if farewell is not None:
            self._kill(conn, farewell)
        self._retire(conn, cause)

    # ------------------------------------------------------------------
    # Frame execution
    # ------------------------------------------------------------------
    def _handle_frame(
        self, conn: _Connection, ftype: int, payload: bytes, enq_ts: float
    ) -> bool:
        """Dispatch one frame; returns False when the connection was
        retired (protocol violation, CLOSE, dead socket)."""
        try:
            if not conn.greeted and ftype != protocol.HELLO:
                # Client-initiated handshake: the first frame must be a
                # HELLO; the WELCOME answers it (version + epoch + id).
                raise ProtocolError(
                    f"expected HELLO, got frame type 0x{ftype:02x}"
                )
            if ftype == protocol.CLOSE:
                self._retire(conn, "client_close")
                return False
            began = time.monotonic()
            kind = self._dispatch(conn, ftype, payload, enq_ts)
            ctx, conn.trace_ctx = conn.trace_ctx, None
            if not conn.inbox:
                # Statement boundary with nothing else queued: push the
                # buffered reply (or the whole pipelined batch of
                # replies) to the kernel in one write.  The peek is
                # exact — only this runner appends to the inbox.
                obs = self.db.obs
                if ctx is not None and obs is not None:
                    flush_us = obs.trace.now_us()
                    self._flush_conn(conn)
                    obs.trace.complete(
                        "net.flush", flush_us, cat="net",
                        args={"trace": ctx.trace_id,
                              "parent": ctx.span_id,
                              "conn": conn.id},
                    )
                else:
                    self._flush_conn(conn)
            observe = self._rt_cells.get(kind)
            if observe is not None:
                observe(time.monotonic() - began)
            return True
        except ProtocolError as exc:
            self._send_error(conn, exc, self._try_send)
            self._retire(conn, "protocol_error")
            return False
        except OSError:
            self._retire(
                conn, "killed" if conn.doomed is not None else "abrupt_disconnect"
            )
            return False
        except Exception as exc:  # noqa: BLE001 - last-resort server guard
            self._send_error(conn, exc, self._try_send)
            self._retire(conn, "internal_error")
            return False

    def _continue_trace(
        self, conn: _Connection, trace: tuple[int, int] | None,
        enq_ts: float,
    ) -> TraceContext | None:
        """Continue the client's trace as this request's server hop: a
        context carrying the wire ``trace_id``, parented on the
        client-side span, with the frame's wait since its batch was
        ready (the loop's hand-off, or the runner's own read on the hot
        path) already recorded as ``net_queue`` wait (it happened before
        any statement context existed, and the shared accumulator hands
        it down)."""
        if trace is None:
            return None
        obs = self.db.obs
        if obs is None:
            return None
        ctx = TraceContext(trace[0], None, trace[1])
        queued = max(0.0, time.perf_counter() - enq_ts)
        obs.record_wait("net_queue", queued, ctx)
        end_us = obs.trace.now_us()
        obs.trace.complete(
            "net.queue", end_us - queued * 1e6, cat="net",
            args={
                "trace": ctx.trace_id, "span": ctx.span_id,
                "parent": ctx.parent_id, "conn": conn.id,
                "wait": "net_queue",
            },
            end_us=end_us,
        )
        conn.trace_ctx = ctx
        return ctx

    def _dispatch(
        self, conn: _Connection, ftype: int, payload: bytes, enq_ts: float
    ) -> str:
        gate = self.db.flip_gate
        if (
            not gate.is_set()
            and not conn.session.in_transaction
            and ftype in (protocol.QUERY, protocol.EXECUTE, protocol.TXN)
        ):
            # Epoch flip in progress: hold *new* work (autocommit
            # statements, BEGINs) at the gate until COMMIT/ABORT
            # reopens it.  Statements inside an already-open
            # transaction pass — they must be able to reach their
            # COMMIT, or the flip could deadlock against 2PL locks.
            # (COMMIT/ROLLBACK frames on an idle session are errors
            # either way, so gating them too is harmless.)
            gate.wait(FLIP_GATE_TIMEOUT)
        if ftype == protocol.EXECUTE:
            frame = protocol.decode_execute(payload)
            handle = conn.prepared.get(frame["name"])
            if handle is None:
                self._send_error(conn, ProtocolError(
                    f"unknown prepared statement {frame['name']!r}"
                ))
                return "execute"
            self._run_statement(
                conn, handle, frame["params"],
                self._continue_trace(conn, frame["trace"], enq_ts),
            )
            return "execute"
        if ftype == protocol.QUERY:
            frame = protocol.decode_query(payload)
            self._run_statement(
                conn, frame["sql"], frame["params"],
                self._continue_trace(conn, frame["trace"], enq_ts),
            )
            return "query"
        if ftype == protocol.PARSE:
            frame = protocol.decode_parse(payload)
            name, sql = frame["name"], frame["sql"]
            try:
                if (
                    name not in conn.prepared
                    and len(conn.prepared) >= _MAX_PREPARED
                ):
                    raise ProtocolError(
                        f"prepared-statement cache full "
                        f"({_MAX_PREPARED}); PARSE rejected"
                    )
                conn.prepared[name] = self.db.prepare(sql)
            except ReproError as exc:
                self._send_error(conn, exc)
                return "parse"
            self._send(conn, protocol.encode_parse_ok(name))
            return "parse"
        if ftype == protocol.TXN:
            frame = protocol.decode_txn(payload)
            self._run_txn(
                conn, frame["op"],
                self._continue_trace(conn, frame["trace"], enq_ts),
            )
            return "txn"
        if ftype == protocol.META:
            command = protocol.decode_meta(payload)["command"]
            try:
                text = console.run(self.db, command)
            except ReproError as exc:
                self._send_error(conn, exc)
                return "meta"
            self._send(conn, protocol.encode_meta_result(text))
            return "meta"
        if ftype == protocol.PING:
            self._send(conn, protocol.encode_pong(self.db.epoch))
            return "ping"
        if ftype == protocol.HELLO:
            # The handshake (a repeated one is harmless: re-welcome).
            hello = protocol.decode_hello(payload)
            if hello["version"] != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client v{hello['version']}, "
                    f"server v{protocol.PROTOCOL_VERSION}"
                )
            self._apply_hello_options(conn, hello.get("options") or {})
            # The capabilities trailer goes only to clients that asked
            # for tracing — an old client's decode_welcome would reject
            # the extra byte.
            self._send(conn, protocol.encode_welcome(
                _SERVER_VERSION, self.db.epoch, conn.id,
                capabilities=protocol.CAP_TRACE if conn.trace else 0,
            ))
            conn.greeted = True
            return "hello"
        raise ProtocolError(f"unexpected frame type 0x{ftype:02x} from client")

    def _apply_hello_options(
        self, conn: _Connection, options: dict[str, str]
    ) -> None:
        """Session options carried on the HELLO trailer:
        ``isolation`` (``snapshot`` / ``read_committed``) and ``trace``
        (the client wants trace trailers; the WELCOME answers with
        ``CAP_TRACE``).  Unknown keys are ignored for forward
        compatibility."""
        isolation = options.get("isolation")
        if isolation is not None:
            try:
                level = IsolationLevel.coerce(isolation)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
            if level is not None:
                conn.session.isolation = level
        if options.get("trace") not in (None, "0", ""):
            conn.trace = True

    def _run_statement(
        self,
        conn: _Connection,
        handle: Statement | str,
        params: Sequence[Any],
        ctx: TraceContext | None,
    ) -> None:
        """Execute one statement — EXECUTE's PARSEd handle, or QUERY's
        SQL text, prepared here so that a parse error is counted, timed
        and traced like any other statement error — and queue its
        reply.  The start stamp is what the loop's tick measures
        ``statement_timeout`` against.  A non-None ``ctx`` (the
        continued client trace) is parked on the session so
        ``execute_statement`` forks its statement span under the server
        hop, and the hop itself is recorded as ``server.execute``."""
        conn.statements += 1
        conn.stmt_started = time.monotonic()
        obs = self.db.obs if ctx is not None else None
        if obs is not None:
            start_us = obs.trace.now_us()
            conn.session._request_ctx = ctx
        try:
            if isinstance(handle, str):
                handle = self.db.prepare(handle)
            result = conn.session.execute_statement(handle, params)
        except ReproError as exc:
            if conn.doomed is None:
                self._send_error(conn, exc)
            return
        finally:
            conn.stmt_started = None
            if obs is not None:
                conn.session._request_ctx = None
                obs.trace.complete(
                    "server.execute", start_us, cat="net",
                    args={"trace": ctx.trace_id, "span": ctx.span_id,
                          "parent": ctx.parent_id, "conn": conn.id},
                )
        if conn.doomed is not None:
            return
        self._send_result(conn, handle, result)

    def _send_result(
        self, conn: _Connection, handle: Statement, result: Result
    ) -> None:
        """ROW_HEADER, the ROW_BATCHes and COMPLETE, queued by one
        ``_send``.  A result too big for that streams: a chunk is queued
        — and ``_send`` flushes it — whenever it would fill the outbound
        buffer to ``_FLUSH_HIWAT``, so the buffer never holds more than
        the high-water mark plus one batch."""
        complete = protocol.encode_complete(
            result.statement,
            result.rowcount,
            conn.session.in_transaction,
            self.db.epoch,
        )
        if not result.columns:
            self._send(conn, complete)
            return
        frames = [self._row_header(handle, result)]
        size = len(frames[0])
        room = _FLUSH_HIWAT - len(conn.outbuf)
        rows = result.rows
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = protocol.encode_row_batch(rows[start : start + _BATCH_ROWS])
            frames.append(batch)
            size += len(batch)
            if size >= room:
                self._send(conn, b"".join(frames), len(frames))
                frames = []
                size = 0
                room = _FLUSH_HIWAT - len(conn.outbuf)
        frames.append(complete)
        self._send(conn, b"".join(frames), len(frames))

    @staticmethod
    def _row_header(handle: Statement, result: Result) -> bytes:
        """The result's ROW_HEADER frame, encoded once per planned
        query: a SELECT's ``Result.columns`` *is* its ``PlannedQuery``'s
        ``names`` list, built afresh with every plan, so a header cached
        on the handle next to that list describes exactly the results
        of its plan.  A re-plan (every schema epoch) brings a new list
        and the header is encoded again; so is every result whose
        columns are built per call (EXPLAIN, a routed statement)."""
        cached = handle.wire_header
        if cached is not None and cached[0] is result.columns:
            return cached[1]
        header = protocol.encode_row_header(result.statement, result.columns)
        handle.wire_header = (result.columns, header)
        return header

    def _run_txn(
        self, conn: _Connection, op: int,
        ctx: TraceContext | None = None,
    ) -> None:
        session = conn.session
        obs = self.db.obs if ctx is not None else None
        if obs is not None:
            # Transaction control skips execute_statement, so the hop
            # context is activated here directly — COMMIT's WAL append
            # (and its ``wal`` wait) lands under the client's trace.
            start_us = obs.trace.now_us()
            token = _trace_activate(ctx)
        try:
            if op == protocol.TXN_BEGIN:
                session.begin()
                tag = "BEGIN"
            elif op == protocol.TXN_COMMIT:
                session.commit()
                conn.transactions += 1
                tag = "COMMIT"
            else:
                session.rollback()
                conn.transactions += 1
                tag = "ROLLBACK"
        except ReproError as exc:
            self._send_error(conn, exc)
            return
        finally:
            if obs is not None:
                _trace_deactivate(token)
                obs.trace.complete(
                    "server.txn", start_us, cat="net",
                    args={"trace": ctx.trace_id, "span": ctx.span_id,
                          "parent": ctx.parent_id, "conn": conn.id,
                          "op": op},
                )
        self._send(conn, protocol.encode_complete(
            tag, 0, session.in_transaction, self.db.epoch
        ))

    # ------------------------------------------------------------------
    # Kills and timeouts
    # ------------------------------------------------------------------
    def _kill(self, conn: _Connection, exc: BaseException) -> None:
        """Doom a connection from another thread (the tick or
        shutdown): mark it, push a best-effort error frame, sever the
        socket.  Its runner retires it at the statement boundary; a
        parked one turns readable (EOF) and the runner it is handed to
        retires it."""
        with conn.out_lock:
            if conn.doomed is not None:
                return
            conn.doomed = exc
            try:
                self._flush_out_locked(conn)
            except OSError:
                pass
            frame = protocol.encode_error(exc, conn.session.in_transaction)
            try:
                # Switch to a short blocking send so the farewell frame
                # can never be torn mid-frame by a full kernel buffer.
                conn.sock.settimeout(0.5)
                conn.sock.sendall(frame)
            except OSError:
                pass
            finally:
                try:
                    conn.sock.setblocking(False)
                except OSError:
                    pass
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._wake()

    def _tick(self, now: float) -> None:
        """The loop's bookkeeping: refresh the serving gauge, kill a
        connection whose statement has run past ``statement_timeout``
        and retire a parked one with no frame for ``idle_timeout`` (an
        owned connection is not idle, however old its last frame)."""
        with self._conns_latch:
            conns = list(self._conns.values())
        # NULL_METRIC no-ops when observability is detached.
        self._g_serving.set(sum(conn.owned for conn in conns))
        stmt_timeout = self.config.statement_timeout
        idle_timeout = self.config.idle_timeout
        if stmt_timeout is None and idle_timeout is None:
            return
        for conn in conns:
            started = conn.stmt_started
            if (
                stmt_timeout is not None and started is not None
                and now - started > stmt_timeout and conn.doomed is None
            ):
                self._kill(conn, StatementTimeoutError(
                    f"statement exceeded statement_timeout ({stmt_timeout}s); "
                    "connection terminated"
                ))
            elif (
                idle_timeout is not None and not conn.owned
                and now - conn.last_activity > idle_timeout
            ):
                self._retire_parked(conn, "idle_timeout", IdleTimeoutError(
                    f"idle timeout ({idle_timeout}s) exceeded"
                ))

    # ------------------------------------------------------------------
    # Cluster epoch flip (shard side of the two-phase switch)
    # ------------------------------------------------------------------
    def _verb_epoch(self, _db: Database, arg: str) -> str:
        parts = arg.split()
        verb = parts[0] if parts else "status"
        if verb == "status":
            engines = [
                {"migration": migration, "complete": complete}
                for migration, _units, complete in console.migrations(
                    console.view(self.db, "bullfrog_stat_migrations")
                )
            ]
            with self._epoch_latch:
                token = self._epoch_token
            return json.dumps({
                "epoch": self.db.epoch,
                "gate_open": self.db.flip_gate.is_set(),
                "prepared": token,
                "migrations": engines,
            })
        if verb == "prepare" and len(parts) == 2:
            return self._epoch_prepare(parts[1])
        if verb == "commit" and len(parts) == 3:
            return self._epoch_commit(parts[1], parts[2])
        if verb == "abort" and len(parts) == 2:
            return self._epoch_abort(parts[1])
        raise ProtocolError(f"unknown meta command 'epoch {arg}'")

    def _epoch_prepare(self, token: str) -> str:
        faults = self.faults
        if faults is not None and "cluster.prepare" in faults.watching:
            faults.fire("cluster.prepare", token=token)
        with self._epoch_latch:
            if self._epoch_token is not None and self._epoch_token != token:
                raise ProtocolError(
                    f"epoch flip already prepared "
                    f"(token {self._epoch_token!r})"
                )
            self._epoch_token = token
            self.db.flip_gate.clear()
            if self._epoch_abort_timer is not None:
                self._epoch_abort_timer.cancel()
            timer = threading.Timer(
                self.config.epoch_prepare_timeout,
                self._epoch_auto_abort, (token,),
            )
            timer.daemon = True
            timer.start()
            self._epoch_abort_timer = timer
        return json.dumps({"prepared": token, "epoch": self.db.epoch})

    def _epoch_commit(self, token: str, scenario: str) -> str:
        with self._epoch_latch:
            if self._epoch_token != token:
                raise ProtocolError(
                    f"epoch commit {token!r} does not match prepared "
                    f"token {self._epoch_token!r}"
                )
        faults = self.faults
        if faults is not None and "cluster.commit" in faults.watching:
            faults.fire("cluster.commit", token=token)
        try:
            # The logical switch happens inside submit() while the gate
            # is closed: nothing new starts under the old schema, and
            # nothing new starts under the new one until the gate
            # reopens below — the shard never serves mixed schemas.
            self._submit_scenario(scenario)
        finally:
            self._epoch_release(token)
        return json.dumps({
            "committed": token,
            "epoch": self.db.epoch,
            "migration": scenario,
        })

    def _epoch_abort(self, token: str) -> str:
        released = self._epoch_release(token)
        return json.dumps({"aborted": token if released else None,
                           "epoch": self.db.epoch})

    def _epoch_release(self, token: str) -> bool:
        with self._epoch_latch:
            if self._epoch_token != token:
                return False
            self._epoch_token = None
            if self._epoch_abort_timer is not None:
                self._epoch_abort_timer.cancel()
                self._epoch_abort_timer = None
            self.db.flip_gate.set()
            return True

    def _epoch_auto_abort(self, token: str) -> None:
        """The coordinator never sent phase 2: reopen unilaterally (the
        router's next prepare starts a fresh round)."""
        self._epoch_release(token)

    def _verb_migrate(self, _db: Database, arg: str) -> str:
        parts = arg.split()
        if not parts:
            raise ProtocolError("unknown meta command 'migrate' (need a scenario)")
        scenario = parts[0]
        try:
            delay = float(parts[1]) if len(parts) > 1 else 0.5
        except ValueError:
            raise ProtocolError(f"bad migrate delay {parts[1]!r}") from None
        handle = self._submit_scenario(scenario, background_delay=delay)
        return json.dumps({
            "migration": scenario,
            "complete": handle.is_complete,
            "epoch": self.db.epoch,
        })

    def _submit_scenario(self, scenario: str, background_delay: float = 0.5):
        """Submit a named TPC-C migration scenario on this shard's
        database — its own lazy engine, bitmaps/hashmaps, background
        pass, exactly as the embedded controller would."""
        from ..core import BackgroundConfig, MigrationController
        from ..tpcc.migrations import SCENARIOS

        spec = SCENARIOS.get(scenario)
        if spec is None:
            raise ProtocolError(
                f"unknown migration scenario {scenario!r} "
                f"(have: {', '.join(sorted(SCENARIOS))})"
            )
        if self._migration_controller is None:
            self._migration_controller = MigrationController(self.db)
        return self._migration_controller.submit(
            scenario, spec["ddl"],
            background=BackgroundConfig(delay=background_delay, chunk=64,
                                        interval=0.002),
            big_flip=spec["big_flip"],
        )

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def shutdown(self, drain_timeout: float | None = None) -> dict[str, int]:
        """Stop accepting, drain, then abort stragglers.

        Returns ``{"drained": n, "aborted": m}`` — how many connections
        retired cleanly (closed on their own, or at a statement
        boundary outside a transaction) versus force-killed at the
        deadline with their transactions rolled back.
        """
        if not self._running:
            return {"drained": 0, "aborted": 0}
        self._running = False
        self._draining.set()
        # A prepared flip can never commit once we are shutting down;
        # reopen the gate so gated runners drain instead of timing out.
        with self._epoch_latch:
            if self._epoch_abort_timer is not None:
                self._epoch_abort_timer.cancel()
                self._epoch_abort_timer = None
            self._epoch_token = None
        self.db.flip_gate.set()
        # Census first: every connection alive at this instant either
        # drains (self-retires at a statement boundary, or is killed
        # while idle with no transaction) or is aborted at the
        # deadline.  Handlers start retiring the moment ``_draining``
        # is set, so counting any later under-reports ``drained``.
        with self._conns_latch:
            census = len(self._conns)
        deadline = time.monotonic() + (
            self.config.drain_timeout if drain_timeout is None else drain_timeout
        )
        self._ioq.append(("stop_accept",))
        self._wake()

        # Phases 1+2: parked connections outside a transaction have
        # nothing to drain — retire them immediately; keep sweeping as
        # in-flight work reaches a statement boundary (runners also
        # retire their own connection at drain points — see
        # _run_frames).
        shutdown_exc = ServerShutdownError("server is shutting down")
        while True:
            with self._conns_latch:
                remaining = list(self._conns.values())
            if not remaining:
                break
            for conn in remaining:
                self._retire_parked(
                    conn, "shutdown", shutdown_exc, unless_in_txn=True
                )
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)

        # Phase 3: the deadline passed — abort stragglers.
        with self._conns_latch:
            stragglers = list(self._conns.values())
        aborted = len(stragglers)
        for conn in stragglers:
            self._kill(
                conn,
                ServerShutdownError(
                    "server shutdown deadline reached; transaction aborted"
                ),
            )
        # Wait for the kills to unwind (a runner mid-statement retires
        # its connection when the statement returns; a parked one is
        # handed to a runner by its EOF).
        wait_deadline = time.monotonic() + 5.0
        while time.monotonic() < wait_deadline:
            with self._conns_latch:
                stuck = bool(self._conns)
            if not stuck:
                break
            time.sleep(0.01)

        # Stop the loop, then the runners — a runner still inside a
        # statement past every deadline is left to finish on its own —
        # then apply the close requests the last runners posted.
        self._io_running = False
        self._wake()
        if self._io_thread is not None:
            self._io_thread.join(timeout=5.0)
        self._runners.shutdown(wait=not stuck)  # type: ignore[union-attr]
        self._drain_ioq()
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass
        for waker in (self._waker_r, self._waker_w):
            if waker is not None:
                try:
                    waker.close()
                except OSError:
                    pass
        # Stop the history sampler only if start() created it — an
        # embedding application that attached monitoring first keeps
        # its sampler running after the server goes away.
        if self._monitor_owns_history:
            history = getattr(self.db.obs, "history", None)
            if history is not None:
                history.stop()
            self._monitor_owns_history = False
        # Any connection cleaned up by its own handler before the
        # deadline counts as drained.
        drained = max(0, census - aborted)
        self._draining.clear()
        return {"drained": drained, "aborted": aborted}

