"""``bullfrogd``: an event-loop socket server in front of a Database.

The server is the I/O half of a connection; the protocol half is a
socket-free :class:`~repro.net.session.WireSession` per connection,
which runs decoded frames on the connection's
:class:`~repro.db.Session` and writes its replies into the outbound
buffer here.

One I/O thread accepts connections and runs a :mod:`selectors` loop
over the *parked* ones — connections with no request in flight.  When
a parked socket turns readable, the loop switches its READ interest
off, stamps the hand-off time and submits the connection to a
**runner**; the loop never reads that socket itself.  The runner
(:meth:`BullfrogServer._serve`) serves the connection from socket read
to reply: ``recv`` into the input buffer, decode every complete frame,
feed the frames in order to the connection's machine, flush the
replies once per batch, and linger ``_HOT_POLL_MS`` for the next frame
before parking the connection back on the selector.  A chatty client
therefore runs request → reply on one thread, and a client that
**pipelines** many frames before reading a reply gets the replies in
request order, because a connection has at most one runner.  A parked
connection costs one selector slot and a few KB — no thread — which is
what lets one ``bullfrogd`` hold thousands of idle clients.

Runners come from a :class:`~concurrent.futures.ThreadPoolExecutor`
sized ``max_connections``.  Its idle accounting spends one permit per
submit, so every active connection gets a thread of its own.  That is
a correctness requirement: a statement blocked on a 2PL lock (or in
the lazy-migration skip-wait) holds its runner, and the frame that
ends the wait — typically the lock holder's COMMIT — arrives on
another connection, which must never queue behind the waiters.

Connection lifecycle guarantees:

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
from functools import partial
from typing import Any

from ..catalog.catalog import VirtualTable
from ..db import Database
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
from . import protocol
from .session import _FLUSH_HIWAT, WireSession

_RECV_CHUNK = 65536

# How long (ms; ``poll`` counts whole milliseconds) a runner lingers on
# its connection's socket after a batch, hoping the next frame is
# already in flight.  A hit keeps the next request on the same thread
# (no selector round trip, no hand-off) — chatty connections get
# thread-per-connection latency while parked ones cost only a selector
# slot.
_HOT_POLL_MS = 1

_BACKLOG = 16  # bounded TCP accept queue
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
    """Server-side bookkeeping for one client socket; ``wire`` is its
    protocol machine, whose sink is this connection's outbound buffer.

    A connection is either *parked* (READ interest on, no runner) or
    *owned* by exactly one runner (READ interest off).  ``lock`` guards
    ``owned`` and ``retired``: only the I/O thread hands a parked
    connection to a runner, only that runner parks it again, and any
    other thread may retire it only while it is parked.  Everything
    else a runner touches — ``inbuf``, ``inbox``, the machine — is the
    owner's alone.  ``out_lock`` guards the outbound buffer and
    ``doomed`` (the loop drains write backlogs; kills come from the
    tick or ``shutdown``).  ``sel_mask`` is the current selector
    interest and is touched only by the I/O thread.
    """

    __slots__ = (
        "id", "sock", "addr", "session", "wire", "state", "doomed",
        "connected_at", "last_activity",
        "bytes_in", "bytes_out", "out_hiwat", "inbuf", "inbox",
        "owned", "handoff", "retired", "lock",
        "out_lock", "outbuf", "want_write", "sel_mask",
    )

    def __init__(self, server: "BullfrogServer", conn_id: int,
                 sock: socket.socket, addr: Any) -> None:
        self.id = conn_id
        self.sock = sock
        self.addr = addr
        self.session = server.db.connect()
        self.wire = WireSession(
            self.session, conn_id, partial(server._send, self),
            server._rt_cells,
        )
        self.state = "idle"  # idle | active | closing
        self.doomed: BaseException | None = None
        self.connected_at = time.monotonic()
        self.last_activity = self.connected_at
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
        self.retired = False
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
            self._m_accepted = self._m_rejected = self._m_active = NULL_METRIC
            self._m_bytes_in = self._m_bytes_out = NULL_METRIC
            self._m_disconnects = self._g_serving = NULL_METRIC
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
            "server-side time per client frame (dispatch -> reply "
            "queued; the batch's flush is not included)",
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
                    conn.wire.statements,
                    conn.wire.transactions,
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
        # The history sampler, health engine and flight recorder; none
        # when observability is detached (the zero-cost contract).
        obs = self.db.obs
        if obs is not None:
            history = obs.history
            self._monitor_owns_history = history is None or not history.running
            obs.attach_monitoring(
                self.db,
                interval=self.config.monitor_interval,
                incident_dir=self.config.incident_dir,
            )
        return self

    def monitor_summary(self) -> dict:
        """The ``top json`` payload (history summary + health report +
        this server's ``bullfrog_stat_server`` row)."""
        return console.monitor_summary(self.db)

    def __enter__(self) -> "BullfrogServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

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
            conn = _Connection(self, conn_id, sock, addr)
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

    def _send(self, conn: _Connection, data: bytes, frames: int) -> int:
        """The machine's sink: queue ``frames`` whole frames joined
        into ``data`` under one ``out_lock``, one byte count and one
        counter bump.  The buffer is flushed once per batch
        (``_flush_conn``) or when it reaches ``_FLUSH_HIWAT``.  The
        ``net.write`` seam fires once per frame; a frame it fails drops
        the rest of ``data``.  Returns the bytes still buffered; raises
        OSError when the connection is dead or killed."""
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
                buffered = len(outbuf)
        conn.bytes_out += len(data)
        self._m_bytes_out.inc(len(data))
        return buffered

    def _flush_conn(self, conn: _Connection) -> None:
        """Hand buffered replies to the kernel; if it cannot take them
        all, arm the event loop's WRITE path to drain the rest.  The
        write of a batch whose last request the client traces is that
        request's ``net.flush`` span.  Raises OSError on a dead
        socket."""
        ctx = conn.wire.trace_ctx
        if ctx is not None:
            trace = self.db.obs.trace  # a hop exists only with obs on
            flush_us = trace.now_us()
        with conn.out_lock:
            if conn.doomed is not None:
                return
            self._flush_out_locked(conn)
            pending = bool(conn.outbuf)
        if pending and not conn.want_write:
            self._ioq.append(("want_write", conn))
            self._wake()
        if ctx is not None:
            trace.complete(
                "net.flush", flush_us, cat="net",
                args={"trace": ctx.trace_id, "parent": ctx.span_id,
                      "conn": conn.id},
            )

    # ------------------------------------------------------------------
    # Runner: one connection from socket read to reply
    # ------------------------------------------------------------------
    def _serve(self, conn: _Connection) -> None:
        """Serve an owned connection until it parks or retires.  Each
        batch: read what the socket has, decode every complete frame,
        feed them in order to the machine, flush once, then linger
        ``_HOT_POLL_MS`` for the next batch.  The first batch has
        waited since the loop's hand-off — what ``net_queue`` prices."""
        ready = conn.handoff
        try:
            while True:
                cause, error = self._recv_frames(conn)
                retire = self._run_frames(conn, ready) if conn.inbox else None
                if retire is None and error is not None:
                    # Garbage framing: the frames before it have run;
                    # answer with a structured 08P01 frame, then hang up.
                    conn.wire.farewell(error)
                retire = retire or cause
                if retire is not None:
                    self._retire(
                        conn, "killed" if conn.doomed is not None else retire
                    )
                    return
                if not self._hot_poll(conn):
                    self._park(conn)
                    return
                ready = time.perf_counter()
        except BaseException:
            # The machine answers every Exception a frame raises, so
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

    def _run_frames(self, conn: _Connection, ready: float) -> str | None:
        """Feed the decoded frames to the machine in order, then flush
        their replies in one write.  Returns why the connection must
        retire, ``None`` while it lives."""
        inbox = conn.inbox
        wire = conn.wire
        while inbox:
            ftype, payload = inbox.popleft()
            conn.state = "active"
            cause = wire.feed(ftype, payload, ready)
            conn.state = "idle"
            if cause is not None:
                return cause
            if conn.doomed is not None:
                return "killed"
            if self._draining.is_set() and not conn.session.in_transaction:
                # Drain point: this connection's transaction (if any)
                # just finished; retire it politely.
                wire.farewell(ServerShutdownError("server is shutting down"))
                return "shutdown"
        try:
            self._flush_conn(conn)
        except OSError:
            return "abrupt_disconnect"
        return None

    def _hot_poll(self, conn: _Connection) -> bool:
        """Linger ``_HOT_POLL_MS`` on the owned connection's socket
        before parking; True when it turned readable (new frames, or a
        disconnect to act on).  ``poll``, because ``select`` refuses a
        descriptor at or above ``FD_SETSIZE``."""
        if conn.doomed is not None or self._draining.is_set():
            return False
        poller = select.poll()
        try:
            poller.register(conn.sock, select.POLLIN)
            return bool(poller.poll(_HOT_POLL_MS))
        except (OSError, ValueError):
            return False

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
        its runner, or ``_retire_parked`` after winning it.  What the
        connection still buffers (a farewell frame, say) goes out first,
        as far as the kernel takes it."""
        conn.retired = True
        conn.state = "closing"
        with conn.out_lock:
            try:
                self._flush_out_locked(conn)
            except OSError:
                pass
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
            started = conn.wire.stmt_started
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
                self._epoch_release, (token,),
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

