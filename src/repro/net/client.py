"""Blocking client library for ``bullfrogd``.

:func:`connect` returns a :class:`Connection` whose ``execute()`` /
``transaction()`` mirror the embedded :class:`~repro.db.Session` API
and return the same :class:`~repro.db.Result` objects, so code written
against the embedded engine (the TPC-C terminals, ``format_result`` in
the shell) runs over a socket unchanged.

Two hot-path features come from the PARSE/EXECUTE frames and frame
pipelining:

* **Prepared statements** — ``conn.prepare(sql)`` parses once
  server-side and returns a :class:`PreparedStatement`; executing it
  skips the SQL tokenizer and parser entirely.  Passing
  ``auto_prepare=N`` to :func:`connect` turns on an implicit
  per-connection statement cache: ``execute()`` transparently prepares
  the first N distinct SQL strings it sees and runs them prepared from
  then on — parameterized workloads (the TPC-C terminals use ``?``
  placeholders throughout) get the fast path without changing a line.
* **Pipelining** — ``conn.pipeline()`` queues many requests, writes
  them as one batch, and only then reads the replies, collapsing N
  round trips into one.  The server answers strictly in request order;
  engine errors come back embedded per-operation (the connection
  survives them), while a transport error aborts the whole drain.

Server errors arrive as structured frames carrying the
:mod:`repro.errors` class name; the connection re-raises the matching
class, so ``except TransactionAborted: retry`` works across the wire.
Transaction state is **server-authoritative**: every COMPLETE/ERROR
frame carries the session's ``in_transaction`` flag and the current
schema epoch, which is how a client observes BullFrog's logical schema
switch without any extra round trip.

Replies are read frame by frame at an offset into one buffer
(:class:`~repro.net.protocol.FrameStream`), and a prepared statement
remembers its last ROW_HEADER, so a repeat execution compares the
header's bytes instead of decoding them.

:class:`ConnectionPool` adds thread-safe pooling with a liveness check
on acquire that costs no round trip (a zero-timeout ``poll`` on the
idle socket) and reconnect with decorrelated-jitter backoff when the
check fails — the building block for "clients reconnecting across the
migration" runs.

**Distributed tracing** (``connect(trace=True)``): the client asks for
it with a ``trace`` HELLO option; a server that understands answers
with ``CAP_TRACE`` in the WELCOME capabilities trailer.  From then on
every ``execute()`` / prepared execution / transaction control mints a
root :class:`~repro.obs.tracectx.TraceContext` and rides its ids on
the frame's trace trailer, so the server-loop and engine-internal
spans it causes share the client's ``trace_id``.  Pass a
:class:`~repro.obs.trace.TraceLog` as ``trace_log`` to also record the
**client-side** root span (``client.query`` et al.) — export it with
:func:`repro.obs.merge_chrome` next to the server's log and Perfetto
shows the request crossing the socket.  ``conn.last_trace`` holds the
most recent root context (how a caller finds its request tree in the
server's log).  Tracing against an old server degrades cleanly: no
capability, no trailer, client-side spans only.
"""

from __future__ import annotations

import json
import random
import select
import socket
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from ..db import Result
from ..errors import (
    ConnectionClosedError,
    NetworkError,
    ProtocolError,
    ReproError,
)
from ..obs.tracectx import TraceContext
from ..obs.tracectx import current as _trace_current
from . import protocol
from .addr import parse_hostport


def decorrelated_jitter(
    base: float, cap: float, rng: random.Random | None = None
) -> Iterator[float]:
    """Yield AWS-style decorrelated-jitter delays: each draw is
    ``min(cap, uniform(base, 3 * previous))``, starting from ``base``.

    Unlike deterministic exponential backoff, concurrent clients that
    fail at the same instant (a server restart kills a whole pool) draw
    *different* delays from the very first retry, so they do not stampede
    the listener in lockstep when it comes back.
    """
    uniform = (rng or random).uniform
    delay = base
    while True:
        delay = min(cap, uniform(base, delay * 3))
        yield delay


def connect(
    host: str = "127.0.0.1",
    port: int = 5433,
    connect_timeout: float = 10.0,
    client_name: str = "repro-client",
    auto_prepare: int = 0,
    isolation: str | None = None,
    trace: bool = False,
    trace_log: Any = None,
) -> "Connection":
    # ``connect("host:5444")`` works: a combined address in ``host``
    # wins over the ``port`` argument (shared parsing with the shell's
    # --connect and the router's shard list).
    host, port = parse_hostport(host, default_port=port)
    return Connection(host, port, connect_timeout=connect_timeout,
                      client_name=client_name, auto_prepare=auto_prepare,
                      isolation=isolation, trace=trace, trace_log=trace_log)


class Connection:
    """One socket to a ``bullfrogd``.  Not thread-safe (like a Session);
    use one per worker or a :class:`ConnectionPool`."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        client_name: str = "repro-client",
        auto_prepare: int = 0,
        isolation: str | None = None,
        trace: bool = False,
        trace_log: Any = None,
    ) -> None:
        self.host = host
        self.port = port
        # Session default isolation, carried as a HELLO option
        # (``isolation="snapshot"`` for SI reads during migration).
        self.isolation = isolation
        self._closed = False
        self._in_transaction = False
        self._auto_prepare = auto_prepare
        self._stmt_cache: dict[str, PreparedStatement] = {}
        self._next_ps = 0
        # Distributed tracing: passing a TraceLog implies tracing.
        self._trace = trace or trace_log is not None
        self._trace_log = trace_log
        self.trace_capable = False
        self.last_trace: TraceContext | None = None
        # When set, request contexts are minted as *children* of this
        # context instead of fresh roots — how the router fans one
        # client span out into per-shard server spans.  A pool's
        # connections mint no roots (``ConnectionPool`` clears
        # ``_mints_roots``): they trace only under a ``trace_parent``,
        # so an untraced request stays untraced downstream.
        self.trace_parent: TraceContext | None = None
        self._mints_roots = True
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ConnectionClosedError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = protocol.FrameStream(self._sock)
        self.bytes_out = 0
        self.bytes_in = 0
        try:
            options: dict[str, str] = {}
            if isolation is not None:
                options["isolation"] = isolation
            if self._trace:
                options["trace"] = "1"
            self._send(protocol.encode_hello(
                client_name, options=options or None
            ))
            ftype, payload = self._recv()
            if ftype == protocol.ERROR:
                # Admission control: the server refused us with a
                # structured frame before the welcome.
                frame = protocol.decode_error(payload)
                raise protocol.reconstruct_error(
                    frame["error_class"], frame["sqlstate"], frame["message"]
                )
            if ftype != protocol.WELCOME:
                raise ProtocolError(
                    f"expected WELCOME, got frame type 0x{ftype:02x}"
                )
            welcome = protocol.decode_welcome(payload)
        except BaseException:
            self._sock.close()
            self._closed = True
            raise
        if welcome["version"] != protocol.PROTOCOL_VERSION:
            self._sock.close()
            self._closed = True
            raise ProtocolError(
                f"server speaks protocol v{welcome['version']}, "
                f"client v{protocol.PROTOCOL_VERSION}"
            )
        self.server_version: str = welcome["server_version"]
        self.schema_epoch: int = welcome["schema_epoch"]
        self.session_id: int = welcome["session_id"]
        # An old server sends no capabilities trailer (decoded as 0):
        # tracing degrades to client-side spans with no trailer sent.
        self.trace_capable = bool(
            welcome.get("capabilities", 0) & protocol.CAP_TRACE
        )
        self._sock.settimeout(None)

    # ------------------------------------------------------------------
    # Low-level I/O
    # ------------------------------------------------------------------
    def _send(self, frame: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        try:
            self._stream.send_frame(frame)
        except OSError as exc:
            self._mark_broken()
            raise ConnectionClosedError(f"send failed: {exc}") from exc
        self.bytes_out += len(frame)

    def _recv(self) -> tuple[int, bytes]:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        try:
            frame = self._stream.recv_frame()
        except ProtocolError:
            self._mark_broken()
            raise
        except socket.timeout as exc:
            self._mark_broken()
            raise ConnectionClosedError("read timed out") from exc
        except OSError as exc:
            self._mark_broken()
            raise ConnectionClosedError(f"recv failed: {exc}") from exc
        if frame is None:
            self._mark_broken()
            raise ConnectionClosedError("server closed the connection")
        self.bytes_in += protocol.HEADER_SIZE + len(frame[1])
        return frame

    def _mark_broken(self) -> None:
        self._closed = True
        # A dead socket leaves transaction state unknowable; the server
        # rolls the transaction back on its side.
        self._in_transaction = False
        self._stmt_cache.clear()
        try:
            self._sock.close()
        except OSError:
            pass

    def _decode_error(self, payload: bytes) -> ReproError:
        frame = protocol.decode_error(payload)
        self._in_transaction = frame["in_transaction"]
        exc = protocol.reconstruct_error(
            frame["error_class"], frame["sqlstate"], frame["message"]
        )
        if isinstance(exc, NetworkError) and not isinstance(exc, ProtocolError):
            # Server-side kills (shutdown, busy, timeouts) terminate the
            # connection right after this frame.
            self._mark_broken()
        return exc

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace_begin(self) -> tuple[TraceContext | None, float]:
        """Mint the context for one request — a child of
        ``trace_parent``, else a root — or ``(None, 0)`` when the
        request is untraced.  The returned timestamp is the client-side
        span's start in the local TraceLog's clock."""
        if not self._trace:
            return None, 0.0
        parent = self.trace_parent
        if parent is not None:
            ctx = parent.child()
        elif self._mints_roots:
            ctx = TraceContext()
        else:
            return None, 0.0
        self.last_trace = ctx
        log = self._trace_log
        return ctx, (log.now_us() if log is not None else 0.0)

    def _trace_end(
        self, span_name: str, ctx: TraceContext | None, start_us: float,
        **extra: Any,
    ) -> None:
        log = self._trace_log
        if ctx is None or log is None:
            return
        args: dict[str, Any] = {
            "trace": ctx.trace_id, "span": ctx.span_id,
        }
        args.update(extra)
        log.complete(span_name, start_us, cat="client", args=args)

    def _wire_trace(
        self, ctx: TraceContext | None
    ) -> tuple[int, int] | None:
        """The trailer to ride on the frame — only when the server
        advertised CAP_TRACE (an old server would reject the bytes)."""
        if ctx is None or not self.trace_capable:
            return None
        return (ctx.trace_id, ctx.span_id)

    # ------------------------------------------------------------------
    # Session-mirroring API
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        ps = self.cached_statement(sql)
        if ps is not None:
            return self.execute_prepared(ps, params)
        ctx, start_us = self._trace_begin()
        self._send(protocol.encode_query(
            sql, params, trace=self._wire_trace(ctx)
        ))
        try:
            return self._read_query_response()
        finally:
            self._trace_end("client.query", ctx, start_us, sql=sql)

    def cached_statement(self, sql: str) -> "PreparedStatement | None":
        """The implicit statement cache (``auto_prepare=N``, the asyncpg
        idiom): the prepared handle for ``sql``, PARSEd — one round
        trip — the first time one of the first N distinct SQL strings
        is seen; ``None`` when auto-prepare is off or the cache is full,
        and the statement goes out as a QUERY."""
        if self._auto_prepare <= 0:
            return None
        ps = self._stmt_cache.get(sql)
        if ps is None and len(self._stmt_cache) < self._auto_prepare:
            ps = self._stmt_cache[sql] = self.prepare(sql)
        return ps

    # One reader pair serves serial execution and ``Pipeline.sync``.
    # ``embed_errors`` is the pipelined form: an engine error is that
    # operation's *result* (the connection survives, later replies
    # still arrive) unless the server killed the connection with it.
    def _read_query_response(
        self,
        embed_errors: bool = False,
        statement: "PreparedStatement | None" = None,
    ) -> "Result | ReproError":
        """Read one statement's reply.  A prepared ``statement``
        remembers its last ROW_HEADER payload and decoded header, so a
        repeat execution compares bytes instead of decoding them."""
        tag = ""
        columns: list[str] = []
        rows: list[tuple] = []
        while True:
            ftype, payload = self._recv()
            if ftype == protocol.ROW_BATCH:
                rows += protocol.decode_row_batch(payload)
            elif ftype == protocol.ROW_HEADER:
                cached = statement.header if statement is not None else None
                if cached is None or cached[0] != payload:
                    header = protocol.decode_row_header(payload)
                    cached = (payload, header["tag"], header["columns"])
                    if statement is not None:
                        statement.header = cached
                tag = cached[1]
                columns = list(cached[2])
            else:
                return self._complete(
                    ftype, payload, Result(tag, rows, columns), embed_errors
                )

    def _read_txn_response(
        self, embed_errors: bool = False
    ) -> "Result | ReproError":
        return self._complete(*self._recv(), Result(""), embed_errors)

    def _complete(
        self, ftype: int, payload: bytes, result: Result, embed_errors: bool
    ) -> "Result | ReproError":
        """The frame that ends a reply: COMPLETE fills in ``result``;
        an error is raised, or returned when embedded (see above)."""
        if ftype == protocol.COMPLETE:
            frame = protocol.decode_complete(payload)
            self._in_transaction = frame["in_transaction"]
            self.schema_epoch = frame["schema_epoch"]
            result.statement = frame["tag"] or result.statement
            result.rowcount = frame["rowcount"]
            return result
        exc = self._reply_error(ftype, payload, "statement")
        if embed_errors and not self._closed:
            return exc
        raise exc

    def _recv_reply(self, expected: int, what: str) -> bytes:
        """Payload of a one-frame reply of type ``expected``."""
        ftype, payload = self._recv()
        if ftype == expected:
            return payload
        raise self._reply_error(ftype, payload, what)

    def _reply_error(self, ftype: int, payload: bytes, what: str) -> ReproError:
        """What a reply frame that is not the expected one means: the
        server's error for an ERROR frame, otherwise a protocol
        violation that breaks the connection."""
        if ftype == protocol.ERROR:
            return self._decode_error(payload)
        self._mark_broken()
        return ProtocolError(
            f"unexpected frame type 0x{ftype:02x} in {what} response"
        )

    # ------------------------------------------------------------------
    # Prepared statements
    # ------------------------------------------------------------------
    def prepare(self, sql: str, name: str | None = None) -> "PreparedStatement":
        """Parse ``sql`` once on the server; the returned handle
        executes by name with bound parameters, skipping the parser."""
        if name is None:
            self._next_ps += 1
            name = f"ps_{self.session_id}_{self._next_ps}"
        self._send(protocol.encode_parse(name, sql))
        self._recv_reply(protocol.PARSE_OK, "parse")
        return PreparedStatement(self, name, sql)

    def execute_prepared(
        self,
        statement: "PreparedStatement | str",
        params: Sequence[Any] = (),
    ) -> Result:
        """Run a prepared statement with ``params`` bound inline."""
        if isinstance(statement, str):
            name, statement = statement, None
        else:
            name = statement.name
        ctx, start_us = self._trace_begin()
        self._send(protocol.encode_execute(
            name, params, trace=self._wire_trace(ctx)
        ))
        try:
            return self._read_query_response(statement=statement)
        finally:
            self._trace_end("client.execute", ctx, start_us, name=name)

    # ------------------------------------------------------------------
    # Pipelining
    # ------------------------------------------------------------------
    def pipeline(self) -> "Pipeline":
        """Batch API: queue requests, write them all, then drain the
        replies::

            pipe = conn.pipeline()
            pipe.execute("SELECT * FROM t WHERE k = ?", [1])
            pipe.execute_prepared(ps, [2])
            results = pipe.sync()   # [Result | ReproError, ...]
        """
        return Pipeline(self)

    def _txn_op(self, op: int) -> None:
        ctx, start_us = self._trace_begin()
        self._send(protocol.encode_txn(op, trace=self._wire_trace(ctx)))
        try:
            self._read_txn_response()
        finally:
            self._trace_end("client.txn", ctx, start_us, op=op)

    def begin(self) -> None:
        self._txn_op(protocol.TXN_BEGIN)

    def commit(self) -> None:
        self._txn_op(protocol.TXN_COMMIT)

    def rollback(self) -> None:
        self._txn_op(protocol.TXN_ROLLBACK)

    def transaction(self) -> "_ConnTxn":
        """Context manager mirroring ``Session.transaction()``."""
        return _ConnTxn(self)

    def reset(self) -> None:
        """Best-effort return to a clean no-transaction state (the
        client-side half of abort-retry loops).  Never raises."""
        if self._closed:
            return
        if self._in_transaction:
            try:
                self.rollback()
            except (ReproError, OSError):
                pass

    # ------------------------------------------------------------------
    # Health + admin
    # ------------------------------------------------------------------
    def ping(self, timeout: float = 2.0) -> bool:
        """Round-trip liveness probe: a PING answered by a PONG."""
        if self._closed:
            return False
        try:
            self._sock.settimeout(timeout)
            try:
                self._send(protocol.encode_ping())
                ftype, payload = self._recv()
            finally:
                if not self._closed:
                    self._sock.settimeout(None)
        except (NetworkError, OSError):
            return False
        if ftype != protocol.PONG:
            self._mark_broken()
            return False
        self.schema_epoch = protocol.decode_pong(payload)["schema_epoch"]
        return True

    def idle_alive(self) -> bool:
        """Zero-round-trip liveness probe for a connection with no
        request in flight (the pool's check on acquire): a live server
        has nothing to say on such a socket, so a readable one — EOF,
        a reset, a kill's farewell frame, stray bytes — or a closed fd
        means the connection is gone.  A ``poll`` with timeout 0; no
        frame is sent.  ``poll``, not ``select``: a process holding
        many sockets (a router) has descriptors above ``FD_SETSIZE``,
        which ``select`` refuses."""
        if self._closed:
            return False
        fd = self._sock.fileno()
        if fd < 0:
            return False
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        return not poller.poll(0)

    def meta(self, command: str) -> str:
        """Admin passthrough (``\\metrics`` / ``\\progress`` for the
        remote shell)."""
        self._send(protocol.encode_meta(command))
        payload = self._recv_reply(protocol.META_RESULT, "meta")
        return protocol.decode_meta_result(payload)["text"]

    # -- monitoring convenience (JSON forms of the META commands) ------
    def monitor_summary(self) -> dict:
        """The server's live ``\\top`` summary: QPS, latency
        percentiles, wait classes, migration progress, health report,
        the server's ``bullfrog_stat_server`` row."""
        return json.loads(self.meta("top json"))

    def metrics_history(self, seconds: float | None = None) -> dict:
        """The server's metrics-history ring (``rows`` + ``summary``),
        optionally restricted to the trailing window."""
        command = "history json" if seconds is None else f"history json {seconds}"
        return json.loads(self.meta(command))

    def health(self) -> dict:
        """The server's health report (rule rows + overall status)."""
        return json.loads(self.meta("health json"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent: sends a clean goodbye if the socket still works."""
        if self._closed:
            return
        try:
            self._stream.send_frame(protocol.encode_close())
        except OSError:
            pass
        self._mark_broken()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class PreparedStatement:
    """Client handle to a server-side parsed statement.  ``header`` is
    ``(payload, tag, columns)`` of the last ROW_HEADER its replies
    carried (a server sends the same bytes until the plan changes)."""

    __slots__ = ("conn", "name", "sql", "header")

    def __init__(self, conn: Connection, name: str, sql: str) -> None:
        self.conn = conn
        self.name = name
        self.sql = sql
        self.header: tuple[bytes, str, list[str]] | None = None

    def execute(self, params: Sequence[Any] = ()) -> Result:
        return self.conn.execute_prepared(self, params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.name!r}, {self.sql!r})"


class Pipeline:
    """Queue N requests, write them as one batch, read N replies.

    The server processes a connection's frames strictly in order and
    answers in the same order, so ``sync()`` maps reply *i* to queued
    request *i*.  Engine errors (constraint violation, abort, schema
    version) are **embedded** in the result list as exception
    instances — the connection stays usable, later replies still
    arrive.  Transport errors (dead socket, server kill) raise and
    break the connection, exactly like serial execution.
    """

    # The reply shape of a queued TXN frame; a queued statement records
    # its PreparedStatement (or None for a QUERY) instead.
    _TXN = "txn"

    def __init__(self, conn: Connection) -> None:
        self._conn = conn
        self._buf = bytearray()
        self._ops: list[Any] = []
        # One root context per queued op, parallel to ``results`` — how
        # a caller maps reply *i* to its request tree in the server's
        # TraceLog.  Only minted when the connection traces; otherwise
        # every entry is None.
        self.traces: list[TraceContext | None] = []
        self.results: list[Result | ReproError] | None = None

    def __len__(self) -> int:
        return len(self._ops)

    def _mint_trace(self) -> tuple[int, int] | None:
        """Mint the next op's root context; returns its trace trailer."""
        conn = self._conn
        if not conn._trace:
            self.traces.append(None)
            return None
        ctx, _ = conn._trace_begin()
        self.traces.append(ctx)
        return conn._wire_trace(ctx)

    def _add(self, frame: bytes, reply: Any) -> int:
        self._buf += frame
        self._ops.append(reply)
        return len(self._ops) - 1

    def execute(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Queue a QUERY; returns its index into ``sync()``'s list."""
        return self._add(
            protocol.encode_query(sql, params, trace=self._mint_trace()), None
        )

    def execute_prepared(
        self,
        statement: PreparedStatement | str,
        params: Sequence[Any] = (),
    ) -> int:
        if isinstance(statement, str):
            name, statement = statement, None
        else:
            name = statement.name
        return self._add(
            protocol.encode_execute(name, params, trace=self._mint_trace()),
            statement,
        )

    def _txn(self, op: int) -> int:
        return self._add(
            protocol.encode_txn(op, trace=self._mint_trace()), self._TXN
        )

    def begin(self) -> int:
        return self._txn(protocol.TXN_BEGIN)

    def commit(self) -> int:
        return self._txn(protocol.TXN_COMMIT)

    def rollback(self) -> int:
        return self._txn(protocol.TXN_ROLLBACK)

    def sync(self) -> list[Result | ReproError]:
        """Flush every queued frame in one write, then read one reply
        per request, in order."""
        conn = self._conn
        ops, self._ops = self._ops, []
        buf, self._buf = self._buf, bytearray()
        if not ops:
            self.results = []
            return self.results
        log = conn._trace_log
        start_us = log.now_us() if log is not None else 0.0
        conn._send(buf)
        results: list[Result | ReproError] = []
        try:
            for reply in ops:
                if reply is self._TXN:
                    results.append(conn._read_txn_response(embed_errors=True))
                else:
                    results.append(conn._read_query_response(True, reply))
        finally:
            if log is not None and conn._trace:
                # One client-side span covers the whole batch (the
                # writes were coalesced, so per-op client timing does
                # not exist); per-op trees hang off ``self.traces``.
                first = next((c for c in self.traces if c is not None), None)
                args: dict[str, Any] = {"ops": len(ops)}
                if first is not None:
                    args["trace"] = first.trace_id
                    args["span"] = first.span_id
                log.complete(
                    "client.pipeline.sync", start_us, cat="client",
                    args=args,
                )
        self.results = results
        return results

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self._ops:
            self.sync()
        return False


class _ConnTxn:
    def __init__(self, conn: Connection) -> None:
        self.conn = conn

    def __enter__(self) -> Connection:
        self.conn.begin()
        return self.conn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.conn.in_transaction:
                self.conn.commit()
        else:
            if self.conn.in_transaction and not self.conn.closed:
                try:
                    self.conn.rollback()
                except (ReproError, OSError):
                    pass
        return False


class ConnectionPool:
    """Thread-safe pool of :class:`Connection`\\ s.

    ``acquire()`` checks the pooled connection's liveness without a
    round trip (:meth:`Connection.idle_alive`) and transparently
    replaces dead ones, reconnecting with decorrelated-jitter backoff —
    so a pool survives a server restart or a connection killed
    mid-migration without its callers seeing anything but latency, and
    without every worker hammering the listener in lockstep when it
    comes back.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5433,
        size: int = 8,
        connect_timeout: float = 10.0,
        max_connect_attempts: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        health_check: bool = True,
        auto_prepare: int = 0,
        isolation: str | None = None,
        trace: bool = False,
        trace_log: Any = None,
        obs: Any = None,
        factory: Callable[[], Connection] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.health_check = health_check
        self.max_connect_attempts = max_connect_attempts
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        # Optional in-process Observability: acquire() reports how long
        # callers waited for a connection as the ``pool`` wait class.
        self._obs = obs
        self._factory = factory or (
            lambda: Connection(host, port, connect_timeout=connect_timeout,
                               client_name="repro-pool",
                               auto_prepare=auto_prepare,
                               isolation=isolation,
                               trace=trace, trace_log=trace_log)
        )
        self._idle: list[Connection] = []
        self._latch = threading.Lock()
        self._slots = threading.Semaphore(size)
        self._closed = False
        self._close_wakeup = threading.Event()
        self._created = 0
        # Observable pool accounting (tests + driver reconnect stats).
        # ``reconnects`` counts *replacement* connections only; filling
        # the pool for the first time is not a reconnect.
        self.reconnects = 0
        self.health_check_failures = 0
        self._in_use = 0
        # Wall-clock of the last successful liveness check (None until
        # the first checked acquire) — ``stats()["last_ping"]``.
        self.last_ping: float | None = None

    # ------------------------------------------------------------------
    def _connect_with_backoff(self) -> Connection:
        delays = decorrelated_jitter(self.backoff, self.backoff_cap)
        last: Exception | None = None
        for attempt in range(self.max_connect_attempts):
            if self._closed:
                raise ConnectionClosedError("pool is closed")
            try:
                conn = self._factory()
                conn._mints_roots = False
                return conn
            except NetworkError as exc:
                last = exc
                if attempt + 1 == self.max_connect_attempts:
                    break
                # close() sets the event, so a backoff sleep ends the
                # moment the pool shuts down instead of running its
                # full schedule against a dead pool.
                if self._close_wakeup.wait(next(delays)):
                    raise ConnectionClosedError("pool is closed") from exc
        assert last is not None
        raise last

    def acquire(self) -> "_PooledConnection":
        """Context manager handing out a healthy connection::

            with pool.acquire() as conn:
                conn.execute("SELECT 1")
        """
        if self._closed:
            raise ConnectionClosedError("pool is closed")
        began = time.perf_counter()
        self._slots.acquire()
        try:
            conn: Connection | None = None
            with self._latch:
                if self._idle:
                    conn = self._idle.pop()
            if conn is not None and self.health_check:
                if not conn.idle_alive():
                    with self._latch:
                        self.health_check_failures += 1
                    conn.close()
                    conn = None
                else:
                    self.last_ping = time.time()
            if conn is None:
                conn = self._connect_with_backoff()
                with self._latch:
                    self._created += 1
                    if self._created > self.size:
                        self.reconnects += 1
            # ``close()`` may have raced the connect above: a pool that
            # is closed must never hand out (and thereby leak) a fresh
            # connection.
            if self._closed:
                conn.close()
                raise ConnectionClosedError("pool is closed")
            obs = self._obs
            if obs is not None and obs.active:
                # Everything between the caller asking and getting a
                # healthy connection — semaphore wait, health check,
                # reconnect backoff — is ``pool`` wait; its span is
                # recorded only inside a trace, tagged into the tree.
                waited = time.perf_counter() - began
                ctx = _trace_current()
                obs.record_wait("pool", waited, ctx)
                if ctx is not None and obs.tracing_enabled:
                    end_us = obs.trace.now_us()
                    obs.trace.complete(
                        "pool.acquire", end_us - waited * 1e6, cat="net",
                        args={"wait": "pool", "trace": ctx.trace_id,
                              "parent": ctx.span_id},
                        end_us=end_us,
                    )
            with self._latch:
                self._in_use += 1
            return _PooledConnection(self, conn)
        except BaseException:
            self._slots.release()
            raise

    def _release(self, conn: Connection) -> None:
        # The slot must come back no matter what happens to the
        # connection — a reset/close failure that leaked the semaphore
        # would shrink the pool forever and eventually deadlock
        # ``acquire()``.
        try:
            if conn.in_transaction:
                # A connection must come back clean; a caller that
                # leaked a transaction gets it rolled back here.
                try:
                    conn.reset()
                except (ReproError, OSError):
                    pass
            with self._latch:
                self._in_use -= 1
                keep = (
                    not self._closed
                    and not conn.closed
                    and not conn.in_transaction
                    and len(self._idle) < self.size
                )
                if keep:
                    self._idle.append(conn)
            if not keep:
                try:
                    conn.close()
                except (ReproError, OSError):
                    pass
        finally:
            self._slots.release()

    def stats(self) -> dict[str, Any]:
        """Point-in-time pool accounting — the router's per-shard pools
        surface this in ``bullfrog_stat_shards`` / ``\\shards``.

        ``last_ping`` is wall-clock seconds (``time.time()``) of the
        most recent successful liveness check on acquire, or ``None``.
        """
        with self._latch:
            return {
                "size": self.size,
                "in_use": self._in_use,
                "idle": len(self._idle),
                "created": self._created,
                "reconnects": self.reconnects,
                "health_check_failures": self.health_check_failures,
                "last_ping": self.last_ping,
            }

    def close(self) -> None:
        with self._latch:
            self._closed = True
            idle, self._idle = self._idle, []
        # Wake any acquire() sleeping in a reconnect backoff.
        self._close_wakeup.set()
        for conn in idle:
            conn.close()


class _PooledConnection:
    """Checkout handle; returns the connection to the pool on exit."""

    def __init__(self, pool: ConnectionPool, conn: Connection) -> None:
        self.pool = pool
        self.conn = conn
        self._returned = False

    def __enter__(self) -> Connection:
        return self.conn

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def release(self) -> None:
        if self._returned:
            return
        self._returned = True
        self.pool._release(self.conn)
