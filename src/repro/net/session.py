"""bullfrogd's session protocol, with no socket in it.

A :class:`WireSession` is one client connection's protocol state — the
handshake, the prepared-statement names, the trace options — around
one :class:`~repro.db.Session`.  ``feed`` runs one decoded client
frame and writes the reply frames to a *sink*, ``sink(data, frames)``:
``frames`` whole frames joined into ``data``, one call per reply.  The
sink answers how many bytes it still buffers and raises ``OSError``
once the connection is dead or killed.  The server's sink is its
outbound buffer; a test's can be a list.

PARSE stores ``db.prepare(sql)`` — the database's one
:class:`~repro.db.Statement` handle for that text, shared with every
connection and the embedded path — under the client's name, and
EXECUTE runs it with the frame's parameters: no SQL text on the hot
path.  A QUERY prepares its text and runs like an EXECUTE.  The handle
re-plans itself after a schema-epoch bump, and a retired table still
raises ``SchemaVersionError`` (the paper's front-end restart).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from .. import __version__ as _SERVER_VERSION
from ..db import FLIP_GATE_TIMEOUT, Result, Session, Statement
from ..errors import ProtocolError, ReproError
from ..obs import console
from ..obs.tracectx import TraceContext
from ..obs.tracectx import activate as _trace_activate
from ..obs.tracectx import deactivate as _trace_deactivate
from ..txn import IsolationLevel
from . import protocol

# A reply larger than this is handed to the sink in chunks, each one
# filling the sink's buffer to the mark, so a huge result set streams.
_FLUSH_HIWAT = 262144
_BATCH_ROWS = 256  # result-set streaming granularity
_MAX_PREPARED = 1024  # per-connection prepared-statement cap



class WireSession:
    """One connection's protocol machine (see the module docstring).

    ``statements`` / ``transactions`` count what the connection ran;
    ``stmt_started`` is the monotonic start of the statement running
    now (``None`` between statements), which a server's timeout tick
    reads; ``trace_ctx`` is the server hop of the last frame fed, when
    the client traces it."""

    __slots__ = (
        "db", "session", "conn_id", "sink", "request_seconds", "buffered",
        "greeted", "trace", "trace_ctx", "prepared", "statements",
        "transactions", "stmt_started",
    )

    def __init__(
        self, session: Session, conn_id: int, sink: Callable[[bytes, int], int],
        request_seconds: dict[str, Callable[[float], None]] | None = None,
    ) -> None:
        self.db = session.db
        self.session = session
        self.conn_id = conn_id
        self.sink = sink
        # Frame kind -> latency observer (``repro_net_request_seconds``).
        self.request_seconds = request_seconds or {}
        self.buffered = 0  # what the sink last said it still buffers
        self.greeted = False
        self.trace = False  # client asked for trace trailers (HELLO)
        self.trace_ctx: TraceContext | None = None
        self.prepared: dict[str, Statement] = {}  # PARSE name -> handle
        self.statements = 0
        self.transactions = 0
        self.stmt_started: float | None = None

    def feed(self, ftype: int, payload: bytes, ready: float) -> str | None:
        """Run one decoded frame.  ``ready`` is the ``perf_counter``
        at which its batch was ready to run: what a traced request's
        ``net_queue`` wait is measured from.  Returns the retire cause
        (``client_close``, ``protocol_error``, ``abrupt_disconnect``
        when the sink raised, ``internal_error``), ``None`` while the
        connection lives."""
        self.trace_ctx = None
        try:
            if not self.greeted and ftype != protocol.HELLO:
                # Client-initiated handshake: the first frame must be a
                # HELLO; the WELCOME answers it (version + epoch + id).
                raise ProtocolError(
                    f"expected HELLO, got frame type 0x{ftype:02x}"
                )
            if ftype == protocol.CLOSE:
                return "client_close"
            began = time.monotonic()
            kind = self._dispatch(ftype, payload, ready)
            observe = self.request_seconds.get(kind)
            if observe is not None:
                observe(time.monotonic() - began)
            return None
        except ProtocolError as exc:
            self.farewell(exc)
            return "protocol_error"
        except OSError:
            return "abrupt_disconnect"
        except Exception as exc:  # noqa: BLE001 - last-resort server guard
            self.farewell(exc)
            return "internal_error"

    def farewell(self, exc: BaseException) -> None:
        """Send ``exc`` as the connection's last frame, best effort: a
        dead connection drops it."""
        try:
            self._send_error(exc)
        except OSError:
            pass

    def _send(self, data: bytes, frames: int = 1) -> None:
        self.buffered = self.sink(data, frames)

    def _send_error(self, exc: BaseException) -> None:
        """Every ERROR frame is built here: the structured error plus
        the session's transaction flag (the client's ``in_transaction``
        is server-authoritative)."""
        self._send(protocol.encode_error(exc, self.session.in_transaction))

    def _continue_trace(
        self, trace: tuple[int, int] | None, ready: float
    ) -> TraceContext | None:
        """Continue the client's trace as this request's server hop: a
        context carrying the wire ``trace_id``, parented on the
        client-side span, with the frame's wait since its batch was
        ready already recorded as ``net_queue`` wait (it happened before
        any statement context existed, and the shared accumulator hands
        it down)."""
        obs = self.db.obs
        if trace is None or obs is None:
            return None
        ctx = TraceContext(trace[0], None, trace[1])
        queued = max(0.0, time.perf_counter() - ready)
        obs.record_wait("net_queue", queued, ctx)
        end_us = obs.trace.now_us()
        obs.trace.complete(
            "net.queue", end_us - queued * 1e6, cat="net",
            args={
                "trace": ctx.trace_id, "span": ctx.span_id,
                "parent": ctx.parent_id, "conn": self.conn_id,
                "wait": "net_queue",
            },
            end_us=end_us,
        )
        self.trace_ctx = ctx
        return ctx

    def _dispatch(self, ftype: int, payload: bytes, ready: float) -> str:
        gate = self.db.flip_gate
        if (
            not gate.is_set()
            and not self.session.in_transaction
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
            handle = self.prepared.get(frame["name"])
            if handle is None:
                self._send_error(ProtocolError(
                    f"unknown prepared statement {frame['name']!r}"
                ))
                return "execute"
            self._run_statement(
                handle, frame["params"],
                self._continue_trace(frame["trace"], ready),
            )
            return "execute"
        if ftype == protocol.QUERY:
            frame = protocol.decode_query(payload)
            self._run_statement(
                frame["sql"], frame["params"],
                self._continue_trace(frame["trace"], ready),
            )
            return "query"
        if ftype == protocol.PARSE:
            frame = protocol.decode_parse(payload)
            name = frame["name"]
            try:
                if (
                    name not in self.prepared
                    and len(self.prepared) >= _MAX_PREPARED
                ):
                    raise ProtocolError(
                        f"prepared-statement cache full "
                        f"({_MAX_PREPARED}); PARSE rejected"
                    )
                self.prepared[name] = self.db.prepare(frame["sql"])
            except ReproError as exc:
                self._send_error(exc)
                return "parse"
            self._send(protocol.encode_parse_ok(name))
            return "parse"
        if ftype == protocol.TXN:
            frame = protocol.decode_txn(payload)
            self._run_txn(
                frame["op"], self._continue_trace(frame["trace"], ready)
            )
            return "txn"
        if ftype == protocol.META:
            command = protocol.decode_meta(payload)["command"]
            try:
                text = console.run(self.db, command)
            except ReproError as exc:
                self._send_error(exc)
                return "meta"
            self._send(protocol.encode_meta_result(text))
            return "meta"
        if ftype == protocol.PING:
            self._send(protocol.encode_pong(self.db.epoch))
            return "ping"
        if ftype == protocol.HELLO:
            # The handshake (a repeated one is harmless: re-welcome).
            hello = protocol.decode_hello(payload)
            if hello["version"] != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client v{hello['version']}, "
                    f"server v{protocol.PROTOCOL_VERSION}"
                )
            self._apply_hello_options(hello.get("options") or {})
            # The capabilities trailer goes only to clients that asked
            # for tracing — an old client's decode_welcome would reject
            # the extra byte.
            self._send(protocol.encode_welcome(
                _SERVER_VERSION, self.db.epoch, self.conn_id,
                capabilities=protocol.CAP_TRACE if self.trace else 0,
            ))
            self.greeted = True
            return "hello"
        raise ProtocolError(f"unexpected frame type 0x{ftype:02x} from client")

    def _apply_hello_options(self, options: dict[str, str]) -> None:
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
                self.session.isolation = level
        if options.get("trace") not in (None, "0", ""):
            self.trace = True

    def _run_statement(
        self,
        handle: Statement | str,
        params: Sequence[Any],
        ctx: TraceContext | None,
    ) -> None:
        """Execute one statement — EXECUTE's PARSEd handle, or QUERY's
        SQL text, prepared here so that a parse error is counted, timed
        and traced like any other statement error — and send its
        reply.  A non-None ``ctx`` (the continued client trace) is
        parked on the session so ``execute_statement`` forks its
        statement span under the server hop, and the hop itself is
        recorded as ``server.execute``."""
        self.statements += 1
        self.stmt_started = time.monotonic()
        session = self.session
        obs = self.db.obs if ctx is not None else None
        if obs is not None:
            start_us = obs.trace.now_us()
            session._request_ctx = ctx
        try:
            if isinstance(handle, str):
                handle = self.db.prepare(handle)
            result = session.execute_statement(handle, params)
        except ReproError as exc:
            self._send_error(exc)
            return
        finally:
            self.stmt_started = None
            if obs is not None:
                session._request_ctx = None
                obs.trace.complete(
                    "server.execute", start_us, cat="net",
                    args={"trace": ctx.trace_id, "span": ctx.span_id,
                          "parent": ctx.parent_id, "conn": self.conn_id},
                )
        self._send_result(handle, result)

    def _send_result(self, handle: Statement, result: Result) -> None:
        """ROW_HEADER, the ROW_BATCHes and COMPLETE in one sink call.
        A result too big for that streams: a chunk goes to the sink
        whenever it would fill the sink's buffer to ``_FLUSH_HIWAT``,
        so the buffer never holds more than the mark plus one batch."""
        complete = protocol.encode_complete(
            result.statement,
            result.rowcount,
            self.session.in_transaction,
            self.db.epoch,
        )
        if not result.columns:
            self._send(complete)
            return
        frames = [_row_header(handle, result)]
        size = len(frames[0])
        rows = result.rows
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = protocol.encode_row_batch(rows[start : start + _BATCH_ROWS])
            frames.append(batch)
            size += len(batch)
            if size >= _FLUSH_HIWAT - self.buffered:
                self._send(b"".join(frames), len(frames))
                frames = []
                size = 0
        frames.append(complete)
        self._send(b"".join(frames), len(frames))

    def _run_txn(self, op: int, ctx: TraceContext | None) -> None:
        session = self.session
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
                self.transactions += 1
                tag = "COMMIT"
            else:
                session.rollback()
                self.transactions += 1
                tag = "ROLLBACK"
        except ReproError as exc:
            self._send_error(exc)
            return
        finally:
            if obs is not None:
                _trace_deactivate(token)
                obs.trace.complete(
                    "server.txn", start_us, cat="net",
                    args={"trace": ctx.trace_id, "span": ctx.span_id,
                          "parent": ctx.parent_id, "conn": self.conn_id,
                          "op": op},
                )
        self._send(protocol.encode_complete(
            tag, 0, session.in_transaction, self.db.epoch
        ))


def _row_header(handle: Statement, result: Result) -> bytes:
    """The result's ROW_HEADER frame, encoded once per planned query: a
    SELECT's ``Result.columns`` *is* its ``PlannedQuery``'s ``names``
    list, built afresh with every plan, so a header cached on the
    handle next to that list describes exactly the results of its plan.
    A re-plan (every schema epoch) brings a new list and the header is
    encoded again; so is every result whose columns are built per call
    (EXPLAIN, a routed statement)."""
    cached = handle.wire_header
    if cached is not None and cached[0] is result.columns:
        return cached[1]
    header = protocol.encode_row_header(result.statement, result.columns)
    handle.wire_header = (result.columns, header)
    return header
