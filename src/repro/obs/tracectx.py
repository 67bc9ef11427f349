"""Request-scoped trace context: the distributed-tracing identity that
follows one client statement across the wire and down the execution
stack.

A :class:`TraceContext` is three 63-bit ids — ``trace_id`` (the whole
request tree), ``span_id`` (this hop), ``parent_id`` (the hop that
caused it) — plus a per-statement accumulator for **wait classes** and
migration work.  The client mints a root context and rides it on the
wire (``net/protocol.py`` trace trailer); ``bullfrogd`` continues it as
a server span around dispatch; ``Session.execute_statement`` forks a
child for the statement; and everything below (locks, WAL, the lazy
migration interceptor) discovers the active context through one
``contextvars.ContextVar`` — no parameter threading through the
executor stack, and thread-pool handoffs inherit nothing by accident
because the server sets/resets the variable around each dispatch.

Ids are allocated from a randomly-seeded process-local counter, not
``getrandbits`` per id: uniqueness is what tracing needs, and a bound
counter method is the cheapest thing CPython can do under the GIL.
They fit a signed i64 so the wire codec and the system views carry
them as plain integers (no hex formatting on the hot path).

Wait classes (the classifier's vocabulary)::

    cpu        executing — derived per statement as total minus waits
    lock       blocked in the 2PL lock manager (contended path only)
    migration  stalled in the lazy-migration interceptor (claim,
               synchronous granule/key migration, overlay projection)
    wal        appending the redo batch at commit
    net_queue  a request waiting to run: from the event loop handing
               its connection to a runner (or the runner's own read,
               on the hot path) until its frame is dispatched
    pool       client-side: waiting for a pooled connection

The accumulator is shared down the chain: the server context seeds
``net_queue`` before the statement context exists, and the statement
child *shares* its parent's dict, so the slow-query record sees the
queue wait that preceded execution.
"""

from __future__ import annotations

import itertools
import random
from contextvars import ContextVar
from typing import Any

WAIT_CLASSES = ("cpu", "lock", "migration", "wal", "net_queue", "pool")

# Randomly-seeded so two processes (or two test runs) don't collide,
# counter-based so the per-statement cost is one C-level increment.
# ``| 1`` keeps 0 (the "no trace" sentinel on the wire) unreachable,
# and the 62-bit seed leaves headroom to count without overflowing i64.
new_id = itertools.count(random.getrandbits(62) | 1).__next__


class TraceContext:
    """One hop of a trace, plus the statement-scoped accumulators."""

    __slots__ = ("trace_id", "span_id", "parent_id", "waits", "notes")

    def __init__(
        self,
        trace_id: int | None = None,
        span_id: int | None = None,
        parent_id: int | None = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_id()
        self.span_id = span_id if span_id is not None else new_id()
        self.parent_id = parent_id
        # Both allocated lazily: most statements never wait, and an
        # empty dict per statement is measurable on the no-op loop.
        self.waits: dict[str, float] | None = None
        self.notes: dict[str, int] | None = None

    def child(self) -> "TraceContext":
        """A child hop: same trace, new span, parented here.  The wait
        accumulator is *shared* so waits recorded against the parent
        (the server seeds ``net_queue`` before the statement context
        exists) land in the statement's breakdown."""
        ctx = TraceContext(self.trace_id, None, self.span_id)
        ctx.waits = self.waits
        ctx.notes = self.notes
        return ctx

    def add_wait(self, wait_class: str, seconds: float) -> None:
        waits = self.waits
        if waits is None:
            waits = self.waits = {}
        waits[wait_class] = waits.get(wait_class, 0.0) + seconds

    def note(self, key: str, amount: int) -> None:
        """Accumulate migration/row work for the slow-query record."""
        notes = self.notes
        if notes is None:
            notes = self.notes = {}
        notes[key] = notes.get(key, 0) + amount

    def wait_seconds(self, wait_class: str) -> float:
        waits = self.waits
        return waits.get(wait_class, 0.0) if waits else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceContext(trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id})"
        )


_current: ContextVar[TraceContext | None] = ContextVar(
    "bullfrog_trace_context", default=None
)

# Bound methods: emission sites call these at C speed.
current = _current.get
activate = _current.set
deactivate = _current.reset


def trace_args(extra: dict[str, Any] | None = None) -> dict[str, Any] | None:
    """Span-args dict carrying the active context's ids (or ``extra``
    unchanged when no context is active) — for cold emission sites;
    hot ones inline the equivalent."""
    ctx = _current.get()
    if ctx is None:
        return extra
    args = dict(extra) if extra else {}
    args["trace"] = ctx.trace_id
    args["parent"] = ctx.span_id
    return args


__all__ = [
    "WAIT_CLASSES",
    "TraceContext",
    "new_id",
    "current",
    "activate",
    "deactivate",
    "trace_args",
]
