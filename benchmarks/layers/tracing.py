"""Span tracing from outside the program, for the ``--trace 1`` run.

Nothing under ``src/`` is edited: :func:`install` wraps the *public*
functions at each layer boundary (see ``TARGETS``) for the lifetime of
one traced repetition and restores them afterwards.  Each wrapper
records a span ``{name, start, end, parent, op_id, thread}``; a span's
self time is its duration minus the part its child spans cover.

Threads: the harness thread is the ``client`` side; threads named
``bullfrog-background-*`` are the ``background`` side (paced lazy
migration); every other thread (in-process server loop, workers,
router) is the ``server`` side.  Totals are kept per side for *every*
span; the span list itself is capped (``SPAN_CAP``) so the trace file
stays a few MB — it holds the first spans of the run, the aggregates
cover all of them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable

SPAN_CAP = 50_000
SIDES = ("client", "server", "background")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count()
        self._base = 0  # span ids are reported relative to the last reset()
        self._local = threading.local()
        self._threads: list[Any] = []  # every thread-local state, for merging
        self._client_ident = threading.get_ident()
        self._latch = threading.Lock()

    def _state(self) -> Any:
        local = self._local
        thread = threading.current_thread()
        if thread.ident == self._client_ident:
            local.side = "client"
        elif thread.name.startswith("bullfrog-background"):
            local.side = "background"
        else:
            local.side = "server"
        local.thread = thread.name
        local.stack = []  # [child_seconds, span_id] per open span
        local.agg = {}  # name -> [calls, total_s, self_s, items]
        with self._latch:
            self._threads.append(local.__dict__)
        return local

    def wrap(
        self,
        name: str,
        fn: Callable,
        items: Callable[[tuple], int] | None = None,
        root: bool = False,
    ) -> Callable:
        """Return ``fn`` recording one span per call.  ``items`` counts
        work units from the call's positional arguments (granules,
        log records); ``root`` marks a client op: it advances ``op_id``."""
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._state().stack
            if root:
                tracer.op_id += 1
            span_id = next(ids) - tracer._base
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            count = items(args) if items is not None else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                cell = local.agg.get(name)
                if cell is None:
                    cell = local.agg[name] = [0, 0.0, 0.0, 0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                cell[3] += count
                if 0 <= span_id < SPAN_CAP:
                    spans.append(
                        (name, start, end, parent, tracer.op_id, local.thread, span_id)
                    )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up).  Only
        call while no wrapped function is running on any thread — the
        closed-loop client is between ops and the servers are idle."""
        with self._latch:
            for state in self._threads:
                state["agg"].clear()
        self.spans.clear()
        self.op_id = 0
        self._base = next(self._ids) + 1

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, list]]:
        """``{side: {name: [calls, total_s, self_s, items]}}`` over every
        span recorded so far, merged across threads."""
        merged: dict[str, dict[str, list]] = {side: {} for side in SIDES}
        with self._latch:
            threads = list(self._threads)
        for state in threads:
            into = merged[state["side"]]
            for name, cell in state["agg"].items():
                have = into.setdefault(name, [0, 0.0, 0.0, 0])
                for i, value in enumerate(cell):
                    have[i] += value
        return merged

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the captured spans as plain JSON (format: README.md)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        spans = [
            {
                "id": span_id,
                "name": name,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                "parent": parent,
                "op_id": op_id,
                "thread": thread,
            }
            for name, start, end, parent, op_id, thread, span_id in sorted(
                self.spans, key=lambda s: s[6]
            )
        ]
        with open(path, "w") as fh:
            json.dump({**meta, "span_cap": SPAN_CAP, "spans": spans}, fh)


# ----------------------------------------------------------------------
# What gets wrapped.  (span name, owner, attribute[, items counter]).
# Span names are ``<layer>.<function>``; the layer is everything before
# the first dot.
# ----------------------------------------------------------------------
def _targets() -> list[tuple]:
    import repro.db as db_mod
    from repro.cluster.router import RouterDatabase, RouterSession
    from repro.core.bitmap import MigrationBitmap
    from repro.core.engine import LazyMigrationEngine, UnitRuntime
    from repro.db import Session
    from repro.exec.executor import Executor
    from repro.exec.planner import Planner
    from repro.net import protocol
    from repro.net.client import Connection, ConnectionPool, Pipeline
    from repro.obs import Observability
    from repro.storage.heap import HeapTable
    from repro.storage.index import HashIndex, OrderedIndex
    from repro.tpcc import TpccClient
    from repro.txn.locks import LockManager
    from repro.txn.manager import Transaction, TransactionManager
    from repro.txn.wal import RedoLog

    targets: list[tuple] = [
        ("sql.parse", db_mod, "parse_statement"),
        ("exec.statement", Session, "execute_statement"),
        ("exec.plan", Planner, "plan_select"),
        ("exec.plan", Planner, "plan_dml_scan"),
        ("exec.run_select", Executor, "run_select"),
        ("exec.run_select", Executor, "run_select_for_update"),
        ("exec.run_insert", Executor, "run_insert"),
        ("exec.run_insert", Executor, "insert_rows"),
        ("exec.run_update", Executor, "run_update"),
        ("exec.run_delete", Executor, "run_delete"),
        ("txn.begin", TransactionManager, "begin"),
        ("txn.lock", LockManager, "acquire"),
        ("txn.commit", Transaction, "commit"),
        ("txn.abort", Transaction, "abort"),
        ("txn.wal_append", RedoLog, "append_batch", lambda a: len(a[2])),
        ("storage.heap_read", HeapTable, "read"),
        ("storage.heap_write", HeapTable, "insert"),
        ("storage.heap_write", HeapTable, "update"),
        ("storage.heap_write", HeapTable, "delete"),
        # Generators: the span covers creation only, so these count
        # calls; the rows they yield are timed in the consumer.
        ("storage.heap_scan", HeapTable, "scan_range"),
        ("storage.index_scan", OrderedIndex, "prefix_scan"),
        ("storage.index_lookup", HashIndex, "lookup"),
        ("storage.index_lookup", OrderedIndex, "lookup"),
        ("storage.index_write", HashIndex, "insert"),
        ("storage.index_write", HashIndex, "delete"),
        ("storage.index_write", OrderedIndex, "insert"),
        ("storage.index_write", OrderedIndex, "delete"),
        ("core.submit", LazyMigrationEngine, "submit"),
        ("core.migrate_scope", LazyMigrationEngine, "migrate_scope"),
        ("core.produce", UnitRuntime, "produce_bitmap_granules"),
        ("core.try_begin", MigrationBitmap, "try_begin"),
        ("core.mark_migrated", MigrationBitmap, "mark_migrated",
         lambda a: len(a[1])),
        ("net.send_frame", protocol.FrameStream, "send_frame"),
        ("net.recv_frame", protocol.FrameStream, "recv_frame"),
        ("net.execute", Connection, "execute"),
        ("net.execute", Connection, "execute_prepared"),
        ("net.txn", Connection, "begin"),
        ("net.txn", Connection, "commit"),
        ("net.txn", Connection, "rollback"),
        ("net.pipeline_sync", Pipeline, "sync", lambda a: len(a[0])),
        ("obs.hook", Observability, "intercept_done"),
        ("obs.hook", Observability, "count"),
        ("cluster.statement", RouterSession, "execute_statement"),
        ("cluster.route_plan", RouterDatabase, "route_plan"),
        ("cluster.forward", RouterDatabase, "forward"),
        ("cluster.scatter", RouterDatabase, "scatter"),
        ("cluster.broadcast", RouterDatabase, "broadcast"),
        ("cluster.pool_acquire", ConnectionPool, "acquire"),
        ("tpcc.txn", TpccClient, "run"),
    ]
    for attr in dir(protocol):
        if attr.startswith("encode_"):
            # encode_frame is called by every encode_*: one of them per
            # outgoing frame, which is what net.frames_per_op counts.
            name = "net.encode_frame" if attr == "encode_frame" else "net.encode"
            targets.append((name, protocol, attr))
        elif attr.startswith("decode_"):
            targets.append(("net.decode", protocol, attr))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it."""
    from repro.db import Database
    from repro.obs import Observability

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for name, owner, attr, *rest in _targets():
        items = rest[0] if rest else None
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], items))

    # The lazy-migration interceptor is a bound method handed to the
    # database, not looked up on a class: wrap it on the way in.
    set_interceptor = Database.__dict__["set_statement_interceptor"]

    def set_traced_interceptor(db, interceptor):
        if interceptor is not None:
            interceptor = tracer.wrap("core.intercept", interceptor)
        set_interceptor(db, interceptor)

    patch(Database, "set_statement_interceptor", set_traced_interceptor)

    # Observability installs its statement hooks as per-instance
    # closures in __init__; wrap those after construction.
    obs_init = Observability.__dict__["__init__"]

    def traced_obs_init(obs, *args, **kwargs):
        obs_init(obs, *args, **kwargs)
        for hook in ("statement_begin", "statement_done"):
            if hook in obs.__dict__:
                setattr(obs, hook, tracer.wrap("obs.hook", obs.__dict__[hook]))

    patch(Observability, "__init__", traced_obs_init)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
