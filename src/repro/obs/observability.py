"""The observability bundle attached to a :class:`~repro.db.Database`.

One object owns the metric registry and the trace log, plus pre-bound
emission helpers for the migration-lifecycle points.  The emission
sites are the fault seams of :mod:`repro.core.faults` (``FAULT_POINTS``)
that have a counter in :data:`POINT_COUNTERS` — all but the cluster
epoch-flip pair — and the hot paths already branch there, so attaching
observability adds **one** guarded call per seam
(``obs is not None`` → ``obs.emit(point, ...)``), which bumps the
point's counter *and* appends a trace event in a single dispatch.

There are two configurations: detached (``obs=None``, the default
everywhere) or a bundle with metrics and tracing both on.  Every owner
guards with a plain ``is not None``, the same contract as fault
injection; ``benchmarks/bench_obs_overhead.py`` prices the bundle, with
and without the history sampler, against a detached database (<5%).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any

from ..sql import ast_nodes as _ast
from .registry import DEFAULT_LATENCY_BUCKETS, MetricRegistry
from .trace import TraceEvent, TraceLog
from .tracectx import WAIT_CLASSES, current as _trace_current, trace_args

# One counter per migration-lifecycle point; keys mirror
# repro.core.faults.FAULT_POINTS so the seams double as metric sites.
POINT_COUNTERS: dict[str, tuple[str, str]] = {
    "migrate.before_claim": (
        "bullfrog_claim_rounds_total",
        "claim rounds entered by the per-transaction migration loop",
    ),
    "migrate.after_produce": (
        "bullfrog_produce_batches_total",
        "migration produce batches (output rows materialized, pre-commit)",
    ),
    "migrate.before_mark": (
        "bullfrog_mark_rounds_total",
        "tracker mark-migrated rounds (post-commit)",
    ),
    "migrate.after_commit": (
        "bullfrog_migrate_commits_total",
        "committed migration transactions",
    ),
    "background.pass": (
        "bullfrog_background_passes_total",
        "background migrator per-unit passes",
    ),
    "txn.commit": ("repro_txn_commits_total", "transaction commits"),
    "txn.abort": ("repro_txn_aborts_total", "transaction aborts"),
    "wal.flush": (
        "repro_wal_batches_total",
        "WAL commit batches appended (one per write commit; their "
        "records are MIGRATE only)",
    ),
    "net.accept": (
        "repro_net_accept_rounds_total",
        "bullfrogd accept-loop rounds (one per inbound connection, "
        "pre-admission)",
    ),
    "net.read": (
        "repro_net_frames_read_total",
        "protocol frames read from clients by bullfrogd",
    ),
    "net.write": (
        "repro_net_frames_written_total",
        "protocol frames written to clients by bullfrogd",
    ),
}


# Span names precomputed by statement kind: the f-string was a
# measurable slice of the per-statement tracing cost.
_STMT_SPAN_NAMES = {
    kind: f"stmt.{kind}" for kind in ("select", "insert", "update", "delete", "ddl")
}

# Statements stalled this long (or that did real migration work) get a
# ``migrate.intercept`` span; cheaper no-op interceptor passes stay
# span-free and their time classifies as cpu.
_INTERCEPT_SPAN_FLOOR_S = 0.00025

# Staging entries folded into totals when the deque grows past this.
_WAIT_FOLD_THRESHOLD = 4096

_TRACE_CAPACITY = 65536  # trace ring events
_SLOW_QUERY_CAPACITY = 256  # in-memory slow-query records


class Observability:
    """Registry + trace log + pre-bound lifecycle instruments."""

    def __init__(
        self,
        sample_statements: int = 16,
        sample_traces: int = 64,
        slow_query_threshold: float | None = None,
        slow_query_log_path: str | None = None,
        slow_query_log_max_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        if sample_statements < 1 or sample_statements & (sample_statements - 1):
            raise ValueError("sample_statements must be a power of two")
        if sample_traces < 1 or sample_traces & (sample_traces - 1):
            raise ValueError("sample_traces must be a power of two")
        if sample_traces < sample_statements:
            # Powers of two nest: every 1-in-sample_traces statement is
            # then also latency-sampled, so a traced root always has
            # its histogram observation.
            raise ValueError("sample_traces must be >= sample_statements")
        if slow_query_threshold is not None and slow_query_threshold < 0:
            raise ValueError("slow_query_threshold must be non-negative")
        self.registry = MetricRegistry()
        self.trace = TraceLog(_TRACE_CAPACITY)
        self.slow_query_threshold = slow_query_threshold
        # Statement *counts* are exact; statement *latency* is observed
        # for a deterministic 1-in-N sample (the first statement and
        # every Nth after it).  Two clock reads plus a histogram update
        # per statement is the single largest instrumentation cost on
        # the no-op migration hot loop, and a 1-in-16 sample keeps the
        # latency distribution while pricing 15 of 16 statements at one
        # counter bump.  Tracing head-samples *root* statement spans on
        # its own (coarser) 1-in-``sample_traces`` period, as
        # production tracers do: a statement arriving under a
        # propagated trace context — every networked request with
        # tracing negotiated — is always fully traced, and an untraced
        # embedded statement starts a full root trace 1-in-64 by
        # default.  The full span/context machinery costs ~10x the
        # histogram observation, so it gets ~4x the sampling period.
        # A slow-query threshold forces both periods to 1: a slow
        # statement must never dodge its record — or arrive in it
        # without its wait breakdown — by being unsampled.
        self.sample_statements = (
            1 if slow_query_threshold is not None else sample_statements
        )
        self.sample_traces = (
            1 if slow_query_threshold is not None else sample_traces
        )
        # Wait-event accumulator: emission is a GIL-atomic deque append
        # of ``(class, seconds)``; totals are folded under a latch when
        # the staging deque grows past a threshold or a snapshot is
        # taken.  This keeps the contended-path cost (lock waits, WAL
        # appends from every worker) to one append, no lock.
        self._wait_staging: deque[tuple[str, float]] = deque()
        self._wait_totals: dict[str, list[float]] = {
            cls: [0, 0.0] for cls in WAIT_CLASSES
        }
        self._wait_latch = threading.Lock()
        # Slow-query ring + optional JSONL sink (opened lazily so an
        # Observability() constructed for one statement never touches
        # the filesystem).  The sink is size-capped: past half the
        # budget it rotates to ``<path>.1`` (replacing the previous
        # rotation), so path + path.1 together never exceed
        # ``slow_query_log_max_bytes`` and a week-long soak cannot fill
        # the disk.
        if slow_query_log_max_bytes < 4096:
            raise ValueError("slow_query_log_max_bytes must be at least 4096")
        self.slow_query_log_path = slow_query_log_path
        self.slow_query_log_max_bytes = slow_query_log_max_bytes
        self._slow_queries: deque[dict[str, Any]] = deque(
            maxlen=_SLOW_QUERY_CAPACITY
        )
        self._slow_latch = threading.Lock()
        self._slow_sink: Any = None
        # Monitoring attachments: the time-series sampler, the health
        # rule engine, and the flight recorder.  All None until
        # attach_history()/attach_monitoring() — a bare Observability
        # stays a passive bundle with no threads.
        self.history: Any = None
        self.health: Any = None
        self.flight: Any = None
        # Pre-bound *cells* (not families): emission is a dict lookup +
        # one locked add — no registry traversal, no family delegation.
        self._point_counters: dict[str, Any] = {
            point: self.registry.counter(name, help_text).cell()
            for point, (name, help_text) in POINT_COUNTERS.items()
        }
        self.statement_latency = self.registry.histogram(
            "repro_statement_seconds",
            "end-to-end statement latency (includes lazy-migration work "
            "done by the interceptor)",
            labelnames=("stmt",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.migrate_wip_latency = self.registry.histogram(
            "bullfrog_migrate_wip_seconds",
            "duration of one migration transaction (claim batch -> "
            "produce -> commit -> mark)",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.wal_batch_records = self.registry.histogram(
            "repro_wal_batch_records",
            "MIGRATE records per WAL commit batch (0 for a commit "
            "that migrated nothing)",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )
        self.rows_written = self.registry.counter(
            "repro_rows_written_total",
            "rows written by DML (post-constraint-check)",
            labelnames=("op",),
        )
        self._rows_cells = {
            op: self.rows_written.labels(op=op)
            for op in ("insert", "update", "delete")
        }
        self.statements_total = self.registry.counter(
            "repro_statements_total",
            "client statements executed (exact, never sampled)",
            labelnames=("stmt",),
        )
        kinds = ("select", "insert", "update", "delete", "ddl")
        stmt_observes = {
            kind: self.statement_latency.labels(stmt=kind).observe
            for kind in kinds
        }
        stmt_counts = {
            kind: self.statements_total.labels(stmt=kind) for kind in kinds
        }
        # Keyed by AST class so the executor seam dispatches with
        # one ``type(stmt)`` + one dict probe; anything not DML
        # (DDL included) falls back to the ``ddl`` series.
        stmt_incs_by_type = {
            _ast.Select: stmt_counts["select"].inc1,
            _ast.Insert: stmt_counts["insert"].inc1,
            _ast.Update: stmt_counts["update"].inc1,
            _ast.Delete: stmt_counts["delete"].inc1,
        }
        ddl_inc = stmt_counts["ddl"].inc1
        self.lock_wait_latency = self.registry.histogram(
            "repro_lock_wait_seconds",
            "time spent blocked on lock acquisition (contended path "
            "only; uncontended acquires are never observed)",
            labelnames=("resource",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._lock_wait_cells = {
            cls: self.lock_wait_latency.labels(resource=cls).observe
            for cls in ("table", "tuple", "other")
        }
        self.deadlocks_total = self.registry.counter(
            "repro_deadlock_aborts_total",
            "lock acquisitions aborted by deadlock detection "
            "(the requester that closed a waits-for cycle)",
        ).cell()
        self.lock_timeouts_total = self.registry.counter(
            "repro_lock_timeouts_total",
            "lock acquisitions aborted by the lock-wait timeout",
        ).cell()
        self.serialization_failures_total = self.registry.counter(
            "repro_serialization_failures_total",
            "snapshot-isolation first-updater-wins aborts "
            "(SQLSTATE 40001)",
        ).cell()
        self._wip_cell = self.migrate_wip_latency.cell()
        self._wal_cells = (
            self._point_counters["wal.flush"],
            self.wal_batch_records.cell(),
        )
        # Bound-method fast paths for the two per-statement-rate
        # counters: on the no-op hot loop even one spare call layer
        # per seam is measurable, so the seams that only count call
        # the cell's atomic unit-increment directly.
        self.inc_claim_round = self._point_counters["migrate.before_claim"].inc1
        self.inc_txn_commit = self._point_counters["txn.commit"].inc1
        hot_cells = (
            self._point_counters["migrate.before_claim"],
            self._point_counters["txn.commit"],
            *stmt_counts.values(),
        )
        # Per-statement executor hooks, specialized at attach time:
        # every cell, dict probe, and the trace ring itself become
        # closure locals — no method-dispatch glue on the hot loop.
        # ``statement_begin(stmt_type)`` bumps the exact statement count
        # and answers head sampling as a *signed* clock reading: ``0.0``
        # for an unsampled statement ("counted; unless a propagated
        # trace context says otherwise, skip all end work"), a
        # *negative* timestamp for a latency-sampled-but-untraced one
        # (histogram observation only), and a positive timestamp for a
        # trace-sampled root (full span/context machinery).  The caller
        # (``Session.execute_statement``) always honors an active
        # propagated context regardless of the coin, re-reading the
        # clock itself for that case.
        #
        # The sampling coin is a one-slot list cycling through interned
        # small ints, so the per-statement cost is one allocation-free
        # append (the count), one subscript read, one masked store.  A
        # racing second worker can only jitter the sampling *cadence*
        # (the counts stay exact — they live in the cells' deques); and
        # the coin's wrap doubles as the compaction tick that keeps the
        # hot cells' inc1 queues bounded in a process nobody scrapes.
        incs_by_type_get = stmt_incs_by_type.get
        mask = self.sample_statements - 1
        tmask = self.sample_traces - 1
        cycle_mask = max(self.sample_traces, 256) - 1
        coin = [0]
        staging = self._wait_staging
        fold = self._fold_waits
        trace = self.trace
        tappend = trace._append
        epoch = trace._epoch
        threshold = slow_query_threshold
        record_slow = self._record_slow

        def _statement_begin(stmt_type: type, _pc=time.perf_counter) -> float:
            incs_by_type_get(stmt_type, ddl_inc)()
            n = coin[0]
            coin[0] = (n + 1) & cycle_mask
            if n & mask:
                return 0.0
            if not n:
                for cell in hot_cells:
                    cell.maybe_compact()
            if n & tmask:
                return -_pc()
            return _pc()

        def _statement_done(
            kind: str,
            start_s: float,
            ctx: Any = None,
            sql_text: str | None = None,
            isolation: str | None = None,
            _pc=time.perf_counter,
            _ident=threading.get_ident,
            _event=TraceEvent,
            _names=_STMT_SPAN_NAMES,
        ) -> None:
            """End-of-statement hook: latency histogram, ``stmt.<kind>``
            trace span (tagged with the statement's trace ids), the
            derived ``cpu`` wait event, and the slow-query check — all
            off one clock read.  ``ctx`` is the statement's
            :class:`~repro.obs.tracectx.TraceContext` when it is traced;
            its shared wait accumulator holds every wait the statement
            incurred below this frame."""
            now = _pc()
            seconds = now - start_s
            stmt_observes[kind](seconds)
            cpu = seconds
            if ctx is not None:
                waits = ctx.waits
                if waits:
                    # net_queue/pool precede execution (they accrue on
                    # the shared accumulator before the statement
                    # starts), so only in-statement waits come off cpu.
                    cpu -= (
                        waits.get("lock", 0.0)
                        + waits.get("migration", 0.0)
                        + waits.get("wal", 0.0)
                    )
                    if cpu < 0.0:
                        cpu = 0.0
                staging.append(("cpu", cpu))
                if len(staging) >= _WAIT_FOLD_THRESHOLD:
                    fold()
                # Span emission tracks the trace coin, not the latency
                # coin: a latency-sampled-but-untraced statement (ctx
                # None) gets its histogram observation above and no
                # orphan span here.
                dur_us = seconds * 1e6
                end_us = (now - epoch) * 1e6
                args: dict[str, Any] = {
                    "trace": ctx.trace_id,
                    "span": ctx.span_id,
                }
                parent = ctx.parent_id
                if parent is not None:
                    args["parent"] = parent
                tappend(
                    _event(
                        _names[kind],
                        "exec",
                        "X",
                        end_us - dur_us,
                        dur_us,
                        _ident(),
                        args,
                    )
                )
            if threshold is not None and seconds >= threshold:
                record_slow(kind, seconds, cpu, ctx, sql_text, isolation)

        self.statement_begin = _statement_begin
        self.statement_done = _statement_done

    # ------------------------------------------------------------------
    # Lifecycle-point emission (the fault seams)
    # ------------------------------------------------------------------
    def emit(self, point: str, **args: Any) -> None:
        """One guarded call per seam: counter bump + instant trace event.
        When a trace context is active, the instant is tagged with its
        trace id so lifecycle points land inside the request tree."""
        counter = self._point_counters.get(point)
        if counter is not None:
            counter.inc()
        self.trace.instant(point, cat="lifecycle", args=trace_args(args) or None)

    def count(self, point: str, n: int = 1) -> None:
        """Counter-only fast path for ``n`` passes through a lifecycle
        point: ``emit(point)`` minus the kwargs collection and the
        instant (which cost more than the counter bump itself).
        bullfrogd counts a whole batch of frames in one call."""
        self._point_counters[point].inc(n)

    @staticmethod
    def in_trace() -> bool:
        """True when a statement/request trace context is active on
        this thread of control — the seams (WAL) that cannot import
        :mod:`.tracectx` without a cycle ask through here."""
        return _trace_current() is not None

    def trace_point(self, point: str, **args: Any) -> None:
        """Instant-only emission (no counter — the caller already
        counted), trace-tagged.  For seams whose counter must stay
        exact while the instant is emitted selectively."""
        self.trace.instant(point, cat="lifecycle", args=trace_args(args) or None)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span_start(self) -> float:
        """Start-of-span timestamp; pair with :meth:`span_end`.  Cheaper
        than a context manager on hot paths."""
        return self.trace.now_us()

    def span_end(
        self, name: str, start_us: float, cat: str = "", **args: Any
    ) -> float:
        """Record the span and return its duration in seconds (for
        feeding a histogram).  Trace-tagged when a context is active."""
        end = self.trace.now_us()
        self.trace.complete(
            name, start_us, cat=cat, args=trace_args(args) or None, end_us=end
        )
        return (end - start_us) / 1e6

    def observe_wip(self, start_us: float, **args: Any) -> None:
        """End of one migration transaction: the ``migrate.wip`` span
        and its duration histogram, one guarded call.

        When a trace context is active this migration ran
        *synchronously inside a foreground statement* (the interceptor
        pulled it in), so its full duration is recorded as a
        ``migration`` wait — this is *the* leaf site for the migration
        wait class, which is why the view's migration total reconciles
        exactly with the trace's foreground ``migrate.wip`` span
        durations.  Background-migrator calls carry no context and are
        not waits."""
        ctx = _trace_current()
        end = self.trace.now_us()
        seconds = (end - start_us) / 1e6
        args = trace_args(args)
        if ctx is not None:
            args["wait"] = "migration"
        self.trace.complete(
            "migrate.wip", start_us, cat="migration",
            args=args or None, end_us=end,
        )
        if ctx is not None:
            ctx.note("wip", 1)
            self.record_wait("migration", seconds, ctx)
        self._wip_cell.observe(seconds)

    def wal_flush(self, txn_id: int, records: int) -> None:
        """The ``wal.flush`` seam: batch counter + records-per-batch
        histogram + trace instant behind the WAL's one guard."""
        batches, sizes = self._wal_cells
        batches.inc()
        sizes.observe(records)
        self.trace.instant(
            "wal.flush",
            cat="lifecycle",
            args={"txn_id": txn_id, "records": records},
        )

    # ------------------------------------------------------------------
    # Lock-wait profiling (called by LockManager on the contended path)
    # ------------------------------------------------------------------
    def observe_lock_wait(
        self, cls: str, seconds: float, blockers: tuple[int, ...] = ()
    ) -> None:
        """Contended-path lock wait: histogram, the ``lock`` wait event
        (when a statement context is active), and a ``lock.wait`` span
        naming the blocking transaction ids."""
        self._lock_wait_cells[cls](seconds)
        ctx = _trace_current()
        if ctx is not None:
            self.record_wait("lock", seconds, ctx)
        end_us = self.trace.now_us()
        args: dict[str, Any] = {"resource": cls}
        if blockers:
            args["blockers"] = list(blockers)
        args = trace_args(args)
        if ctx is not None:
            args["wait"] = "lock"
        self.trace.complete(
            "lock.wait", end_us - seconds * 1e6, cat="txn",
            args=args, end_us=end_us,
        )

    def count_deadlock(self) -> None:
        self.deadlocks_total.inc()

    def count_lock_timeout(self) -> None:
        self.lock_timeouts_total.inc()

    def count_serialization_failure(self) -> None:
        self.serialization_failures_total.inc()

    def add_rows(self, op: str, count: int) -> None:
        """Row-count accounting from the executor write path; pre-bound
        label cells so the cost is one dict lookup + one locked add.
        Inside a traced statement the count also lands on the context's
        notes, so the slow-query record reports rows touched per op."""
        if count:
            self._rows_cells[op].inc(count)
            ctx = _trace_current()
            if ctx is not None:
                ctx.note("rows_" + op, count)

    # ------------------------------------------------------------------
    # Wait-event classifier
    # ------------------------------------------------------------------
    def record_wait(self, wait_class: str, seconds: float, ctx: Any = None) -> None:
        """Attribute ``seconds`` of a statement's life to a wait class.

        Called from the leaf sites that already know the duration (lock
        waits, synchronous migration, WAL append, inbox queueing, pool
        acquisition); ``cpu`` is derived per statement as the
        remainder.  The hot cost is one GIL-atomic deque append; totals
        fold lazily."""
        if ctx is not None:
            ctx.add_wait(wait_class, seconds)
        staging = self._wait_staging
        staging.append((wait_class, seconds))
        if len(staging) >= _WAIT_FOLD_THRESHOLD:
            self._fold_waits()

    def _fold_waits(self) -> None:
        with self._wait_latch:
            staging = self._wait_staging
            totals = self._wait_totals
            while staging:
                try:
                    wait_class, seconds = staging.popleft()
                except IndexError:  # pragma: no cover - racing folder
                    break
                bucket = totals.get(wait_class)
                if bucket is None:
                    bucket = totals[wait_class] = [0, 0.0]
                bucket[0] += 1
                bucket[1] += seconds

    def wait_events_snapshot(self) -> dict[str, tuple[int, float]]:
        """``{wait_class: (count, total_seconds)}`` for every class
        (zero rows included, like ``pg_stat``)."""
        self._fold_waits()
        with self._wait_latch:
            return {
                cls: (bucket[0], bucket[1])
                for cls, bucket in self._wait_totals.items()
            }

    # ------------------------------------------------------------------
    # Slow-query log
    # ------------------------------------------------------------------
    def _record_slow(
        self,
        kind: str,
        seconds: float,
        cpu: float,
        ctx: Any,
        sql_text: str | None,
        isolation: str | None,
    ) -> None:
        waits = (ctx.waits or {}) if ctx is not None else {}
        notes = (ctx.notes or {}) if ctx is not None else {}
        record: dict[str, Any] = {
            "ts": time.time(),
            "stmt": kind,
            "sql": sql_text,
            "isolation": isolation,
            "duration_ms": seconds * 1e3,
            "cpu_ms": cpu * 1e3,
            "trace_id": ctx.trace_id if ctx is not None else None,
            "span_id": ctx.span_id if ctx is not None else None,
            "parent_id": ctx.parent_id if ctx is not None else None,
            "waits_ms": {
                cls: value * 1e3 for cls, value in sorted(waits.items())
            },
            "migration": {
                "granules": notes.get("granules", 0),
                "tuples": notes.get("tuples", 0),
            },
            "rows": {
                key[5:]: value
                for key, value in sorted(notes.items())
                if key.startswith("rows_")
            },
        }
        with self._slow_latch:
            self._slow_queries.append(record)
            path = self.slow_query_log_path
            if path is not None:
                sink = self._slow_sink
                if sink is None:
                    sink = self._slow_sink = open(path, "a", encoding="utf-8")
                sink.write(json.dumps(record, default=str) + "\n")
                sink.flush()
                # Size-capped rotation: the live file holds at most
                # half the budget; one predecessor (``<path>.1``) holds
                # the other half, replaced on each rotation — total
                # on-disk ≤ slow_query_log_max_bytes, and the most
                # recent half-budget of records is always intact.
                if sink.tell() >= self.slow_query_log_max_bytes // 2:
                    sink.close()
                    os.replace(path, path + ".1")
                    self._slow_sink = open(path, "a", encoding="utf-8")

    def slow_queries(self) -> list[dict[str, Any]]:
        """Newest-last snapshot of the in-memory slow-query ring."""
        with self._slow_latch:
            return list(self._slow_queries)

    # ------------------------------------------------------------------
    # Monitoring attachments (history sampler, health rules, recorder)
    # ------------------------------------------------------------------
    def attach_history(self, interval: float = 0.25, start: bool = True) -> Any:
        """Create (or return the existing) metrics-history sampler over
        this bundle.  Imported lazily so a bundle that never monitors
        never loads the module."""
        if self.history is None:
            from .history import MetricsHistory

            self.history = MetricsHistory(self, interval=interval)
        if start:
            self.history.start()
        return self.history

    def attach_monitoring(
        self,
        db: Any = None,
        *,
        interval: float = 0.25,
        rules: Any = None,
        incident_dir: str | None = None,
        min_dump_interval: float = 30.0,
        max_incidents: int = 8,
        start: bool = True,
    ) -> tuple[Any, Any, Any]:
        """The full monitoring stack in one call: history sampler +
        health engine (evaluated on the sampling cadence) + flight
        recorder wired to breaches.  Returns ``(history, health,
        flight)``; idempotent per component, so a server can add its
        own rules after an embedded shell already attached."""
        history = self.attach_history(interval=interval, start=start)
        if self.health is None:
            from .health import HealthEngine

            self.health = HealthEngine(history, rules).attach()
        if self.flight is None:
            from .flightrec import FlightRecorder

            self.flight = FlightRecorder(
                self,
                db=db,
                directory=incident_dir
                if incident_dir is not None
                else os.path.join("results", "incidents"),
                min_interval=min_dump_interval,
                max_incidents=max_incidents,
            )
            self.health.on_breach(self.flight.on_breach)
        elif db is not None and self.flight.db is None:
            self.flight.db = db
        return history, self.health, self.flight

    def close(self) -> None:
        """Stop the history sampler (if attached) and flush/close the
        slow-query JSONL sink (idempotent)."""
        history = self.history
        if history is not None:
            history.stop()
        with self._slow_latch:
            if self._slow_sink is not None:
                self._slow_sink.close()
                self._slow_sink = None

    # ------------------------------------------------------------------
    # WAL append span (traced commits; untraced ones keep wal_flush)
    # ------------------------------------------------------------------
    def wal_append(
        self,
        start_s: float,
        txn_id: int,
        records: int,
        _pc=time.perf_counter,
        _ident=threading.get_ident,
    ) -> None:
        """End of one redo-batch append: batch metrics, the ``wal``
        wait event, and a ``wal.append`` span.  The WAL calls this
        *after* the append (so a crashed append records nothing), and
        only for a commit inside a traced statement — every other commit
        takes the pre-append :meth:`wal_flush` instant."""
        now = _pc()
        seconds = now - start_s
        batches, sizes = self._wal_cells
        batches.inc()
        sizes.observe(records)
        ctx = _trace_current()
        args: dict[str, Any] = {"txn_id": txn_id, "records": records}
        if ctx is not None:
            self.record_wait("wal", seconds, ctx)
            args["trace"] = ctx.trace_id
            args["parent"] = ctx.span_id
            args["wait"] = "wal"
        trace = self.trace
        dur_us = seconds * 1e6
        end_us = (now - trace._epoch) * 1e6
        trace._append(
            TraceEvent(
                "wal.append", "txn", "X", end_us - dur_us, dur_us,
                _ident(), args,
            )
        )

    # ------------------------------------------------------------------
    # Lazy-migration interceptor span (traced statements)
    # ------------------------------------------------------------------
    def intercept_done(
        self,
        start_s: float,
        ctx: Any,
        _pc=time.perf_counter,
        _ident=threading.get_ident,
    ) -> None:
        """End of the BullFrog statement interceptor.  A span is worth
        its cost only when the interceptor *did* something — pulled a
        migration in synchronously (``wip`` note) or stalled past the
        floor (e.g. waiting out another transaction's claim).  The
        overwhelmingly common no-op claim check stays span-free and its
        nanoseconds classify as cpu."""
        now = _pc()
        seconds = now - start_s
        if seconds < _INTERCEPT_SPAN_FLOOR_S:
            notes = ctx.notes if ctx is not None else None
            if notes is None or "wip" not in notes:
                return
        trace = self.trace
        args: dict[str, Any] | None = None
        if ctx is not None:
            args = {"trace": ctx.trace_id, "parent": ctx.span_id}
        dur_us = seconds * 1e6
        end_us = (now - trace._epoch) * 1e6
        trace._append(
            TraceEvent(
                "migrate.intercept", "migration", "X",
                end_us - dur_us, dur_us, _ident(), args,
            )
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()


__all__ = ["Observability", "POINT_COUNTERS"]
