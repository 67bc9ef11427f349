"""Database facade: sessions, prepared statements, DDL.

``Database`` wires the substrate together (catalog + transactions +
planner + executor) and exposes the user-facing API::

    db = Database()
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    session.execute("INSERT INTO t VALUES (?, ?)", [1, "hello"])
    result = session.execute("SELECT v FROM t WHERE id = ?", [1])
    result.rows  # [("hello",)]

Every statement runs prepared.  ``Database.prepare(sql)`` returns the
one :class:`Statement` handle kept per SQL text — AST, statement kind,
referenced base tables, the runner chosen from the AST type, and the
executor artifact (plan + compiled expressions) for the current schema
epoch — and ``Session.execute(sql)`` is ``execute_statement(
db.prepare(sql), params)``: a repeated statement pays one dict probe,
no parser, no planner, no expression compile.  Any DDL or logical flip
bumps the epoch, so the next execution re-plans.

BullFrog integration points:

* ``set_statement_interceptor`` — the lazy-migration engine registers a
  callback ``(session, handle, params)`` invoked before every
  SELECT/INSERT/UPDATE/DELETE so it can migrate relevant tuples first
  (paper section 2.1);
* ``add_row_hook`` — the multi-step baseline registers trigger-style
  dual-write hooks;
* retired tables — after a big-flip migration, statements touching the
  old schema raise :class:`~repro.errors.SchemaVersionError` unless the
  session is migration-internal (``allow_retired``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .catalog import Catalog, Column, TableSchema
from .catalog.constraints import Check, ForeignKey, PrimaryKey, Unique
from .errors import (
    CheckViolation,
    DuplicateObjectError,
    ExecutionError,
    NotNullViolation,
    ReproError,
    SessionClosed,
    TransactionError,
    UniqueViolation,
)
from .exec.executor import Executor
from .exec.expressions import RowLayout, compile_expr, evaluate_constant, predicate_satisfied
from .exec.plan import ExecutionContext
from .exec.planner import PlannedQuery, Planner
from .obs import Observability
from .obs.sysviews import register_system_views
from .obs.tracectx import (
    TraceContext,
    activate as _trace_activate,
    current as _trace_current,
    deactivate as _trace_deactivate,
    trace_args as _trace_tags,
)
from .sql import ast_nodes as ast
from .sql.parser import parse_statement
from .txn.locks import LockMode
from .txn.manager import IsolationLevel, Transaction, TransactionManager
from .types import SqlType, TypeKind, text_type


@dataclass
class Result:
    """Outcome of one statement."""

    statement: str
    rows: list[tuple] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    rowcount: int = 0

    def scalar(self) -> Any:
        """First column of the first row (None if empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


_MAX_STATEMENTS = 1_024  # handles a Database keeps (one per SQL text)
# How long new work (and a router's mixed-epoch scatter retry) waits at
# a closed ``Database.flip_gate`` before running anyway.
FLIP_GATE_TIMEOUT = 30.0

_TXN_OPS = {
    ast.BeginTransaction: "begin",
    ast.CommitTransaction: "commit",
    ast.RollbackTransaction: "rollback",
}


def _base_tables(node: Any, out: set[str]) -> None:
    """Collect the base tables a statement names: DML targets plus
    every FROM item, through joins, subqueries and INSERT ... SELECT."""
    if isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
        out.add(node.table)
        node = getattr(node, "query", None)
    if isinstance(node, ast.Select):
        for item in node.from_items:
            _base_tables(item, out)
    elif isinstance(node, ast.TableRef):
        out.add(node.name)
    elif isinstance(node, ast.Join):
        _base_tables(node.left, out)
        _base_tables(node.right, out)
    elif isinstance(node, ast.SubquerySource):
        _base_tables(node.query, out)


class Statement:
    """One prepared statement: everything the path from socket to
    executor needs to know about a piece of SQL, decided once.

    ``Database.prepare(sql)`` keeps one per SQL text, shared by every
    session, the wire server's PARSE/EXECUTE and the router; an AST
    executed without text gets a throwaway one.

    * ``sql`` / ``ast`` / ``ast_type`` — the text (``None`` when there
      is none) and its parse;
    * ``txn_op`` — ``"begin"`` / ``"commit"`` / ``"rollback"`` for
      transaction control, else ``None``;
    * ``kind`` — the latency-histogram label: one value per DML kind
      keeps ``repro_statement_seconds`` cardinality bounded, everything
      else (DDL, EXPLAIN) shares ``ddl``;
    * ``tables`` — the base tables named (what the migration
      interceptor and the router match on);
    * ``run`` — ``run(session, handle, ctx) -> Result``, picked from
      the AST type; ``runner`` names the ``Executor`` method a DML
      runner calls.  Names, not bound methods: they are resolved on
      the executor per call, so wrapping ``Executor.run_select`` later
      still takes effect;
    * ``explained`` — for an EXPLAIN, the handle of the query it
      explains (built with this one, so its plan, migration scope and
      route are cached like any statement's), else ``None``;
    * ``route`` — the router's cached ``RoutePlan`` (unused elsewhere);
    * ``wire_header`` — bullfrogd's cached ROW_HEADER frame (unused
      elsewhere);
    * ``migration`` — the lazy engine's per-epoch migration plan: the
      units this statement can touch and each one's compiled scope.
    """

    __slots__ = (
        "sql", "ast", "ast_type", "txn_op", "kind", "tables", "run",
        "runner", "explained", "route", "wire_header", "migration",
        "_artifacts",
    )

    def __init__(self, node: ast.Statement, sql: str | None = None) -> None:
        self.sql = sql
        self.ast = node
        self.ast_type = ast_type = type(node)
        self.txn_op = _TXN_OPS.get(ast_type)
        tables: set[str] = set()
        _base_tables(node, tables)
        self.tables = frozenset(tables)
        self.kind, self.run, self.runner = _RUNNERS.get(ast_type, _UNSUPPORTED)
        if ast_type is ast.Select and node.for_update:
            self.runner = "run_select_for_update"
        self.explained = Statement(node.query) if ast_type is ast.Explain else None
        self.route: Any = None
        self.wire_header: tuple[list[str], bytes] | None = None
        self.migration: Any = None
        # (epoch, artifact) per allow_retired flavour: migration-internal
        # sessions plan against retired tables, clients must not.
        self._artifacts: list[tuple[int, Any] | None] = [None, None]

    def artifact(self, session: "Session") -> Any:
        """What ``Executor.prepare`` made of this statement for the
        session's ``allow_retired`` flavour at the current schema epoch
        — built on first use and again after every epoch bump, so a
        statement prepared before a DDL or a migration flip re-plans
        (and meets ``SchemaVersionError`` if its table was retired)."""
        return self.prepared(session.db, session.allow_retired)

    def prepared(self, db: "Database", allow_retired: bool) -> Any:
        """:meth:`artifact` for a caller that runs it in a context of its
        own, not a session's: the migration engines' reads and writes."""
        epoch = db._epoch
        entry = self._artifacts[allow_retired]
        if entry is None or entry[0] != epoch:
            entry = (epoch, db.executor.prepare(self.ast, allow_retired))
            self._artifacts[allow_retired] = entry
        return entry[1]


StatementInterceptor = Callable[["Session", Statement, Sequence[Any]], None]


class Database:
    """An embedded, multi-threaded relational database."""

    def __init__(
        self,
        lock_timeout: float = 10.0,
        obs: Observability | None = None,
        isolation: IsolationLevel | str | None = None,
    ) -> None:
        # Session-default isolation: explicit argument, else the
        # BULLFROG_ISOLATION environment variable (the CI snapshot leg
        # runs the whole suite with it), else READ_COMMITTED.
        if isolation is None:
            isolation = os.environ.get("BULLFROG_ISOLATION")
        self.default_isolation = (
            IsolationLevel.coerce(isolation) or IsolationLevel.READ_COMMITTED
        )
        self.catalog = Catalog()
        self.txns = TransactionManager(lock_timeout=lock_timeout)
        self.planner = Planner(self.catalog)
        self.executor = Executor(self.catalog, self.planner)
        # Observability fans out from here: attaching one object at the
        # Database covers the txn manager, the WAL, and (via the engine's
        # ``getattr(db, "obs", None)`` default) lazy migration.  ``None``
        # keeps every emission site a single ``is not None`` check.
        self.obs = obs
        if obs is not None:
            self.txns.obs = obs
            self.txns.wal.obs = obs
            self.txns.locks.obs = obs
            self.executor.obs = obs
        self._epoch = 0
        # The cluster epoch flip's admission gate (DESIGN.md section 16).
        # PREPARE closes it — bullfrogd's ``epoch prepare`` on a shard,
        # ``cluster_migrate`` on a router — and the server then parks
        # new work (autocommit statements, BEGINs) while open
        # transactions run on to COMMIT; COMMIT or ABORT reopens it.
        self.flip_gate = threading.Event()
        self.flip_gate.set()
        # SQL text -> Statement.  Hits read the dict bare; the latch
        # orders inserts and epoch bumps only.
        self._statements: dict[str, Statement] = {}
        self._cache_latch = threading.Lock()
        self._interceptor: StatementInterceptor | None = None
        self._row_hooks: dict[str, list] = {}
        # Lazy-migration engines register themselves here so the
        # ``bullfrog_stat_migrations`` system view can enumerate live
        # progress without the views layer knowing about engine types.
        self._engines: list[Any] = []
        # Admin verbs beyond the console's built-in vocabulary
        # (``repro.obs.console``): whoever owns more state registers
        # ``verb -> handler(db, arg)`` here — a router its ``shards`` /
        # ``migrate`` / ``epoch`` / ``progress``, a server its ``epoch`` /
        # ``migrate`` unless the database already has them.
        self.admin_verbs: dict[str, Callable[["Database", str], str]] = {}
        register_system_views(self)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def connect(
        self,
        allow_retired: bool = False,
        isolation: IsolationLevel | str | None = None,
    ) -> "Session":
        return Session(self, allow_retired=allow_retired, isolation=isolation)

    # ------------------------------------------------------------------
    # BullFrog integration
    # ------------------------------------------------------------------
    def set_statement_interceptor(self, interceptor: StatementInterceptor | None) -> None:
        self._interceptor = interceptor

    def register_migration_engine(self, engine: Any) -> None:
        """Track a migration engine for the introspection views."""
        if engine not in self._engines:
            self._engines.append(engine)

    def migration_engines(self) -> list[Any]:
        return list(self._engines)

    def add_row_hook(self, table_name: str, hook) -> None:
        self._row_hooks.setdefault(table_name, []).append(hook)

    def remove_row_hooks(self, table_name: str) -> None:
        self._row_hooks.pop(table_name, None)

    # ------------------------------------------------------------------
    # Prepared statements
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate every statement's executor artifact after any
        DDL (artifacts are tagged with the epoch they were built at)."""
        with self._cache_latch:
            self._epoch += 1

    def prepare(self, sql: str) -> Statement:
        """The handle for ``sql`` — the same object on every call while
        it stays cached, so nothing about a repeated statement is worked
        out twice.  The cache keeps the newest ``_MAX_STATEMENTS`` texts:
        a full cache drops its oldest entry (about 9 KB of AST and plan)
        for each new one, so one-shot texts cannot pin memory."""
        handle = self._statements.get(sql)
        if handle is not None:
            return handle
        obs = self.obs
        if obs is not None:
            # Parse is a span only on a cache miss: the steady state
            # hits the cache, and those statements genuinely do no
            # parse work worth a row in Perfetto.
            start_us = obs.trace.now_us()
            node = parse_statement(sql)
            obs.trace.complete("stmt.parse", start_us, cat="exec", args=_trace_tags())
        else:
            node = parse_statement(sql)
        handle = Statement(node, sql)
        statements = self._statements
        with self._cache_latch:
            if sql not in statements and len(statements) >= _MAX_STATEMENTS:
                del statements[next(iter(statements))]
            handle = statements.setdefault(sql, handle)
        return handle

    def parse(self, sql: str) -> ast.Statement:
        return self.prepare(sql).ast


class Session:
    """One client connection.  Autocommits unless BEGIN was executed."""

    def __init__(
        self,
        db: Database,
        allow_retired: bool = False,
        isolation: IsolationLevel | str | None = None,
    ) -> None:
        self.db = db
        self.allow_retired = allow_retired
        self.isolation = IsolationLevel.coerce(isolation) or db.default_isolation
        self._txn: Transaction | None = None
        # When True the statement interceptor is skipped — used by the
        # migration engines themselves to avoid recursion.
        self.internal = False
        self._closed = False
        # An autocommit snapshot SELECT's timestamp (``TransactionManager.
        # pin_snapshot``), pinned by the migration interceptor before it
        # computes overlay state or else by ``_run_read``, and the
        # interceptor's pre-migration row overlay for not-yet-visible
        # granules.  Consumed by the statement's execution context and
        # released when the statement ends.
        self._pending_snapshot_ts: int | None = None
        self._pending_overlay: dict[str, list[tuple]] | None = None
        # Propagated request trace context: ``bullfrogd`` parks the
        # wire-carried TraceContext here around each statement it
        # dispatches on this session.  An explicit attribute instead of
        # the ambient contextvar so the embedded fast path (no server,
        # no propagation) prices the check at one attribute read.
        self._request_ctx: Any = None

    @property
    def effective_isolation(self) -> IsolationLevel:
        """Internal (migration/loader/invariant) sessions always run
        READ_COMMITTED: migration correctness depends on 2PL claim
        semantics, and a session default of SNAPSHOT must not change
        engine-internal behavior."""
        if self.internal:
            return IsolationLevel.READ_COMMITTED
        return self.isolation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Idempotent teardown: roll back any open transaction (its
        locks are released by the abort) and refuse further statements.
        This is the embedded half of the server's abrupt-disconnect
        cleanup — ``bullfrogd`` calls it for every connection that
        drops, however it drops."""
        if self._closed:
            return
        self._closed = True
        txn = self._txn
        self._txn = None
        if txn is not None and txn.is_active:
            txn.abort()

    def reset(self) -> None:
        """Force-clear transaction state after an abort surfaced to the
        client: roll back if a transaction is still live, then drop the
        handle so the next statement starts clean.  Never raises."""
        txn = self._txn
        self._txn = None
        if txn is not None and txn.is_active:
            try:
                txn.abort()
            except Exception:  # noqa: BLE001 - reset is best-effort
                pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.is_active

    def begin(self, isolation: IsolationLevel | str | None = None) -> Transaction:
        if self._closed:
            raise SessionClosed("session is closed")
        if self.in_transaction:
            raise TransactionError("a transaction is already in progress")
        level = IsolationLevel.coerce(isolation) or self.effective_isolation
        self._txn = self.db.txns.begin(isolation=level)
        return self._txn

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        assert self._txn is not None
        self._txn.commit()
        self._txn = None

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        assert self._txn is not None
        self._txn.abort()
        self._txn = None

    def transaction(self) -> "_SessionTxn":
        """Context manager: ``with session.transaction(): ...``"""
        return _SessionTxn(self)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        if self._closed:
            raise SessionClosed("session is closed")
        return self.execute_statement(self.db.prepare(sql), params)

    def execute_statement(
        self, stmt: "Statement | ast.Statement", params: Sequence[Any] = ()
    ) -> Result:
        handle = stmt if type(stmt) is Statement else Statement(stmt)
        op = handle.txn_op
        if op is not None:
            # Transaction control changes session state and nothing else.
            getattr(self, op)()
            return Result(op.upper())

        obs = self.db.obs
        if obs is None or self.internal:
            # Internal (migration-engine) statements are covered by the
            # enclosing ``migrate.wip`` span; instrumenting them here too
            # would double-count migration work as client latency.
            return self._run_statement(handle, params)
        start = obs.statement_begin(handle.ast_type)
        # Fork the statement's trace context — a child of the server's
        # request context when one is active (networked path), a fresh
        # root otherwise (embedded path) — and expose it via the
        # contextvar so locks/WAL/migration below attribute their waits
        # to this statement.  ``statement_begin`` answers a signed
        # clock: ``0.0`` for an unsampled statement (counted, no end
        # work), a *negative* start for a latency-sampled-but-untraced
        # one (histogram only), and a positive start for a head-sampled
        # root span (see Observability.sample_traces).  A propagated
        # context always wins over the sample coin — a traced networked
        # request never loses its engine spans.
        parent = self._request_ctx
        if parent is None:
            if not start:
                return self._run_statement(handle, params)
            if start < 0.0:
                try:
                    return self._run_statement(handle, params)
                finally:
                    obs.statement_done(handle.kind, -start)
        elif start < 0.0:
            start = -start
        if not start:
            start = time.perf_counter()
        ctx = parent.child() if parent is not None else TraceContext()
        token = _trace_activate(ctx)
        try:
            return self._run_statement(handle, params, ctx)
        finally:
            _trace_deactivate(token)
            obs.statement_done(
                handle.kind,
                start,
                ctx,
                handle.sql,
                self.isolation.value,
            )

    def _run_statement(
        self, handle: Statement, params: Sequence[Any], trace_ctx: Any = None
    ) -> Result:
        interceptor = self.db._interceptor
        try:
            if (
                interceptor is not None
                and handle.runner is not None  # DML only (not DDL, not EXPLAIN)
                and not self.internal
            ):
                if trace_ctx is not None:
                    # Only statements that carry a trace context (sampled
                    # roots and propagated requests) pay the two clock
                    # reads around interception; an untraced statement
                    # runs the interceptor bare.
                    obs = self.db.obs
                    t0 = time.perf_counter()
                    try:
                        interceptor(self, handle, params)
                    finally:
                        obs.intercept_done(t0, trace_ctx)
                else:
                    interceptor(self, handle, params)

            if self.in_transaction:
                return self._dispatch(handle, params)
            if handle.runner == "run_select" and not self.internal:
                return self._run_read(handle, params)
            # Any other autocommit statement runs in a transaction.
            txn = self.db.txns.begin(isolation=self.effective_isolation)
            self._txn = txn
            try:
                result = self._dispatch(handle, params)
            except BaseException:
                if txn.is_active:
                    txn.abort()
                self._txn = None
                raise
            if txn.is_active:
                txn.commit()
            self._txn = None
            return result
        finally:
            # Overlay state and the pinned snapshot are per-statement:
            # never leak them into the next.  The pin has held the GC
            # horizon for the whole read.
            pinned = self._pending_snapshot_ts
            if pinned is not None:
                self._pending_snapshot_ts = None
                self.db.txns.unpin_snapshot(pinned)
            self._pending_overlay = None

    def _run_read(self, handle: Statement, params: Sequence[Any]) -> Result:
        """An autocommit SELECT, which is not a transaction: nothing is
        registered, logged or committed, so it is not in
        ``bullfrog_stat_activity`` and not counted by
        ``repro_txn_commits_total``.

        Under SNAPSHOT it reads at the timestamp the migration
        interceptor pinned (with its overlay), else pins one, and takes
        no lock; ``_run_statement`` unpins it when the read returns.
        Under READ_COMMITTED it reads head versions and takes its table
        IS locks under a statement owner id (shown in
        ``bullfrog_stat_locks``), so ALTER TABLE and the eager baseline
        wait for it, and drops them together when it returns."""
        db = self.db
        ctx = ExecutionContext(
            db.catalog, None, params, self.allow_retired, row_hooks=db._row_hooks
        )
        if self.isolation is IsolationLevel.SNAPSHOT:
            ts = self._pending_snapshot_ts
            if ts is None:
                ts = self._pending_snapshot_ts = db.txns.pin_snapshot()
            ctx.snapshot_ts = ts
            ctx.overlay = self._pending_overlay
            return handle.run(self, handle, ctx)
        locks = ctx.statement_locks = db.txns.statement_locks()
        try:
            return handle.run(self, handle, ctx)
        finally:
            locks.release()

    # ------------------------------------------------------------------
    def _context(self) -> ExecutionContext:
        ctx = ExecutionContext(
            catalog=self.db.catalog,
            txn=self._txn,
            allow_retired=self.allow_retired,
            row_hooks=self.db._row_hooks,
        )
        txn = self._txn
        if txn is not None and txn.snapshot_ts is not None:
            ctx.snapshot_ts = txn.snapshot_ts
            ctx.own_stamp = txn.stamp
            ctx.overlay = self._pending_overlay
        return ctx

    def _dispatch(self, handle: Statement, params: Sequence[Any]) -> Result:
        ctx = self._context()
        ctx.params = params
        return handle.run(self, handle, ctx)

    # Runners: ``Statement.run`` is one of these, chosen when the handle
    # is built.  The executor method is looked up by name per call.
    def _run_query(self, handle: Statement, ctx: ExecutionContext) -> Result:
        artifact = handle.artifact(self)
        rows = getattr(self.db.executor, handle.runner)(artifact, ctx)
        return Result(
            "SELECT", rows=rows, columns=artifact.names, rowcount=len(rows)
        )

    def _run_write(self, handle: Statement, ctx: ExecutionContext) -> Result:
        count = getattr(self.db.executor, handle.runner)(
            handle.artifact(self), ctx
        )
        return Result(handle.kind.upper(), rowcount=count)

    def _run_catalog_ddl(self, handle: Statement, ctx: ExecutionContext) -> Result:
        tag, apply = _CATALOG_DDL[handle.ast_type]
        apply(self.db.catalog, handle.ast)
        self.db.bump_epoch()
        return Result(tag)

    def _run_unsupported(self, handle: Statement, ctx: ExecutionContext) -> Result:
        raise ExecutionError(f"unsupported statement {handle.ast_type.__name__}")

    # ------------------------------------------------------------------
    # EXPLAIN [ANALYZE]
    # ------------------------------------------------------------------
    def _run_explain(self, handle: Statement, ctx: ExecutionContext) -> Result:
        """Runner for a parsed ``EXPLAIN [ANALYZE] SELECT``.

        EXPLAIN shows the plan that the query's own handle runs: the
        artifact of ``handle.explained``, planned once per schema epoch
        like any repeated SELECT.  ANALYZE executes an instrumented
        clone of that plan, so the shared plan is never touched.

        EXPLAIN is deliberately not a statement ``_run_statement``
        intercepts; ANALYZE hands the explained handle to the
        interceptor *itself* (so its migration scope, too, is compiled
        once per epoch), under a timer, so the migrate-stall cost a
        client would have paid for this query shows up as its own
        summary line instead of disappearing before planning.
        """
        query = handle.explained
        if not handle.ast.analyze:
            return _plan_result(self._explained_plan(query).node.explain())

        interceptor = self.db._interceptor
        stall_seconds = 0.0
        migrated: tuple[int, int] | None = None
        if interceptor is not None and not self.internal:
            engine = getattr(interceptor, "__self__", None)
            stats = getattr(engine, "stats", None)
            before = stats.snapshot() if stats is not None else None
            start = time.perf_counter()
            interceptor(self, query, ctx.params)
            stall_seconds = time.perf_counter() - start
            # ctx predates the interceptor: hand its snapshot overlay on.
            ctx.overlay = self._pending_overlay
            if before is not None:
                after = stats.snapshot()
                migrated = (
                    after["granules_migrated"] - before["granules_migrated"],
                    after["tuples_migrated"] - before["tuples_migrated"],
                )

        planned = self._explained_plan(query)
        start = time.perf_counter()
        _rows, root = self.db.executor.run_analyze(planned, ctx)
        exec_seconds = time.perf_counter() - start
        lines = root.explain()
        lines.append(f"Execution Time: {exec_seconds * 1000.0:.3f} ms")
        if interceptor is not None and not self.internal:
            summary = f"Lazy Migration: stall={stall_seconds * 1000.0:.3f} ms"
            if migrated is not None:
                summary += f", granules=+{migrated[0]}, tuples=+{migrated[1]}"
            lines.append(summary)
        trace_ctx = _trace_current()
        if trace_ctx is not None:
            # Same ids the statement's spans carry — grep the Perfetto
            # export (or bullfrog_stat_slow_queries) for this trace_id.
            lines.append(
                f"Trace: trace_id={trace_ctx.trace_id} "
                f"span_id={trace_ctx.span_id}"
            )
        return _plan_result(lines)

    def _explained_plan(self, handle: Statement) -> PlannedQuery:
        """The plan ``handle`` runs, for EXPLAIN: its artifact."""
        if handle.runner != "run_select":
            raise ExecutionError("EXPLAIN supports plain SELECT statements only")
        return handle.artifact(self)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, handle: Statement, ctx: ExecutionContext) -> Result:
        stmt = handle.ast
        if stmt.as_select is not None:
            return self._create_table_as(stmt, ctx)
        schema = build_schema(stmt)
        self.db.catalog.create_table(schema, if_not_exists=stmt.if_not_exists)
        self.db.bump_epoch()
        return Result("CREATE TABLE")

    def _create_table_as(self, stmt: ast.CreateTable, ctx: ExecutionContext) -> Result:
        if stmt.if_not_exists and self.db.catalog.has_table(stmt.name):
            # PostgreSQL skips: the query does not run.
            return Result("CREATE TABLE AS", rowcount=0)
        planned = self.db.planner.plan_select(stmt.as_select, self.allow_retired)
        schema = planned_schema(stmt.name, planned)
        table = self.db.catalog.create_table(schema)
        self.db.bump_epoch()
        build = schema.row_maker(schema.column_names)
        count = 0
        for row in planned.run(ctx):
            coerced = build(row)
            tid = table.physical_insert(coerced)
            if ctx.txn is not None:
                ctx.txn.record_insert(table, tid, coerced)
            count += 1
        return Result("CREATE TABLE AS", rowcount=count)

    def _alter_table(self, handle: Statement, ctx: ExecutionContext) -> Result:
        stmt = handle.ast
        catalog = self.db.catalog
        table = catalog.table(stmt.name)
        if ctx.txn is not None:
            ctx.txn.lock_table(stmt.name, LockMode.X)
        action = stmt.action
        kind = action[0]
        if kind == "ADD COLUMN":
            column_def: ast.ColumnDef = action[1]
            if column_def.primary_key or column_def.unique:
                raise ExecutionError(
                    "ADD COLUMN with PRIMARY KEY/UNIQUE is not supported; "
                    "add the constraint separately"
                )
            column = _column_from_def(column_def)
            new_schema = table.schema.with_column(column)
            default = column.default if column.has_default else None
            if column.not_null and default is None and len(table):
                raise NotNullViolation(
                    f'column "{column.name}" of relation "{stmt.name}" '
                    "contains null values",
                    constraint=f"{stmt.name}_{column.name}_not_null",
                )
            _rewrite_rows(table, lambda row: row + (default,))
            table.schema = new_schema
            table.invalidate_caches()
        elif kind == "DROP COLUMN":
            column_name = action[1]
            position = table.schema.column_index(column_name)
            for index in list(table.indexes.values()):
                if column_name in index.columns:
                    raise ExecutionError(
                        f"cannot drop column {column_name!r}: used by index "
                        f"{index.name!r}"
                    )
            new_schema = table.schema.without_column(column_name)
            _rewrite_rows(table, lambda row: row[:position] + row[position + 1 :])
            table.schema = new_schema
            table.invalidate_caches()
        elif kind == "RENAME COLUMN":
            table.schema = table.schema.with_renamed_column(action[1], action[2])
            table.invalidate_caches()
        elif kind == "RENAME TO":
            catalog.rename_table(stmt.name, action[1])
        elif kind == "ADD CONSTRAINT":
            self._add_constraint(table, action[1], ctx)
        elif kind == "DROP CONSTRAINT":
            constraint_name = action[1]
            table.schema = table.schema.without_constraint(constraint_name)
            if constraint_name in table.indexes:
                table.drop_index(constraint_name)
            table._compiled_checks = None
        else:
            raise ExecutionError(f"unsupported ALTER TABLE action {kind!r}")
        self.db.bump_epoch()
        return Result("ALTER TABLE")

    def _add_constraint(
        self, table, constraint: ast.TableConstraint, ctx: ExecutionContext
    ) -> None:
        """Validates existing rows synchronously — the paper's section
        2.4 choice: report constraint problems at ALTER time rather than
        discover them lazily mid-migration."""
        name = constraint.name or f"{table.schema.name}_{constraint.kind.lower().replace(' ', '_')}"
        if constraint.kind in ("PRIMARY KEY", "UNIQUE"):
            index_name = name if constraint.name else (
                f"{table.schema.name}_pkey"
                if constraint.kind == "PRIMARY KEY"
                else f"{table.schema.name}_unique_{len(table.schema.uniques)}"
            )
            # Building the unique index validates existing rows.
            table.add_index(index_name, constraint.columns, unique=True)
            if constraint.kind == "PRIMARY KEY":
                table.schema = table.schema.with_constraint(
                    PrimaryKey(constraint.columns, name=index_name)
                )
            else:
                table.schema = table.schema.with_constraint(
                    Unique(constraint.columns, name=index_name)
                )
        elif constraint.kind == "CHECK":
            check = Check(constraint.expr, name=name)
            layout = RowLayout.for_table(table.schema.name, table.schema.column_names)
            fn = compile_expr(constraint.expr, layout)
            for _tid, row in table.heap.scan():
                if fn(row, ()) is False:
                    raise CheckViolation(
                        f"existing row violates new check constraint {name!r}",
                        constraint=name,
                    )
            table.schema = table.schema.with_constraint(check)
            table._compiled_checks = None
        elif constraint.kind == "FOREIGN KEY":
            fk = ForeignKey(
                constraint.columns,
                constraint.ref_table,
                constraint.ref_columns,
                name=name,
            )
            table.schema = table.schema.with_constraint(fk)
            # In force from here even if an existing row fails below:
            # re-plan statements now (an INSERT's FK-parent migration).
            self.db.bump_epoch()
            duties = self.db.executor._parent_duties(table)
            for _tid, row in table.heap.scan():
                for _watch, check in duties:
                    check(None, row, ctx)
        else:
            raise ExecutionError(f"unsupported constraint kind {constraint.kind!r}")

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def explain(self, sql: str) -> str:
        """The plan of ``sql`` (with or without an ``EXPLAIN`` prefix):
        the one its prepared handle runs."""
        handle = self.db.prepare(sql)
        return self._explained_plan(handle.explained or handle).explain()


def _plan_result(lines: list[str]) -> Result:
    rows = [(line,) for line in lines]
    return Result("EXPLAIN", rows=rows, columns=["QUERY PLAN"], rowcount=len(rows))


class _SessionTxn:
    def __init__(self, session: Session) -> None:
        self.session = session

    def __enter__(self) -> Session:
        self.session.begin()
        return self.session

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.session.in_transaction:
                self.session.commit()
        else:
            if self.session.in_transaction:
                self.session.rollback()
        return False


# Catalog-only DDL: AST type -> (result tag, catalog call).
_CATALOG_DDL = {
    ast.CreateView: ("CREATE VIEW", lambda catalog, s: catalog.create_view(
        s.name, s.query, or_replace=s.or_replace)),
    ast.CreateIndex: ("CREATE INDEX", lambda catalog, s: catalog.create_index(
        s.name, s.table, s.columns, unique=s.unique, ordered=True)),
    ast.DropTable: ("DROP TABLE", lambda catalog, s: catalog.drop_table(
        s.name, if_exists=s.if_exists)),
    ast.DropView: ("DROP VIEW", lambda catalog, s: catalog.drop_view(
        s.name, if_exists=s.if_exists)),
    ast.DropIndex: ("DROP INDEX", lambda catalog, s: catalog.drop_index(
        s.name, if_exists=s.if_exists)),
}

# AST type -> (Statement.kind, Statement.run, Statement.runner).  The
# four with an Executor method are DML: the statements the migration
# interceptor sees.
_RUNNERS = {
    ast.Select: ("select", Session._run_query, "run_select"),
    ast.Insert: ("insert", Session._run_write, "run_insert"),
    ast.Update: ("update", Session._run_write, "run_update"),
    ast.Delete: ("delete", Session._run_write, "run_delete"),
    ast.Explain: ("ddl", Session._run_explain, None),
    ast.CreateTable: ("ddl", Session._create_table, None),
    ast.AlterTable: ("ddl", Session._alter_table, None),
    **dict.fromkeys(_CATALOG_DDL, ("ddl", Session._run_catalog_ddl, None)),
}
_UNSUPPORTED = ("ddl", Session._run_unsupported, None)


# ======================================================================
# Schema construction from DDL AST
# ======================================================================


def build_schema(stmt: ast.CreateTable) -> TableSchema:
    """Build a :class:`TableSchema` from a parsed CREATE TABLE."""
    columns: list[Column] = []
    pk_columns: list[str] = []
    uniques: list[Unique] = []
    checks: list[Check] = []
    fks: list[ForeignKey] = []

    for column_def in stmt.columns:
        columns.append(_column_from_def(column_def))
        if column_def.primary_key:
            pk_columns.append(column_def.name)
        if column_def.unique:
            uniques.append(Unique((column_def.name,), name=f"{stmt.name}_{column_def.name}_key"))
        if column_def.check is not None:
            checks.append(Check(column_def.check, name=f"{stmt.name}_{column_def.name}_check"))
        if column_def.references is not None:
            ref_table, ref_cols = column_def.references
            fks.append(
                ForeignKey(
                    (column_def.name,),
                    ref_table,
                    ref_cols,
                    name=f"{stmt.name}_{column_def.name}_fkey",
                )
            )

    primary_key: PrimaryKey | None = (
        PrimaryKey(tuple(pk_columns)) if pk_columns else None
    )
    for constraint in stmt.constraints:
        if constraint.kind == "PRIMARY KEY":
            if primary_key is not None:
                raise DuplicateObjectError(
                    f"multiple primary keys for table {stmt.name!r}"
                )
            primary_key = PrimaryKey(constraint.columns)
        elif constraint.kind == "UNIQUE":
            uniques.append(
                Unique(
                    constraint.columns,
                    name=constraint.name or f"{stmt.name}_unique_{len(uniques)}",
                )
            )
        elif constraint.kind == "CHECK":
            assert constraint.expr is not None
            checks.append(
                Check(
                    constraint.expr,
                    name=constraint.name or f"{stmt.name}_check_{len(checks)}",
                )
            )
        elif constraint.kind == "FOREIGN KEY":
            assert constraint.ref_table is not None
            fks.append(
                ForeignKey(
                    constraint.columns,
                    constraint.ref_table,
                    constraint.ref_columns,
                    name=constraint.name or f"{stmt.name}_fkey_{len(fks)}",
                )
            )
    return TableSchema(
        name=stmt.name,
        columns=tuple(columns),
        primary_key=primary_key,
        uniques=tuple(uniques),
        checks=tuple(checks),
        foreign_keys=tuple(fks),
    )


def planned_schema(
    name: str, planned: PlannedQuery, column_names: Sequence[str] | None = None
) -> TableSchema:
    """Schema of a table materialized from a planned SELECT (CREATE
    TABLE AS, migration outputs declared without explicit DDL): each
    column takes the planner's inferred output type, TEXT where it could
    not infer one.  ``column_names`` defaults to the SELECT's own."""
    name_to_type = dict(zip(planned.names, planned.types))
    columns = tuple(
        Column(column, name_to_type.get(column) or text_type())
        for column in (column_names or planned.names)
    )
    return TableSchema(name=name, columns=columns)


def _column_from_def(column_def: ast.ColumnDef) -> Column:
    default = None
    has_default = False
    if column_def.default is not None:
        default = column_def.type.coerce(evaluate_constant(column_def.default))
        has_default = True
    return Column(
        name=column_def.name,
        type=column_def.type,
        not_null=column_def.not_null,
        default=default,
        has_default=has_default,
    )


def _rewrite_rows(table, transform) -> None:
    """Rewrite every live row in place (ALTER TABLE column changes).
    Index entries keyed by untouched columns remain valid because TIDs
    do not move; indexes over a dropped column are rejected earlier."""
    for tid, row in table.heap.scan():
        table.heap.update(tid, transform(row))
