"""Statement execution: SELECT driving and constraint-checked DML.

The executor owns the write path: table IX + tuple X locking, FK
enforcement (both directions), undo/redo recording on the transaction.
It is deliberately independent of the SQL front end: ``prepare`` turns
a DML AST node into an artifact once, the ``run_*`` methods execute
that artifact with per-call parameters, and the BullFrog engine also
calls ``insert_rows`` directly when materializing migrated tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..errors import (
    ExecutionError,
    ForeignKeyViolation,
    SerializationFailure,
    UniqueViolation,
    UnknownObjectError,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import: catalog depends on exec.expressions
    from ..catalog.catalog import Table

from ..catalog.constraints import ForeignKey
from ..sql import ast_nodes as ast
from ..storage.version import BOOTSTRAP_STAMP
from ..txn.locks import LockMode
from .expressions import RowLayout, compile_expr, compile_projection, key_getter
from .plan import AnalyzedNode, ExecutionContext, TableScan, instrument_plan
from .planner import PlannedQuery, Planner

Row = tuple[Any, ...]


@dataclass(slots=True)
class PreparedDml:
    """The executor's artifact for one DML statement shape: the target
    table's name, the compiled locked scan (or INSERT source), every
    expression compiled once and all else fixed for the schema epoch
    (row maker, coercers, NOT NULL check, FK duties).  Executions bind
    parameters per call; the statement handle (:class:`repro.db.
    Statement`) keeps one per schema epoch and ``allow_retired`` flavour."""

    table: str
    # UPDATE / DELETE: ctx -> [(tid, row)] of X-locked qualifying
    # tuples; SELECT ... FOR UPDATE: ctx -> projected rows.
    scan: Any = None
    assignments: list | None = None  # UPDATE: [(position, coerce, fn)]
    names: list[str] | None = None  # FOR UPDATE output column names
    build: Any = None  # INSERT: the target's row maker for its columns
    row_fns: list | None = None  # INSERT ... VALUES: one fn list per row
    query: PlannedQuery | None = None  # INSERT ... SELECT source plan
    on_conflict_skip: bool = False
    check_not_null: Any = None  # UPDATE: the target schema's NOT NULL check
    duties: list = field(default_factory=list)  # FK: Executor._parent_duties


class Executor:
    def __init__(self, catalog, planner: Planner) -> None:
        self.catalog = catalog
        self.planner = planner
        # Optional observability (repro.obs.Observability), set by the
        # Database when one is attached; None keeps the write path free
        # of any accounting beyond a single ``is not None`` check.
        self.obs: Any = None

    # ==================================================================
    # Prepare: everything a statement shape needs, compiled once
    # ==================================================================
    def prepare(
        self, stmt: ast.Statement, allow_retired: bool
    ) -> "PlannedQuery | PreparedDml":
        """Plan and compile one SELECT / INSERT / UPDATE / DELETE for
        repeated execution.  The result is what the matching ``run_*``
        method takes: a :class:`PlannedQuery` for a plain SELECT, a
        :class:`PreparedDml` for everything else.  It is valid until the
        next DDL (the caller re-prepares per schema epoch)."""
        return _PREPARERS[type(stmt)](self, stmt, allow_retired)

    def _prepare_select(
        self, stmt: ast.Select, allow_retired: bool
    ) -> "PlannedQuery | PreparedDml":
        if not stmt.for_update:
            return self.planner.plan_select(stmt, allow_retired)
        if (
            len(stmt.from_items) != 1
            or not isinstance(stmt.from_items[0], ast.TableRef)
            or stmt.group_by
            or stmt.having is not None
            or stmt.order_by
            or stmt.distinct
        ):
            raise ExecutionError(
                "FOR UPDATE supports plain single-table SELECT statements"
            )
        ref = stmt.from_items[0]
        scan = self.planner.plan_dml_scan(
            ref.name, ref.alias, stmt.where, allow_retired
        )
        layout = scan.layout
        names: list[str] = []
        exprs: list[ast.Expr] = []
        for index, item in enumerate(stmt.items):
            if isinstance(item.expr, ast.Star):
                for _binding, name in layout.columns:
                    names.append(name)
                    exprs.append(ast.ColumnRef(name, ref.binding))
                continue
            names.append(item.alias or _item_default_name(item.expr, index))
            exprs.append(item.expr)
        project = compile_projection(exprs, layout)
        return PreparedDml(
            ref.name, self._locked_scan(scan, project), names=names
        )

    def _prepare_insert(self, stmt: ast.Insert, allow_retired: bool) -> PreparedDml:
        table = self.catalog.table_checked(stmt.table, allow_retired)
        columns = stmt.columns or table.schema.column_names
        unknown = [c for c in columns if not table.schema.has_column(c)]
        if unknown:
            raise ExecutionError(
                f"table {stmt.table} has no column(s) {unknown!r}"
            )
        prepared = PreparedDml(
            stmt.table,
            build=table.schema.row_maker(columns),
            on_conflict_skip=stmt.on_conflict_do_nothing,
            duties=self._parent_duties(table),
        )
        if stmt.query is not None:
            prepared.query = self.planner.plan_select(stmt.query, allow_retired)
            if len(prepared.query.names) != len(columns):
                raise ExecutionError(
                    f"INSERT target has {len(columns)} column(s) but the "
                    f"query produces {len(prepared.query.names)}"
                )
            return prepared
        empty = RowLayout()
        prepared.row_fns = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise ExecutionError(
                    f"INSERT row has {len(row_exprs)} value(s) for "
                    f"{len(columns)} column(s)"
                )
            prepared.row_fns.append(
                [compile_expr(expr, empty) for expr in row_exprs]
            )
        return prepared

    def _prepare_update(self, stmt: ast.Update, allow_retired: bool) -> PreparedDml:
        table = self.catalog.table_checked(stmt.table, allow_retired)
        scan = self.planner.plan_dml_scan(
            stmt.table, stmt.alias, stmt.where, allow_retired
        )
        layout = scan.layout
        schema = table.schema
        positions = [schema.column_index(column) for column, _ in stmt.assignments]
        assignments = [
            (p, schema.columns[p].type.coercer, compile_expr(expr, layout))
            for p, (_column, expr) in zip(positions, stmt.assignments)
        ]
        assigned = set(positions)
        return PreparedDml(
            stmt.table,
            self._locked_scan(scan),
            assignments=assignments,
            check_not_null=schema.check_not_null,
            duties=self._parent_duties(table, assigned) + self._child_duties(table, assigned),
        )

    def _prepare_delete(self, stmt: ast.Delete, allow_retired: bool) -> PreparedDml:
        table = self.catalog.table_checked(stmt.table, allow_retired)
        scan = self.planner.plan_dml_scan(
            stmt.table, stmt.alias, stmt.where, allow_retired
        )
        return PreparedDml(
            stmt.table, self._locked_scan(scan), duties=self._child_duties(table)
        )

    # ==================================================================
    # Snapshot-isolation write conflicts (first-updater-wins)
    # ==================================================================
    def _check_write_conflict(self, table: "Table", tid: int, ctx: ExecutionContext) -> None:
        """Under SNAPSHOT isolation (``ctx`` has a transaction and a
        snapshot), a write target whose newest committed version
        postdates our snapshot means another transaction won the
        conflict: abort with SQLSTATE 40001.  Called after the tuple X
        lock is held, so the chain head is stable and any non-aborted
        foreign stamp is fully committed."""
        version = table.heap.read_version(tid)
        while version is not None and version.stamp.aborted:
            version = version.prev
        if version is None or version.stamp is ctx.txn.stamp:
            return
        ts = version.stamp.ts
        if ts is not None and ts > ctx.snapshot_ts:
            obs = self.obs
            if obs is not None:
                obs.count_serialization_failure()
            ctx.txn.abort()
            raise SerializationFailure(
                f"could not serialize access: tuple {tid} of "
                f"{table.schema.name} was modified by a transaction that "
                f"committed after this snapshot (ts {ts} > "
                f"{ctx.snapshot_ts}); retry the transaction"
            )

    @staticmethod
    def _write_stamp(ctx: ExecutionContext):
        return ctx.txn.stamp if ctx.txn is not None else BOOTSTRAP_STAMP

    def _locked_scan(self, scan: TableScan, project=None):
        """Compile the write path's read side, shared by UPDATE, DELETE
        and SELECT ... FOR UPDATE: ``run(ctx)`` returns every tuple the
        scan qualifies, X-locked, re-read and re-filtered *after* the
        lock — it may have changed (or gone) while we waited, so a
        concurrent writer cannot slip between read and write — as
        ``(tid, row)`` pairs, or as ``project(row, params)`` rows.  An
        open transaction's insert (no tuple lock) is awaited first."""
        qualifying = scan.compile_tids()
        table = scan.table
        name = table.schema.name
        heap = table.heap
        filter_fn = scan.filter_fn
        check_conflict = self._check_write_conflict

        def locked_scan(ctx: ExecutionContext) -> list:
            ctx.lock_table(name, LockMode.IX)
            txn = ctx.txn
            params = ctx.params
            snapshot = ctx.snapshot_ts is not None and txn is not None
            out = []
            for tid, _row in qualifying(ctx):
                if txn is not None:
                    txn.lock_tuple(name, tid, LockMode.X)
                    stamp = heap.read_version(tid).stamp
                    if stamp.ts is None and stamp is not txn.stamp:
                        txn.wait_for(stamp)
                if snapshot:
                    check_conflict(table, tid, ctx)
                row = heap.read(tid)
                if row is None:
                    continue
                if filter_fn is not None and filter_fn(row, params) is not True:
                    continue
                out.append((tid, row) if project is None else project(row, params))
            return out

        return locked_scan

    # ==================================================================
    # SELECT
    # ==================================================================
    def run_select(self, planned: PlannedQuery, ctx: ExecutionContext) -> list[Row]:
        return planned.run(ctx)

    def run_analyze(
        self, planned: PlannedQuery, ctx: ExecutionContext
    ) -> tuple[list[Row], AnalyzedNode]:
        """``EXPLAIN ANALYZE``: run an instrumented clone of the plan.

        Returns the result rows (discarded by the caller, per Postgres
        semantics) and the instrumented root whose ``explain()`` renders
        per-node actual time/rows/loops.  The original plan object —
        possibly shared via a statement handle — is never touched.
        """
        root = instrument_plan(planned.node)
        rows = root.compile()(ctx)
        return rows, root

    def run_select_for_update(
        self, prepared: PreparedDml, ctx: ExecutionContext
    ) -> list[Row]:
        """``SELECT ... FOR UPDATE``: single-table reads that X-lock the
        qualifying tuples — TPC-C's district ``d_next_o_id`` claim
        depends on this.  Column names are ``prepared.names``."""
        # Like run_update / run_delete: refuse a table a flip retired
        # after this artifact was fetched.
        self.catalog.table_checked(prepared.table, ctx.allow_retired)
        return prepared.scan(ctx)

    # ==================================================================
    # INSERT
    # ==================================================================
    def run_insert(
        self, prepared: PreparedDml, ctx: ExecutionContext, rows: list | None = None
    ) -> int:
        """Returns rows inserted.  ``rows``: an INSERT ... SELECT's rows,
        when the caller already ran ``prepared.query`` to count them."""
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        source_rows: Iterable[Sequence[Any]]
        if rows is not None:
            source_rows = rows
        elif prepared.query is not None:
            source_rows = prepared.query.run(ctx)
        else:
            params = ctx.params
            source_rows = (
                [fn((), params) for fn in row_fns] for row_fns in prepared.row_fns
            )
        return self._insert(
            table, prepared.build, prepared.duties, source_rows, ctx,
            prepared.on_conflict_skip,
        )

    def insert_rows(
        self,
        table: "Table",
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
        ctx: ExecutionContext,
        on_conflict_skip: bool = False,
    ) -> int:
        """Insert ``rows``, tuples of values in ``columns`` order, with
        every check a prepared INSERT runs.  Returns rows inserted."""
        return self._insert(
            table, table.schema.row_maker(columns), self._parent_duties(table),
            rows, ctx, on_conflict_skip,
        )

    def _insert(self, table: "Table", build, duties: list, rows, ctx, on_conflict_skip) -> int:
        """The one insert path: coercion and NOT NULL (``build``), FK
        parents, then CHECK and UNIQUE (via unique indexes) in
        ``physical_insert``."""
        name = table.schema.name
        ctx.lock_table(name, LockMode.IX)
        txn = ctx.txn
        if txn is not None:
            txn.lock_self()
        stamp = self._write_stamp(ctx)
        inserted = 0
        for values in rows:
            row = build(values)
            for _watch, check in duties:
                check(None, row, ctx)
            try:
                tid = table.physical_insert(row, stamp)
            except UniqueViolation:
                if on_conflict_skip:
                    continue
                raise
            if txn is not None:
                txn.record_insert(table, tid, row)
            ctx.fire_row_hooks(name, "INSERT", tid, None, row)
            inserted += 1
        if self.obs is not None:
            self.obs.add_rows("insert", inserted)
        return inserted

    # ==================================================================
    # UPDATE
    # ==================================================================
    def run_update(self, prepared: PreparedDml, ctx: ExecutionContext) -> int:
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        name = table.schema.name
        assignments = prepared.assignments
        check_not_null = prepared.check_not_null
        duties = prepared.duties
        params = ctx.params
        txn = ctx.txn
        stamp = self._write_stamp(ctx)
        updated = 0
        for tid, row in prepared.scan(ctx):
            new = list(row)
            for position, coerce, fn in assignments:
                new[position] = coerce(fn(row, params))
            new_row = tuple(new)
            check_not_null(new_row)
            for watch, check in duties:
                for position in watch:
                    if new_row[position] != row[position]:
                        check(row, new_row, ctx)
                        break
            old_row = table.physical_update(tid, new_row, stamp)
            if txn is not None:
                txn.record_update(table, tid, old_row, new_row)
            ctx.fire_row_hooks(name, "UPDATE", tid, old_row, new_row)
            updated += 1
        if self.obs is not None:
            self.obs.add_rows("update", updated)
        return updated

    # ==================================================================
    # DELETE
    # ==================================================================
    def run_delete(self, prepared: PreparedDml, ctx: ExecutionContext) -> int:
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        duties = prepared.duties
        deleted = 0
        for tid, row in prepared.scan(ctx):
            for _watch, check in duties:
                check(row, None, ctx)
            old_row = table.physical_delete(tid, self._write_stamp(ctx))
            if ctx.txn is not None:
                ctx.txn.record_delete(table, tid, old_row)
            ctx.fire_row_hooks(table.schema.name, "DELETE", tid, old_row, None)
            deleted += 1
        if self.obs is not None:
            self.obs.add_rows("delete", deleted)
        return deleted

    # ==================================================================
    # Foreign-key duties, resolved once per schema epoch (adding an FK,
    # index or table is DDL: it re-prepares).  A duty is ``(watch,
    # check)``, ``check(old, new, ctx)`` raising ForeignKeyViolation.  An
    # INSERT or DELETE (``assigned`` None) runs every duty; an UPDATE
    # owes those whose key meets ``assigned``, run if ``watch`` changed.
    # ==================================================================
    def _parent_duties(self, table: "Table", assigned: set[int] | None = None) -> list:
        """The row's FK keys must name existing parent rows."""
        schema = table.schema
        duties = []
        for fk in schema.foreign_keys:
            positions = [schema.column_index(c) for c in fk.columns]
            watch = () if assigned is None else tuple(set(positions) & assigned)
            if assigned is not None and not watch:
                continue
            message = (
                f"insert or update on table {schema.name!r} violates "
                f"foreign key constraint to {fk.ref_table!r}"
            )
            duties.append((watch, _fk_check(
                key_getter(positions), self._parent_probe(fk), True,
                message, fk.name or f"{schema.name}_fk_{fk.ref_table}",
            )))
        return duties

    def _parent_probe(self, fk: ForeignKey):
        """``exists(key, ctx)`` on ``fk``'s parent, resolved now — or,
        with no parent to resolve, per call, so the error surfaces only
        where a key needs the parent."""
        def resolve():
            parent = self.catalog.table_checked(fk.ref_table, allow_retired=True)
            ref_columns = fk.ref_columns
            if not ref_columns:
                if parent.schema.primary_key is None:
                    raise ExecutionError(
                        f"foreign key references table {fk.ref_table!r} which "
                        "has no primary key"
                    )
                ref_columns = parent.schema.primary_key.columns
            return _key_probe(parent, ref_columns)

        try:
            return resolve()
        except (ExecutionError, UnknownObjectError):
            return lambda key, ctx: resolve()(key, ctx)

    def _child_duties(self, table: "Table", assigned: set[int] | None = None) -> list:
        """RESTRICT: no child row may still reference the old key."""
        schema = table.schema
        pk = schema.primary_key.columns if schema.primary_key else ()
        duties = []
        for child in self.catalog.tables():
            for fk in child.schema.foreign_keys:
                ref_columns = fk.ref_columns or pk
                if fk.ref_table != schema.name or not ref_columns:
                    continue
                positions = [schema.column_index(c) for c in ref_columns]
                watch = () if assigned is None else tuple(set(positions) & assigned)
                if assigned is not None and not watch:
                    continue
                child_name = child.schema.name
                message = (
                    f"update or delete on table {schema.name!r} violates "
                    f"foreign key constraint on {child_name!r}"
                    if assigned is None else
                    f"update on table {schema.name!r} would orphan rows "
                    f"of {child_name!r}"
                )
                duties.append((watch, _fk_check(
                    key_getter(positions), _key_probe(child, fk.columns), False,
                    message, fk.name or f"{child_name}_fk_{schema.name}",
                )))
        return duties


_PREPARERS = {
    ast.Select: Executor._prepare_select,
    ast.Insert: Executor._prepare_insert,
    ast.Update: Executor._prepare_update,
    ast.Delete: Executor._prepare_delete,
}


def _fk_check(key_of, exists, parent: bool, message: str, constraint: str):
    """A parent duty's check raises unless ``new``'s key has its parent
    row; a child duty's if ``old``'s key still has a child row.  Keys
    with a NULL part pass."""
    def check(old: Row | None, new: Row | None, ctx: ExecutionContext) -> None:
        key = key_of(new if parent else old)
        if None not in key and exists(key, ctx) is not parent:
            detail = f" (key {key!r} is not present)" if parent else ""
            raise ForeignKeyViolation(message + detail, constraint=constraint)

    return check


def _key_probe(table: "Table", columns: tuple[str, ...]):
    """``exists(key, ctx)``: has ``table`` a row whose ``columns`` equal
    ``key``?  IS-locks the table; reads an index on them, else scans."""
    name = table.schema.name
    index = table.find_index(columns)
    if index is not None:
        order = [columns.index(c) for c in index.columns]

        def exists(key: tuple, ctx: ExecutionContext) -> bool:
            ctx.lock_table(name, LockMode.IS)
            return index.contains(tuple([key[i] for i in order]))

        return exists
    key_of = key_getter([table.schema.column_index(c) for c in columns])

    def scan(key: tuple, ctx: ExecutionContext) -> bool:
        ctx.lock_table(name, LockMode.IS)
        return any(key_of(row) == key for _tid, row in table.heap.scan())

    return scan


def _item_default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    return f"column{index + 1}"
