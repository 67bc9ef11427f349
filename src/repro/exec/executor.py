"""Statement execution: SELECT driving and constraint-checked DML.

The executor owns the write path: table IX + tuple X locking, FK
enforcement (both directions), undo/redo recording on the transaction.
It is deliberately independent of the SQL front end: ``prepare`` turns
a DML AST node into an artifact once, the ``run_*`` methods execute
that artifact with per-call parameters, and the BullFrog engine also
calls ``insert_rows`` directly when materializing migrated tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import (
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    SerializationFailure,
    UniqueViolation,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import: catalog depends on exec.expressions
    from ..catalog.catalog import Table

from ..catalog.constraints import ForeignKey
from ..sql import ast_nodes as ast
from ..storage.tid import Tid
from ..storage.version import BOOTSTRAP_STAMP
from ..txn.locks import LockMode
from .expressions import RowLayout, compile_expr, compile_projection
from .plan import AnalyzedNode, ExecutionContext, TableScan, instrument_plan
from .planner import PlannedQuery, Planner

Row = tuple[Any, ...]


@dataclass(slots=True)
class PreparedDml:
    """The executor's artifact for one DML statement shape: the target
    table's name, the compiled locked scan (or INSERT source) and every
    expression compiled once.  Executions bind parameters per call; the
    statement handle (:class:`repro.db.Statement`) keeps one per schema
    epoch and ``allow_retired`` flavour."""

    table: str
    # UPDATE / DELETE: ctx -> [(tid, row)] of X-locked qualifying
    # tuples; SELECT ... FOR UPDATE: ctx -> projected rows.
    scan: Any = None
    assignments: list | None = None  # UPDATE: [(position, fn)]
    names: list[str] | None = None  # FOR UPDATE output column names
    columns: Sequence[str] | None = None  # INSERT target columns
    row_fns: list | None = None  # INSERT ... VALUES: one fn list per row
    query: PlannedQuery | None = None  # INSERT ... SELECT source plan
    on_conflict_skip: bool = False


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
            columns=columns,
            on_conflict_skip=stmt.on_conflict_do_nothing,
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
        assignments = [
            (table.schema.column_index(column), compile_expr(expr, layout))
            for column, expr in stmt.assignments
        ]
        return PreparedDml(
            stmt.table, self._locked_scan(scan), assignments=assignments
        )

    def _prepare_delete(self, stmt: ast.Delete, allow_retired: bool) -> PreparedDml:
        scan = self.planner.plan_dml_scan(
            stmt.table, stmt.alias, stmt.where, allow_retired
        )
        return PreparedDml(stmt.table, self._locked_scan(scan))

    # ==================================================================
    # Snapshot-isolation write conflicts (first-updater-wins)
    # ==================================================================
    def _check_write_conflict(self, table: "Table", tid: Tid, ctx: ExecutionContext) -> None:
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
        ``(tid, row)`` pairs, or as ``project(row, params)`` rows."""
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
    def run_insert(self, prepared: PreparedDml, ctx: ExecutionContext) -> int:
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        source_rows: Iterable[Row]
        if prepared.query is not None:
            source_rows = prepared.query.run(ctx)
        else:
            params = ctx.params
            source_rows = (
                tuple(fn((), params) for fn in row_fns)
                for row_fns in prepared.row_fns
            )
        columns = prepared.columns
        value_dicts = (dict(zip(columns, row)) for row in source_rows)
        return self.insert_rows(
            table, value_dicts, ctx, on_conflict_skip=prepared.on_conflict_skip
        )

    def insert_rows(
        self,
        table: "Table",
        value_dicts: Iterable[dict[str, Any]],
        ctx: ExecutionContext,
        on_conflict_skip: bool = False,
    ) -> int:
        """Shared insert path: coercion, NOT NULL, CHECK, UNIQUE (via
        unique indexes), and FK-parent checks.  Returns rows inserted."""
        ctx.lock_table(table.schema.name, LockMode.IX)
        inserted = 0
        for values in value_dicts:
            row = table.schema.coerce_row(values)
            self._check_fk_parents(table, row, ctx)
            try:
                tid = table.physical_insert(row, self._write_stamp(ctx))
            except UniqueViolation:
                if on_conflict_skip:
                    continue
                raise
            if ctx.txn is not None:
                ctx.txn.record_insert(table, tid, row)
            ctx.fire_row_hooks(table.schema.name, "INSERT", tid, None, row)
            inserted += 1
        if self.obs is not None:
            self.obs.add_rows("insert", inserted)
        return inserted

    # ==================================================================
    # UPDATE
    # ==================================================================
    def run_update(self, prepared: PreparedDml, ctx: ExecutionContext) -> int:
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        assignments = prepared.assignments
        updated = 0
        for tid, row in prepared.scan(ctx):
            new_row = list(row)
            for position, fn in assignments:
                new_row[position] = table.schema.columns[position].coerce(
                    fn(row, ctx.params)
                )
            self._check_not_null(table, new_row)
            new_tuple = tuple(new_row)
            changed_positions = {
                position for position, _fn in assignments
                if new_tuple[position] != row[position]
            }
            if changed_positions:
                self._check_fk_parents(
                    table, new_tuple, ctx, only_positions=changed_positions
                )
                self._check_fk_children_on_change(
                    table, row, new_tuple, changed_positions, ctx
                )
            old_row = table.physical_update(tid, new_tuple, self._write_stamp(ctx))
            if ctx.txn is not None:
                ctx.txn.record_update(table, tid, old_row, new_tuple)
            ctx.fire_row_hooks(table.schema.name, "UPDATE", tid, old_row, new_tuple)
            updated += 1
        if self.obs is not None:
            self.obs.add_rows("update", updated)
        return updated

    # ==================================================================
    # DELETE
    # ==================================================================
    def run_delete(self, prepared: PreparedDml, ctx: ExecutionContext) -> int:
        table = self.catalog.table_checked(prepared.table, ctx.allow_retired)
        deleted = 0
        for tid, row in prepared.scan(ctx):
            self._check_no_fk_children(table, row, ctx)
            old_row = table.physical_delete(tid, self._write_stamp(ctx))
            if ctx.txn is not None:
                ctx.txn.record_delete(table, tid, old_row)
            ctx.fire_row_hooks(table.schema.name, "DELETE", tid, old_row, None)
            deleted += 1
        if self.obs is not None:
            self.obs.add_rows("delete", deleted)
        return deleted

    # ==================================================================
    # Constraint helpers
    # ==================================================================
    def _check_not_null(self, table: "Table", row: Sequence[Any]) -> None:
        pk_columns = (
            set(table.schema.primary_key.columns)
            if table.schema.primary_key
            else set()
        )
        for position, column in enumerate(table.schema.columns):
            if row[position] is None and (column.not_null or column.name in pk_columns):
                raise NotNullViolation(
                    f"null value in column {column.name!r} of table "
                    f"{table.schema.name} violates not-null constraint",
                    constraint=f"{table.schema.name}_{column.name}_not_null",
                )

    def _check_fk_parents(
        self,
        table: "Table",
        row: Row,
        ctx: ExecutionContext,
        only_positions: set[int] | None = None,
    ) -> None:
        """Every FK of ``table``: the referenced parent row must exist.
        SQL semantics: a FK with any NULL component passes."""
        for fk in table.schema.foreign_keys:
            positions = [table.schema.column_index(c) for c in fk.columns]
            if only_positions is not None and not (
                set(positions) & only_positions
            ):
                continue
            key = tuple(row[p] for p in positions)
            if any(part is None for part in key):
                continue
            if not self._parent_exists(fk, key, ctx):
                raise ForeignKeyViolation(
                    f"insert or update on table {table.schema.name!r} "
                    f"violates foreign key constraint to {fk.ref_table!r} "
                    f"(key {key!r} is not present)",
                    constraint=fk.name or f"{table.schema.name}_fk_{fk.ref_table}",
                )

    def _parent_exists(self, fk: ForeignKey, key: tuple, ctx: ExecutionContext) -> bool:
        parent = self.catalog.table_checked(fk.ref_table, allow_retired=True)
        ref_columns = fk.ref_columns
        if not ref_columns:
            if parent.schema.primary_key is None:
                raise ExecutionError(
                    f"foreign key references table {fk.ref_table!r} which "
                    "has no primary key"
                )
            ref_columns = parent.schema.primary_key.columns
        ctx.lock_table(parent.schema.name, LockMode.IS)
        index = parent.find_index(ref_columns)
        if index is not None:
            ordered_key = _reorder_key(fk, ref_columns, index.columns, key)
            return index.contains(ordered_key)
        positions = [parent.schema.column_index(c) for c in ref_columns]
        for _tid, row in parent.heap.scan():
            if tuple(row[p] for p in positions) == key:
                return True
        return False

    def _referencing_fks(self, table_name: str) -> list[tuple[Table, ForeignKey]]:
        refs: list[tuple[Table, ForeignKey]] = []
        for child in self.catalog.tables():
            for fk in child.schema.foreign_keys:
                if fk.ref_table == table_name:
                    refs.append((child, fk))
        return refs

    def _check_no_fk_children(self, table: "Table", row: Row, ctx: ExecutionContext) -> None:
        """RESTRICT semantics on delete: no child row may reference the
        row being deleted."""
        for child, fk in self._referencing_fks(table.schema.name):
            ref_columns = fk.ref_columns or (
                table.schema.primary_key.columns if table.schema.primary_key else ()
            )
            if not ref_columns:
                continue
            parent_key = tuple(
                row[table.schema.column_index(c)] for c in ref_columns
            )
            if any(part is None for part in parent_key):
                continue
            if self._child_exists(child, fk, ref_columns, parent_key, ctx):
                raise ForeignKeyViolation(
                    f"update or delete on table {table.schema.name!r} "
                    f"violates foreign key constraint on {child.schema.name!r}",
                    constraint=fk.name or f"{child.schema.name}_fk_{table.schema.name}",
                )

    def _check_fk_children_on_change(
        self,
        table: "Table",
        old_row: Row,
        new_row: Row,
        changed_positions: set[int],
        ctx: ExecutionContext,
    ) -> None:
        """If an UPDATE changes referenced key columns, enforce RESTRICT."""
        for child, fk in self._referencing_fks(table.schema.name):
            ref_columns = fk.ref_columns or (
                table.schema.primary_key.columns if table.schema.primary_key else ()
            )
            positions = [table.schema.column_index(c) for c in ref_columns]
            if not (set(positions) & changed_positions):
                continue
            parent_key = tuple(old_row[p] for p in positions)
            if any(part is None for part in parent_key):
                continue
            if self._child_exists(child, fk, ref_columns, parent_key, ctx):
                raise ForeignKeyViolation(
                    f"update on table {table.schema.name!r} would orphan "
                    f"rows of {child.schema.name!r}",
                    constraint=fk.name or f"{child.schema.name}_fk_{table.schema.name}",
                )

    def _child_exists(
        self,
        child: "Table",
        fk: ForeignKey,
        ref_columns: tuple[str, ...],
        parent_key: tuple,
        ctx: ExecutionContext,
    ) -> bool:
        ctx.lock_table(child.schema.name, LockMode.IS)
        index = child.find_index(fk.columns)
        if index is not None:
            # Align parent key order with the child's FK column order.
            by_ref = dict(zip(ref_columns, parent_key))
            ordered = tuple(
                by_ref[ref_columns[fk.columns.index(c)]] for c in index.columns
            )
            return index.contains(ordered)
        positions = [child.schema.column_index(c) for c in fk.columns]
        for _tid, row in child.heap.scan():
            if tuple(row[p] for p in positions) == parent_key:
                return True
        return False


_PREPARERS = {
    ast.Select: Executor._prepare_select,
    ast.Insert: Executor._prepare_insert,
    ast.Update: Executor._prepare_update,
    ast.Delete: Executor._prepare_delete,
}


def _reorder_key(
    fk: ForeignKey,
    ref_columns: tuple[str, ...],
    index_columns: tuple[str, ...],
    key: tuple,
) -> tuple:
    """FK key values arrive in ``fk.columns`` order mapped onto
    ``ref_columns``; the index may declare its columns in a different
    order."""
    by_column = dict(zip(ref_columns, key))
    return tuple(by_column[c] for c in index_columns)


def _item_default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    return f"column{index + 1}"
