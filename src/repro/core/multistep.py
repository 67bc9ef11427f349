"""Multi-step migration baseline (paper section 4).

"a schema change is registered with the system ahead of time, and the
system copies data into the new schema in a background process.  Reads
are served from the old schema, while writes go to both schemas."

Mechanics (mirroring Percona/gh-ost-style tools, but trigger-based):

* shadow output tables are created immediately, but the old schema
  stays active — clients keep issuing old-schema transactions;
* a background copier walks the input tables, materializing output
  rows; a high-water mark (bitmap-shaped units) or per-group copy state
  (hashmap-shaped units) tracks progress;
* row-level hooks (triggers) on the input tables dual-write client
  changes into the shadow tables, **but only for already-copied data**
  — this is exactly why the paper observes multi-step throughput
  degrading as migration progresses: "as the migration continues, a
  larger percentage of data has been migrated ... any updates to
  migrated data must happen twice";
* when the copier catches up, the old tables are retired (the brief
  lock-and-rename switch of the real tools) and the new schema becomes
  the only one.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..db import Database, Session
from ..errors import MigrationStateError, UnsupportedMigrationError
from ..exec.plan import ExecutionContext
from ..sql import ast_nodes as ast
from .classify import UnitPlan
from .migration import MigrationSpec, parse_migration
from .production import RowProjection, create_outputs, insert_select
from .stats import MigrationStats

_NOT_COPIED, _COPYING, _COPIED = 0, 1, 2


class _BitmapUnitState:
    """Copy progress for 1:1 / 1:n units: a high-water mark over anchor
    tuple ordinals.  The mark is advanced *before* a chunk is copied so
    dual-writes and the copier can never both miss a change."""

    def __init__(self) -> None:
        self.hwm = 0
        self.latch = threading.Lock()

    def covered(self, ordinal: int) -> bool:
        with self.latch:
            return ordinal < self.hwm

    def advance(self, new_hwm: int) -> int:
        with self.latch:
            old = self.hwm
            self.hwm = max(self.hwm, new_hwm)
            return old


class _KeyedUnitState:
    """Copy progress for n:1 / n:n units: per-group-key states with a
    condition so dual-writers wait out an in-flight copy of their group."""

    def __init__(self) -> None:
        self.states: dict[tuple, int] = {}
        self.condition = threading.Condition()

    def begin_copy(self, key: tuple) -> bool:
        with self.condition:
            if self.states.get(key, _NOT_COPIED) != _NOT_COPIED:
                return False
            self.states[key] = _COPYING
            return True

    def finish_copy(self, key: tuple) -> None:
        with self.condition:
            self.states[key] = _COPIED
            self.condition.notify_all()

    def wait_if_copying(self, key: tuple, timeout: float = 5.0) -> int:
        deadline = time.monotonic() + timeout
        with self.condition:
            while self.states.get(key, _NOT_COPIED) == _COPYING:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.condition.wait(remaining)
            return self.states.get(key, _NOT_COPIED)


class MultiStepMigration:
    """Shadow-table migration with background copy + dual writes."""

    def __init__(
        self,
        db: Database,
        chunk: int = 256,
        interval: float = 0.002,
        big_flip: bool = True,
    ) -> None:
        self.db = db
        self.big_flip = big_flip
        self.chunk = chunk
        self.interval = interval
        self.spec: MigrationSpec | None = None
        self.stats = MigrationStats()
        self._complete_event = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._bitmap_states: dict[str, _BitmapUnitState] = {}
        self._keyed_states: dict[str, _KeyedUnitState] = {}
        self._projections: dict[str, RowProjection] = {}  # bitmap units
        self._unit_sql: dict[str, dict[str, Any]] = {}  # keyed units

    # ==================================================================
    # Submission
    # ==================================================================
    def submit(self, migration_id: str, ddl: str) -> "MultiStepMigration":
        if self.spec is not None:
            raise MigrationStateError("this multi-step migration already ran")
        spec = parse_migration(migration_id, ddl, self.db.catalog)
        self.spec = spec
        self.stats.mark_started()
        self.stats.mark_background_started()  # copier starts immediately

        # Create the shadow output tables + indexes.
        create_outputs(self.db, spec)
        self.db.bump_epoch()

        for unit in spec.units:
            self._prepare_unit(unit)

        # Install the dual-write triggers, then start the copier.
        for unit in spec.units:
            self._install_hooks(unit)
        self._thread = threading.Thread(
            target=self._copier, name="multistep-copier", daemon=True
        )
        self._thread.start()
        return self

    # ------------------------------------------------------------------
    def _prepare_unit(self, unit: UnitPlan) -> None:
        """Compile everything the copier and the dual-write hooks need
        for ``unit``, once — nothing is compiled per row or per write."""
        if unit.category.uses_bitmap:
            if unit.aux is not None:
                raise UnsupportedMigrationError(
                    "multi-step dual writes over FK-PK join migrations are not "
                    "supported; use the lazy or eager strategy"
                )
            self._bitmap_states[unit.unit_id] = _BitmapUnitState()
            for output in unit.outputs:
                table = self.db.catalog.table(output.table)
                if not table.schema.unique_column_sets():
                    raise UnsupportedMigrationError(
                        f"multi-step migration requires a unique constraint "
                        f"on output table {output.table!r} (for idempotent "
                        "copy + dual writes)"
                    )
            self._projections[unit.unit_id] = RowProjection(self.db.catalog, unit)
        else:
            self._keyed_states[unit.unit_id] = _KeyedUnitState()
            # Per-key INSERT..SELECT (recompute) and DELETE statements.
            inserts = [
                insert_select(unit, output, pin_key=True, on_conflict=True)
                for output in unit.outputs
            ]
            self._unit_sql[unit.unit_id] = {
                "key_inserts": [insert_sql for insert_sql, _select, _n in inserts],
                "param_copies": inserts[0][2],
                "key_deletes": _build_key_deletes(unit),
            }

    # ==================================================================
    # Dual-write hooks (triggers)
    # ==================================================================
    def _install_hooks(self, unit: UnitPlan) -> None:
        if unit.category.uses_bitmap:
            anchor = unit.anchor
            heap = self.db.catalog.table(anchor).heap
            state = self._bitmap_states[unit.unit_id]

            def bitmap_hook(ctx, op, tid, old_row, new_row, _unit=unit, _state=state, _heap=heap):
                if self._complete_event.is_set():
                    return
                # Inserts are always dual-written (idempotent against the
                # copier via ON CONFLICT); updates/deletes dual-write only
                # for already-copied rows — uncopied rows are left for the
                # copier, which reads current data.  This gating is what
                # produces the paper's growing dual-write cost.
                if op == "INSERT" or _state.covered(_heap.ordinal(tid)):
                    self._apply_bitmap_change(ctx, _unit, op, old_row, new_row)

            self.db.add_row_hook(anchor, bitmap_hook)
        else:
            state = self._keyed_states[unit.unit_id]
            for table_name, _binding, key_columns in unit.key_sides:
                table = self.db.catalog.table(table_name)
                positions = [table.schema.column_index(c) for c in key_columns]

                def keyed_hook(
                    ctx, op, tid, old_row, new_row,
                    _unit=unit, _state=state, _positions=positions,
                ):
                    if self._complete_event.is_set():
                        return
                    keys = set()
                    for row in (old_row, new_row):
                        if row is not None:
                            keys.add(tuple(row[p] for p in _positions))
                    for key in keys:
                        if _state.wait_if_copying(key) == _COPIED:
                            self._recompute_group(ctx, _unit, key)

                self.db.add_row_hook(table_name, keyed_hook)

    def _apply_bitmap_change(
        self, ctx: ExecutionContext, unit: UnitPlan, op: str, old_row, new_row
    ) -> None:
        """Dual-write one anchor-row change into the shadow outputs:
        delete the outputs derived from the old version (by unique key),
        insert the outputs derived from the new version."""
        projection = self._projections[unit.unit_id]
        if old_row is not None:
            for values in projection.project([old_row]):
                for output, row_values in zip(projection.outputs, values):
                    self._delete_by_key(ctx, output.table, row_values)
        if new_row is not None:
            projection.insert_projected(
                [new_row], self.db.executor, ctx, on_conflict=True
            )

    def _delete_by_key(self, ctx, out_table, values) -> None:
        unique_set = out_table.schema.unique_column_sets()[0]
        key = tuple(values[c] for c in unique_set)
        index = out_table.find_index(tuple(unique_set))
        tids = index.lookup(key) if index is not None else []
        for tid in tids:
            row = out_table.heap.read(tid)
            if row is None:
                continue
            if ctx.txn is not None:
                from ..txn.locks import LockMode

                ctx.txn.lock_tuple(out_table.schema.name, tid, LockMode.X)
            row = out_table.heap.read(tid)
            if row is None:
                continue
            old = out_table.physical_delete(tid)
            if ctx.txn is not None:
                ctx.txn.record_delete(out_table, tid, old)

    def _recompute_group(self, ctx: ExecutionContext, unit: UnitPlan, key: tuple) -> None:
        """Delete + re-materialize one group's output rows inside the
        client's transaction (sees the client's own in-flight change)."""
        sql = self._unit_sql[unit.unit_id]
        session = Session(self.db, allow_retired=True)
        session.internal = True
        session._txn = ctx.txn  # join the client's transaction
        for delete_sql in sql["key_deletes"]:
            session.execute(delete_sql, key)
        params = tuple(key) * sql["param_copies"]
        for insert_sql in sql["key_inserts"]:
            session.execute(insert_sql, params)
        session._txn = None

    # ==================================================================
    # Background copier
    # ==================================================================
    def _copier(self) -> None:
        assert self.spec is not None
        session = self.db.connect(allow_retired=True)
        session.internal = True
        try:
            for unit in self.spec.units:
                if self._stop.is_set():
                    return
                if unit.category.uses_bitmap:
                    self._copy_bitmap_unit(unit, session)
                else:
                    self._copy_keyed_unit(unit, session)
            if not self._stop.is_set():
                self._switch_over()
        except Exception:
            if session.in_transaction:
                session.rollback()
            raise

    def _copy_bitmap_unit(self, unit: UnitPlan, session: Session) -> None:
        state = self._bitmap_states[unit.unit_id]
        projection = self._projections[unit.unit_id]
        heap = self.db.catalog.table(unit.anchor).heap
        executor = self.db.executor
        while not self._stop.is_set():
            start = state.hwm
            end = heap.max_ordinal
            if start >= end:
                return  # caught up; post-copy inserts are dual-written
            chunk_end = min(start + self.chunk, end)
            state.advance(chunk_end)  # advance BEFORE copying the chunk
            session.begin()
            try:
                # Row at a time, not one batch per chunk: each row is
                # inserted right after it is read, so a concurrent
                # dual-written DELETE has the narrowest window in which
                # the copier could re-insert the row it just removed.
                ctx = session._context()
                copied = 0
                for values in projection.project(
                    row for _tid, row in heap.scan_range(start, chunk_end)
                ):
                    for output, row_values in zip(projection.outputs, values):
                        executor.insert_rows(
                            output.table, [row_values], ctx, on_conflict_skip=True
                        )
                    copied += 1
                session.commit()
                self.stats.add(granules=chunk_end - start, tuples=copied)
            except BaseException:
                if session.in_transaction:
                    session.rollback()
                raise
            if self.interval:
                time.sleep(self.interval)

    def _copy_keyed_unit(self, unit: UnitPlan, session: Session) -> None:
        state = self._keyed_states[unit.unit_id]
        sql = self._unit_sql[unit.unit_id]
        heap = self.db.catalog.table(unit.anchor).heap
        table = self.db.catalog.table(unit.anchor)
        positions = [table.schema.column_index(c) for c in unit.key_columns]
        while not self._stop.is_set():
            progressed = False
            start = 0
            max_ordinal = heap.max_ordinal
            while start < max_ordinal and not self._stop.is_set():
                keys: set[tuple] = set()
                for _tid, row in heap.scan_range(start, start + self.chunk):
                    keys.add(tuple(row[p] for p in positions))
                for key in keys:
                    if not state.begin_copy(key):
                        continue
                    progressed = True
                    session.begin()
                    try:
                        params = tuple(key) * sql["param_copies"]
                        produced = 0
                        for insert_sql in sql["key_inserts"]:
                            produced += session.execute(insert_sql, params).rowcount
                        session.commit()
                        self.stats.add(granules=1, tuples=produced)
                    except BaseException:
                        if session.in_transaction:
                            session.rollback()
                        state.finish_copy(key)  # avoid wedging waiters
                        raise
                    state.finish_copy(key)
                start += self.chunk
                if self.interval:
                    time.sleep(self.interval)
            if not progressed:
                return  # full pass with nothing new: unit is copied

    # ==================================================================
    # Switch-over
    # ==================================================================
    def _switch_over(self) -> None:
        """The real tools briefly lock + rename; here: retire the old
        tables and drop the triggers — new schema becomes the only one."""
        assert self.spec is not None
        for table_name in self.spec.input_tables:
            self.db.remove_row_hooks(table_name)
        if self.big_flip:
            for table_name in self.spec.input_tables:
                self.db.catalog.retire_table(table_name)
        self.db.bump_epoch()
        self.stats.mark_completed()
        self._complete_event.set()

    # ==================================================================
    # Status
    # ==================================================================
    @property
    def is_complete(self) -> bool:
        return self._complete_event.is_set()

    def await_completion(self, timeout: float | None = None) -> bool:
        return self._complete_event.wait(timeout)

    def stop(self) -> None:
        """Stop the copier and drop the dual-write hooks (teardown)."""
        self._stop.set()
        if self.spec is not None:
            for table_name in self.spec.input_tables:
                self.db.remove_row_hooks(table_name)

    def progress(self) -> dict[str, Any]:
        return {
            "migration": self.spec.migration_id if self.spec else None,
            "complete": self.is_complete,
            "granules_copied": self.stats.granules_migrated,
            "tuples_copied": self.stats.tuples_migrated,
        }


def _build_key_deletes(unit: UnitPlan) -> list[str]:
    """Per-key DELETE statements on the outputs of a hashmap unit: the
    output columns corresponding to the unit's anchor-side key."""
    statements: list[str] = []
    for output in unit.outputs:
        out_key_cols: list[str] = []
        for key_column in unit.key_columns:
            match = None
            for name, item in zip(output.column_names, output.items):
                if (
                    isinstance(item, ast.ColumnRef)
                    and item.name == key_column
                    and item.table == unit.anchor_binding
                ):
                    match = name
                    break
            if match is None:
                raise UnsupportedMigrationError(
                    f"multi-step migration needs output {output.table!r} to "
                    f"expose key column {key_column!r} for group recompute"
                )
            out_key_cols.append(match)
        where = " AND ".join(f"{c} = ?" for c in out_key_cols)
        statements.append(f"DELETE FROM {output.table} WHERE {where}")
    return statements
