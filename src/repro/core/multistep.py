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
from dataclasses import replace
from typing import Any

from ..db import Database, Session, Statement
from ..errors import MigrationStateError, UnsupportedMigrationError
from ..exec.plan import ExecutionContext
from ..sql import ast_nodes as ast
from .classify import UnitPlan
from .migration import MigrationSpec, parse_migration
from .production import Bound, Production, create_outputs, pin_key, split_key
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

    def advance(self, new_hwm: int) -> None:
        with self.latch:
            self.hwm = max(self.hwm, new_hwm)


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
        self._states: dict[str, Any] = {}  # _BitmapUnitState / _KeyedUnitState
        self._productions: dict[str, Production] = {}
        # (unit id, NULL pattern of the key) -> _build_key_deletes(...)
        self._deletes: dict[tuple[str, tuple[bool, ...]], list] = {}

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
        """Prepare everything the copier and the dual-write hooks need
        for ``unit``, once — nothing is planned per row or per write."""
        if unit.category.uses_bitmap:
            if unit.aux is not None:
                raise UnsupportedMigrationError(
                    "multi-step dual writes over FK-PK join migrations are not "
                    "supported; use the lazy or eager strategy"
                )
            self._states[unit.unit_id] = _BitmapUnitState()
        else:
            self._states[unit.unit_id] = _KeyedUnitState()
        self._productions[unit.unit_id] = Production(self.db, unit, on_conflict=True)
        self._key_deletes(unit)

    def _key_deletes(self, unit: UnitPlan, nulls: tuple[bool, ...] = ()) -> list:
        key = (unit.unit_id, nulls)
        if key not in self._deletes:
            self._deletes[key] = _build_key_deletes(self.db.catalog, unit, nulls)
        return self._deletes[key]

    # ==================================================================
    # Dual-write hooks (triggers)
    # ==================================================================
    def _install_hooks(self, unit: UnitPlan) -> None:
        production = self._productions[unit.unit_id]
        state = self._states[unit.unit_id]
        if unit.category.uses_bitmap:

            def bitmap_hook(ctx, op, tid, old_row, new_row, _unit=unit, _state=state):
                if self._complete_event.is_set():
                    return
                # Inserts are always dual-written (idempotent against the
                # copier via ON CONFLICT); updates/deletes dual-write only
                # for already-copied rows — uncopied rows are left for the
                # copier, which reads current data.  This gating is what
                # produces the paper's growing dual-write cost.  The old
                # version's outputs go by their unique key, copied from
                # ``old_row``; the new version is the row's TID range.
                if op == "INSERT" or _state.covered(tid):
                    self._dual_write(ctx, [
                        (delete, tuple(old_row[p] for p in positions))
                        for delete, positions in self._key_deletes(_unit)
                        if old_row is not None
                    ], production, production.ranges(
                        [] if new_row is None else [(tid, tid + 1)]
                    ))

            self.db.add_row_hook(unit.anchor, bitmap_hook)
        else:
            for table_name, _binding, key_columns in unit.key_sides:
                table = self.db.catalog.table(table_name)
                positions = [table.schema.column_index(c) for c in key_columns]

                def keyed_hook(
                    ctx, op, tid, old_row, new_row,
                    _unit=unit, _state=state, _positions=positions,
                ):
                    if self._complete_event.is_set():
                        return
                    keys = {
                        tuple(row[p] for p in _positions)
                        for row in (old_row, new_row) if row is not None
                    }
                    # Recompute each copied group: delete its output rows,
                    # then produce it again (with the client's change).
                    for key in keys:
                        if _state.wait_if_copying(key) == _COPIED:
                            nulls, values = split_key(key)
                            self._dual_write(ctx, [
                                (delete, values)
                                for delete, _positions in self._key_deletes(_unit, nulls)
                            ], production, production.keys([key]))

                self.db.add_row_hook(table_name, keyed_hook)

    def _dual_write(
        self, ctx: ExecutionContext, deletes: list, production: Production, bound: Bound
    ) -> None:
        """Run ``(DELETE, params)`` pairs, then produce ``bound``, in the
        client's transaction — its locks, stamp and undo, so the dual
        write commits or rolls back with it — reading current rows, not
        the client's snapshot: a dual write must see what the copier
        committed after that snapshot was taken."""
        db = self.db
        current = replace(
            ctx, allow_retired=True, snapshot_ts=None, own_stamp=None, overlay=None
        )
        for statement, current.params in deletes:
            db.executor.run_delete(statement.prepared(db, True), current)
        production.produce(bound, current)

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
        except BaseException:
            if session.in_transaction:
                session.rollback()
            raise

    def _copy(self, session: Session, production: Production, bounds: list) -> int:
        """One copy transaction: produce each of ``bounds`` in turn and
        commit.  If anything raises, :meth:`_copier` rolls it back."""
        session.begin()
        ctx = session._context()
        produced = sum(production.produce(bound, ctx)[0] for bound in bounds)
        session.commit()
        return produced

    def _copy_bitmap_unit(self, unit: UnitPlan, session: Session) -> None:
        state = self._states[unit.unit_id]
        production = self._productions[unit.unit_id]
        heap = self.db.catalog.table(unit.anchor).heap
        while not self._stop.is_set():
            start = state.hwm
            end = heap.max_ordinal
            if start >= end:
                return  # caught up; post-copy inserts are dual-written
            chunk_end = min(start + self.chunk, end)
            state.advance(chunk_end)  # advance BEFORE copying the chunk
            # Row at a time, not one TID range per chunk: each row is
            # inserted right after it is read, so a concurrent
            # dual-written DELETE has the narrowest window in which the
            # copier could re-insert the row it just removed.
            rows = [production.ranges([(tid, tid + 1)]) for tid in range(start, chunk_end)]
            copied = self._copy(session, production, rows)
            self.stats.add(granules=chunk_end - start, tuples=copied)
            if self.interval:
                time.sleep(self.interval)

    def _copy_keyed_unit(self, unit: UnitPlan, session: Session) -> None:
        state = self._states[unit.unit_id]
        production = self._productions[unit.unit_id]
        table = self.db.catalog.table(unit.anchor)
        heap = table.heap
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
                    try:
                        produced = self._copy(session, production, [production.keys([key])])
                    finally:
                        state.finish_copy(key)  # on failure too: no wedged waiters
                    self.stats.add(granules=1, tuples=produced)
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


def _build_key_deletes(catalog, unit: UnitPlan, nulls: tuple[bool, ...] = ()) -> list:
    """Per output of ``unit``: ``(DELETE, anchor_positions)`` — the
    DELETE of the output rows one anchor row or group key derived, by
    the output columns that copy anchor columns, whose positions in the
    anchor row give its parameters in order.  The key is the unit's
    group key for hashmap units and the output's first unique key for
    bitmap units; each of its columns must be a plain anchor column of
    the output, or the unit cannot be dual-written.  A key part
    ``nulls`` marks is pinned ``IS NULL``."""
    anchor = catalog.table(unit.anchor).schema
    deletes = []
    for output in unit.outputs:
        copies = [
            (name, item.name)
            for name, item in zip(output.column_names, output.items)
            if isinstance(item, ast.ColumnRef) and item.table == unit.anchor_binding
        ]
        if unit.category.uses_bitmap:
            keys = catalog.table(output.table).schema.unique_column_sets()
            if not keys:
                raise UnsupportedMigrationError(
                    f"multi-step migration requires a unique constraint "
                    f"on output table {output.table!r} (for idempotent "
                    "copy + dual writes)"
                )
            source = dict(copies)
            pairs = [(column, source.get(column)) for column in keys[0]]
        else:
            target = {column: name for name, column in reversed(copies)}
            pairs = [(target.get(column), column) for column in unit.key_columns]
        for name, column in pairs:
            if name is None or column is None:
                raise UnsupportedMigrationError(
                    f"multi-step migration needs output {output.table!r} to copy "
                    f"key column {name or column!r} straight from {unit.anchor!r}"
                )
        where = pin_key([ast.ColumnRef(name) for name, _c in pairs], nulls)
        deletes.append((
            Statement(ast.Delete(output.table, where)),
            [anchor.column_index(column) for _n, column in pairs],
        ))
    return deletes
