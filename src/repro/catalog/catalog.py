"""Runtime catalog: tables, views, and indexes.

A :class:`Table` binds a logical :class:`TableSchema` to physical
storage (heap + indexes) and compiled CHECK constraints.  The
:class:`Catalog` is the thread-safe name registry and carries the
BullFrog *logical schema switch*: tables can be marked retired so that
post-migration requests against the old schema are rejected
(:class:`repro.errors.SchemaVersionError`), while migration-internal
transactions may still read them.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..errors import (
    CheckViolation,
    DuplicateObjectError,
    ExecutionError,
    SchemaVersionError,
    UniqueViolation,
    UnknownObjectError,
)
from ..exec.expressions import RowLayout, compile_expr, key_getter
from ..sql import ast_nodes as ast
from ..storage.heap import HeapTable
from ..storage.index import HashIndex, Index, OrderedIndex, duplicate_key
from ..storage.version import BOOTSTRAP_STAMP, CommitStamp
from .schema import TableSchema

Row = tuple[Any, ...]


class Table:
    """A physical table: schema + heap + indexes + compiled checks."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.heap = HeapTable(schema.name)
        self.indexes: dict[str, Index] = {}
        self.retired = False
        self._compiled_checks: list[tuple[str, Any]] | None = None
        # (index, key getter) per index, rebuilt when an index or the
        # column layout changes: writes read keys with no lookups.
        self._keyed: list[tuple[Index, Callable[[Row], Row]]] = []
        # TIDs whose *older* versions are no longer reachable through
        # the indexes (versioned deletes, key-changing updates).  The
        # indexes track the current heads only; snapshot index scans add
        # these TIDs to their candidate set so a reader whose snapshot
        # predates the delete/key change still finds the row.  Trimmed
        # by :meth:`prune_tuple` / :meth:`prune_versions` once the chain
        # collapses.
        self._unindexed: set[int] = set()
        self._unindexed_latch = threading.Lock()
        self._auto_unique_indexes()

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def _auto_unique_indexes(self) -> None:
        """PostgreSQL materializes PK/UNIQUE constraints as unique B-tree
        indexes; we do the same (hash flavour) so enforcement is O(1)."""
        if self.schema.primary_key is not None:
            name = f"{self.schema.name}_pkey"
            self.add_index(name, self.schema.primary_key.columns, unique=True)
        for position, unique in enumerate(self.schema.uniques):
            name = unique.name or f"{self.schema.name}_unique_{position}"
            if name not in self.indexes:
                self.add_index(name, unique.columns, unique=True)

    def add_index(
        self,
        name: str,
        columns: tuple[str, ...],
        unique: bool = False,
        ordered: bool = False,
    ) -> Index:
        if name in self.indexes:
            raise DuplicateObjectError(f"index {name!r} already exists")
        for column in columns:
            self.schema.column(column)  # raises if unknown
        index: Index
        if ordered:
            index = OrderedIndex(name, self.schema.name, columns, unique)
        else:
            index = HashIndex(name, self.schema.name, columns, unique)
        # Build from existing rows.
        key_of = self.key_getter(index)
        for tid, row in self.heap.scan():
            index.insert(key_of(row), tid)
        self.indexes[name] = index
        self._rekey()
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise UnknownObjectError(f"index {name!r} does not exist")
        del self.indexes[name]
        self._rekey()

    def key_getter(self, index: Index) -> Callable[[Row], Row]:
        """``get(row)`` -> ``index``'s key of a stored row, for the
        current column layout."""
        return key_getter([self.schema.column_index(c) for c in index.columns])

    def _rekey(self) -> None:
        self._keyed = [(index, self.key_getter(index)) for index in self.indexes.values()]

    def invalidate_caches(self) -> None:
        """Rebuild derived per-schema state after an ALTER."""
        self._rekey()
        self._compiled_checks = None

    def find_index(self, columns: tuple[str, ...]) -> Index | None:
        """An index whose key is exactly ``columns`` (order-insensitive)."""
        wanted = frozenset(columns)
        for index in self.indexes.values():
            if frozenset(index.columns) == wanted:
                return index
        return None

    def find_equality_index(
        self, columns: frozenset[str]
    ) -> tuple[Index, tuple[str, ...]] | None:
        """Best index to serve equality bindings on ``columns``.

        Returns (index, usable_key_columns): the full key for an exact
        match, or the longest usable *leading prefix* of an ordered
        index (served via ``prefix_scan``).  Prefers full-key matches,
        then longer prefixes.
        """
        exact = max(
            (i for i in self.indexes.values() if frozenset(i.columns) <= columns),
            key=lambda index: len(index.columns),
            default=None,
        )
        if exact is not None:
            return exact, exact.columns
        best: tuple[Index, tuple[str, ...]] | None = None
        for index in self.indexes.values():
            if not isinstance(index, OrderedIndex):
                continue
            prefix: list[str] = []
            for column in index.columns:
                if column in columns:
                    prefix.append(column)
                else:
                    break
            if prefix and (best is None or len(prefix) > len(best[1])):
                best = (index, tuple(prefix))
        return best

    # ------------------------------------------------------------------
    # CHECK constraints
    # ------------------------------------------------------------------
    def _checks(self) -> list[tuple[str, Any]]:
        if self._compiled_checks is None:
            layout = RowLayout.for_table(self.schema.name, self.schema.column_names)
            compiled: list[tuple[str, Any]] = []
            for position, check in enumerate(self.schema.checks):
                name = check.name or f"{self.schema.name}_check_{position}"
                compiled.append((name, compile_expr(check.expr, layout)))
            self._compiled_checks = compiled
        return self._compiled_checks

    def enforce_checks(self, row: Row) -> None:
        """Raise CheckViolation unless every CHECK passes (NULL passes,
        per SQL semantics)."""
        for name, check in self._checks():
            value = check(row, ())
            if value is False:
                raise CheckViolation(
                    f"new row for table {self.schema.name} violates check "
                    f"constraint {name!r}",
                    constraint=name,
                )

    # ------------------------------------------------------------------
    # Physical mutation (constraint-checked; undo handled by caller)
    # ------------------------------------------------------------------
    def physical_insert(self, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> int:
        """Insert a coerced row; maintains all indexes.  Unique keys are
        probed first, so a rejected row takes no heap slot; if a racing
        insert wins a key after the probe, updated indexes are rolled
        back and the slot tombstoned before re-raising."""
        self.enforce_checks(row)
        keys = [(index, key_of(row)) for index, key_of in self._keyed]
        for index, key in keys:
            if index.unique and None not in key and index.contains(key):
                raise duplicate_key(index, key)
        tid = self.heap.insert(row, stamp)
        done = 0
        try:
            for index, key in keys:
                index.insert(key, tid)
                done += 1
        except UniqueViolation:
            for index, key in keys[:done]:
                index.delete(key, tid)
            self.heap.delete(tid, stamp)
            raise
        return tid

    def physical_update(
        self, tid: int, new_row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP
    ) -> Row:
        """Overwrite the row at ``tid``; returns the old row."""
        self.enforce_checks(new_row)
        old_row = self.heap.read(tid)
        if old_row is None:
            raise UnknownObjectError(f"tuple {tid} of {self.schema.name} is gone")
        changed: list[tuple[Index, tuple[Any, ...], tuple[Any, ...]]] = []
        for index, key_of in self._keyed:
            old_key = key_of(old_row)
            new_key = key_of(new_row)
            if old_key == new_key:
                continue
            index.delete(old_key, tid)
            try:
                index.insert(new_key, tid)
            except UniqueViolation:
                # Restore this index's old entry, then unwind the ones
                # already moved.
                index.insert(old_key, tid)
                for moved, moved_old, moved_new in changed:
                    moved.delete(moved_new, tid)
                    moved.insert(moved_old, tid)
                raise
            changed.append((index, old_key, new_key))
        self.heap.update(tid, new_row, stamp)
        if changed and stamp is not BOOTSTRAP_STAMP:
            self._note_unindexed(tid)
        return old_row

    def physical_delete(self, tid: int, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        old_row = self.heap.delete(tid, stamp)
        for index, key_of in self._keyed:
            index.delete(key_of(old_row), tid)
        if stamp is not BOOTSTRAP_STAMP:
            # Bootstrap deletes (loader, DDL) leave no older version
            # any snapshot could want; versioned deletes do.
            self._note_unindexed(tid)
        return old_row

    def physical_restore(
        self, tid: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP
    ) -> None:
        """Undo of a delete."""
        self.heap.restore(tid, row, stamp)
        for index, key_of in self._keyed:
            index.insert(key_of(row), tid)

    def physical_unindex(
        self, tid: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP
    ) -> None:
        """Undo of an insert: tombstone + remove index entries.  The
        aborted version was never visible to any snapshot, so it is not
        recorded as unindexed."""
        self.heap.delete(tid, stamp)
        for index, key_of in self._keyed:
            index.delete(key_of(row), tid)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def _note_unindexed(self, tid: int) -> None:
        with self._unindexed_latch:
            self._unindexed.add(tid)

    def unindexed_tids(self) -> tuple[int, ...]:
        """Candidate TIDs snapshot index scans must consider on top of
        the index entries (their visible versions may carry keys the
        index no longer maps)."""
        if not self._unindexed:
            return ()
        with self._unindexed_latch:
            return tuple(self._unindexed)

    def prune_tuple(self, tid: int, horizon_ts: int) -> None:
        """Commit-time version GC for one tuple its writer superseded:
        cut its chain below ``horizon_ts`` and, once the chain is a
        single version (the indexes already reflect that head), drop it
        from the unindexed TIDs."""
        self.heap.prune_tuple(tid, horizon_ts)
        if tid in self._unindexed and self.heap.read_version(tid).prev is None:
            with self._unindexed_latch:
                self._unindexed.discard(tid)

    def prune_versions(self, horizon_ts: int) -> int:
        """Bulk version GC for chains a snapshot held back: cut every
        heap chain below ``horizon_ts`` and drop unindexed-TID entries
        whose chain collapsed to a single version.  Returns versions
        unlinked."""
        pruned = self.heap.prune_versions(horizon_ts)
        with self._unindexed_latch:
            if self._unindexed:
                self._unindexed = {
                    tid
                    for tid in self._unindexed
                    if self.heap.read_version(tid).prev is not None
                }
        return pruned

    def __len__(self) -> int:
        return len(self.heap)


class View:
    """A named SELECT.  ``internal`` marks BullFrog's migration views,
    which are hidden from user-facing listing."""

    def __init__(self, name: str, query: ast.Select, internal: bool = False) -> None:
        self.name = name
        self.query = query
        self.internal = internal


class VirtualTable:
    """A read-only system view backed by a producer callable.

    ``producer(ctx)`` returns an iterable of row tuples snapshotting
    live engine state; ``types`` may contain ``None`` where no SQL type
    is declared.  Virtual tables live in their own namespace entry but
    collide with tables/views on name, like PostgreSQL's ``pg_catalog``
    relations do in practice.
    """

    def __init__(
        self,
        name: str,
        column_names: tuple[str, ...],
        types: tuple[Any, ...],
        producer: Any,
    ) -> None:
        self.name = name
        self.column_names = column_names
        self.types = types
        self.producer = producer


class Catalog:
    """Thread-safe name registry with retired-table tracking."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        self._virtual: dict[str, VirtualTable] = {}
        self._latch = threading.RLock()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        with self._latch:
            if (
                schema.name in self._tables
                or schema.name in self._views
                or schema.name in self._virtual
            ):
                if if_not_exists and schema.name in self._tables:
                    return self._tables[schema.name]
                raise DuplicateObjectError(
                    f"relation {schema.name!r} already exists"
                )
            table = Table(schema)
            self._tables[schema.name] = table
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._latch:
            if name not in self._tables:
                if if_exists:
                    return
                raise UnknownObjectError(f"table {name!r} does not exist")
            del self._tables[name]

    def rename_table(self, old: str, new: str) -> None:
        with self._latch:
            table = self.table(old)
            if new in self._tables or new in self._views or new in self._virtual:
                raise DuplicateObjectError(f"relation {new!r} already exists")
            table.schema = table.schema.with_name(new)
            table.heap.name = new
            del self._tables[old]
            self._tables[new] = table

    def table(self, name: str) -> Table:
        with self._latch:
            table = self._tables.get(name)
        if table is None:
            raise UnknownObjectError(f"table {name!r} does not exist")
        return table

    def table_checked(self, name: str, allow_retired: bool = False) -> Table:
        """Like :meth:`table` but rejects retired (old-schema) tables for
        ordinary requests — the paper's big-flip rejection.  Also the
        choke point that keeps DML off the virtual system views: every
        write path resolves its target here (the SELECT planner checks
        ``has_virtual`` *before* calling this)."""
        if self.has_virtual(name):
            raise ExecutionError(f"{name!r} is a read-only system view")
        table = self.table(name)
        if table.retired and not allow_retired:
            raise SchemaVersionError(
                f"table {name!r} belongs to a retired schema version; "
                "resubmit the request against the new schema"
            )
        return table

    def has_table(self, name: str) -> bool:
        with self._latch:
            return name in self._tables

    def tables(self, include_retired: bool = True) -> list[Table]:
        with self._latch:
            tables = list(self._tables.values())
        if include_retired:
            return tables
        return [t for t in tables if not t.retired]

    def retire_table(self, name: str) -> None:
        self.table(name).retired = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(
        self, name: str, query: ast.Select, internal: bool = False, or_replace: bool = False
    ) -> View:
        with self._latch:
            if name in self._tables or name in self._virtual:
                raise DuplicateObjectError(f"relation {name!r} already exists")
            if name in self._views and not or_replace:
                raise DuplicateObjectError(f"view {name!r} already exists")
            view = View(name, query, internal)
            self._views[name] = view
            return view

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        with self._latch:
            if name not in self._views:
                if if_exists:
                    return
                raise UnknownObjectError(f"view {name!r} does not exist")
            del self._views[name]

    def view(self, name: str) -> View:
        with self._latch:
            view = self._views.get(name)
        if view is None:
            raise UnknownObjectError(f"view {name!r} does not exist")
        return view

    def has_view(self, name: str) -> bool:
        with self._latch:
            return name in self._views

    def views(self) -> list[View]:
        with self._latch:
            return list(self._views.values())

    # ------------------------------------------------------------------
    # Virtual system views
    # ------------------------------------------------------------------
    def register_virtual(self, virtual: VirtualTable) -> VirtualTable:
        with self._latch:
            if (
                virtual.name in self._tables
                or virtual.name in self._views
            ):
                raise DuplicateObjectError(
                    f"relation {virtual.name!r} already exists"
                )
            self._virtual[virtual.name] = virtual
            return virtual

    def virtual_table(self, name: str) -> VirtualTable:
        with self._latch:
            virtual = self._virtual.get(name)
        if virtual is None:
            raise UnknownObjectError(f"system view {name!r} does not exist")
        return virtual

    def has_virtual(self, name: str) -> bool:
        with self._latch:
            return name in self._virtual

    # ------------------------------------------------------------------
    # Indexes (global namespace, PostgreSQL-style)
    # ------------------------------------------------------------------
    def create_index(
        self,
        name: str,
        table_name: str,
        columns: tuple[str, ...],
        unique: bool = False,
        ordered: bool = False,
    ) -> Index:
        with self._latch:
            for table in self._tables.values():
                if name in table.indexes:
                    raise DuplicateObjectError(f"index {name!r} already exists")
            return self.table(table_name).add_index(name, columns, unique, ordered)

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        with self._latch:
            for table in self._tables.values():
                if name in table.indexes:
                    table.drop_index(name)
                    return
        if not if_exists:
            raise UnknownObjectError(f"index {name!r} does not exist")
