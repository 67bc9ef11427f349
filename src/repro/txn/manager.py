"""Transactions: strict 2PL + undo-based abort + redo logging.

A :class:`Transaction` tracks held locks, an undo list of physical
inverse actions, and buffered redo records; COMMIT releases locks after
appending the redo batch, ABORT applies undo in reverse then runs the
registered abort hooks — which is where BullFrog resets the lock bits of
its in-progress migration granules (paper section 3.5).
"""

from __future__ import annotations

import itertools
import threading
from enum import Enum
from typing import Any, Callable, Hashable

from ..errors import TransactionAborted, TransactionError
from ..storage.tid import Tid
from ..storage.version import CommitStamp
from .locks import DeadlockPolicy, LockManager, LockMode
from .wal import LogOp, RedoLog

Row = tuple[Any, ...]


class TxnState(Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


class IsolationLevel(Enum):
    """Isolation modes offered by :meth:`TransactionManager.begin`.

    READ_COMMITTED is the pre-MVCC behavior: strict 2PL with short read
    locks.  SNAPSHOT reads a consistent version-chain snapshot taken at
    ``begin`` without read locks; writes still take 2PL write locks and
    conflict first-committer-wins (SQLSTATE 40001 on loss).
    """

    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"

    @classmethod
    def coerce(cls, value: "IsolationLevel | str | None") -> "IsolationLevel | None":
        if value is None or isinstance(value, cls):
            return value
        name = str(value).strip().lower().replace("-", "_")
        if name in ("snapshot", "si", "snapshot_isolation"):
            return cls.SNAPSHOT
        if name in ("read_committed", "2pl", "default"):
            return cls.READ_COMMITTED
        raise ValueError(f"unknown isolation level: {value!r}")


class Transaction:
    """One transaction.  Not thread-safe: a transaction belongs to the
    single worker driving it (workers cooperate through the shared lock
    manager and BullFrog's shared trackers, not by sharing transactions).
    """

    def __init__(
        self,
        txn_id: int,
        manager: "TransactionManager",
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
    ) -> None:
        self.id = txn_id
        self.state = TxnState.ACTIVE
        self.isolation = isolation
        #: Snapshot timestamp (SNAPSHOT isolation only, set by
        #: ``TransactionManager.begin``): this txn sees exactly the
        #: versions committed at or before this timestamp, plus its own
        #: writes.
        self.snapshot_ts: int | None = None
        #: Shared mutable stamp carried by every version this txn
        #: writes; commit assigns its timestamp once (publishing all of
        #: them atomically), abort marks it aborted.
        self.stamp = CommitStamp(txn_id=txn_id)
        self._manager = manager
        self._locks: list[Hashable] = []
        self._undo: list[Callable[[], None]] = []
        self._redo: list[tuple[LogOp, Any]] = []
        self._commit_hooks: list[Callable[[], None]] = []
        self._abort_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # State guards
    # ------------------------------------------------------------------
    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionAborted(
                f"transaction {self.id} is {self.state.value} and cannot be used"
            )

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def lock_table(self, table_name: str, mode: LockMode) -> None:
        self._check_active()
        resource = ("table", table_name)
        try:
            if self._manager.locks.acquire(self.id, resource, mode):
                self._locks.append(resource)
        except TransactionAborted:
            self.abort()
            raise

    def lock_tuple(self, table_name: str, tid: Tid, mode: LockMode) -> None:
        self._check_active()
        resource = ("tuple", table_name, tid)
        try:
            if self._manager.locks.acquire(self.id, resource, mode):
                self._locks.append(resource)
        except TransactionAborted:
            self.abort()
            raise

    # ------------------------------------------------------------------
    # Undo / redo recording (called by the DML executor)
    # ------------------------------------------------------------------
    def record_insert(self, table, tid: Tid, row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_unindex(tid, row, stamp=stamp))
        self._redo.append((LogOp.INSERT, (table.schema.name, tid, row)))

    def record_update(self, table, tid: Tid, old_row: Row, new_row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_update(tid, old_row, stamp=stamp))
        self._redo.append((LogOp.UPDATE, (table.schema.name, tid, new_row)))

    def record_delete(self, table, tid: Tid, old_row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_restore(tid, old_row, stamp=stamp))
        self._redo.append((LogOp.DELETE, (table.schema.name, tid, old_row)))

    def record_migration(self, migration_id: str, input_table: str, granules: tuple) -> None:
        """BullFrog: log which granules this txn migrated so recovery can
        rebuild the tracker (paper section 3.5)."""
        self._check_active()
        self._redo.append((LogOp.MIGRATE, (migration_id, input_table, granules)))

    def add_undo(self, action: Callable[[], None]) -> None:
        """Register an arbitrary physical inverse action (DDL paths)."""
        self._check_active()
        self._undo.append(action)

    def on_commit(self, hook: Callable[[], None]) -> None:
        self._check_active()
        self._commit_hooks.append(hook)

    def on_abort(self, hook: Callable[[], None]) -> None:
        self._check_active()
        self._abort_hooks.append(hook)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def commit(self) -> None:
        self._check_active()
        faults = self._manager.faults
        obs = self._manager.obs
        if obs is not None and obs.active:
            if obs.tracing_enabled and self._redo:
                # Read-only commits stay instant-free: the statement
                # span already bounds them, and one instant per
                # autocommit SELECT was a top line item in the <5%
                # tracing budget.  Write commits keep the instant (it
                # carries the redo size next to the wal.append span).
                obs.emit("txn.commit", txn_id=self.id, records=len(self._redo))
            else:
                obs.inc_txn_commit()
        try:
            if faults is not None and "txn.commit" in faults.watching:
                faults.fire("txn.commit", txn_id=self.id)
            if self._redo:
                self._manager.wal.append_batch(self.id, self._redo)
        except TransactionAborted:
            # An abort surfacing inside commit (fault injection, a
            # conflict at flush time) must not leave the transaction
            # ACTIVE with its locks held: roll back fully, then let the
            # caller see the abort.
            self.abort()
            raise
        if self._undo or self._redo:
            # Assign the commit timestamp while still holding write
            # locks: every version this txn wrote becomes visible to
            # future snapshots in one latched store.
            self._manager._assign_commit_ts(self.stamp)
        self.state = TxnState.COMMITTED
        self._release_locks()
        hooks, self._commit_hooks = self._commit_hooks, []
        for hook in hooks:
            hook()
        self._manager._finished(self)

    def abort(self) -> None:
        if self.state is TxnState.ABORTED:
            return
        if self.state is TxnState.COMMITTED:
            raise TransactionError(f"transaction {self.id} already committed")
        # Mark the stamp first: versions this txn wrote are permanently
        # invisible to snapshots (its ts is never assigned), and GC can
        # unlink them.
        self.stamp.aborted = True
        # Apply undo in reverse order (standard ARIES-style rollback).
        for action in reversed(self._undo):
            action()
        faults = self._manager.faults
        obs = self._manager.obs
        if obs is not None and obs.active:
            obs.emit("txn.abort", txn_id=self.id)
        if faults is not None and "txn.abort" in faults.watching:
            # Latency/callback only — FaultRule rejects raising actions
            # at txn.abort (an abort must not itself fail).
            faults.fire("txn.abort", txn_id=self.id)
        self._manager.wal.append_abort(self.id)
        self.state = TxnState.ABORTED
        self._release_locks()
        hooks, self._abort_hooks = self._abort_hooks, []
        # Abort hooks run AFTER the underlying undo completed — the
        # ordering the paper requires: "after the standard database
        # system code is run to handle the abort, BullFrog must inject
        # additional code that traverses the aborted worker's WIP list".
        for hook in hooks:
            hook()
        self._manager._finished(self)

    def _release_locks(self) -> None:
        self._manager.locks.release_all(self.id, self._locks)
        self._locks.clear()
        self._undo.clear()
        self._redo.clear()

    # Context-manager sugar: commits on success, aborts on exception.
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.is_active:
                self.commit()
        else:
            if self.is_active:
                self.abort()
        return False


class TransactionManager:
    """Issues transaction ids and owns the shared lock manager + WAL."""

    def __init__(
        self,
        lock_timeout: float = 10.0,
        deadlock_policy: DeadlockPolicy = DeadlockPolicy.DETECT,
    ) -> None:
        self.locks = LockManager(timeout=lock_timeout, policy=deadlock_policy)
        self.wal = RedoLog()
        # Optional fault injector (repro.core.faults.FaultInjector);
        # None in production — commit/abort guard with ``is not None``.
        self.faults: Any = None
        # Optional observability (repro.obs.Observability); same
        # zero-cost-when-detached contract as faults.
        self.obs: Any = None
        self._next_id = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        # Snapshot timestamps read for a transaction not begun yet
        # (ts -> count): see pin_snapshot.
        self._pins: dict[int, int] = {}
        # Orders transaction registration, snapshot clock reads and GC
        # horizon computation (taken before _clock_latch, never after).
        self._latch = threading.Lock()
        # Global commit-timestamp clock.  0 is the bootstrap timestamp
        # (loader/DDL/replay writes); real commits start at 1.
        self._clock_latch = threading.Lock()
        self._last_commit_ts = 0

    def begin(
        self,
        isolation: IsolationLevel | str = IsolationLevel.READ_COMMITTED,
        snapshot_ts: int | None = None,
    ) -> Transaction:
        """Start a transaction.  For SNAPSHOT isolation, ``snapshot_ts``
        fixes the snapshot (a caller that already read the clock — e.g.
        the statement interceptor, through :meth:`pin_snapshot` — passes
        it so the snapshot and any derived state agree); by default the
        current clock is read.  Reading the clock and registering the
        transaction are one step under the latch, so a concurrent
        :meth:`oldest_snapshot_ts` either sees the snapshot or ran before
        the clock was read."""
        level = IsolationLevel.coerce(isolation) or IsolationLevel.READ_COMMITTED
        txn = Transaction(next(self._next_id), self, isolation=level)
        with self._latch:
            if level is IsolationLevel.SNAPSHOT:
                txn.snapshot_ts = (
                    self.current_ts() if snapshot_ts is None else snapshot_ts
                )
            self._active[txn.id] = txn
        return txn

    # ------------------------------------------------------------------
    # Commit-timestamp clock
    # ------------------------------------------------------------------
    def current_ts(self) -> int:
        """The newest assigned commit timestamp — a snapshot taken now
        sees exactly the transactions stamped at or before it."""
        with self._clock_latch:
            return self._last_commit_ts

    def pin_snapshot(self) -> int:
        """Read the clock for a snapshot whose transaction begins later,
        holding the GC horizon at it until :meth:`unpin_snapshot` — the
        migration interceptor computes a snapshot read's overlay before
        the statement's transaction exists."""
        with self._latch:
            ts = self.current_ts()
            self._pins[ts] = self._pins.get(ts, 0) + 1
        return ts

    def unpin_snapshot(self, ts: int) -> None:
        with self._latch:
            left = self._pins.pop(ts) - 1
            if left:
                self._pins[ts] = left

    def _assign_commit_ts(self, stamp: CommitStamp) -> None:
        with self._clock_latch:
            self._last_commit_ts += 1
            stamp.ts = self._last_commit_ts

    def oldest_snapshot_ts(self) -> int:
        """GC horizon: the oldest snapshot any active transaction or pin
        holds (versions older than the newest committed-before-horizon
        version of a tuple can never be read again)."""
        with self._latch:
            horizon = self.current_ts()
            for txn in self._active.values():
                if txn.snapshot_ts is not None and txn.snapshot_ts < horizon:
                    horizon = txn.snapshot_ts
            if self._pins:
                horizon = min(horizon, min(self._pins))
        return horizon

    def _finished(self, txn: Transaction) -> None:
        with self._latch:
            self._active.pop(txn.id, None)

    @property
    def active_count(self) -> int:
        with self._latch:
            return len(self._active)
