"""Transactions: strict 2PL + undo-based abort + commit-time version GC.

A :class:`Transaction` tracks held locks, an undo list of physical
inverse actions, and the BullFrog ``MIGRATE`` records it will log;
COMMIT appends its batch to the redo log, prunes the versions it
superseded, then releases locks; ABORT applies undo in reverse then runs
the registered abort hooks — which is where BullFrog resets the lock
bits of its in-progress migration granules (paper section 3.5).
"""

from __future__ import annotations

import itertools
import threading
from enum import Enum
from typing import Any, Callable, Hashable

from ..errors import TransactionAborted, TransactionError
from ..storage.version import CommitStamp
from .locks import LockManager, LockMode, covers, supremum
from .wal import LogOp, RedoLog

Row = tuple[Any, ...]


class TxnState(Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


class IsolationLevel(Enum):
    """Isolation modes offered by :meth:`TransactionManager.begin`.

    READ_COMMITTED is the pre-MVCC behavior, and despite its name it
    reads uncommitted data: a read takes a table IS lock and no tuple
    lock, so it sees another transaction's uncommitted inserts and
    updates (ROADMAP item 3).  Writes take a table IX lock, updates and
    deletes a tuple X lock, held to commit; a writer waits for an open
    inserter (:meth:`Transaction.wait_for`).  SNAPSHOT reads a
    consistent version-chain snapshot taken at ``begin`` without read
    locks; writes still take 2PL write locks and conflict
    first-committer-wins (SQLSTATE 40001 on loss).

    An autocommit SELECT is not a transaction at either level.  Under
    READ_COMMITTED it takes its table IS locks under a statement owner
    id (:class:`StatementLocks`) and drops them when it returns; under
    SNAPSHOT it reads at a pinned timestamp
    (:meth:`TransactionManager.pin_snapshot`) and takes no lock.
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
        # resource -> mode held (the local lock table): every resource
        # here is held in the shared lock manager at least this strongly.
        self._locks: dict[Hashable, LockMode] = {}
        self._undo: list[Callable[[], None]] = []
        self._redo: list[tuple[LogOp, Any]] = []
        # (table, tid) of every tuple this txn updated or deleted: the
        # chains whose older versions commit prunes.
        self._superseded: list[tuple[Any, int]] = []
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
        self._lock(("table", table_name), mode)

    def lock_tuple(self, table_name: str, tid: int, mode: LockMode) -> None:
        self._lock(("tuple", table_name, tid), mode)

    def _lock(self, resource: Hashable, mode: LockMode) -> None:
        """Take ``mode`` on ``resource`` unless the mode already held
        covers it: a covered re-request never reaches the shared lock
        manager."""
        self._check_active()
        held = self._locks.get(resource)
        if held is not None and covers(held, mode):
            return
        try:
            self._manager.locks.acquire(self.id, resource, mode)
        except TransactionAborted:
            self.abort()
            raise
        self._locks[resource] = mode if held is None else supremum(held, mode)

    def lock_self(self) -> None:
        """Taken before a first insert; a writer meeting its rows waits."""
        self._lock(("txn", self.id), LockMode.X)

    def wait_for(self, stamp: CommitStamp) -> None:
        """Block until ``stamp``'s transaction commits or rolls back."""
        self._lock(("txn", stamp.txn_id), LockMode.S)

    # ------------------------------------------------------------------
    # Undo / redo recording (called by the DML executor)
    # ------------------------------------------------------------------
    def record_insert(self, table, tid: int, row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_unindex(tid, row, stamp=stamp))

    def record_update(self, table, tid: int, old_row: Row, new_row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_update(tid, old_row, stamp=stamp))
        self._superseded.append((table, tid))

    def record_delete(self, table, tid: int, old_row: Row) -> None:
        self._check_active()
        stamp = self.stamp
        self._undo.append(lambda: table.physical_restore(tid, old_row, stamp=stamp))
        self._superseded.append((table, tid))

    def record_migration(self, migration_id: str, input_table: str, granules: tuple) -> None:
        """BullFrog: log which granules this txn migrated so recovery can
        rebuild the tracker (paper section 3.5)."""
        self._check_active()
        self._redo.append((LogOp.MIGRATE, (migration_id, input_table, granules)))

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
        manager = self._manager
        faults = manager.faults
        obs = manager.obs
        wrote = bool(self._undo or self._redo)
        if obs is not None:
            if wrote:
                # Read-only commits stay instant-free: the statement
                # span already bounds them.  Write commits keep the
                # instant (it carries the redo size next to the
                # wal.append span).
                obs.emit("txn.commit", txn_id=self.id, records=len(self._redo))
            else:
                obs.inc_txn_commit()
        try:
            if faults is not None and "txn.commit" in faults.watching:
                faults.fire("txn.commit", txn_id=self.id)
            if wrote:
                manager.wal.append_batch(self.id, self._redo)
        except TransactionAborted:
            # An abort surfacing inside commit (fault injection, a
            # conflict at flush time) must not leave the transaction
            # ACTIVE with its locks held: roll back fully, then let the
            # caller see the abort.
            self.abort()
            raise
        if wrote:
            # Assign the commit timestamp while still holding write
            # locks: every version this txn wrote becomes visible to
            # future snapshots in one latched store.
            manager._assign_commit_ts(self.stamp)
        self.state = TxnState.COMMITTED
        # Deregistered first, so this txn's own snapshot no longer
        # holds the horizon its prune reads.
        manager._finished(self)
        if self._superseded:
            # Still under the X locks: no writer races these chains.
            horizon = manager.oldest_snapshot_ts()
            for table, tid in self._superseded:
                table.prune_tuple(tid, horizon)
        self._release_locks()
        hooks, self._commit_hooks = self._commit_hooks, []
        for hook in hooks:
            hook()

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
        if obs is not None:
            obs.emit("txn.abort", txn_id=self.id)
        if faults is not None and "txn.abort" in faults.watching:
            # Latency/callback only — FaultRule rejects raising actions
            # at txn.abort (an abort must not itself fail).
            faults.fire("txn.abort", txn_id=self.id)
        if self._redo:
            # The log keeps nothing for a txn that migrated nothing.
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
        self._superseded.clear()

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


class StatementLocks:
    """The table locks of a statement that is not a transaction: an
    autocommit READ_COMMITTED SELECT.  It holds its IS locks in the
    shared lock manager under its own owner id, so DDL and the eager
    baseline's X locks wait for it, and :meth:`release` drops them all
    in one latch hold when the statement ends."""

    __slots__ = ("id", "_manager", "_locks")

    def __init__(self, owner_id: int, manager: LockManager) -> None:
        self.id = owner_id
        self._manager = manager
        self._locks: dict[Hashable, LockMode] = {}

    def lock_table(self, table_name: str, mode: LockMode) -> None:
        resource = ("table", table_name)
        held = self._locks.get(resource)
        if held is not None and covers(held, mode):
            return
        self._manager.acquire(self.id, resource, mode)
        self._locks[resource] = mode if held is None else supremum(held, mode)

    def release(self) -> None:
        self._manager.release_all(self.id, self._locks)


class TransactionManager:
    """Issues transaction ids and owns the shared lock manager + WAL."""

    def __init__(self, lock_timeout: float = 10.0) -> None:
        self.locks = LockManager(timeout=lock_timeout)
        self.wal = RedoLog()
        # Optional fault injector (repro.core.faults.FaultInjector);
        # None in production — commit/abort guard with ``is not None``.
        self.faults: Any = None
        # Optional observability (repro.obs.Observability); same
        # zero-cost-when-detached contract as faults.
        self.obs: Any = None
        self._next_id = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        # Snapshot timestamps held by statements, not transactions
        # (ts -> count): see pin_snapshot.
        self._pins: dict[int, int] = {}
        # Orders transaction registration, snapshot clock reads and GC
        # horizon computation (taken before _clock_latch, never after).
        self._latch = threading.Lock()
        # Global commit-timestamp clock.  0 is the bootstrap timestamp
        # (loader/DDL writes); real commits start at 1.
        self._clock_latch = threading.Lock()
        self._last_commit_ts = 0

    def begin(
        self, isolation: IsolationLevel | str = IsolationLevel.READ_COMMITTED
    ) -> Transaction:
        """Start a transaction.  A SNAPSHOT transaction's snapshot is the
        current clock.  Reading the clock and registering the
        transaction are one step under the latch, so a concurrent
        :meth:`oldest_snapshot_ts` either sees the snapshot or ran before
        the clock was read."""
        level = IsolationLevel.coerce(isolation) or IsolationLevel.READ_COMMITTED
        txn = Transaction(next(self._next_id), self, isolation=level)
        with self._latch:
            if level is IsolationLevel.SNAPSHOT:
                txn.snapshot_ts = self.current_ts()
            self._active[txn.id] = txn
        return txn

    def statement_locks(self) -> StatementLocks:
        """The lock owner of one statement that runs with no transaction
        (an autocommit SELECT), its id drawn from the transaction id
        counter so it never collides with a transaction's."""
        return StatementLocks(next(self._next_id), self.locks)

    # ------------------------------------------------------------------
    # Commit-timestamp clock
    # ------------------------------------------------------------------
    def current_ts(self) -> int:
        """The newest assigned commit timestamp — a snapshot taken now
        sees exactly the transactions stamped at or before it."""
        with self._clock_latch:
            return self._last_commit_ts

    def pin_snapshot(self) -> int:
        """Read the clock for a snapshot no transaction holds, holding
        the GC horizon at it until :meth:`unpin_snapshot`: an autocommit
        SNAPSHOT SELECT reads at a pinned timestamp, and the migration
        interceptor computes that read's overlay against the same one."""
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
