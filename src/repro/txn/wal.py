"""Redo log (WAL): the records BullFrog's tracker recovery reads.

An in-memory log holding the ``MIGRATE`` records of committed migration
transactions, each batch followed by its transaction's COMMIT — exactly
what the tracker-recovery path (paper section 3.5,
``repro.core.recovery``) scans after a crash to rebuild migration
bitmaps/hashmaps.  Storage is volatile, so no crash path replays data
and the log keeps no data records.

Every write commit still passes through :meth:`RedoLog.append_batch`,
the commit point: the ``wal.flush`` fault seam and the ``wal``
observability fire there for every batch, and a batch with no records
leaves nothing behind.  When a migration completes,
:meth:`RedoLog.discard_migration` drops its records, so the log holds
only what an in-flight migration's recovery could need.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Collection, Iterator


class LogOp(Enum):
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    MIGRATE = "MIGRATE"  # BullFrog: granule(s) migrated by this txn


@dataclass(frozen=True)
class LogRecord:
    """One redo record.

    ``payload`` depends on ``op``:
      * MIGRATE: (migration_id, input_table, granule_keys) where
        granule_keys is a tuple of bitmap ordinals or hashmap group keys.
      * COMMIT/ABORT: None.
    """

    lsn: int
    txn_id: int
    op: LogOp
    payload: Any = None


class RedoLog:
    """Thread-safe log with monotonically increasing LSNs.  Every
    commit and abort takes an LSN, whether or not it leaves a record."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._lsns = itertools.count()
        self._latch = threading.Lock()
        # Optional fault injector (repro.core.faults.FaultInjector);
        # None in production.
        self.faults: Any = None
        # Optional observability (repro.obs.Observability); same
        # zero-cost-when-detached contract as faults.
        self.obs: Any = None

    def append_batch(self, txn_id: int, entries: list[tuple[LogOp, Any]]) -> int:
        """Commit a transaction: atomically append its ``MIGRATE``
        records followed by COMMIT.

        Mirrors a group-commit: either all of a transaction's records
        (and its COMMIT) appear in the log, or none do.  A transaction
        that migrated nothing has no record any recovery reads, so its
        batch is empty and the log keeps nothing for it.  Returns the
        commit LSN.
        """
        faults = self.faults
        obs = self.obs
        start_s = 0.0
        if obs is not None:
            if obs.in_trace():
                # A traced statement is committing: time the append (a
                # ``wal.append`` span + the ``wal`` wait class), so the
                # metrics move into :meth:`Observability.wal_append`
                # after the append.  Untraced commits — unsampled
                # statements, background work — keep the cheap
                # pre-append instant.
                start_s = time.perf_counter()
            else:
                obs.wal_flush(txn_id, len(entries))
        if faults is not None and "wal.flush" in faults.watching:
            # Fired outside the latch (a LATENCY rule must not stall
            # every other committer); a crash here happens *before* the
            # batch lands — the commit is not durable.
            faults.fire("wal.flush", txn_id=txn_id, records=len(entries))
        if entries:
            with self._latch:
                for op, payload in entries:
                    self._records.append(LogRecord(next(self._lsns), txn_id, op, payload))
                commit_lsn = next(self._lsns)
                self._records.append(LogRecord(commit_lsn, txn_id, LogOp.COMMIT))
        else:
            commit_lsn = next(self._lsns)
        if start_s:
            obs.wal_append(start_s, txn_id, len(entries))
        return commit_lsn

    def append_abort(self, txn_id: int) -> int:
        with self._latch:
            lsn = next(self._lsns)
            self._records.append(LogRecord(lsn, txn_id, LogOp.ABORT))
            return lsn

    def discard_migration(self, unit_ids: Collection[str]) -> None:
        """Drop the MIGRATE records of the completed migration units
        ``unit_ids``, then every COMMIT/ABORT record whose transaction
        has no MIGRATE record left: no recovery can need them."""
        with self._latch:
            kept = [
                record
                for record in self._records
                if record.op is not LogOp.MIGRATE or record.payload[0] not in unit_ids
            ]
            logged = {record.txn_id for record in kept if record.op is LogOp.MIGRATE}
            self._records = [record for record in kept if record.txn_id in logged]

    def __len__(self) -> int:
        with self._latch:
            return len(self._records)

    def records(self) -> list[LogRecord]:
        """Snapshot of all records (recovery scans this)."""
        with self._latch:
            return list(self._records)

    def committed_txn_ids(self) -> set[int]:
        with self._latch:
            return {
                record.txn_id
                for record in self._records
                if record.op is LogOp.COMMIT
            }

    def iter_committed(self) -> Iterator[LogRecord]:
        """Yield the MIGRATE records of committed transactions, in LSN
        order (first find commit records, then yield those
        transactions' records)."""
        committed = self.committed_txn_ids()
        for record in self.records():
            if record.op in (LogOp.COMMIT, LogOp.ABORT):
                continue
            if record.txn_id in committed:
                yield record
