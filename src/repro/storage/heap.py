"""Heap tables: one list of tuple-version chains, addressed by TIDs.

A TID is the tuple's index in that list: a dense ordinal, allocated in
insert order and never reused.  PostgreSQL's ctid is ``(block, offset)``
because its heap is 8 KB disk pages; this heap lives in memory and has
no page to name, so the ordinal the BullFrog bitmap maps to bits (paper
section 4) is the address itself.  Deletes leave a tombstone version at
the head, so TIDs stay stable for the lifetime of the table.

The heap is purely physical — it knows nothing about schemas or
constraints.  Thread safety: a single re-entrant latch protects the
list; logical isolation between transactions is the lock manager's job
(``repro.txn``), exactly as in a real engine where short latches and
long transaction locks are separate mechanisms.

Every mutation takes an optional :class:`~repro.storage.version.CommitStamp`
(default :data:`BOOTSTRAP_STAMP` for non-transactional writers — loader
and DDL rewrites).  A write with the head's own stamp mutates the head
in place (a transaction rewriting its uncommitted write, or abort-undo
restoring the committed value); any other write pushes a new version.
Current reads (:meth:`read`, :meth:`scan`) see the head of each chain;
snapshot reads (``snapshot_ts``) walk chains for the newest version
committed at or before the snapshot timestamp.  Superseded versions are
cut by :func:`~repro.storage.version.prune_chain` — per tuple at commit
(:meth:`prune_tuple`), or in bulk (:meth:`prune_versions`).
"""

from __future__ import annotations

import threading
from typing import Iterator

from ..errors import StorageError
from .version import (
    BOOTSTRAP_STAMP,
    CommitStamp,
    Row,
    TupleVersion,
    prune_chain,
    visible_version,
)

# Heads one latch hold of the bulk prune covers, so writers wait at
# most one stretch behind it.
_PRUNE_STRETCH = 256


class HeapTable:
    """A heap of version chains; ``tid`` indexes the chain heads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._heads: list[TupleVersion] = []
        self._latch = threading.RLock()
        self._live_count = 0

    def __len__(self) -> int:
        return self._live_count

    @property
    def max_ordinal(self) -> int:
        """One past the largest TID ever allocated (bitmap sizing)."""
        return len(self._heads)

    # ------------------------------------------------------------------
    # Reads and mutation
    # ------------------------------------------------------------------
    def insert(self, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> int:
        """Append a tuple; returns its TID."""
        with self._latch:
            heads = self._heads
            heads.append(TupleVersion(row, stamp))
            self._live_count += 1
            return len(heads) - 1

    def read(self, tid: int) -> Row | None:
        """Return the current tuple at ``tid`` (None if tombstoned).
        Raises IndexError for a TID that was never allocated."""
        with self._latch:
            return self._heads[tid].row

    def read_version(self, tid: int) -> TupleVersion:
        """Return the head of the version chain at ``tid``.  Raises
        IndexError for a TID that was never allocated."""
        with self._latch:
            return self._heads[tid]

    def read_snapshot(
        self,
        tid: int,
        snapshot_ts: int,
        own_stamp: CommitStamp | None = None,
    ) -> Row | None:
        """Return the tuple at ``tid`` as of ``snapshot_ts`` (None if it
        did not exist, or was deleted, at that timestamp)."""
        version = visible_version(self.read_version(tid), snapshot_ts, own_stamp)
        return None if version is None else version.row

    def _write(self, tid: int, head: TupleVersion, row: Row | None, stamp: CommitStamp) -> None:
        """Install ``row`` (None: a tombstone) as ``tid``'s newest
        version; caller holds the latch."""
        if head.stamp is stamp:
            head.row = row
        else:
            self._heads[tid] = TupleVersion(row, stamp, prev=head)

    def update(self, tid: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        """Overwrite the tuple at ``tid``; returns the previous row."""
        with self._latch:
            head = self._heads[tid]
            old = head.row
            if old is None:
                raise StorageError(f"tuple {tid} of {self.name} is deleted")
            self._write(tid, head, row, stamp)
            return old

    def delete(self, tid: int, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        """Tombstone the tuple at ``tid``; returns the old row."""
        with self._latch:
            head = self._heads[tid]
            old = head.row
            if old is None:
                raise StorageError(f"tuple {tid} of {self.name} is already deleted")
            self._write(tid, head, None, stamp)
            self._live_count -= 1
            return old

    def restore(self, tid: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> None:
        """Undo a delete (abort path): put ``row`` back at a tombstone."""
        with self._latch:
            head = self._heads[tid]
            if head.row is not None:
                raise StorageError(f"tuple {tid} of {self.name} is not a tombstone")
            self._write(tid, head, row, stamp)
            self._live_count += 1

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(
        self,
        snapshot_ts: int | None = None,
        own_stamp: CommitStamp | None = None,
    ) -> Iterator[tuple[int, Row]]:
        """:meth:`scan_range` over the whole table."""
        return self.scan_range(0, None, snapshot_ts, own_stamp)

    def scan_range(
        self,
        start: int = 0,
        end: int | None = None,
        snapshot_ts: int | None = None,
        own_stamp: CommitStamp | None = None,
    ) -> Iterator[tuple[int, Row]]:
        """Yield (tid, row) for the live tuples with ``start <= tid <
        end`` (``end=None``: to the last TID) — the current heads, or
        with ``snapshot_ts`` the versions visible at that timestamp.

        Latch-free: the bound is fixed at the first row, then each head
        is read from the live list as the scan reaches it (one list-item
        load; a write replaces a head with one store, and the visibility
        walk never follows a pointer a concurrent committer could
        invalidate).  Reading the live head, not a copy taken at the
        start, keeps a row deleted mid-scan from being yielded — the
        multi-step copier relies on it.  Transaction-level consistency
        comes from the lock manager; a snapshot scan needs no locks at
        all (the read path that never blocks behind migration WIP)."""
        heads = self._heads
        stop = len(heads) if end is None else min(end, len(heads))
        if snapshot_ts is None:
            for tid in range(start, stop):
                row = heads[tid].row
                if row is not None:
                    yield tid, row
        else:
            for tid in range(start, stop):
                version = visible_version(heads[tid], snapshot_ts, own_stamp)
                if version is not None and version.row is not None:
                    yield tid, version.row

    # ------------------------------------------------------------------
    # Version-chain garbage collection
    # ------------------------------------------------------------------
    def prune_tuple(self, tid: int, horizon_ts: int) -> None:
        """Apply :func:`prune_chain` to the tuple at ``tid`` (a committing
        writer, still holding its X lock)."""
        with self._latch:
            prune_chain(self._heads[tid], horizon_ts)

    def prune_versions(self, horizon_ts: int) -> int:
        """Apply :func:`prune_chain` to every tuple: the bulk pass for
        chains a snapshot held back when their writer committed.  The
        latch is held one stretch of heads at a time.  Returns the
        number of versions unlinked."""
        pruned = 0
        for start in range(0, len(self._heads), _PRUNE_STRETCH):
            with self._latch:
                for head in self._heads[start : start + _PRUNE_STRETCH]:
                    pruned += prune_chain(head, horizon_ts)
        return pruned
