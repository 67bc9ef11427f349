"""Heap tables: append-only pages of versioned tuples addressed by TIDs.

The heap is purely physical — it knows nothing about schemas or
constraints.  Thread safety: a single re-entrant latch protects the page
directory; logical isolation between transactions is the lock manager's
job (``repro.txn``), exactly as in a real engine where short page
latches and long transaction locks are separate mechanisms.

Every mutation takes an optional :class:`~repro.storage.version.CommitStamp`
(default :data:`BOOTSTRAP_STAMP` for non-transactional writers — loader
and DDL rewrites).  Current reads (:meth:`read`, :meth:`scan`)
see the head of each version chain, preserving the pre-MVCC semantics;
snapshot reads (:meth:`scan_snapshot`, ``snapshot_ts`` on
:meth:`scan_range`) walk chains for the newest version committed at or
before the snapshot timestamp.  Superseded versions are cut by
:func:`~repro.storage.version.prune_chain` — per tuple at commit
(:meth:`prune_tuple`), or in bulk (:meth:`prune_versions`).
"""

from __future__ import annotations

import threading
from typing import Iterator

from ..errors import StorageError
from .page import DEFAULT_PAGE_CAPACITY, Page
from .tid import Tid
from .version import (
    BOOTSTRAP_STAMP,
    CommitStamp,
    Row,
    TupleVersion,
    prune_chain,
    visible_version,
)


class HeapTable:
    """A heap of slotted pages.

    TIDs are stable: deletes tombstone, they never compact.  This is what
    lets the BullFrog bitmap address tuples by dense ordinal.
    """

    def __init__(self, name: str, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        self.name = name
        self.page_capacity = page_capacity
        self._pages: list[Page] = []
        self._latch = threading.RLock()
        self._live_count = 0

    # ------------------------------------------------------------------
    # Size / addressing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def max_ordinal(self) -> int:
        """One past the largest ordinal ever allocated (bitmap sizing)."""
        with self._latch:
            if not self._pages:
                return 0
            last = self._pages[-1]
            return last.number * self.page_capacity + len(last)

    def ordinal(self, tid: Tid) -> int:
        return tid.ordinal(self.page_capacity)

    def tid_from_ordinal(self, ordinal: int) -> Tid:
        return Tid.from_ordinal(ordinal, self.page_capacity)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Tid:
        """Append a tuple; returns its TID."""
        with self._latch:
            if not self._pages or self._pages[-1].is_full:
                self._pages.append(Page(len(self._pages), self.page_capacity))
            page = self._pages[-1]
            slot = page.append(row, stamp)
            self._live_count += 1
            return Tid(page.number, slot)

    def read(self, tid: Tid) -> Row | None:
        """Return the current tuple at ``tid`` (None if tombstoned).
        Raises IndexError for an address that was never allocated."""
        with self._latch:
            return self._pages[tid.page].read(tid.slot)

    def read_version(self, tid: Tid) -> TupleVersion:
        """Return the head of the version chain at ``tid``.  Raises
        IndexError for an address that was never allocated."""
        with self._latch:
            return self._pages[tid.page].read_version(tid.slot)

    def read_snapshot(
        self,
        tid: Tid,
        snapshot_ts: int,
        own_stamp: CommitStamp | None = None,
    ) -> Row | None:
        """Return the tuple at ``tid`` as of ``snapshot_ts`` (None if it
        did not exist, or was deleted, at that timestamp)."""
        head = self.read_version(tid)
        version = visible_version(head, snapshot_ts, own_stamp)
        return None if version is None else version.row

    def update(self, tid: Tid, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        """Overwrite the tuple at ``tid``; returns the previous row."""
        with self._latch:
            page = self._pages[tid.page]
            old = page.read(tid.slot)
            if old is None:
                raise StorageError(f"tuple {tid} of {self.name} is deleted")
            page.write(tid.slot, row, stamp)
            return old

    def delete(self, tid: Tid, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        """Tombstone the tuple at ``tid``; returns the old row."""
        with self._latch:
            old = self._pages[tid.page].delete(tid.slot, stamp)
            self._live_count -= 1
            return old

    def restore(self, tid: Tid, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> None:
        """Undo a delete (abort path)."""
        with self._latch:
            self._pages[tid.page].restore(tid.slot, row, stamp)
            self._live_count += 1

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[Tid, Row]]:
        """Yield (tid, row) for all currently-live tuples.

        Takes a snapshot of the page list under the latch, then walks it
        latch-free; pages themselves are only appended to, and slot
        mutation is atomic at Python level (single list-item store), so a
        scan always sees a consistent slot value — transaction-level
        consistency comes from the lock manager.
        """
        with self._latch:
            pages = list(self._pages)
        for page in pages:
            for slot, row in page.iter_live():
                yield Tid(page.number, slot), row

    def scan_snapshot(
        self,
        snapshot_ts: int,
        own_stamp: CommitStamp | None = None,
    ) -> Iterator[tuple[Tid, Row]]:
        """Yield (tid, row) for every tuple visible at ``snapshot_ts``.

        Latch-free like :meth:`scan`: chains are only ever *pushed* at
        the head (one list-item store) and the visibility walk never
        follows a pointer a concurrent committer could invalidate, so a
        snapshot scan needs no locks at all — this is the read path that
        never blocks behind migration WIP.
        """
        with self._latch:
            pages = list(self._pages)
        for page in pages:
            for slot, head in page.iter_heads():
                version = visible_version(head, snapshot_ts, own_stamp)
                if version is not None and version.row is not None:
                    yield Tid(page.number, slot), version.row

    def scan_range(
        self,
        start_ordinal: int,
        end_ordinal: int,
        snapshot_ts: int | None = None,
        own_stamp: CommitStamp | None = None,
    ) -> Iterator[tuple[Tid, Row]]:
        """Yield live tuples whose ordinal is in [start, end).  Used by
        background migration threads to walk the table in chunks, and
        (with ``snapshot_ts``) by snapshot readers overlaying the
        pre-migration image of not-yet-converted granules."""
        with self._latch:
            pages = list(self._pages)
        first_page = start_ordinal // self.page_capacity
        last_page = (max(end_ordinal - 1, 0)) // self.page_capacity
        for page in pages[first_page : last_page + 1]:
            base = page.number * self.page_capacity
            if snapshot_ts is None:
                for slot, row in page.iter_live():
                    ordinal = base + slot
                    if start_ordinal <= ordinal < end_ordinal:
                        yield Tid(page.number, slot), row
            else:
                for slot, head in page.iter_heads():
                    ordinal = base + slot
                    if not (start_ordinal <= ordinal < end_ordinal):
                        continue
                    version = visible_version(head, snapshot_ts, own_stamp)
                    if version is not None and version.row is not None:
                        yield Tid(page.number, slot), version.row

    # ------------------------------------------------------------------
    # Version-chain garbage collection
    # ------------------------------------------------------------------
    def prune_tuple(self, tid: Tid, horizon_ts: int) -> None:
        """Apply :func:`prune_chain` to the tuple at ``tid`` (a committing
        writer, still holding its X lock)."""
        with self._latch:
            prune_chain(self._pages[tid.page].read_version(tid.slot), horizon_ts)

    def prune_versions(self, horizon_ts: int) -> int:
        """Apply :func:`prune_chain` to every tuple: the bulk pass for
        chains a snapshot held back when their writer committed.
        Returns the number of versions unlinked."""
        pruned = 0
        with self._latch:
            pages = list(self._pages)
        for page in pages:
            with self._latch:
                for _slot, head in page.iter_heads():
                    pruned += prune_chain(head, horizon_ts)
        return pruned

    def clear(self) -> None:
        """Drop all pages (table truncation / drop)."""
        with self._latch:
            self._pages.clear()
            self._live_count = 0
