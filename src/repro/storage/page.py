"""Slotted heap pages.

A page holds up to ``capacity`` tuples.  Each slot is the head of a
tuple-version chain (:mod:`repro.storage.version`); the head always
reflects the latest write, so "current" reads are a single pointer
chase.  A deleted tuple leaves a tombstone *version* (``row is None``)
at the head, so slot numbers — and therefore TIDs — remain stable for
the lifetime of the table, which the BullFrog bitmap relies on.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import StorageError
from .version import BOOTSTRAP_STAMP, CommitStamp, Row, TupleVersion

DEFAULT_PAGE_CAPACITY = 256


class Page:
    """One slotted page of a heap table."""

    __slots__ = ("number", "capacity", "_slots")

    def __init__(self, number: int, capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        self.number = number
        self.capacity = capacity
        self._slots: list[TupleVersion] = []

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def is_full(self) -> bool:
        return len(self._slots) >= self.capacity

    @property
    def live_count(self) -> int:
        return sum(1 for head in self._slots if head.row is not None)

    def append(self, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> int:
        """Append a tuple; returns the slot number.  Caller must check
        :attr:`is_full` first (the heap does)."""
        if self.is_full:
            raise StorageError(f"page {self.number} is full")
        self._slots.append(TupleVersion(row, stamp))
        return len(self._slots) - 1

    def read(self, slot: int) -> Row | None:
        """Return the current tuple at ``slot`` or ``None`` for a
        tombstone.  Raises IndexError for a slot that never existed."""
        return self._slots[slot].row

    def read_version(self, slot: int) -> TupleVersion:
        """Return the head of the version chain at ``slot``."""
        return self._slots[slot]

    def write(self, slot: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> None:
        """Write ``row`` at ``slot``.  Pushes a new version unless the
        head already belongs to the same stamp (a transaction updating
        its own uncommitted write mutates it in place — this is also
        what makes abort-undo restore the committed value without
        growing the chain)."""
        head = self._slots[slot]
        if head.row is None:
            raise StorageError(
                f"cannot update deleted tuple at page {self.number} slot {slot}"
            )
        if head.stamp is stamp:
            head.row = row
        else:
            self._slots[slot] = TupleVersion(row, stamp, prev=head)

    def delete(self, slot: int, stamp: CommitStamp = BOOTSTRAP_STAMP) -> Row:
        """Tombstone the tuple at ``slot``; returns the old row."""
        head = self._slots[slot]
        if head.row is None:
            raise StorageError(
                f"tuple at page {self.number} slot {slot} is already deleted"
            )
        old = head.row
        if head.stamp is stamp:
            head.row = None
        else:
            self._slots[slot] = TupleVersion(None, stamp, prev=head)
        return old

    def restore(self, slot: int, row: Row, stamp: CommitStamp = BOOTSTRAP_STAMP) -> None:
        """Undo a delete: put ``row`` back in a tombstoned ``slot``."""
        head = self._slots[slot]
        if head.row is not None:
            raise StorageError(
                f"slot {slot} of page {self.number} is not a tombstone"
            )
        if head.stamp is stamp:
            head.row = row
        else:
            self._slots[slot] = TupleVersion(row, stamp, prev=head)

    def iter_live(self) -> Iterator[tuple[int, Row]]:
        """Yield (slot, row) for every currently-live tuple."""
        for slot, head in enumerate(self._slots):
            if head.row is not None:
                yield slot, head.row

    def iter_heads(self) -> Iterator[tuple[int, TupleVersion]]:
        """Yield (slot, head-version) for every slot (tombstoned heads
        included — snapshot scans need them)."""
        return enumerate(self._slots)
