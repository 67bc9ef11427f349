"""Tuple version chains for multi-version concurrency control.

Every heap slot holds the *head* of a singly-linked chain of
:class:`TupleVersion` objects, newest first.  Each version carries a
:class:`CommitStamp` — one mutable stamp object shared by **all**
versions a transaction writes.  Commit assigns the stamp's timestamp
once, under the manager's clock latch, which atomically publishes every
version of that transaction to future snapshots (O(1) commit, no
per-tuple stamping pass).  Abort flips ``aborted`` instead, leaving the
timestamp unset so those versions are invisible to every snapshot
forever.

Visibility of version ``v`` at snapshot timestamp ``S``:

* ``v.stamp is own_stamp``              → visible (your own writes), or
* ``not v.stamp.aborted and v.stamp.ts is not None and v.stamp.ts <= S``

A visible version with ``row is None`` is a *tombstone*: the tuple was
deleted as of ``S``.  Walk ``prev`` until a visible version is found.

``BOOTSTRAP_STAMP`` (ts=0) stamps rows written outside any transaction
— the loader and DDL rewrites.  Snapshots are always ``>= 0`` so
bootstrap rows are visible everywhere.

:func:`prune_chain` is the one garbage-collection rule: a committing
transaction applies it to each tuple it superseded, and the bulk
``prune_versions`` passes apply it to chains a snapshot held back.
"""

from __future__ import annotations

from typing import Any

Row = tuple[Any, ...]


class CommitStamp:
    """Shared, mutable commit record for one transaction's writes.

    ``ts`` is ``None`` while the transaction is in flight, a positive
    commit timestamp after commit, and stays ``None`` (with ``aborted``
    set) after abort.  Stamps are compared by identity.
    """

    __slots__ = ("ts", "txn_id", "aborted")

    def __init__(self, ts: int | None = None, txn_id: int | None = None) -> None:
        self.ts = ts
        self.txn_id = txn_id
        self.aborted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "aborted" if self.aborted else (self.ts if self.ts is not None else "in-flight")
        return f"CommitStamp(txn={self.txn_id}, {state})"


#: Stamp for rows written outside any transaction (loader, DDL).
BOOTSTRAP_STAMP = CommitStamp(ts=0)


class TupleVersion:
    """One version in a slot's chain.  ``row is None`` marks a
    tombstone (the version in which the tuple was deleted)."""

    __slots__ = ("row", "stamp", "prev")

    def __init__(
        self,
        row: Row | None,
        stamp: CommitStamp,
        prev: "TupleVersion | None" = None,
    ) -> None:
        self.row = row
        self.stamp = stamp
        self.prev = prev


def visible_version(
    head: TupleVersion | None,
    ts: int,
    own_stamp: CommitStamp | None = None,
) -> TupleVersion | None:
    """Walk ``head``'s chain and return the newest version visible at
    snapshot ``ts`` (or ``None`` — the tuple did not exist at ``ts``).
    A returned version with ``row is None`` means *deleted at ts*."""
    v = head
    while v is not None:
        stamp = v.stamp
        if stamp is own_stamp:
            return v
        if not stamp.aborted and stamp.ts is not None and stamp.ts <= ts:
            return v
        v = v.prev
    return None


def prune_chain(head: TupleVersion, horizon_ts: int) -> int:
    """Unlink from ``head``'s chain every version no snapshot at or
    after ``horizon_ts`` can read: aborted versions below the head, and
    everything below the newest version committed at or before the
    horizon.  The head itself is never cut (its row is the current
    image by construction).  Returns the number of versions unlinked.

    Safe against concurrent latch-free readers: unlinked versions keep
    their own ``prev`` pointers, so a reader already standing on one
    still walks a valid (if stale) chain, and any reader with snapshot
    >= horizon finds its visible version at or above the cut point.
    """
    pruned = 0
    parent = head
    while parent is not None:
        v = parent.prev
        if v is not None and v.stamp.aborted:
            parent.prev = v.prev
            pruned += 1
        else:
            parent = v
    v = head
    while v is not None:
        ts = v.stamp.ts
        if ts is not None and ts <= horizon_ts:
            cut = v.prev
            v.prev = None
            while cut is not None:
                pruned += 1
                cut = cut.prev
            break
        v = v.prev
    return pruned
