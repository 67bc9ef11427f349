"""Lock manager: strict two-phase locking with deadlock handling.

Resources are hashable keys — the transaction manager uses
``("table", name)`` for table-level locks and ``("tuple", name, tid)``
for tuple-level locks.  Modes follow the classic hierarchy:

    IS < IX < S < X   (SIX omitted; the engine does not need it)

Deadlocks are detected: blocked requesters register edges in a global
waits-for graph; a cycle check runs before sleeping and the requester
that *closes* a cycle dies (:class:`repro.errors.DeadlockAvoided`).
Everyone else queues, which is what makes the eager-migration baseline
behave like the paper's: client transactions pile up behind the
migration's exclusive table locks instead of failing fast.

A configurable timeout bounds pathological waits.

The lock table holds an entry only while it is worth keeping: a tuple
resource's entry is dropped when its last holder releases it, unless
someone waits on it or it was ever contended (its wait-profiling
counters are what ``bullfrog_stat_locks`` reports).  Table entries,
few and hot, stay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Hashable

from ..errors import DeadlockAvoided, LockTimeout

# Reclaimed entries kept for reuse: building a Condition per tuple lock
# would otherwise be paid on every uncontended acquire.
_SPARE_ENTRIES = 64


class LockMode(IntEnum):
    IS = 0
    IX = 1
    S = 2
    X = 3


# _COMPATIBLE[held][requested]
_COMPATIBLE = {
    LockMode.IS: {LockMode.IS: True, LockMode.IX: True, LockMode.S: True, LockMode.X: False},
    LockMode.IX: {LockMode.IS: True, LockMode.IX: True, LockMode.S: False, LockMode.X: False},
    LockMode.S: {LockMode.IS: True, LockMode.IX: False, LockMode.S: True, LockMode.X: False},
    LockMode.X: {LockMode.IS: False, LockMode.IX: False, LockMode.S: False, LockMode.X: False},
}

# Upgrade lattice: the mode that covers both.
_SUPREMUM = {
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.S): LockMode.X,  # S+IX == SIX; we round up to X
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.X): LockMode.X,
}


def supremum(a: LockMode, b: LockMode) -> LockMode:
    if a == b:
        return a
    return _SUPREMUM.get((min(a, b), max(a, b)), max(a, b))


@dataclass
class _LockEntry:
    """State of one lockable resource.

    Beyond the live lock state, each entry accumulates wait-profiling
    counters (updated only on the contended path, under ``condition``):
    cumulative wait time, wait events, aborts attributed to this
    resource, and the holder set observed by the most recent waiter
    (blocker attribution for ``bullfrog_stat_locks``).
    """

    holders: dict[int, LockMode] = field(default_factory=dict)
    condition: threading.Condition = field(default_factory=threading.Condition)
    waiting: int = 0
    wait_count: int = 0
    wait_seconds: float = 0.0
    deadlock_aborts: int = 0
    timeouts: int = 0
    last_blockers: tuple[int, ...] = ()


def resource_class(resource: Hashable) -> str:
    """Coarse resource class for histograms: ``table``, ``tuple``, or
    ``other`` (the manager does not interpret keys beyond convention)."""
    if isinstance(resource, tuple) and resource and resource[0] in ("table", "tuple"):
        return resource[0]
    return "other"


class _WaitsForGraph:
    """Global waits-for graph for deadlock detection."""

    def __init__(self) -> None:
        self._edges: dict[int, set[int]] = {}
        self._latch = threading.Lock()

    def would_deadlock(self, waiter: int, holders: set[int]) -> bool:
        """Register waiter->holders; True if that closes a cycle (the
        edges are left registered either way — callers must clear)."""
        with self._latch:
            self._edges[waiter] = set(holders)
            # DFS from each holder looking for a path back to waiter.
            stack = list(holders)
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node == waiter:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self._edges.get(node, ()))
            return False

    def update(self, waiter: int, holders: set[int]) -> None:
        with self._latch:
            self._edges[waiter] = set(holders)

    def clear(self, waiter: int) -> None:
        with self._latch:
            self._edges.pop(waiter, None)


class LockManager:
    """Central lock table shared by all transactions of a database."""

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._entries: dict[Hashable, _LockEntry] = {}
        self._spare: list[_LockEntry] = []
        self._latch = threading.Lock()
        self._waits_for = _WaitsForGraph()
        # Optional observability (repro.obs.Observability), set by the
        # Database when one is attached; None keeps the uncontended
        # acquire path free of any accounting.
        self.obs: Any = None

    def _entry(self, resource: Hashable) -> _LockEntry:
        with self._latch:
            entry = self._entries.get(resource)
            if entry is None:
                entry = self._spare.pop() if self._spare else _LockEntry()
                self._entries[resource] = entry
            return entry

    def _reclaim(self, resource: Hashable, entry: _LockEntry) -> None:
        """Drop ``entry`` from the table if it is idle and was never
        contended, keeping it as a spare.  Called with
        ``entry.condition`` held, which is what :meth:`acquire`
        re-validates under."""
        if (
            entry.holders
            or entry.waiting
            or entry.wait_count
            or entry.deadlock_aborts
            or entry.timeouts
            or resource_class(resource) != "tuple"
        ):
            return
        with self._latch:
            if self._entries.get(resource) is entry:
                del self._entries[resource]
                if len(self._spare) < _SPARE_ENTRIES:
                    self._spare.append(entry)

    def _peek(self, resource: Hashable) -> _LockEntry | None:
        """The entry for ``resource`` if one exists — unlike
        :meth:`_entry`, read-only probes must not materialize entries as
        a side effect (they would grow ``_entries`` unboundedly)."""
        with self._latch:
            return self._entries.get(resource)

    def _record_wait(
        self,
        entry: _LockEntry,
        resource: Hashable,
        seconds: float,
        blockers: tuple[int, ...],
        deadlock: bool = False,
        timeout: bool = False,
    ) -> None:
        """Account one finished wait (successful or aborted).  Called
        with ``entry.condition`` held; only ever reached on the
        contended path."""
        entry.wait_count += 1
        entry.wait_seconds += seconds
        entry.last_blockers = blockers
        if deadlock:
            entry.deadlock_aborts += 1
        if timeout:
            entry.timeouts += 1
        obs = self.obs
        if obs is not None:
            obs.observe_lock_wait(resource_class(resource), seconds, blockers)
            if deadlock:
                obs.count_deadlock()
            if timeout:
                obs.count_lock_timeout()

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, txn_id: int, resource: Hashable, mode: LockMode) -> bool:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txn_id``.

        Returns True if a new/upgraded lock was taken, False if the
        transaction already held a covering mode.  Raises
        DeadlockAvoided or LockTimeout.
        """
        while True:
            entry = self._entry(resource)
            with entry.condition:
                # A release may have reclaimed the entry between the
                # lookup and taking its condition: then look again.
                if self._entries.get(resource) is entry:
                    return self._acquire(entry, txn_id, resource, mode)

    def _acquire(
        self, entry: _LockEntry, txn_id: int, resource: Hashable, mode: LockMode
    ) -> bool:
        """:meth:`acquire` on the registered entry, its condition held."""
        held = entry.holders.get(txn_id)
        if held is not None and held >= mode and not (
            held == LockMode.IX and mode == LockMode.S
        ):
            return False
        target = mode if held is None else supremum(held, mode)
        deadline = None
        waited = False
        wait_started = 0.0
        try:
            while True:
                conflicting = {
                    other
                    for other, other_mode in entry.holders.items()
                    if other != txn_id and not _COMPATIBLE[other_mode][target]
                }
                if not conflicting:
                    if waited:
                        self._record_wait(
                            entry,
                            resource,
                            time.monotonic() - wait_started,
                            entry.last_blockers,
                        )
                    entry.holders[txn_id] = target
                    return True
                # Contended path: everything below (including the
                # profiling) is off the uncontended fast path.
                blockers = tuple(sorted(conflicting))
                if not waited:
                    wait_started = time.monotonic()
                entry.last_blockers = blockers
                if not waited:
                    if self._waits_for.would_deadlock(txn_id, conflicting):
                        self._record_wait(
                            entry,
                            resource,
                            time.monotonic() - wait_started,
                            blockers,
                            deadlock=True,
                        )
                        raise DeadlockAvoided(
                            f"deadlock detected: transaction {txn_id} "
                            f"waiting on {resource!r} closes a cycle"
                        )
                else:
                    self._waits_for.update(txn_id, conflicting)
                waited = True
                if deadline is None:
                    deadline = time.monotonic() + self.timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._record_wait(
                        entry,
                        resource,
                        time.monotonic() - wait_started,
                        blockers,
                        timeout=True,
                    )
                    raise LockTimeout(
                        f"transaction {txn_id} timed out waiting for "
                        f"{target.name} lock on {resource!r}"
                    )
                entry.waiting += 1
                try:
                    entry.condition.wait(min(remaining, 0.2))
                finally:
                    entry.waiting -= 1
        finally:
            if waited:
                self._waits_for.clear(txn_id)

    def release(self, txn_id: int, resource: Hashable) -> None:
        entry = self._peek(resource)
        if entry is None:
            return
        with entry.condition:
            if entry.holders.pop(txn_id, None) is None:
                return
            if entry.waiting:
                entry.condition.notify_all()
            else:
                self._reclaim(resource, entry)

    def release_all(self, txn_id: int, resources: list[Hashable]) -> None:
        for resource in resources:
            self.release(txn_id, resource)

    # ------------------------------------------------------------------
    # Introspection (tests / stats)
    # ------------------------------------------------------------------
    def held_mode(self, txn_id: int, resource: Hashable) -> LockMode | None:
        entry = self._peek(resource)
        if entry is None:
            return None
        with entry.condition:
            return entry.holders.get(txn_id)

    def waiter_count(self, resource: Hashable) -> int:
        entry = self._peek(resource)
        if entry is None:
            return 0
        with entry.condition:
            return entry.waiting

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-resource lock state + wait-profiling counters for
        ``bullfrog_stat_locks``.

        Entries that are idle and were never contended are skipped:
        table entries are kept while idle, and a tuple entry between its
        last release and its reclamation can be seen here too.
        """
        with self._latch:
            items = list(self._entries.items())
        rows: list[dict[str, Any]] = []
        for resource, entry in items:
            with entry.condition:
                holders = dict(entry.holders)
                waiting = entry.waiting
                wait_count = entry.wait_count
                wait_seconds = entry.wait_seconds
                deadlock_aborts = entry.deadlock_aborts
                timeouts = entry.timeouts
                last_blockers = entry.last_blockers
            if not holders and not waiting and not wait_count and not (
                deadlock_aborts or timeouts
            ):
                continue
            rows.append(
                {
                    "resource_class": resource_class(resource),
                    "resource": repr(resource),
                    "holders": sorted(holders),
                    "modes": [holders[t].name for t in sorted(holders)],
                    "waiters": waiting,
                    "wait_count": wait_count,
                    "wait_seconds": wait_seconds,
                    "deadlock_aborts": deadlock_aborts,
                    "timeouts": timeouts,
                    "last_blockers": list(last_blockers),
                }
            )
        return rows
