"""Lock manager: strict two-phase locking with deadlock detection.

Resources are hashable keys: ``("table", name)``, ``("tuple", name, tid)``
and an inserter's ``("txn", id)``.  Modes follow the classic hierarchy:

    IS < IX < S < X   (SIX omitted; the engine does not need it)

One latch, ``LockManager._latch``, guards the table of entries and the
state of every entry, so an uncontended acquire or release is one latch
round trip and a few dict operations.  An entry gets a
``threading.Condition`` over that same latch on its first wait; waiting
releases the latch.  Re-requests of a lock a transaction already holds
seldom get here: :class:`repro.txn.manager.Transaction` keeps its own
resource -> mode table and answers covered requests (:func:`covers`)
from it.

Deadlocks are detected: blocked requesters register edges in a global
waits-for graph (latched after the table latch, never before); a cycle
check runs before every sleep, since the holders may change while a
requester sleeps, and the requester that *closes* a cycle dies
(:class:`repro.errors.DeadlockAvoided`).  Everyone else queues, which
is what makes the eager-migration baseline behave like the paper's:
client transactions pile up behind the migration's exclusive table
locks instead of failing fast.  A configurable timeout bounds
pathological waits.

A tuple or txn entry is dropped when its last holder releases it,
unless someone waits on it or it was ever contended (its wait-profiling
counters are what ``bullfrog_stat_locks`` reports).  Table entries,
few and hot, stay.  Observability hooks run after the latch is
released.
"""

from __future__ import annotations

import threading
import time
from enum import IntEnum
from typing import Any, Hashable, Iterable

from ..errors import DeadlockAvoided, LockTimeout


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


def covers(held: LockMode, mode: LockMode) -> bool:
    """True if holding ``held`` already grants a request for ``mode``."""
    return held >= mode and not (held == LockMode.IX and mode == LockMode.S)


class _LockEntry:
    """State of one lockable resource, guarded by the manager's latch.

    Beyond the live lock state, each entry accumulates wait-profiling
    counters (updated only on the contended path): cumulative wait
    time, wait events, aborts attributed to this resource, and the
    holder set observed by the most recent waiter (blocker attribution
    for ``bullfrog_stat_locks``).
    """

    __slots__ = (
        "holders",
        "reclaim",
        "condition",
        "waiting",
        "wait_count",
        "wait_seconds",
        "deadlock_aborts",
        "timeouts",
        "last_blockers",
    )

    def __init__(self, holders: dict[int, LockMode], resource: Hashable) -> None:
        self.holders = holders
        # Tuple and txn entries leave once idle and never contended.
        self.reclaim = resource_class(resource) != "table"
        # Built on the first wait, over the manager's latch.
        self.condition: threading.Condition | None = None
        self.waiting = 0
        self.wait_count = 0
        self.wait_seconds = 0.0
        self.deadlock_aborts = 0
        self.timeouts = 0
        self.last_blockers: tuple[int, ...] = ()


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

    def clear(self, waiter: int) -> None:
        with self._latch:
            self._edges.pop(waiter, None)


class LockManager:
    """Central lock table shared by all transactions of a database."""

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._entries: dict[Hashable, _LockEntry] = {}
        self._latch = threading.Lock()
        self._waits_for = _WaitsForGraph()
        # Optional observability (repro.obs.Observability), set by the
        # Database when one is attached; None keeps the uncontended
        # acquire path free of any accounting.
        self.obs: Any = None

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, txn_id: int, resource: Hashable, mode: LockMode) -> bool:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txn_id``.

        Returns True if a new/upgraded lock was taken, False if the
        transaction already held a covering mode.  Raises
        DeadlockAvoided or LockTimeout.
        """
        with self._latch:
            entry = self._entries.get(resource)
            if entry is None:
                self._entries[resource] = _LockEntry({txn_id: mode}, resource)
                return True
            holders = entry.holders
            held = holders.get(txn_id)
            if held is not None and covers(held, mode):
                return False
            target = mode if held is None else supremum(held, mode)
            for other, other_mode in holders.items():
                if other != txn_id and not _COMPATIBLE[other_mode][target]:
                    break
            else:
                holders[txn_id] = target
                return True
            seconds, blockers, error = self._wait(entry, txn_id, resource, target)
        obs = self.obs
        if obs is not None:
            obs.observe_lock_wait(resource_class(resource), seconds, blockers)
            if isinstance(error, DeadlockAvoided):
                obs.count_deadlock()
            elif isinstance(error, LockTimeout):
                obs.count_lock_timeout()
        if error is not None:
            raise error
        return True

    def _wait(
        self, entry: _LockEntry, txn_id: int, resource: Hashable, target: LockMode
    ) -> tuple[float, tuple[int, ...], Exception | None]:
        """The contended path of :meth:`acquire`, entered and left with
        the latch held: wait until ``target`` is grantable, the request
        closes a deadlock cycle, or the timeout passes.  Returns the
        wait's duration, the last blockers seen and the error to raise
        (None once granted); the entry's counters are already updated."""
        started = time.monotonic()
        deadline = started + self.timeout
        if entry.condition is None:
            entry.condition = threading.Condition(self._latch)
        error: Exception | None = None
        blockers: tuple[int, ...] = ()
        try:
            while True:
                conflicting = {
                    other
                    for other, other_mode in entry.holders.items()
                    if other != txn_id and not _COMPATIBLE[other_mode][target]
                }
                if not conflicting:
                    entry.holders[txn_id] = target
                    break
                blockers = tuple(sorted(conflicting))
                entry.last_blockers = blockers
                if self._waits_for.would_deadlock(txn_id, conflicting):
                    entry.deadlock_aborts += 1
                    error = DeadlockAvoided(
                        f"deadlock detected: transaction {txn_id} "
                        f"waiting on {resource!r} closes a cycle"
                    )
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    entry.timeouts += 1
                    error = LockTimeout(
                        f"transaction {txn_id} timed out waiting for "
                        f"{target.name} lock on {resource!r}"
                    )
                    break
                entry.waiting += 1
                try:
                    entry.condition.wait(min(remaining, 0.2))
                finally:
                    entry.waiting -= 1
        finally:
            self._waits_for.clear(txn_id)
        seconds = time.monotonic() - started
        entry.wait_count += 1
        entry.wait_seconds += seconds
        entry.last_blockers = blockers
        return seconds, blockers, error

    def release(self, txn_id: int, resource: Hashable) -> None:
        self.release_all(txn_id, (resource,))

    def release_all(self, txn_id: int, resources: Iterable[Hashable]) -> None:
        """Release every resource in ``resources`` under one latch hold,
        waking only the entries someone waits on."""
        entries = self._entries
        with self._latch:
            for resource in resources:
                entry = entries.get(resource)
                if entry is None or entry.holders.pop(txn_id, None) is None:
                    continue
                if entry.waiting:
                    entry.condition.notify_all()
                elif entry.reclaim and not (entry.holders or entry.wait_count):
                    del entries[resource]

    # ------------------------------------------------------------------
    # Introspection (tests / stats)
    # ------------------------------------------------------------------
    def held_mode(self, txn_id: int, resource: Hashable) -> LockMode | None:
        with self._latch:
            entry = self._entries.get(resource)
            return None if entry is None else entry.holders.get(txn_id)

    def waiter_count(self, resource: Hashable) -> int:
        with self._latch:
            entry = self._entries.get(resource)
            return 0 if entry is None else entry.waiting

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-resource lock state + wait-profiling counters for
        ``bullfrog_stat_locks``.  Idle table entries that were never
        contended are skipped."""
        with self._latch:
            items = [
                (resource, dict(entry.holders), entry.waiting, entry.wait_count,
                 entry.wait_seconds, entry.deadlock_aborts, entry.timeouts,
                 entry.last_blockers)
                for resource, entry in self._entries.items()
                if entry.holders or entry.wait_count or entry.waiting
            ]
        return [
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
            for (resource, holders, waiting, wait_count, wait_seconds,
                 deadlock_aborts, timeouts, last_blockers) in items
        ]
