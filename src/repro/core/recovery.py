"""Tracker recovery from the REDO log (paper section 3.5).

"BullFrog's status tracking data structures are stored in volatile
memory.  Upon a crash, they must be reinitialized.  While the REDO log
is scanned during recovery, for each tuple (or group) that is found in
a committed migration transaction, the corresponding status is set to
[0 1] in the bitmap or migrated in the hashmap."

The paper notes this feature was *not* implemented in their codebase
(footnote 5); we implement it here.  Every migration transaction logs a
``MIGRATE`` record listing the granules it migrated; after a simulated
crash (:func:`simulate_crash`), :func:`rebuild_trackers` replays the
committed records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import LazyMigrationEngine

from ..txn.wal import LogOp, RedoLog


def simulate_crash(engine: "LazyMigrationEngine") -> None:
    """Wipe the volatile tracker state (what a crash would destroy),
    leaving heap data and the REDO log intact."""
    for runtime in engine.units:
        runtime.tracker = runtime.new_tracker()
        runtime.complete = False
        runtime.swept = False


def rebuild_trackers(engine: "LazyMigrationEngine", wal: RedoLog | None = None) -> int:
    """Scan committed MIGRATE records and restore tracker state.

    Returns the number of granules/groups restored.  In-progress (lock)
    bits are *not* restored — uncommitted migrations are simply redone
    lazily, which is safe because duplicate prevention re-engages.
    """
    if wal is None:
        wal = engine.db.txns.wal
    by_unit = {runtime.plan.unit_id: runtime for runtime in engine.units}
    restored = 0
    for record in wal.iter_committed():
        if record.op is not LogOp.MIGRATE:
            continue
        migration_id, _input_table, granules = record.payload
        runtime = by_unit.get(migration_id)
        if runtime is None:
            continue
        runtime.tracker.mark_migrated(granules)
        restored += len(granules)
    for runtime in engine.units:
        runtime.check_complete()
    engine._check_completion()
    return restored
