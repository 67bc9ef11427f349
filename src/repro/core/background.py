"""Background migration threads (paper section 2.2).

"To ensure that all data is eventually migrated, BullFrog initiates
background migration threads that slowly inject simulated client
requests that cumulatively cover the entirety of the old tables."

In the paper's experiments the background threads "do not begin until
20 seconds after migration initiates" (section 4.1); the delay, chunk
size, and pacing are configurable here so the benchmark harness can
scale them with everything else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import LazyMigrationEngine, UnitRuntime

from ..errors import TransactionAborted
from .bitmap import MigrationBitmap
from .faults import SimulatedCrash
from .hashmap import MigrationHashMap
from .predicates import Scope


@dataclass
class BackgroundConfig:
    enabled: bool = True
    delay: float = 2.0  # seconds before the threads start (paper: 20 s)
    chunk: int = 256  # granules / anchor tuples per simulated request
    interval: float = 0.002  # pause between simulated requests
    threads: int = 1


class BackgroundMigrator:
    """Drives the engine's remaining migration work in the background."""

    def __init__(self, engine: "LazyMigrationEngine", config: BackgroundConfig) -> None:
        self.engine = engine
        self.config = config
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        # Per-unit passes completed, surfaced by engine.progress() and
        # bullfrog_stat_migrations (int updates are atomic enough for a
        # monitoring counter — no latch on the pass loop).
        self.passes = 0

    def start(self) -> None:
        for i in range(self.config.threads):
            thread = threading.Thread(
                target=self._run,
                name=f"bullfrog-background-{i}",
                args=(i,),
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        """Signal the threads to stop and join them (bounded).

        Joining matters: callers (``finalize``, ``shutdown``, bench
        teardown) must not proceed to ``drop_old_schema`` or the next
        run while a pass is still mid-``migrate_scope``.  A background
        thread may itself reach here via ``_check_completion`` →
        ``finalize``; it cannot join itself, so it is skipped (it exits
        on the stop flag as soon as it unwinds).
        """
        self._stop.set()
        current = threading.current_thread()
        for thread in self._threads:
            if thread is current or not thread.is_alive():
                continue
            thread.join(timeout)

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)

    # ------------------------------------------------------------------
    def _run(self, worker_index: int) -> None:
        try:
            self._run_passes(worker_index)
        except SimulatedCrash:
            # Fault injection killed this "process"; the harness drives
            # recovery.  Exit quietly instead of spewing a traceback.
            return

    def _run_passes(self, worker_index: int) -> None:
        if self._stop.wait(self.config.delay):
            return
        self.engine.stats.mark_background_started()
        while not self._stop.is_set():
            did_work = False
            for runtime in self.engine.units:
                if self._stop.is_set():
                    return
                if runtime.complete:
                    continue
                obs = self.engine.obs
                pass_fn = (
                    self._bitmap_pass
                    if runtime.plan.category.uses_bitmap
                    else self._hashmap_pass
                )
                context = {"unit": runtime.plan.unit_id, "worker": worker_index}
                try:
                    self.engine._seam("background.pass", **context)
                    # One span per pass: in the Chrome trace these sit on
                    # the background thread's track, visibly overlapping
                    # the foreground ``migrate.wip`` spans on the client
                    # threads.
                    start = obs.span_start() if obs is not None else 0.0
                    try:
                        did_work |= pass_fn(runtime)
                    finally:
                        if obs is not None:
                            obs.span_end(
                                "background.pass", start, cat="background", **context
                            )
                except TransactionAborted:
                    # A migration txn lost a lock conflict (deadlock victim) or
                    # a fault fired.  The abort hooks already released
                    # the claims; retry on the next round instead of
                    # letting the background thread die.
                    did_work = True
                self.passes += 1
                runtime.check_complete()
            self.engine._check_completion()
            if self.engine.is_complete:
                return
            if not did_work:
                # Everything observed was claimed/in-progress; let the
                # owning workers finish, then re-check.
                time.sleep(0.01)

    def _bitmap_pass(self, runtime: "UnitRuntime") -> bool:
        tracker = runtime.tracker
        assert isinstance(tracker, MigrationBitmap)
        did_work = False
        cursor = 0
        while not self._stop.is_set() and not tracker.all_migrated:
            chunk = list(tracker.iter_unmigrated(start=cursor, limit=self.config.chunk))
            if not chunk:
                break
            self.engine.migrate_scope(
                runtime, Scope(granules=set(chunk)), wait_for_skipped=False
            )
            did_work = True
            cursor = chunk[-1] + 1
            if cursor >= tracker.size:
                break
            if self.config.interval:
                time.sleep(self.config.interval)
        return did_work

    def _hashmap_pass(self, runtime: "UnitRuntime") -> bool:
        """One full sweep over the anchor table, migrating each
        not-yet-migrated group key.

        Completion: a sweep is *clean* when every key it observed was
        either already migrated or claimed by a client worker that went
        on to finish it.  Keys merely in-progress do not dirty the pass
        by themselves — under a sustained workload (new groups being
        created and immediately migrated by the clients that create
        them) there is always some key in flight, and requiring zero of
        them would make completion unreachable.
        """
        from .hashmap import GroupState

        tracker = runtime.tracker
        assert isinstance(tracker, MigrationHashMap)
        heap = runtime.anchor_table.heap
        positions = runtime.key_positions()
        chunk_tuples = max(self.config.chunk, 1)
        start = 0
        max_ordinal = heap.max_ordinal
        clean = True
        did_work = False
        inflight: set[tuple] = set()
        while start < max_ordinal and not self._stop.is_set():
            unclaimed: set[tuple] = set()
            for _tid, row in heap.scan_range(start, start + chunk_tuples):
                key = tuple(row[p] for p in positions)
                state = tracker.state(key)
                if state is GroupState.MIGRATED:
                    continue
                if state is GroupState.IN_PROGRESS:
                    inflight.add(key)
                else:  # absent or aborted: ours to migrate
                    unclaimed.add(key)
            if unclaimed:
                clean = False
                did_work = True
                self.engine.migrate_scope(
                    runtime, Scope(keys=unclaimed), wait_for_skipped=False
                )
            start += chunk_tuples
            if self.config.interval:
                time.sleep(self.config.interval)
        if self._stop.is_set() or start < max_ordinal:
            return did_work
        # Re-check the in-flight keys: their owners must have finished
        # (committed or aborted) for the pass to count as clean.
        deadline = time.monotonic() + 5.0
        for key in inflight:
            while (
                tracker.state(key) is GroupState.IN_PROGRESS
                and time.monotonic() < deadline
                and not self._stop.is_set()
            ):
                time.sleep(0.002)
            if not tracker.is_migrated(key):
                clean = False
                break
        if clean and not self._stop.is_set():
            runtime.swept = True
        return did_work
