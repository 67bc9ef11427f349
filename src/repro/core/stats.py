"""Migration progress statistics, consumed by the benchmark harness.

Since the observability layer landed, :class:`MigrationStats` is a
*view* over :class:`~repro.obs.registry.MetricRegistry` counters rather
than a parallel counter bag — the engine's Prometheus surface and
``engine.progress()`` read the same cells, so the two can never drift.
A stats object created without a registry makes a private one, so
standalone use (tests, the eager/multi-step baselines) is unchanged.

Registry counters are process-lifetime totals; the view subtracts the
cell values captured at construction, so a second migration sharing a
registry still reports *its own* counts while the exported totals keep
accumulating (the Prometheus convention).

Thread-safety: every mutator and :meth:`snapshot` run under one stats
latch, so a snapshot can never observe a torn ``add(granules, tuples)``
(the cells' own per-metric locks stripe concurrent *export* reads, but
cross-counter consistency comes from this latch).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any

from ..obs.registry import MetricRegistry

# Time constant for the progress-rate EWMA: alpha = 1 - exp(-dt/tau),
# so irregular update intervals are weighted by how much wall time they
# actually cover.  ~2 s means the rate reflects the last few seconds of
# migration throughput — responsive enough for a live `\progress` view,
# smooth enough that per-batch jitter does not whip the ETA around.
_RATE_TAU_SECONDS = 2.0

_COUNTERS: dict[str, tuple[str, str]] = {
    "granules_migrated": (
        "bullfrog_migration_granules_migrated_total",
        "granules (pages / group keys) migrated",
    ),
    "tuples_migrated": (
        "bullfrog_migration_tuples_migrated_total",
        "output tuples produced by migration transactions",
    ),
    "skip_waits": (
        "bullfrog_migration_skip_waits_total",
        "times a worker found a granule in-progress elsewhere",
    ),
    "migration_txn_aborts": (
        "bullfrog_migration_txn_aborts_total",
        "aborted migration transactions",
    ),
    "duplicate_attempts": (
        "bullfrog_migration_duplicate_attempts_total",
        "ON CONFLICT mode: rows skipped as duplicates",
    ),
}


class MigrationStats:
    """Counters for one migration (all strategies share this shape)."""

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._latch = threading.Lock()
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.background_started_at: float | None = None
        self._cells = {
            key: self.registry.counter(name, help_text)
            for key, (name, help_text) in _COUNTERS.items()
        }
        # View baseline: this migration's counts are deltas over the
        # (possibly shared, process-lifetime) registry cells.
        self._base = {key: cell.value for key, cell in self._cells.items()}
        self._granules_planned = self.registry.gauge(
            "bullfrog_migration_granules_planned",
            "granules known upfront (bitmap units); unset for hashmap units",
        )
        self._running = self.registry.gauge(
            "bullfrog_migration_running",
            "1 while a migration is in progress, 0 once complete",
        )
        # Progress/ETA surface (PR 4): bitmap-derived completion
        # fraction plus EWMA throughput rates and the derived ETA.
        self._progress_gauge = self.registry.gauge(
            "bullfrog_migration_progress_fraction",
            "completion fraction of the running migration (granules "
            "migrated / granules planned); unset for hashmap units",
        )
        self._tuples_rate_gauge = self.registry.gauge(
            "bullfrog_migration_tuples_per_second",
            "EWMA migration throughput in output tuples per second",
        )
        self._eta_gauge = self.registry.gauge(
            "bullfrog_migration_eta_seconds",
            "estimated seconds until the running migration completes "
            "(remaining granules / EWMA granule rate)",
        )
        # EWMA state, guarded by the stats latch like every mutator.
        # Counts accumulate in the pending buckets until enough wall
        # time has passed to form a stable instantaneous rate (folding
        # sub-millisecond batches directly would blow the rate up).
        self._rate_updated_at: float | None = None
        self._tuples_rate = 0.0
        self._granules_rate = 0.0
        self._pending_tuples = 0
        self._pending_granules = 0
        # When the migration last moved anything (monotonic).  The
        # health engine's stall rule and the flight recorder's
        # migrations.json read this through
        # :meth:`last_advance_seconds`: "running, ETA says 12s, but
        # nothing has advanced for 40s" is the incident signature.
        self._last_advance_at: float | None = None

    # ------------------------------------------------------------------
    # Registry-backed counter views
    # ------------------------------------------------------------------
    def _read(self, key: str) -> int:
        return self._cells[key].value - self._base[key]

    @property
    def granules_migrated(self) -> int:
        return self._read("granules_migrated")

    @property
    def tuples_migrated(self) -> int:
        return self._read("tuples_migrated")

    @property
    def skip_waits(self) -> int:
        return self._read("skip_waits")

    @property
    def migration_txn_aborts(self) -> int:
        return self._read("migration_txn_aborts")

    @property
    def duplicate_attempts(self) -> int:
        return self._read("duplicate_attempts")

    @property
    def granules_total(self) -> int | None:
        value = self._granules_planned.value
        return None if value is None else int(value)

    @granules_total.setter
    def granules_total(self, value: int | None) -> None:
        self._granules_planned.set(value)

    # ------------------------------------------------------------------
    # Mutators (all under the stats latch)
    # ------------------------------------------------------------------
    def mark_started(self) -> None:
        with self._latch:
            if self.started_at is None:
                self.started_at = time.monotonic()
                self._running.set(1)
                # Rate baseline: the first ``add`` measures throughput
                # from migration start, not from its own timestamp.
                self._rate_updated_at = self.started_at

    def mark_completed(self) -> None:
        with self._latch:
            if self.completed_at is None:
                self.completed_at = time.monotonic()
                self._running.set(0)
                self._eta_gauge.set(0.0)
                if self.granules_total:
                    self._progress_gauge.set(1.0)

    def mark_background_started(self) -> None:
        with self._latch:
            if self.background_started_at is None:
                self.background_started_at = time.monotonic()

    def add(self, granules: int = 0, tuples: int = 0) -> None:
        with self._latch:
            self._cells["granules_migrated"].inc(granules)
            self._cells["tuples_migrated"].inc(tuples)
            if granules or tuples:
                self._last_advance_at = time.monotonic()
            self._update_rates(granules, tuples)

    def _update_rates(self, granules: int, tuples: int) -> None:
        """Fold a batch into the EWMA throughput rates (latch held)."""
        self._pending_granules += granules
        self._pending_tuples += tuples
        now = time.monotonic()
        last = self._rate_updated_at
        if last is None:
            self._rate_updated_at = now
            return
        dt = now - last
        if dt < 0.01:
            return  # keep accumulating; too short for a stable rate
        alpha = 1.0 - math.exp(-dt / _RATE_TAU_SECONDS)
        self._granules_rate += alpha * (self._pending_granules / dt - self._granules_rate)
        self._tuples_rate += alpha * (self._pending_tuples / dt - self._tuples_rate)
        self._pending_granules = 0
        self._pending_tuples = 0
        self._rate_updated_at = now
        self._tuples_rate_gauge.set(self._tuples_rate)
        total = self.granules_total
        if total:
            self._progress_gauge.set(
                min(1.0, self._read("granules_migrated") / total)
            )
        self._eta_gauge.set(self._eta_locked())

    def add_skip_wait(self, count: int = 1) -> None:
        with self._latch:
            self._cells["skip_waits"].inc(count)

    def add_abort(self) -> None:
        with self._latch:
            self._cells["migration_txn_aborts"].inc()

    def add_duplicates(self, count: int) -> None:
        with self._latch:
            self._cells["duplicate_attempts"].inc(count)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All counters read under one latch acquisition — consumers
        (``engine.progress()``, the bench pollers) would otherwise see
        torn values, e.g. ``granules_migrated`` after an ``add`` but
        ``tuples_migrated`` from before it.  The key set is frozen
        public API (the bench pollers index into it)."""
        with self._latch:
            return {
                "started_at": self.started_at,
                "completed_at": self.completed_at,
                "background_started_at": self.background_started_at,
                "granules_migrated": self._read("granules_migrated"),
                "granules_total": self.granules_total,
                "tuples_migrated": self._read("tuples_migrated"),
                "skip_waits": self._read("skip_waits"),
                "migration_txn_aborts": self._read("migration_txn_aborts"),
                "duplicate_attempts": self._read("duplicate_attempts"),
            }

    @property
    def is_complete(self) -> bool:
        return self.completed_at is not None

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def progress_fraction(self) -> float | None:
        with self._latch:
            total = self.granules_total
            if total:
                return min(1.0, self._read("granules_migrated") / total)
        return None

    def tuples_per_second(self) -> float:
        """EWMA migration throughput in output tuples/second."""
        with self._latch:
            return self._tuples_rate

    def last_advance_seconds(self) -> float | None:
        """Seconds since the migration last moved a granule or tuple;
        ``None`` before the first advance.  Falls back to the start
        timestamp so a migration that never advanced still ages."""
        with self._latch:
            anchor = self._last_advance_at
            if anchor is None:
                anchor = self.started_at
            if anchor is None:
                return None
            return time.monotonic() - anchor

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion: remaining granules over the
        EWMA granule rate.  ``None`` when the total is unknown (hashmap
        units) or no throughput has been observed yet; ``0.0`` once the
        migration completed."""
        with self._latch:
            return self._eta_locked()

    def _eta_locked(self) -> float | None:
        if self.completed_at is not None:
            return 0.0
        total = self.granules_total
        if not total or self._granules_rate <= 0.0:
            return None
        remaining = total - self._read("granules_migrated")
        if remaining <= 0:
            return 0.0
        return remaining / self._granules_rate
