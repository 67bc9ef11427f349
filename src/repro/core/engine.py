"""The lazy migration engine (paper sections 2 and 3).

``LazyMigrationEngine.submit`` performs the *logical* schema switch:
output tables are created empty, internal views record the mapping, the
old tables are retired (big flip), and a statement interceptor is
installed.  From then on every client statement that touches a new
table first runs the per-transaction migration loop of Algorithm 1 —
claiming granules through the bitmap (Algorithm 2) or hashmap
(Algorithm 3), migrating claimed data in separate transactions, and
re-checking skipped granules until the other workers' migrations commit
or abort.

Two duplicate-prevention modes are supported (section 3.7):

* ``ConflictMode.TRACKER`` — BullFrog's own lock/migrate tracking
  structures (the default);
* ``ConflictMode.ON_CONFLICT`` — no claims; rely on the output tables'
  unique indexes plus INSERT .. ON CONFLICT DO NOTHING, detecting
  duplicates at insert time at the cost of wasted work.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any, Sequence

from ..db import Database, Session, Statement
from ..exec.plan import ExecutionContext
from ..errors import (
    MigrationError,
    MigrationStateError,
    UnsupportedMigrationError,
)
from ..obs import Observability
from ..obs.tracectx import current as _trace_current
from ..txn import IsolationLevel
from .background import BackgroundConfig, BackgroundMigrator
from .bitmap import Claim, MigrationBitmap
from .classify import UnitPlan
from .faults import FaultInjector
from .granularity import GranuleMapper
from .hashmap import MigrationHashMap
from .migration import MigrationSpec, parse_migration
from .predicates import PredicateTransfer, Scope
from .production import Bound, Production, create_outputs
from .stats import MigrationStats


# Latch partitions of every tracker (MigrationBitmap / MigrationHashMap).
TRACKER_PARTITIONS = 16


class ConflictMode(Enum):
    TRACKER = "tracker"
    ON_CONFLICT = "on-conflict"


def _nulls_first(key: tuple) -> tuple:
    """Sort key for group keys: claims go in one global order, and a
    NULL key part (the NULL group) orders before any value."""
    return tuple((part is not None, part) for part in key)


class UnitRuntime:
    """Everything needed to migrate one unit at run time.

    The tracker kind — bitmap over anchor granules (Algorithm 2) or
    hashmap over group keys (Algorithm 3) — is decided here, once: the
    engine above only ever asks a runtime for the units a scope covers,
    to produce or project them, and to release their claims.
    """

    def __init__(self, engine: "LazyMigrationEngine", plan: UnitPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.catalog = engine.db.catalog
        self.anchor_table = self.catalog.table(plan.anchor)
        self.complete = False
        self.swept = False  # hashmap units: background finished a clean pass
        self._latch = threading.Lock()

        granule_size = engine.granule_size
        self.transfer = PredicateTransfer(
            plan, self.catalog, engine.db.planner, granule_size
        )
        # The unit's rewritten migration DDL: per output, its INSERT ..
        # SELECT pinned to a TID range (bitmap) or a group key (hashmap).
        self.production = Production(
            engine.db, plan, on_conflict=engine.conflict_mode is ConflictMode.ON_CONFLICT
        )
        if plan.category.uses_bitmap:
            self.mapper: GranuleMapper | None = GranuleMapper(
                self.anchor_table.heap, granule_size
            )
            self._produce, self._release = "produce_bitmap_granules", "reset"
            self.units_in = self._granules_in
        else:
            self.mapper = None
            self._produce, self._release = "produce_keys", "mark_aborted"
            self.units_in = self._keys_in
        self.tracker = self.new_tracker()

    def new_tracker(self) -> MigrationBitmap | MigrationHashMap:
        """A fresh, empty tracker for this unit (submit; crash recovery
        re-creates the volatile state the same way)."""
        if self.mapper is None:
            return MigrationHashMap(partitions=TRACKER_PARTITIONS)
        return MigrationBitmap(self.mapper.granule_count, partitions=TRACKER_PARTITIONS)

    # ------------------------------------------------------------------
    # Scope -> units
    # ------------------------------------------------------------------
    def _granules_in(self, scope: Scope, unmigrated_only: bool = False) -> Sequence:
        """The scope's granules the migration owns: those below the
        tracker's size.  Rows inserted after submit lie past it and
        belong to the application (section 4.2)."""
        if not scope.full:
            size = self.tracker.size
            return sorted(g for g in scope.granules if g < size)
        if unmigrated_only:
            return list(self.tracker.iter_unmigrated())
        return range(self.tracker.size)

    def _keys_in(self, scope: Scope, unmigrated_only: bool = False) -> Sequence:
        return sorted(self.all_keys() if scope.full else scope.keys, key=_nulls_first)

    def key_positions(self) -> list[int]:
        schema = self.anchor_table.schema
        return [schema.column_index(c) for c in self.plan.key_columns]

    def all_keys(self) -> set[tuple]:
        positions = self.key_positions()
        return {
            tuple(row[p] for p in positions)
            for _tid, row in self.anchor_table.heap.scan()
        }

    # ------------------------------------------------------------------
    # Production
    # ------------------------------------------------------------------
    def produce(self, units: Sequence, session: Session) -> int:
        """Materialize the output rows of claimed granules / group keys
        inside the session's open transaction; returns tuples produced.
        The producer is looked up on the instance per call so a test can
        swap ``produce_bitmap_granules`` / ``produce_keys`` there."""
        return getattr(self, self._produce)(units, session)

    def produce_bitmap_granules(
        self, granules: Sequence[int], session: Session
    ) -> int:
        """Bitmap units: one execution per output per TID range, one
        range per run of adjacent granules."""
        return self._insert(self.production.ranges(self.mapper.runs(granules)), session)

    def produce_keys(self, keys: Sequence[tuple], session: Session) -> int:
        """Hashmap units: one execution per output per group key."""
        return self._insert(self.production.keys(keys), session)

    def _insert(self, bound: Bound, session: Session) -> int:
        produced, duplicates = self.production.produce(bound, session._context())
        if duplicates:
            self.engine.stats.add_duplicates(duplicates)
        return produced

    def project(self, units: Sequence, ctx: ExecutionContext) -> dict[str, list[tuple]]:
        """Compute the output rows the given granules / group keys
        *would* produce, from the input rows ``ctx`` reads.  Nothing is
        written, locked, or claimed — snapshot readers consume the
        result as an overlay instead of waiting for the units to
        migrate, and the invariant checker as ground truth."""
        production, mapper = self.production, self.mapper
        bound = production.keys(units) if mapper is None else production.ranges(mapper.runs(units))
        return production.project(bound, ctx)

    # ------------------------------------------------------------------
    # Claims and completion
    # ------------------------------------------------------------------
    def release_claims(self, units: Sequence) -> None:
        """Abort handling (section 3.5): claimed granules return to
        ``[0 0]``, claimed groups flip to ``abort`` — either way another
        worker may re-claim them."""
        tracker = self.tracker  # read per call: crash recovery swaps it
        getattr(tracker, self._release)(units)
        tracker.clear_stamps(units)

    def check_complete(self) -> bool:
        if self.complete:
            return True
        done = self.tracker.all_migrated if self.mapper is not None else self.swept
        if done:
            with self._latch:
                self.complete = True
        return self.complete

    def progress(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "unit": self.plan.unit_id,
            "category": self.plan.category.value,
            "complete": self.complete,
            "migrated": self.tracker.migrated_count,
        }
        if isinstance(self.tracker, MigrationBitmap):
            info["total"] = self.tracker.size
            if self.tracker.size:
                info["fraction"] = min(
                    1.0, info["migrated"] / self.tracker.size
                )
        return info


class LazyMigrationEngine:
    """BullFrog's lazy, request-driven migration engine."""

    def __init__(
        self,
        db: Database,
        granule_size: int = 1,
        conflict_mode: ConflictMode = ConflictMode.TRACKER,
        background: BackgroundConfig | None = None,
        skip_wait_timeout: float = 30.0,
        big_flip: bool = True,
        tracking_enabled: bool = True,
        fkpk_join_mode: str = "fkit-bitmap",
        faults: FaultInjector | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.db = db
        # Fault injection (repro.core.faults).  ``None`` in production:
        # every injection point is a single ``is not None`` check.
        self.faults = faults
        # Observability (repro.obs): same zero-cost-when-detached
        # contract as faults; defaults to whatever the database carries
        # so attaching once at the Database covers the engine too.
        self.obs = obs if obs is not None else getattr(db, "obs", None)
        self.granule_size = granule_size
        self.conflict_mode = conflict_mode
        # tracking_enabled=False removes the claim/latch protocol and
        # keeps only completion bookkeeping — the paper's section 4.4.1
        # "no bitmap" variant, valid only when accesses are disjoint.
        self.tracking_enabled = tracking_enabled
        self.fkpk_join_mode = fkpk_join_mode
        self.background_config = background or BackgroundConfig()
        self.skip_wait_timeout = skip_wait_timeout
        self.big_flip = big_flip
        self.spec: MigrationSpec | None = None
        self.units: list[UnitRuntime] = []
        self.stats = MigrationStats(
            registry=self.obs.registry if self.obs is not None else None
        )
        self._background: BackgroundMigrator | None = None
        self._complete_event = threading.Event()
        # MVCC garbage collection: total tuple versions unlinked from
        # the version chains of this migration's input/output heaps.
        self._versions_pruned = 0
        self._pruned_latch = threading.Lock()
        # Self-register for introspection: the bullfrog_stat_migrations
        # system view iterates the database's engines.
        register = getattr(db, "register_migration_engine", None)
        if register is not None:
            register(self)

    # ==================================================================
    # Submission: the logical switch (section 2.1)
    # ==================================================================
    def submit(
        self, migration_id: str, ddl: str, resume: bool = False
    ) -> "MigrationHandle":
        """Register the migration and perform the logical switch.

        ``resume=True`` attaches to output tables/views that already
        exist — the crash-recovery path (section 3.5): a crash loses
        only the volatile trackers (heap data survives; the redo log
        holds MIGRATE records, no row data), so the migration is
        re-submitted with ``resume=True`` over its surviving outputs and
        the trackers are restored from those records via
        :func:`repro.core.recovery.rebuild_trackers`.
        """
        if self.spec is not None:
            raise MigrationStateError(
                "a migration is already registered on this engine"
            )
        spec = parse_migration(
            migration_id, ddl, self.db.catalog, self.fkpk_join_mode
        )
        # 1-2. Create the output tables (empty) and their indexes.
        create_outputs(self.db, spec, resume=resume)
        # 3. Internal views recording the mapping (the paper's
        #    FLEWONINFO_VIEW): used by tooling/EXPLAIN; the predicate
        #    transfer machinery works from the same SELECTs.
        for unit in spec.units:
            for output in unit.outputs:
                view_name = f"{output.table}_bullfrog_view"
                if resume and self.db.catalog.has_view(view_name):
                    continue
                self.db.catalog.create_view(
                    view_name, output.select, internal=True
                )

        # 4. Build runtime state (trackers, production statements).
        self.units = [UnitRuntime(self, unit) for unit in spec.units]
        for runtime in self.units:
            if isinstance(runtime.tracker, MigrationBitmap):
                self.stats.granules_total = (
                    self.stats.granules_total or 0
                ) + runtime.tracker.size
        if self.conflict_mode is ConflictMode.ON_CONFLICT:
            self._require_unique_outputs()

        # 5. Big flip: retire the old tables; subsequent requests against
        #    them are rejected (section 2.1).
        if self.big_flip:
            for table_name in spec.input_tables:
                self.db.catalog.retire_table(table_name)
        self.db.bump_epoch()

        # 6. Intercept client statements from now on.
        self.spec = spec
        self.db.set_statement_interceptor(self._intercept)
        self.stats.mark_started()
        if self.obs is not None:
            self.obs.emit("migrate.submit", resume=resume, **spec.summary())

        # 7. Background migration threads (section 2.2), after a delay.
        if self.background_config.enabled:
            self._background = BackgroundMigrator(self, self.background_config)
            self._background.start()
        return MigrationHandle(self)

    def _require_unique_outputs(self) -> None:
        for runtime in self.units:
            for output in runtime.plan.outputs:
                table = self.db.catalog.table(output.table)
                if not table.schema.unique_column_sets():
                    raise UnsupportedMigrationError(
                        f"ON CONFLICT mode requires a unique constraint on "
                        f"output table {output.table!r} (section 3.7)"
                    )

    # ==================================================================
    # Interception (section 2.1) — migrate, then let the request run
    # ==================================================================
    def _intercept(
        self, session: Session, handle: Statement, params: Sequence[Any]
    ) -> None:
        if self._complete_event.is_set():
            return
        if (
            handle.runner == "run_select"
            and self.tracking_enabled
            and self.conflict_mode is ConflictMode.TRACKER
        ):
            # Snapshot readers never wait on migration: instead of
            # migrating the statement's scope synchronously, pin a
            # snapshot timestamp and serve not-yet-visibly-migrated
            # granules from a pre-migration overlay.  DML and SELECT ...
            # FOR UPDATE still take the synchronous path below — writes
            # and row locks must target the real output rows.
            snapshot_ts = self._snapshot_ts_for(session)
            if snapshot_ts is not None:
                self._prepare_snapshot_read(session, handle, params, snapshot_ts)
                return
        for runtime, scope in self._scopes(handle, params):
            self.migrate_scope(runtime, scope)
        self._check_completion()

    def _scopes(self, handle: Statement, params: Sequence[Any]):
        """(unit, non-empty scope) for each unit of the statement's
        migration plan that is not complete yet.

        The plan lives on the handle (``Statement.migration``): the
        units the statement can touch — its DML target and FROM tables,
        and the FK parents of an INSERT's table — each with the
        ``fn(params) -> Scope`` its :class:`PredicateTransfer` compiled.
        It is built on the first interception and again after a schema
        epoch bump (a DDL may add a key, an FK or an index), so an
        execution parses, plans and compiles nothing."""
        plan = handle.migration
        epoch = self.db.epoch
        if plan is None or plan[0] is not self or plan[1] != epoch:
            stmt = handle.ast
            plan = handle.migration = (self, epoch, [
                (runtime, scope_of)
                for runtime in self.units
                if (scope_of := runtime.transfer.compile_scope(stmt)) is not None
            ])
        for runtime, scope_of in plan[2]:
            if not runtime.complete:
                scope = scope_of(params)
                if not scope.is_empty:
                    yield runtime, scope

    # ------------------------------------------------------------------
    # Snapshot reads during migration (never block on in-flight granules)
    # ------------------------------------------------------------------
    def _snapshot_ts_for(self, session: Session) -> int | None:
        """The snapshot timestamp this statement will read at, or None
        if it runs under plain read-committed 2PL."""
        txn = session._txn
        if txn is not None:
            return txn.snapshot_ts  # None for read-committed txns
        if session.effective_isolation is IsolationLevel.SNAPSHOT:
            # Autocommit: the read (no transaction, ``Session._run_read``)
            # runs at the very timestamp the overlay is computed against,
            # and the pin keeps version GC above it until the read ends.
            ts = self.db.txns.pin_snapshot()
            session._pending_snapshot_ts = ts
            return ts
        return None

    @staticmethod
    def _visibly_migrated(tracker, granule, snapshot_ts: int) -> bool:
        """Whether the granule's output rows are visible at the snapshot.

        The claiming transaction's stamp (recorded at claim time) is
        authoritative: committed at ``ts <= snapshot_ts`` means the
        output table already serves this granule at the snapshot — even
        inside the commit-to-mark_migrated window.  A granule migrated
        without a stamp (recovery rebuild, pre-MVCC trackers) replayed
        under the bootstrap stamp and is visible to every snapshot."""
        stamp = tracker.stamp_of(granule)
        if stamp is None:
            return tracker.is_migrated(granule)
        return stamp.ts is not None and not stamp.aborted and stamp.ts <= snapshot_ts

    def _prepare_snapshot_read(
        self,
        session: Session,
        handle: Statement,
        params: Sequence[Any],
        snapshot_ts: int,
    ) -> None:
        """Build the pre-migration overlay for a snapshot SELECT.

        The timestamp is pinned *before* checking migration visibility:
        a migration committing afterwards gets a later timestamp, so its
        output rows are invisible at this snapshot and the overlay rows
        (projected from input versions visible at the snapshot) cannot
        double-count with them."""
        txn = session._txn
        ctx = ExecutionContext(
            self.db.catalog, None, allow_retired=True, snapshot_ts=snapshot_ts,
            own_stamp=txn.stamp if txn is not None else None,
        )
        overlay: dict[str, list[tuple]] = {}
        for runtime, scope in self._scopes(handle, params):
            tracker = runtime.tracker
            pending = [
                unit
                for unit in runtime.units_in(scope)
                if not self._visibly_migrated(tracker, unit, snapshot_ts)
            ]
            if not pending:
                continue
            for name, rows in runtime.project(pending, ctx).items():
                overlay.setdefault(name, []).extend(rows)
        session._pending_overlay = overlay or None
        if self.obs is not None and overlay:
            self.obs.emit(
                "migrate.snapshot_overlay",
                snapshot_ts=snapshot_ts,
                tables=len(overlay),
                rows=sum(len(r) for r in overlay.values()),
            )

    # ==================================================================
    # Algorithm 1: the per-transaction migration loop
    # ==================================================================
    def migrate_scope(
        self,
        runtime: UnitRuntime,
        scope: Scope,
        wait_for_skipped: bool = True,
    ) -> None:
        if runtime.complete or scope.is_empty:
            return
        pending = runtime.units_in(scope, unmigrated_only=True)
        self._run_migration_loop(runtime, pending, wait=wait_for_skipped)
        runtime.check_complete()

    def _run_migration_loop(
        self, runtime: UnitRuntime, pending: Sequence, wait: bool
    ) -> None:
        """Algorithm 1: claim → migrate in a separate transaction → mark
        migrated → loop over SKIP until drained.

        ``pending`` holds distinct granules / group keys, so Algorithm
        3's worker-local membership checks (lines 2-3: "already in my
        WIP / SKIP list") can never fire and both tracker kinds are
        claimed through the same one-argument ``try_begin``."""
        tracker = runtime.tracker
        if self.conflict_mode is ConflictMode.ON_CONFLICT or not self.tracking_enabled:
            # Claim-free paths.  ON_CONFLICT (section 3.7): duplicates
            # are detected by the output tables' unique indexes at
            # insert time.  Tracking disabled (section 4.4.1): no
            # duplicate prevention at all — valid only for disjoint
            # access patterns.  The tracker keeps completion
            # bookkeeping only.
            todo = [g for g in pending if not tracker.is_migrated(g)]
            if todo:
                self._migrate(runtime, todo, claimed=False)
            return
        faults = self.faults
        obs = self.obs
        deadline = time.monotonic() + self.skip_wait_timeout
        while pending:
            if obs is not None:
                obs.inc_claim_round()
            if faults is not None and "migrate.before_claim" in faults.watching:
                faults.fire(
                    "migrate.before_claim",
                    unit=runtime.plan.unit_id,
                    pending=len(pending),
                )
            wip: list = []
            skip: list = []
            for granule in pending:
                claim = tracker.try_begin(granule)  # Algorithm 2 / 3
                if claim is Claim.MIGRATE:
                    wip.append(granule)
                elif claim is Claim.SKIP:
                    skip.append(granule)
            if obs is not None and (wip or skip):
                # The instant is emitted only for rounds that found
                # work: the steady-state round (everything already
                # migrated) is the no-op hot loop the <5% tracing
                # budget prices, and an every-round instant was its
                # single largest line item.  The counter above stays
                # exact for all rounds.
                obs.trace_point(
                    "migrate.before_claim",
                    unit=runtime.plan.unit_id,
                    pending=len(pending),
                    wip=len(wip),
                    skip=len(skip),
                )
            if wip:
                self._migrate(runtime, wip, claimed=True)
                # Productive iteration: time spent migrating our own WIP
                # must not count against the skip-wait timeout, or large
                # batches spuriously time out on granules other workers
                # finish promptly.
                deadline = time.monotonic() + self.skip_wait_timeout
            if not skip or not wait:
                break
            # Re-check skipped granules in a fresh iteration: the other
            # worker either completes (DONE) or aborts (re-claimable).
            self.stats.add_skip_wait(len(skip))
            pending = skip
            if time.monotonic() > deadline:
                raise MigrationError(
                    f"timed out waiting for {len(skip)} granule(s) being "
                    f"migrated by other workers (unit {runtime.plan.unit_id})"
                )
            time.sleep(0.0002)

    def _migrate(self, runtime: UnitRuntime, granules: list, claimed: bool) -> int:
        """Run one migration transaction; with observability attached it
        becomes one ``migrate.wip`` span (produce -> commit -> mark),
        which is what makes foreground migration cost visible next to
        the background passes in the Chrome trace."""
        obs = self.obs
        if obs is None:
            return self._migration_txn(runtime, granules, claimed)
        start = obs.span_start()
        produced: int | None = None
        try:
            produced = self._migration_txn(runtime, granules, claimed)
            return produced
        finally:
            obs.observe_wip(
                start,
                unit=runtime.plan.unit_id,
                wip=len(granules),
                produced=produced,
            )

    def _migration_txn(
        self, runtime: UnitRuntime, granules: list, claimed: bool
    ) -> int:
        """The migration transaction (Algorithm 1 lines 5-9): produce
        the granules' output rows in a transaction of their own, commit,
        then set their migrate bits.  ``claimed`` says the caller holds
        the granules' lock bits (TRACKER mode) and they must be given
        back if the transaction aborts."""
        tracker = runtime.tracker
        unit = runtime.plan.unit_id
        count = len(granules)
        # The engine's own session: not a client (no interception, no
        # statement stats), may read retired inputs.
        session = self.db.connect(allow_retired=True)
        session.internal = True
        session.begin()
        txn = session._txn
        assert txn is not None
        if claimed:
            # Stamp the claims with this transaction's commit stamp
            # *before* producing: the instant the transaction commits
            # (the shared stamp gains a timestamp) the granules become
            # visibly migrated to later snapshots, closing the
            # commit-to-mark_migrated window for snapshot readers.
            tracker.set_stamps(granules, txn.stamp)
            txn.on_abort(lambda: runtime.release_claims(granules))
        try:
            produced = runtime.produce(granules, session)
            self._seam(
                "migrate.after_produce", unit=unit, wip=count, produced=produced
            )
            txn.record_migration(unit, runtime.plan.anchor, tuple(granules))
            session.commit()
        except BaseException:
            # Usually the lock manager already aborted the txn
            # (deadlock victim) and the abort hook released our claims.  But an
            # exception from any other source (fault injection, failed
            # production, a conflict surfacing at commit) leaves the txn
            # ACTIVE and its locks held — roll back so nothing leaks.
            if session.in_transaction:
                session.rollback()
            self.stats.add_abort()
            raise
        # The committed-but-untracked window: a crash between COMMIT and
        # mark_migrated leaves the migrate bits unset; recovery replays
        # the WAL's MIGRATE record to restore them (section 3.5).
        self._seam("migrate.before_mark", unit=unit, wip=count)
        tracker.mark_migrated(granules)  # Algorithm 1 lines 8-9
        self.stats.add(granules=count, tuples=produced)
        ctx = _trace_current()
        if ctx is not None:
            # Foreground statement pulled this migration in: the work
            # lands in its slow-query record.
            ctx.note("granules", count)
            ctx.note("tuples", produced)
        self._seam("migrate.after_commit", unit=unit, wip=count)
        return produced

    def _seam(self, point: str, **context: Any) -> None:
        """A named seam on the migration path: the observability event,
        then the fault-injection point of the same name (which may
        raise).  Both are ``None`` in production."""
        obs = self.obs
        if obs is not None:
            obs.emit(point, **context)
        faults = self.faults
        if faults is not None and point in faults.watching:
            faults.fire(point, **context)

    # ==================================================================
    # Completion
    # ==================================================================
    def _check_completion(self) -> None:
        if self._complete_event.is_set():
            return
        if all(runtime.check_complete() for runtime in self.units):
            self.finalize()

    def prune_versions(self) -> int:
        """Bulk MVCC garbage collection over this migration's heaps.

        Commits prune the chains they supersede; this pass cuts what a
        snapshot held back then — versions below the oldest snapshot any
        active transaction could still read, and aborted versions — on
        the input and output tables.  Safe to call at any time; run
        automatically at :meth:`finalize`.  Returns versions unlinked."""
        horizon = self.db.txns.oldest_snapshot_ts()
        tables: set[str] = set()
        if self.spec is not None:
            tables.update(self.spec.input_tables)
        for runtime in self.units:
            tables.update(runtime.plan.output_tables)
        pruned = 0
        for name in sorted(tables):
            if self.db.catalog.has_table(name):
                pruned += self.db.catalog.table(name).prune_versions(horizon)
        if pruned:
            with self._pruned_latch:
                self._versions_pruned += pruned
        return pruned

    @property
    def versions_pruned(self) -> int:
        with self._pruned_latch:
            return self._versions_pruned

    def finalize(self) -> None:
        if self._complete_event.is_set():
            return
        self.stats.mark_completed()
        self._complete_event.set()
        self.db.set_statement_interceptor(None)
        self.prune_versions()
        self.db.txns.wal.discard_migration(
            {runtime.plan.unit_id for runtime in self.units}
        )
        if self.obs is not None:
            snapshot = self.stats.snapshot()
            self.obs.emit(
                "migrate.complete",
                migration=self.spec.migration_id if self.spec else None,
                granules=snapshot["granules_migrated"],
                tuples=snapshot["tuples_migrated"],
                duration=self.stats.duration,
            )
        if self._background is not None:
            # stop() joins (bounded): finalize must not return while a
            # background pass is still mid-migrate_scope, or teardown /
            # drop_old_schema races the tail of the sweep.
            self._background.stop()

    @property
    def is_complete(self) -> bool:
        return self._complete_event.is_set()

    def await_completion(self, timeout: float | None = None) -> bool:
        return self._complete_event.wait(timeout)

    def shutdown(self) -> None:
        """Stop background threads and detach the interceptor without
        completing the migration (bench teardown / abandoning a run)."""
        if self._background is not None:
            self._background.stop()
        if self.db._interceptor == self._intercept:
            self.db.set_statement_interceptor(None)

    def drop_old_schema(self) -> None:
        """After completion the old tables can be deleted (section 2.2)."""
        if not self.is_complete:
            raise MigrationStateError("migration has not completed yet")
        assert self.spec is not None
        for table_name in self.spec.input_tables:
            self.db.catalog.drop_table(table_name, if_exists=True)
        self.db.bump_epoch()

    def progress(self) -> dict[str, Any]:
        snapshot = self.stats.snapshot()
        return {
            "migration": self.spec.migration_id if self.spec else None,
            "complete": self.is_complete,
            "granules_migrated": snapshot["granules_migrated"],
            "granules_total": snapshot["granules_total"],
            "tuples_migrated": snapshot["tuples_migrated"],
            "skip_waits": snapshot["skip_waits"],
            "aborts": snapshot["migration_txn_aborts"],
            "duplicates": snapshot["duplicate_attempts"],
            # Progress/ETA surface (PR 4): bitmap-derived completion
            # fraction, EWMA throughput, and estimated time remaining.
            "versions_pruned": self.versions_pruned,
            "fraction": 1.0 if self.is_complete else self.stats.progress_fraction(),
            "tuples_per_sec": self.stats.tuples_per_second(),
            "eta_seconds": self.stats.eta_seconds(),
            # Stall forensics (PR 9): how long since anything moved.
            # The health engine's migration_stalled rule and the flight
            # recorder's migrations.json both key off this.
            "last_advance_seconds": self.stats.last_advance_seconds(),
            "background_passes": (
                self._background.passes if self._background is not None else 0
            ),
            "units": [runtime.progress() for runtime in self.units],
        }


class MigrationHandle:
    """What :meth:`LazyMigrationEngine.submit` returns to the caller."""

    def __init__(self, engine: LazyMigrationEngine) -> None:
        self.engine = engine

    @property
    def is_complete(self) -> bool:
        return self.engine.is_complete

    def await_completion(self, timeout: float | None = None) -> bool:
        return self.engine.await_completion(timeout)

    def progress(self) -> dict[str, Any]:
        return self.engine.progress()

    @property
    def stats(self) -> MigrationStats:
        return self.engine.stats

    def drop_old_schema(self) -> None:
        self.engine.drop_old_schema()
