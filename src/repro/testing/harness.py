"""Fault-injection harness: engine lifecycle under adversity.

Drives one lazy migration with a :class:`~repro.core.faults.FaultPlan`
attached, a pool of client threads hammering the new schema, and —
when a ``CRASH`` rule fires — the full section 3.5 recovery drill:

1. the crashed engine is discarded (its trackers are volatile memory:
   they die with the process) after its background threads are joined;
2. a fresh engine re-attaches with ``submit(resume=True)`` — the output
   tables and views already exist and keep their pre-crash contents;
3. :func:`~repro.core.recovery.rebuild_trackers` replays committed
   ``MIGRATE`` records from the surviving WAL, restoring the migrate
   bits so already-migrated data is not produced twice.

Heap data and the WAL live in the :class:`~repro.db.Database` and
survive the "crash"; uncommitted migration transactions were rolled
back as the crash unwound, which is observationally equivalent to a
REDO-only recovery not replaying them.

Client threads treat :class:`~repro.errors.TransactionAborted` as
retryable (the paper's semantics: claims were reset by the abort hooks,
the statement may simply be reissued) and :class:`SimulatedCrash` as
fatal-to-everyone — the injector's ``crashed`` event is the global
"process died" signal all clients poll.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..core.engine import LazyMigrationEngine, MigrationHandle
from ..core.faults import FaultInjector, FaultPlan, SimulatedCrash
from ..core.predicates import Scope
from ..core.recovery import rebuild_trackers
from ..db import Database, Session
from ..errors import TransactionAborted
from .invariants import InvariantChecker, InvariantReport

# ops(session, client_index, iteration) -> None
ClientOp = Callable[[Session, int, int], None]


class FaultHarness:
    """One migration, one fault plan, many clients, optional crashes."""

    def __init__(
        self,
        db: Database,
        migration_id: str,
        ddl: str,
        plan: FaultPlan | None = None,
        engine_kwargs: dict[str, Any] | None = None,
    ) -> None:
        self.db = db
        self.migration_id = migration_id
        self.ddl = ddl
        self.engine_kwargs = dict(engine_kwargs or {})
        self.injector = FaultInjector(plan)
        self.engine: LazyMigrationEngine | None = None
        self.handle: MigrationHandle | None = None
        self.crashes = 0
        self.client_errors: list[BaseException] = []

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------
    def submit(self) -> MigrationHandle:
        self.engine = self._make_engine(self.injector)
        self.handle = self.engine.submit(self.migration_id, self.ddl)
        return self.handle

    def _make_engine(self, injector: FaultInjector) -> LazyMigrationEngine:
        engine = LazyMigrationEngine(self.db, faults=injector, **self.engine_kwargs)
        # The txn manager and WAL belong to the database, not the
        # engine; point them at the same injector so txn.commit/abort
        # and wal.flush rules fire.
        self.db.txns.faults = injector
        self.db.txns.wal.faults = injector
        return engine

    @property
    def crashed(self) -> bool:
        return self.injector.crashed.is_set()

    def recover(self, plan: FaultPlan | None = None) -> int:
        """Crash aftermath: discard the dead engine, re-attach with
        ``resume=True``, replay the WAL into fresh trackers.  ``plan``
        arms the next life's injector (default: no faults — the crash
        rule already fired).  Returns granules/groups restored."""
        assert self.engine is not None, "submit() first"
        self.crashes += 1
        # Joining background threads is part of stop() now; a pass that
        # was mid-flight when the crash fired either died on the crash
        # exception or finishes rolling back before stop() returns.
        self.engine.shutdown()
        self.injector = FaultInjector(plan)
        self.engine = self._make_engine(self.injector)
        self.handle = self.engine.submit(self.migration_id, self.ddl, resume=True)
        return rebuild_trackers(self.engine)

    # ------------------------------------------------------------------
    # Client workload
    # ------------------------------------------------------------------
    def run_clients(
        self,
        ops: ClientOp,
        clients: int = 4,
        iterations: int = 50,
    ) -> bool:
        """Run ``ops`` from ``clients`` threads; returns True when a
        crash fired (all clients stopped; caller should recover())."""
        crashed_event = self.injector.crashed

        def runner(index: int) -> None:
            session = self.db.connect()
            for i in range(iterations):
                if crashed_event.is_set():
                    return
                try:
                    ops(session, index, i)
                except TransactionAborted:
                    # Retryable by design: abort hooks reset the claims.
                    if session.in_transaction:
                        session.rollback()
                    session._txn = None
                    continue
                except SimulatedCrash:
                    return  # injector.crashed already set
                except BaseException as exc:  # noqa: BLE001
                    self.client_errors.append(exc)
                    return

        threads = [
            threading.Thread(target=runner, args=(i,), name=f"fault-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.client_errors:
            raise self.client_errors[0]
        return crashed_event.is_set()

    # ------------------------------------------------------------------
    # Quiesce / completion / checking
    # ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Stop background work without completing the migration, so the
        invariant checker sees a stable state."""
        assert self.engine is not None
        if self.engine._background is not None:
            self.engine._background.stop()

    def drain(self) -> None:
        """Drive the migration to completion through the engine's own
        loop (full-scope simulated requests, like the background threads
        issue), retrying injected aborts until the plan is exhausted."""
        assert self.engine is not None
        for runtime in self.engine.units:
            for _attempt in range(1000):
                try:
                    self.engine.migrate_scope(runtime, Scope(full=True))
                    break
                except TransactionAborted:
                    continue
            else:  # pragma: no cover - means a runaway abort rule
                raise AssertionError(
                    f"unit {runtime.plan.unit_id} still aborting after "
                    "1000 drain attempts"
                )
            if not runtime.plan.category.uses_bitmap and not runtime.complete:
                # Hashmap completion is a *clean sweep* decision (every
                # anchor key observed migrated); the background threads
                # normally make it — at quiesce the harness can.
                if all(
                    runtime.tracker.is_migrated(key) for key in runtime.all_keys()
                ):
                    runtime.swept = True
                runtime.check_complete()
        self.engine._check_completion()

    def check(
        self,
        expect_complete: bool = False,
        structural_only: bool = False,
    ) -> InvariantReport:
        assert self.engine is not None
        return InvariantChecker(self.engine).check(
            expect_complete=expect_complete, structural_only=structural_only
        )

    def shutdown(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
        self.db.txns.faults = None
        self.db.txns.wal.faults = None
