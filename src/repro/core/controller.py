"""Migration controller: the single entry point applications use.

Wraps the three strategies behind one API::

    controller = MigrationController(db)
    handle = controller.submit(
        "split-customer",
        ddl,
        strategy=Strategy.LAZY,           # or EAGER / MULTISTEP
        conflict_mode=ConflictMode.TRACKER,
        granule_size=1,
        background=BackgroundConfig(delay=2.0),
    )
    handle.await_completion()
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..db import Database
from ..errors import MigrationStateError
from .background import BackgroundConfig
from .eager import EagerMigration
from .engine import ConflictMode, LazyMigrationEngine, MigrationHandle
from .multistep import MultiStepMigration


class Strategy(Enum):
    LAZY = "lazy"  # BullFrog: single-step logical switch + lazy migration
    EAGER = "eager"  # blocking single-transaction migration
    MULTISTEP = "multistep"  # shadow tables + background copy + dual writes


@dataclass
class SubmitResult:
    """Uniform handle over the three strategies."""

    strategy: Strategy
    lazy: MigrationHandle | None = None
    eager: EagerMigration | None = None
    multistep: MultiStepMigration | None = None

    @property
    def _impl(self):
        return self.lazy or self.eager or self.multistep

    @property
    def is_complete(self) -> bool:
        return self._impl.is_complete

    def await_completion(self, timeout: float | None = None) -> bool:
        return self._impl.await_completion(timeout)

    def progress(self) -> dict[str, Any]:
        return self._impl.progress()

    @property
    def stats(self):
        return self._impl.stats

    def shutdown(self) -> None:
        """Stop any background machinery (bench teardown)."""
        if self.lazy is not None:
            self.lazy.engine.shutdown()
        if self.multistep is not None:
            self.multistep.stop()


class MigrationController:
    """Submits and tracks one migration per database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.active: SubmitResult | None = None
        self.engine: LazyMigrationEngine | None = None

    def submit(
        self,
        migration_id: str,
        ddl: str,
        strategy: Strategy = Strategy.LAZY,
        conflict_mode: ConflictMode = ConflictMode.TRACKER,
        granule_size: int = 1,
        background: BackgroundConfig | None = None,
        multistep_chunk: int = 256,
        multistep_interval: float = 0.002,
        big_flip: bool = True,
        tracking_enabled: bool = True,
        fkpk_join_mode: str = "fkit-bitmap",
    ) -> SubmitResult:
        if self.active is not None and not self.active.is_complete:
            raise MigrationStateError(
                "another migration is still in progress on this database"
            )
        if strategy is Strategy.LAZY:
            engine = LazyMigrationEngine(
                self.db,
                granule_size=granule_size,
                conflict_mode=conflict_mode,
                background=background,
                big_flip=big_flip,
                tracking_enabled=tracking_enabled,
                fkpk_join_mode=fkpk_join_mode,
            )
            handle = engine.submit(migration_id, ddl)
            self.engine = engine
            self.active = SubmitResult(strategy, lazy=handle)
        elif strategy is Strategy.EAGER:
            eager = EagerMigration(self.db, big_flip=big_flip)
            eager.submit(migration_id, ddl)
            self.active = SubmitResult(strategy, eager=eager)
        elif strategy is Strategy.MULTISTEP:
            multistep = MultiStepMigration(
                self.db,
                chunk=multistep_chunk,
                interval=multistep_interval,
                big_flip=big_flip,
            )
            multistep.submit(migration_id, ddl)
            self.active = SubmitResult(strategy, multistep=multistep)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown strategy {strategy!r}")
        return self.active

    @property
    def new_schema_active(self) -> bool:
        """True once client requests must use the new schema.  LAZY and
        EAGER flip immediately/at-completion-of-submit; MULTISTEP flips
        when the copier finishes."""
        if self.active is None:
            return False
        if self.active.strategy in (Strategy.LAZY, Strategy.EAGER):
            return True
        return self.active.is_complete
