"""Shared experiment scaffolding: build + load + calibrate + run.

Rates: the paper contrasts a sub-saturation load (450 TPS on their
hardware) with a saturating one (700 TPS).  A pure-Python engine is two
orders of magnitude slower, so rates are expressed as *fractions of the
measured maximum throughput*: LOW ≈ 0.55×max (headroom to absorb
migration work) and HIGH ≈ 1.1×max (the system falls behind) — the two
regimes every figure contrasts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core import BackgroundConfig, ConflictMode, MigrationController, Strategy
from ..db import Database
from ..errors import SchemaVersionError, TransactionAborted
from ..obs import Observability
from ..tpcc import (
    SCENARIOS,
    ScaleConfig,
    SchemaVariant,
    TpccClient,
    create_schema,
    load_tpcc,
)
from .driver import DriverConfig, DriverResult, WorkloadDriver

LOW_RATE_FRACTION = 0.55  # the paper's 450-TPS analogue
HIGH_RATE_FRACTION = 1.10  # the paper's 700-TPS analogue


@dataclass
class ExperimentConfig:
    scenario: str = "split"  # split | aggregate | join
    scale: ScaleConfig = field(default_factory=ScaleConfig.small)
    strategy: Strategy = Strategy.LAZY
    conflict_mode: ConflictMode = ConflictMode.TRACKER
    granule_size: int = 1
    background: BackgroundConfig | None = None
    background_enabled: bool = True
    background_delay: float = 1.5
    rate: float | None = None  # absolute; overrides rate_fraction
    rate_fraction: float = LOW_RATE_FRACTION
    duration: float = 10.0
    migrate_at: float = 2.0
    workers: int = 4
    hot_customers: int | None = None
    fk_variant: str = "none"  # split scenario: none | district | district_orders
    tracking_enabled: bool = True  # False = the paper's "no bitmap" variant
    disjoint_customers: bool = False  # section 4.4.1's exactly-once access
    seed: int = 42
    transaction_filter: tuple[str, ...] | None = None  # e.g. customer-only mix
    # Attach a repro.obs.Observability to the run: the database, engine,
    # and bench recorders all feed one registry + trace log, and the
    # result carries the final snapshot (report.py embeds it in JSON).
    observability: bool = False


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    driver: DriverResult
    max_tps: float
    rate: float
    migration_started_at: float | None
    migration_completed_at: float | None
    background_started_at: float | None
    migration_stats: dict[str, Any]
    # Set when config.observability is on: the live Observability (for
    # trace export) and the end-of-run registry snapshot.
    obs: Observability | None = None
    registry_snapshot: dict[str, Any] | None = None

    @property
    def throughput(self) -> list[tuple[float, float]]:
        return self.driver.throughput

    def latencies(self, txn_type: str | None = "new_order") -> list[float]:
        """Latency samples from migration start to the end of the window
        (the paper's CDF window), for one transaction type (the paper
        plots NewOrder only)."""
        after = self.migration_started_at or 0.0
        return self.driver.latency_values(txn_type, after=after)


class AdaptiveClient:
    """A TPC-C terminal that survives the big flip: it consults the
    controller for the active schema and, if a statement is rejected
    with :class:`SchemaVersionError`, "restarts" with the new-schema
    transaction set — the paper's front-end restart on incompatible
    query (section 1)."""

    def __init__(
        self,
        db: Database,
        scale: ScaleConfig,
        controller: MigrationController,
        new_variant: SchemaVariant,
        seed: int,
        hot_customers: int | None = None,
        transaction_filter: tuple[str, ...] | None = None,
        customer_stride: tuple[int, int] | None = None,
    ) -> None:
        self.client = TpccClient(
            db,
            scale,
            SchemaVariant.BASE,
            seed=seed,
            hot_customers=hot_customers,
            customer_stride=customer_stride,
        )
        self.controller = controller
        self.new_variant = new_variant
        self.transaction_filter = transaction_filter

    def run_random(self) -> tuple[str, bool]:
        if self.controller.new_schema_active:
            self.client.variant = self.new_variant
        else:
            self.client.variant = SchemaVariant.BASE
        name = self.client.pick_transaction()
        if self.transaction_filter is not None:
            while name not in self.transaction_filter:
                name = self.client.pick_transaction()
        try:
            return name, self.client.run(name)
        except SchemaVersionError:
            # Big flip landed mid-transaction: restart on the new schema.
            self.client.session.reset()
            self.client.variant = self.new_variant
            return name, self.client.run(name)


def build_database(
    scale: ScaleConfig, obs: Observability | None = None
) -> Database:
    db = Database(obs=obs)
    session = db.connect()
    create_schema(session)
    load_tpcc(db, scale)
    return db


def measure_max_throughput(
    db: Database,
    scale: ScaleConfig,
    workers: int = 4,
    seconds: float = 2.0,
    seed: int = 1,
) -> float:
    """Closed-loop calibration run on the BASE schema."""

    def make_client(index: int) -> TpccClient:
        return TpccClient(db, scale, SchemaVariant.BASE, seed=seed + index)

    driver = WorkloadDriver(
        make_client,
        DriverConfig(duration=seconds, rate=None, workers=workers),
    )
    result = driver.run()
    return max(result.overall_tps, 1.0)


def run_migration_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One full paper-style run: load, warm up, migrate at ``migrate_at``
    under a controlled request rate, record throughput/latency/events."""
    scenario = SCENARIOS[config.scenario]
    obs = Observability() if config.observability else None
    db = build_database(config.scale, obs=obs)
    controller = MigrationController(db)
    max_tps = measure_max_throughput(db, config.scale, config.workers)
    rate = config.rate if config.rate is not None else max_tps * config.rate_fraction

    background = config.background
    if background is None:
        # Gentle pacing: small chunks with real pauses so background
        # work hides in the workload's idle time instead of monopolising
        # the interpreter ("slowly inject simulated client requests").
        background = BackgroundConfig(
            enabled=config.background_enabled,
            delay=config.background_delay,
            chunk=32,
            interval=0.015,
        )

    def make_client(index: int) -> AdaptiveClient:
        stride = (
            (index, config.workers) if config.disjoint_customers else None
        )
        return AdaptiveClient(
            db,
            config.scale,
            controller,
            scenario["variant"],
            seed=config.seed + index,
            hot_customers=config.hot_customers,
            transaction_filter=config.transaction_filter,
            customer_stride=stride,
        )

    driver = WorkloadDriver(
        make_client,
        DriverConfig(duration=config.duration, rate=rate, workers=config.workers),
        registry=obs.registry if obs is not None else None,
    )

    state: dict[str, Any] = {
        "migration_started_at": None,
        "migration_completed_at": None,
        "background_started_at": None,
        "handle": None,
    }

    def migration_watcher(drv: WorkloadDriver) -> None:
        def run_migration() -> None:
            delay = config.migrate_at - drv.elapsed()
            if delay > 0:
                time.sleep(delay)
            state["migration_started_at"] = drv.elapsed()
            drv.mark("migration start")
            ddl = scenario["ddl"]
            if config.scenario == "split" and config.fk_variant != "none":
                from ..tpcc.migrations import split_migration_ddl

                ddl = split_migration_ddl(config.fk_variant)
            handle = controller.submit(
                config.scenario,
                ddl,
                strategy=config.strategy,
                conflict_mode=config.conflict_mode,
                granule_size=config.granule_size,
                background=background,
                big_flip=scenario["big_flip"],
                tracking_enabled=config.tracking_enabled,
            )
            state["handle"] = handle
            if config.scenario == "split" and config.fk_variant == "district_orders":
                from ..tpcc.migrations import orders_fk_ddl

                session = db.connect()
                session.internal = True
                try:
                    session.execute(orders_fk_ddl())
                except Exception:
                    pass  # validation may race with in-flight writes
            # Watch for background start + completion.
            while not handle.is_complete and drv.elapsed() < config.duration:
                stats = handle.stats
                if (
                    stats.background_started_at is not None
                    and state["background_started_at"] is None
                    and stats.started_at is not None
                ):
                    state["background_started_at"] = (
                        state["migration_started_at"]
                        + (stats.background_started_at - stats.started_at)
                    )
                    drv.mark("background start")
                time.sleep(0.05)
            if handle.is_complete and state["migration_completed_at"] is None:
                state["migration_completed_at"] = drv.elapsed()
                drv.mark("migration end")

        threading.Thread(target=run_migration, daemon=True).start()

    result = driver.run(on_start=migration_watcher)
    handle = state["handle"]
    if handle is not None:
        try:
            handle.shutdown()  # stop leftover background work: one run
            # must not bleed CPU into the next (incomplete migrations
            # would otherwise keep their background threads alive)
        except AttributeError:
            pass
    stats: dict[str, Any] = {}
    if handle is not None:
        try:
            stats = handle.progress()
        except Exception:
            stats = {}
    return ExperimentResult(
        config=config,
        driver=result,
        max_tps=max_tps,
        rate=rate,
        migration_started_at=state["migration_started_at"],
        migration_completed_at=state["migration_completed_at"],
        background_started_at=state["background_started_at"],
        migration_stats=stats,
        obs=obs,
        registry_snapshot=obs.registry.snapshot() if obs is not None else None,
    )
