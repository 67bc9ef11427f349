"""SQL-queryable system views (``bullfrog_stat_*``).

Each view is a :class:`~repro.catalog.catalog.VirtualTable` whose
producer snapshots live engine/txn/lock state at scan time, so plain
``SELECT``s (and the TPC-C driver) can join operational telemetry
against data tables mid-migration:

* ``bullfrog_stat_activity``   — in-flight transactions;
* ``bullfrog_stat_migrations`` — one row per migration unit with
  bitmap-derived completion fraction, EWMA tuples/sec, and ETA;
* ``bullfrog_stat_locks``      — per-resource lock state + wait
  profiling (cumulative wait time, blocker attribution, aborts);
* ``bullfrog_stat_statements`` — per-kind statement counts/latency
  from the attached :class:`~repro.obs.observability.Observability`
  (empty when the database runs detached — the views themselves add no
  instrumentation, they only read what already exists);
* ``bullfrog_stat_wait_events`` — cumulative wait-class totals from
  the classifier (``cpu`` / ``lock`` / ``migration`` / ``wal`` /
  ``net_queue`` / ``pool``), the ``pg_stat`` shape of the same numbers
  the per-statement trace spans carry;
* ``bullfrog_stat_slow_queries`` — the in-memory slow-query ring,
  newest last, with trace ids and per-class wait breakdown.

Producers close over the :class:`~repro.db.Database` and read
``db.obs``/``db.txns``/registered engines *live*, so re-attaching a
different observability bundle (the overhead benchmark does this) is
reflected on the next scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..catalog.catalog import VirtualTable
from ..types import SqlType, TypeKind
from .tracectx import WAIT_CLASSES

if TYPE_CHECKING:
    from ..db import Database

Row = tuple[Any, ...]

_INT = SqlType(TypeKind.BIGINT)
_FLOAT = SqlType(TypeKind.FLOAT)
_TEXT = SqlType(TypeKind.TEXT)
_BOOL = SqlType(TypeKind.BOOL)

SYSTEM_VIEW_NAMES = (
    "bullfrog_stat_activity",
    "bullfrog_stat_migrations",
    "bullfrog_stat_locks",
    "bullfrog_stat_statements",
    "bullfrog_stat_wait_events",
    "bullfrog_stat_slow_queries",
    "bullfrog_stat_history",
    "bullfrog_stat_health",
)

_STATEMENT_KINDS = ("select", "insert", "update", "delete", "ddl")


def _activity_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        with db.txns._latch:
            txns = list(db.txns._active.values())
        rows = [
            (
                txn.id,
                txn.state.value,
                len(txn._locks),
                len(txn._redo),
                txn.isolation.value,
                txn.snapshot_ts,
            )
            for txn in txns
        ]
        rows.sort()
        return rows

    return produce


def _migrations_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        rows: list[Row] = []
        for engine in db.migration_engines():
            progress = engine.progress()
            shared = (
                progress["tuples_migrated"],
                progress["tuples_per_sec"],
                progress["eta_seconds"],
                progress["skip_waits"],
                progress["aborts"],
                progress["background_passes"],
                progress.get("versions_pruned", 0),
            )
            units = progress["units"]
            if not units:
                rows.append(
                    (
                        progress["migration"],
                        None,
                        None,
                        progress["complete"],
                        progress["granules_migrated"],
                        progress["granules_total"],
                        progress["fraction"],
                    )
                    + shared
                )
                continue
            for unit in units:
                rows.append(
                    (
                        progress["migration"],
                        unit["unit"],
                        unit["category"],
                        unit["complete"],
                        unit["migrated"],
                        unit.get("total"),
                        1.0 if unit["complete"] else unit.get("fraction"),
                    )
                    + shared
                )
        return rows

    return produce


def _locks_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        rows: list[Row] = []
        for entry in db.txns.locks.snapshot():
            rows.append(
                (
                    entry["resource_class"],
                    entry["resource"],
                    ",".join(str(t) for t in entry["holders"]),
                    ",".join(entry["modes"]),
                    entry["waiters"],
                    entry["wait_count"],
                    entry["wait_seconds"],
                    entry["deadlock_aborts"],
                    entry["timeouts"],
                    ",".join(str(t) for t in entry["last_blockers"]),
                )
            )
        rows.sort()
        return rows

    return produce


def _statements_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        obs = db.obs  # read live: the bench swaps bundles in place
        if obs is None or obs.statements_total is None:
            return []
        rows: list[Row] = []
        for kind in _STATEMENT_KINDS:
            calls = int(obs.statements_total.labels(stmt=kind).value)
            if not calls:
                continue
            cell = obs.statement_latency.labels(stmt=kind)
            sampled = cell.count
            total_seconds = cell.sum
            mean = total_seconds / sampled if sampled else None
            rows.append((kind, calls, sampled, total_seconds, mean))
        return rows

    return produce


def _wait_events_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        obs = db.obs  # read live: the bench swaps bundles in place
        if obs is None or not obs.active:
            return []
        snapshot = obs.wait_events_snapshot()
        return [
            (cls,) + snapshot.get(cls, (0, 0.0))
            for cls in WAIT_CLASSES
        ]

    return produce


def _slow_queries_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        obs = db.obs
        if obs is None:
            return []
        rows: list[Row] = []
        for record in obs.slow_queries():
            waits = record.get("waits_ms", {})
            migration = record.get("migration", {})
            rows.append(
                (
                    record["ts"],
                    record["stmt"],
                    record.get("sql"),
                    record.get("isolation"),
                    record["duration_ms"],
                    record["cpu_ms"],
                    record.get("trace_id"),
                    record.get("span_id"),
                    waits.get("lock", 0.0),
                    waits.get("migration", 0.0),
                    waits.get("wal", 0.0),
                    waits.get("net_queue", 0.0),
                    migration.get("granules", 0),
                    migration.get("tuples", 0),
                )
            )
        return rows

    return produce


# Views whose producer already yields dicts keyed by column name: the
# column tuple below is the one place the shape is spelled out.
_HISTORY_COLUMNS = (
    "ts", "dt_seconds", "qps", "commits_per_sec",
    "aborts_per_sec", "deadlocks_per_sec",
    "wal_batches_per_sec", "p50_ms", "p95_ms", "p99_ms",
    "lock_wait_p99_ms", "lock_wait_ms_per_sec",
    "migration_wait_ms_per_sec", "migration_fraction",
    "migration_tuples_per_sec", "migration_eta_seconds",
)
_HEALTH_COLUMNS = (
    "rule", "severity", "status", "value", "bound",
    "window_seconds", "since", "breaches", "detail",
)


def _history_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        # db.obs is read live: the bench swaps bundles in place
        history = getattr(db.obs, "history", None)
        if history is None:
            return []
        return [
            tuple(row[column] for column in _HISTORY_COLUMNS)
            for row in history.rows()
        ]

    return produce


def _health_producer(db: "Database") -> Callable[[Any], Iterable[Row]]:
    def produce(ctx: Any) -> Iterable[Row]:
        health = getattr(db.obs, "health", None)
        if health is None:
            return []
        return [
            tuple(result[column] for column in _HEALTH_COLUMNS)
            for result in health.report(max_age=1.0)["rules"]
        ]

    return produce


def register_system_views(db: "Database") -> None:
    """Register the ``bullfrog_stat_*`` virtual tables with the
    database's catalog.  Called once from ``Database.__init__``."""
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_activity",
            (
                "txn_id",
                "state",
                "locks_held",
                "redo_records",
                "isolation",
                "snapshot_ts",
            ),
            (_INT, _TEXT, _INT, _INT, _TEXT, _INT),
            _activity_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_migrations",
            (
                "migration",
                "unit",
                "category",
                "complete",
                "granules_migrated",
                "granules_total",
                "fraction",
                "tuples_migrated",
                "tuples_per_sec",
                "eta_seconds",
                "skip_waits",
                "aborts",
                "background_passes",
                "versions_pruned",
            ),
            (
                _TEXT,
                _TEXT,
                _TEXT,
                _BOOL,
                _INT,
                _INT,
                _FLOAT,
                _INT,
                _FLOAT,
                _FLOAT,
                _INT,
                _INT,
                _INT,
                _INT,
            ),
            _migrations_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_locks",
            (
                "resource_class",
                "resource",
                "holders",
                "modes",
                "waiters",
                "wait_count",
                "wait_seconds",
                "deadlock_aborts",
                "timeouts",
                "last_blockers",
            ),
            (
                _TEXT,
                _TEXT,
                _TEXT,
                _TEXT,
                _INT,
                _INT,
                _FLOAT,
                _INT,
                _INT,
                _TEXT,
            ),
            _locks_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_statements",
            ("stmt", "calls", "sampled", "total_seconds", "mean_seconds"),
            (_TEXT, _INT, _INT, _FLOAT, _FLOAT),
            _statements_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_wait_events",
            ("wait_class", "count", "total_seconds"),
            (_TEXT, _INT, _FLOAT),
            _wait_events_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_slow_queries",
            (
                "ts", "stmt", "sql", "isolation", "duration_ms",
                "cpu_ms", "trace_id", "span_id", "lock_wait_ms",
                "migration_wait_ms", "wal_wait_ms", "net_queue_wait_ms",
                "migrated_granules", "migrated_tuples",
            ),
            (
                _FLOAT, _TEXT, _TEXT, _TEXT, _FLOAT, _FLOAT, _INT,
                _INT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _INT, _INT,
            ),
            _slow_queries_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_history",
            _HISTORY_COLUMNS,
            (_FLOAT,) * len(_HISTORY_COLUMNS),
            _history_producer(db),
        )
    )
    db.catalog.register_virtual(
        VirtualTable(
            "bullfrog_stat_health",
            _HEALTH_COLUMNS,
            (
                _TEXT, _TEXT, _TEXT, _FLOAT, _FLOAT, _FLOAT, _FLOAT,
                _INT, _TEXT,
            ),
            _health_producer(db),
        )
    )


__all__ = ["SYSTEM_VIEW_NAMES", "register_system_views"]
