"""The admin console: one verb table over the system views.

Every admin surface — the embedded shell's backslash commands, the
shell over ``--connect``, ``bullfrogd``'s META frames and the
``bullfrog-router``'s — answers through :func:`run`.  A verb is
``handler(db, arg) -> str``; the built-in vocabulary lives in
:data:`VERBS`, and whoever owns more state registers more verbs on the
database's ``admin_verbs`` table (``BullfrogServer``: ``epoch``,
``migrate``; ``RouterDatabase``: ``shards``, ``cluster``, and a
per-shard ``progress`` that shadows the built-in one).

Handlers read the ``bullfrog_stat_*`` system views (:func:`view`)
rather than walking engines, rules and server state themselves, so
the text a verb prints and the rows a ``SELECT`` returns cannot drift
apart.  The renderers are pure functions of those rows.
"""

from __future__ import annotations

import json
import time
from itertools import groupby
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ProtocolError, UnknownObjectError
from .export import render_prometheus, snapshot_json
from .health import overall_status

if TYPE_CHECKING:
    from ..db import Database


def view(db: "Database", name: str) -> list[dict[str, Any]]:
    """The rows of a system view as dicts, from the same producer a
    ``SELECT`` scans; empty when nobody registered the view (e.g.
    ``bullfrog_stat_server`` on a database no server fronts)."""
    try:
        virtual = db.catalog.virtual_table(name)
    except UnknownObjectError:
        return []
    return [dict(zip(virtual.column_names, row)) for row in virtual.producer(None)]


def migrations(rows: list[dict]):
    """Group ``bullfrog_stat_migrations`` rows — one per migration unit
    (or a single unit-less row), migration-wide columns repeated on
    each — into ``(migration, units, complete)``; a migration is
    complete when every unit is."""
    for migration, group in groupby(rows, key=lambda row: row["migration"]):
        units = list(group)
        yield migration, units, all(unit["complete"] for unit in units)


# ----------------------------------------------------------------------
# Renderers (pure functions of view rows / summaries)
# ----------------------------------------------------------------------
def _num(value, suffix: str = "", digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{suffix}"


def render_top(summary: dict) -> str:
    """Render one ``\\top`` frame from a monitor summary — the dict
    :func:`monitor_summary` produces: the history summary with optional
    ``health`` (a health report) and ``server`` (the
    ``bullfrog_stat_server`` row) sections merged in."""
    ts = summary.get("ts")
    when = (
        time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    )
    lines = [
        f"bullfrog top — {when}  "
        f"window {summary.get('window_seconds') or 0.0:.1f}s  "
        f"samples {summary.get('samples', 0)}"
    ]
    lines.append(
        "load      "
        f"qps {_num(summary.get('qps'))}   "
        f"commits/s {_num(summary.get('commits_per_sec'))}   "
        f"aborts/s {_num(summary.get('aborts_per_sec'))}   "
        f"deadlocks/s {_num(summary.get('deadlocks_per_sec'))}   "
        f"wal/s {_num(summary.get('wal_batches_per_sec'))}"
    )
    lines.append(
        "latency   "
        f"p50 {_num(summary.get('p50_ms'), ' ms', 2)}   "
        f"p95 {_num(summary.get('p95_ms'), ' ms', 2)}   "
        f"p99 {_num(summary.get('p99_ms'), ' ms', 2)}   "
        f"lock p99 {_num(summary.get('lock_wait_p99_ms'), ' ms', 2)}"
    )
    waits = summary.get("wait_ms_per_sec") or {}
    busy = [
        f"{cls} {value:.1f} ms/s"
        for cls, value in sorted(waits.items())
        if value and value >= 0.05
    ]
    lines.append("waits     " + ("   ".join(busy) if busy else "(quiet)"))
    migration = summary.get("migration") or {}
    if migration.get("running"):
        fraction = migration.get("fraction")
        eta = migration.get("eta_seconds")
        lines.append(
            "migration "
            + (f"{100.0 * fraction:.1f}% done   " if fraction is not None else "")
            + f"{_num(migration.get('tuples_per_sec'), ' tuples/s', 0)}   "
            + (f"eta ~{eta:.1f}s" if eta is not None else "eta unknown")
        )
    else:
        lines.append("migration (none running)")
    health = summary.get("health")
    if health:
        breached = [
            f"{r['rule']}={r['status']}"
            for r in health.get("rules", [])
            if r.get("status") in ("warn", "critical")
        ]
        lines.append(
            f"health    {health.get('status', 'unknown')}"
            + (f"   [{', '.join(breached)}]" if breached else "")
        )
    server = summary.get("server")
    if server:
        lines.append(
            "server    "
            f"serving {server.get('serving', 0)}   "
            f"conns {server.get('connections', 0)}"
            f"/{server.get('max_connections', 0)}"
            + ("   DRAINING" if server.get("draining") else "")
        )
    return "\n".join(lines)


def format_health(report: dict) -> str:
    """Text form of a health report: overall ``status`` plus one line
    per ``rules`` entry (``bullfrog_stat_health`` rows)."""
    lines = [f"status: {report.get('status', 'unknown')}"]
    for result in report.get("rules", []):
        lines.append(
            f"  {result['rule']:<28} {result['status']:<9}"
            f" value={_num(result.get('value'), '', 2)}"
            f" bound={_num(result.get('bound'), '', 2)}"
            f" window={result.get('window_seconds', 0):.0f}s"
            f" breaches={result.get('breaches', 0)}"
            + (f"  ({result['detail']})" if result.get("detail") else "")
        )
    return "\n".join(lines)


def format_progress(rows: list[dict]) -> str:
    """Text form of ``bullfrog_stat_migrations`` rows."""
    if not rows:
        return "(no migration submitted)"
    lines: list[str] = []
    for migration, units, complete in migrations(rows):
        head = units[0]
        lines.append(f"migration: {migration}  complete: {complete}")
        done = sum(unit["granules_migrated"] for unit in units)
        totals = [unit["granules_total"] for unit in units]
        if all(totals):
            total = sum(totals)
            lines.append(
                f"granules:  {done}/{total} ({100.0 * done / total:.1f}%)"
            )
        else:
            lines.append(f"granules:  {done} (total unknown: hashmap unit)")
        lines.append(
            f"tuples:    {head['tuples_migrated']} "
            f"({head['tuples_per_sec']:.0f} tuples/s now)"
        )
        eta = head["eta_seconds"]
        if complete:
            lines.append("eta:       done")
        elif eta is not None:
            lines.append(f"eta:       ~{eta:.1f}s at current rate")
        else:
            lines.append("eta:       unknown (no throughput observed yet)")
        lines.append(
            f"contention: skip_waits={head['skip_waits']} "
            f"aborts={head['aborts']}"
        )
        lines.append(f"background: {head['background_passes']} passes")
        for unit in units:
            if unit["unit"] is None:
                continue
            total = unit["granules_total"]
            lines.append(
                f"  unit {unit['unit']} [{unit['category']}]: "
                f"{unit['granules_migrated']}"
                f"{f'/{total}' if total is not None else ''} migrated"
                f"{' (complete)' if unit['complete'] else ''}"
            )
    return "\n".join(lines)


def format_shards(rows: list[dict]) -> str:
    """Text form of ``bullfrog_stat_shards`` rows."""
    lines = []
    for row in rows:
        if row["healthy"]:
            migration = row["migration_complete"]
            detail = (
                f"epoch={row['epoch']} "
                f"gate={'open' if row['gate_open'] else 'CLOSED'} "
                + ("migration=done" if migration
                   else "migration=running" if migration is False
                   else "migration=none")
            )
        else:
            detail = "UNREACHABLE"
        lines.append(
            f"  shard {row['shard']}  {row['addr']:<21} {detail}  "
            f"pool {row['pool_in_use']}/{row['pool_size']} in use, "
            f"{row['pool_reconnects']} reconnects"
        )
    return "\n".join(lines) or "(no shards)"


# ----------------------------------------------------------------------
# Built-in verbs
# ----------------------------------------------------------------------
def monitor_summary(db: "Database") -> dict:
    """The merged ``top`` payload: history summary + health report +
    the ``bullfrog_stat_server`` row when a server fronts ``db``."""
    obs = db.obs
    history = getattr(obs, "history", None)
    summary: dict = {}
    if history is not None:
        if len(history.samples(float("inf"))) < 2:
            history.sample_now()  # ring too young to difference: scrape now
        summary = history.summary()
    health = getattr(obs, "health", None)
    if health is not None:
        summary["health"] = health.report(max_age=1.0)
    for row in view(db, "bullfrog_stat_server"):
        summary["server"] = row
    return summary


def _tables(db: "Database", arg: str) -> str:
    lines = [
        f"  {t.schema.name}{' (retired)' if t.retired else ''}"
        f"  [{len(t)} rows]"
        for t in db.catalog.tables()
    ]
    return "\n".join(lines) or "(no tables)"


def _describe(db: "Database", arg: str) -> str:
    if not arg:
        raise ProtocolError("unknown meta command 'describe' (need a table)")
    table = db.catalog.table(arg)
    lines = [
        f"  {c.name}  {c.type.render()}" + ("  NOT NULL" if c.not_null else "")
        for c in table.schema.columns
    ]
    if table.schema.primary_key:
        lines.append(
            f"  PRIMARY KEY ({', '.join(table.schema.primary_key.columns)})"
        )
    lines.extend(f"  INDEX {name}" for name in table.indexes)
    return "\n".join(lines)


def _metrics(db: "Database", arg: str) -> str:
    obs = db.obs
    if obs is None:
        return "(observability detached)"
    if arg == "json":
        return snapshot_json(obs.registry, indent=2)
    return render_prometheus(obs.registry)


def _progress(db: "Database", arg: str) -> str:
    return format_progress(view(db, "bullfrog_stat_migrations"))


def _top(db: "Database", arg: str) -> str:
    summary = monitor_summary(db)
    return json.dumps(summary) if arg == "json" else render_top(summary)


def _history(db: "Database", arg: str) -> str:
    history = getattr(db.obs, "history", None)
    if history is None:
        return "(no history sampler attached)"
    args = arg.split()
    as_json = bool(args) and args[0] == "json"
    seconds = args[1:] if as_json else args
    try:
        window = float(seconds[0]) if seconds else None
    except ValueError:
        raise ProtocolError(f"bad history window {seconds[0]!r}") from None
    payload = history.to_json(window)
    return json.dumps(payload) if as_json else render_top(payload["summary"])


def _health(db: "Database", arg: str) -> str:
    health = getattr(db.obs, "health", None)
    if health is None:
        return "(no health engine attached)"
    if arg == "json":
        return json.dumps(health.report(max_age=1.0))
    rules = view(db, "bullfrog_stat_health")
    return format_health({"status": overall_status(rules), "rules": rules})


def _dump(db: "Database", arg: str) -> str:
    flight = getattr(db.obs, "flight", None)
    if flight is None:
        return "(no flight recorder attached)"
    return f"incident bundle written: {flight.dump(arg or 'manual', force=True)}"


VERBS: dict[str, Callable[["Database", str], str]] = {
    "tables": _tables,
    "describe": _describe,
    "metrics": _metrics,
    "progress": _progress,
    "top": _top,
    "history": _history,
    "health": _health,
    "healthz": _health,
    "dump": _dump,
}


def run(db: "Database", command: str) -> str:
    """Answer one admin command: the first word picks the verb — the
    database's own registrations first, then the built-ins — and the
    rest is its argument.  Bad input raises :class:`ProtocolError`."""
    name, _, arg = command.strip().partition(" ")
    handler = db.admin_verbs.get(name) or VERBS.get(name)
    if handler is None:
        raise ProtocolError(f"unknown meta command {command!r}")
    return handler(db, arg.strip())


__all__ = [
    "VERBS",
    "format_health",
    "format_progress",
    "format_shards",
    "migrations",
    "monitor_summary",
    "render_top",
    "run",
    "view",
]
