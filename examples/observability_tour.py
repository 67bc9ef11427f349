"""Observe a live TPC-C lazy migration end to end — then trace one
client request across the wire into the engine — then watch the health
rules catch a deadlock storm and black-box it.

Act 1 runs the paper's SPLIT scenario under a TPC-C workload with the
observability layer attached (metrics + tracing).  Act 2 starts a real
``bullfrogd`` on a loopback port and sends traced requests through the
client library: the trace context crosses the socket in the frame
trailer, so the server-loop spans (``net.queue`` → ``server.execute``
→ ``stmt.*`` → ``net.flush``) land in the same trace as the client's
root span.  Act 3 attaches the monitoring stack (history sampler +
health rules + flight recorder), manufactures a deadlock storm, and
shows the ``deadlock_rate`` rule transition to critical — which makes
the flight recorder write one incident bundle under
``results/incidents/`` with stacks, trace tail, slow queries, metric
history, lock tables, and migration progress.  Artifacts:

* ``results/obs_metrics.prom`` — Prometheus text snapshot: migration
  counters (granules, tuples, skip-waits, aborts), transaction and WAL
  counters, and the sampled per-statement latency histograms;
* ``results/obs_trace.json`` — one merged Chrome ``trace_event``
  document.  Load it in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``: the ``tpcc-experiment`` process row shows
  ``stmt.*`` / ``migrate.wip`` / ``background.pass`` spans, and the
  ``client`` + ``bullfrogd`` rows show one networked request's spans
  linked by a shared ``trace`` id in their args;
* ``results/incidents/<ts>-<seq>-health-deadlock_rate/`` — the act-3
  incident bundle (``manifest.json`` lists its sections).

The tour also prints the SQL-facing surfaces added with distributed
tracing: ``bullfrog_stat_wait_events`` (where statement time went, by
class) and ``bullfrog_stat_slow_queries`` (the slow-query ring with
trace ids).

Run with::

    PYTHONPATH=src python examples/observability_tour.py
"""

import json
import os
import threading
import time

from repro import Database
from repro.bench import ExperimentConfig, run_migration_experiment
from repro.errors import DeadlockAvoided
from repro.net import BullfrogServer, ServerConfig, connect
from repro.obs import (
    Observability,
    TraceLog,
    default_rules,
    merge_chrome,
    render_prometheus,
)
from repro.obs.console import render_top

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def run_experiment():
    """Act 1: the SPLIT migration under TPC-C, fully instrumented."""
    config = ExperimentConfig(
        scenario="split",
        duration=8.0,
        migrate_at=2.0,
        background_delay=0.2,
        workers=4,
        observability=True,
    )
    result = run_migration_experiment(config)
    obs = result.obs
    assert obs is not None

    stats = result.migration_stats
    registry = obs.registry
    print(
        f"migration: {stats.get('granules_migrated', 0)} granules / "
        f"{stats.get('tuples_migrated', 0)} tuples "
        f"(skip-waits="
        f"{registry.get('bullfrog_migration_skip_waits_total').value:.0f}, "
        f"aborts="
        f"{registry.get('bullfrog_migration_txn_aborts_total').value:.0f})"
    )
    return obs


def run_traced_request():
    """Act 2: a traced client request through a live bullfrogd.

    ``slow_query_threshold=0.0`` forces every statement into the
    slow-query ring (a real deployment would use e.g. ``0.05``); it
    also forces full tracing, though the wire trailer alone already
    does that for propagated requests.
    """
    db = Database(obs=Observability(slow_query_threshold=0.0))
    server = BullfrogServer(db, ServerConfig(port=0)).start()
    client_log = TraceLog()
    try:
        with connect("127.0.0.1", server.port, trace=True,
                     trace_log=client_log) as conn:
            conn.execute(
                "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)"
            )
            conn.begin()
            for i in range(8):
                conn.execute(
                    "INSERT INTO accounts VALUES (?, ?)", (i, i * 100)
                )
            conn.commit()
            ctx = conn.last_trace  # the COMMIT: its tree has wal.append
            with conn.pipeline() as pipe:
                for i in range(8):
                    pipe.execute(
                        "SELECT balance FROM accounts WHERE id = ?", (i,)
                    )

        session = db.connect()
        print("\nbullfrog_stat_wait_events:")
        for row in session.execute(
            "SELECT * FROM bullfrog_stat_wait_events"
        ).dicts():
            print(
                f"  {row['wait_class']:>9}: {row['count']:>3} events, "
                f"{row['total_seconds'] * 1000.0:8.3f} ms"
            )
        slow = session.execute(
            "SELECT stmt, duration_ms, cpu_ms, trace_id"
            " FROM bullfrog_stat_slow_queries"
        ).dicts()
        print(f"\nbullfrog_stat_slow_queries: {len(slow)} records")
        for row in slow[-3:]:
            print(
                f"  {row['stmt']:>7} {row['duration_ms']:7.3f} ms "
                f"(cpu {row['cpu_ms']:.3f} ms) trace={row['trace_id']}"
            )

        linked = db.obs.trace.events_for_trace(ctx.trace_id)
        print(
            f"\nCOMMIT request trace={ctx.trace_id}: "
            f"{[e.name for e in client_log.events_for_trace(ctx.trace_id)]} "
            f"on the client, {[e.name for e in linked]} on the server"
        )
        return client_log, db.obs.trace
    finally:
        server.shutdown(drain_timeout=2.0)


def run_incident() -> None:
    """Act 3: a deadlock storm trips a health rule; the flight recorder
    black-boxes the moment.

    The ``deadlock_rate`` bound is tightened to 0.5/s so a handful of
    manufactured deadlocks breaches it deterministically; production
    defaults are an order of magnitude looser.
    """
    obs = Observability()
    db = Database(obs=obs)
    history, health, flight = obs.attach_monitoring(
        db,
        interval=0.05,
        rules=default_rules(deadlocks_per_sec=0.5, window=2.0),
        incident_dir=os.path.join(RESULTS, "incidents"),
        start=False,  # sampled by hand so the breach timing is exact
    )

    setup = db.connect()
    setup.execute("CREATE TABLE t1 (id INT PRIMARY KEY)")
    setup.execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
    setup.execute("INSERT INTO t1 VALUES (1)")
    setup.execute("INSERT INTO t2 VALUES (1)")
    history.sample_now()  # baseline: everything ok

    deadlocks = 0
    for _ in range(3):  # the storm: cross-updates that must cycle
        s1, s2 = db.connect(), db.connect()
        s1.begin()
        s2.begin()
        s1.execute("UPDATE t1 SET id = 1 WHERE id = 1")
        s2.execute("UPDATE t2 SET id = 1 WHERE id = 1")
        failed = []

        def cross(session=s2):
            try:
                session.execute("UPDATE t1 SET id = 1 WHERE id = 1")
            except DeadlockAvoided:
                failed.append("s2")

        thread = threading.Thread(target=cross)
        thread.start()
        time.sleep(0.05)
        try:
            s1.execute("UPDATE t2 SET id = 1 WHERE id = 1")
        except DeadlockAvoided:
            failed.append("s1")
        thread.join(timeout=10.0)
        deadlocks += len(failed)
        for session in (s1, s2):
            if session.in_transaction:
                session.rollback()

    time.sleep(0.05)
    history.sample_now()  # the scrape that sees the storm -> breach -> dump
    print(f"\ndeadlock storm: {deadlocks} victims")
    summary = history.summary()
    summary["health"] = health.report(max_age=1.0)
    print(render_top(summary))
    bundles = flight.incidents()
    assert bundles, "the breach must have produced an incident bundle"
    bundle = bundles[-1]
    manifest = json.load(open(os.path.join(bundle, "manifest.json")))
    print(f"incident bundle ({manifest['reason']}): {bundle}")
    for name in sorted(manifest["files"]):
        size = os.path.getsize(os.path.join(bundle, name))
        print(f"  {name:<18} {size:>7} bytes")
    obs.close()


def main() -> None:
    experiment_obs = run_experiment()
    client_log, server_log = run_traced_request()
    run_incident()

    prom_path = os.path.join(RESULTS, "obs_metrics.prom")
    with open(prom_path, "w") as fh:
        fh.write(render_prometheus(experiment_obs.registry))

    merged = merge_chrome(
        [
            experiment_obs.trace.to_chrome(),
            client_log.to_chrome(),
            server_log.to_chrome(),
        ],
        ["tpcc-experiment", "client", "bullfrogd"],
    )
    trace_path = os.path.join(RESULTS, "obs_trace.json")
    with open(trace_path, "w") as fh:
        json.dump(merged, fh)

    events = merged["traceEvents"]
    fg = [e for e in events if e.get("name") == "migrate.wip"]
    bg = [
        e for e in events
        if e.get("name") == "background.pass" and e["ph"] == "X"
    ]
    net = [
        e for e in events
        if e.get("name") in ("net.queue", "server.execute", "net.flush")
    ]
    print(
        f"\ntrace: {len(events)} events, {len(fg)} migrate.wip spans, "
        f"{len(bg)} background.pass spans, {len(net)} server-loop spans"
    )
    print(f"wrote {prom_path}")
    print(f"wrote {trace_path}")


if __name__ == "__main__":
    main()
