"""Tests for the monitoring stack: metrics-history ring, health rules,
the flight recorder, `/healthz`, and the ``\\top`` monitor (PR 9).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import BackgroundConfig, Database, MigrationController, Strategy
from repro.obs import (
    FlightRecorder,
    HealthEngine,
    MetricsHistory,
    Observability,
    PercentileRule,
    RateRule,
    ThresholdRule,
    default_rules,
)
from repro.obs.export import MetricsServer
from repro.obs.health import CRITICAL, OK, UNKNOWN, WARN
from repro.obs.history import (
    SERIALIZATION_FAILURES,
    STATEMENTS_TOTAL,
    percentile_from_buckets,
    sum_positive_deltas,
)
from repro.obs.registry import MetricRegistry
from repro.shell import Shell, format_health, render_top


# ======================================================================
# History ring
# ======================================================================


class TestHistoryRing:
    def test_retention_and_eviction_at_capacity(self):
        registry = MetricRegistry()
        counter = registry.counter("c_total").cell()
        history = MetricsHistory(registry, interval=0.01, capacity=4)
        for i in range(10):
            counter.inc()
            history.sample_now()
        assert history.samples_taken == 10
        assert history.samples_evicted == 6
        retained = history.samples()
        assert len(retained) == 4
        # Oldest evicted first: the survivors are the newest four
        # scrapes (counter values 7..10).
        assert [s.counters["c_total"] for s in retained] == [7, 8, 9, 10]
        monos = [s.mono for s in retained]
        assert monos == sorted(monos)

    def test_rate_survives_counter_reset(self):
        """The overhead bench swaps whole registries on live objects;
        a counter that shrinks between scrapes is a reset and its
        post-reset value counts from zero (Prometheus increase())."""
        r1 = MetricRegistry()
        r1.counter("c_total").inc(10)
        history = MetricsHistory(r1, interval=0.01, capacity=16)
        history.sample_now()
        time.sleep(0.02)
        r2 = MetricRegistry()
        r2.counter("c_total").inc(3)
        history.registry = r2  # the live swap
        history.sample_now()
        time.sleep(0.02)
        r2.get("c_total").cell().inc(2)
        history.sample_now()
        # Increase: reset to 3 counts as +3, then +2 more = 5; never
        # the poisonous 10 -> 3 = -7.
        assert history.delta("c_total") == pytest.approx(5.0)
        assert history.rate("c_total") > 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=30))
    def test_sum_positive_deltas_properties(self, values):
        total = sum_positive_deltas(values)
        assert total >= 0.0
        # A sorted (monotone) series increases by exactly last - first.
        ordered = sorted(values)
        if ordered:
            assert sum_positive_deltas(ordered) == pytest.approx(
                ordered[-1] - ordered[0]
            )

    @given(
        st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=30),
        st.floats(min_value=0, max_value=1e9),
    )
    def test_sum_positive_deltas_reset_adds_post_reset_value(self, values, v):
        ordered = sorted(values)
        base = sum_positive_deltas(ordered)
        if v >= ordered[-1]:
            expected = base + (v - ordered[-1])  # no reset, plain delta
        else:
            expected = base + v  # reset: post-reset value from zero
        assert sum_positive_deltas(ordered + [v]) == pytest.approx(expected)

    def test_percentile_matches_reference_within_bucket(self):
        registry = MetricRegistry()
        hist = registry.histogram(
            "lat_seconds", buckets=(0.01, 0.1, 1.0)
        ).cell()
        history = MetricsHistory(registry, interval=0.01, capacity=8)
        history.sample_now()  # baseline before any observation
        for value in [0.005] * 50 + [0.05] * 40 + [0.5] * 10:
            hist.observe(value)
        history.sample_now()
        p50 = history.percentile("lat_seconds", 0.50)
        p99 = history.percentile("lat_seconds", 0.99)
        # p50 lands in the first bucket (<= 0.01), p99 in the last
        # finite one (0.1, 1.0]; interpolation stays inside the bucket.
        assert 0.0 < p50 <= 0.01
        assert 0.1 < p99 <= 1.0

    def test_percentile_window_excludes_older_observations(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.01, 1.0)).cell()
        history = MetricsHistory(registry, interval=0.01, capacity=8)
        for _ in range(100):
            hist.observe(0.005)  # old fast traffic
        history.sample_now()
        hist.observe(0.5)  # the only new observation
        history.sample_now()
        # Over the full ring the old 100 dominate; the endpoint delta
        # between the two samples isolates the one slow statement.
        assert history.percentile("lat_seconds", 0.50) > 0.01

    def test_percentile_from_buckets_inf_bucket_reports_last_bound(self):
        assert percentile_from_buckets((0.1, 1.0), [0.0, 0.0, 5.0], 0.99) == 1.0
        assert percentile_from_buckets((0.1, 1.0), [0.0, 0.0, 0.0], 0.5) is None

    def test_concurrent_scrape_vs_read(self):
        """The sampler appends while readers derive: nothing torn,
        nothing raised.  The ring is a deque(maxlen=...): appends are
        GIL-atomic and readers copy."""
        obs = Observability(metrics=True, tracing=False)
        db = Database(obs=obs)
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        history = MetricsHistory(obs, interval=0.001, capacity=8)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            i = 0
            while not stop.is_set():
                try:
                    session.execute("INSERT INTO t VALUES (?)", [i])
                    history.sample_now()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 1.0
            reads = 0
            while time.monotonic() < deadline:
                history.rows()
                history.summary()
                history.rate(STATEMENTS_TOTAL, 1.0)
                reads += 1
        finally:
            stop.set()
            thread.join(5.0)
        assert not errors
        assert reads > 0 and history.samples_taken > 0

    def test_sampler_thread_lifecycle(self):
        registry = MetricRegistry()
        history = MetricsHistory(registry, interval=0.01, capacity=16)
        assert not history.running
        history.start()
        assert history.running
        deadline = time.monotonic() + 5.0
        while history.samples_taken < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        history.stop()
        assert not history.running
        taken = history.samples_taken
        assert taken >= 3
        time.sleep(0.05)
        assert history.samples_taken == taken  # really stopped
        # Restart works (server restart on the same Database).
        history.start()
        assert history.running
        history.stop()

    def test_to_json_shape(self):
        registry = MetricRegistry()
        registry.counter(STATEMENTS_TOTAL).inc(5)
        history = MetricsHistory(registry, interval=0.01, capacity=8)
        history.sample_now()
        time.sleep(0.01)
        history.sample_now()
        doc = json.loads(json.dumps(history.to_json(10.0), default=str))
        assert doc["capacity"] == 8
        assert doc["samples_taken"] == 2
        assert len(doc["rows"]) == 1
        assert "qps" in doc["rows"][0]
        assert "qps" in doc["summary"]


# ======================================================================
# Health rules
# ======================================================================


def _fresh_history(obs=None):
    source = obs if obs is not None else MetricRegistry()
    return MetricsHistory(source, interval=0.01, capacity=64)


class TestHealthRules:
    def test_threshold_rule_and_breach_listener_fire_once_per_breach(self):
        history = _fresh_history()
        level = {"value": 0.0}
        engine = HealthEngine(
            history,
            [ThresholdRule("load", lambda ctx: level["value"], bound=10.0)],
        )
        fired: list[dict] = []
        engine.on_breach(lambda result, report: fired.append(result))

        history.sample_now()
        assert engine.evaluate()["status"] == OK
        level["value"] = 50.0
        report = engine.evaluate()
        assert report["status"] == CRITICAL
        assert len(fired) == 1
        # Still breached: no second firing (transition semantics).
        engine.evaluate()
        engine.evaluate()
        assert len(fired) == 1
        # Recover, then breach again: fires exactly once more.
        level["value"] = 0.0
        assert engine.evaluate()["status"] == OK
        level["value"] = 99.0
        engine.evaluate()
        assert len(fired) == 2
        (rule_row,) = [
            r for r in engine.report()["rules"] if r["rule"] == "load"
        ]
        assert rule_row["breaches"] == 2

    def test_rate_rule_breaches_on_real_counter(self):
        obs = Observability(metrics=True, tracing=False)
        history = _fresh_history(obs)
        engine = HealthEngine(
            history,
            [RateRule("ser_failures", SERIALIZATION_FAILURES, bound=0.0)],
            obs=obs,
        )
        history.sample_now()
        time.sleep(0.02)
        history.sample_now()
        assert engine.evaluate()["status"] == OK  # rate 0 is not > 0
        obs.count_serialization_failure()
        time.sleep(0.02)
        history.sample_now()
        report = engine.evaluate()
        assert report["status"] == CRITICAL
        # The transition bumped the labeled transitions counter.
        family = obs.registry.get("repro_health_transitions_total")
        assert sum(cell.value for _labels, cell in family.samples()) >= 1

    def test_percentile_rule_unknown_without_observations(self):
        history = _fresh_history()
        engine = HealthEngine(
            history,
            [PercentileRule("lat", "no_such_seconds", 0.99, 100.0)],
        )
        history.sample_now()
        report = engine.evaluate()
        assert report["rules"][0]["status"] == UNKNOWN
        assert report["status"] == OK  # unknown never degrades

    def test_warn_severity_degrades_report_not_healthy(self):
        history = _fresh_history()
        engine = HealthEngine(
            history,
            [ThresholdRule("w", lambda ctx: 5.0, bound=1.0, severity=WARN)],
        )
        history.sample_now()
        report = engine.evaluate()
        assert report["status"] == WARN
        assert engine.healthy  # only critical flips /healthz

    def test_migration_stalled_rule_breaches_on_frozen_gauges(self):
        registry = MetricRegistry()
        registry.gauge("bullfrog_migration_running").set(1)
        registry.gauge("bullfrog_migration_progress_fraction").set(0.4)
        history = MetricsHistory(registry, interval=0.01, capacity=64)
        rules = default_rules(migration_stall_window=0.1)
        engine = HealthEngine(history, rules)
        history.sample_now()
        time.sleep(0.08)
        history.sample_now()
        report = engine.evaluate()
        (stalled,) = [
            r for r in report["rules"] if r["rule"] == "migration_stalled"
        ]
        assert stalled["status"] == CRITICAL

    def test_health_follows_sampling_cadence_via_listener(self):
        history = _fresh_history()
        engine = HealthEngine(
            history, [ThresholdRule("t", lambda ctx: 0.0, bound=1.0)]
        ).attach()
        assert engine.status == UNKNOWN  # nothing evaluated yet
        history.sample_now()  # listener evaluates on the scrape
        assert engine.status == OK


# ======================================================================
# System views
# ======================================================================


class TestMonitoringViews:
    def test_history_and_health_views_empty_until_attached(self, session):
        assert session.execute(
            "SELECT * FROM bullfrog_stat_history"
        ).rows == []
        assert session.execute(
            "SELECT * FROM bullfrog_stat_health"
        ).rows == []

    def test_history_and_health_views_live(self):
        obs = Observability(metrics=True, tracing=False)
        db = Database(obs=obs)
        session = db.connect()
        history, health, _flight = obs.attach_monitoring(db, start=False)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        history.sample_now()
        session.execute("INSERT INTO t VALUES (1)")
        time.sleep(0.02)
        history.sample_now()
        rows = session.execute(
            "SELECT qps FROM bullfrog_stat_history"
        ).rows
        assert len(rows) == 1 and rows[0][0] > 0.0
        health_rows = session.execute(
            "SELECT rule, status FROM bullfrog_stat_health"
        ).rows
        names = {row[0] for row in health_rows}
        assert "serialization_failures" in names
        assert all(row[1] in (OK, WARN, CRITICAL, UNKNOWN) for row in health_rows)
        obs.close()


# ======================================================================
# /healthz + /metrics/history on the MetricsServer (satellite b)
# ======================================================================


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestMetricsServerLiveness:
    def test_healthz_exists_as_liveness_surface(self):
        """Regression for the gap this PR closes: MetricsServer served
        /metrics but had no liveness endpoint at all — a load balancer
        probing /healthz got a 404 (this test fails on the pre-PR
        server)."""
        registry = MetricRegistry()
        with MetricsServer(registry) as server:
            status, body = _get(f"http://{server.host}:{server.port}/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_healthz_reflects_health_engine(self):
        history = _fresh_history()
        level = {"value": 0.0}
        engine = HealthEngine(
            history,
            [ThresholdRule("load", lambda ctx: level["value"], bound=1.0)],
        )
        history.sample_now()
        engine.evaluate()
        with MetricsServer(history.registry, health=engine) as server:
            url = f"http://{server.host}:{server.port}/healthz"
            status, body = _get(url)
            assert status == 200
            assert json.loads(body)["status"] == OK
            level["value"] = 9.0
            engine.evaluate()
            status, body = _get(url)
            assert status == 503
            doc = json.loads(body)
            assert doc["status"] == CRITICAL
            assert doc["rules"][0]["rule"] == "load"

    def test_healthz_503_while_draining_and_close_idempotent(self):
        registry = MetricRegistry()
        server = MetricsServer(registry)
        try:
            url = f"http://{server.host}:{server.port}/healthz"
            assert _get(url)[0] == 200
            server.begin_drain()
            status, body = _get(url)
            assert status == 503
            assert json.loads(body)["status"] == "draining"
            # Other endpoints keep serving during the drain window.
            assert _get(f"http://{server.host}:{server.port}/metrics")[0] == 200
        finally:
            server.close()
        server.close()  # idempotent: second close is a no-op

    def test_metrics_history_endpoint(self):
        registry = MetricRegistry()
        registry.counter(STATEMENTS_TOTAL).inc(3)
        history = MetricsHistory(registry, interval=0.01, capacity=8)
        history.sample_now()
        time.sleep(0.01)
        history.sample_now()
        with MetricsServer(registry, history=history) as server:
            base = f"http://{server.host}:{server.port}"
            status, body = _get(f"{base}/metrics/history")
            assert status == 200
            doc = json.loads(body)
            assert doc["samples_taken"] == 2 and len(doc["rows"]) == 1
            status, _body = _get(f"{base}/metrics/history?seconds=9.5")
            assert status == 200
            status, _body = _get(f"{base}/metrics/history?seconds=bogus")
            assert status == 400


# ======================================================================
# Flight recorder
# ======================================================================


EXPECTED_BUNDLE_FILES = {
    "stacks.txt", "trace.json", "slow_queries.json", "history.json",
    "health.json", "locks.json", "migrations.json", "manifest.json",
}


def _monitored_db(tmp_path, **flight_kwargs):
    obs = Observability()
    db = Database(obs=obs)
    history, health, _ = obs.attach_monitoring(
        db, incident_dir=str(tmp_path / "incidents"), start=False,
        **flight_kwargs,
    )
    return obs, db, history, health, obs.flight


class TestFlightRecorder:
    def test_bundle_is_complete_and_parseable(self, tmp_path):
        obs, db, history, health, flight = _monitored_db(tmp_path)
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        history.sample_now()
        path = flight.dump("unit-test", force=True)
        assert path is not None and os.path.isdir(path)
        assert set(os.listdir(path)) == EXPECTED_BUNDLE_FILES
        manifest = json.load(open(os.path.join(path, "manifest.json")))
        assert manifest["reason"] == "unit-test"
        assert set(manifest["files"]) == EXPECTED_BUNDLE_FILES - {"manifest.json"}
        for name in EXPECTED_BUNDLE_FILES - {"stacks.txt"}:
            json.load(open(os.path.join(path, name)))  # all valid JSON
        stacks = open(os.path.join(path, "stacks.txt")).read()
        assert "MainThread" in stacks
        # Atomicity: no temp directories survive a successful dump.
        assert not [
            d for d in os.listdir(flight.directory) if d.startswith(".tmp-")
        ]
        obs.close()

    def test_rate_limit_collapses_storms(self, tmp_path):
        flight = FlightRecorder(
            Observability(), directory=str(tmp_path), min_interval=60.0
        )
        first = flight.dump("breach")
        assert first is not None
        assert flight.dump("breach") is None  # suppressed inside window
        assert flight.dumps_suppressed == 1
        forced = flight.dump("operator", force=True)  # bypasses the limit
        assert forced is not None
        assert flight.dumps_written == 2
        assert len(flight.incidents()) == 2

    def test_disk_bound_deletes_oldest_never_newest(self, tmp_path):
        flight = FlightRecorder(
            Observability(),
            directory=str(tmp_path),
            min_interval=0.0,
            max_incidents=2,
        )
        paths = [flight.dump(f"r{i}", force=True) for i in range(5)]
        survivors = flight.incidents()
        assert len(survivors) == 2
        assert os.path.abspath(paths[-1]) in [
            os.path.abspath(p) for p in survivors
        ]

    def test_byte_bound(self, tmp_path):
        flight = FlightRecorder(
            Observability(),
            directory=str(tmp_path),
            min_interval=0.0,
            max_incidents=100,
            max_bytes=1,  # any second bundle busts the budget
        )
        flight.dump("a", force=True)
        newest = flight.dump("b", force=True)
        survivors = flight.incidents()
        assert [os.path.abspath(p) for p in survivors] == [
            os.path.abspath(newest)
        ]

    def test_breach_wires_dump_exactly_once(self, tmp_path):
        obs, db, history, health, flight = _monitored_db(
            tmp_path, min_dump_interval=60.0
        )
        level = {"value": 0.0}
        health.add_rule(
            ThresholdRule("test_breach", lambda ctx: level["value"], bound=1.0)
        )
        history.sample_now()  # ok everywhere
        level["value"] = 5.0
        history.sample_now()  # breach -> listener -> dump
        history.sample_now()  # still critical: no new transition
        history.sample_now()
        assert flight.dumps_written == 1
        (bundle,) = flight.incidents()
        manifest = json.load(open(os.path.join(bundle, "manifest.json")))
        assert manifest["reason"] == "health-test_breach"
        assert manifest["extra"]["rule"]["rule"] == "test_breach"
        obs.close()


# ======================================================================
# Slow-query log rotation (satellite a)
# ======================================================================


class TestSlowQueryLogRotation:
    def test_sink_rotates_at_half_budget_and_stays_bounded(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        cap = 4096
        obs = Observability(
            slow_query_threshold=0.0,  # every statement is "slow"
            slow_query_log_path=str(log),
            slow_query_log_max_bytes=cap,
        )
        db = Database(obs=obs)
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for i in range(120):  # ~300 bytes/record: several rotations
            session.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        obs.close()
        rotated = tmp_path / "slow.jsonl.1"
        assert rotated.exists(), "sink never rotated"
        # Live file is capped at half the budget (plus one record of
        # slack for the write that crossed the line); live + one
        # predecessor is the whole retention, within the total budget.
        slack = 1024
        assert log.stat().st_size <= cap // 2 + slack
        assert log.stat().st_size + rotated.stat().st_size <= cap + slack
        # Every surviving line is intact JSON (rotation never tears).
        for path in (log, rotated):
            for line in path.read_text().splitlines():
                assert json.loads(line)["stmt"]

    def test_rejects_unusable_budget(self):
        with pytest.raises(ValueError):
            Observability(slow_query_log_max_bytes=100)


# ======================================================================
# \top monitor: embedded and over --connect
# ======================================================================


class TestTopMonitor:
    def test_render_top_pure(self):
        text = render_top({
            "ts": time.time(), "window_seconds": 5.0, "samples": 20,
            "qps": 123.4, "commits_per_sec": 10.0, "aborts_per_sec": 0.0,
            "deadlocks_per_sec": 0.0, "wal_batches_per_sec": 9.0,
            "p50_ms": 0.5, "p95_ms": 2.0, "p99_ms": 8.0,
            "lock_wait_p99_ms": 1.0,
            "wait_ms_per_sec": {"lock": 12.0, "io": 0.0},
            "migration": {"running": 1, "fraction": 0.25,
                          "tuples_per_sec": 1000.0, "eta_seconds": 3.0},
            "health": {"status": "warn", "rules": [
                {"rule": "lock_wait_p99", "status": "warn"}]},
            "server": {"serving": 2, "connections": 3,
                       "max_connections": 64, "draining": False},
        })
        assert "qps 123.4" in text
        assert "25.0% done" in text and "eta ~3.0s" in text
        assert "lock 12.0 ms/s" in text and "io" not in text.split("waits")[1].split("\n")[0]
        assert "health    warn   [lock_wait_p99=warn]" in text
        assert "server    serving 2   conns 3/64" in text

    def test_render_top_empty_summary_degrades(self):
        text = render_top({})
        assert "bullfrog top" in text
        assert "migration (none running)" in text

    def test_format_health(self):
        report = {"status": "ok", "rules": [{
            "rule": "deadlock_rate", "severity": "critical", "status": "ok",
            "value": 0.0, "bound": 5.0, "window_seconds": 5.0,
            "since": 0.0, "breaches": 0, "detail": "",
        }]}
        text = format_health(report)
        assert text.startswith("status: ok")
        assert "deadlock_rate" in text and "bound=5.00" in text

    def test_embedded_shell_top_health_dump(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # incident bundles land under cwd
        shell = Shell()
        try:
            shell.session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            shell.session.execute("INSERT INTO t VALUES (1)")
            frame = shell.handle_meta("\\top 0 1")
            assert "bullfrog top" in frame and "latency" in frame
            health = shell.handle_meta("\\health")
            assert health.startswith("status:")
            out = shell.handle_meta("\\dump unit")
            assert "incident bundle written" in out
            bundle = out.split(": ", 1)[1]
            assert os.path.isdir(bundle)
            assert bundle.startswith(os.path.join("results", "incidents"))
            assert shell.handle_meta("\\top nope") .startswith("usage:")
        finally:
            shell.obs.close()

    def test_remote_shell_top_health_dump(self, tmp_path):
        from repro.net.server import BullfrogServer, ServerConfig

        obs = Observability()
        db = Database(obs=obs)
        server = BullfrogServer(db, ServerConfig(
            port=0, incident_dir=str(tmp_path / "incidents"),
            monitor_interval=0.05,
        )).start()
        try:
            shell = Shell(connect_to=f"127.0.0.1:{server.port}")
            try:
                shell.session.execute("CREATE TABLE r (id INT PRIMARY KEY)")
                shell.session.execute("INSERT INTO r VALUES (1)")
                frame = shell.handle_meta("\\top 0 1")
                assert "bullfrog top" in frame
                assert "server    serving" in frame  # server-side stats rode along
                assert shell.handle_meta("\\health").startswith("status:")
                out = shell.handle_meta("\\dump remote-test")
                assert "incident bundle written" in out
                assert (tmp_path / "incidents").is_dir()
            finally:
                shell.remote.close()
        finally:
            server.shutdown()
            obs.close()

    def test_client_monitoring_helpers(self, tmp_path):
        from repro.net.client import connect
        from repro.net.server import BullfrogServer, ServerConfig

        obs = Observability()
        db = Database(obs=obs)
        server = BullfrogServer(db, ServerConfig(
            port=0, incident_dir=str(tmp_path / "incidents"),
            monitor_interval=0.05,
        )).start()
        try:
            conn = connect("127.0.0.1", server.port)
            try:
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
                time.sleep(0.15)  # let the sampler take a couple of scrapes
                summary = conn.monitor_summary()
                # This connection's runner is serving the META itself.
                assert summary["server"]["serving"] == 1
                assert summary["server"]["connections"] == 1
                assert "health" in summary
                doc = conn.metrics_history(10.0)
                assert "rows" in doc and "summary" in doc
                report = conn.health()
                assert report["status"] in (OK, WARN, CRITICAL, UNKNOWN)
                assert report["rules"]
            finally:
                conn.close()
        finally:
            server.shutdown()
            obs.close()

    def test_server_monitor_skipped_when_obs_detached(self):
        from repro.net.server import BullfrogServer, ServerConfig

        db = Database()  # obs=None: zero-cost contract
        server = BullfrogServer(db, ServerConfig(port=0)).start()
        try:
            summary = server.monitor_summary()
            assert "server" in summary and "qps" not in summary
        finally:
            server.shutdown()

    def test_server_shutdown_stops_owned_sampler(self):
        from repro.net.server import BullfrogServer, ServerConfig

        obs = Observability()
        db = Database(obs=obs)
        server = BullfrogServer(db, ServerConfig(port=0)).start()
        assert obs.history is not None and obs.history.running
        server.shutdown()
        assert not obs.history.running
        obs.close()


# ======================================================================
# Acceptance: breach under a live TPC-C migration writes exactly one
# complete, bounded incident bundle
# ======================================================================


@pytest.mark.slow
class TestIncidentUnderMigration:
    def test_breach_during_tpcc_migration_dumps_once(self, tmp_path, tpcc_scale):
        from repro.tpcc import SchemaVariant, TpccClient, create_schema, load_tpcc
        from repro.tpcc.migrations import split_migration_ddl

        obs = Observability()
        db = Database(obs=obs)
        create_schema(db.connect())
        load_tpcc(db, tpcc_scale)
        history, health, flight = obs.attach_monitoring(
            db,
            incident_dir=str(tmp_path / "incidents"),
            min_dump_interval=300.0,  # a storm must still yield ONE bundle
            start=False,
        )
        # Tightened rule: any statement traffic at all breaches — the
        # deterministic stand-in for "serialization failures > X" that
        # does not depend on winning a race.
        health.add_rule(
            ThresholdRule(
                "qps_ceiling",
                lambda ctx: ctx.history.rate(STATEMENTS_TOTAL, 2.0),
                bound=0.0,
            )
        )
        controller = MigrationController(db)
        history.sample_now()  # baseline: everything ok
        controller.submit(
            "split",
            split_migration_ddl(),
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=60.0),  # foreground-only
        )
        client = TpccClient(db, tpcc_scale, SchemaVariant.SPLIT, seed=7)
        for _ in range(25):  # live workload claims granules lazily
            client.run_random()
        engine = controller.active
        assert not engine.is_complete  # the migration is genuinely live
        time.sleep(0.02)
        for _ in range(4):  # several breached samples, one transition
            history.sample_now()
        assert flight.dumps_written == 1
        (bundle,) = flight.incidents()
        assert set(os.listdir(bundle)) == EXPECTED_BUNDLE_FILES
        manifest = json.load(open(os.path.join(bundle, "manifest.json")))
        assert manifest["reason"] == "health-qps_ceiling"
        migrations = json.load(open(os.path.join(bundle, "migrations.json")))
        assert len(migrations) == 1
        progress = migrations[0]
        assert progress["migration"] == "split" and not progress["complete"]
        assert progress["tuples_migrated"] > 0
        assert progress["last_advance_seconds"] is not None
        locks = json.load(open(os.path.join(bundle, "locks.json")))
        assert isinstance(locks, (list, dict))
        history_doc = json.load(open(os.path.join(bundle, "history.json")))
        assert history_doc["summary"]["qps"] > 0.0
        # Bounded: the bundle respects the disk budget by construction.
        total = sum(
            os.path.getsize(os.path.join(bundle, f))
            for f in os.listdir(bundle)
        )
        assert total <= flight.max_bytes
        obs.close()
