"""Observability layer: registry, tracing, export surfaces, stats view.

Covers the unified observability contracts:

* metric registry semantics (cells, labels, conflicts, NULL_METRIC) and
  lock-free **exactness** under concurrent writers;
* :class:`TraceLog` concurrency — no lost or corrupt events, ring
  eviction keeps the newest history, Chrome JSON round-trips;
* :class:`Observability` emission points and statement sampling;
* ``MigrationStats`` as a registry view (frozen snapshot key set);
* Prometheus / JSON export surfaces end to end on a real lazy
  migration with foreground and background work.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.core.stats import MigrationStats
from repro.obs import (
    MetricRegistry,
    Observability,
    TraceLog,
    render_prometheus,
    snapshot_json,
)
from repro.obs.registry import NULL_METRIC, Counter, Gauge, Histogram
from repro.sql import ast_nodes as ast

pytestmark = pytest.mark.obs


# ======================================================================
# Metric registry
# ======================================================================


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(3)
        c.inc1()
        assert c.value == 5
        assert c.value == 5  # reading folds the queue idempotently

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_compaction_bounds_queue(self):
        c = Counter()
        for _ in range(Counter._COMPACT + 10):
            c.inc(2)
        # The deque was folded into _base at least once mid-stream.
        assert len(c._events) < Counter._COMPACT
        assert c.value == (Counter._COMPACT + 10) * 2

    def test_concurrent_increments_exact(self):
        c = Counter()
        threads = 8
        per_thread = 5000

        def worker():
            for _ in range(per_thread):
                c.inc()  # unit fast path
                c.inc(2)  # queued amount path

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert c.value == threads * per_thread * 3


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        assert g.value is None
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3
        g.set(None)
        assert g.value is None


class TestHistogram:
    def test_bucketing_boundaries(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(0.1)  # == bound: belongs to the `value <= bound` bucket
        h.observe(0.5)
        h.observe(5.0)  # past the last bound: +Inf only
        snap = h.snapshot()
        assert snap["buckets"]["0.1"] == 1
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["+Inf"] == 3
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.6)

    def test_buckets_sorted_and_required(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        h = Histogram(buckets=(1.0, 0.1))
        assert h.buckets == (0.1, 1.0)

    def test_concurrent_observations_exact(self):
        h = Histogram(buckets=(0.5,))
        threads, per_thread = 6, 4000

        def worker():
            for i in range(per_thread):
                h.observe(i % 2)  # half <= 0.5, half in +Inf

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        snap = h.snapshot()
        total = threads * per_thread
        assert snap["count"] == total
        assert snap["buckets"]["0.5"] == total // 2
        assert snap["buckets"]["+Inf"] == total


class TestRegistry:
    def test_registration_idempotent(self):
        r = MetricRegistry()
        a = r.counter("x_total", "help")
        b = r.counter("x_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        r = MetricRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError):
            r.gauge("x_total")

    def test_label_conflict_rejected(self):
        r = MetricRegistry()
        r.counter("y_total", labelnames=("a",))
        with pytest.raises(ValueError):
            r.counter("y_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        r = MetricRegistry()
        for bad in ("", "1x", "has space", "has-dash"):
            with pytest.raises(ValueError):
                r.counter(bad)

    def test_labels_children(self):
        r = MetricRegistry()
        fam = r.counter("ops_total", labelnames=("op",))
        fam.labels(op="a").inc()
        fam.labels(op="a").inc()
        fam.labels(op="b").inc(5)
        assert fam.labels(op="a") is fam.labels(op="a")
        with pytest.raises(ValueError):
            fam.labels(wrong="a")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no default cell
        with pytest.raises(ValueError):
            r.counter("plain_total").labels(op="a")
        values = {
            labels["op"]: cell.value for labels, cell in fam.samples()
        }
        assert values == {"a": 2, "b": 5}

    def test_unregistered_is_null_metric(self):
        r = MetricRegistry()
        metric = r.get("never_registered")
        assert metric is NULL_METRIC
        metric.inc()
        metric.inc1()
        metric.observe(1.0)
        metric.set(2.0)
        assert metric.labels(a="b") is NULL_METRIC
        assert metric.value == 0

    def test_snapshot_shape(self):
        r = MetricRegistry()
        r.counter("c_total", "counts").inc(2)
        r.gauge("g").set(7)
        r.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = r.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["samples"][0]["value"] == 2
        assert snap["g"]["samples"][0]["value"] == 7
        hist = snap["h_seconds"]["samples"][0]
        assert hist["count"] == 1 and hist["buckets"]["1.0"] == 1
        json.dumps(snap)  # JSON-able by construction


# ======================================================================
# TraceLog
# ======================================================================


class TestTraceLog:
    def test_concurrent_emission_no_lost_or_corrupt_events(self):
        log = TraceLog(capacity=200_000)
        threads, per_thread = 8, 2000

        def worker(index):
            for i in range(per_thread):
                if i % 2:
                    log.instant(f"w{index}", cat="test", args={"i": i})
                else:
                    start = log.now_us()
                    log.complete(f"w{index}", start, cat="test")

        ts = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        events = log.events()
        assert len(events) == threads * per_thread
        assert log.dropped == 0
        per_worker = {f"w{i}": 0 for i in range(threads)}
        for event in events:
            per_worker[event.name] += 1  # corrupt name would KeyError
            assert event.ph in ("i", "X")
            assert event.ts >= 0
            if event.ph == "X":
                assert event.dur is not None and event.dur >= 0
        assert all(n == per_thread for n in per_worker.values())

    def test_ring_eviction_keeps_newest(self):
        log = TraceLog(capacity=10)
        for i in range(25):
            log.instant(f"e{i}")
        events = log.events()
        assert len(events) == 10
        assert [e.name for e in events] == [f"e{i}" for i in range(15, 25)]
        assert log.dropped == 15

    def test_clear_resets(self):
        log = TraceLog(capacity=4)
        for i in range(6):
            log.instant("x")
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0

    def test_chrome_json_round_trip(self):
        log = TraceLog()
        log.instant("point", cat="lifecycle", args={"k": 1})
        with log.span("work", cat="exec"):
            pass
        doc = json.loads(log.to_chrome_json())
        assert doc["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phases  # thread_name metadata
        named = {e["name"]: e for e in doc["traceEvents"]}
        assert named["point"]["ph"] == "i" and named["point"]["s"] == "t"
        assert named["work"]["ph"] == "X" and named["work"]["dur"] >= 0

    def test_span_records_error(self):
        log = TraceLog()
        with pytest.raises(RuntimeError):
            with log.span("fails"):
                raise RuntimeError("boom")
        (event,) = log.spans("fails")
        assert event.args["error"] == "RuntimeError"


# ======================================================================
# Observability bundle
# ======================================================================


class TestObservability:
    def test_emit_bumps_counter_and_traces(self):
        obs = Observability()
        obs.emit("txn.commit", txn_id=1, records=2)
        obs.emit("migrate.before_claim", unit="u", pending=3)
        snap = obs.snapshot()
        assert snap["repro_txn_commits_total"]["samples"][0]["value"] == 1
        assert snap["bullfrog_claim_rounds_total"]["samples"][0]["value"] == 1
        names = [e.name for e in obs.trace.events()]
        assert names == ["txn.commit", "migrate.before_claim"]

    def test_statement_sampling_counts_exact(self):
        obs = Observability()
        assert obs.sample_statements == 16
        starts = [obs.statement_begin(ast.Select) for _ in range(33)]
        sampled = [s for s in starts if s]
        assert len(sampled) == 3  # statements 1, 17, 33
        for start in sampled:
            obs.statement_done("select", abs(start))
        snap = obs.snapshot()
        by_label = {
            s["labels"]["stmt"]: s["value"]
            for s in snap["repro_statements_total"]["samples"]
        }
        assert by_label["select"] == 33  # counts never sampled
        hist = {
            s["labels"]["stmt"]: s["count"]
            for s in snap["repro_statement_seconds"]["samples"]
        }
        assert hist["select"] == 3

    def test_tracing_head_samples_roots(self):
        # Tracing head-samples *root* spans on its own coarser period
        # (sample_traces); statement_begin answers a signed clock
        # reading — positive for trace-sampled roots, negative for
        # latency-sampled-but-untraced statements, 0.0 for the rest
        # (counted, but end-work-free unless a propagated context
        # overrides the coin).
        obs = Observability()
        assert obs.sample_statements == 16
        assert obs.sample_traces == 64
        vals = [obs.statement_begin(ast.Select) for _ in range(128)]
        assert [i for i, v in enumerate(vals) if v > 0] == [0, 64]
        assert [i for i, v in enumerate(vals) if v < 0] == [16, 32, 48, 80, 96, 112]

    def test_slow_query_threshold_forces_full_sampling(self):
        # A slow-query threshold must see every statement's duration
        # and wait breakdown, so it forces both sample periods to 1.
        obs = Observability(slow_query_threshold=0.5)
        assert obs.sample_statements == 1
        assert obs.sample_traces == 1
        assert all(obs.statement_begin(ast.Select) > 0 for _ in range(20))

    def test_sample_traces_validation(self):
        with pytest.raises(ValueError):
            Observability(sample_traces=12)
        with pytest.raises(ValueError):
            Observability(sample_statements=16, sample_traces=8)

    def test_sample_statements_validation(self):
        with pytest.raises(ValueError):
            Observability(sample_statements=0)
        with pytest.raises(ValueError):
            Observability(sample_statements=12)
        obs = Observability(sample_statements=1)
        assert all(obs.statement_begin(ast.Select) for _ in range(5))

    def test_wal_flush_and_rows(self):
        obs = Observability()
        obs.wal_flush(7, 4)
        obs.add_rows("insert", 3)
        obs.add_rows("delete", 0)  # zero rows: no sample
        (instant,) = obs.trace.events()
        assert instant.name == "wal.flush"
        assert instant.args == {"txn_id": 7, "records": 4}
        snap = obs.snapshot()
        assert snap["repro_wal_batches_total"]["samples"][0]["value"] == 1
        assert snap["repro_wal_batch_records"]["samples"][0]["sum"] == 4
        rows = {
            s["labels"]["op"]: s["value"]
            for s in snap["repro_rows_written_total"]["samples"]
        }
        assert rows["insert"] == 3 and rows["delete"] == 0


# ======================================================================
# MigrationStats registry view
# ======================================================================


class TestMigrationStats:
    # The bench pollers index into snapshot() by these exact keys; the
    # registry-view refactor must never change the dict shape.
    SNAPSHOT_KEYS = {
        "started_at",
        "completed_at",
        "background_started_at",
        "granules_migrated",
        "granules_total",
        "tuples_migrated",
        "skip_waits",
        "migration_txn_aborts",
        "duplicate_attempts",
    }

    def test_snapshot_key_set_frozen(self):
        stats = MigrationStats()
        assert set(stats.snapshot()) == self.SNAPSHOT_KEYS

    def test_counters_flow_through_registry(self):
        registry = MetricRegistry()
        stats = MigrationStats(registry)
        stats.add(granules=2, tuples=10)
        stats.add_skip_wait()
        stats.add_abort()
        stats.add_duplicates(3)
        snap = stats.snapshot()
        assert snap["granules_migrated"] == 2
        assert snap["tuples_migrated"] == 10
        assert snap["skip_waits"] == 1
        assert snap["migration_txn_aborts"] == 1
        assert snap["duplicate_attempts"] == 3
        # Same cells back the Prometheus surface.
        text = render_prometheus(registry)
        assert "bullfrog_migration_tuples_migrated_total 10" in text

    def test_shared_registry_views_are_deltas(self):
        registry = MetricRegistry()
        first = MigrationStats(registry)
        first.add(granules=5, tuples=50)
        second = MigrationStats(registry)  # later migration, same registry
        second.add(granules=1, tuples=4)
        assert first.tuples_migrated == 54  # sees the shared total drift
        assert second.tuples_migrated == 4  # its own delta only
        total = registry.get("bullfrog_migration_tuples_migrated_total").value
        assert total == 54


# ======================================================================
# Export surfaces
# ======================================================================


class TestExport:
    def test_prometheus_text_format(self):
        r = MetricRegistry()
        r.counter("c_total", "a counter").inc(3)
        r.histogram("h_seconds", "a histogram", buckets=(0.5,)).observe(0.2)
        r.counter("l_total", labelnames=("op",)).labels(op='we"ird\n').inc()
        text = render_prometheus(r)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 3" in text
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert '{op="we\\"ird\\n"}' in text  # label escaping
        assert text.endswith("\n")

    def test_snapshot_json_parses(self):
        r = MetricRegistry()
        r.counter("c_total").inc()
        doc = json.loads(snapshot_json(r))
        assert doc["c_total"]["samples"][0]["value"] == 1


# ======================================================================
# Integration: a real lazy migration observed end to end
# ======================================================================


SPLIT_DDL = """
CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
INSERT INTO left_part (id, v) SELECT id, v FROM src;
CREATE TABLE right_part (id INT PRIMARY KEY, tag VARCHAR(10));
INSERT INTO right_part (id, tag) SELECT id, tag FROM src;
"""


def _seed_src(session, rows):
    session.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    for i in range(rows):
        session.execute(
            "INSERT INTO src VALUES (?, ?, ?, ?)",
            [i, i % 5, i * 10, f"t{i % 3}"],
        )


@pytest.mark.slow
class TestIntegration:
    def test_migration_populates_metrics_and_trace(self):
        rows = 120
        obs = Observability()  # metrics + tracing
        db = Database(obs=obs)
        # Pinned: asserts per-tuple lazy-migration metrics under 2PL.
        session = db.connect(isolation="read_committed")
        _seed_src(session, rows)
        engine = LazyMigrationEngine(
            db, background=BackgroundConfig(enabled=False), obs=obs
        )
        engine.submit("m", SPLIT_DDL)
        for i in range(rows):
            session.execute("SELECT v FROM left_part WHERE id = ?", [i])
        assert engine.is_complete

        text = render_prometheus(obs.registry)
        for needle in (
            "bullfrog_claim_rounds_total",
            "bullfrog_migration_granules_migrated_total",
            "bullfrog_migration_tuples_migrated_total",
            "repro_txn_commits_total",
            "repro_statement_seconds_bucket",
            "bullfrog_migrate_wip_seconds_count",
            "repro_statements_total",
        ):
            assert needle in text, needle
        tuples = obs.registry.get(
            "bullfrog_migration_tuples_migrated_total"
        ).value
        assert tuples == rows

        names = {e.name for e in obs.trace.events()}
        assert "migrate.before_claim" in names
        assert "migrate.wip" in names
        assert any(n.startswith("stmt.") for n in names)
        assert list(obs.trace.spans("migrate.wip"))  # real spans with dur
        json.loads(obs.trace.to_chrome_json())  # Perfetto-loadable

    def test_background_passes_traced_on_own_thread(self):
        rows = 150
        obs = Observability()
        db = Database(obs=obs)
        # Pinned: foreground SELECTs must lazy-migrate their granules.
        session = db.connect(isolation="read_committed")
        _seed_src(session, rows)
        engine = LazyMigrationEngine(
            db,
            background=BackgroundConfig(
                enabled=True, delay=0.2, interval=0.0, chunk=16
            ),
            obs=obs,
        )
        engine.submit("m", SPLIT_DDL)
        # Foreground work touches only a slice of the key space inside
        # the background delay window: those granules are provably
        # migrated on the client thread, and the untouched remainder is
        # provably left for the background threads.
        for i in range(40):
            session.execute("SELECT v FROM left_part WHERE id = ?", [i])
        deadline = time.monotonic() + 30
        while not engine.is_complete and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.is_complete
        engine.shutdown()

        passes = list(obs.trace.spans("background.pass"))
        assert passes
        foreground = list(obs.trace.spans("migrate.wip"))
        assert foreground
        # Background passes run on their own (labelled) thread; the
        # foreground statements put migrate.wip spans on the client
        # thread too — the Chrome export then shows the two tracks
        # side by side.
        background_tids = {e.tid for e in passes}
        foreground_tids = {e.tid for e in foreground}
        assert foreground_tids - background_tids
        doc = json.loads(obs.trace.to_chrome_json())
        thread_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert any("background" in name for name in thread_names)
