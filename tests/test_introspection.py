"""In-database introspection: EXPLAIN ANALYZE, the ``bullfrog_stat_*``
system views, lock-wait profiling, and migration progress/ETA."""

import threading
import time

import pytest

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.core import MigrationController, Strategy
from repro.errors import (
    DeadlockAvoided,
    DuplicateObjectError,
    ExecutionError,
    ParseError,
)
from repro.obs import SYSTEM_VIEW_NAMES, Observability
from repro.tpcc import split_migration_ddl
from repro.txn.locks import LockManager, LockMode


def make_source_db(rows=50):
    db = Database()
    s = db.connect()
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    for i in range(rows):
        s.execute(
            "INSERT INTO src VALUES (?, ?, ?, ?)", [i, i % 5, i * 10, f"t{i % 3}"]
        )
    return db, s


SPLIT_DDL = """
CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
INSERT INTO left_part (id, v) SELECT id, v FROM src;
CREATE TABLE right_part (id INT PRIMARY KEY, tag VARCHAR(10));
INSERT INTO right_part (id, tag) SELECT id, tag FROM src;
"""


def plan_lines(result):
    assert result.columns == ["QUERY PLAN"]
    return [row[0] for row in result.rows]


# ======================================================================
# EXPLAIN [ANALYZE] as a real statement
# ======================================================================
class TestExplainStatement:
    def test_plain_explain_through_execute(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        result = session.execute("EXPLAIN SELECT v FROM t WHERE id = 1")
        lines = plan_lines(result)
        assert any("Index Scan" in line or "Seq Scan" in line for line in lines)
        # Plain EXPLAIN never runs the query, so no actual-time counters.
        assert not any("actual time" in line for line in lines)

    def test_analyze_reports_per_node_counters(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for i in range(20):
            session.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v FROM t WHERE id < 10 ORDER BY v"
        )
        lines = plan_lines(result)
        annotated = [line for line in lines if "actual time" in line]
        # Project, Sort, and the scan each carry their own counters.
        assert len(annotated) >= 3
        assert any("rows=10" in line for line in annotated)
        assert any(line.startswith("Execution Time:") for line in lines)

    def test_analyze_executes_the_query(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        result = session.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t")
        lines = plan_lines(result)
        assert any("rows=1" in line for line in lines)

    def test_explain_requires_select(self, session):
        with pytest.raises(ParseError):
            session.execute("EXPLAIN INSERT INTO t VALUES (1)")

    def test_plain_select_unchanged_after_analyze(self, session):
        """ANALYZE instruments a throwaway clone — the cached plan a
        normal SELECT uses must stay untouched."""
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        session.execute("INSERT INTO t VALUES (1, 'x')")
        sql = "SELECT v FROM t WHERE id = 1"
        before = session.execute(sql).rows
        session.execute(f"EXPLAIN ANALYZE {sql}")
        session.execute(f"EXPLAIN ANALYZE {sql}")
        assert session.execute(sql).rows == before
        plain = plan_lines(session.execute(f"EXPLAIN {sql}"))
        assert not any("actual time" in line for line in plain)

    def test_session_explain_accepts_explain_prefix(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        text = session.explain("EXPLAIN SELECT * FROM t")
        assert "Seq Scan" in text or "Scan" in text

    def test_analyze_shows_migrate_stall_on_lazy_path(self):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        # Pinned: asserts the 2PL lazy-migration stall line.
        session = db.connect(isolation="read_committed")
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v FROM left_part WHERE id = 7"
        )
        lines = plan_lines(result)
        stall = [line for line in lines if line.startswith("Lazy Migration:")]
        assert len(stall) == 1
        assert "stall=" in stall[0]
        # Exactly this query's scope was migrated before execution.
        assert "granules=+1" in stall[0]
        assert "tuples=+1" in stall[0]
        # And the instrumented scan saw the freshly migrated row.
        assert any("actual time" in line and "rows=1" in line for line in lines)

    def test_analyze_plans_and_scopes_once_per_epoch(self, monkeypatch):
        """EXPLAIN ANALYZE runs the plan and the migration scope of the
        query's own handle: 20 runs of one SQL text during a lazy
        migration plan the SELECT and compile its scope once each, and
        a DDL between runs makes the next run re-plan once."""
        from repro.core.predicates import PredicateTransfer
        from repro.exec.planner import Planner

        db, _ = make_source_db(rows=200)
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        sql = "EXPLAIN ANALYZE SELECT v FROM left_part WHERE id = ?"
        query = db.prepare(sql).explained.ast
        calls = {"plan": 0, "scope": 0}
        plan_select = Planner.plan_select
        compile_scope = PredicateTransfer.compile_scope

        def counting_plan(planner, select, *args, **kwargs):
            calls["plan"] += select is query
            return plan_select(planner, select, *args, **kwargs)

        def counting_scope(transfer, stmt):
            calls["scope"] += stmt is query
            return compile_scope(transfer, stmt)

        monkeypatch.setattr(Planner, "plan_select", counting_plan)
        monkeypatch.setattr(PredicateTransfer, "compile_scope", counting_scope)
        session = db.connect()
        for i in range(20):
            lines = plan_lines(session.execute(sql, (i,)))
            assert any("rows=1" in line for line in lines)
        assert calls == {"plan": 1, "scope": 1}
        assert not engine.is_complete
        session.execute("CREATE TABLE unrelated (a INT PRIMARY KEY)")
        for i in range(20, 40):
            session.execute(sql, (i,))
        assert calls == {"plan": 2, "scope": 2}

    def test_analyze_already_migrated_scope_reports_zero_delta(self):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        session = db.connect()
        session.execute("SELECT v FROM left_part WHERE id = 7")
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v FROM left_part WHERE id = 7"
        )
        stall = [l for l in plan_lines(result) if l.startswith("Lazy Migration:")]
        assert "granules=+0" in stall[0]
        assert "tuples=+0" in stall[0]


# ======================================================================
# System views
# ======================================================================
class TestSystemViews:
    def test_all_views_queryable_on_fresh_database(self, session):
        for view in SYSTEM_VIEW_NAMES:
            result = session.execute(f"SELECT * FROM {view}")
            assert result.columns  # schema exposed even when empty

    def test_activity_shows_own_transaction(self, db):
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with session.transaction():
            session.execute("INSERT INTO t VALUES (1)")
            rows = session.execute(
                "SELECT * FROM bullfrog_stat_activity"
            ).dicts()
            mine = [r for r in rows if r["state"] == "ACTIVE"]
            assert len(mine) == 1
            assert mine[0]["locks_held"] >= 1
            # The redo log holds MIGRATE records only: a plain INSERT
            # buffers none.
            assert mine[0]["redo_records"] == 0

    def test_views_support_filters_and_projection(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        result = session.execute(
            "SELECT stmt, calls FROM bullfrog_stat_statements WHERE stmt = 'ddl'"
        )
        # obs is detached by default, so the view is empty — but the
        # filter/projection pipeline over a virtual scan must work.
        assert result.columns == ["stmt", "calls"]

    def test_statements_view_with_metrics_attached(self):
        obs = Observability(sample_statements=1)
        db = Database(obs=obs)
        s = db.connect()
        s.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(5):
            s.execute("INSERT INTO t VALUES (?)", [i])
        s.execute("SELECT * FROM t")
        rows = {r["stmt"]: r for r in s.execute(
            "SELECT * FROM bullfrog_stat_statements"
        ).dicts()}
        assert rows["insert"]["calls"] == 5
        assert rows["insert"]["sampled"] == 5
        assert rows["insert"]["mean_seconds"] > 0
        assert rows["select"]["calls"] >= 1

    def test_views_are_read_only(self, session):
        with pytest.raises(ExecutionError):
            session.execute("INSERT INTO bullfrog_stat_locks VALUES (1)")
        with pytest.raises(ExecutionError):
            session.execute("DELETE FROM bullfrog_stat_activity")
        with pytest.raises(ExecutionError):
            session.execute("UPDATE bullfrog_stat_migrations SET unit = 'x'")

    def test_view_names_are_reserved(self, session):
        with pytest.raises(DuplicateObjectError):
            session.execute("CREATE TABLE bullfrog_stat_locks (id INT)")

    def test_migrations_view_during_live_tpcc_split(self, tpcc_db):
        """The acceptance scenario: all four views answer plain SQL
        while a TPC-C customer-split migration is in flight."""
        controller = MigrationController(tpcc_db)
        controller.submit(
            "split",
            split_migration_ddl(),
            strategy=Strategy.LAZY,
            background=BackgroundConfig(enabled=False),
        )
        # Pinned: SELECTs must lazy-migrate their granules.
        session = tpcc_db.connect(isolation="read_committed")
        # Touch a few customers: lazy-migrates their granules.
        for c_id in (1, 2, 3):
            session.execute(
                "SELECT c_balance FROM customer_private "
                "WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = ?",
                [c_id],
            )
        rows = session.execute(
            "SELECT * FROM bullfrog_stat_migrations"
        ).dicts()
        assert rows, "live migration must appear in the view"
        assert all(r["migration"] == "split" for r in rows)
        total_migrated = sum(r["tuples_migrated"] for r in rows) / len(rows)
        assert total_migrated >= 3
        # Mid-migration: progress strictly between 0 and 1 somewhere.
        fractions = [r["fraction"] for r in rows if r["fraction"] is not None]
        assert fractions
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert any(0.0 < f < 1.0 for f in fractions)
        assert not any(r["complete"] for r in rows)
        # The other three views answer through the same SQL surface.
        activity = session.execute("SELECT * FROM bullfrog_stat_activity")
        assert activity.columns[0] == "txn_id"
        locks = session.execute("SELECT * FROM bullfrog_stat_locks")
        assert locks.columns[0] == "resource_class"
        stmts = session.execute("SELECT * FROM bullfrog_stat_statements")
        assert stmts.columns[0] == "stmt"
        controller.active.shutdown()

    def test_progress_keys_and_eta_lifecycle(self):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        session = db.connect()
        progress = engine.progress()
        for key in ("fraction", "tuples_per_sec", "eta_seconds",
                    "background_passes", "granules_total"):
            assert key in progress
        assert progress["fraction"] == 0.0
        # Drain the migration through client queries.
        for i in range(50):
            session.execute("SELECT v FROM left_part WHERE id = ?", [i])
        engine.finalize()
        progress = engine.progress()
        assert progress["complete"]
        assert progress["fraction"] == 1.0
        assert progress["eta_seconds"] == 0.0


# ======================================================================
# Lock-wait profiling
# ======================================================================
class TestLockWaitProfiling:
    def test_probes_do_not_create_entries(self):
        locks = LockManager(timeout=1.0)
        assert locks.held_mode(1, ("table", "ghost")) is None
        assert locks.waiter_count(("table", "ghost")) == 0
        assert ("table", "ghost") not in locks._entries

    def test_probe_hammer_consistency(self):
        """Concurrent acquire/release vs held_mode/waiter_count probes:
        no exceptions, no phantom entries, and every probed value is one
        the resource legitimately had."""
        locks = LockManager(timeout=5.0)
        resources = [("tuple", "t", i) for i in range(8)]
        ghosts = [("tuple", "ghost", i) for i in range(8)]
        stop = threading.Event()
        errors = []

        def churner(txn_id):
            try:
                while not stop.is_set():
                    for resource in resources:
                        locks.acquire(txn_id, resource, LockMode.S)
                    for resource in resources:
                        locks.release(txn_id, resource)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def prober():
            try:
                while not stop.is_set():
                    for resource in resources + ghosts:
                        mode = locks.held_mode(1, resource)
                        assert mode in (None, LockMode.S)
                        assert locks.waiter_count(resource) >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churner, args=(i + 1,)) for i in range(2)]
        threads += [threading.Thread(target=prober) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        for ghost in ghosts:
            assert ghost not in locks._entries

    def test_contended_wait_is_recorded(self):
        locks = LockManager(timeout=5.0)
        resource = ("table", "t")
        locks.acquire(1, resource, LockMode.X)
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, resource, LockMode.S)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        # Let txn 2 actually block, then release.
        deadline = time.monotonic() + 5.0
        while locks.waiter_count(resource) == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.02)
        locks.release(1, resource)
        assert acquired.wait(5.0)
        thread.join(timeout=5.0)
        (row,) = [r for r in locks.snapshot() if r["resource"] == repr(resource)]
        assert row["resource_class"] == "table"
        assert row["wait_count"] == 1
        assert row["wait_seconds"] > 0.0
        assert row["last_blockers"] == [1]
        assert row["holders"] == [2]

    def test_uncontended_acquires_leave_no_profile(self):
        locks = LockManager(timeout=1.0)
        locks.acquire(1, ("table", "t"), LockMode.S)
        locks.release(1, ("table", "t"))
        # Idle + never contended -> filtered from the snapshot.
        assert locks.snapshot() == []

    def test_lock_wait_metrics_flow_to_registry(self):
        obs = Observability()
        locks = LockManager(timeout=5.0)
        locks.obs = obs
        resource = ("tuple", "t", 1)
        locks.acquire(1, resource, LockMode.X)

        def waiter():
            locks.acquire(2, resource, LockMode.X)

        thread = threading.Thread(target=waiter)
        thread.start()
        while locks.waiter_count(resource) == 0:
            time.sleep(0.001)
        locks.release(1, resource)
        thread.join(timeout=5.0)
        cell = obs.lock_wait_latency.labels(resource="tuple")
        assert cell.count == 1
        assert cell.sum > 0.0


    def test_commit_wakes_a_tuple_waiter_in_one_release(self, monkeypatch):
        """A writer blocked on a tuple is woken by the holder's commit,
        which releases every lock it holds in one ``release_all``; while
        it waits, ``bullfrog_stat_locks`` shows the holder and one
        waiter on that tuple."""
        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(3):
            s.execute("INSERT INTO t VALUES (?, ?)", [i, 0])
        tid = next(t for t, row in db.catalog.table("t").heap.scan() if row[0] == 1)
        holder = db.connect(isolation="read_committed")
        holder.begin()
        for i in range(3):
            holder.execute("UPDATE t SET v = v + 1 WHERE id = ?", [i])
        holder_id = holder._txn.id
        waiter = threading.Thread(
            target=db.connect(isolation="read_committed").execute,
            args=("UPDATE t SET v = v + 10 WHERE id = 1",),
        )
        waiter.start()
        deadline = time.monotonic() + 5.0
        while db.txns.locks.waiter_count(("tuple", "t", tid)) == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        rows = s.execute(
            "SELECT holders, modes, waiters FROM bullfrog_stat_locks "
            "WHERE resource = ?",
            [repr(("tuple", "t", tid))],
        ).rows
        assert rows == [(str(holder_id), "X", 1)]
        releases: list = []
        real = db.txns.locks.release_all

        def release_all(txn_id, resources):
            releases.append((txn_id, len(resources)))
            return real(txn_id, resources)

        monkeypatch.setattr(db.txns.locks, "release_all", release_all)
        holder.commit()
        waiter.join(5.0)
        assert not waiter.is_alive()
        # One table lock and three tuple locks, released in one call.
        assert [r for r in releases if r[0] == holder_id] == [(holder_id, 4)]
        assert s.execute("SELECT v FROM t WHERE id = 1").scalar() == 11


class TestDeadlockProfiling:
    def _three_txn_cycle(self):
        """Force T1->T2->T3->T1 over three resources; return the lock
        manager and the DeadlockAvoided errors raised (by txn id)."""
        locks = LockManager(timeout=10.0)
        a, b, c = ("table", "a"), ("table", "b"), ("table", "c")
        locks.acquire(1, a, LockMode.X)
        locks.acquire(2, b, LockMode.X)
        locks.acquire(3, c, LockMode.X)
        died: dict[int, DeadlockAvoided] = {}
        barrier = threading.Barrier(2)

        def run(txn_id, want):
            try:
                if txn_id == 3:
                    barrier.wait(timeout=5.0)  # T2 must be queued first
                locks.acquire(txn_id, want, LockMode.X)
            except DeadlockAvoided as exc:
                died[txn_id] = exc
            finally:
                held = [r for r in (a, b, c)
                        if locks.held_mode(txn_id, r) is not None]
                locks.release_all(txn_id, held)

        # T1 -> b (blocks on T2), T2 -> c (blocks on T3), T3 -> a closes
        # the cycle.  T1 runs on this thread *after* the others queue.
        t2 = threading.Thread(target=run, args=(2, c))
        t3 = threading.Thread(target=run, args=(3, a))
        t2.start()
        deadline = time.monotonic() + 5.0
        while locks.waiter_count(c) == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        t3.start()
        barrier.wait(timeout=5.0)
        run(1, b)
        t2.join(timeout=10.0)
        t3.join(timeout=10.0)
        return locks, (a, b, c), died

    def test_detect_policy_aborts_cycle_closer(self):
        locks, (a, b, c), died = self._three_txn_cycle()
        assert died, "someone must die to break the cycle"
        total_aborts = sum(r["deadlock_aborts"] for r in locks.snapshot())
        assert total_aborts == len(died)
        # The victim's abort is attributed to the resource it waited on.
        victim = next(iter(died))
        waited_on = {3: a, 2: c, 1: b}[victim]
        (row,) = [r for r in locks.snapshot()
                  if r["resource"] == repr(waited_on)]
        assert row["deadlock_aborts"] >= 1

    def test_deadlock_counters_reach_view_and_registry(self):
        """End to end: a deadlock between two sessions shows up in the
        registry counter and in ``bullfrog_stat_locks`` via plain SQL."""
        obs = Observability()
        db = Database(obs=obs)
        s1, s2 = db.connect(), db.connect()
        s1.execute("CREATE TABLE t1 (id INT PRIMARY KEY)")
        s1.execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
        s1.execute("INSERT INTO t1 VALUES (1)")
        s1.execute("INSERT INTO t2 VALUES (1)")
        s1.begin()
        s2.begin()
        s1.execute("UPDATE t1 SET id = 1 WHERE id = 1")
        s2.execute("UPDATE t2 SET id = 1 WHERE id = 1")
        failed = {}

        def cross():
            try:
                s2.execute("UPDATE t1 SET id = 1 WHERE id = 1")
            except DeadlockAvoided as exc:
                # The victim's txn is already aborted by the manager.
                failed["s2"] = exc

        thread = threading.Thread(target=cross)
        thread.start()
        time.sleep(0.05)
        try:
            s1.execute("UPDATE t2 SET id = 1 WHERE id = 1")
        except DeadlockAvoided as exc:
            failed["s1"] = exc
        thread.join(timeout=10.0)
        if s1.in_transaction:
            s1.commit()
        if s2.in_transaction:
            s2.commit()
        assert failed, "the cross update must deadlock one session"
        assert obs.deadlocks_total.value == len(failed)
        monitor = db.connect()
        rows = monitor.execute(
            "SELECT * FROM bullfrog_stat_locks WHERE deadlock_aborts > 0"
        ).dicts()
        assert rows
        assert sum(r["deadlock_aborts"] for r in rows) == len(failed)
