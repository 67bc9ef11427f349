"""MVCC tuple versioning and snapshot-isolation reads.

Covers the version-chain storage layer end to end through SQL: snapshot
visibility, first-updater-wins write conflicts, commit-time and bulk
version GC — and the migration interplay: snapshot readers are
served pre-migration overlays for in-flight granules instead of
blocking on the migration loop.
"""

import threading
import time

import pytest

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.core.bitmap import Claim
from repro.errors import (
    MigrationError,
    SerializationFailure,
    StorageError,
    TransactionAborted,
)
from repro.net import protocol
from repro.testing import InvariantChecker
from repro.txn import IsolationLevel


def make_kv_db():
    db = Database()
    # The helper session plays the writer/2PL role in these tests.
    s = db.connect(isolation="read_committed")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(1, 4):
        s.execute("INSERT INTO t VALUES (?, ?)", [i, i * 10])
    return db, s


def make_source_db(rows=50):
    db = Database()
    s = db.connect(isolation="read_committed")
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

AGG_DDL = """
CREATE TABLE grp_totals (grp INT PRIMARY KEY, total INT);
INSERT INTO grp_totals (grp, total)
    SELECT grp, SUM(v) FROM src GROUP BY grp;
"""


def no_background():
    return BackgroundConfig(enabled=False)


def chain_depth(heap, tid):
    version = heap.read_version(tid)
    depth = 0
    while version is not None:
        depth += 1
        version = version.prev
    return depth


# ----------------------------------------------------------------------
# Isolation plumbing
# ----------------------------------------------------------------------


class TestIsolationPlumbing:
    def test_coerce_accepts_aliases(self):
        assert IsolationLevel.coerce("snapshot") is IsolationLevel.SNAPSHOT
        assert IsolationLevel.coerce("si") is IsolationLevel.SNAPSHOT
        assert (
            IsolationLevel.coerce("read_committed")
            is IsolationLevel.READ_COMMITTED
        )
        assert IsolationLevel.coerce(None) is None
        with pytest.raises(ValueError):
            IsolationLevel.coerce("chaos")

    def test_env_var_sets_database_default(self, monkeypatch):
        monkeypatch.setenv("BULLFROG_ISOLATION", "snapshot")
        db = Database()
        assert db.default_isolation is IsolationLevel.SNAPSHOT
        assert db.connect().isolation is IsolationLevel.SNAPSHOT

    def test_session_overrides_database_default(self):
        db = Database(isolation="snapshot")
        assert db.connect().isolation is IsolationLevel.SNAPSHOT
        rc = db.connect(isolation="read_committed")
        assert rc.isolation is IsolationLevel.READ_COMMITTED

    def test_internal_sessions_stay_read_committed(self):
        db = Database(isolation="snapshot")
        s = db.connect()
        s.internal = True
        assert s.effective_isolation is IsolationLevel.READ_COMMITTED

    def test_serialization_failure_is_retryable(self):
        assert issubclass(SerializationFailure, TransactionAborted)
        assert protocol.sqlstate_for(SerializationFailure("x")) == "40001"
        assert protocol.sqlstate_for(StorageError("x")) == "XX001"


# ----------------------------------------------------------------------
# Snapshot visibility
# ----------------------------------------------------------------------


class TestSnapshotVisibility:
    def test_reader_sees_pre_update_value(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 10
        s.execute("UPDATE t SET v = 99 WHERE id = 1")
        assert s.execute("SELECT v FROM t WHERE id = 1").scalar() == 99
        # The snapshot reader still sees the version committed before
        # its snapshot, with no lock wait.
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 10
        si.execute("COMMIT")
        # A fresh autocommit snapshot sees the new value.
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 99

    def test_reader_ignores_later_inserts_and_deletes(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        assert si.execute("SELECT COUNT(*) FROM t").scalar() == 3
        s.execute("INSERT INTO t VALUES (4, 40)")
        s.execute("DELETE FROM t WHERE id = 1")
        ids = sorted(r[0] for r in si.execute("SELECT id FROM t").rows)
        assert ids == [1, 2, 3]
        si.execute("COMMIT")
        ids = sorted(r[0] for r in si.execute("SELECT id FROM t").rows)
        assert ids == [2, 3, 4]

    def test_uncommitted_writes_invisible(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 77 WHERE id = 2")
        assert si.execute("SELECT v FROM t WHERE id = 2").scalar() == 20
        s.execute("ROLLBACK")
        assert si.execute("SELECT v FROM t WHERE id = 2").scalar() == 20

    def test_aborted_writer_leaves_no_visible_trace(self):
        db, s = make_kv_db()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE id = 1")
        s.execute("INSERT INTO t VALUES (9, 90)")
        s.execute("DELETE FROM t WHERE id = 3")
        s.execute("ROLLBACK")
        si = db.connect(isolation="snapshot")
        rows = sorted(si.execute("SELECT id, v FROM t").rows)
        assert rows == [(1, 10), (2, 20), (3, 30)]

    def test_own_writes_visible_inside_snapshot_txn(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        si.execute("UPDATE t SET v = 55 WHERE id = 2")
        assert si.execute("SELECT v FROM t WHERE id = 2").scalar() == 55
        si.execute("INSERT INTO t VALUES (5, 50)")
        assert si.execute("SELECT COUNT(*) FROM t").scalar() == 4
        si.execute("COMMIT")
        assert s.execute("SELECT v FROM t WHERE id = 2").scalar() == 55

    def test_index_point_read_respects_snapshot(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        si.execute("SELECT v FROM t WHERE id = 3")
        s.execute("DELETE FROM t WHERE id = 3")
        # Index probe resolves the TID, then snapshot visibility restores
        # the pre-delete version.
        assert si.execute("SELECT v FROM t WHERE id = 3").scalar() == 30
        si.execute("COMMIT")
        assert si.execute("SELECT v FROM t WHERE id = 3").scalar() is None


# ----------------------------------------------------------------------
# Write conflicts (first-updater-wins)
# ----------------------------------------------------------------------


class TestWriteConflicts:
    def test_first_updater_wins(self):
        db, _ = make_kv_db()
        t1 = db.connect(isolation="snapshot")
        t2 = db.connect(isolation="snapshot")
        t1.execute("BEGIN")
        t2.execute("BEGIN")
        t1.execute("UPDATE t SET v = 1 WHERE id = 1")
        t1.execute("COMMIT")
        with pytest.raises(SerializationFailure):
            t2.execute("UPDATE t SET v = 2 WHERE id = 1")
        # The loser is rolled back automatically (retryable abort).
        assert not t2.in_transaction
        # The first committer's write survives.
        assert t1.execute("SELECT v FROM t WHERE id = 1").scalar() == 1

    def test_disjoint_updates_both_commit(self):
        db, _ = make_kv_db()
        t1 = db.connect(isolation="snapshot")
        t2 = db.connect(isolation="snapshot")
        t1.execute("BEGIN")
        t2.execute("BEGIN")
        t1.execute("UPDATE t SET v = 1 WHERE id = 1")
        t2.execute("UPDATE t SET v = 2 WHERE id = 2")
        t1.execute("COMMIT")
        t2.execute("COMMIT")
        rows = sorted(t1.execute("SELECT id, v FROM t").rows)
        assert rows == [(1, 1), (2, 2), (3, 30)]

    def test_delete_conflicts_too(self):
        db, s = make_kv_db()
        t2 = db.connect(isolation="snapshot")
        t2.execute("BEGIN")
        t2.execute("SELECT v FROM t WHERE id = 1")
        s.execute("UPDATE t SET v = 99 WHERE id = 1")
        with pytest.raises(SerializationFailure):
            t2.execute("DELETE FROM t WHERE id = 1")
        assert not t2.in_transaction

    def test_read_committed_txns_unaffected(self):
        db, _ = make_kv_db()
        t1 = db.connect(isolation="read_committed")
        t2 = db.connect(isolation="read_committed")
        t1.execute("BEGIN")
        t1.execute("UPDATE t SET v = 1 WHERE id = 1")
        t1.execute("COMMIT")
        t2.execute("BEGIN")
        t2.execute("UPDATE t SET v = 2 WHERE id = 1")
        t2.execute("COMMIT")
        assert t1.execute("SELECT v FROM t WHERE id = 1").scalar() == 2


# ----------------------------------------------------------------------
# Version GC
# ----------------------------------------------------------------------


class TestVersionGC:
    def test_prune_cuts_superseded_versions(self):
        """The bulk pass cuts what an open snapshot held back at commit."""
        db, s = make_kv_db()
        heap = db.catalog.table("t").heap
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        for v in range(5):
            s.execute("UPDATE t SET v = ? WHERE id = 1", [v])
        si.execute("COMMIT")
        tid = next(t for t, row in heap.scan() if row[0] == 1)
        assert chain_depth(heap, tid) > 1
        pruned = heap.prune_versions(db.txns.oldest_snapshot_ts())
        assert pruned > 0
        assert chain_depth(heap, tid) == 1
        assert s.execute("SELECT v FROM t WHERE id = 1").scalar() == 4

    @pytest.mark.parametrize("isolation", ["read_committed", "snapshot"])
    def test_commit_prunes_what_it_superseded(self, isolation):
        """With no snapshot open, every write commit leaves a one-version
        chain, and the log keeps nothing for a data write."""
        db, _ = make_kv_db()
        s = db.connect(isolation=isolation)
        heap = db.catalog.table("t").heap
        tid = next(t for t, row in heap.scan() if row[0] == 1)
        for v in range(1000):
            s.execute("UPDATE t SET v = ? WHERE id = 1", [v])
        assert chain_depth(heap, tid) == 1
        assert len(db.txns.wal) == 0
        assert s.execute("SELECT v FROM t WHERE id = 1").scalar() == 999

    def test_open_snapshot_keeps_exactly_the_versions_it_reads(self):
        """A commit keeps its tuple's versions back to the oldest open
        snapshot's and cuts the rest; once no snapshot is open, the next
        write to the tuple collapses the chain."""
        db, s = make_kv_db()
        heap = db.catalog.table("t").heap
        tid = next(t for t, row in heap.scan() if row[0] == 1)

        def rows():
            version, out = heap.read_version(tid), []
            while version is not None:
                out.append(version.row[1])
                version = version.prev
            return out

        old = db.connect(isolation="snapshot")
        old.execute("BEGIN")
        s.execute("UPDATE t SET v = 20 WHERE id = 1")
        assert rows() == [20, 10]
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        old.execute("COMMIT")
        s.execute("UPDATE t SET v = 30 WHERE id = 1")
        assert rows() == [30, 20]  # 10 is readable by no snapshot left
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 20
        si.execute("COMMIT")
        s.execute("UPDATE t SET v = 40 WHERE id = 1")
        assert rows() == [40]

    def test_versioned_deletes_leave_no_unindexed_tids(self):
        db, _ = make_kv_db()
        s = db.connect(isolation="snapshot")
        table = db.catalog.table("t")
        for i in range(10, 20):
            s.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        for i in range(10, 20):
            s.execute("DELETE FROM t WHERE id = ?", [i])
        assert table.unindexed_tids() == ()
        assert s.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_prune_keeps_versions_active_snapshots_need(self):
        db, s = make_kv_db()
        heap = db.catalog.table("t").heap
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 10
        s.execute("UPDATE t SET v = 99 WHERE id = 1")
        heap.prune_versions(db.txns.oldest_snapshot_ts())
        # The version the open snapshot reads must survive the prune.
        assert si.execute("SELECT v FROM t WHERE id = 1").scalar() == 10
        si.execute("COMMIT")

    def test_pinned_snapshot_holds_the_gc_horizon(self):
        """A snapshot no transaction holds (an autocommit read's pin)
        bounds GC like an active snapshot."""
        db, s = make_kv_db()
        table = db.catalog.table("t")
        ts = db.txns.pin_snapshot()
        s.execute("UPDATE t SET v = 11 WHERE id = 1")
        s.execute("UPDATE t SET v = 12 WHERE id = 1")
        table.prune_versions(db.txns.oldest_snapshot_ts())
        tid = next(t for t, row in table.heap.scan() if row[0] == 1)
        assert table.heap.read_snapshot(tid, ts) == (1, 10)
        db.txns.unpin_snapshot(ts)
        assert db.txns.oldest_snapshot_ts() == db.txns.current_ts()

    def test_begin_reads_the_clock_and_registers_in_one_step(self, monkeypatch):
        """A commit plus a GC horizon computed right after ``begin``
        read the clock must still see the new snapshot (the parent
        registered it only afterwards, so the horizon passed it)."""
        from repro.txn.manager import TransactionManager

        db, _ = make_kv_db()
        main = threading.current_thread()
        real_clock = TransactionManager.current_ts
        horizon = []

        def race():
            db.connect(isolation="read_committed").execute(
                "UPDATE t SET v = 11 WHERE id = 1"
            )
            horizon.append(db.txns.oldest_snapshot_ts())

        racer = threading.Thread(target=race)

        def clock(self):
            ts = real_clock(self)
            if threading.current_thread() is main and not racer.is_alive() and not horizon:
                racer.start()
                racer.join(0.3)  # runs to completion unless begin blocks it
            return ts

        monkeypatch.setattr(TransactionManager, "current_ts", clock)
        txn = db.txns.begin(IsolationLevel.SNAPSHOT)
        racer.join(5)
        assert not racer.is_alive()
        assert horizon[0] <= txn.snapshot_ts
        txn.commit()

    def test_snapshot_read_survives_gc_between_pin_and_begin(self, monkeypatch):
        """The lazy interceptor fixes an autocommit SI SELECT's snapshot
        before the statement's transaction exists.  Two commits and a
        version GC landing in that window must not cut the version the
        statement then reads (at the parent the row vanished)."""
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM left_part WHERE id = 7")  # migrated, committed
        prepare = LazyMigrationEngine._prepare_snapshot_read

        def racing(self, session, handle, params, snapshot_ts):
            prepare(self, session, handle, params, snapshot_ts)
            s.execute("UPDATE left_part SET v = 71 WHERE id = 7")
            s.execute("UPDATE left_part SET v = 72 WHERE id = 7")
            engine.prune_versions()

        monkeypatch.setattr(LazyMigrationEngine, "_prepare_snapshot_read", racing)
        si = db.connect(isolation="snapshot")
        assert si.execute("SELECT v FROM left_part WHERE id = 7").rows == [(70,)]
        assert si.execute("SELECT v FROM left_part WHERE id = 7").rows == [(72,)]
        assert db.txns._pins == {}

    def test_pin_released_when_the_interceptor_fails(self, monkeypatch):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)

        def broken(self, session, handle, params, snapshot_ts):
            raise RuntimeError("overlay failed")

        monkeypatch.setattr(LazyMigrationEngine, "_prepare_snapshot_read", broken)
        si = db.connect(isolation="snapshot")
        with pytest.raises(RuntimeError):
            si.execute("SELECT v FROM left_part WHERE id = 7")
        assert db.txns._pins == {} and si._pending_snapshot_ts is None
        assert db.txns.oldest_snapshot_ts() == db.txns.current_ts()


# ----------------------------------------------------------------------
# Migration interplay: snapshot readers never block
# ----------------------------------------------------------------------


class TestMigrationSnapshotReads:
    def test_snapshot_reader_not_blocked_by_inflight_migration(self):
        """The acceptance regression: with every granule claimed by a
        (simulated) concurrent migration worker, a 2PL reader times out
        in the skip-wait loop while a snapshot reader completes with the
        full pre-migration image."""
        db, s = make_source_db()
        engine = LazyMigrationEngine(
            db, background=no_background(), skip_wait_timeout=0.5
        )
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]
        for g in range(runtime.tracker.size):
            assert runtime.tracker.try_begin(g) is Claim.MIGRATE

        si = db.connect(isolation="snapshot")
        start = time.monotonic()
        rows = sorted(si.execute("SELECT id, v FROM left_part").rows)
        elapsed = time.monotonic() - start
        assert rows == [(i, i * 10) for i in range(50)]
        assert elapsed < 0.45  # never entered the skip-wait loop
        # The snapshot read migrated nothing and wrote nothing.
        assert engine.stats.tuples_migrated == 0
        assert len(db.catalog.table("left_part")) == 0

        with pytest.raises(MigrationError):
            s.execute("SELECT id, v FROM left_part")

        runtime.tracker.reset(range(runtime.tracker.size))
        assert sorted(s.execute("SELECT id, v FROM left_part").rows) == rows

    def test_snapshot_point_read_through_index(self):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        assert si.execute("SELECT v FROM left_part WHERE id = 7").scalar() == 70
        assert engine.stats.tuples_migrated == 0

    def test_snapshot_index_scan_filters_and_projects_overlay(self):
        """The compiled SI index scan applies the key re-check, the
        residual filter and the projection to overlay rows too."""
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM left_part WHERE id = 8")  # migrated
        si = db.connect(isolation="snapshot")
        sql = "SELECT id, v * 2 FROM left_part WHERE id = ? AND v >= ?"
        assert si.execute(sql, [7, 0]).rows == [(7, 140)]  # from the overlay
        assert si.execute(sql, [8, 0]).rows == [(8, 160)]  # from the heap
        assert si.execute(sql, [7, 71]).rows == []
        assert si.execute(sql, [8, 81]).rows == []
        assert engine.stats.tuples_migrated == 1

    def test_snapshot_read_mixes_migrated_and_overlay(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        # Migrate one granule the 2PL way; committed before the snapshot.
        s.execute("SELECT v FROM left_part WHERE id = 7")
        assert engine.stats.tuples_migrated == 1
        si = db.connect(isolation="snapshot")
        rows = sorted(si.execute("SELECT id, v FROM left_part").rows)
        # Exactly once: the migrated granule comes from the output heap,
        # the rest from the overlay — no loss, no double count.
        assert rows == [(i, i * 10) for i in range(50)]

    def test_snapshot_agg_reads_hashmap_overlay(self):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", AGG_DDL)
        si = db.connect(isolation="snapshot")
        expected = sum(i * 10 for i in range(50) if i % 5 == 2)
        assert (
            si.execute("SELECT total FROM grp_totals WHERE grp = 2").scalar()
            == expected
        )
        rows = sorted(si.execute("SELECT grp, total FROM grp_totals").rows)
        assert rows == [
            (g, sum(i * 10 for i in range(50) if i % 5 == g)) for g in range(5)
        ]
        assert engine.stats.tuples_migrated == 0

    def test_explain_analyze_counts_the_overlay_rows_the_select_sees(self):
        """EXPLAIN ANALYZE runs the interceptor after its execution
        context exists; the overlay must still reach the instrumented
        scan, or it reports rows=0 for a 10-row result."""
        import re

        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        sql = "SELECT id FROM left_part WHERE v >= 400"
        expected = si.execute(sql).rowcount
        assert expected == 10
        plan = si.execute("EXPLAIN ANALYZE " + sql).rows
        assert re.search(r"rows=(\d+)", plan[0][0]).group(1) == str(expected)
        assert engine.stats.tuples_migrated == 0

    def test_explicit_snapshot_txn_consistent_across_migration(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        assert si.execute("SELECT COUNT(*) FROM left_part").scalar() == 50
        # A migration commits mid-transaction; it is newer than the
        # snapshot, so the reader keeps seeing the overlay image.
        s.execute("SELECT v FROM left_part WHERE id = 7")
        assert engine.stats.tuples_migrated == 1
        rows = sorted(si.execute("SELECT id, v FROM left_part").rows)
        assert rows == [(i, i * 10) for i in range(50)]
        si.execute("COMMIT")

    def test_snapshot_dml_still_migrates_synchronously(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        si.execute("UPDATE left_part SET v = -1 WHERE id = 3")
        assert engine.stats.tuples_migrated >= 1
        assert s.execute("SELECT v FROM left_part WHERE id = 3").scalar() == -1

    def test_snapshot_select_for_update_migrates_synchronously(self):
        """FOR UPDATE locks real output rows, so it is not served from
        the overlay: an autocommit one migrates its scope first (the
        parent sent it down the overlay path and its locked scan, which
        never reads the overlay, returned [])."""
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        sql = "SELECT v FROM left_part WHERE id = 3 FOR UPDATE"
        assert si.execute(sql).rows == [(30,)]
        assert engine.stats.tuples_migrated >= 1

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3 step 3: inside a SNAPSHOT transaction the "
        "migration commits the output row after the snapshot, so the "
        "statement's snapshot scan does not see it",
    )
    @pytest.mark.parametrize("sql,expected", [
        ("UPDATE left_part SET v = v + 1 WHERE id = 3", (1, [])),
        ("DELETE FROM left_part WHERE id = 3", (1, [])),
        ("SELECT v FROM left_part WHERE id = 3 FOR UPDATE", (1, [(30,)])),
    ], ids=["update", "delete", "for-update"])
    def test_snapshot_txn_writes_an_unmigrated_row(self, sql, expected):
        db, _ = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        result = si.execute(sql)
        si.execute("COMMIT")
        assert (result.rowcount, result.rows) == expected

    def test_invariants_clean_after_si_traffic(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        si = db.connect(isolation="snapshot")
        for i in (3, 17, 42):
            si.execute("SELECT v FROM left_part WHERE id = ?", [i])
        si.execute("SELECT COUNT(*) FROM left_part")
        # Drive the migration to completion through the 2PL path.
        s.execute("SELECT COUNT(*) FROM left_part")
        s.execute("SELECT COUNT(*) FROM right_part")
        assert engine.is_complete
        InvariantChecker(engine).check(expect_complete=True).raise_if_violated()

    def test_versions_pruned_surfaced(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT COUNT(*) FROM left_part")
        s.execute("SELECT COUNT(*) FROM right_part")
        assert engine.is_complete
        # An open snapshot holds the versions back at commit; once it
        # ends, the bulk pass collects them.
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        for v in range(3):
            s.execute("UPDATE left_part SET v = ? WHERE id = 1", [v])
        si.execute("COMMIT")
        assert engine.prune_versions() > 0
        assert engine.progress()["versions_pruned"] > 0
        row = s.execute(
            "SELECT versions_pruned FROM bullfrog_stat_migrations"
        ).rows[0]
        assert row[0] > 0

    # The overlay reads the migration's inputs at the reader's snapshot,
    # the reader's own writes included.  Without the big flip the inputs
    # stay writable, so a read of current heads shows what the snapshot
    # must not.

    @staticmethod
    def _gtv_db():
        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
        for i in range(4):
            s.execute("INSERT INTO t VALUES (?, ?, 10)", [i, i % 2])
        return db, s

    def test_hashmap_overlay_reads_inputs_at_the_snapshot(self):
        db, s = self._gtv_db()
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit(
            "m", "CREATE TABLE agg AS SELECT g, SUM(v) AS total FROM t GROUP BY g"
        )
        a = db.connect(isolation="snapshot")
        a.execute("BEGIN")
        assert a.execute("SELECT SUM(v) FROM t WHERE g = 1").scalar() == 20
        s.execute("INSERT INTO t VALUES (10, 1, 1000)")
        assert a.execute("SELECT total FROM agg WHERE g = 1").scalar() == 20
        assert a.execute("SELECT SUM(v) FROM t WHERE g = 1").scalar() == 20
        a.execute("COMMIT")
        assert engine.stats.tuples_migrated == 0

    def test_aux_join_overlay_reads_the_aux_table_at_the_snapshot(self):
        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE dim (k INT PRIMARY KEY, label VARCHAR(10))")
        s.execute("CREATE TABLE fact (id INT PRIMARY KEY, k INT, amt INT)")
        s.execute("INSERT INTO dim VALUES (1, 'old')")
        for i in range(3):
            s.execute("INSERT INTO fact VALUES (?, 1, ?)", [i, i * 5])
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit(
            "m",
            "CREATE TABLE denorm AS SELECT f.id AS fid, f.amt, d.label "
            "FROM fact f, dim d WHERE f.k = d.k",
        )
        assert engine.units[0].plan.aux is not None
        a = db.connect(isolation="snapshot")
        a.execute("BEGIN")
        assert a.execute("SELECT label FROM dim WHERE k = 1").scalar() == "old"
        s.execute("UPDATE dim SET label = 'new'")
        assert a.execute("SELECT label FROM denorm WHERE fid = 1").scalar() == "old"
        assert sorted(a.execute("SELECT fid, label FROM denorm").rows) == [
            (0, "old"), (1, "old"), (2, "old")
        ]
        a.execute("COMMIT")
        b = db.connect(isolation="snapshot")
        assert b.execute("SELECT label FROM denorm WHERE fid = 1").scalar() == "new"

    def test_overlay_sees_the_readers_own_input_writes(self):
        db, s = self._gtv_db()
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", "CREATE TABLE t2 AS SELECT id, g, v * 2 AS v2 FROM t")
        a = db.connect(isolation="snapshot")
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 7 WHERE id = 1")
        assert a.execute("SELECT v2 FROM t2 WHERE id = 1").scalar() == 14
        other = db.connect(isolation="snapshot")
        assert other.execute("SELECT v2 FROM t2 WHERE id = 1").scalar() == 20
        a.execute("COMMIT")
        for isolation in ("snapshot", "read_committed"):
            reader = db.connect(isolation=isolation)
            assert reader.execute("SELECT v2 FROM t2 WHERE id = 1").scalar() == 14


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


class TestActivityView:
    def test_activity_shows_isolation_and_snapshot_ts(self):
        db, s = make_kv_db()
        si = db.connect(isolation="snapshot")
        si.execute("BEGIN")
        si.execute("SELECT v FROM t WHERE id = 1")
        rc = db.connect(isolation="read_committed")
        rc.execute("BEGIN")
        rc.execute("UPDATE t SET v = 11 WHERE id = 1")
        rows = s.execute(
            "SELECT isolation, snapshot_ts FROM bullfrog_stat_activity"
        ).rows
        by_isolation = {r[0]: r[1] for r in rows}
        assert by_isolation["snapshot"] is not None
        assert by_isolation["read_committed"] is None
        rc.execute("ROLLBACK")
        si.execute("COMMIT")
