"""Tests for tracker recovery from the REDO log (paper section 3.5).

The paper notes this feature was unimplemented in their prototype
(footnote 5); these tests cover our implementation of it.
"""

import pytest

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.core import GroupState, rebuild_trackers, simulate_crash


def make_db(rows=30):
    # Pinned: recovery tests assert 2PL lazy-migration mechanics.
    db = Database(isolation="read_committed")
    s = db.connect()
    s.execute("CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT)")
    for i in range(rows):
        s.execute("INSERT INTO src VALUES (?, ?, ?)", [i, i % 3, i])
    return db, s


SPLIT_DDL = """
CREATE TABLE a (id INT PRIMARY KEY, v INT);
INSERT INTO a (id, v) SELECT id, v FROM src;
"""

AGG_DDL = """
CREATE TABLE t (grp INT PRIMARY KEY, total INT);
INSERT INTO t (grp, total) SELECT grp, SUM(v) FROM src GROUP BY grp;
"""


class TestBitmapRecovery:
    def test_crash_wipes_tracker(self):
        db, s = make_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM a WHERE id = 5")
        assert engine.units[0].tracker.migrated_count == 1
        simulate_crash(engine)
        assert engine.units[0].tracker.migrated_count == 0

    def test_rebuild_restores_committed_migrations(self):
        db, s = make_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        for key in (5, 9, 12):
            s.execute("SELECT v FROM a WHERE id = ?", [key])
        simulate_crash(engine)
        restored = rebuild_trackers(engine)
        assert restored == 3
        tracker = engine.units[0].tracker
        heap = db.catalog.table("src").heap
        for key in (5, 9, 12):
            assert tracker.is_migrated(key)  # ordinal == id here
        assert tracker.migrated_count == 3

    def test_no_duplicate_rows_after_recovery(self):
        """After recovery, re-querying migrated rows must not migrate
        them again (the whole point of replaying MIGRATE records)."""
        db, s = make_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM a WHERE id = 5")
        simulate_crash(engine)
        rebuild_trackers(engine)
        s.execute("SELECT v FROM a WHERE id = 5")
        rows = s.execute("SELECT COUNT(*) FROM a WHERE id = 5").scalar()
        assert rows == 1

    def test_uncommitted_migration_not_restored(self):
        db, s = make_db()
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", SPLIT_DDL)
        # Manufacture an aborted migration transaction.
        txn = db.txns.begin()
        txn.record_migration(engine.units[0].plan.unit_id, "src", (7,))
        txn.abort()
        simulate_crash(engine)
        rebuild_trackers(engine)
        assert not engine.units[0].tracker.is_migrated(7)

    def test_completion_detected_after_recovery(self, monkeypatch):
        db, s = make_db(rows=10)
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        handle = engine.submit("m", SPLIT_DDL)
        # Crash after the last migration transaction commits, before
        # completion is noticed (finalize drops the migration's records).
        monkeypatch.setattr(engine, "finalize", lambda: None)
        s.execute("SELECT COUNT(*) FROM a")  # full migration
        simulate_crash(engine)
        monkeypatch.undo()
        assert not handle.is_complete
        rebuild_trackers(engine)
        assert engine.units[0].tracker.all_migrated
        assert handle.is_complete
        assert len(db.txns.wal) == 0


class TestHashmapRecovery:
    def test_rebuild_group_states(self):
        db, s = make_db()
        engine = LazyMigrationEngine(
            db, background=BackgroundConfig(enabled=False), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        s.execute("SELECT total FROM t WHERE grp = 1")
        simulate_crash(engine)
        assert engine.units[0].tracker.state((1,)) is None
        restored = rebuild_trackers(engine)
        assert restored == 1
        assert engine.units[0].tracker.state((1,)) is GroupState.MIGRATED

    def test_foreign_wal_records_ignored(self):
        db, s = make_db()
        engine = LazyMigrationEngine(
            db, background=BackgroundConfig(enabled=False), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        txn = db.txns.begin()
        txn.record_migration("some-other-migration/u0", "elsewhere", ((9,),))
        txn.commit()
        simulate_crash(engine)
        assert rebuild_trackers(engine) == 0


@pytest.mark.faults
def test_completed_migrations_leave_no_log_and_the_next_still_recovers():
    """Each migration's records go when it completes, so two migrations
    in sequence leave an empty log; a crash during the second still
    restores exactly its committed granules."""
    db, s = make_db()
    first = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
    first.submit("m1", SPLIT_DDL)
    s.execute("SELECT COUNT(*) FROM a")
    assert first.is_complete
    assert len(db.txns.wal) == 0

    second = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
    second.submit(
        "m2",
        "CREATE TABLE b (id INT PRIMARY KEY, v INT);"
        "INSERT INTO b (id, v) SELECT id, v FROM a;",
    )
    for key in (4, 8, 15):
        s.execute("SELECT v FROM b WHERE id = ?", [key])
    tracker = second.units[0].tracker
    ordinals = range(db.catalog.table("a").heap.max_ordinal)
    migrated = [o for o in ordinals if tracker.is_migrated(o)]
    assert len(migrated) == 3
    simulate_crash(second)
    assert rebuild_trackers(second) == 3
    tracker = second.units[0].tracker
    assert [o for o in ordinals if tracker.is_migrated(o)] == migrated

    s.execute("SELECT COUNT(*) FROM b")
    assert second.is_complete
    assert len(db.txns.wal) == 0
    ids = [r[0] for r in s.execute("SELECT id FROM b").rows]
    assert sorted(ids) == list(range(30))
