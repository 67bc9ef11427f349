"""End-to-end tracker recovery (paper section 3.5): crash mid-migration,
resume the migration and rebuild its trackers from the REDO log's
MIGRATE records, then finish without duplicating migrated rows."""

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.core import rebuild_trackers, simulate_crash


class TestEndToEndCrashRecovery:
    def test_data_plus_tracker_recovery_resumes_migration(self):
        """The full section 3.5 story: crash mid-migration (the heap
        survives, the trackers do not), re-attach the migration, rebuild
        the trackers, and let the migration finish without duplicating
        already-migrated rows."""
        db = Database(isolation="read_committed")
        s = db.connect()
        s.execute("CREATE TABLE src (id INT PRIMARY KEY, v INT)")
        for i in range(30):
            s.execute("INSERT INTO src VALUES (?, ?)", [i, i])
        ddl = (
            "CREATE TABLE copy (id INT PRIMARY KEY, v INT);"
            "INSERT INTO copy (id, v) SELECT id, v FROM src;"
        )
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit("m", ddl)
        for key in (3, 7, 11):
            s.execute("SELECT v FROM copy WHERE id = ?", [key])
        assert engine.stats.tuples_migrated == 3

        # ---- crash: the trackers are gone, the heap and log are not ----
        simulate_crash(engine)
        engine.shutdown()
        assert len(db.catalog.table("copy")) == 3  # pre-crash rows
        engine2 = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine2.submit("m", ddl, resume=True)
        restored = rebuild_trackers(engine2)
        assert restored == 3
        # Touching a recovered-migrated row must NOT migrate it again.
        assert s.execute("SELECT v FROM copy WHERE id = 7").scalar() == 7
        assert engine2.stats.tuples_migrated == 0
        # Finishing the migration covers exactly the remaining 27 rows.
        s.execute("SELECT COUNT(*) FROM copy")
        assert engine2.stats.tuples_migrated == 27
        ids = [r[0] for r in s.execute("SELECT id FROM copy").rows]
        assert sorted(ids) == list(range(30))
        # Complete: nothing is left in the log for any recovery to read.
        assert engine2.is_complete
        assert len(db.txns.wal) == 0
