"""Tests for the eager and multi-step baselines (paper section 4)."""

import threading
import time

import pytest

from repro import Database
from repro.core import (
    EagerMigration,
    MigrationController,
    MultiStepMigration,
    Strategy,
)
from repro.errors import MigrationStateError, SchemaVersionError


def make_db(rows=40):
    db = Database()
    s = db.connect()
    s.execute("CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT)")
    for i in range(rows):
        s.execute("INSERT INTO src VALUES (?, ?, ?)", [i, i % 4, i])
    return db, s


SPLIT_DDL = """
CREATE TABLE a (id INT PRIMARY KEY, v INT);
INSERT INTO a (id, v) SELECT id, v FROM src;
CREATE TABLE b (id INT PRIMARY KEY, grp INT);
INSERT INTO b (id, grp) SELECT id, grp FROM src;
"""

AGG_DDL = """
CREATE TABLE t (grp INT PRIMARY KEY, total INT);
INSERT INTO t (grp, total) SELECT grp, SUM(v) FROM src GROUP BY grp;
"""


class TestEager:
    def test_full_migration_and_flip(self):
        db, s = make_db()
        eager = EagerMigration(db)
        eager.submit("m", SPLIT_DDL)
        assert eager.is_complete
        assert s.execute("SELECT COUNT(*) FROM a").scalar() == 40
        assert s.execute("SELECT COUNT(*) FROM b").scalar() == 40
        with pytest.raises(SchemaVersionError):
            s.execute("SELECT * FROM src")

    def test_resubmission_rejected(self):
        db, s = make_db()
        eager = EagerMigration(db)
        eager.submit("m", SPLIT_DDL)
        with pytest.raises(MigrationStateError):
            eager.submit("m2", SPLIT_DDL)

    def test_concurrent_reader_blocks_until_commit(self):
        """A reader arriving during eager migration queues behind the X
        table lock — the downtime window of figure 3."""
        db, s = make_db(rows=300)
        release = threading.Event()
        # Slow the migration artificially by holding the lock first.
        # Pinned: the reader must take an IS lock to block the migration.
        blocker = db.connect(isolation="read_committed")
        blocker.execute("BEGIN")
        blocker.execute("SELECT COUNT(*) FROM src")  # IS lock held

        timings = {}

        def migrate():
            eager = EagerMigration(db)
            timings["start"] = time.monotonic()
            eager.submit("m", SPLIT_DDL)
            timings["end"] = time.monotonic()

        thread = threading.Thread(target=migrate)
        thread.start()
        time.sleep(0.2)
        assert "end" not in timings  # migration waits for the reader
        blocker.execute("COMMIT")
        thread.join(timeout=10)
        assert "end" in timings

    def test_eager_aggregate_without_flip(self):
        db, s = make_db()
        eager = EagerMigration(db, big_flip=False)
        eager.submit("m", AGG_DDL)
        assert s.execute("SELECT COUNT(*) FROM src").scalar() == 40
        assert s.execute("SELECT COUNT(*) FROM t").scalar() == 4


class TestMultiStep:
    def test_copy_then_switch(self):
        db, s = make_db()
        multistep = MultiStepMigration(db, chunk=16, interval=0.0)
        multistep.submit("m", SPLIT_DDL)
        assert multistep.await_completion(timeout=20)
        assert s.execute("SELECT COUNT(*) FROM a").scalar() == 40
        with pytest.raises(SchemaVersionError):
            s.execute("SELECT * FROM src")

    def test_old_schema_usable_during_copy(self):
        db, s = make_db(rows=2000)
        multistep = MultiStepMigration(db, chunk=64, interval=0.005)
        multistep.submit("m", SPLIT_DDL)
        # Old-schema reads and writes work while the copier runs.
        assert s.execute("SELECT COUNT(*) FROM src").scalar() >= 2000
        s.execute("UPDATE src SET v = v + 1 WHERE id = 0")
        assert multistep.await_completion(timeout=30)

    @pytest.mark.parametrize("indexed", [True, False], ids=["index", "no_index"])
    def test_null_group_copied_and_dual_written(self, indexed):
        """The copier and a dual write both pin the NULL group with
        ``IS NULL``: the shadow ends equal to an eager run."""
        ddl = """
        CREATE TABLE t (grp INT UNIQUE, total INT);
        INSERT INTO t (grp, total) SELECT grp, SUM(v) FROM src GROUP BY grp;
        """

        def build():
            db, s = make_db(rows=12)
            s.execute("UPDATE src SET grp = NULL WHERE grp = 0")
            if indexed:
                s.execute("CREATE INDEX src_grp ON src (grp)")
            return db, s

        def writes(s):
            s.execute("INSERT INTO src VALUES (100, NULL, 5)")
            s.execute("UPDATE src SET v = v + 1 WHERE id = 4")

        eager_db, eager_s = build()
        writes(eager_s)
        EagerMigration(eager_db).submit("m", ddl)
        eager = sorted(eager_s.execute("SELECT grp, total FROM t").rows, key=repr)
        assert (None, 0 + (4 + 1) + 8 + 5) in eager

        db, s = build()
        multistep = MultiStepMigration(db, chunk=4, interval=0.3)
        multistep.submit("m", ddl)
        writes(s)  # while the copier sleeps between chunks: dual writes
        assert multistep.await_completion(timeout=20)
        assert sorted(s.execute("SELECT grp, total FROM t").rows, key=repr) == eager

    def test_dual_write_update_of_copied_row(self):
        """An update to an already-copied row must land in the shadow —
        the 'writes happen twice' behaviour."""
        db, s = make_db(rows=50)
        multistep = MultiStepMigration(db, chunk=500, interval=0.0)
        multistep.submit("m", SPLIT_DDL)
        assert multistep.await_completion(timeout=20) is True
        # After the switch the shadow is authoritative; but we want to
        # verify the dual-write path itself, so run a second scenario
        # where we update mid-copy:
        db2, s2 = make_db(rows=5000)
        ms2 = MultiStepMigration(db2, chunk=32, interval=0.002)
        ms2.submit("m", SPLIT_DDL)
        # update a low-ordinal row: almost certainly already copied
        time.sleep(0.05)
        s2.execute("UPDATE src SET v = 7777 WHERE id = 0")
        assert ms2.await_completion(timeout=60)
        assert s2.execute("SELECT v FROM a WHERE id = 0").scalar() == 7777

    def test_insert_during_copy_lands_in_shadow(self):
        db, s = make_db(rows=3000)
        multistep = MultiStepMigration(db, chunk=32, interval=0.002)
        multistep.submit("m", SPLIT_DDL)
        s.execute("INSERT INTO src VALUES (99999, 1, 42)")
        assert multistep.await_completion(timeout=60)
        assert s.execute("SELECT v FROM a WHERE id = 99999").scalar() == 42

    def test_delete_during_copy_removed_from_shadow(self):
        db, s = make_db(rows=3000)
        multistep = MultiStepMigration(db, chunk=32, interval=0.002)
        multistep.submit("m", SPLIT_DDL)
        time.sleep(0.05)  # let the copier cover the low ordinals
        s.execute("DELETE FROM src WHERE id = 1")
        assert multistep.await_completion(timeout=60)
        assert s.execute("SELECT COUNT(*) FROM a WHERE id = 1").scalar() == 0

    def test_projection_compiled_once_per_unit(self, monkeypatch):
        """The copier and the dual-write hooks run the statements that
        ``submit()`` prepared: no ``Planner.plan_select`` or
        ``Executor.prepare`` call per copied or dual-written row, and no
        function- or module-level cache that grows with the number of
        rows (an old per-row cache was keyed on the id() of a per-call
        temporary, never hit, and leaked an entry per row per output)."""
        import inspect

        import repro.core.multistep as multistep_module
        import repro.core.production as production_module
        from repro.exec.executor import Executor
        from repro.exec.planner import Planner

        def container_sizes():
            sizes = {}
            for module in (multistep_module, production_module):
                for name, value in vars(module).items():
                    holders = [(name, value)]
                    if inspect.isfunction(value):
                        holders = [
                            (f"{name}.{attr}", held)
                            for attr, held in vars(value).items()
                        ]
                    for label, held in holders:
                        if isinstance(held, (dict, list, set)):
                            sizes[(module.__name__, label)] = len(held)
            return sizes

        rows, extra = 300, 60
        db, s = make_db(rows=rows)
        multistep = MultiStepMigration(db, chunk=16, interval=0.005)
        multistep.submit("m", SPLIT_DDL)

        calls = []
        for owner, name in ((Planner, "plan_select"), (Executor, "prepare")):
            def counting(self, *args, _real=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        before = container_sizes()
        for i in range(extra):  # inserts are always dual-written
            s.execute("INSERT INTO src VALUES (?, ?, ?)", [10_000 + i, i % 4, i])
        assert multistep.await_completion(timeout=60)
        # At most the client's INSERT and each output's production
        # INSERT .. SELECT and key DELETE, once each — not once per row.
        assert len(calls) <= 7, calls
        assert s.execute("SELECT COUNT(*) FROM a").scalar() == rows + extra
        assert s.execute("SELECT COUNT(*) FROM b").scalar() == rows + extra
        after = container_sizes()
        grown = {k: n for k, n in after.items() if n > before.get(k, 0)}
        assert grown == {}

    def test_rolled_back_dual_write_keeps_the_copied_row(self):
        """A dual-written DELETE runs in the client's transaction: its
        rollback restores the copied row for readers at every isolation
        level (a tombstone written outside the transaction stayed
        committed for snapshot readers)."""
        db, s = make_db(rows=3)
        multistep = MultiStepMigration(db, chunk=1, interval=2.0, big_flip=False)
        multistep.submit(
            "m",
            "CREATE TABLE out (id INT PRIMARY KEY, w INT);"
            "INSERT INTO out (id, w) SELECT id, v * 10 FROM src;",
        )
        try:
            deadline = time.monotonic() + 10
            while s.execute("SELECT COUNT(*) FROM out").scalar() == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client = db.connect(isolation="read_committed")
            client.execute("BEGIN")
            client.execute("UPDATE src SET v = 99 WHERE id = 0")
            client.execute("ROLLBACK")
            sql = "SELECT id, w FROM out WHERE id = 0"
            for isolation in ("snapshot", "read_committed", "snapshot"):
                reader = db.connect(isolation=isolation)
                assert reader.execute(sql).rows == [(0, 0)], isolation
        finally:
            multistep.stop()

    @pytest.mark.parametrize(
        "ddl, read, expected",
        [
            (
                "CREATE TABLE out (id INT PRIMARY KEY, w INT);"
                "INSERT INTO out (id, w) SELECT id, v * 10 FROM src;",
                "SELECT w FROM out WHERE id = 0",
                990,
            ),
            (
                "CREATE TABLE out (grp INT PRIMARY KEY, total INT);"
                "INSERT INTO out (grp, total) SELECT grp, SUM(v) FROM src GROUP BY grp;",
                "SELECT total FROM out WHERE grp = 0",
                99 + 4 + 8,
            ),
        ],
        ids=["bitmap", "keyed"],
    )
    def test_dual_write_from_an_older_snapshot_sees_the_copied_rows(
        self, ddl, read, expected
    ):
        """A snapshot taken before the copier reached a row does not hide
        that row from the dual write: the shadow ends equal to the
        source, not stale."""
        db, s = make_db(rows=3 * 4)
        client = db.connect(isolation="snapshot")
        client.execute("BEGIN")
        client.execute("SELECT COUNT(*) FROM src")
        multistep = MultiStepMigration(db, chunk=12, interval=2.0, big_flip=False)
        multistep.submit("m", ddl)
        try:
            deadline = time.monotonic() + 10
            while s.execute("SELECT COUNT(*) FROM out").scalar() == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.execute("UPDATE src SET v = 99 WHERE id = 0")
            client.execute("COMMIT")
            assert s.execute(read).scalar() == expected
        finally:
            multistep.stop()

    def test_keyed_unit_group_recompute(self):
        """Aggregate shadow: a write to a copied group recomputes it."""
        db, s = make_db(rows=200)
        multistep = MultiStepMigration(
            db, chunk=64, interval=0.0, big_flip=False
        )
        multistep.submit("m", AGG_DDL)
        assert multistep.await_completion(timeout=30)
        before = s.execute("SELECT total FROM t WHERE grp = 1").scalar()
        # Hooks are removed after completion; this checks final totals.
        expected = sum(i for i in range(200) if i % 4 == 1)
        assert before == expected

    def test_keyed_unit_dual_write_mid_copy(self):
        db, s = make_db(rows=4000)
        multistep = MultiStepMigration(
            db, chunk=16, interval=0.002, big_flip=False
        )
        multistep.submit("m", AGG_DDL)
        time.sleep(0.05)
        # Insert a new source row for group 1 while copying.
        s.execute("INSERT INTO src VALUES (99999, 1, 1000)")
        assert multistep.await_completion(timeout=60)
        expected = sum(i for i in range(4000) if i % 4 == 1) + 1000
        assert s.execute("SELECT total FROM t WHERE grp = 1").scalar() == expected


class TestController:
    def test_lazy_strategy(self):
        db, s = make_db()
        controller = MigrationController(db)
        from repro.core import BackgroundConfig

        handle = controller.submit(
            "m",
            SPLIT_DDL,
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.05, chunk=64, interval=0.0),
        )
        assert controller.new_schema_active
        assert handle.await_completion(timeout=20)

    def test_eager_strategy(self):
        db, s = make_db()
        controller = MigrationController(db)
        handle = controller.submit("m", SPLIT_DDL, strategy=Strategy.EAGER)
        assert handle.is_complete
        assert controller.new_schema_active

    def test_multistep_strategy_schema_flips_late(self):
        db, s = make_db(rows=2000)
        controller = MigrationController(db)
        handle = controller.submit(
            "m",
            SPLIT_DDL,
            strategy=Strategy.MULTISTEP,
            multistep_chunk=64,
            multistep_interval=0.002,
        )
        assert not controller.new_schema_active  # still copying
        assert handle.await_completion(timeout=30)
        assert controller.new_schema_active

    def test_second_migration_while_running_rejected(self):
        db, s = make_db(rows=3000)
        controller = MigrationController(db)
        controller.submit(
            "m",
            SPLIT_DDL,
            strategy=Strategy.MULTISTEP,
            multistep_chunk=16,
            multistep_interval=0.01,
        )
        with pytest.raises(MigrationStateError):
            controller.submit("m2", AGG_DDL, strategy=Strategy.EAGER)
        controller.active.await_completion(timeout=60)

    def test_progress_shapes(self):
        db, s = make_db()
        controller = MigrationController(db)
        handle = controller.submit("m", SPLIT_DDL, strategy=Strategy.EAGER)
        progress = handle.progress()
        assert progress["complete"] is True
        assert progress["tuples_migrated"] == 80  # 40 rows x 2 outputs
