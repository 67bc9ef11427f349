"""Tests for the lazy migration engine (sections 2 and 3)."""

import threading
import time

import pytest

from repro import BackgroundConfig, ConflictMode, Database, LazyMigrationEngine
from repro.core import MigrationCategory, Strategy
from repro.core.predicates import Scope
from repro.errors import (
    MigrationStateError,
    SchemaVersionError,
    UnsupportedMigrationError,
)


def make_source_db(rows=50):
    # Pinned: these tests assert 2PL lazy-migration mechanics.
    db = Database(isolation="read_committed")
    s = db.connect()
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    s.execute("CREATE INDEX src_grp ON src (grp)")
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


def fast_background():
    return BackgroundConfig(delay=0.05, chunk=64, interval=0.0)


class TestLogicalSwitch:
    def test_old_schema_rejected_immediately(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", "CREATE TABLE copy AS SELECT id, v FROM src")
        with pytest.raises(SchemaVersionError):
            s.execute("SELECT * FROM src")

    def test_outputs_created_empty(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        assert len(db.catalog.table("left_part")) == 0
        assert len(db.catalog.table("right_part")) == 0

    def test_internal_views_created(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        assert db.catalog.has_view("left_part_bullfrog_view")
        assert db.catalog.view("left_part_bullfrog_view").internal

    def test_big_flip_false_keeps_old_schema(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        assert s.execute("SELECT COUNT(*) FROM src").scalar() == 50

    def test_second_migration_rejected(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", "CREATE TABLE copy AS SELECT id, v FROM src")
        with pytest.raises(MigrationStateError):
            engine.submit("m2", "CREATE TABLE copy2 AS SELECT id FROM src")

    def test_on_conflict_requires_unique_outputs(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(
            db,
            background=no_background(),
            conflict_mode=ConflictMode.ON_CONFLICT,
        )
        with pytest.raises(UnsupportedMigrationError):
            engine.submit("m", "CREATE TABLE copy AS SELECT id, v FROM src")


class TestLazyBehaviour:
    def test_query_migrates_only_its_scope(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM left_part WHERE id = 7")
        assert engine.stats.tuples_migrated == 1
        # Both outputs received the row (1:n semantics).
        assert len(db.catalog.table("left_part")) == 1
        assert len(db.catalog.table("right_part")) == 1

    def test_repeated_query_does_not_remigrate(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        for _ in range(5):
            s.execute("SELECT v FROM left_part WHERE id = 7")
        assert engine.stats.tuples_migrated == 1
        assert len(db.catalog.table("left_part")) == 1

    def test_full_scan_migrates_everything(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        assert s.execute("SELECT COUNT(*) FROM left_part").scalar() == 50
        assert engine.stats.tuples_migrated == 50
        assert engine.is_complete  # every granule migrated -> finalized

    @pytest.mark.parametrize("isolation", ["read_committed", "snapshot"])
    @pytest.mark.parametrize(
        "setup,sql,expected",
        [
            (
                "CREATE VIEW lv AS SELECT id, v FROM left_part",
                "SELECT COUNT(*) FROM lv",
                [(50,)],
            ),
            (
                None,
                "SELECT a.v, b.v FROM left_part a, left_part b "
                "WHERE a.id = 1 AND b.id = 2",
                [(10, 20)],
            ),
            (
                None,
                "SELECT l.v, r.tag FROM left_part l JOIN right_part r "
                "ON r.id = 7 WHERE l.id = 3",
                [(30, "t1")],
            ),
        ],
        ids=["view", "self-join", "two-outputs"],
    )
    def test_every_read_of_an_output_is_in_scope(self, isolation, setup, sql, expected):
        """A view is read through its expansion, and each binding of a
        unit's outputs filters only its own rows: the scope is their
        union, not their conjunction."""
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        if setup is not None:
            s.execute(setup)
        assert db.connect(isolation=isolation).execute(sql).rows == expected

    def test_update_on_new_schema_after_migration(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("UPDATE left_part SET v = 999 WHERE id = 3")
        assert s.execute(
            "SELECT v FROM left_part WHERE id = 3"
        ).scalar() == 999
        # the sibling output still has the original row
        assert s.execute(
            "SELECT tag FROM right_part WHERE id = 3"
        ).scalar() == "t0"

    def test_insert_without_constraints_needs_no_migration(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit(
            "m", "CREATE TABLE copy AS SELECT id, v FROM src"
        )
        s.execute("INSERT INTO copy (id, v) VALUES (1000, 1)")
        assert engine.stats.tuples_migrated == 0

    def test_insert_with_pk_migrates_conflict_candidates(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        from repro.errors import UniqueViolation

        # id=7 exists in the old data: the engine migrates it first so
        # the PK check sees it — and the insert correctly fails.
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO left_part (id, v) VALUES (7, 0)")
        assert engine.stats.tuples_migrated >= 1
        # A genuinely new id inserts fine.
        s.execute("INSERT INTO left_part (id, v) VALUES (1000, 0)")

    def test_insert_select_and_derived_table_read_migrated_rows(self):
        """An output read by an INSERT ... SELECT or inside a derived
        table migrates first; unmigrated, it would read as empty."""
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("CREATE TABLE sink (id INT, v INT)")
        insert = "INSERT INTO sink SELECT id, v FROM left_part WHERE id = ?"
        assert s.execute(insert, [7]).rowcount == 1
        assert engine.stats.tuples_migrated == 1
        derived = "SELECT COUNT(*) FROM (SELECT id FROM left_part WHERE id < 5) x"
        assert s.execute(derived).scalar() == 5

    @pytest.mark.parametrize("isolation", ["read_committed", "snapshot"])
    def test_row_inserted_after_the_flip_is_not_migrated(self, isolation):
        """Without the big flip the application keeps writing the inputs;
        a row inserted after submit lies past the bitmap and belongs to
        the application (section 4.2), not to the migration."""
        db, s = make_source_db(rows=4)
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", "CREATE TABLE t2 AS SELECT id, grp, v * 2 AS v2 FROM src")
        s.execute("INSERT INTO src VALUES (10, 1, 7, 'x')")
        reader = db.connect(isolation=isolation)
        assert reader.execute("SELECT id, v2 FROM t2 WHERE id = 10").rows == []
        assert reader.execute("SELECT COUNT(*) FROM t2").scalar() == 4
        assert engine.units[0].tracker.size == 4

    def test_aggregate_unit_lazy_group(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        total = s.execute(
            "SELECT total FROM grp_totals WHERE grp = 2"
        ).scalar()
        expected = sum(i * 10 for i in range(50) if i % 5 == 2)
        assert total == expected
        assert engine.units[0].tracker.migrated_count == 1

    def test_aggregate_unit_plans_its_insert_select_once(self, monkeypatch):
        """Algorithm 3 runs the unit's pre-rendered INSERT ... SELECT
        once per group key; that one unchanged statement must be planned
        O(1) times, not once per key (the parent commit: N + 1)."""
        from repro.exec.planner import Planner

        groups = 120
        db = Database(isolation="read_committed")
        s = db.connect()
        s.execute("CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT)")
        for i in range(2 * groups):
            s.execute("INSERT INTO src VALUES (?, ?, ?)", [i, i % groups, i])
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", AGG_DDL)

        calls = []
        plan_select = Planner.plan_select

        def counting(self, select, allow_retired=False):
            calls.append(select)
            return plan_select(self, select, allow_retired)

        monkeypatch.setattr(Planner, "plan_select", counting)
        for grp in range(groups):
            total = s.execute(
                "SELECT total FROM grp_totals WHERE grp = ?", [grp]
            ).scalar()
            assert total == grp + (grp + groups)
        assert engine.units[0].tracker.migrated_count == groups
        # The client's SELECT and the migration's INSERT ... SELECT:
        # one plan each, whatever the number of keyed reads.
        assert len(calls) <= 4, f"{len(calls)} plan_select calls for {groups} reads"

    @pytest.mark.parametrize("indexed", [True, False], ids=["index", "no_index"])
    @pytest.mark.parametrize("drive", ["full_scope_read", "background"])
    def test_null_group_migrates_like_eager(self, indexed, drive):
        """The NULL group is a group: Algorithm 3 must produce its output
        row, whether the group column is indexed or not.  Its pinned
        statement cannot say ``grp = ?`` (NULL = NULL matches nothing)."""
        from repro.core import EagerMigration

        ddl = AGG_DDL.replace("grp INT PRIMARY KEY", "grp INT")
        results = []
        for lazy in (False, True):
            db, s = make_source_db(rows=15)
            s.execute("UPDATE src SET grp = NULL WHERE grp = 0")
            if not indexed:
                s.execute("DROP INDEX src_grp")
            if not lazy:
                EagerMigration(db).submit("m", ddl)
            elif drive == "full_scope_read":
                LazyMigrationEngine(db, background=no_background()).submit("m", ddl)
            else:
                background = BackgroundConfig(delay=0.0, chunk=4, interval=0.0)
                engine = LazyMigrationEngine(db, background=background)
                engine.submit("m", ddl)
                assert engine.await_completion(timeout=20)
            results.append(sorted(s.execute("SELECT * FROM grp_totals").rows, key=repr))
        eager, lazy_rows = results
        assert (None, 0 + 50 + 100) in eager
        assert lazy_rows == eager

    def test_static_filter_drops_rows_but_marks_migrated(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit(
            "m",
            "CREATE TABLE big AS SELECT id, v FROM src WHERE v >= 250",
        )
        assert s.execute("SELECT COUNT(*) FROM big").scalar() == 25
        assert engine.units[0].tracker.all_migrated

    def test_fk_pk_join_unit(self):
        db = Database(isolation="read_committed")
        s = db.connect()
        s.execute("CREATE TABLE dim (k INT PRIMARY KEY, label VARCHAR(10))")
        s.execute("CREATE TABLE fact (id INT PRIMARY KEY, k INT, amt INT)")
        for k in range(3):
            s.execute("INSERT INTO dim VALUES (?, ?)", [k, f"L{k}"])
        for i in range(12):
            s.execute("INSERT INTO fact VALUES (?, ?, ?)", [i, i % 3, i])
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit(
            "m",
            "CREATE TABLE denorm AS SELECT f.id AS fid, f.amt, d.label "
            "FROM fact f, dim d WHERE f.k = d.k",
        )
        row = s.execute("SELECT label FROM denorm WHERE fid = 4").rows[0]
        assert row == ("L1",)
        assert engine.stats.tuples_migrated == 1


# An output with two unique keys: src row i holds id i and u = 10 * i.
TWO_KEY_DDL = """
CREATE TABLE dst (id INT PRIMARY KEY, u INT UNIQUE, grp INT);
INSERT INTO dst (id, u, grp) SELECT id, v, grp FROM src;
"""


def forbid_front_end_work(monkeypatch):
    """Make any parse, plan or expression compile raise from now on;
    returns the list of the ones attempted (a caller may swallow the
    error)."""
    import sys

    import repro.db
    from repro.exec import expressions
    from repro.exec.planner import Planner

    calls = []

    def forbidden(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on a repeated statement")
        return fail

    monkeypatch.setattr(repro.db, "parse_statement", forbidden("parse_statement"))
    monkeypatch.setattr(Planner, "plan_select", forbidden("plan_select"))
    monkeypatch.setattr(Planner, "plan_dml_scan", forbidden("plan_dml_scan"))
    original = expressions.compile_expr
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "compile_expr", None) is original:
            monkeypatch.setattr(module, "compile_expr", forbidden("compile_expr"))
    return calls


class TestConstraintScope:
    """A write migrates every old row it could conflict with first:
    the union of its VALUES rows x unique keys (and SET-assigned keys),
    never their conjunction (paper sections 2.1, 4.5)."""

    def submit(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", TWO_KEY_DDL)
        return db, s, engine

    def assert_output_readable(self, s):
        # A conflicting old row accepted past would wedge the migration:
        # every full read would then fail with UniqueViolation.
        ids = [row[0] for row in s.execute("SELECT id FROM dst").rows]
        assert sorted(ids) == list(range(50))

    def test_two_row_insert_over_two_unmigrated_ids_is_rejected(self):
        from repro.errors import UniqueViolation

        db, s, engine = self.submit()
        with pytest.raises(UniqueViolation):
            s.execute(
                "INSERT INTO dst (id, u, grp) VALUES (3, 1001, 0), (4, 1002, 0)"
            )
        self.assert_output_readable(s)

    @pytest.mark.parametrize(
        "values", [(5, 1003), (1000, 60)], ids=["id-only", "u-only"]
    )
    def test_insert_conflicting_on_one_of_two_keys_is_rejected(self, values):
        from repro.errors import UniqueViolation

        db, s, engine = self.submit()
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO dst (id, u, grp) VALUES (?, ?, 0)", values)
        self.assert_output_readable(s)

    def test_update_of_both_keys_against_unmigrated_holders_is_rejected(self):
        from repro.errors import UniqueViolation

        db, s, engine = self.submit()
        with pytest.raises(UniqueViolation):
            s.execute("UPDATE dst SET id = 5, u = 90 WHERE id = 1")
        self.assert_output_readable(s)

    def test_unique_key_computed_from_the_row_migrates_everything(self):
        from repro.errors import UniqueViolation

        db, s, engine = self.submit()
        with pytest.raises(UniqueViolation):
            s.execute("UPDATE dst SET u = u + 10 WHERE id = 1")  # u 20: id 2's
        self.assert_output_readable(s)

    def test_fk_left_in_force_by_a_failed_alter_replans_inserts(self):
        """Figure 12's harness adds orders' FK mid-migration; validating
        the existing rows fails (their parents are unmigrated) but the
        FK stays in force, so INSERT plans made before it are stale."""
        from repro.errors import ForeignKeyViolation

        db, s, engine = self.submit()
        s.execute("CREATE TABLE child (cid INT PRIMARY KEY, pid INT)")
        insert = "INSERT INTO child VALUES (?, ?)"
        s.execute(insert, [1, 3])
        with pytest.raises(ForeignKeyViolation):
            s.execute(
                "ALTER TABLE child ADD CONSTRAINT child_fk "
                "FOREIGN KEY (pid) REFERENCES dst (id)"
            )
        assert engine.stats.tuples_migrated == 0
        s.execute(insert, [2, 4])  # parent 4 migrates, then the check passes
        assert engine.stats.tuples_migrated == 1

    def test_null_unique_value_migrates_nothing(self):
        db, s, engine = self.submit()
        s.execute("INSERT INTO dst (id, u, grp) VALUES (?, ?, 0)", [1000, None])
        assert engine.stats.tuples_migrated == 0

    @pytest.mark.parametrize(
        "sql,first,second",
        [
            ("INSERT INTO dst (id, u, grp) VALUES (?, ?, 0)", [1000, 2000], [1001, 2001]),
            ("UPDATE dst SET grp = 7 WHERE id = ?", [1], [2]),
            ("INSERT INTO child VALUES (?, ?)", [1, 3], [2, 4]),
        ],
        ids=["insert-output", "update-const", "insert-fk-child"],
    )
    def test_repeated_write_plans_nothing(self, monkeypatch, sql, first, second):
        """The statement's migration scope is planned on its first
        execution and kept on its handle; a later execution only binds
        parameters and runs the compiled scans."""
        db, s, engine = self.submit()
        s.execute("CREATE TABLE child (cid INT PRIMARY KEY, pid INT)")
        s.execute(
            "ALTER TABLE child ADD CONSTRAINT child_fk "
            "FOREIGN KEY (pid) REFERENCES dst (id)"
        )
        s.execute(sql, first)
        migrated = engine.stats.tuples_migrated
        calls = forbid_front_end_work(monkeypatch)
        s.execute(sql, second)
        assert calls == []
        assert not engine.is_complete
        if sql.startswith("INSERT INTO dst"):
            assert engine.stats.tuples_migrated == migrated == 0
        else:  # the second execution still migrated its own row
            assert engine.stats.tuples_migrated == migrated + 1


class TestBackgroundMigration:
    def test_background_completes_untouched_data(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=fast_background())
        handle = engine.submit("m", SPLIT_DDL)
        assert handle.await_completion(timeout=20)
        assert len(db.catalog.table("left_part")) == 50
        assert len(db.catalog.table("right_part")) == 50

    def test_background_completes_hashmap_unit(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(
            db, background=fast_background(), big_flip=False
        )
        handle = engine.submit("m", AGG_DDL)
        assert handle.await_completion(timeout=20)
        assert len(db.catalog.table("grp_totals")) == 5

    def test_interceptor_removed_after_completion(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=fast_background())
        handle = engine.submit("m", SPLIT_DDL)
        handle.await_completion(timeout=20)
        assert db._interceptor is None

    def test_drop_old_schema(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=fast_background())
        handle = engine.submit("m", SPLIT_DDL)
        handle.await_completion(timeout=20)
        handle.drop_old_schema()
        assert not db.catalog.has_table("src")

    def test_drop_old_schema_before_completion_rejected(self):
        db, s = make_source_db()
        engine = LazyMigrationEngine(db, background=no_background())
        handle = engine.submit("m", SPLIT_DDL)
        with pytest.raises(MigrationStateError):
            handle.drop_old_schema()


class TestExactlyOnceUnderConcurrency:
    @pytest.mark.parametrize("conflict_mode", [ConflictMode.TRACKER, ConflictMode.ON_CONFLICT])
    def test_concurrent_overlapping_queries(self, conflict_mode):
        """Many workers query overlapping ranges simultaneously; every
        source row must appear exactly once in each output."""
        db, s = make_source_db(rows=200)
        engine = LazyMigrationEngine(
            db, background=no_background(), conflict_mode=conflict_mode
        )
        engine.submit("m", SPLIT_DDL)
        errors = []

        def worker(seed):
            session = db.connect()
            try:
                for i in range(40):
                    key = (seed * 7 + i * 3) % 200
                    session.execute(
                        "SELECT v FROM left_part WHERE id = ?", [key]
                    )
                    session.execute(
                        "SELECT COUNT(*) FROM right_part WHERE id < ?",
                        [(seed * 13 + i) % 50],
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # exactly-once: no duplicates in either output
        ids = [r[0] for r in s.execute("SELECT id FROM left_part").rows]
        assert len(ids) == len(set(ids))
        ids2 = [r[0] for r in s.execute("SELECT id FROM right_part").rows]
        assert len(ids2) == len(set(ids2))
        # and consistent between outputs
        assert set(ids) == set(ids2)

    def test_concurrent_group_migrations(self):
        db, s = make_source_db(rows=100)
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        errors = []

        def worker(seed):
            session = db.connect()
            try:
                for i in range(30):
                    grp = (seed + i) % 5
                    session.execute(
                        "SELECT total FROM grp_totals WHERE grp = ?", [grp]
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        rows = s.execute("SELECT grp, total FROM grp_totals").rows
        assert len(rows) == 5
        for grp, total in rows:
            assert total == sum(i * 10 for i in range(100) if i % 5 == grp)


class TestAbortHandling:
    def test_failed_migration_resets_claims(self):
        """If output production fails mid-migration, the claimed
        granules return to [0 0] and a later attempt succeeds (section
        3.5)."""
        db, s = make_source_db(rows=10)
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]

        original = runtime.produce_bitmap_granules
        calls = {"n": 0}

        def flaky(granules, session):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated failure")
            return original(granules, session)

        runtime.produce_bitmap_granules = flaky
        with pytest.raises(RuntimeError):
            s.execute("SELECT v FROM left_part WHERE id = 3")
        # claim was rolled back: granule is re-claimable
        assert not runtime.tracker.is_in_progress(3)
        assert engine.stats.migration_txn_aborts == 1
        # retry succeeds
        assert s.execute("SELECT v FROM left_part WHERE id = 3").scalar() == 30

    def test_hashmap_abort_reclaim(self):
        db, s = make_source_db(rows=20)
        engine = LazyMigrationEngine(
            db, background=no_background(), big_flip=False
        )
        engine.submit("m", AGG_DDL)
        runtime = engine.units[0]
        original = runtime.produce_keys
        calls = {"n": 0}

        def flaky(keys, session):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return original(keys, session)

        runtime.produce_keys = flaky
        with pytest.raises(RuntimeError):
            s.execute("SELECT total FROM grp_totals WHERE grp = 1")
        from repro.core import GroupState

        assert runtime.tracker.state((1,)) is GroupState.ABORTED
        assert s.execute(
            "SELECT total FROM grp_totals WHERE grp = 1"
        ).scalar() is not None

    def test_skip_wait_until_other_worker_finishes(self):
        """A worker that finds a granule in-progress loops until the
        owner commits (Algorithm 1 line 10)."""
        db, s = make_source_db(rows=10)
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]
        from repro.core import Claim

        # Simulate another worker holding granule 3.
        assert runtime.tracker.try_begin(3) is Claim.MIGRATE
        release = threading.Timer(
            0.2, lambda: runtime.tracker.mark_migrated([3])
        )
        release.start()
        started = time.monotonic()
        # Engine must wait for the release, then find the granule DONE.
        engine.migrate_scope(runtime, Scope(granules={3}))
        assert time.monotonic() - started >= 0.15
        assert engine.stats.skip_waits >= 1
        release.join()

    def test_skip_wait_timeout(self):
        db, s = make_source_db(rows=5)
        engine = LazyMigrationEngine(
            db, background=no_background(), skip_wait_timeout=0.2
        )
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]
        runtime.tracker.try_begin(2)  # never released
        from repro.errors import MigrationError

        with pytest.raises(MigrationError):
            engine.migrate_scope(runtime, Scope(granules={2}))


class TestOnConflictMode:
    def test_migration_correct(self):
        db, s = make_source_db(rows=30)
        engine = LazyMigrationEngine(
            db,
            background=no_background(),
            conflict_mode=ConflictMode.ON_CONFLICT,
        )
        engine.submit("m", SPLIT_DDL)
        assert s.execute("SELECT COUNT(*) FROM left_part").scalar() == 30

    def test_duplicate_work_detected_at_insert(self):
        """Pre-marking nothing: two sequential full scans — the second
        is filtered by the completion bitmap, but racing inserts would
        be caught by ON CONFLICT (exercised via direct scope calls)."""
        db, s = make_source_db(rows=10)
        engine = LazyMigrationEngine(
            db,
            background=no_background(),
            conflict_mode=ConflictMode.ON_CONFLICT,
        )
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]
        # Force duplicate production: clear the completion bitmap after
        # a first pass, then re-run — the unique index skips all rows.
        engine.migrate_scope(runtime, Scope(granules=set(range(10))))
        from repro.core.bitmap import MigrationBitmap

        runtime.tracker = MigrationBitmap(runtime.tracker.size)
        runtime.complete = False
        engine.migrate_scope(runtime, Scope(granules=set(range(10))))
        assert engine.stats.duplicate_attempts == 20  # 10 rows x 2 outputs
        assert s.execute("SELECT COUNT(*) FROM left_part").scalar() == 10


class TestTrackingDisabled:
    def test_disjoint_access_correct_without_tracking(self):
        db, s = make_source_db(rows=20)
        engine = LazyMigrationEngine(
            db, background=no_background(), tracking_enabled=False
        )
        engine.submit("m", SPLIT_DDL)
        for i in range(20):
            s.execute("SELECT v FROM left_part WHERE id = ?", [i])
        assert s.execute("SELECT COUNT(*) FROM left_part").scalar() == 20


class TestConcurrencyRegressions:
    """Regression tests for the migration-loop concurrency fixes that
    shipped with the fault-injection harness."""

    def test_skip_wait_deadline_extends_after_productive_work(self):
        """The skip-wait deadline must be re-armed after a productive
        iteration: time spent migrating our *own* WIP batch must not
        count against waiting for granules held by *other* workers.
        (Previously the deadline was computed once at loop entry, so a
        slow WIP batch spuriously timed out the subsequent wait.)"""
        from repro.core import Claim, FaultAction, FaultInjector, FaultPlan, FaultRule
        from repro.core.predicates import Scope as _Scope

        db, s = make_source_db(rows=40)
        plan = FaultPlan(
            [
                FaultRule(
                    "migrate.after_produce",
                    FaultAction.LATENCY,
                    latency=0.5,
                    times=1,
                )
            ]
        )
        engine = LazyMigrationEngine(
            db,
            background=no_background(),
            skip_wait_timeout=0.3,
            faults=FaultInjector(plan),
        )
        engine.submit("m", SPLIT_DDL)
        runtime = engine.units[0]
        # Another worker holds granule 3 for 0.7s — longer than the WIP
        # batch (0.5s via injected latency) plus nothing, shorter than
        # the re-armed deadline (0.5s + 0.3s timeout).
        assert runtime.tracker.try_begin(3) is Claim.MIGRATE
        release = threading.Timer(0.7, lambda: runtime.tracker.mark_migrated([3]))
        release.start()
        try:
            # Pre-fix: the 0.5s WIP batch exhausts the 0.3s deadline and
            # this raises MigrationError instead of waiting.
            engine.migrate_scope(runtime, _Scope(granules=set(range(40))))
        finally:
            release.join()
        assert runtime.tracker.migrated_count == 40
        assert engine.stats.skip_waits >= 1

    def test_on_conflict_update_waits_for_inflight_migration(self):
        """ON_CONFLICT takes no granule claim, so a client's foreground
        migration can skip rows another migration transaction inserted
        and has not committed, then mark the granule migrated.  The
        client's UPDATE of such a row must wait for that transaction and
        apply, not find the row foreign and report 0 rows."""
        from repro.core import FaultAction, FaultInjector, FaultPlan, FaultRule

        held, release = threading.Event(), threading.Event()

        def hold(_ctx):
            held.set()
            release.wait(10)

        db, s = make_source_db(rows=20)
        engine = LazyMigrationEngine(
            db,
            background=no_background(),
            conflict_mode=ConflictMode.ON_CONFLICT,
            faults=FaultInjector(FaultPlan([FaultRule(
                "migrate.after_produce", FaultAction.CALLBACK, callback=hold,
            )])),
        )
        engine.submit("m", SPLIT_DDL)
        result, errors = {}, []

        def run(key, sql):
            try:
                result[key] = db.connect().execute(sql)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        migrator = threading.Thread(
            target=run, args=("read", "SELECT v FROM left_part WHERE id = 7")
        )
        migrator.start()
        assert held.wait(10)
        writer = threading.Thread(
            target=run, args=("update", "UPDATE left_part SET v = v + 1 WHERE id = 7")
        )
        writer.start()
        # Blocked on the migration transaction's own lock, not finished.
        while not any(
            row["waiters"] and row["resource"].startswith("('txn'")
            for row in db.txns.locks.snapshot()
        ):
            assert writer.is_alive(), "the UPDATE did not wait for the migration"
            time.sleep(0.001)
        release.set()
        migrator.join(10)
        writer.join(10)
        assert not errors
        assert result["update"].rowcount == 1
        assert s.execute("SELECT v FROM left_part WHERE id = 7").rows == [(71,)]
        assert s.execute("SELECT COUNT(*) FROM left_part WHERE id = 7").scalar() == 1

    def test_background_stop_joins_threads(self):
        """stop() must join its worker threads (with a timeout), not
        just set the stop flag and return while a pass is mid-flight."""
        from repro.core import FaultAction, FaultInjector, FaultPlan, FaultRule

        db, s = make_source_db(rows=30)
        # Hold every background pass in a 0.3s sleep so stop() provably
        # races an in-flight pass.
        plan = FaultPlan(
            [
                FaultRule(
                    "background.pass",
                    FaultAction.LATENCY,
                    latency=0.3,
                    times=None,
                )
            ]
        )
        injector = FaultInjector(plan)
        engine = LazyMigrationEngine(
            db,
            background=BackgroundConfig(delay=0.0, chunk=4, interval=0.01),
            faults=injector,
        )
        engine.submit("m", SPLIT_DDL)
        background = engine._background
        assert background is not None
        for _ in range(200):
            if injector.hits("background.pass") > 0:
                break
            time.sleep(0.005)
        assert injector.hits("background.pass") > 0
        background.stop()
        assert not any(t.is_alive() for t in background._threads)

    def test_stats_snapshot_holds_the_latch(self):
        """snapshot() must read all counters under the stats latch so a
        concurrent add() cannot produce a torn view."""
        from repro.core import MigrationStats

        stats = MigrationStats()
        stats.add(granules=1, tuples=2)
        assert stats._latch.acquire()
        done = threading.Event()
        result = {}

        def reader():
            result["snap"] = stats.snapshot()
            done.set()

        t = threading.Thread(target=reader)
        t.start()
        try:
            # Blocked: snapshot() is waiting on the latch we hold.
            assert not done.wait(0.15)
        finally:
            stats._latch.release()
        assert done.wait(2.0)
        t.join()
        assert result["snap"]["granules_migrated"] == 1
        assert result["snap"]["tuples_migrated"] == 2

    def test_stats_snapshot_never_torn_under_concurrency(self):
        """Hammer add(granules=1, tuples=3) against snapshot(): every
        snapshot must observe tuples == 3 * granules."""
        from repro.core import MigrationStats

        stats = MigrationStats()
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                stats.add(granules=1, tuples=3)

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap["tuples_migrated"] != 3 * snap["granules_migrated"]:
                    torn.append(snap)
                    return

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert not torn, f"torn snapshot observed: {torn[:1]}"

    def test_progress_reports_consistent_pair(self):
        """engine.progress() is built from one stats snapshot."""
        db, s = make_source_db(rows=10)
        engine = LazyMigrationEngine(db, background=no_background())
        engine.submit("m", SPLIT_DDL)
        s.execute("SELECT v FROM left_part WHERE id = 1")
        progress = engine.progress()
        assert progress["granules_migrated"] == 1
        assert progress["tuples_migrated"] == 1
