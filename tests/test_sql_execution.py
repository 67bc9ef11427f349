"""End-to-end SQL execution tests through the Database facade."""

import datetime
import time
from decimal import Decimal

import pytest

from repro import Database
from repro.errors import (
    CheckViolation,
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    TransactionError,
    UniqueViolation,
    UnknownObjectError,
)


@pytest.fixture
def s(db):
    session = db.connect()
    session.execute(
        "CREATE TABLE emp ("
        " id INT PRIMARY KEY,"
        " name VARCHAR(30) NOT NULL,"
        " dept VARCHAR(10),"
        " salary DECIMAL(10, 2),"
        " hired DATE)"
    )
    rows = [
        (1, "ada", "eng", "120.00", "2020-01-01"),
        (2, "bob", "eng", "100.00", "2020-06-01"),
        (3, "cat", "ops", "90.00", "2021-01-01"),
        (4, "dan", "ops", "95.00", "2021-02-01"),
        (5, "eve", "mgmt", "150.00", "2019-01-01"),
    ]
    for row in rows:
        session.execute("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", list(row))
    return session


class TestSelect:
    def test_projection_and_alias(self, s):
        result = s.execute("SELECT name AS who, salary FROM emp WHERE id = 1")
        assert result.columns == ["who", "salary"]
        assert result.rows == [("ada", Decimal("120.00"))]

    def test_star(self, s):
        result = s.execute("SELECT * FROM emp WHERE id = 3")
        assert result.rows[0][1] == "cat"
        assert len(result.columns) == 5

    def test_where_combinations(self, s):
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'eng' AND salary > 100"
        ).scalar() == 1
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'eng' OR dept = 'ops'"
        ).scalar() == 4
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE salary BETWEEN 90 AND 100"
        ).scalar() == 3
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE dept IN ('eng', 'mgmt')"
        ).scalar() == 3
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE name LIKE '%a%'"
        ).scalar() == 3

    def test_order_by(self, s):
        result = s.execute("SELECT name FROM emp ORDER BY salary DESC")
        assert [r[0] for r in result.rows] == ["eve", "ada", "bob", "dan", "cat"]

    def test_order_by_non_projected_column(self, s):
        result = s.execute("SELECT name FROM emp ORDER BY hired")
        assert result.rows[0] == ("eve",)

    def test_order_by_alias(self, s):
        result = s.execute(
            "SELECT salary * 2 AS double_pay FROM emp ORDER BY double_pay LIMIT 1"
        )
        assert result.scalar() == Decimal("180.00")

    def test_limit_offset(self, s):
        result = s.execute("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == [2, 3]

    @pytest.mark.parametrize(
        "clause,sqlstate", [("LIMIT ?", "2201W"), ("OFFSET ?", "2201X")]
    )
    def test_negative_limit_or_offset_rejected(self, s, clause, sqlstate):
        """PostgreSQL refuses a negative count (the parent returned no
        rows for ``LIMIT -1`` and ignored a negative OFFSET)."""
        from repro.net.protocol import sqlstate_for

        with pytest.raises(ExecutionError, match="must not be negative") as info:
            s.execute(f"SELECT id FROM emp ORDER BY id {clause}", [-1])
        assert sqlstate_for(info.value) == sqlstate

    def test_null_limit_and_offset_mean_none(self, s):
        result = s.execute("SELECT id FROM emp ORDER BY id LIMIT ? OFFSET ?", [None, None])
        assert [r[0] for r in result.rows] == [1, 2, 3, 4, 5]

    def test_distinct(self, s):
        result = s.execute("SELECT DISTINCT dept FROM emp")
        assert sorted(r[0] for r in result.rows) == ["eng", "mgmt", "ops"]

    def test_select_without_from(self, s):
        result = s.execute("SELECT 1 + 1 AS two, 'x' AS s")
        assert result.rows == [(2, "x")]
        assert result.columns == ["two", "s"]

    def test_scalar_and_dicts_helpers(self, s):
        result = s.execute("SELECT id, name FROM emp WHERE id = 1")
        assert result.scalar() == 1
        assert result.dicts() == [{"id": 1, "name": "ada"}]

    def test_empty_scalar(self, s):
        assert s.execute("SELECT id FROM emp WHERE id = 99").scalar() is None

    def test_unknown_table(self, s):
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT * FROM missing")

    def test_unknown_column(self, s):
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT bogus FROM emp")


class TestAggregation:
    def test_global_aggregates(self, s):
        result = s.execute(
            "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM emp"
        )
        count, total, low, high, avg = result.rows[0]
        assert count == 5
        assert total == Decimal("555.00")
        assert low == Decimal("90.00")
        assert high == Decimal("150.00")
        assert avg == Decimal("111.00")

    def test_group_by(self, s):
        result = s.execute(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS pay "
            "FROM emp GROUP BY dept ORDER BY dept"
        )
        assert result.rows == [
            ("eng", 2, Decimal("220.00")),
            ("mgmt", 1, Decimal("150.00")),
            ("ops", 2, Decimal("185.00")),
        ]

    def test_having(self, s):
        result = s.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept"
        )
        assert [r[0] for r in result.rows] == ["eng", "ops"]

    def test_count_distinct(self, s):
        assert s.execute("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 3

    def test_aggregate_on_empty_input(self, s):
        result = s.execute(
            "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100"
        )
        assert result.rows == [(0, None)]

    def test_group_by_on_empty_input_yields_no_rows(self, s):
        result = s.execute(
            "SELECT dept, COUNT(*) FROM emp WHERE id > 100 GROUP BY dept"
        )
        assert result.rows == []

    def test_non_grouped_column_rejected(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")

    def test_aggregate_of_expression(self, s):
        assert s.execute(
            "SELECT SUM(salary * 2) FROM emp WHERE dept = 'eng'"
        ).scalar() == Decimal("440.00")

    def test_expression_over_aggregates(self, s):
        result = s.execute(
            "SELECT MAX(salary) - MIN(salary) FROM emp"
        )
        assert result.scalar() == Decimal("60.00")


class TestJoins:
    @pytest.fixture
    def joined(self, s):
        s.execute("CREATE TABLE dept (code VARCHAR(10) PRIMARY KEY, label VARCHAR(30))")
        s.execute("INSERT INTO dept VALUES ('eng', 'Engineering')")
        s.execute("INSERT INTO dept VALUES ('ops', 'Operations')")
        return s

    def test_inner_join(self, joined):
        result = joined.execute(
            "SELECT e.name, d.label FROM emp e JOIN dept d ON e.dept = d.code "
            "ORDER BY e.id"
        )
        assert result.rows[0] == ("ada", "Engineering")
        assert len(result.rows) == 4  # eve's mgmt has no dept row

    def test_comma_join_with_where(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.code"
        )
        assert result.scalar() == 4

    def test_left_join(self, joined):
        result = joined.execute(
            "SELECT e.name, d.label FROM emp e LEFT JOIN dept d "
            "ON e.dept = d.code WHERE e.id = 5"
        )
        assert result.rows == [("eve", None)]

    def test_right_join_flipped(self, joined):
        joined.execute("INSERT INTO dept VALUES ('hr', 'People')")
        result = joined.execute(
            "SELECT d.label, e.name FROM emp e RIGHT JOIN dept d "
            "ON e.dept = d.code WHERE d.code = 'hr'"
        )
        assert result.rows == [("People", None)]

    def test_cross_join(self, joined):
        assert joined.execute(
            "SELECT COUNT(*) FROM emp CROSS JOIN dept"
        ).scalar() == 10

    def test_join_predicate_pushdown_through_equivalence(self, joined):
        """A filter on one side of an equality lands on the other side
        too (visible in the plan as filters on both scans)."""
        plan = joined.explain(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.dept = d.code AND e.dept = 'eng'"
        )
        assert "eng" in plan
        # the derived predicate reaches the dept scan as an index lookup
        assert "dept" in plan

    def test_self_join(self, s):
        result = s.execute(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.dept = b.dept AND a.id < b.id ORDER BY a.id"
        )
        assert ("ada", "bob") in result.rows

    def test_subquery_in_from(self, s):
        result = s.execute(
            "SELECT big.name FROM (SELECT name, salary FROM emp "
            "WHERE salary > 100) big ORDER BY big.salary DESC"
        )
        assert [r[0] for r in result.rows] == ["eve", "ada"]


class TestDml:
    def test_insert_positional(self, s):
        s.execute("INSERT INTO emp VALUES (6, 'fred', 'eng', 80, '2022-01-01')")
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 6

    def test_insert_named_columns_defaults(self, s):
        s.execute("INSERT INTO emp (id, name) VALUES (7, 'gia')")
        row = s.execute("SELECT dept, salary FROM emp WHERE id = 7").rows[0]
        assert row == (None, None)

    def test_insert_select(self, s):
        s.execute("CREATE TABLE emp2 (id INT, name VARCHAR(30))")
        count = s.execute(
            "INSERT INTO emp2 (id, name) SELECT id, name FROM emp WHERE dept = 'eng'"
        ).rowcount
        assert count == 2

    def test_insert_multi_row(self, s):
        result = s.execute(
            "INSERT INTO emp (id, name) VALUES (8, 'h'), (9, 'i')"
        )
        assert result.rowcount == 2

    def test_insert_wrong_arity(self, s):
        with pytest.raises(ExecutionError):
            s.execute("INSERT INTO emp (id, name) VALUES (1)")

    def test_update(self, s):
        count = s.execute(
            "UPDATE emp SET salary = salary + 10 WHERE dept = 'ops'"
        ).rowcount
        assert count == 2
        assert s.execute(
            "SELECT salary FROM emp WHERE id = 3"
        ).scalar() == Decimal("100.00")

    def test_update_all_rows(self, s):
        assert s.execute("UPDATE emp SET dept = 'all'").rowcount == 5

    def test_delete(self, s):
        assert s.execute("DELETE FROM emp WHERE dept = 'eng'").rowcount == 2
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_on_conflict_do_nothing(self, s):
        result = s.execute(
            "INSERT INTO emp (id, name) VALUES (1, 'dup') ON CONFLICT DO NOTHING"
        )
        assert result.rowcount == 0
        assert s.execute("SELECT name FROM emp WHERE id = 1").scalar() == "ada"

    def test_for_update_returns_rows(self, s):
        s.execute("BEGIN")
        result = s.execute("SELECT salary FROM emp WHERE id = 1 FOR UPDATE")
        assert result.scalar() == Decimal("120.00")
        s.execute("COMMIT")

    def test_for_update_rejects_joins(self, s):
        with pytest.raises(ExecutionError):
            s.execute("SELECT * FROM emp a, emp b WHERE a.id = b.id FOR UPDATE")


class TestConstraints:
    def test_primary_key_violation(self, s):
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_not_null_on_insert(self, s):
        with pytest.raises(NotNullViolation):
            s.execute("INSERT INTO emp (id) VALUES (10)")

    def test_not_null_on_update(self, s):
        with pytest.raises(NotNullViolation):
            s.execute("UPDATE emp SET name = NULL WHERE id = 1")

    def test_check_constraint(self, s):
        s.execute("CREATE TABLE c (v INT CHECK (v > 0))")
        s.execute("INSERT INTO c VALUES (1)")
        with pytest.raises(CheckViolation):
            s.execute("INSERT INTO c VALUES (0)")
        with pytest.raises(CheckViolation):
            s.execute("UPDATE c SET v = -1")

    def test_unique_constraint(self, s):
        s.execute("CREATE TABLE u (a INT UNIQUE)")
        s.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO u VALUES (1)")
        s.execute("INSERT INTO u VALUES (NULL)")
        s.execute("INSERT INTO u VALUES (NULL)")  # NULLs never conflict

    def test_fk_parent_must_exist(self, s):
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, emp_id INT REFERENCES emp (id))"
        )
        s.execute("INSERT INTO child VALUES (1, 1)")
        with pytest.raises(ForeignKeyViolation):
            s.execute("INSERT INTO child VALUES (2, 999)")

    def test_fk_null_passes(self, s):
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, emp_id INT REFERENCES emp (id))"
        )
        s.execute("INSERT INTO child VALUES (1, NULL)")

    def test_fk_restricts_parent_delete(self, s):
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, emp_id INT REFERENCES emp (id))"
        )
        s.execute("INSERT INTO child VALUES (1, 1)")
        with pytest.raises(ForeignKeyViolation):
            s.execute("DELETE FROM emp WHERE id = 1")
        s.execute("DELETE FROM emp WHERE id = 2")  # unreferenced: fine

    def test_fk_restricts_parent_key_update(self, s):
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, emp_id INT REFERENCES emp (id))"
        )
        s.execute("INSERT INTO child VALUES (1, 1)")
        with pytest.raises(ForeignKeyViolation):
            s.execute("UPDATE emp SET id = 100 WHERE id = 1")

    def test_fk_check_on_child_update(self, s):
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, emp_id INT REFERENCES emp (id))"
        )
        s.execute("INSERT INTO child VALUES (1, 1)")
        s.execute("UPDATE child SET emp_id = 2 WHERE id = 1")
        with pytest.raises(ForeignKeyViolation):
            s.execute("UPDATE child SET emp_id = 999 WHERE id = 1")


class TestTransactions:
    def test_rollback_reverts_everything(self, s):
        s.execute("BEGIN")
        s.execute("INSERT INTO emp (id, name) VALUES (10, 'tmp')")
        s.execute("UPDATE emp SET salary = 0 WHERE id = 1")
        s.execute("DELETE FROM emp WHERE id = 2")
        s.execute("ROLLBACK")
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        assert s.execute("SELECT salary FROM emp WHERE id = 1").scalar() == Decimal("120.00")
        assert s.execute("SELECT name FROM emp WHERE id = 2").scalar() == "bob"

    def test_commit_persists(self, s):
        s.execute("BEGIN")
        s.execute("INSERT INTO emp (id, name) VALUES (10, 'tmp')")
        s.execute("COMMIT")
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 6

    def test_autocommit_rolls_back_failed_statement(self, s):
        with pytest.raises(UniqueViolation):
            s.execute(
                "INSERT INTO emp (id, name) VALUES (20, 'ok'), (1, 'dup')"
            )
        # the whole statement rolled back, including the first row
        assert s.execute("SELECT COUNT(*) FROM emp WHERE id = 20").scalar() == 0

    def test_nested_begin_rejected(self, s):
        s.execute("BEGIN")
        with pytest.raises(TransactionError):
            s.execute("BEGIN")
        s.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, s):
        with pytest.raises(TransactionError):
            s.execute("COMMIT")

    def test_transaction_context_manager(self, db, s):
        with pytest.raises(RuntimeError):
            with s.transaction():
                s.execute("UPDATE emp SET salary = 0 WHERE id = 1")
                raise RuntimeError("boom")
        assert s.execute("SELECT salary FROM emp WHERE id = 1").scalar() == Decimal("120.00")


class TestViews:
    def test_view_expansion(self, s):
        s.execute("CREATE VIEW rich AS SELECT name, salary FROM emp WHERE salary > 100")
        result = s.execute("SELECT name FROM rich ORDER BY salary DESC")
        assert [r[0] for r in result.rows] == ["eve", "ada"]

    def test_view_over_view(self, s):
        s.execute("CREATE VIEW a AS SELECT id, salary FROM emp")
        s.execute("CREATE VIEW b AS SELECT id FROM a WHERE salary > 100")
        assert s.execute("SELECT COUNT(*) FROM b").scalar() == 2

    def test_view_with_alias_binding(self, s):
        s.execute("CREATE VIEW v AS SELECT name FROM emp")
        assert s.execute("SELECT x.name FROM v x WHERE x.name = 'ada'").rows == [("ada",)]


class TestDdlStatements:
    def test_ctas(self, s):
        s.execute(
            "CREATE TABLE summary AS SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept"
        )
        assert s.execute("SELECT COUNT(*) FROM summary").scalar() == 3

    def test_ctas_types_inferred(self, db, s):
        s.execute("CREATE TABLE copy AS SELECT id, salary, hired FROM emp")
        schema = db.catalog.table("copy").schema
        assert schema.column("id").type.kind.value == "INT"
        assert schema.column("salary").type.kind.value == "DECIMAL"
        assert schema.column("hired").type.kind.value == "DATE"

    def test_alter_add_column(self, s):
        s.execute("ALTER TABLE emp ADD COLUMN bonus INT DEFAULT 5")
        assert s.execute("SELECT bonus FROM emp WHERE id = 1").scalar() == 5
        s.execute("INSERT INTO emp (id, name) VALUES (10, 'x')")
        assert s.execute("SELECT bonus FROM emp WHERE id = 10").scalar() == 5

    def test_alter_add_not_null_column_rejected_on_rows(self, db):
        """PostgreSQL refuses a NOT NULL column with no default on a
        table with rows; table and schema stay as they were."""
        s = db.connect()
        s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        schema = db.catalog.table("t").schema
        with pytest.raises(NotNullViolation, match='column "c" of relation "t" contains null values'):
            s.execute("ALTER TABLE t ADD COLUMN c INT NOT NULL")
        assert db.catalog.table("t").schema is schema
        assert s.execute("SELECT * FROM t").rows == [(1, 10)]
        s.execute("UPDATE t SET b = 11 WHERE a = 1")
        s.execute("ALTER TABLE t ADD COLUMN c INT NOT NULL DEFAULT 7")
        assert s.execute("SELECT * FROM t").rows == [(1, 11, 7)]
        s.execute("CREATE TABLE e (a INT PRIMARY KEY)")
        s.execute("ALTER TABLE e ADD COLUMN c INT NOT NULL")
        with pytest.raises(NotNullViolation):
            s.execute("INSERT INTO e (a) VALUES (1)")

    def test_ctas_if_not_exists_skips_an_existing_table(self, db):
        s = db.connect()
        s.execute("CREATE TABLE u (a INT, b VARCHAR(3))")
        result = s.execute("CREATE TABLE IF NOT EXISTS u AS SELECT 'xyzw' AS b, 2.5 AS a")
        assert result.rowcount == 0
        assert s.execute("SELECT * FROM u").rows == []
        assert db.catalog.table("u").schema.column_names == ("a", "b")

    def test_alter_drop_column(self, s):
        s.execute("ALTER TABLE emp DROP COLUMN hired")
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT hired FROM emp")
        assert s.execute("SELECT name FROM emp WHERE id = 1").scalar() == "ada"

    def test_alter_drop_indexed_column_rejected(self, s):
        with pytest.raises(ExecutionError):
            s.execute("ALTER TABLE emp DROP COLUMN id")

    def test_alter_rename_column(self, s):
        s.execute("ALTER TABLE emp RENAME COLUMN name TO full_name")
        assert s.execute("SELECT full_name FROM emp WHERE id = 1").scalar() == "ada"

    def test_alter_rename_table(self, s):
        s.execute("ALTER TABLE emp RENAME TO people")
        assert s.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_alter_add_check_validates_existing(self, s):
        with pytest.raises(CheckViolation):
            s.execute("ALTER TABLE emp ADD CHECK (salary > 1000)")
        s.execute("ALTER TABLE emp ADD CHECK (salary > 0)")
        with pytest.raises(CheckViolation):
            s.execute("UPDATE emp SET salary = -1 WHERE id = 1")

    def test_alter_add_unique_validates_existing(self, s):
        s.execute("INSERT INTO emp (id, name, dept) VALUES (10, 'dup', 'eng')")
        with pytest.raises(UniqueViolation):
            s.execute("ALTER TABLE emp ADD UNIQUE (dept)")
        s.execute("ALTER TABLE emp ADD UNIQUE (name)")
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO emp (id, name) VALUES (11, 'ada')")

    def test_alter_add_fk_validates_existing(self, s):
        s.execute("CREATE TABLE d (code VARCHAR(10) PRIMARY KEY)")
        s.execute("INSERT INTO d VALUES ('eng')")
        with pytest.raises(ForeignKeyViolation):
            s.execute(
                "ALTER TABLE emp ADD CONSTRAINT emp_dept_fk "
                "FOREIGN KEY (dept) REFERENCES d (code)"
            )

    def test_drop_constraint(self, s):
        s.execute("ALTER TABLE emp ADD CONSTRAINT sal_check CHECK (salary > 0)")
        s.execute("ALTER TABLE emp DROP CONSTRAINT sal_check")
        s.execute("UPDATE emp SET salary = -1 WHERE id = 1")  # no violation

    def test_create_index_used_by_plans(self, s):
        s.execute("CREATE INDEX emp_dept_idx ON emp (dept)")
        plan = s.explain("SELECT name FROM emp WHERE dept = 'eng'")
        assert "Index Scan using emp_dept_idx" in plan

    def test_drop_table(self, s):
        s.execute("DROP TABLE emp")
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT * FROM emp")


class TestCompiledScans:
    """Every path of the compiled scan (``exec/plan.py`` ``TableScan``):
    each result is checked against the same predicate evaluated in
    Python over the whole table."""

    @pytest.fixture
    def kv(self, db):
        session = db.connect(isolation="read_committed")
        session.execute(
            "CREATE TABLE kv (k INT PRIMARY KEY, g INT, v INT, pad VARCHAR(8))"
        )
        session.execute("CREATE INDEX kv_gv ON kv (g, v)")  # ordered
        for k in range(40):
            session.execute(
                "INSERT INTO kv VALUES (?, ?, ?, ?)", [k, k % 4, k % 7, f"p{k % 3}"]
            )
        return session

    @staticmethod
    def table(session):
        return session.execute("SELECT k, g, v, pad FROM kv").rows

    def test_unique_point_lookup(self, kv):
        sql = "SELECT v, k * 2 FROM kv WHERE k = ?"
        assert "Index Scan using kv_pkey" in kv.explain(sql)
        assert kv.execute(sql, [5]).rows == [(5, 10)]
        assert kv.execute(sql, [99]).rows == []

    def test_prefix_scan_with_residual(self, kv):
        sql = "SELECT k, v + 1 FROM kv WHERE g = ? AND pad = ?"
        plan = kv.explain(sql)
        assert "Index Scan using kv_gv" in plan and "Filter:" in plan
        expected = [(k, v + 1) for k, g, v, pad in self.table(kv)
                    if g == 2 and pad == "p1"]
        assert sorted(kv.execute(sql, [2, "p1"]).rows) == sorted(expected)

    def test_seq_scan_with_filter(self, kv):
        sql = "SELECT k FROM kv WHERE v > ? AND pad = 'p0'"
        assert "Seq Scan" in kv.explain(sql)
        expected = [(k,) for k, g, v, pad in self.table(kv) if v > 3 and pad == "p0"]
        assert sorted(kv.execute(sql, [3]).rows) == sorted(expected)

    @pytest.mark.parametrize("sql,outcome", [
        ("SELECT k FROM kv WHERE v = ? FOR UPDATE", lambda r: r.rows),
        ("UPDATE kv SET pad = 'x' WHERE v = ?", lambda r: r.rowcount),
        ("DELETE FROM kv WHERE v = ?", lambda r: r.rowcount),
    ], ids=["for-update", "update", "delete"])
    def test_dml_refilters_after_the_lock(self, db, kv, sql, outcome):
        """A row that qualifies when scanned but not once its X lock is
        granted is skipped: the writer holding it rolls back."""
        import threading

        writer = db.connect(isolation="read_committed")
        writer.begin()
        writer.execute("UPDATE kv SET v = 100 WHERE k = 1")  # visible, X-locked
        tid = next(t for t, row in db.catalog.table("kv").heap.scan() if row[0] == 1)
        result = {}

        def dml():
            result["r"] = db.connect(isolation="read_committed").execute(sql, [100])

        thread = threading.Thread(target=dml)
        thread.start()
        deadline = time.monotonic() + 5
        while db.txns.locks.waiter_count(("tuple", "kv", tid)) == 0:
            assert time.monotonic() < deadline, "the DML never waited on the lock"
            time.sleep(0.001)
        writer.rollback()
        thread.join(5)
        assert not thread.is_alive()
        assert not outcome(result["r"])
        assert kv.execute("SELECT COUNT(*) FROM kv WHERE pad = 'x'").scalar() == 0
        assert kv.execute("SELECT v FROM kv WHERE k = 1").scalar() == 1

    def test_explain_analyze_counts_each_node(self, kv):
        lines = [row[0] for row in kv.execute(
            "EXPLAIN ANALYZE SELECT a.k, b.v * 2 FROM kv a JOIN kv b ON a.k = b.k "
            "WHERE a.g = 1 AND b.v >= 0"
        ).rows]
        counted = [line.strip() for line in lines if "actual time" in line]
        # Project, Hash Join, and a scan per side, each run once.
        assert len(counted) == 4
        assert all("loops=1" in line for line in counted)
        assert counted[0].startswith("Project") and "rows=10" in counted[0]
        assert any(line.startswith("Index Scan") and "rows=10" in line for line in counted)
        assert any(line.startswith("Seq Scan") and "rows=40" in line for line in counted)

    def test_repeated_scan_runs_only_its_compiled_closure(self, kv, monkeypatch):
        """The second execution of a prepared scan goes straight to the
        closure compiled on the first: no plan node method runs (the
        parent pulled rows through ``IndexScanNode.rows`` →
        ``ProjectNode.rows`` generators on every execution)."""
        from repro.exec import plan

        sql = "SELECT k, v * 2 + 1 FROM kv WHERE g = ? AND v >= ?"
        first = kv.execute(sql, [1, 2]).rows
        calls = []

        def spy(cls, name):
            original = cls.__dict__[name]

            def called(*args, **kwargs):
                calls.append(f"{cls.__name__}.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, called)

        pending = [plan.PlanNode]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name in ("rows", "rows_with_tids", "compile", "compile_tids"):
                if name in cls.__dict__:
                    spy(cls, name)
        assert kv.execute(sql, [1, 2]).rows == first
        assert calls == []


CACHED_DML = [
    ("SELECT name FROM emp WHERE id = ?", [1]),
    ("SELECT name FROM emp WHERE id = ? FOR UPDATE", [1]),
    ("INSERT INTO emp (id, name) VALUES (?, ?)", [None, "new"]),
    ("INSERT INTO emp_copy SELECT id, name FROM emp WHERE id = ?", [1]),
    ("UPDATE emp SET salary = salary + 1 WHERE id = ?", [1]),
    ("DELETE FROM emp WHERE id = ?", [None]),
    # Range-bounded spans of the ordered index emp_dept_id (dept, id).
    ("SELECT name FROM emp WHERE dept = ? AND id >= ? AND id < ?", ["eng", 1, 3]),
    ("UPDATE emp SET salary = salary + 1 WHERE dept = ? AND ? < id", ["ops", 3]),
]


class TestPreparedStatements:
    """``db.prepare(sql)``: one handle per SQL text, one executor
    artifact per schema epoch and ``allow_retired`` flavour."""

    def test_one_handle_per_sql_text(self, db, s):
        sql = "SELECT name FROM emp WHERE id = ?"
        handle = db.prepare(sql)
        assert db.prepare(sql) is handle
        assert db.parse(sql) is handle.ast
        assert handle.sql == sql and handle.kind == "select"
        assert handle.tables == {"emp"}
        assert db.prepare("INSERT INTO a SELECT * FROM b JOIN c ON x = y").tables == {
            "a", "b", "c",
        }

    @pytest.mark.parametrize(
        "sql,params", CACHED_DML,
        ids=["select", "for-update", "insert-values", "insert-select",
             "update", "delete", "select-range", "update-range"],
    )
    def test_second_execution_does_no_front_end_work(
        self, db, s, monkeypatch, sql, params
    ):
        """Parse, plan and expression compile happen on the first
        execution of a SQL text only (INSERT included: the parent
        recompiled its VALUES row on every execution; a range scan's
        index bounds are compiled with its plan)."""
        import repro.db
        import repro.exec.executor
        import repro.exec.planner
        from repro.exec.planner import Planner

        s.execute("CREATE TABLE emp_copy (id INT, name VARCHAR(30))")
        s.execute("CREATE INDEX emp_dept_id ON emp (dept, id)")
        fresh = iter(range(100, 200))
        bind = lambda: [next(fresh) if p is None else p for p in params]
        first = s.execute(sql, bind())

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} called on a repeated statement")
            return fail

        monkeypatch.setattr(repro.db, "parse_statement", forbidden("parse_statement"))
        monkeypatch.setattr(Planner, "plan_select", forbidden("plan_select"))
        monkeypatch.setattr(Planner, "plan_dml_scan", forbidden("plan_dml_scan"))
        monkeypatch.setattr(
            repro.exec.executor, "compile_expr", forbidden("compile_expr")
        )
        monkeypatch.setattr(
            repro.exec.executor, "compile_projection", forbidden("compile_projection")
        )
        monkeypatch.setattr(
            repro.exec.planner, "compile_expr", forbidden("planner compile_expr")
        )
        second = s.execute(sql, bind())
        assert (second.statement, second.columns) == (first.statement, first.columns)

    def test_index_scan_fallback_compiles_nothing(self, db, s, monkeypatch):
        """A key that cannot be an index key (NULL, ``1.5`` on INT) runs
        the index scan's seq-scan fallback, built from what the cached
        plan already holds: no expression is compiled for it."""
        import repro.exec.planner

        sql = "SELECT name FROM emp WHERE id = ? AND salary > ?"
        assert s.execute(sql, [1, 0]).rows == [("ada",)]
        monkeypatch.setattr(repro.exec.planner, "compile_expr", None)
        assert s.execute(sql, [1.5, 0]).rows == []
        assert s.execute(sql, [None, 0]).rows == []
        assert s.execute(sql, [1.0, 0]).rows == [("ada",)]
        assert s.execute(sql, [1.0, 10**6]).rows == []

    def test_artifact_rebuilt_after_ddl_uses_new_index(self, db, s):
        sql = "SELECT id FROM emp WHERE name = ?"
        handle = db.prepare(sql)
        assert s.execute(sql, ["ada"]).rows == [(1,)]
        before = handle.artifact(s)
        assert handle.artifact(s) is before
        assert "emp_name_idx" not in before.explain()
        s.execute("CREATE INDEX emp_name_idx ON emp (name)")
        assert db.prepare(sql) is handle  # the handle survives DDL ...
        after = handle.artifact(s)  # ... its plan does not
        assert after is not before
        assert "Index Scan using emp_name_idx" in after.explain()
        assert s.execute(sql, ["ada"]).rows == [(1,)]

    def test_artifact_rebuilt_after_alter_table(self, db, s):
        sql = "INSERT INTO emp VALUES (?, ?, ?, ?, ?)"
        s.execute(sql, [6, "fay", "eng", "1.00", "2022-01-01"])
        s.execute("ALTER TABLE emp ADD COLUMN nick VARCHAR(10)")
        with pytest.raises(ExecutionError):  # five values, six columns now
            s.execute(sql, [7, "gus", "eng", "1.00", "2022-01-01"])

    def test_migration_flip_replans_and_retires(self, db, s):
        from repro import BackgroundConfig, LazyMigrationEngine
        from repro.errors import SchemaVersionError

        old, new = "SELECT name FROM emp WHERE id = ?", "SELECT name FROM emp2 WHERE id = ?"
        assert s.execute(old, [1]).rows == [("ada",)]
        engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
        engine.submit(
            "m",
            "CREATE TABLE emp2 (id INT PRIMARY KEY, name VARCHAR(30));"
            "INSERT INTO emp2 (id, name) SELECT id, name FROM emp;",
        )
        with pytest.raises(SchemaVersionError):
            s.execute(old, [1])  # prepared before the flip, retired after
        assert s.execute(new, [1]).rows == [("ada",)]
        # Migration-internal sessions still read the retired input, from
        # an artifact of their own.
        internal = db.connect(allow_retired=True)
        assert internal.execute(old, [1]).rows == [("ada",)]
        handle = db.prepare(old)
        assert handle.artifact(internal) is handle.artifact(internal)
        with pytest.raises(SchemaVersionError):
            handle.artifact(s)

    def test_bare_ast_runs_on_an_uncached_handle(self, db, s, monkeypatch):
        from repro.exec.planner import Planner
        from repro.sql.parser import parse_statement

        calls = []
        plan_select = Planner.plan_select

        def counting(self, select, allow_retired=False):
            calls.append(select)
            return plan_select(self, select, allow_retired)

        monkeypatch.setattr(Planner, "plan_select", counting)
        stmt = parse_statement("SELECT COUNT(*) FROM emp")
        assert s.execute_statement(stmt).scalar() == 5
        assert s.execute_statement(stmt).scalar() == 5
        assert len(calls) == 2  # no SQL text, nothing to cache under

    def test_explain_is_never_cached(self, db, s):
        sql = "EXPLAIN SELECT id FROM emp WHERE name = 'ada'"
        assert "emp_name_idx" not in str(s.execute(sql).rows)
        s.execute("CREATE INDEX emp_name_idx ON emp (name)")
        assert "emp_name_idx" in str(s.execute(sql).rows)

    def test_plan_after_ddl_sees_new_index(self, s):
        sql = "SELECT id FROM emp WHERE name = ?"
        s.execute(sql, ["ada"])
        s.execute("CREATE INDEX emp_name_idx ON emp (name)")
        plan = s.explain("SELECT id FROM emp WHERE name = 'ada'")
        assert "emp_name_idx" in plan


# ----------------------------------------------------------------------
# One statement path, three surfaces
# ----------------------------------------------------------------------
PARITY_STATEMENTS = [
    ("CREATE TABLE kv (w INT, k INT, v INT, PRIMARY KEY (w, k))", ()),
    ("CREATE TABLE kv_copy (w INT, k INT, v INT)", ()),
    ("INSERT INTO kv (w, k, v) VALUES (?, ?, ?)", (1, 1, 10)),
    ("INSERT INTO kv (w, k, v) VALUES (?, ?, ?)", (1, 2, 20)),
    ("INSERT INTO kv (w, k, v) VALUES (?, ?, ?)", (1, 2, 21)),  # duplicate key
    ("SELECT k, v FROM kv WHERE w = ? AND k = ?", (1, 2)),
    ("BEGIN", ()),
    ("SELECT v FROM kv WHERE w = ? AND k = ? FOR UPDATE", (1, 1)),
    ("UPDATE kv SET v = v + ? WHERE w = ? AND k = ?", (5, 1, 1)),
    ("COMMIT", ()),
    ("BEGIN", ()),
    ("DELETE FROM kv WHERE w = ? AND k = ?", (1, 2)),
    ("ROLLBACK", ()),
    ("COMMIT", ()),  # no transaction in progress
    ("INSERT INTO kv_copy SELECT w, k, v FROM kv WHERE w = ?", (1,)),
    ("SELECT k, v FROM kv_copy ORDER BY k", ()),
    ("DELETE FROM kv WHERE w = ? AND k = ?", (1, 2)),
    ("SELECT COUNT(*) FROM kv WHERE w = ?", (1,)),
]


@pytest.fixture(
    params=["embedded", "wire-prepared", "router", "embedded-router"]
)
def surface_execute(request):
    """``execute(sql, params)`` on each way into the statement path:
    ``Session.execute``, PARSE + EXECUTE against a bullfrogd, and a
    one-shard router (``kv`` partitioned by ``w``, ``kv_copy``
    replicated, so every routing mode but scatter is crossed), both
    served and as a bare ``RouterSession``."""
    from repro.cluster.router import RouterDatabase
    from repro.cluster.shardmap import ShardMap
    from repro.net import BullfrogServer, ServerConfig, connect

    db = Database()
    if request.param == "embedded":
        yield db.connect().execute
        return
    stops = []
    try:
        server = BullfrogServer(db, ServerConfig(port=0)).start()
        stops.append(server.shutdown)
        port = server.port
        if request.param != "wire-prepared":
            router_db = RouterDatabase(ShardMap(
                addresses=[("127.0.0.1", port)],
                partition_columns={"kv": "w"},
                replicated=frozenset({"kv_copy"}),
            ))
            stops.append(router_db.close)
            if request.param == "embedded-router":
                session = router_db.connect()
                stops.append(session.close)
                yield session.execute
                return
            router = BullfrogServer(router_db, ServerConfig(port=0)).start()
            stops.append(router.shutdown)
            port = router.port
        conn = connect("127.0.0.1", port, auto_prepare=64)
        stops.append(conn.close)
        yield conn.execute
    finally:
        for stop in reversed(stops):
            stop()


def test_statement_parity_across_surfaces(surface_execute):
    from repro.errors import ReproError

    def outcome(execute, sql, params):
        try:
            r = execute(sql, params)
        except ReproError as exc:
            return type(exc).__name__
        return (r.statement, r.columns, r.rows, r.rowcount)

    reference = Database().connect().execute
    for sql, params in PARITY_STATEMENTS:
        assert outcome(surface_execute, sql, params) == outcome(
            reference, sql, params
        ), sql
