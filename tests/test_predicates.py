"""Tests for predicate transfer and constraint-driven scope (sections 2.1/4.5)."""

import pytest

from repro import Database
from repro.core import parse_migration
from repro.core.constraints import (
    fk_parent_conjuncts,
    insert_conjuncts,
    update_unique_conjuncts,
)
from repro.core.predicates import PredicateTransfer, Scope
from repro.sql import parse_expression, parse_statement
from repro.sql.render import render_expr


@pytest.fixture
def env(db):
    s = db.connect()
    s.execute(
        "CREATE TABLE cust (id INT PRIMARY KEY, grp INT, name VARCHAR(20), bal INT)"
    )
    s.execute("CREATE INDEX cust_grp ON cust (grp)")
    s.execute(
        "CREATE TABLE ol (w INT, o INT, i INT, amount INT, PRIMARY KEY (w, o, i))"
    )
    s.execute("CREATE TABLE stk (w INT, i INT, qty INT, PRIMARY KEY (w, i))")
    for i in range(40):
        s.execute(
            "INSERT INTO cust VALUES (?, ?, ?, ?)",
            [i, i % 4, f"name{i}", i * 10],
        )
    for w in (1, 2):
        for o in range(5):
            for item in range(3):
                s.execute(
                    "INSERT INTO ol VALUES (?, ?, ?, ?)",
                    [w, o, item, o * 10 + item],
                )
        for item in range(4):
            s.execute("INSERT INTO stk VALUES (?, ?, ?)", [w, item, 50])
    return db, s


def transfer_for(db, ddl, granule_size=1):
    spec = parse_migration("m", ddl, db.catalog)
    unit = spec.units[0]
    return unit, PredicateTransfer(unit, db.catalog, db.planner, granule_size)


def scope_for(transfer, stmt, params):
    """The scope one execution of ``stmt`` induces on the transfer's
    unit (empty when the statement touches none of its outputs)."""
    compiled = transfer.compile_scope(stmt)
    return Scope() if compiled is None else compiled(params)


class TestBitmapScope:
    def test_point_predicate_selects_one_granule(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT name FROM c2 WHERE id = 7")
        scope = scope_for(transfer, stmt, ())
        assert not scope.full
        assert len(scope.granules) == 1

    def test_param_predicate(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT name FROM c2 WHERE id = ?")
        scope = scope_for(transfer, stmt, [3])
        assert len(scope.granules) == 1

    def test_range_predicate(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT name FROM c2 WHERE id < 5")
        scope = scope_for(transfer, stmt, ())
        assert len(scope.granules) == 5

    def test_no_predicate_full_scope(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT COUNT(*) FROM c2")
        scope = scope_for(transfer, stmt, ())
        assert scope.full

    def test_unrelated_table_empty_scope(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT * FROM stk WHERE w = 1")
        scope = scope_for(transfer, stmt, ())
        assert scope.is_empty

    def test_update_where_clause(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name, bal FROM cust"
        )
        stmt = parse_statement("UPDATE c2 SET bal = bal + 1 WHERE id = 3")
        scope = scope_for(transfer, stmt, ())
        assert len(scope.granules) == 1

    def test_delete_where_clause(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("DELETE FROM c2 WHERE id IN (1, 2)")
        scope = scope_for(transfer, stmt, ())
        assert len(scope.granules) == 2

    def test_derived_column_predicate_maps_through_projection(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, bal * 2 AS double_bal FROM cust"
        )
        stmt = parse_statement("SELECT * FROM c2 WHERE double_bal = 20")
        scope = scope_for(transfer, stmt, ())
        assert len(scope.granules) == 1  # cust.bal * 2 = 20 -> id 1

    def test_page_granularity_coarsens_scope(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust", granule_size=8
        )
        stmt = parse_statement("SELECT name FROM c2 WHERE id = 7")
        scope = scope_for(transfer, stmt, ())
        assert scope.granules == {0}  # granule covering ordinals 0..7

    def test_alias_in_client_query(self, env):
        db, s = env
        _unit, transfer = transfer_for(
            db, "CREATE TABLE c2 AS SELECT id, name FROM cust"
        )
        stmt = parse_statement("SELECT x.name FROM c2 x WHERE x.id = 7")
        scope = scope_for(transfer, stmt, ())
        assert len(scope.granules) == 1


class TestGroupScope:
    DDL = (
        "CREATE TABLE totals AS SELECT w, o, SUM(amount) AS total "
        "FROM ol GROUP BY w, o"
    )

    def test_pinned_group_key(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement("SELECT total FROM totals WHERE w = 1 AND o = 2")
        scope = scope_for(transfer, stmt, ())
        assert scope.keys == {(1, 2)}

    def test_partial_key_scans_for_groups(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement("SELECT total FROM totals WHERE w = 1")
        scope = scope_for(transfer, stmt, ())
        assert scope.keys == {(1, o) for o in range(5)}

    def test_aggregate_output_not_pushable(self, env):
        """A filter on SUM(...) cannot bound the scope (worst case of
        section 2.4): full migration."""
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement("SELECT * FROM totals WHERE total > 100")
        scope = scope_for(transfer, stmt, ())
        assert scope.full

    def test_mixed_pushable_and_not(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement(
            "SELECT * FROM totals WHERE w = 2 AND total > 100"
        )
        scope = scope_for(transfer, stmt, ())
        # w=2 bounds the scan; the total conjunct is simply dropped.
        assert scope.keys == {(2, o) for o in range(5)}


class TestJoinScope:
    DDL = (
        "CREATE TABLE ols AS SELECT ol.w AS olw, ol.o, ol.i AS oli, "
        "ol.amount, stk.w AS sw, stk.i AS si, stk.qty "
        "FROM ol, stk WHERE stk.i = ol.i"
    )

    def test_anchor_side_predicate(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement("SELECT * FROM ols WHERE oli = 2")
        scope = scope_for(transfer, stmt, ())
        assert scope.keys == {(2,)}

    def test_other_side_predicate(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        # qty is a stock-only column: keys come from the stock side scan.
        stmt = parse_statement("SELECT * FROM ols WHERE qty = 50 AND sw = 2")
        scope = scope_for(transfer, stmt, ())
        assert scope.keys == {(0,), (1,), (2,), (3,)}

    def test_pinned_join_key_limits_scope_to_one_group(self, env):
        """si = 3 pins the join-value key: scope is at most that single
        group (the pinned fast path skips the existence scan — migrating
        an empty group is a no-op, so this stays safe and O(1))."""
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement("SELECT * FROM ols WHERE si = 3")
        scope = scope_for(transfer, stmt, ())
        assert not scope.full
        assert scope.keys <= {(3,)}

    def test_join_value_equivalence(self, env):
        """oli and si are join-equivalent: a predicate on either pins the
        same group."""
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        a = scope_for(transfer, 
            parse_statement("SELECT * FROM ols WHERE oli = 1"), ()
        )
        b = scope_for(transfer, 
            parse_statement("SELECT * FROM ols WHERE si = 1"), ()
        )
        assert a.keys == b.keys == {(1,)}

    def test_both_sides_intersect(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        stmt = parse_statement(
            "SELECT * FROM ols WHERE o = 1 AND sw = 1 AND qty < 100"
        )
        scope = scope_for(transfer, stmt, ())
        # anchor side: items of order 1 -> {0,1,2}; other side: stocked
        # items in w=1 -> {0,1,2,3}; intersection bounds the migration.
        assert scope.keys == {(0,), (1,), (2,)}

    def test_probe_binds_keys_after_params_and_null_keys_match_nothing(self, env):
        """The other side is probed with SQL ``=``: a NULL join value
        names no group, though both sides hold one."""
        db, s = env
        s.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT, tag INT)")
        s.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT, qty INT)")
        for i, k in enumerate((None, 3, 4)):
            s.execute("INSERT INTO l VALUES (?, ?, 7)", [i, k])
            s.execute("INSERT INTO r VALUES (?, ?, ?)", [i, k, 50 if k != 4 else 60])
        _unit, transfer = transfer_for(
            db,
            "CREATE TABLE lr AS SELECT l.id AS lid, l.tag, r.id AS rid, r.qty "
            "FROM l, r WHERE l.k = r.k",
        )
        stmt = parse_statement("SELECT * FROM lr WHERE tag = ? AND qty = ?")
        assert scope_for(transfer, stmt, (7, 50)).keys == {(3,)}
        assert scope_for(transfer, stmt, (7, 60)).keys == {(4,)}

    def test_no_predicates_full(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, self.DDL)
        scope = scope_for(transfer, 
            parse_statement("SELECT COUNT(*) FROM ols"), ()
        )
        assert scope.full


class TestOldSchemaFilterExtraction:
    def test_filters_split_per_table(self, env):
        db, s = env
        _unit, transfer = transfer_for(db, TestJoinScope.DDL)
        conjuncts = [parse_expression("ol.o = 3"), parse_expression("stk.w = 1")]
        assert render_expr(transfer._per_table_predicate(conjuncts, "ol")) == "(ol.o = 3)"
        assert render_expr(transfer._per_table_predicate(conjuncts, "stk")) == "(stk.w = 1)"


class TestConstraintScopes:
    def test_insert_unique_conjuncts(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, name VARCHAR(20))")
        table = db.catalog.table("c2")
        stmt = parse_statement("INSERT INTO c2 (id, name) VALUES (7, 'x')")
        conjuncts = insert_conjuncts(table, stmt)
        assert len(conjuncts) == 1
        table_name, predicate = conjuncts[0]
        assert table_name == "c2"
        assert render_expr(predicate) == "(id = 7)"

    def test_insert_with_params(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, name VARCHAR(20))")
        table = db.catalog.table("c2")
        stmt = parse_statement("INSERT INTO c2 (id, name) VALUES (?, ?)")
        conjuncts = insert_conjuncts(table, stmt)
        assert render_expr(conjuncts[0][1]) == "(id = ?)"  # bound per execution

    def test_insert_null_unique_value_skipped(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT, u INT UNIQUE)")
        table = db.catalog.table("c2")
        stmt = parse_statement("INSERT INTO c2 (id, u) VALUES (1, NULL)")
        assert insert_conjuncts(table, stmt) == []

    def test_insert_select_gives_no_scope(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY)")
        table = db.catalog.table("c2")
        stmt = parse_statement("INSERT INTO c2 SELECT id FROM cust")
        assert insert_conjuncts(table, stmt) == []

    def test_fk_parent_conjuncts(self, env):
        db, s = env
        s.execute("CREATE TABLE parent (id INT PRIMARY KEY)")
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent (id))"
        )
        table = db.catalog.table("child")
        stmt = parse_statement("INSERT INTO child (id, pid) VALUES (1, 42)")
        conjuncts = fk_parent_conjuncts(table, stmt, {"parent"})
        assert conjuncts == [("parent", conjuncts[0][1])]
        assert render_expr(conjuncts[0][1]) == "(id = 42)"

    def test_fk_to_non_output_ignored(self, env):
        db, s = env
        s.execute("CREATE TABLE parent (id INT PRIMARY KEY)")
        s.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent (id))"
        )
        table = db.catalog.table("child")
        stmt = parse_statement("INSERT INTO child (id, pid) VALUES (1, 42)")
        assert fk_parent_conjuncts(table, stmt, {"elsewhere"}) == []

    def test_update_unique_conjuncts(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, v INT)")
        table = db.catalog.table("c2")
        stmt = parse_statement("UPDATE c2 SET id = 5 WHERE v = 1")
        conjuncts = update_unique_conjuncts(table, stmt)
        assert render_expr(conjuncts[0][1]) == "(id = 5)"

    def test_update_non_unique_column_no_scope(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, v INT)")
        table = db.catalog.table("c2")
        stmt = parse_statement("UPDATE c2 SET v = v + 1 WHERE id = 1")
        assert update_unique_conjuncts(table, stmt) == []

    def test_each_values_row_and_unique_key_is_its_own_group(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, u INT UNIQUE)")
        table = db.catalog.table("c2")
        stmt = parse_statement("INSERT INTO c2 (id, u) VALUES (?, 5), (6, NULL)")
        assert [render_expr(p) for _t, p in insert_conjuncts(table, stmt)] == [
            "(id = ?)", "(u = 5)", "(id = 6)",
        ]

    def test_update_of_a_unique_key_from_the_row_reads_any_row(self, env):
        db, s = env
        s.execute("CREATE TABLE c2 (id INT PRIMARY KEY, u INT UNIQUE)")
        table = db.catalog.table("c2")
        stmt = parse_statement("UPDATE c2 SET id = id + 1, u = ? WHERE u = 3")
        conjuncts = update_unique_conjuncts(table, stmt)
        assert conjuncts[0] == ("c2", None)
        assert render_expr(conjuncts[1][1]) == "(u = ?)"


class TestStatementScope:
    """``compile_scope``: the union of the client's predicates and every
    constraint group, bound per execution."""

    SCHEMA = "CREATE TABLE c2 (id INT PRIMARY KEY, bal INT UNIQUE, name VARCHAR(20))"
    DDL = SCHEMA + ";INSERT INTO c2 (id, bal, name) SELECT id, bal, name FROM cust;"

    def transfer(self, db, s):
        s.execute(self.SCHEMA)  # the output exists once a migration is submitted
        return transfer_for(db, self.DDL)[1]

    def test_groups_are_ored_not_anded(self, env):
        db, s = env
        transfer = self.transfer(db, s)
        two_rows = parse_statement(
            "INSERT INTO c2 (id, bal, name) VALUES (3, 999, 'a'), (4, 998, 'b')"
        )
        assert len(scope_for(transfer, two_rows, ()).granules) == 2
        # id 5 and bal 70 (customer 7) are held by different old rows.
        two_keys = parse_statement("INSERT INTO c2 (id, bal, name) VALUES (?, ?, 'c')")
        assert len(scope_for(transfer, two_keys, [5, 70]).granules) == 2
        update = parse_statement("UPDATE c2 SET id = ?, bal = ? WHERE id = ?")
        assert len(scope_for(transfer, update, [8, 90, 1]).granules) == 3

    def test_unique_key_assigned_from_the_row_is_full_scope(self, env):
        db, s = env
        transfer = self.transfer(db, s)
        stmt = parse_statement("UPDATE c2 SET bal = bal + 1 WHERE id = 1")
        assert scope_for(transfer, stmt, ()).full

    def test_plain_insert_into_unrelated_table_touches_no_unit(self, env):
        db, s = env
        transfer = self.transfer(db, s)
        assert transfer.compile_scope(parse_statement(
            "INSERT INTO stk VALUES (1, 9, 0)"
        )) is None

    def test_insert_select_scopes_its_source(self, env):
        db, s = env
        s.execute("CREATE TABLE sink (id INT)")
        transfer = self.transfer(db, s)
        stmt = parse_statement("INSERT INTO sink SELECT id FROM c2 WHERE id = ?")
        assert len(scope_for(transfer, stmt, [3]).granules) == 1

    def test_null_pinned_group_key_is_empty_scope(self, env):
        db, s = env
        schema = "CREATE TABLE totals (w INT, o INT, total INT, PRIMARY KEY (w, o))"
        s.execute(schema)
        _unit, transfer = transfer_for(
            db,
            schema + ";INSERT INTO totals (w, o, total) SELECT w, o, SUM(amount) "
            "FROM ol GROUP BY w, o;",
        )
        stmt = parse_statement("INSERT INTO totals VALUES (?, ?, 0)")
        assert scope_for(transfer, stmt, [1, 2]).keys == {(1, 2)}
        assert scope_for(transfer, stmt, [None, 2]).is_empty
