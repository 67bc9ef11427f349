"""Tests for migration classification (paper section 3.1) and spec parsing."""

import pytest

from repro import Database
from repro.core import MigrationCategory, parse_migration
from repro.core.granularity import GranuleMapper
from repro.errors import UnsupportedMigrationError


@pytest.fixture
def s(db):
    session = db.connect()
    session.execute(
        "CREATE TABLE cust (id INT PRIMARY KEY, name VARCHAR(20), bal INT, city VARCHAR(20))"
    )
    session.execute(
        "CREATE TABLE ol (w INT, o INT, i INT, amount INT, PRIMARY KEY (w, o, i))"
    )
    session.execute(
        "CREATE TABLE stk (w INT, i INT, qty INT, PRIMARY KEY (w, i))"
    )
    session.execute(
        "CREATE TABLE acct (id INT PRIMARY KEY, owner INT REFERENCES cust (id), v INT)"
    )
    return session


class TestClassification:
    def test_single_table_projection_is_one_to_one(self, db, s):
        spec = parse_migration(
            "m", "CREATE TABLE c2 AS SELECT id, name FROM cust", db.catalog
        )
        unit = spec.units[0]
        assert unit.category is MigrationCategory.ONE_TO_ONE
        assert unit.anchor == "cust"
        assert unit.outputs[0].column_names == ("id", "name")

    def test_split_coalesces_to_one_to_n(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE a AS SELECT id, bal FROM cust;"
            "CREATE TABLE b AS SELECT id, city FROM cust;",
            db.catalog,
        )
        assert len(spec.units) == 1
        unit = spec.units[0]
        assert unit.category is MigrationCategory.ONE_TO_N
        assert unit.output_tables == ("a", "b")

    def test_group_by_is_n_to_one(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE totals AS SELECT w, o, SUM(amount) AS total "
            "FROM ol GROUP BY w, o",
            db.catalog,
        )
        unit = spec.units[0]
        assert unit.category is MigrationCategory.N_TO_ONE
        assert unit.group_columns == ("w", "o")
        assert unit.anchor == "ol"

    def test_fk_pk_join_is_one_to_one_on_fk_side(self, db, s):
        """Joining on the referenced table's PK: section 3.6 option 2 —
        track the FK input table, no state on the PK side."""
        spec = parse_migration(
            "m",
            "CREATE TABLE av AS SELECT a.id AS aid, a.v, c.name "
            "FROM acct a, cust c WHERE a.owner = c.id",
            db.catalog,
        )
        unit = spec.units[0]
        assert unit.category is MigrationCategory.ONE_TO_ONE
        assert unit.anchor == "acct"
        assert unit.aux is not None
        assert unit.aux.table == "cust"
        assert unit.aux.pairs == (("owner", "id"),)

    def test_many_to_many_join_is_n_to_n(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE ols AS SELECT ol.w AS olw, ol.o, ol.amount, "
            "stk.w AS sw, stk.qty FROM ol, stk WHERE stk.i = ol.i",
            db.catalog,
        )
        unit = spec.units[0]
        assert unit.category is MigrationCategory.N_TO_N
        assert unit.join_key is not None
        assert unit.join_key.anchor_columns == ("i",)
        assert unit.join_key.other_columns == ("i",)

    def test_join_with_explicit_join_syntax(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE av AS SELECT a.v, c.name FROM acct a "
            "JOIN cust c ON a.owner = c.id",
            db.catalog,
        )
        assert spec.units[0].aux is not None

    def test_static_filter_retained(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE rich AS SELECT id, bal FROM cust WHERE bal > 100",
            db.catalog,
        )
        assert spec.units[0].static_filter is not None

    def test_star_expansion(self, db, s):
        spec = parse_migration(
            "m", "CREATE TABLE c2 AS SELECT * FROM cust", db.catalog
        )
        assert spec.units[0].outputs[0].column_names == (
            "id", "name", "bal", "city",
        )

    def test_explicit_schema_plus_insert(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE c2 (id INT PRIMARY KEY, name VARCHAR(20));"
            "INSERT INTO c2 (id, name) SELECT id, name FROM cust;",
            db.catalog,
        )
        assert "c2" in spec.explicit_schemas
        assert spec.units[0].outputs[0].column_names == ("id", "name")

    def test_insert_column_override(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE c2 (cid INT PRIMARY KEY, cname VARCHAR(20));"
            "INSERT INTO c2 (cid, cname) SELECT id, name FROM cust;",
            db.catalog,
        )
        assert spec.units[0].outputs[0].column_names == ("cid", "cname")

    def test_index_statements_collected(self, db, s):
        spec = parse_migration(
            "m",
            "CREATE TABLE c2 AS SELECT id, name FROM cust;"
            "CREATE INDEX c2_name ON c2 (name);",
            db.catalog,
        )
        assert len(spec.index_statements) == 1

    def test_describe(self, db, s):
        spec = parse_migration(
            "m", "CREATE TABLE c2 AS SELECT id FROM cust", db.catalog
        )
        assert "1:1" in spec.describe()


class TestUnsupportedShapes:
    def test_three_table_join_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m",
                "CREATE TABLE x AS SELECT a.v FROM acct a, cust c, stk s "
                "WHERE a.owner = c.id AND s.i = a.id",
                db.catalog,
            )

    def test_group_by_over_join_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m",
                "CREATE TABLE x AS SELECT c.id, SUM(a.v) FROM acct a, cust c "
                "WHERE a.owner = c.id GROUP BY c.id",
                db.catalog,
            )

    def test_group_by_expression_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m",
                "CREATE TABLE x AS SELECT SUM(amount) FROM ol GROUP BY w + 1",
                db.catalog,
            )

    def test_join_without_equality_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m",
                "CREATE TABLE x AS SELECT a.v FROM acct a, cust c WHERE a.v < c.bal",
                db.catalog,
            )

    def test_empty_migration_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration("m", "CREATE INDEX i ON cust (name)", db.catalog)

    def test_insert_without_schema_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m", "INSERT INTO nowhere SELECT id FROM cust", db.catalog
            )

    def test_insert_values_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m",
                "CREATE TABLE c2 (id INT); INSERT INTO c2 VALUES (1)",
                db.catalog,
            )

    def test_schema_missing_mapped_column_rejected(self, db, s):
        # mapped columns must exist in the declared schema
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m2",
                "CREATE TABLE c4 (id INT);"
                "INSERT INTO c4 SELECT id, name FROM cust;",
                db.catalog,
            )


class TestGranuleMapper:
    def test_tuple_granularity(self, db, s):
        for i in range(10):
            s.execute("INSERT INTO cust VALUES (?, 'x', 0, 'y')", [i])
        heap = db.catalog.table("cust").heap
        mapper = GranuleMapper(heap, granule_size=1)
        assert mapper.granule_count == 10
        assert [tid for tid, _row in mapper.tuples_in(7)] == [7]

    def test_page_granularity(self, db, s):
        for i in range(10):
            s.execute("INSERT INTO cust VALUES (?, 'x', 0, 'y')", [i])
        heap = db.catalog.table("cust").heap
        mapper = GranuleMapper(heap, granule_size=4)
        assert mapper.granule_count == 3  # ceil(10 / 4)
        assert [tid for tid, _row in mapper.tuples_in(1)] == [4, 5, 6, 7]
        assert len(list(mapper.tuples_in(0))) == 4
        assert len(list(mapper.tuples_in(2))) == 2

    def test_invalid_granule_size(self, db, s):
        heap = db.catalog.table("cust").heap
        with pytest.raises(ValueError):
            GranuleMapper(heap, granule_size=0)

    def test_granule_of_tid(self, db, s):
        for i in range(5):
            s.execute("INSERT INTO cust VALUES (?, 'x', 0, 'y')", [i])
        heap = db.catalog.table("cust").heap
        mapper = GranuleMapper(heap, granule_size=2)
        for granule in range(mapper.granule_count):
            tids = [tid for tid, _row in mapper.tuples_in(granule)]
            assert tids and all(tid // 2 == granule for tid in tids)


class TestFkPkJoinOptions:
    """Section 3.6's two tracking options for FK-PK joins."""

    DDL = (
        "CREATE TABLE av AS SELECT a.id AS aid, a.v, c.name "
        "FROM acct a, cust c WHERE a.owner = c.id"
    )

    def test_option2_default_is_fkit_bitmap(self, db, s):
        spec = parse_migration("m", self.DDL, db.catalog)
        unit = spec.units[0]
        assert unit.category is MigrationCategory.ONE_TO_ONE
        assert unit.aux is not None

    def test_option1_value_hashmap(self, db, s):
        spec = parse_migration(
            "m", self.DDL, db.catalog, fkpk_join_mode="value-hashmap"
        )
        unit = spec.units[0]
        assert unit.category is MigrationCategory.N_TO_N
        assert unit.join_key is not None
        assert unit.join_key.anchor_columns == ("owner",)
        assert unit.join_key.other_columns == ("id",)

    def test_unknown_mode_rejected(self, db, s):
        with pytest.raises(UnsupportedMigrationError):
            parse_migration(
                "m", self.DDL, db.catalog, fkpk_join_mode="bogus"
            )

    def test_option1_migrates_group_together(self, db, s):
        """Option 1: 'Immediately migrate all other tuples in the FKIT
        with the same foreign key.'"""
        from repro.core import BackgroundConfig, LazyMigrationEngine

        # data: 3 parents, 9 children
        for k in range(3):
            s.execute(
                "INSERT INTO cust VALUES (?, ?, 0, 'c')", [100 + k, f"n{k}"]
            )
        for i in range(9):
            s.execute(
                "INSERT INTO acct VALUES (?, ?, ?)", [i, 100 + (i % 3), i]
            )
        engine = LazyMigrationEngine(
            db,
            background=BackgroundConfig(enabled=False),
            fkpk_join_mode="value-hashmap",
        )
        engine.submit("m", self.DDL)
        # Pinned: the SELECT must lazy-migrate its FK group under 2PL.
        rc = db.connect(isolation="read_committed")
        rc.execute("SELECT v FROM av WHERE aid = 4")
        # aid=4 has owner 101: the whole owner-101 group (3 rows) migrated.
        assert engine.stats.tuples_migrated == 3
