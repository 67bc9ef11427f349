"""Tests for schemas, constraints, tables, and the catalog registry."""

import pytest

from repro.catalog import (
    Catalog,
    Check,
    Column,
    ForeignKey,
    PrimaryKey,
    TableSchema,
    Unique,
)
from repro.errors import (
    CheckViolation,
    DuplicateObjectError,
    NotNullViolation,
    SchemaVersionError,
    UniqueViolation,
    UnknownObjectError,
)
from repro.sql import parse_expression
from repro.types import int_type, varchar_type


def simple_schema(name="t"):
    return TableSchema(
        name=name,
        columns=(
            Column("id", int_type(), not_null=True),
            Column("name", varchar_type(20)),
            Column("age", int_type(), default=0, has_default=True),
        ),
        primary_key=PrimaryKey(("id",)),
    )


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", int_type()), Column("a", int_type())))

    def test_lookup(self):
        schema = simple_schema()
        assert schema.column("name").type == varchar_type(20)
        assert schema.column_index("age") == 2
        assert schema.has_column("id")
        assert not schema.has_column("zzz")
        with pytest.raises(UnknownObjectError):
            schema.column("zzz")

    def test_coerce_row_defaults_and_nulls(self):
        schema = simple_schema()
        row = schema.row_maker(("id",))((1,))
        assert row == (1, None, 0)

    def test_coerce_row_not_null(self):
        schema = simple_schema()
        with pytest.raises(NotNullViolation):
            schema.row_maker(("name",))(("x",))  # id missing

    def test_pk_columns_implicitly_not_null(self):
        schema = TableSchema(
            "t",
            (Column("id", int_type()),),
            primary_key=PrimaryKey(("id",)),
        )
        with pytest.raises(NotNullViolation):
            schema.row_maker(())(())

    def test_coerce_row_unknown_column(self):
        with pytest.raises(UnknownObjectError):
            simple_schema().row_maker(("id", "bogus"))

    def test_row_to_dict(self):
        schema = simple_schema()
        assert schema.row_to_dict((1, "a", 2)) == {"id": 1, "name": "a", "age": 2}

    def test_with_column(self):
        schema = simple_schema().with_column(Column("extra", int_type()))
        assert schema.has_column("extra")
        with pytest.raises(ValueError):
            schema.with_column(Column("id", int_type()))

    def test_without_column(self):
        schema = simple_schema().without_column("name")
        assert not schema.has_column("name")
        with pytest.raises(UnknownObjectError):
            simple_schema().without_column("zzz")

    def test_rename_column(self):
        schema = simple_schema().with_renamed_column("name", "full_name")
        assert schema.has_column("full_name")
        with pytest.raises(ValueError):
            simple_schema().with_renamed_column("name", "id")

    def test_constraints_add_remove(self):
        schema = simple_schema()
        schema = schema.with_constraint(Unique(("name",), name="u1"))
        schema = schema.with_constraint(
            Check(parse_expression("age >= 0"), name="c1")
        )
        schema = schema.with_constraint(
            ForeignKey(("age",), "other", name="fk1")
        )
        assert len(schema.uniques) == 1
        assert len(schema.checks) == 1
        assert len(schema.foreign_keys) == 1
        schema = schema.without_constraint("u1")
        assert not schema.uniques
        with pytest.raises(UnknownObjectError):
            schema.without_constraint("nope")

    def test_second_primary_key_rejected(self):
        with pytest.raises(ValueError):
            simple_schema().with_constraint(PrimaryKey(("name",)))

    def test_unique_column_sets(self):
        schema = simple_schema().with_constraint(Unique(("name",)))
        assert schema.unique_column_sets() == [("id",), ("name",)]


class TestTablePhysicalOps:
    def make_table(self):
        catalog = Catalog()
        return catalog.create_table(simple_schema())

    def test_insert_builds_indexes(self):
        table = self.make_table()
        tid = table.physical_insert((1, "a", 0))
        pk_index = table.indexes["t_pkey"]
        assert pk_index.lookup((1,)) == [tid]

    def test_unique_violation_rolls_back_cleanly(self):
        table = self.make_table()
        table.physical_insert((1, "a", 0))
        before = len(table)
        with pytest.raises(UniqueViolation):
            table.physical_insert((1, "b", 0))
        assert len(table) == before
        # The heap slot used by the failed insert is tombstoned, and no
        # stray index entries remain.
        assert len(table.indexes["t_pkey"].lookup((1,))) == 1

    def test_update_maintains_indexes(self):
        table = self.make_table()
        tid = table.physical_insert((1, "a", 0))
        table.physical_update(tid, (2, "a", 0))
        pk = table.indexes["t_pkey"]
        assert pk.lookup((1,)) == []
        assert pk.lookup((2,)) == [tid]

    def test_update_unique_conflict_restores_old_entries(self):
        table = self.make_table()
        table.physical_insert((1, "a", 0))
        tid = table.physical_insert((2, "b", 0))
        with pytest.raises(UniqueViolation):
            table.physical_update(tid, (1, "b", 0))
        pk = table.indexes["t_pkey"]
        assert pk.lookup((2,)) == [tid]
        assert table.heap.read(tid) == (2, "b", 0)

    def test_delete_and_restore(self):
        table = self.make_table()
        tid = table.physical_insert((1, "a", 0))
        row = table.physical_delete(tid)
        assert table.indexes["t_pkey"].lookup((1,)) == []
        table.physical_restore(tid, row)
        assert table.indexes["t_pkey"].lookup((1,)) == [tid]

    def test_checks_enforced(self):
        catalog = Catalog()
        schema = simple_schema().with_constraint(
            Check(parse_expression("age >= 0"), name="age_check")
        )
        table = catalog.create_table(schema)
        with pytest.raises(CheckViolation):
            table.physical_insert((1, "a", -5))

    def test_check_with_null_passes(self):
        catalog = Catalog()
        schema = TableSchema(
            "t",
            (Column("a", int_type()),),
            checks=(Check(parse_expression("a > 0"), name="c"),),
        )
        table = catalog.create_table(schema)
        table.physical_insert((None,))  # NULL check result passes (SQL)

    def test_find_index(self):
        table = self.make_table()
        assert table.find_index(("id",)) is not None
        assert table.find_index(("name",)) is None

    def test_find_equality_index_prefix(self):
        catalog = Catalog()
        schema = TableSchema(
            "t",
            (Column("a", int_type()), Column("b", int_type()), Column("c", int_type())),
        )
        table = catalog.create_table(schema)
        table.add_index("abc", ("a", "b", "c"), ordered=True)
        found = table.find_equality_index(frozenset({"a", "b"}))
        assert found is not None
        index, used = found
        assert index.name == "abc"
        assert used == ("a", "b")

    def test_index_backfill_on_create(self):
        table = self.make_table()
        table.physical_insert((1, "x", 0))
        table.physical_insert((2, "y", 0))
        index = table.add_index("by_name", ("name",))
        assert len(index.lookup(("x",))) == 1


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        assert catalog.has_table("t")
        assert catalog.table("t").schema.name == "t"

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        with pytest.raises(DuplicateObjectError):
            catalog.create_table(simple_schema())

    def test_if_not_exists(self):
        catalog = Catalog()
        first = catalog.create_table(simple_schema())
        again = catalog.create_table(simple_schema(), if_not_exists=True)
        assert first is again

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(UnknownObjectError):
            catalog.drop_table("t")
        catalog.drop_table("t", if_exists=True)

    def test_rename(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        catalog.rename_table("t", "u")
        assert catalog.has_table("u")
        assert not catalog.has_table("t")
        assert catalog.table("u").schema.name == "u"

    def test_retired_table_rejected(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        catalog.retire_table("t")
        with pytest.raises(SchemaVersionError):
            catalog.table_checked("t")
        # migration-internal access still allowed
        assert catalog.table_checked("t", allow_retired=True) is not None

    def test_views(self):
        from repro.sql import parse_statement

        catalog = Catalog()
        query = parse_statement("SELECT 1 AS one")
        catalog.create_view("v", query)
        assert catalog.has_view("v")
        assert catalog.view("v").query is query
        with pytest.raises(DuplicateObjectError):
            catalog.create_view("v", query)
        catalog.create_view("v", query, or_replace=True)
        catalog.drop_view("v")
        assert not catalog.has_view("v")

    def test_view_table_name_collision(self):
        from repro.sql import parse_statement

        catalog = Catalog()
        catalog.create_table(simple_schema())
        with pytest.raises(DuplicateObjectError):
            catalog.create_view("t", parse_statement("SELECT 1"))

    def test_index_namespace_global(self):
        catalog = Catalog()
        catalog.create_table(simple_schema())
        catalog.create_table(simple_schema("u"))
        catalog.create_index("i1", "t", ("name",))
        with pytest.raises(DuplicateObjectError):
            catalog.create_index("i1", "u", ("name",))
        catalog.drop_index("i1")
        with pytest.raises(UnknownObjectError):
            catalog.drop_index("i1")
        catalog.drop_index("i1", if_exists=True)
