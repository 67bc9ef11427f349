"""Migration specifications: parsing the migration DDL script.

A schema migration is submitted as "one or more DDL statements"
(paper section 2.1).  Supported forms:

* ``CREATE TABLE out AS SELECT ...`` — output schema inferred from the
  SELECT (the paper's running example);
* ``CREATE TABLE out (col type ..., constraints)`` followed by
  ``INSERT INTO out [cols] SELECT ...`` — explicit output schema, which
  is how the migration "explicitly (re)declares any integrity
  constraints that must be enforced on the new schema" (section 2.3);
* ``CREATE INDEX ... ON out (...)`` — secondary indexes on outputs
  ("the orderline_stock table retains all secondary indexes of the two
  tables that generated it", section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnsupportedMigrationError
from ..sql import ast_nodes as ast
from ..sql.parser import parse_script
from .classify import (
    MappingStatement,
    MigrationCategory,
    UnitPlan,
    classify_statement,
    coalesce_units,
)


@dataclass
class MigrationSpec:
    """A parsed, classified migration."""

    migration_id: str
    units: list[UnitPlan]
    explicit_schemas: dict[str, ast.CreateTable] = field(default_factory=dict)
    index_statements: list[ast.CreateIndex] = field(default_factory=list)

    @property
    def input_tables(self) -> tuple[str, ...]:
        tables: list[str] = []
        for unit in self.units:
            tables.extend(unit.input_tables)
        return tuple(dict.fromkeys(tables))

    @property
    def output_tables(self) -> tuple[str, ...]:
        tables: list[str] = []
        for unit in self.units:
            tables.extend(unit.output_tables)
        return tuple(dict.fromkeys(tables))

    def describe(self) -> str:
        """Human-readable summary (used by examples and logs)."""
        lines = [f"migration {self.migration_id!r}:"]
        for unit in self.units:
            outputs = ", ".join(unit.output_tables)
            lines.append(
                f"  [{unit.category.value}] {unit.anchor} -> {outputs} "
                f"({'bitmap' if unit.category.uses_bitmap else 'hashmap'})"
            )
        return "\n".join(lines)

    def summary(self) -> dict:
        """Structured summary — attached to the ``migrate.submit`` trace
        event and the shell's ``\\progress`` surface."""
        return {
            "migration": self.migration_id,
            "units": len(self.units),
            "categories": [unit.category.value for unit in self.units],
            "inputs": list(self.input_tables),
            "outputs": list(self.output_tables),
        }


def parse_migration(
    migration_id: str,
    ddl: str,
    catalog,
    fkpk_join_mode: str = "fkit-bitmap",
) -> MigrationSpec:
    """Parse + classify a migration DDL script against ``catalog``.
    ``fkpk_join_mode`` selects the section 3.6 join-tracking option
    (see :func:`repro.core.classify.classify_statement`)."""
    statements = parse_script(ddl)
    explicit_schemas: dict[str, ast.CreateTable] = {}
    mappings: list[MappingStatement] = []
    mapping_columns: dict[str, tuple[str, ...]] = {}
    indexes: list[ast.CreateIndex] = []

    for stmt in statements:
        if isinstance(stmt, ast.CreateTable):
            if stmt.as_select is not None:
                mappings.append(MappingStatement(stmt.name, stmt.as_select))
            else:
                explicit_schemas[stmt.name] = stmt
        elif isinstance(stmt, ast.Insert):
            if stmt.query is None:
                raise UnsupportedMigrationError(
                    "migration INSERT statements must use a SELECT source"
                )
            if stmt.table not in explicit_schemas:
                raise UnsupportedMigrationError(
                    f"INSERT INTO {stmt.table} has no preceding CREATE TABLE "
                    "in the migration script"
                )
            mappings.append(MappingStatement(stmt.table, stmt.query))
            if stmt.columns:
                mapping_columns[stmt.table] = stmt.columns
        elif isinstance(stmt, ast.CreateIndex):
            indexes.append(stmt)
        else:
            raise UnsupportedMigrationError(
                f"unsupported statement in migration DDL: "
                f"{type(stmt).__name__}"
            )

    if not mappings:
        raise UnsupportedMigrationError(
            "migration DDL must contain at least one CREATE TABLE AS SELECT "
            "or INSERT INTO ... SELECT statement"
        )

    units: list[UnitPlan] = []
    for position, mapping in enumerate(mappings):
        unit = classify_statement(
            mapping,
            catalog,
            unit_id=f"{migration_id}/u{position}",
            fkpk_join_mode=fkpk_join_mode,
        )
        override = mapping_columns.get(mapping.output_table)
        if override is not None:
            output = unit.outputs[0]
            if len(override) != len(output.column_names):
                raise UnsupportedMigrationError(
                    f"INSERT INTO {mapping.output_table} lists "
                    f"{len(override)} column(s) but the SELECT produces "
                    f"{len(output.column_names)}"
                )
            output.column_names = tuple(override)
        units.append(unit)
    units = coalesce_units(units)

    # Sanity: an output declared with an explicit schema must list
    # columns compatible with the mapping.
    for unit in units:
        for output in unit.outputs:
            schema_stmt = explicit_schemas.get(output.table)
            if schema_stmt is None:
                continue
            declared = tuple(c.name for c in schema_stmt.columns)
            missing = [c for c in output.column_names if c not in declared]
            if missing:
                raise UnsupportedMigrationError(
                    f"output table {output.table} does not declare "
                    f"column(s) {missing!r} produced by the migration SELECT"
                )

    return MigrationSpec(
        migration_id=migration_id,
        units=units,
        explicit_schemas=explicit_schemas,
        index_statements=indexes,
    )
