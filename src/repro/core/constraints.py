"""Constraint-driven migration scope expansion (paper sections 2.1, 4.5).

``INSERT commands generally can be performed over the new schema
without requiring any prior migration unless there are integrity
constraints defined on the new schema``:

* a UNIQUE/PRIMARY KEY constraint on an output table means an INSERT
  (or an UPDATE of the unique attribute) must first migrate old rows
  with *potentially conflicting* values so the constraint can be
  checked over the new schema;
* a FOREIGN KEY from an output table to another migrated table means
  the referenced parent row must be migrated before the child insert
  can validate.

This module turns a write's AST into ``(output_table, predicate)``
pairs over output columns, once per prepared statement: the VALUES /
SET expressions stay in the predicate as written (a ``?`` stays a
``Param``), so executions bind them and evaluate nothing here.  Each
pair is an *independent* group — the rows one VALUES row could
conflict with on one key, or one FK parent — and the scope a statement
needs is their union (:meth:`~repro.core.predicates.PredicateTransfer.
compile_scope`), never their conjunction.  A ``None`` predicate means
"could be any row": full scope.
"""

from __future__ import annotations

from typing import Any

from ..exec.rewrite import conjoin
from ..sql import ast_nodes as ast


def constraint_conjuncts(
    table, stmt: ast.Statement, output_tables: Any
) -> list[tuple[str, ast.Expr | None]]:
    """Every constraint group of an INSERT or UPDATE on ``table`` that
    lands on one of ``output_tables``."""
    if isinstance(stmt, ast.Insert):
        pairs = insert_conjuncts(table, stmt)
        pairs += fk_parent_conjuncts(table, stmt, output_tables)
    elif isinstance(stmt, ast.Update):
        pairs = update_unique_conjuncts(table, stmt)
    else:
        return []
    return [(name, predicate) for name, predicate in pairs if name in output_tables]


def insert_conjuncts(table, stmt: ast.Insert) -> list[tuple[str, ast.Expr]]:
    """One (output_table, predicate) pair per VALUES row and unique key:
    the old rows that row would conflict with."""
    conjuncts: list[tuple[str, ast.Expr]] = []
    unique_sets = table.schema.unique_column_sets()
    for values in _values_rows(table, stmt):
        for unique_set in unique_sets:
            predicate = _equalities(unique_set, unique_set, values)
            if predicate is not None:
                conjuncts.append((table.schema.name, predicate))
    return conjuncts


def fk_parent_conjuncts(
    table, stmt: ast.Insert, output_tables: Any
) -> list[tuple[str, ast.Expr]]:
    """(parent_output_table, predicate) pairs, one per VALUES row and
    FK into ``output_tables``: the parent row the FK check will look
    up, which must be migrated first."""
    fks = [fk for fk in table.schema.foreign_keys if fk.ref_table in output_tables]
    conjuncts: list[tuple[str, ast.Expr]] = []
    for values in _values_rows(table, stmt):
        for fk in fks:
            predicate = _equalities(fk.columns, fk.ref_columns or fk.columns, values)
            if predicate is not None:
                conjuncts.append((fk.ref_table, predicate))
    return conjuncts


def update_unique_conjuncts(
    table, stmt: ast.Update
) -> list[tuple[str, ast.Expr | None]]:
    """One pair per unique key an UPDATE assigns: old rows carrying the
    assigned values on the assigned columns of that key (conservative
    when the key is only partly assigned).  A value computed from the
    row itself (``SET id = id + 1``) could collide with any old row:
    its predicate is ``None``."""
    assigned = dict(stmt.assignments)
    conjuncts: list[tuple[str, ast.Expr | None]] = []
    for unique_set in table.schema.unique_column_sets():
        touched = [c for c in unique_set if c in assigned]
        if not touched:
            continue
        if any(_reads_row(assigned[c]) for c in touched):
            conjuncts.append((table.schema.name, None))
            continue
        predicate = _equalities(touched, touched, assigned)
        if predicate is not None:
            conjuncts.append((table.schema.name, predicate))
    return conjuncts


def _values_rows(table, stmt: ast.Insert) -> list[dict[str, ast.Expr]]:
    """Column -> value expression for each VALUES row; a column the
    INSERT leaves out gets its default.  Empty for INSERT..SELECT: its
    values are not known before it runs, so it gets no constraint scope
    (the unique check at insert time still holds)."""
    if stmt.query is not None:
        return []
    schema = table.schema
    defaults = {c.name: ast.Literal(c.default) for c in schema.columns}
    columns = stmt.columns or schema.column_names
    return [{**defaults, **dict(zip(columns, row))} for row in stmt.rows]


def _equalities(columns, ref_columns, values: dict[str, ast.Expr]) -> ast.Expr | None:
    """``ref_column = value`` for each column, ANDed.  None when a value
    is a NULL literal (nothing conflicts with, or references through, a
    NULL) or names a column (no valid VALUES row does)."""
    clauses = []
    for column, ref_column in zip(columns, ref_columns):
        value = values[column]
        if (isinstance(value, ast.Literal) and value.value is None) or _reads_row(value):
            return None
        clauses.append(ast.BinaryOp("=", ast.ColumnRef(ref_column), value))
    return conjoin(clauses)


def _reads_row(expr: ast.Expr) -> bool:
    return any(isinstance(node, (ast.ColumnRef, ast.Star)) for node in ast.walk(expr))
