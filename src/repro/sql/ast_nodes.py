"""Abstract syntax tree for the supported SQL subset.

Expression nodes double as the runtime expression representation used by
the planner and executor, so they are deliberately small, immutable-ish
dataclasses with no behaviour beyond structural equality and rendering
hooks (rendering lives in :mod:`repro.sql.render`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..types import SqlType

# ======================================================================
# Expressions
# ======================================================================


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (already a Python object; None means NULL)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference, e.g. ``c.c_id`` or ``c_id``."""

    name: str
    table: str | None = None

    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` parameter; ``index`` is 0-based."""

    index: int


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or inside COUNT(*)."""

    table: str | None = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operator: comparison, arithmetic, AND/OR, LIKE, ``||``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """NOT or unary minus."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A scalar or aggregate function call.

    Aggregates (COUNT/SUM/AVG/MIN/MAX) are distinguished by the planner,
    not here.  ``distinct`` supports ``COUNT(DISTINCT x)``.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    target: SqlType


@dataclass(frozen=True)
class Extract(Expr):
    """``EXTRACT(field FROM expr)`` — field in YEAR/MONTH/DAY/HOUR/MINUTE."""

    field: str
    operand: Expr


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Expr | None
    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None


@dataclass(frozen=True)
class TidRange(Expr):
    """``low <= TID < high`` on the base table bound as ``binding``: the
    granule predicate the migration engines inject into a unit's
    production statement.  The parser never produces it."""

    binding: str
    low: Expr
    high: Expr


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def is_aggregate_call(expr: Expr) -> bool:
    return isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS


def walk(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, IsNull):
        yield from walk(expr.operand)
    elif isinstance(expr, Between):
        yield from walk(expr.operand)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, Cast):
        yield from walk(expr.operand)
    elif isinstance(expr, Extract):
        yield from walk(expr.operand)
    elif isinstance(expr, CaseExpr):
        if expr.operand is not None:
            yield from walk(expr.operand)
        for when, then in expr.whens:
            yield from walk(when)
            yield from walk(then)
        if expr.default is not None:
            yield from walk(expr.default)


# ======================================================================
# Query structure
# ======================================================================


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: str | None = None


class FromItem:
    """Base class for items in a FROM clause."""

    __slots__ = ()


@dataclass(frozen=True)
class TableRef(FromItem):
    """A base table or view reference with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is visible as inside the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubquerySource(FromItem):
    """A derived table: ``(SELECT ...) alias``."""

    query: "Select"
    alias: str


@dataclass(frozen=True)
class Join(FromItem):
    """An explicit ``a JOIN b ON cond``.  ``kind`` in INNER/LEFT/CROSS."""

    kind: str
    left: FromItem
    right: FromItem
    condition: Expr | None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT statement (also used as a subquery / view body)."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    distinct: bool = False
    for_update: bool = False


# ======================================================================
# DML
# ======================================================================


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    # Exactly one of ``rows`` / ``query`` is set.
    rows: tuple[tuple[Expr, ...], ...] = ()
    query: Select | None = None
    on_conflict_do_nothing: bool = False


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None
    alias: str | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None
    alias: str | None = None


# ======================================================================
# DDL
# ======================================================================


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: SqlType
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Expr | None = None
    check: Expr | None = None
    references: tuple[str, tuple[str, ...]] | None = None  # (table, cols)


@dataclass(frozen=True)
class TableConstraint:
    """A table-level constraint from a CREATE TABLE statement."""

    kind: str  # 'PRIMARY KEY' | 'UNIQUE' | 'CHECK' | 'FOREIGN KEY'
    name: str | None = None
    columns: tuple[str, ...] = ()
    expr: Expr | None = None  # for CHECK
    ref_table: str | None = None  # for FOREIGN KEY
    ref_columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...] = ()
    constraints: tuple[TableConstraint, ...] = ()
    as_select: Select | None = None
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateView:
    name: str
    query: Select
    or_replace: bool = False


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropView:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropIndex:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class AlterTable:
    """``ALTER TABLE name <action>``.

    ``action`` is one of:
      * ``("ADD COLUMN", ColumnDef)``
      * ``("DROP COLUMN", column_name)``
      * ``("RENAME COLUMN", old_name, new_name)``
      * ``("RENAME TO", new_name)``
      * ``("ADD CONSTRAINT", TableConstraint)``
      * ``("DROP CONSTRAINT", constraint_name)``
    """

    name: str
    action: tuple


# ======================================================================
# Introspection
# ======================================================================


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN [ANALYZE] SELECT ...``.

    Plain EXPLAIN renders the plan without executing it; ANALYZE runs
    the query through an instrumented copy of the plan and annotates
    each node with actual row counts, loop counts, and wall time (plus
    the lazy-migration stall the statement triggered, if any).
    """

    query: Select
    analyze: bool = False


# ======================================================================
# Transaction control
# ======================================================================


@dataclass(frozen=True)
class BeginTransaction:
    pass


@dataclass(frozen=True)
class CommitTransaction:
    pass


@dataclass(frozen=True)
class RollbackTransaction:
    pass


Statement = (
    Select
    | Insert
    | Update
    | Delete
    | CreateTable
    | CreateView
    | CreateIndex
    | DropTable
    | DropView
    | DropIndex
    | AlterTable
    | Explain
    | BeginTransaction
    | CommitTransaction
    | RollbackTransaction
)
