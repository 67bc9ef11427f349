"""Render AST nodes back to SQL text.

Used for EXPLAIN-style plan output, error messages and tooling.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

from . import ast_nodes as ast


def render_expr(expr: ast.Expr) -> str:
    """Render an expression to SQL text."""
    if isinstance(expr, ast.Literal):
        return _render_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.key()
    if isinstance(expr, ast.Param):
        return "?"
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.BinaryOp):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {render_expr(expr.operand)})"
        return f"({expr.op}{render_expr(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand)} {suffix})"
    if isinstance(expr, ast.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({render_expr(expr.operand)} {word} "
            f"{render_expr(expr.low)} AND {render_expr(expr.high)})"
        )
    if isinstance(expr, ast.InList):
        word = "NOT IN" if expr.negated else "IN"
        items = ", ".join(render_expr(item) for item in expr.items)
        return f"({render_expr(expr.operand)} {word} ({items}))"
    if isinstance(expr, ast.FunctionCall):
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(render_expr(arg) for arg in expr.args)
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, ast.Cast):
        return f"CAST({render_expr(expr.operand)} AS {expr.target.render()})"
    if isinstance(expr, ast.Extract):
        return f"EXTRACT({expr.field} FROM {render_expr(expr.operand)})"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(render_expr(expr.operand))
        for when, then in expr.whens:
            parts.append(f"WHEN {render_expr(when)} THEN {render_expr(then)}")
        if expr.default is not None:
            parts.append(f"ELSE {render_expr(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.TidRange):
        tid = f"{expr.binding}.ctid"
        return f"({tid} >= {render_expr(expr.low)} AND {tid} < {render_expr(expr.high)})"
    raise TypeError(f"cannot render expression node {type(expr).__name__}")


def _render_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float, Decimal)):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, datetime.datetime):
        return f"'{value.isoformat(sep=' ')}'"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    return repr(value)


def render_select(select: ast.Select) -> str:
    """Render a SELECT statement to SQL text."""
    parts = ["SELECT"]
    if select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(item) for item in select.items))
    if select.from_items:
        parts.append("FROM")
        parts.append(", ".join(_render_from_item(item) for item in select.from_items))
    if select.where is not None:
        parts.append("WHERE")
        parts.append(render_expr(select.where))
    if select.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(render_expr(expr) for expr in select.group_by))
    if select.having is not None:
        parts.append("HAVING")
        parts.append(render_expr(select.having))
    if select.order_by:
        parts.append("ORDER BY")
        parts.append(
            ", ".join(
                render_expr(item.expr) + (" DESC" if item.descending else "")
                for item in select.order_by
            )
        )
    if select.limit is not None:
        parts.append("LIMIT " + render_expr(select.limit))
    if select.offset is not None:
        parts.append("OFFSET " + render_expr(select.offset))
    if select.for_update:
        parts.append("FOR UPDATE")
    return " ".join(parts)


def _render_select_item(item: ast.SelectItem) -> str:
    text = render_expr(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _render_from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        if item.alias:
            return f"{item.name} {item.alias}"
        return item.name
    if isinstance(item, ast.SubquerySource):
        return f"({render_select(item.query)}) {item.alias}"
    if isinstance(item, ast.Join):
        left = _render_from_item(item.left)
        right = _render_from_item(item.right)
        if item.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        keyword = "JOIN" if item.kind == "INNER" else f"{item.kind} JOIN"
        condition = f" ON {render_expr(item.condition)}" if item.condition else ""
        return f"{left} {keyword} {right}{condition}"
    raise TypeError(f"cannot render from-item {type(item).__name__}")


def render_statement(stmt) -> str:
    """Render any statement node to SQL text (subset used by tooling)."""
    if isinstance(stmt, ast.Select):
        return render_select(stmt)
    if isinstance(stmt, ast.Insert):
        cols = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        if stmt.query is not None:
            body = f" {render_select(stmt.query)}"
        else:
            rows = ", ".join(
                "(" + ", ".join(render_expr(v) for v in row) + ")"
                for row in stmt.rows
            )
            body = f" VALUES {rows}"
        suffix = " ON CONFLICT DO NOTHING" if stmt.on_conflict_do_nothing else ""
        return f"INSERT INTO {stmt.table}{cols}{body}{suffix}"
    if isinstance(stmt, ast.Update):
        sets = ", ".join(f"{c} = {render_expr(e)}" for c, e in stmt.assignments)
        where = f" WHERE {render_expr(stmt.where)}" if stmt.where else ""
        return f"UPDATE {stmt.table} SET {sets}{where}"
    if isinstance(stmt, ast.Delete):
        where = f" WHERE {render_expr(stmt.where)}" if stmt.where else ""
        return f"DELETE FROM {stmt.table}{where}"
    if isinstance(stmt, ast.CreateView):
        return f"CREATE VIEW {stmt.name} AS {render_select(stmt.query)}"
    if isinstance(stmt, ast.CreateTable) and stmt.as_select is not None:
        return f"CREATE TABLE {stmt.name} AS {render_select(stmt.as_select)}"
    raise TypeError(f"cannot render statement {type(stmt).__name__}")
