"""AST rewriting utilities used by the planner and by BullFrog.

The pieces here implement what the paper gets from PostgreSQL for free
(section 2.1): *view expansion* turns a query over a (migration) view
into a query over base tables, and *predicate analysis* — conjunct
splitting plus equivalence-class propagation through equality join
predicates — derives the per-old-table filters that bound the scope of
a lazy migration (e.g. ``FID = 'AA101'`` over the view becomes
``FLIGHTID = 'AA101'`` on both FLIGHTS and FLEWON).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..errors import ExecutionError
from ..sql import ast_nodes as ast

# ----------------------------------------------------------------------
# Generic expression transformation
# ----------------------------------------------------------------------


def transform_expr(expr: ast.Expr, fn: Callable[[ast.Expr], ast.Expr | None]) -> ast.Expr:
    """Bottom-up rewrite: ``fn`` may return a replacement for a node or
    None to keep the (already child-rewritten) node."""
    rewritten = _transform_children(expr, fn)
    replacement = fn(rewritten)
    return rewritten if replacement is None else replacement


def _transform_children(expr: ast.Expr, fn) -> ast.Expr:
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, transform_expr(expr.left, fn), transform_expr(expr.right, fn))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, transform_expr(expr.operand, fn))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(transform_expr(expr.operand, fn), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(
            transform_expr(expr.operand, fn),
            transform_expr(expr.low, fn),
            transform_expr(expr.high, fn),
            expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            transform_expr(expr.operand, fn),
            tuple(transform_expr(item, fn) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(transform_expr(arg, fn) for arg in expr.args),
            expr.distinct,
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(transform_expr(expr.operand, fn), expr.target)
    if isinstance(expr, ast.Extract):
        return ast.Extract(expr.field, transform_expr(expr.operand, fn))
    if isinstance(expr, ast.CaseExpr):
        operand = transform_expr(expr.operand, fn) if expr.operand is not None else None
        whens = tuple(
            (transform_expr(when, fn), transform_expr(then, fn))
            for when, then in expr.whens
        )
        default = transform_expr(expr.default, fn) if expr.default is not None else None
        return ast.CaseExpr(operand, whens, default)
    return expr


def bind_params(expr: ast.Expr, params: Sequence[Any]) -> ast.Expr:
    """Replace ``Param`` placeholders with literal values.  BullFrog does
    this before injecting client predicates into migration SELECTs."""

    def replace(node: ast.Expr) -> ast.Expr | None:
        if isinstance(node, ast.Param):
            if node.index >= len(params):
                raise ExecutionError(
                    f"parameter ${node.index + 1} has no bound value"
                )
            return ast.Literal(params[node.index])
        return None

    return transform_expr(expr, replace)


# ----------------------------------------------------------------------
# Conjunct handling
# ----------------------------------------------------------------------


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Iterable[ast.Expr]) -> ast.Expr | None:
    """AND together a list of conjuncts (None for an empty list)."""
    result: ast.Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("AND", result, conjunct)
    return result


def has_params(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Param) for node in ast.walk(expr))


def qualify_columns(
    expr: ast.Expr, resolver: Callable[[ast.ColumnRef], ast.ColumnRef]
) -> ast.Expr:
    """Rewrite every ColumnRef through ``resolver`` (used to attach table
    qualifiers to bare column names once the FROM scope is known)."""

    def replace(node: ast.Expr) -> ast.Expr | None:
        if isinstance(node, ast.ColumnRef):
            return resolver(node)
        return None

    return transform_expr(expr, replace)


# ----------------------------------------------------------------------
# Equivalence classes from equality predicates
# ----------------------------------------------------------------------


class EquivalenceClasses:
    """Union-find over qualified column keys, built from ``a.x = b.y``
    conjuncts.  Lets the planner (and BullFrog's predicate transfer)
    re-target a single-column predicate at every equivalent column."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def _find(self, key: str) -> str:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self._find(parent)
        self._parent[key] = root
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def equivalent(self, a: str, b: str) -> bool:
        return self._find(a) == self._find(b)

    def members(self, key: str) -> set[str]:
        root = self._find(key)
        return {k for k in self._parent if self._find(k) == root}

    @staticmethod
    def from_conjuncts(conjuncts: Iterable[ast.Expr]) -> "EquivalenceClasses":
        classes = EquivalenceClasses()
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                classes.union(conjunct.left.key(), conjunct.right.key())
        return classes


def derive_equivalent_predicates(
    conjuncts: list[ast.Expr],
    classes: EquivalenceClasses,
) -> list[ast.Expr]:
    """For each single-column-vs-constant conjunct, emit copies retargeted
    at every equivalent column (PostgreSQL's equivalence-class filter
    derivation, which the paper's example relies on: the view predicate
    lands on both join inputs)."""
    derived: list[ast.Expr] = []
    seen = {_expr_fingerprint(c) for c in conjuncts}
    for conjunct in conjuncts:
        column = _single_column_of(conjunct)
        if column is None:
            continue
        for member in classes.members(column.key()):
            if member == column.key():
                continue
            table, _, name = member.rpartition(".")
            replacement = ast.ColumnRef(name, table or None)
            rewritten = qualify_columns(
                conjunct,
                lambda ref, c=column, r=replacement: r if ref == c else ref,
            )
            fingerprint = _expr_fingerprint(rewritten)
            if fingerprint not in seen:
                seen.add(fingerprint)
                derived.append(rewritten)
    return derived


def _single_column_of(expr: ast.Expr) -> ast.ColumnRef | None:
    """If ``expr`` references exactly one column (possibly several times)
    and no other columns, return it; else None."""
    columns = {
        node for node in ast.walk(expr) if isinstance(node, ast.ColumnRef)
    }
    if len(columns) == 1:
        return next(iter(columns))
    return None


def _expr_fingerprint(expr: ast.Expr) -> str:
    from ..sql.render import render_expr

    return render_expr(expr)


# ----------------------------------------------------------------------
# View expansion
# ----------------------------------------------------------------------


def expand_views(select: ast.Select, view_lookup: Callable[[str], ast.Select | None]) -> ast.Select:
    """Replace every table reference that names a view with a derived
    table over the view's (recursively expanded) definition."""

    def expand_item(item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.TableRef):
            body = view_lookup(item.name)
            if body is None:
                return item
            expanded_body = expand_views(body, view_lookup)
            return ast.SubquerySource(expanded_body, item.binding)
        if isinstance(item, ast.SubquerySource):
            return ast.SubquerySource(expand_views(item.query, view_lookup), item.alias)
        if isinstance(item, ast.Join):
            return ast.Join(
                item.kind,
                expand_item(item.left),
                expand_item(item.right),
                item.condition,
            )
        return item

    return ast.Select(
        items=select.items,
        from_items=tuple(expand_item(item) for item in select.from_items),
        where=select.where,
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
