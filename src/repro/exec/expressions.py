"""Expression compilation and evaluation.

Expressions are compiled once per plan into Python closures over
``(row, params)`` where ``row`` is a flat value tuple and ``params`` the
positional statement parameters.  Compilation resolves column references
against a :class:`RowLayout` so per-row evaluation does no name lookups
— this matters for TPC-C throughput in the benchmark harness.

SQL three-valued logic: comparisons and boolean operators propagate
NULL (represented as ``None``); WHERE treats NULL as not-satisfied.
"""

from __future__ import annotations

import datetime
import operator
import re
from decimal import Decimal
from typing import Any, Callable, Sequence

from ..errors import ExecutionError, TypeError_, UnknownObjectError
from ..sql import ast_nodes as ast

Row = tuple[Any, ...]
CompiledExpr = Callable[[Row, Sequence[Any]], Any]


class RowLayout:
    """Maps column names to positions in a row tuple.

    Each column is addressable by its qualified key (``binding.column``)
    and, when unambiguous, by its bare name.  Ambiguous bare names are
    recorded and raise only if actually referenced.
    """

    def __init__(self) -> None:
        self._positions: dict[str, int] = {}
        self._ambiguous: set[str] = set()
        self.columns: list[tuple[str | None, str]] = []  # (binding, name)

    @staticmethod
    def for_table(binding: str, column_names: Sequence[str]) -> "RowLayout":
        layout = RowLayout()
        for name in column_names:
            layout.add(binding, name)
        return layout

    def add(self, binding: str | None, name: str) -> int:
        """Append a column; returns its position."""
        position = len(self.columns)
        self.columns.append((binding, name))
        if binding is not None:
            qualified = f"{binding}.{name}"
            self._positions[qualified] = position
        if name in self._positions or name in self._ambiguous:
            self._ambiguous.add(name)
            self._positions.pop(name, None)
        else:
            self._positions[name] = position
        return position

    def extend(self, other: "RowLayout") -> "RowLayout":
        """New layout = self's columns followed by other's."""
        merged = RowLayout()
        for binding, name in self.columns:
            merged.add(binding, name)
        for binding, name in other.columns:
            merged.add(binding, name)
        return merged

    def __len__(self) -> int:
        return len(self.columns)

    def position(self, ref: ast.ColumnRef) -> int:
        key = ref.key()
        position = self._positions.get(key)
        if position is not None:
            return position
        if ref.table is None and ref.name in self._ambiguous:
            raise ExecutionError(f"column reference {ref.name!r} is ambiguous")
        raise UnknownObjectError(f"column {key!r} does not exist")

    def try_position(self, ref: ast.ColumnRef) -> int | None:
        try:
            return self.position(ref)
        except (UnknownObjectError, ExecutionError):
            return None

    def has(self, ref: ast.ColumnRef) -> bool:
        return self.try_position(ref) is not None

    def bindings(self) -> set[str]:
        return {binding for binding, _name in self.columns if binding is not None}


# ----------------------------------------------------------------------
# Value helpers (3-valued logic + numeric coexistence)
# ----------------------------------------------------------------------

def _numeric_pair(left: Any, right: Any) -> tuple[Any, Any]:
    """Make int/float/Decimal mutually comparable/arithmetic-compatible."""
    if isinstance(left, Decimal) and isinstance(right, float):
        return left, Decimal(str(right))
    if isinstance(left, float) and isinstance(right, Decimal):
        return Decimal(str(left)), right
    return left, right


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, Decimal)) and not isinstance(value, bool)


def compare_values(left: Any, right: Any) -> int | None:
    """SQL comparison: returns -1/0/1, or None if either side is NULL."""
    if left is None or right is None:
        return None
    if _is_number(left) and _is_number(right):
        left, right = _numeric_pair(left, right)
    elif isinstance(left, str) and isinstance(right, str):
        # CHAR comparison ignores trailing pad spaces (SQL semantics).
        left = left.rstrip(" ")
        right = right.rstrip(" ")
    elif isinstance(left, datetime.datetime) and isinstance(right, datetime.date) and not isinstance(right, datetime.datetime):
        right = datetime.datetime.combine(right, datetime.time.min)
    elif isinstance(right, datetime.datetime) and isinstance(left, datetime.date) and not isinstance(left, datetime.datetime):
        left = datetime.datetime.combine(left, datetime.time.min)
    try:
        if left == right:
            return 0
        return -1 if left < right else 1
    except TypeError as exc:
        raise TypeError_(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from exc


def sql_and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Any) -> Any:
    if value is None:
        return None
    return not value


def _arith(op_name: str, op_fn) -> Callable[[Any, Any], Any]:
    def apply(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if not (_is_number(left) and _is_number(right)):
            raise TypeError_(
                f"operator {op_name} requires numeric operands, got "
                f"{type(left).__name__} and {type(right).__name__}"
            )
        left, right = _numeric_pair(left, right)
        try:
            return op_fn(left, right)
        except ZeroDivisionError as exc:
            raise ExecutionError("division by zero") from exc

    return apply


def _sql_div(left: Any, right: Any) -> Any:
    if isinstance(left, int) and isinstance(right, int):
        # SQL integer division truncates toward zero.
        if right == 0:
            raise ZeroDivisionError
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _arith("+", operator.add),
    "-": _arith("-", operator.sub),
    "*": _arith("*", operator.mul),
    "/": _arith("/", _sql_div),
    "%": _arith("%", operator.mod),
}

_CMP_MAKERS: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

# Same-type fast paths for compiled operators.  A pair whose operands
# share one of these exact types (``bool`` is its own type, so it never
# qualifies) skips the generic dispatch; every other pair — NULL,
# strings with CHAR padding, mixed numerics, dates — goes through
# ``compare_values`` / ``_ARITH_OPS``, which stay the reference.
_NUMERIC_TYPES = frozenset({int, float, Decimal})

_FAST_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_INT_CMP: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _same_type_cmp(op: str) -> dict[type, Callable[[Any, Any], bool]]:
    """Comparison ``op`` per operand type, computing exactly what
    ``compare_values`` + the predicate would.  Only ``int`` maps to the
    bare ``operator`` function: for ``float`` and ``Decimal`` NaN makes
    the two differ (``compare_values`` ranks NaN above everything, and
    Decimal NaN raises on ``<``), so they keep its ``==``-then-``<``
    order without its type dispatch."""
    predicate = _CMP_MAKERS[op]

    def ordered(left: Any, right: Any) -> bool:
        return predicate(0 if left == right else -1 if left < right else 1)

    return {int: _INT_CMP[op], float: ordered, Decimal: ordered}


def like_match(value: Any, pattern: Any) -> Any:
    """SQL LIKE with ``%`` and ``_`` wildcards; NULL-propagating."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeError_("LIKE requires string operands")
    regex = _like_regex(pattern)
    return bool(regex.match(value))


_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def _like_regex(pattern: str) -> re.Pattern[str]:
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    compiled = re.compile("".join(parts) + r"\Z", re.DOTALL)
    if len(_LIKE_CACHE) < 1024:
        _LIKE_CACHE[pattern] = compiled
    return compiled


def extract_field(field: str, value: Any) -> Any:
    """EXTRACT(field FROM date/timestamp)."""
    if value is None:
        return None
    if not isinstance(value, (datetime.date, datetime.datetime)):
        raise TypeError_(f"EXTRACT requires a date/timestamp, got {type(value).__name__}")
    if field == "YEAR":
        return value.year
    if field == "MONTH":
        return value.month
    if field == "DAY":
        return value.day
    if isinstance(value, datetime.datetime):
        if field == "HOUR":
            return value.hour
        if field == "MINUTE":
            return value.minute
        if field == "SECOND":
            return value.second
    if field == "DOW":
        # PostgreSQL: Sunday=0 .. Saturday=6
        return (value.weekday() + 1) % 7
    raise ExecutionError(f"unsupported EXTRACT field {field}")


# ----------------------------------------------------------------------
# Scalar function registry
# ----------------------------------------------------------------------

def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _null_passthrough(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapped


def _fn_substr(value: str, start: int, length: int | None = None) -> str:
    # SQL SUBSTR is 1-based.
    begin = max(start - 1, 0)
    if length is None:
        return value[begin:]
    return value[begin : begin + length]


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "ABS": _null_passthrough(abs),
    "LOWER": _null_passthrough(str.lower),
    "UPPER": _null_passthrough(str.upper),
    "LENGTH": _null_passthrough(len),
    "TRIM": _null_passthrough(str.strip),
    "RTRIM": _null_passthrough(str.rstrip),
    "LTRIM": _null_passthrough(str.lstrip),
    "SUBSTR": _null_passthrough(_fn_substr),
    "SUBSTRING": _null_passthrough(_fn_substr),
    "ROUND": _null_passthrough(round),
    "FLOOR": _null_passthrough(lambda v: int(v) if v >= 0 or v == int(v) else int(v) - 1),
    "CEIL": _null_passthrough(lambda v: int(v) if v <= 0 or v == int(v) else int(v) + 1),
    "MOD": _null_passthrough(lambda a, b: a % b),
    "COALESCE": _fn_coalesce,
    "NULLIF": lambda a, b: None if compare_values(a, b) == 0 else a,
    "DATE_PART": lambda field, value: extract_field(str(field).upper(), value),
}


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def compile_expr(expr: ast.Expr, layout: RowLayout) -> CompiledExpr:
    """Compile ``expr`` into a closure ``fn(row, params) -> value``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.ColumnRef):
        position = layout.position(expr)
        return lambda row, params: row[position]
    if isinstance(expr, ast.Param):
        index = expr.index
        def eval_param(row: Row, params: Sequence[Any]) -> Any:
            if index >= len(params):
                raise ExecutionError(
                    f"statement requires at least {index + 1} parameter(s), "
                    f"got {len(params)}"
                )
            return params[index]
        return eval_param
    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout)
    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, layout)
        if expr.op == "NOT":
            return lambda row, params: sql_not(inner(row, params))
        if expr.op == "-":
            def negate(row: Row, params: Sequence[Any]) -> Any:
                value = inner(row, params)
                if value is None:
                    return None
                if not _is_number(value):
                    raise TypeError_("unary minus requires a numeric operand")
                return -value
            return negate
        raise ExecutionError(f"unsupported unary operator {expr.op}")
    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.operand, layout)
        if expr.negated:
            return lambda row, params: inner(row, params) is not None
        return lambda row, params: inner(row, params) is None
    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, layout)
        low = compile_expr(expr.low, layout)
        high = compile_expr(expr.high, layout)
        negated = expr.negated
        def eval_between(row: Row, params: Sequence[Any]) -> Any:
            value = operand(row, params)
            c_low = compare_values(value, low(row, params))
            c_high = compare_values(value, high(row, params))
            if c_low is None or c_high is None:
                return None
            result = c_low >= 0 and c_high <= 0
            return not result if negated else result
        return eval_between
    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, layout)
        items = [compile_expr(item, layout) for item in expr.items]
        negated = expr.negated
        def eval_in_clear(row: Row, params: Sequence[Any]) -> Any:
            value = operand(row, params)
            if value is None:
                return None
            saw_null = False
            for item in items:
                cmp = compare_values(value, item(row, params))
                if cmp is None:
                    saw_null = True
                elif cmp == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False
        return eval_in_clear
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, layout)
    if isinstance(expr, ast.Cast):
        inner = compile_expr(expr.operand, layout)
        target = expr.target
        return lambda row, params: target.coerce(inner(row, params))
    if isinstance(expr, ast.Extract):
        inner = compile_expr(expr.operand, layout)
        field = expr.field
        return lambda row, params: extract_field(field, inner(row, params))
    if isinstance(expr, ast.CaseExpr):
        return _compile_case(expr, layout)
    raise ExecutionError(f"cannot compile expression {type(expr).__name__}")


def _compile_binary(expr: ast.BinaryOp, layout: RowLayout) -> CompiledExpr:
    left = compile_expr(expr.left, layout)
    right = compile_expr(expr.right, layout)
    op = expr.op
    if op == "AND":
        return lambda row, params: sql_and(left(row, params), right(row, params))
    if op == "OR":
        return lambda row, params: sql_or(left(row, params), right(row, params))
    if op in _CMP_MAKERS:
        predicate = _CMP_MAKERS[op]
        fast_by_type = _same_type_cmp(op)
        def eval_cmp(row: Row, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if type(lhs) is type(rhs):
                fast = fast_by_type.get(type(lhs))
                if fast is not None:
                    return fast(lhs, rhs)
            cmp = compare_values(lhs, rhs)
            if cmp is None:
                return None
            return predicate(cmp)
        return eval_cmp
    if op in _ARITH_OPS:
        apply = _ARITH_OPS[op]
        fast_arith = _FAST_ARITH.get(op)
        if fast_arith is None:
            return lambda row, params: apply(left(row, params), right(row, params))
        def eval_arith(row: Row, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if type(lhs) is type(rhs) and type(lhs) in _NUMERIC_TYPES:
                return fast_arith(lhs, rhs)
            return apply(lhs, rhs)
        return eval_arith
    if op == "||":
        def eval_concat(row: Row, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            return str(lhs) + str(rhs)
        return eval_concat
    if op == "LIKE":
        return lambda row, params: like_match(left(row, params), right(row, params))
    raise ExecutionError(f"unsupported operator {op}")


def _compile_function(expr: ast.FunctionCall, layout: RowLayout) -> CompiledExpr:
    name = expr.name.upper()
    if ast.is_aggregate_call(expr):
        raise ExecutionError(
            f"aggregate {name} is not allowed here (only in a select list "
            "or HAVING of a grouped query)"
        )
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None:
        raise ExecutionError(f"unknown function {name}")
    args = [compile_expr(arg, layout) for arg in expr.args]
    return lambda row, params: fn(*(arg(row, params) for arg in args))


def _compile_case(expr: ast.CaseExpr, layout: RowLayout) -> CompiledExpr:
    operand = compile_expr(expr.operand, layout) if expr.operand is not None else None
    whens = [
        (compile_expr(when, layout), compile_expr(then, layout))
        for when, then in expr.whens
    ]
    default = compile_expr(expr.default, layout) if expr.default is not None else None

    def eval_case(row: Row, params: Sequence[Any]) -> Any:
        if operand is not None:
            subject = operand(row, params)
            for when, then in whens:
                if compare_values(subject, when(row, params)) == 0:
                    return then(row, params)
        else:
            for when, then in whens:
                if when(row, params) is True:
                    return then(row, params)
        return default(row, params) if default is not None else None

    return eval_case


def compile_projection(
    exprs: Sequence[ast.Expr], layout: RowLayout
) -> Callable[[Row, Sequence[Any]], Row]:
    """Compile a list of expressions into one closure ``fn(row, params)
    -> tuple`` built for its item count: a list of plain columns is an
    ``itemgetter``, a short list a fixed tuple display, so no row pays
    for a ``tuple(genexpr)``.  Used for select lists, index keys, hash
    join keys and group keys alike."""
    if all(isinstance(expr, ast.ColumnRef) for expr in exprs):
        positions = [layout.position(expr) for expr in exprs]
        if not positions:
            return lambda row, params: ()
        if len(positions) == 1:
            (position,) = positions
            return lambda row, params: (row[position],)
        getter = operator.itemgetter(*positions)
        return lambda row, params: getter(row)
    fns = [compile_expr(expr, layout) for expr in exprs]
    if len(fns) == 1:
        (f0,) = fns
        return lambda row, params: (f0(row, params),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda row, params: (f0(row, params), f1(row, params))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda row, params: (
            f0(row, params), f1(row, params), f2(row, params)
        )
    return lambda row, params: tuple([fn(row, params) for fn in fns])


def evaluate_constant(expr: ast.Expr, params: Sequence[Any] = ()) -> Any:
    """Evaluate an expression with no column references (DEFAULTs, LIMIT)."""
    compiled = compile_expr(expr, RowLayout())
    return compiled((), params)


def predicate_satisfied(value: Any) -> bool:
    """WHERE semantics: TRUE passes, FALSE and NULL do not."""
    return value is True
