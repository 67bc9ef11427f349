"""Tests for expression compilation/evaluation (repro.exec.expressions)."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, TypeError_, UnknownObjectError
from repro.exec.expressions import (
    _ARITH_OPS,
    _CMP_MAKERS,
    RowLayout,
    compare_values,
    compile_expr,
    evaluate_constant,
    like_match,
    predicate_satisfied,
    sql_and,
    sql_not,
    sql_or,
)
from repro.sql import ast_nodes as ast, parse_expression


def evaluate(sql: str, row=(), layout=None, params=()):
    layout = layout or RowLayout()
    return compile_expr(parse_expression(sql), layout)(row, params)


def table_layout(**columns):
    layout = RowLayout()
    for name in columns:
        layout.add("t", name)
    return layout, tuple(columns.values())


class TestArithmetic:
    def test_basic(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("10 - 4") == 6
        assert evaluate("2 * 2.5") == Decimal("5.0")

    def test_integer_division_truncates_toward_zero(self):
        assert evaluate("7 / 2") == 3
        assert evaluate("-7 / 2") == -3

    def test_float_division(self):
        assert evaluate("7.0 / 2") == Decimal("3.5")

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")

    def test_modulo(self):
        assert evaluate("7 % 3") == 1

    def test_null_propagates(self):
        assert evaluate("1 + NULL") is None
        assert evaluate("NULL * 3") is None

    def test_decimal_float_mix(self):
        assert evaluate("1.5 + 1") == Decimal("2.5")

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError_):
            evaluate("'a' + 1")

    def test_unary_minus(self):
        assert evaluate("-(3 + 4)") == -7
        assert evaluate("- NULL") is None


class TestComparisons:
    def test_numbers(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 > 4") is False
        assert evaluate("1 = 1") is True
        assert evaluate("1 <> 1") is False

    def test_cross_numeric_types(self):
        assert evaluate("1 = 1.0") is True
        assert evaluate("2.5 > 2") is True

    def test_strings(self):
        assert evaluate("'abc' < 'abd'") is True

    def test_char_padding_ignored(self):
        assert compare_values("AB  ", "AB") == 0

    def test_null_comparison_yields_null(self):
        assert evaluate("NULL = 1") is None
        assert evaluate("1 < NULL") is None

    def test_incomparable_types(self):
        with pytest.raises(TypeError_):
            compare_values(1, "a")

    def test_date_vs_datetime(self):
        assert (
            compare_values(
                datetime.date(2021, 6, 20),
                datetime.datetime(2021, 6, 20, 0, 0),
            )
            == 0
        )


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, None) is False
        assert sql_and(True, None) is None
        assert sql_and(None, None) is None

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, None) is True
        assert sql_or(False, None) is None

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(None) is None

    def test_predicate_satisfied(self):
        assert predicate_satisfied(True)
        assert not predicate_satisfied(False)
        assert not predicate_satisfied(None)

    def test_integration(self):
        assert evaluate("NULL AND FALSE") is False
        assert evaluate("NULL OR TRUE") is True
        assert evaluate("NOT NULL") is None


class TestBetweenInLike:
    def test_between(self):
        assert evaluate("5 BETWEEN 1 AND 10") is True
        assert evaluate("0 BETWEEN 1 AND 10") is False
        assert evaluate("5 NOT BETWEEN 1 AND 10") is False

    def test_between_null(self):
        assert evaluate("NULL BETWEEN 1 AND 2") is None

    def test_in(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, 2, 3)") is False
        assert evaluate("9 NOT IN (1, 2)") is True

    def test_in_with_null_semantics(self):
        assert evaluate("1 IN (1, NULL)") is True
        assert evaluate("9 IN (1, NULL)") is None  # unknown, not false
        assert evaluate("NULL IN (1, 2)") is None

    def test_like(self):
        assert evaluate("'hello' LIKE 'h%'") is True
        assert evaluate("'hello' LIKE '_ello'") is True
        assert evaluate("'hello' LIKE 'H%'") is False
        assert evaluate("'hello' NOT LIKE 'x%'") is True

    def test_like_special_chars_escaped(self):
        assert like_match("a.b", "a.b") is True
        assert like_match("axb", "a.b") is False  # '.' is literal

    def test_like_null(self):
        assert like_match(None, "a%") is None


class TestCaseCastExtract:
    def test_searched_case(self):
        assert evaluate("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END") == "b"

    def test_simple_case(self):
        assert evaluate("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END") == "two"

    def test_case_default(self):
        assert evaluate("CASE WHEN FALSE THEN 1 ELSE 99 END") == 99

    def test_case_no_match_no_default(self):
        assert evaluate("CASE WHEN FALSE THEN 1 END") is None

    def test_cast(self):
        assert evaluate("CAST('42' AS INT)") == 42
        assert evaluate("CAST(1 AS BOOL)") is True

    def test_extract_fields(self):
        layout, row = table_layout(d=datetime.datetime(2021, 6, 20, 14, 30, 45))
        assert evaluate("EXTRACT(YEAR FROM t.d)", row, layout) == 2021
        assert evaluate("EXTRACT(MONTH FROM t.d)", row, layout) == 6
        assert evaluate("EXTRACT(DAY FROM t.d)", row, layout) == 20
        assert evaluate("EXTRACT(HOUR FROM t.d)", row, layout) == 14
        assert evaluate("EXTRACT(MINUTE FROM t.d)", row, layout) == 30

    def test_extract_null(self):
        layout, row = table_layout(d=None)
        assert evaluate("EXTRACT(DAY FROM t.d)", row, layout) is None

    def test_extract_requires_temporal(self):
        layout, row = table_layout(d=5)
        with pytest.raises(TypeError_):
            evaluate("EXTRACT(DAY FROM t.d)", row, layout)


class TestScalarFunctions:
    def test_strings(self):
        assert evaluate("LOWER('ABC')") == "abc"
        assert evaluate("UPPER('abc')") == "ABC"
        assert evaluate("LENGTH('hello')") == 5
        assert evaluate("SUBSTR('hello', 2, 3)") == "ell"
        assert evaluate("TRIM('  x  ')") == "x"

    def test_concat_operator(self):
        assert evaluate("'a' || 'b'") == "ab"
        assert evaluate("'n=' || 5") == "n=5"
        assert evaluate("'a' || NULL") is None

    def test_abs_round(self):
        assert evaluate("ABS(-4)") == 4
        assert evaluate("ROUND(2.5)") == 2  # banker's rounding (Python)

    def test_coalesce(self):
        assert evaluate("COALESCE(NULL, NULL, 3)") == 3
        assert evaluate("COALESCE(NULL, NULL)") is None

    def test_nullif(self):
        assert evaluate("NULLIF(1, 1)") is None
        assert evaluate("NULLIF(1, 2)") == 1

    def test_null_passthrough(self):
        assert evaluate("LOWER(NULL)") is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate("FROBNICATE(1)")


class TestColumnResolution:
    def test_qualified_and_bare(self):
        layout, row = table_layout(a=1, b=2)
        assert evaluate("t.a + b", row, layout) == 3

    def test_unknown_column(self):
        layout, row = table_layout(a=1)
        with pytest.raises(UnknownObjectError):
            evaluate("nope", row, layout)

    def test_ambiguous_bare_name(self):
        layout = RowLayout()
        layout.add("x", "id")
        layout.add("y", "id")
        with pytest.raises(ExecutionError):
            compile_expr(parse_expression("id"), layout)

    def test_ambiguous_resolvable_when_qualified(self):
        layout = RowLayout()
        layout.add("x", "id")
        layout.add("y", "id")
        fn = compile_expr(parse_expression("y.id"), layout)
        assert fn((10, 20), ()) == 20

    def test_layout_extend(self):
        a = RowLayout.for_table("a", ["x"])
        b = RowLayout.for_table("b", ["y"])
        merged = a.extend(b)
        fn = compile_expr(parse_expression("a.x + b.y"), merged)
        assert fn((1, 2), ()) == 3


class TestParams:
    def test_param_binding(self):
        assert evaluate("? + ?", params=[1, 2]) == 3

    def test_missing_param(self):
        with pytest.raises(ExecutionError):
            evaluate("?", params=[])


class TestEvaluateConstant:
    def test_constant(self):
        assert evaluate_constant(parse_expression("6 * 7")) == 42

    def test_column_reference_fails(self):
        with pytest.raises(UnknownObjectError):
            evaluate_constant(parse_expression("x"))


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@given(_numbers, _numbers)
def test_compare_values_antisymmetric(a, b):
    ab = compare_values(a, b)
    ba = compare_values(b, a)
    assert ab == -ba


@given(_numbers, _numbers, _numbers)
def test_compare_values_transitive(a, b, c):
    values = sorted([a, b, c], key=float)
    assert compare_values(values[0], values[2]) <= 0


@given(st.text(max_size=10), st.text(max_size=10))
def test_string_compare_consistent_with_python(a, b):
    cmp = compare_values(a, b)
    stripped_a, stripped_b = a.rstrip(" "), b.rstrip(" ")
    if stripped_a == stripped_b:
        assert cmp == 0
    elif stripped_a < stripped_b:
        assert cmp == -1
    else:
        assert cmp == 1


@given(st.booleans() | st.none(), st.booleans() | st.none())
def test_de_morgan(a, b):
    assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))


@given(st.text(alphabet="ab%_", max_size=6), st.text(alphabet="ab", max_size=6))
def test_like_prefix_pattern(pattern, text):
    """LIKE with a trailing % matches any extension of a literal prefix."""
    literal_prefix = pattern.split("%")[0].split("_")[0]
    if pattern == literal_prefix + "%":
        assert like_match(text, pattern) == text.startswith(literal_prefix)


# ----------------------------------------------------------------------
# Same-type fast paths vs the generic reference
# ----------------------------------------------------------------------
_OPERAND_KINDS = [
    st.none(),
    st.booleans(),
    st.integers(),
    # NaN is where a bare ``operator`` call would disagree with the
    # reference, so it is drawn often, not left to chance.
    st.floats() | st.sampled_from([float("nan"), float("inf"), -0.0]),
    st.decimals() | st.sampled_from([Decimal("NaN"), Decimal("sNaN"), Decimal("-0")]),
    st.text(alphabet="ab ", max_size=3),  # trailing spaces: CHAR padding
    st.dates(),
    st.datetimes(),
]
# Half the pairs share a kind (the fast paths), half are drawn freely.
_OPERAND_PAIRS = st.one_of(
    st.sampled_from(_OPERAND_KINDS).flatmap(lambda kind: st.tuples(kind, kind)),
    st.tuples(st.one_of(_OPERAND_KINDS), st.one_of(_OPERAND_KINDS)),
)


def _outcome(fn, *args):
    """Value, its type and its repr (NaN- and -0.0-exact), or the
    exception class raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return type(value), repr(value)


def _generic(op, left, right):
    if op in _CMP_MAKERS:
        cmp = compare_values(left, right)
        return None if cmp is None else _CMP_MAKERS[op](cmp)
    return _ARITH_OPS[op](left, right)


@settings(max_examples=500)
@given(
    op=st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]),
    pair=_OPERAND_PAIRS,
)
def test_compiled_operators_match_generic_reference(op, pair):
    """Compiled comparisons and arithmetic take same-type shortcuts for
    int / float / Decimal; for every operand pair they must agree with
    ``compare_values`` / ``_ARITH_OPS`` in value, type and exception."""
    compiled = compile_expr(ast.BinaryOp(op, ast.Param(0), ast.Param(1)), RowLayout())
    assert _outcome(compiled, (), pair) == _outcome(_generic, op, *pair)
