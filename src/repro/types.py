"""SQL type system: declared column types and runtime value coercion.

The engine stores values as plain Python objects (``int``, ``float``,
``decimal.Decimal``, ``str``, ``bool``, ``datetime.date``,
``datetime.datetime`` and ``None`` for SQL NULL).  A :class:`SqlType`
describes a declared column type and knows how to validate/coerce a
Python value into that type, mirroring what a storage layer does on
ingest.

Comparison and arithmetic live in ``repro.exec.expressions``; this module
is only about *declared* types.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any

from .errors import TypeError_


class TypeKind(Enum):
    """Enumeration of the base SQL types the engine supports."""

    INT = "INT"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    DECIMAL = "DECIMAL"
    CHAR = "CHAR"
    VARCHAR = "VARCHAR"
    TEXT = "TEXT"
    BOOL = "BOOL"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"


_NUMERIC_KINDS = {TypeKind.INT, TypeKind.BIGINT, TypeKind.FLOAT, TypeKind.DECIMAL}
_STRING_KINDS = {TypeKind.CHAR, TypeKind.VARCHAR, TypeKind.TEXT}
_TEMPORAL_KINDS = {TypeKind.DATE, TypeKind.TIMESTAMP}

_INT_MIN, _INT_MAX = -(2**31), 2**31 - 1
_BIGINT_MIN, _BIGINT_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class SqlType:
    """A declared SQL type, e.g. ``CHAR(6)`` or ``DECIMAL(12, 2)``.

    ``length`` applies to CHAR/VARCHAR; ``precision``/``scale`` apply to
    DECIMAL.  Instances are immutable and hashable so they can live in
    frozen schema objects.
    """

    kind: TypeKind
    length: int | None = None
    precision: int | None = None
    scale: int | None = None

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        return self.kind in _NUMERIC_KINDS

    @property
    def is_string(self) -> bool:
        return self.kind in _STRING_KINDS

    @property
    def is_temporal(self) -> bool:
        return self.kind in _TEMPORAL_KINDS

    # ------------------------------------------------------------------
    # Coercion
    # ------------------------------------------------------------------
    def coerce(self, value: Any) -> Any:
        """Validate/convert ``value`` for storage in a column of this type.

        ``None`` (SQL NULL) passes through unchanged — NOT NULL
        enforcement is a constraint, not a type property.  Raises
        :class:`repro.errors.TypeError_` when the value cannot be
        represented.
        """
        if value is None:
            return None
        coercer = _COERCERS[self.kind]
        return coercer(self, value)

    def render(self) -> str:
        """Render this type back to SQL text."""
        if self.kind is TypeKind.CHAR or self.kind is TypeKind.VARCHAR:
            if self.length is not None:
                return f"{self.kind.value}({self.length})"
            return self.kind.value
        if self.kind is TypeKind.DECIMAL:
            if self.precision is not None and self.scale is not None:
                return f"DECIMAL({self.precision}, {self.scale})"
            if self.precision is not None:
                return f"DECIMAL({self.precision})"
            return "DECIMAL"
        return self.kind.value

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# ----------------------------------------------------------------------
# Per-kind coercers
# ----------------------------------------------------------------------

def _coerce_int(sql_type: SqlType, value: Any, lo: int, hi: int) -> int:
    if isinstance(value, bool):
        raise TypeError_(f"cannot store BOOL value {value!r} in {sql_type}")
    if isinstance(value, int):
        result = value
    elif isinstance(value, float) and value.is_integer():
        result = int(value)
    elif isinstance(value, Decimal) and value == value.to_integral_value():
        result = int(value)
    elif isinstance(value, str):
        try:
            result = int(value.strip())
        except ValueError as exc:
            raise TypeError_(f"invalid integer literal {value!r}") from exc
    else:
        raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")
    if not lo <= result <= hi:
        raise TypeError_(f"value {result} out of range for {sql_type}")
    return result


def _coerce_float(sql_type: SqlType, value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError_(f"cannot store BOOL value {value!r} in {sql_type}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, Decimal):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError as exc:
            raise TypeError_(f"invalid float literal {value!r}") from exc
    raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")


def _coerce_decimal(sql_type: SqlType, value: Any) -> Decimal:
    if isinstance(value, bool):
        raise TypeError_(f"cannot store BOOL value {value!r} in {sql_type}")
    if isinstance(value, Decimal):
        result = value
    elif isinstance(value, int):
        result = Decimal(value)
    elif isinstance(value, float):
        result = Decimal(str(value))
    elif isinstance(value, str):
        try:
            result = Decimal(value.strip())
        except InvalidOperation as exc:
            raise TypeError_(f"invalid decimal literal {value!r}") from exc
    else:
        raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")
    if sql_type.scale is not None:
        quantum = Decimal(1).scaleb(-sql_type.scale)
        result = result.quantize(quantum)
    if sql_type.precision is not None:
        digits = result.as_tuple()
        integral_digits = len(digits.digits) + digits.exponent
        max_integral = sql_type.precision - (sql_type.scale or 0)
        if integral_digits > max_integral:
            raise TypeError_(
                f"value {result} exceeds precision of {sql_type}"
            )
    return result


def _coerce_char(sql_type: SqlType, value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")
    # CHAR(n) semantics: trailing pad spaces are insignificant (bpchar
    # comparison ignores them).  We normalize by stripping them at
    # ingest rather than padding, so hash/index keys built from stored
    # values and from unpadded literals agree.
    normalized = value.rstrip(" ")
    if sql_type.length is not None and len(normalized) > sql_type.length:
        raise TypeError_(
            f"string of length {len(normalized)} too long for {sql_type}"
        )
    return normalized


def _coerce_varchar(sql_type: SqlType, value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")
    if sql_type.length is not None and len(value) > sql_type.length:
        raise TypeError_(
            f"string of length {len(value)} too long for {sql_type}"
        )
    return value


def _coerce_text(sql_type: SqlType, value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")
    return value


def _coerce_bool(sql_type: SqlType, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("t", "true", "1", "yes", "on"):
            return True
        if lowered in ("f", "false", "0", "no", "off"):
            return False
    raise TypeError_(f"cannot store {value!r} in {sql_type}")


def _coerce_date(sql_type: SqlType, value: Any) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        try:
            return datetime.date.fromisoformat(value.strip())
        except ValueError as exc:
            raise TypeError_(f"invalid date literal {value!r}") from exc
    raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")


def _coerce_timestamp(sql_type: SqlType, value: Any) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.date):
        return datetime.datetime.combine(value, datetime.time.min)
    if isinstance(value, str):
        try:
            return datetime.datetime.fromisoformat(value.strip())
        except ValueError as exc:
            raise TypeError_(f"invalid timestamp literal {value!r}") from exc
    raise TypeError_(f"cannot store {type(value).__name__} in {sql_type}")


_COERCERS = {
    TypeKind.INT: lambda t, v: _coerce_int(t, v, _INT_MIN, _INT_MAX),
    TypeKind.BIGINT: lambda t, v: _coerce_int(t, v, _BIGINT_MIN, _BIGINT_MAX),
    TypeKind.FLOAT: _coerce_float,
    TypeKind.DECIMAL: _coerce_decimal,
    TypeKind.CHAR: _coerce_char,
    TypeKind.VARCHAR: _coerce_varchar,
    TypeKind.TEXT: _coerce_text,
    TypeKind.BOOL: _coerce_bool,
    TypeKind.DATE: _coerce_date,
    TypeKind.TIMESTAMP: _coerce_timestamp,
}

# The Python type each kind's coercer returns (NULL aside): what a
# stored value, and so an index key part, of that kind always is.
STORED_TYPES: dict[TypeKind, type] = {
    TypeKind.INT: int, TypeKind.BIGINT: int, TypeKind.FLOAT: float,
    TypeKind.DECIMAL: Decimal, TypeKind.BOOL: bool,
    TypeKind.CHAR: str, TypeKind.VARCHAR: str, TypeKind.TEXT: str,
    TypeKind.DATE: datetime.date, TypeKind.TIMESTAMP: datetime.datetime,
}


# ----------------------------------------------------------------------
# Convenience constructors (public API)
# ----------------------------------------------------------------------

def int_type() -> SqlType:
    return SqlType(TypeKind.INT)


def bigint_type() -> SqlType:
    return SqlType(TypeKind.BIGINT)


def float_type() -> SqlType:
    return SqlType(TypeKind.FLOAT)


def decimal_type(precision: int | None = None, scale: int | None = None) -> SqlType:
    return SqlType(TypeKind.DECIMAL, precision=precision, scale=scale)


def char_type(length: int) -> SqlType:
    return SqlType(TypeKind.CHAR, length=length)


def varchar_type(length: int | None = None) -> SqlType:
    return SqlType(TypeKind.VARCHAR, length=length)


def text_type() -> SqlType:
    return SqlType(TypeKind.TEXT)


def bool_type() -> SqlType:
    return SqlType(TypeKind.BOOL)


def date_type() -> SqlType:
    return SqlType(TypeKind.DATE)


def timestamp_type() -> SqlType:
    return SqlType(TypeKind.TIMESTAMP)


def parse_type(name: str, args: tuple[int, ...] = ()) -> SqlType:
    """Build a :class:`SqlType` from a type name and optional arguments.

    Used by the SQL parser: ``parse_type("CHAR", (6,))`` -> ``CHAR(6)``.
    Recognizes common aliases (INTEGER, NUMERIC, DOUBLE PRECISION...).
    """
    upper = name.upper()
    alias = {
        "INTEGER": "INT",
        "INT4": "INT",
        "SMALLINT": "INT",
        "INT8": "BIGINT",
        "NUMERIC": "DECIMAL",
        "REAL": "FLOAT",
        "DOUBLE": "FLOAT",
        "DOUBLE PRECISION": "FLOAT",
        "BOOLEAN": "BOOL",
        "CHARACTER": "CHAR",
        "STRING": "TEXT",
    }.get(upper, upper)
    try:
        kind = TypeKind(alias)
    except ValueError as exc:
        raise TypeError_(f"unknown SQL type {name!r}") from exc
    if kind in (TypeKind.CHAR, TypeKind.VARCHAR):
        length = args[0] if args else None
        return SqlType(kind, length=length)
    if kind is TypeKind.DECIMAL:
        precision = args[0] if args else None
        scale = args[1] if len(args) > 1 else (0 if args else None)
        return SqlType(kind, precision=precision, scale=scale)
    if args:
        raise TypeError_(f"type {name} does not accept arguments")
    return SqlType(kind)
