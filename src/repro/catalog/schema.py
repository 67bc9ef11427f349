"""Table schema: an ordered set of columns plus constraints."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Sequence

from ..errors import NotNullViolation, UnknownObjectError
from .column import Column
from .constraints import Check, Constraint, ForeignKey, PrimaryKey, Unique


@dataclass(frozen=True)
class TableSchema:
    """The logical definition of a table.

    Immutable: ALTER TABLE produces a new ``TableSchema`` (the heap
    rewrites rows as needed).  Column order is significant — positional
    INSERT uses it.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: PrimaryKey | None = None
    uniques: tuple[Unique, ...] = ()
    checks: tuple[Check, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    _row_makers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise ValueError(f"duplicate column {column.name!r} in {self.name}")
            seen.add(column.name)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise UnknownObjectError(f"table {self.name} has no column {name!r}")

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise UnknownObjectError(f"table {self.name} has no column {name!r}")

    # ------------------------------------------------------------------
    # Row building (type coercion + NOT NULL); uniqueness and checks
    # are enforced by the storage/executor layers which have row context.
    # ------------------------------------------------------------------
    @cached_property
    def not_null_positions(self) -> tuple[int, ...]:
        """Positions of the NOT NULL columns, primary-key columns included."""
        pk = self.primary_key.columns if self.primary_key else ()
        return tuple(
            position for position, column in enumerate(self.columns)
            if column.not_null or column.name in pk
        )

    def check_not_null(self, row: Sequence[Any]) -> None:
        """Raise NotNullViolation for the first NOT NULL column ``row``
        holds NULL in."""
        for position in self.not_null_positions:
            if row[position] is None:
                name = self.columns[position].name
                raise NotNullViolation(
                    f"null value in column {name!r} of table "
                    f"{self.name} violates not-null constraint",
                    constraint=f"{self.name}_{name}_not_null",
                )

    def row_maker(self, columns: Sequence[str]) -> Callable[[Sequence[Any]], tuple]:
        """``build(values)`` -> the storage tuple for ``values`` in ``columns``
        order: coerced, other columns at their default or NULL, NOT NULL
        enforced.  Cached per column list on this schema (ALTER replaces it)."""
        key = tuple(columns)
        build = self._row_makers.get(key)
        if build is not None:
            return build
        targets = [
            (position, self.columns[position].type.coercer)
            for position in map(self.column_index, key)
        ]
        template = [
            column.type.coerce(column.default) if column.has_default else None
            for column in self.columns
        ]
        check = self.check_not_null if self.not_null_positions else None

        def build(values: Sequence[Any]) -> tuple:
            full = template.copy()
            for (position, coerce), value in zip(targets, values):
                full[position] = coerce(value)
            row = tuple(full)
            if check is not None:
                check(row)
            return row

        self._row_makers[key] = build
        return build

    def row_to_dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        return dict(zip(self.column_names, row))

    # ------------------------------------------------------------------
    # Schema evolution helpers (used by ALTER TABLE)
    # ------------------------------------------------------------------
    def with_column(self, column: Column) -> "TableSchema":
        if self.has_column(column.name):
            raise ValueError(f"column {column.name!r} already exists")
        return replace(self, columns=self.columns + (column,))

    def without_column(self, name: str) -> "TableSchema":
        self.column(name)  # raises if absent
        remaining = tuple(c for c in self.columns if c.name != name)
        return replace(self, columns=remaining)

    def with_renamed_column(self, old: str, new: str) -> "TableSchema":
        if self.has_column(new):
            raise ValueError(f"column {new!r} already exists")
        columns = tuple(
            replace(c, name=new) if c.name == old else c for c in self.columns
        )
        if columns == self.columns:
            raise UnknownObjectError(f"table {self.name} has no column {old!r}")
        return replace(self, columns=columns)

    def with_name(self, name: str) -> "TableSchema":
        return replace(self, name=name)

    def with_constraint(self, constraint: Constraint) -> "TableSchema":
        if isinstance(constraint, PrimaryKey):
            if self.primary_key is not None:
                raise ValueError(f"table {self.name} already has a primary key")
            return replace(self, primary_key=constraint)
        if isinstance(constraint, Unique):
            return replace(self, uniques=self.uniques + (constraint,))
        if isinstance(constraint, Check):
            return replace(self, checks=self.checks + (constraint,))
        if isinstance(constraint, ForeignKey):
            return replace(self, foreign_keys=self.foreign_keys + (constraint,))
        raise TypeError(f"unknown constraint type {type(constraint).__name__}")

    def without_constraint(self, name: str) -> "TableSchema":
        if self.primary_key is not None and self.primary_key.name == name:
            return replace(self, primary_key=None)
        uniques = tuple(u for u in self.uniques if u.name != name)
        checks = tuple(c for c in self.checks if c.name != name)
        fks = tuple(f for f in self.foreign_keys if f.name != name)
        if (uniques, checks, fks) == (self.uniques, self.checks, self.foreign_keys):
            raise UnknownObjectError(
                f"table {self.name} has no constraint {name!r}"
            )
        return replace(self, uniques=uniques, checks=checks, foreign_keys=fks)

    def unique_column_sets(self) -> list[tuple[str, ...]]:
        """All column sets with a uniqueness guarantee (PK + UNIQUEs)."""
        sets: list[tuple[str, ...]] = []
        if self.primary_key is not None:
            sets.append(self.primary_key.columns)
        sets.extend(u.columns for u in self.uniques)
        return sets
