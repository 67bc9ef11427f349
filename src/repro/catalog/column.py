"""Column metadata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..types import SqlType


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    ``default`` is a pre-evaluated Python value (the engine evaluates
    DEFAULT expressions at DDL time, since the supported subset only
    allows constant defaults).
    """

    name: str
    type: SqlType
    not_null: bool = False
    default: Any = None
    has_default: bool = False
