"""Migration classification (paper section 3.1).

Each migration statement is classified by how input tuples map to
output tuples, which dictates the tracking structure:

* **1:1** — single input table, no GROUP BY, single output; or the
  foreign-key side of an FK-PK join (section 3.6, option 2).  Bitmap.
* **1:n** — a table *split*: several outputs fed by the same single
  input (each input tuple produces a row in every output).  Bitmap; the
  migrate bit is only set once all dependent output rows exist.
* **n:1** — GROUP BY aggregation: a group of input tuples produces one
  output tuple.  Hashmap keyed by the group-by columns.
* **n:n** — a many-to-many join: hashmap keyed by the join value (both
  sides of a join value migrate together), or by (tuple, tuple) pairs
  (section 3.6, option 3) — we implement the join-value keying, which
  is what the paper's TPC-C join migration exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import UnsupportedMigrationError
from ..sql import ast_nodes as ast
from ..exec.rewrite import conjoin, qualify_columns, split_conjuncts
from ..exec.expressions import RowLayout


class MigrationCategory(Enum):
    ONE_TO_ONE = "1:1"
    ONE_TO_N = "1:n"
    N_TO_ONE = "n:1"
    N_TO_N = "n:n"

    @property
    def uses_bitmap(self) -> bool:
        return self in (MigrationCategory.ONE_TO_ONE, MigrationCategory.ONE_TO_N)


@dataclass
class OutputSpec:
    """One output table of a migration unit."""

    table: str
    column_names: tuple[str, ...]
    items: tuple[ast.Expr, ...]  # projection exprs over old-schema bindings
    select: ast.Select  # full qualified SELECT producing this output


@dataclass
class AuxJoin:
    """The looked-up side of an FK-PK join for a bitmap unit: for each
    anchor tuple, fetch the matching aux tuple(s) by equality on
    ``pairs`` = [(anchor_column, aux_column), ...]."""

    table: str
    binding: str
    pairs: tuple[tuple[str, str], ...]


@dataclass
class JoinKeySpec:
    """Keying for an n:n join unit: equality columns on each side."""

    anchor_columns: tuple[str, ...]
    other_table: str
    other_binding: str
    other_columns: tuple[str, ...]


@dataclass
class UnitPlan:
    """A classified migration unit: one tracked input table feeding one
    or more outputs."""

    unit_id: str
    category: MigrationCategory
    anchor: str  # the input table whose granules/groups are tracked
    anchor_binding: str
    outputs: list[OutputSpec]
    aux: AuxJoin | None = None  # bitmap FK-PK join units
    group_columns: tuple[str, ...] = ()  # hashmap n:1 units
    join_key: JoinKeySpec | None = None  # hashmap n:n units

    @property
    def input_tables(self) -> tuple[str, ...]:
        tables = [self.anchor]
        if self.aux is not None:
            tables.append(self.aux.table)
        if self.join_key is not None:
            tables.append(self.join_key.other_table)
        return tuple(dict.fromkeys(tables))

    @property
    def output_tables(self) -> tuple[str, ...]:
        return tuple(output.table for output in self.outputs)

    @property
    def key_sides(self) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        """Hashmap units: ``(table, binding, columns)`` for each input
        side carrying the group key — the anchor alone for n:1, both
        join sides for n:n.  Empty for bitmap units (no group key)."""
        if self.join_key is not None:
            jk = self.join_key
            return (
                (self.anchor, self.anchor_binding, jk.anchor_columns),
                (jk.other_table, jk.other_binding, jk.other_columns),
            )
        if self.group_columns:
            return ((self.anchor, self.anchor_binding, self.group_columns),)
        return ()

    @property
    def key_columns(self) -> tuple[str, ...]:
        """The anchor-side columns whose values form the group key."""
        sides = self.key_sides
        return sides[0][2] if sides else ()


@dataclass
class MappingStatement:
    """A parsed migration mapping: output table + SELECT over old schema."""

    output_table: str
    select: ast.Select


def classify_statement(
    mapping: MappingStatement,
    catalog,
    unit_id: str,
    fkpk_join_mode: str = "fkit-bitmap",
) -> UnitPlan:
    """Classify one mapping statement into a :class:`UnitPlan`.

    ``fkpk_join_mode`` selects between the paper's two FK-PK join
    options (section 3.6):

    * ``"fkit-bitmap"`` (option 2, the default) — 1:1 bitmap on the
      foreign-key input table, no lock/migrate state on the PK side;
      "preferable when the cardinality of the foreign key is small or
      when there is skew".
    * ``"value-hashmap"`` (option 1) — migrate all FK tuples sharing a
      key together, which "turns the 1:1 migration on the FKIT side
      into an n:n migration": a hashmap keyed by the join value.
    """
    select = mapping.select
    sources, conjuncts = _flatten_from(select)
    if not sources:
        raise UnsupportedMigrationError(
            f"migration for {mapping.output_table} has no input tables"
        )
    if len(sources) > 2:
        raise UnsupportedMigrationError(
            "migrations over more than two input tables are not supported"
        )
    # Build the combined layout for qualification.
    layout = RowLayout()
    for name, binding in sources:
        table = catalog.table(name)
        for column in table.schema.column_names:
            layout.add(binding, column)

    def resolve(ref: ast.ColumnRef) -> ast.ColumnRef:
        if ref.table is not None:
            layout.position(ref)
            return ref
        position = layout.position(ref)
        binding, column = layout.columns[position]
        return ast.ColumnRef(column, binding)

    conjuncts = [qualify_columns(c, resolve) for c in conjuncts]
    where_conjuncts = [
        qualify_columns(c, resolve) for c in split_conjuncts(select.where)
    ]
    all_conjuncts = conjuncts + where_conjuncts
    group_by = [qualify_columns(g, resolve) for g in select.group_by]

    items = _expand_items(select, sources, catalog, resolve)
    column_names = tuple(
        item.alias or _item_name(item.expr, index)
        for index, item in enumerate(items)
    )
    qualified_select = _rebuild_select(select, sources, items, all_conjuncts, group_by)
    output = OutputSpec(
        table=mapping.output_table,
        column_names=column_names,
        items=tuple(item.expr for item in items),
        select=qualified_select,
    )

    binding_of = {name: binding for name, binding in sources}

    if group_by:
        if len(sources) != 1:
            raise UnsupportedMigrationError(
                "GROUP BY migrations over joins are not supported"
            )
        anchor, binding = sources[0]
        group_columns: list[str] = []
        for expr in group_by:
            if not isinstance(expr, ast.ColumnRef):
                raise UnsupportedMigrationError(
                    "GROUP BY migration keys must be plain columns"
                )
            group_columns.append(expr.name)
        return UnitPlan(
            unit_id=unit_id,
            category=MigrationCategory.N_TO_ONE,
            anchor=anchor,
            anchor_binding=binding,
            outputs=[output],
            group_columns=tuple(group_columns),
        )

    if len(sources) == 1:
        anchor, binding = sources[0]
        return UnitPlan(
            unit_id=unit_id,
            category=MigrationCategory.ONE_TO_ONE,
            anchor=anchor,
            anchor_binding=binding,
            outputs=[output],
        )

    # Two-table join.
    (left_name, left_binding), (right_name, right_binding) = sources
    equi_pairs = _equi_pairs(all_conjuncts, left_binding, right_binding)
    if not equi_pairs:
        raise UnsupportedMigrationError(
            "join migrations require at least one equality join condition"
        )
    left_cols = tuple(pair[0] for pair in equi_pairs)
    right_cols = tuple(pair[1] for pair in equi_pairs)
    left_unique = _covers_unique(catalog.table(left_name), left_cols)
    right_unique = _covers_unique(catalog.table(right_name), right_cols)

    if (left_unique or right_unique) and fkpk_join_mode == "fkit-bitmap":
        # FK-PK join: section 3.6 option 2 — track the FK input table
        # with a 1:1 bitmap, no lock/migrate state on the PK side.
        if right_unique:
            anchor, anchor_binding = left_name, left_binding
            aux = AuxJoin(right_name, right_binding, tuple(equi_pairs))
        else:
            anchor, anchor_binding = right_name, right_binding
            flipped = tuple((r, l) for l, r in equi_pairs)
            aux = AuxJoin(left_name, left_binding, flipped)
        return UnitPlan(
            unit_id=unit_id,
            category=MigrationCategory.ONE_TO_ONE,
            anchor=anchor,
            anchor_binding=anchor_binding,
            outputs=[output],
            aux=aux,
        )
    if (left_unique or right_unique) and fkpk_join_mode != "value-hashmap":
        raise UnsupportedMigrationError(
            f"unknown fkpk_join_mode {fkpk_join_mode!r}"
        )
    # Section 3.6 option 1 for FK-PK joins, and the general m:n case:
    # hashmap keyed by the join value.  Anchor the FK/left side so key
    # enumeration scans the side every joined row comes from.

    # Many-to-many join: hashmap keyed by the join value.
    return UnitPlan(
        unit_id=unit_id,
        category=MigrationCategory.N_TO_N,
        anchor=left_name,
        anchor_binding=left_binding,
        outputs=[output],
        join_key=JoinKeySpec(
            anchor_columns=left_cols,
            other_table=right_name,
            other_binding=right_binding,
            other_columns=right_cols,
        ),
    )


def coalesce_units(units: list[UnitPlan]) -> list[UnitPlan]:
    """Merge 1:1 units that share the same anchor (and aux shape) into a
    single 1:n unit — the table-split case (section 3.1: one bitmap, the
    migrate bit set only after all dependent output tuples exist)."""
    merged: list[UnitPlan] = []
    by_signature: dict[tuple, UnitPlan] = {}
    for unit in units:
        if unit.category is not MigrationCategory.ONE_TO_ONE:
            merged.append(unit)
            continue
        aux_signature = (
            (unit.aux.table, unit.aux.pairs) if unit.aux is not None else None
        )
        signature = (unit.anchor, unit.anchor_binding, aux_signature)
        existing = by_signature.get(signature)
        if existing is None:
            by_signature[signature] = unit
            merged.append(unit)
        else:
            existing.outputs.extend(unit.outputs)
            existing.category = MigrationCategory.ONE_TO_N
    return merged


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _flatten_from(select: ast.Select) -> tuple[list[tuple[str, str]], list[ast.Expr]]:
    """Flatten FROM into [(table, binding)] + join conjuncts.  Only base
    table references and INNER/CROSS joins are allowed in migration DDL."""
    sources: list[tuple[str, str]] = []
    conjuncts: list[ast.Expr] = []

    def walk_item(item: ast.FromItem) -> None:
        if isinstance(item, ast.TableRef):
            sources.append((item.name, item.binding))
            return
        if isinstance(item, ast.Join) and item.kind in ("INNER", "CROSS"):
            walk_item(item.left)
            walk_item(item.right)
            if item.condition is not None:
                conjuncts.extend(split_conjuncts(item.condition))
            return
        raise UnsupportedMigrationError(
            "migration DDL may only reference base tables with inner joins"
        )

    for item in select.from_items:
        walk_item(item)
    return sources, conjuncts


def _expand_items(select, sources, catalog, resolve) -> list[ast.SelectItem]:
    items: list[ast.SelectItem] = []
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            for name, binding in sources:
                if item.expr.table is not None and item.expr.table != binding:
                    continue
                table = catalog.table(name)
                for column in table.schema.column_names:
                    items.append(
                        ast.SelectItem(ast.ColumnRef(column, binding), None)
                    )
        else:
            items.append(
                ast.SelectItem(qualify_columns(item.expr, resolve), item.alias)
            )
    return items


def _item_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    return f"column{index + 1}"


def _rebuild_select(select, sources, items, conjuncts, group_by) -> ast.Select:
    """Normalized, fully-qualified version of the mapping SELECT with
    all join conditions folded into WHERE."""
    from_items = tuple(ast.TableRef(name, binding if binding != name else None)
                       for name, binding in sources)
    return ast.Select(
        items=tuple(items),
        from_items=from_items,
        where=conjoin(conjuncts),
        group_by=tuple(group_by),
        having=select.having,
        distinct=select.distinct,
    )


def _equi_pairs(
    conjuncts: list[ast.Expr], left_binding: str, right_binding: str
) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
            continue
        if left.table == left_binding and right.table == right_binding:
            pairs.append((left.name, right.name))
        elif left.table == right_binding and right.table == left_binding:
            pairs.append((right.name, left.name))
    return pairs


def _covers_unique(table, columns: tuple[str, ...]) -> bool:
    """True if ``columns`` contain some unique column set of ``table`` —
    i.e. equality on them matches at most one row (the PK side)."""
    available = set(columns)
    return any(
        set(unique_set) <= available
        for unique_set in table.schema.unique_column_sets()
    )
