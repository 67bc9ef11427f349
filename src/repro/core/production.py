"""Output production, written once (paper sections 2.1 and 3.1).

Lazy, eager and multi-step migration run the *same* migration DDL; what
differs is when and under which tracker the output rows are produced.
The two things every strategy needs live here and nowhere else:

* :func:`create_outputs` — the empty output tables (explicit schema or
  the planned SELECT's types) and their indexes;
* :class:`Production` — a unit's rewritten migration DDL (the paper's
  injected predicates): per output, its own ``INSERT .. SELECT`` with one
  predicate conjoined to the SELECT's WHERE — a TID range on the anchor
  for bitmap units, ``key_column = ?`` per key column for hashmap units —
  built as an AST and planned once per schema epoch.  ``produce`` runs
  it in a migration's context, ``project`` runs only its SELECT.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Sequence

from ..db import Database, Statement, build_schema, planned_schema
from ..exec.plan import ExecutionContext
from ..exec.rewrite import conjoin
from ..sql import ast_nodes as ast
from .classify import OutputSpec, UnitPlan
from .migration import MigrationSpec

# What a production statement runs with: one statement per output, and
# the parameters (a TID range or a group key) bound to all of them.
Bound = Iterable[tuple[list[Statement], Sequence]]


def create_outputs(db: Database, spec: MigrationSpec, resume: bool = False) -> None:
    """Create every output table of ``spec`` (empty), then the secondary
    indexes its DDL declares.  ``resume=True`` skips whatever already
    exists — crash recovery re-attaches to replayed outputs."""
    catalog = db.catalog
    for unit in spec.units:
        for output in unit.outputs:
            if resume and catalog.has_table(output.table):
                continue
            schema_stmt = spec.explicit_schemas.get(output.table)
            if schema_stmt is not None:
                schema = build_schema(schema_stmt)
            else:
                schema = planned_schema(
                    output.table,
                    db.planner.plan_select(output.select),
                    output.column_names,
                )
            catalog.create_table(schema)
    for index_stmt in spec.index_statements:
        if resume and any(index_stmt.name in t.indexes for t in catalog.tables()):
            continue
        catalog.create_index(
            index_stmt.name,
            index_stmt.table,
            index_stmt.columns,
            unique=index_stmt.unique,
            ordered=True,
        )


def output_insert(
    output: OutputSpec, pin: ast.Expr | None = None, on_conflict: bool = False
) -> ast.Insert:
    """``INSERT INTO output .. SELECT`` for one output, ``pin`` conjoined
    to its SELECT's WHERE."""
    select = output.select
    where = conjoin(c for c in (select.where, pin) if c is not None)
    return ast.Insert(
        output.table, output.column_names, query=replace(select, where=where),
        on_conflict_do_nothing=on_conflict,
    )


def pin_key(refs: Sequence[ast.ColumnRef], nulls: Sequence[bool] = ()) -> ast.Expr | None:
    """``ref = ?`` per key part, parameters numbered in order — or
    ``ref IS NULL`` where ``nulls`` marks the part NULL, since ``= NULL``
    matches nothing and the NULL group is a group."""
    nulls = nulls or (False,) * len(refs)
    params = iter(range(len(refs)))
    return conjoin(
        ast.IsNull(ref) if null else ast.BinaryOp("=", ref, ast.Param(next(params)))
        for ref, null in zip(refs, nulls)
    )


def split_key(key: tuple) -> tuple[tuple[bool, ...], tuple]:
    """``(nulls, values)``: a group key's NULL pattern (``()`` when no
    part is NULL) and its non-NULL parts, the parameters of the
    statement variant that pins that pattern."""
    if None not in key:
        return (), tuple(key)
    return tuple(part is None for part in key), tuple(p for p in key if p is not None)


class Production:
    """One unit's production statements and the two ways to run them.

    A bitmap unit is bound to TID ranges (:meth:`ranges`), each planned
    as a TID range scan of the anchor (an FK-PK unit then probes the PK
    side's index per anchor row); a hashmap unit to group keys
    (:meth:`keys`).  A key with NULL parts needs its own ``IS NULL``
    variant, built on first use and cached by NULL pattern."""

    def __init__(self, db: Database, unit: UnitPlan, on_conflict: bool = False) -> None:
        self.db = db
        self.unit = unit
        self.on_conflict = on_conflict
        self._variants: dict[tuple[bool, ...], list[Statement]] = {}

    def statements(self, nulls: tuple[bool, ...] = ()) -> list[Statement]:
        """Per output, its production statement (for a key whose parts
        ``nulls`` marks NULL): parameters ``(low, high)`` or the key."""
        variant = self._variants.get(nulls)
        if variant is None:
            unit = self.unit
            if unit.category.uses_bitmap:
                pin = ast.TidRange(unit.anchor_binding, ast.Param(0), ast.Param(1))
            else:
                sides = unit.key_sides
                refs = [ast.ColumnRef(c, binding) for _t, binding, cols in sides for c in cols]
                pin = pin_key(refs, nulls * len(sides))
            variant = self._variants[nulls] = [
                Statement(output_insert(output, pin, self.on_conflict))
                for output in unit.outputs
            ]
        return variant

    def ranges(self, spans: Iterable[Sequence[int]]) -> Bound:
        """Bitmap units: the statements bound to each TID range
        ``[low, high)``."""
        statements = self.statements()
        return ((statements, span) for span in spans)

    def keys(self, keys: Iterable[tuple]) -> Bound:
        """Hashmap units: the statements bound to each group key, on
        every input side that carries it."""
        copies = len(self.unit.key_sides)
        for key in keys:
            nulls, values = split_key(key)
            yield self.statements(nulls), values * copies

    def produce(self, bound: Bound, ctx: ExecutionContext) -> tuple[int, int]:
        """Run the bound SELECTs in ``ctx`` — its transaction's locks,
        snapshot and writes — and insert each output's rows in one batch.
        Returns ``(produced, duplicates)``: the most rows one output got,
        and the rows an ON CONFLICT insert skipped, summed over outputs."""
        batches: dict[int, tuple[Any, list]] = {}
        for index, prepared, rows in self._select(bound, ctx):
            batches.setdefault(index, (prepared, []))[1].extend(rows)
        run_insert = self.db.executor.run_insert
        returned = [len(rows) for _prepared, rows in batches.values()]
        inserted = [run_insert(prepared, ctx, rows) for prepared, rows in batches.values()]
        return max(returned, default=0), sum(returned) - sum(inserted)

    def project(self, bound: Bound, ctx: ExecutionContext) -> dict[str, list[tuple]]:
        """The output rows the bound statements' SELECTs return in
        ``ctx`` — a reader's snapshot, or current rows — as the insert
        would store them, by output table.  Nothing is written."""
        rows_by_output: dict[str, list[tuple]] = {}
        for _index, prepared, rows in self._select(bound, ctx):
            rows_by_output.setdefault(prepared.table, []).extend(map(prepared.build, rows))
        return rows_by_output

    def _select(self, bound: Bound, ctx: ExecutionContext):
        """``(output index, prepared INSERT, rows)`` for every bound
        statement whose SELECT returns rows in ``ctx``."""
        db = self.db
        for statements, ctx.params in bound:
            for index, statement in enumerate(statements):
                prepared = statement.prepared(db, True)
                rows = db.executor.run_select(prepared.query, ctx)
                if rows:
                    yield index, prepared, rows
