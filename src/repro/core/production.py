"""Output production, written once (paper sections 2.1 and 3.1).

Lazy, eager and multi-step migration run the *same* migration DDL; what
differs is when and under which tracker the output rows are produced.
The three things every strategy needs live here and nowhere else:

* :func:`create_outputs` — the empty output tables (explicit schema or
  the planned SELECT's types) and their indexes;
* :func:`insert_select` — the output's ``INSERT .. SELECT``, optionally
  pinned to one group key by injected ``key_column = ?`` predicates (the
  paper's rewritten migration DDL; hashmap-shaped units), bound to each
  key through :class:`KeyStatements`;
* :class:`RowProjection` — the compiled anchor row → (aux join) →
  static filter → per-output projection pipeline (bitmap-shaped units),
  compiled once per unit and consumed as one generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator

from ..db import Database, build_schema, planned_schema
from ..exec.expressions import (
    RowLayout,
    compile_expr,
    compile_projection,
    key_getter,
    predicate_satisfied,
)
from ..exec.plan import ExecutionContext
from ..exec.rewrite import conjoin
from ..sql import ast_nodes as ast
from ..sql.render import render_statement
from .classify import OutputSpec, UnitPlan
from .migration import MigrationSpec


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


def insert_select(
    unit: UnitPlan,
    output: OutputSpec,
    pin_key: bool,
    on_conflict: bool = False,
    nulls: tuple[bool, ...] = (),
) -> tuple[str, str, int]:
    """Render ``INSERT INTO output .. SELECT`` for one output of ``unit``.

    With ``pin_key`` the SELECT is restricted to one group key: every
    key column on every input side (``unit.key_sides``) gets an injected
    ``column = ?`` conjunct — ``column IS NULL`` instead where ``nulls``
    marks the key part NULL — so callers bind the key's non-NULL parts,
    ``copies`` times, as the parameters.  Returns ``(insert_sql,
    select_sql, copies)`` — the bare SELECT is what read-only consumers
    (snapshot overlay, the invariant checker) run to see what the insert
    would produce.
    """
    sides = unit.key_sides if pin_key else ()
    select = output.select
    where = select.where
    param_index = 0
    for _table, binding, columns in sides:
        for position, column in enumerate(columns):
            ref = ast.ColumnRef(column, binding)
            if position < len(nulls) and nulls[position]:
                clause: ast.Expr = ast.IsNull(ref)
            else:
                clause = ast.BinaryOp("=", ref, ast.Param(param_index))
                param_index += 1
            where = clause if where is None else ast.BinaryOp("AND", where, clause)
    pinned = ast.Select(
        items=select.items,
        from_items=select.from_items,
        where=where,
        group_by=select.group_by,
        having=select.having,
        distinct=select.distinct,
    )
    insert = ast.Insert(
        table=output.table,
        columns=output.column_names,
        query=pinned,
        on_conflict_do_nothing=on_conflict,
    )
    return render_statement(insert), render_statement(pinned), len(sides)


class KeyStatements:
    """A hashmap unit's per-group-key statements: each output's pinned
    ``INSERT .. SELECT`` and bare SELECT (:func:`insert_select`), bound
    to one key at a time.  ``column = NULL`` matches nothing, so a key
    with NULL parts — the NULL group, which the unpinned SELECT does
    produce — is pinned by ``column IS NULL`` instead; that text depends
    on which parts are NULL and is rendered on the first key that needs
    it."""

    def __init__(self, unit: UnitPlan, on_conflict: bool = False) -> None:
        self.unit = unit
        self.on_conflict = on_conflict
        self.copies = len(unit.key_sides)
        self._variants: dict[tuple[bool, ...], tuple[list[str], list[str]]] = {}
        self.inserts, self.selects = self._variant(())

    def _variant(self, nulls: tuple[bool, ...]) -> tuple[list[str], list[str]]:
        variant = self._variants.get(nulls)
        if variant is None:
            rendered = [
                insert_select(self.unit, output, True, self.on_conflict, nulls)
                for output in self.unit.outputs
            ]
            inserts, selects, _copies = zip(*rendered)
            variant = self._variants[nulls] = (list(inserts), list(selects))
        return variant

    def bind(self, key: tuple) -> tuple[list[str], list[str], tuple]:
        """``(insert_sqls, select_sqls, params)`` pinned to ``key``."""
        if None not in key:
            return self.inserts, self.selects, tuple(key) * self.copies
        inserts, selects = self._variant(tuple(part is None for part in key))
        values = tuple(part for part in key if part is not None)
        return inserts, selects, values * self.copies


@dataclass
class _OutputRuntime:
    table: Any  # catalog Table
    column_names: tuple[str, ...]
    project: Any  # (combined anchor(+aux) row, params) -> values tuple


class RowProjection:
    """A bitmap unit's production pipeline, compiled once: anchor row →
    aux (PK-side) join → static filter → one values tuple per output, in
    that output's ``column_names`` order.  The aux join is one planned
    ``aux_column = ?`` scan, run in the caller's execution context."""

    def __init__(self, db: Database, plan: UnitPlan) -> None:
        catalog = db.catalog
        anchor_schema = catalog.table(plan.anchor).schema
        layout = RowLayout.for_table(plan.anchor_binding, anchor_schema.column_names)
        self.aux_scan = None
        if plan.aux is not None:
            aux = plan.aux
            by_key = conjoin([
                ast.BinaryOp("=", ast.ColumnRef(column, aux.binding), ast.Param(i))
                for i, (_anchor_column, column) in enumerate(aux.pairs)
            ])
            self.aux_scan = db.planner.plan_dml_scan(
                aux.table, aux.binding, by_key, allow_retired=True
            ).compile_tids()
            self._aux_key = key_getter([anchor_schema.column_index(a) for a, _b in aux.pairs])
            aux_columns = catalog.table(aux.table).schema.column_names
            layout = layout.extend(RowLayout.for_table(aux.binding, aux_columns))
        self.static_fn = (
            compile_expr(plan.static_filter, layout)
            if plan.static_filter is not None
            else None
        )
        self.outputs = [
            _OutputRuntime(
                catalog.table(output.table),
                tuple(output.column_names),
                compile_projection(output.items, layout),
            )
            for output in plan.outputs
        ]

    def _joined(self, rows: Iterable[tuple], ctx: ExecutionContext) -> Iterator[tuple]:
        """Anchor rows extended by their aux (PK-side) matches, inner-join
        semantics: rows without a match produce nothing but are still
        considered migrated (section 3.6).  The aux rows are the ones
        ``ctx`` reads: current heads, or the versions of its snapshot."""
        scan, key_of = self.aux_scan, self._aux_key
        aux_ctx = replace(ctx)
        for row in rows:
            aux_ctx.params = key_of(row)
            for _tid, aux_row in scan(aux_ctx):
                yield row + aux_row

    def project(
        self, rows: Iterable[tuple], ctx: ExecutionContext
    ) -> Iterator[list[tuple]]:
        """For every joined anchor row that passes the static filter,
        yield its output rows: one values tuple per output, parallel to
        :attr:`outputs`.  Reads only; every consumer — lazy
        production, the snapshot overlay, the multi-step copier and
        dual-write hooks, the invariant checker — iterates this in its
        own context."""
        static_fn = self.static_fn
        outputs = self.outputs
        if self.aux_scan is not None:
            rows = self._joined(rows, ctx)
        for row in rows:
            if static_fn is not None and not predicate_satisfied(static_fn(row, ())):
                continue
            yield [output.project(row, ()) for output in outputs]

    def insert_projected(
        self,
        rows: Iterable[tuple],
        executor,
        ctx: ExecutionContext,
        on_conflict: bool,
    ) -> tuple[int, int]:
        """Project ``rows`` and insert the results, one batch per output
        table, inside ``ctx``'s transaction.  Returns ``(produced,
        duplicates)``: joined rows that produced output, and output rows
        an ``on_conflict`` insert skipped because they already existed."""
        batches: list[list[tuple]] = [[] for _ in self.outputs]
        produced = 0
        for values in self.project(rows, ctx):
            for batch, row_values in zip(batches, values):
                batch.append(row_values)
            produced += 1
        duplicates = 0
        for output, batch in zip(self.outputs, batches):
            if batch:
                inserted = executor.insert_rows(
                    output.table, output.column_names, batch, ctx,
                    on_conflict_skip=on_conflict,
                )
                duplicates += len(batch) - inserted
        return produced, duplicates
