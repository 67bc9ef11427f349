"""Output production, written once (paper sections 2.1 and 3.1).

Lazy, eager and multi-step migration run the *same* migration DDL; what
differs is when and under which tracker the output rows are produced.
The three things every strategy needs live here and nowhere else:

* :func:`create_outputs` — the empty output tables (explicit schema or
  the planned SELECT's types) and their indexes;
* :func:`insert_select` — the output's ``INSERT .. SELECT``, optionally
  pinned to one group key by injected ``key_column = ?`` predicates (the
  paper's rewritten migration DDL; hashmap-shaped units);
* :class:`RowProjection` — the compiled anchor row → (aux join) →
  static filter → per-output projection pipeline (bitmap-shaped units),
  compiled once per unit and consumed as one generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..db import Database, build_schema, planned_schema
from ..exec.expressions import RowLayout, compile_expr, predicate_satisfied
from ..exec.plan import ExecutionContext
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
) -> tuple[str, str, int]:
    """Render ``INSERT INTO output .. SELECT`` for one output of ``unit``.

    With ``pin_key`` the SELECT is restricted to one group key: every
    key column on every input side (``unit.key_sides``) gets an injected
    ``column = ?`` conjunct, so callers bind ``key * copies`` as the
    parameters.  Returns ``(insert_sql, select_sql, copies)`` — the
    bare SELECT is what read-only consumers (snapshot overlay, the
    invariant checker) run to see what the insert would produce.
    """
    sides = unit.key_sides if pin_key else ()
    select = output.select
    where = select.where
    param_index = 0
    for _table, binding, columns in sides:
        for column in columns:
            clause = ast.BinaryOp(
                "=", ast.ColumnRef(column, binding), ast.Param(param_index)
            )
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


@dataclass
class _OutputRuntime:
    table: Any  # catalog Table
    column_names: tuple[str, ...]
    fns: list  # compiled projections over the combined anchor(+aux) layout


class RowProjection:
    """A bitmap unit's production pipeline, compiled once: anchor row →
    aux (PK-side) join → static filter → one value dict per output."""

    def __init__(self, catalog, plan: UnitPlan) -> None:
        anchor_schema = catalog.table(plan.anchor).schema
        layout = RowLayout.for_table(plan.anchor_binding, anchor_schema.column_names)
        self.aux_table = None
        self._aux_positions: list[int] = []
        self._aux_index = None
        self._aux_lookup_positions: list[int] = []
        if plan.aux is not None:
            self.aux_table = catalog.table(plan.aux.table)
            layout = layout.extend(
                RowLayout.for_table(
                    plan.aux.binding, self.aux_table.schema.column_names
                )
            )
            self._aux_positions = [
                anchor_schema.column_index(a) for a, _b in plan.aux.pairs
            ]
            aux_cols = tuple(b for _a, b in plan.aux.pairs)
            self._aux_index = self.aux_table.find_prefix_index(frozenset(aux_cols))
            if self._aux_index is not None:
                # Key order must follow the index's column order.
                by_aux = {b: a for a, b in plan.aux.pairs}
                self._aux_positions = [
                    anchor_schema.column_index(by_aux[c])
                    for c in self._aux_index.columns
                ]
            else:
                self._aux_lookup_positions = [
                    self.aux_table.schema.column_index(b) for _a, b in plan.aux.pairs
                ]
        self.static_fn = (
            compile_expr(plan.static_filter, layout)
            if plan.static_filter is not None
            else None
        )
        self.outputs = [
            _OutputRuntime(
                catalog.table(output.table),
                output.column_names,
                [compile_expr(item, layout) for item in output.items],
            )
            for output in plan.outputs
        ]

    def joined_rows(self, row: tuple) -> Iterator[tuple]:
        """Anchor row extended by its aux (PK-side) match, inner-join
        semantics: rows without a match produce nothing but are still
        considered migrated (section 3.6)."""
        if self.aux_table is None:
            yield row
            return
        key = tuple(row[p] for p in self._aux_positions)
        if self._aux_index is not None:
            for tid in self._aux_index.lookup(key):
                aux_row = self.aux_table.heap.read(tid)
                if aux_row is not None:
                    yield row + aux_row
            return
        for _tid, aux_row in self.aux_table.heap.scan():
            if tuple(aux_row[p] for p in self._aux_lookup_positions) == key:
                yield row + aux_row

    def project(self, rows: Iterable[tuple]) -> Iterator[list[dict]]:
        """For every joined anchor row that passes the static filter,
        yield its output rows: one ``{column: value}`` dict per output,
        parallel to :attr:`outputs`.  Reads only; every consumer — lazy
        production, the snapshot overlay, the multi-step copier and
        dual-write hooks, the invariant checker — iterates this."""
        static_fn = self.static_fn
        outputs = self.outputs
        for row in rows:
            for combined in self.joined_rows(row):
                if static_fn is not None and not predicate_satisfied(
                    static_fn(combined, ())
                ):
                    continue
                yield [
                    {
                        name: fn(combined, ())
                        for name, fn in zip(output.column_names, output.fns)
                    }
                    for output in outputs
                ]

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
        batches: list[list[dict]] = [[] for _ in self.outputs]
        produced = 0
        for values in self.project(rows):
            for batch, row_values in zip(batches, values):
                batch.append(row_values)
            produced += 1
        duplicates = 0
        for output, batch in zip(self.outputs, batches):
            if batch:
                inserted = executor.insert_rows(
                    output.table, batch, ctx, on_conflict_skip=on_conflict
                )
                duplicates += len(batch) - inserted
        return produced, duplicates
