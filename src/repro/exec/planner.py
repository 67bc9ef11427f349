"""Query planner: binding, view expansion, predicate pushdown, join
planning, and aggregation.

The planner deliberately mirrors the parts of PostgreSQL's planner that
BullFrog leans on (paper section 2.1):

* **view expansion** — queries over views become queries over base
  tables;
* **conjunct extraction + equivalence classes** — single-table filters
  are derived and pushed into scans, including filters propagated
  through equality join predicates (``f.flightid = fi.flightid`` lets a
  predicate on one side apply to the other);
* **index selection** — equality conjuncts are matched against
  available indexes, and range conjuncts on the column after an
  ordered index's equality prefix bound the span it reads;
* an ``EXPLAIN``-style rendering used both by tests and by
  BullFrog's predicate-transfer machinery.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Sequence

from ..errors import ExecutionError, UnknownObjectError
from ..sql import ast_nodes as ast
from ..sql.render import render_expr
from ..types import SqlType, TypeKind
from . import plan as planlib
from .expressions import CompiledExpr, RowLayout, compile_expr, compile_projection
from .operators import make_aggregate_factory
from .rewrite import (
    EquivalenceClasses,
    conjoin,
    derive_equivalent_predicates,
    expand_views,
    has_params,
    qualify_columns,
    split_conjuncts,
)


@dataclass
class PlannedQuery:
    """A planned SELECT: the plan tree, output metadata, and ``run`` —
    the tree compiled once (:meth:`PlanNode.compile`) into the closure
    that executes it."""

    node: planlib.PlanNode
    names: list[str]
    types: list[SqlType | None]
    run: planlib.Compiled = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.run = self.node.compile()

    def explain(self) -> str:
        return "\n".join(self.node.explain())


@dataclass
class _Source:
    """One planned FROM entry prior to join assembly."""

    node: planlib.PlanNode
    bindings: frozenset[str]
    conjuncts: tuple[ast.Expr, ...] = ()  # the filters pushed into it


class Planner:
    def __init__(self, catalog) -> None:
        self.catalog = catalog

    # ==================================================================
    # Entry points
    # ==================================================================
    def plan_select(self, select: ast.Select, allow_retired: bool = False) -> PlannedQuery:
        expanded = expand_views(select, self.view_body)
        return self._plan_expanded(expanded, allow_retired)

    def plan_dml_scan(
        self,
        table_name: str,
        alias: str | None,
        where: ast.Expr | None,
        allow_retired: bool = False,
    ):
        """Plan the qualifying-row scan for UPDATE/DELETE.  Returns a
        :class:`~repro.exec.plan.TableScan`; its ``compile_tids()`` is
        the executable form."""
        if self.catalog.has_virtual(table_name):
            raise ExecutionError(
                f"{table_name!r} is a read-only system view"
            )
        table = self.catalog.table_checked(table_name, allow_retired)
        binding = alias or table_name
        layout = RowLayout.for_table(binding, table.schema.column_names)
        types = [column.type for column in table.schema.columns]
        conjuncts = [
            qualify_columns(c, self._make_resolver(layout))
            for c in split_conjuncts(where)
        ]
        return self._plan_table_scan(table, binding, layout, types, conjuncts)

    # ==================================================================
    # SELECT planning
    # ==================================================================
    def view_body(self, name: str) -> ast.Select | None:
        if self.catalog.has_view(name):
            return self.catalog.view(name).query
        return None

    def _plan_expanded(self, select: ast.Select, allow_retired: bool) -> PlannedQuery:
        if not select.from_items:
            return self._plan_constant_select(select)

        sources, join_conjuncts, combined_layout, combined_types = self._plan_from(
            select.from_items, allow_retired
        )
        resolver = self._make_resolver(combined_layout)

        where_conjuncts = [
            qualify_columns(c, resolver) for c in split_conjuncts(select.where)
        ]

        # Predicate pushdown through derived tables (views):
        # single-subquery conjuncts move below the projection, and the
        # affected subqueries are re-planned with the pushed filter.
        pushed_select = _push_into_subqueries(select, where_conjuncts)
        if pushed_select is not None:
            select = pushed_select
            sources, join_conjuncts, combined_layout, combined_types = (
                self._plan_from(select.from_items, allow_retired)
            )
            resolver = self._make_resolver(combined_layout)
            where_conjuncts = [
                qualify_columns(c, resolver)
                for c in split_conjuncts(select.where)
            ]
        all_conjuncts = where_conjuncts + join_conjuncts
        classes = EquivalenceClasses.from_conjuncts(all_conjuncts)
        all_conjuncts = all_conjuncts + derive_equivalent_predicates(
            all_conjuncts, classes
        )

        node = self._assemble_joins(
            sources, all_conjuncts, combined_layout, combined_types, allow_retired
        )

        # Items: expand stars, qualify references.
        items = self._expand_stars(select.items, node.layout)
        items = [
            ast.SelectItem(qualify_columns(item.expr, resolver), item.alias)
            for item in items
        ]
        group_by = [qualify_columns(g, resolver) for g in select.group_by]
        having = (
            qualify_columns(select.having, resolver)
            if select.having is not None
            else None
        )

        has_aggregates = any(
            ast.is_aggregate_call(node_)
            for item in items
            for node_ in ast.walk(item.expr)
        ) or (
            having is not None
            and any(ast.is_aggregate_call(n) for n in ast.walk(having))
        )

        if group_by or has_aggregates:
            node, names, types = self._plan_aggregate(
                node, items, group_by, having, classes
            )
            if select.order_by:
                node = self._plan_sort(node, select.order_by, names, items)
            if select.distinct:
                node = planlib.DistinctNode(node)
        else:
            # Sort below the projection so ORDER BY may reference
            # non-projected columns (PostgreSQL semantics); aliases and
            # positional references are substituted with their item
            # expressions first.
            if select.order_by:
                order_by = self._resolve_order_keys(
                    select.order_by, items, resolver
                )
                key_fns = [
                    compile_expr(item.expr, node.layout) for item in order_by
                ]
                node = planlib.SortNode(
                    node, key_fns, [item.descending for item in order_by]
                )
            node, names, types = self._plan_project(node, items)
            if select.distinct:
                node = planlib.DistinctNode(node)
        if select.limit is not None or select.offset is not None:
            empty = RowLayout()
            limit_fn = (
                compile_expr(select.limit, empty) if select.limit is not None else None
            )
            offset_fn = (
                compile_expr(select.offset, empty)
                if select.offset is not None
                else None
            )
            node = planlib.LimitNode(node, limit_fn, offset_fn)
        return PlannedQuery(node, names, types)

    def _plan_constant_select(self, select: ast.Select) -> PlannedQuery:
        """SELECT with no FROM: one row of constant expressions."""
        layout = RowLayout()
        names: list[str] = []
        types: list[SqlType | None] = []
        for index, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                raise ExecutionError("'*' requires a FROM clause")
            names.append(item.alias or _default_name(item.expr, index))
            types.append(_infer_type(item.expr, layout, []))
        project = compile_projection([item.expr for item in select.items], layout)

        class _OneRow(planlib.PlanNode):
            def __init__(self) -> None:
                self.layout = RowLayout()
                self.types = []

            def compile(self):
                return lambda ctx: [()]

            def explain(self, indent: int = 0):
                return ["  " * indent + "Result"]

        out_layout = RowLayout()
        for name in names:
            out_layout.add(None, name)
        node = planlib.ProjectNode(_OneRow(), project, out_layout, types, names)
        return PlannedQuery(node, names, types)

    # ------------------------------------------------------------------
    # FROM planning
    # ------------------------------------------------------------------
    def _plan_from(
        self, from_items: Sequence[ast.FromItem], allow_retired: bool
    ) -> tuple[list[_Source], list[ast.Expr], RowLayout, list[SqlType | None]]:
        sources: list[_Source] = []
        join_conjuncts: list[ast.Expr] = []
        for item in from_items:
            self._collect_sources(item, sources, join_conjuncts, allow_retired)
        combined_layout = RowLayout()
        combined_types: list[SqlType | None] = []
        for source in sources:
            for binding, name in source.node.layout.columns:
                combined_layout.add(binding, name)
            combined_types.extend(source.node.types)
        resolver = self._make_resolver(combined_layout)
        join_conjuncts = [qualify_columns(c, resolver) for c in join_conjuncts]
        return sources, join_conjuncts, combined_layout, combined_types

    def _collect_sources(
        self,
        item: ast.FromItem,
        sources: list[_Source],
        join_conjuncts: list[ast.Expr],
        allow_retired: bool,
    ) -> None:
        if isinstance(item, ast.Join) and item.kind in ("INNER", "CROSS"):
            self._collect_sources(item.left, sources, join_conjuncts, allow_retired)
            self._collect_sources(item.right, sources, join_conjuncts, allow_retired)
            if item.condition is not None:
                join_conjuncts.extend(split_conjuncts(item.condition))
            return
        sources.append(self._plan_source(item, allow_retired))

    def _plan_source(self, item: ast.FromItem, allow_retired: bool) -> _Source:
        if isinstance(item, ast.TableRef):
            if self.catalog.has_virtual(item.name):
                virtual = self.catalog.virtual_table(item.name)
                binding = item.binding
                layout = RowLayout.for_table(binding, list(virtual.column_names))
                node = planlib.VirtualScanNode(
                    virtual.name,
                    binding,
                    layout,
                    list(virtual.types),
                    virtual.producer,
                )
                return _Source(node, frozenset({binding}))
            table = self.catalog.table_checked(item.name, allow_retired)
            binding = item.binding
            layout = RowLayout.for_table(binding, table.schema.column_names)
            types: list[SqlType | None] = [c.type for c in table.schema.columns]
            node = planlib.SeqScanNode(table, binding, layout, types, None)
            return _Source(node, frozenset({binding}))
        if isinstance(item, ast.SubquerySource):
            inner = self.plan_select(item.query, allow_retired)
            layout = RowLayout()
            for name in inner.names:
                layout.add(item.alias, name)
            node = planlib.DerivedNode(inner.node, item.alias, layout, inner.types)
            return _Source(node, frozenset({item.alias}))
        if isinstance(item, ast.Join):  # LEFT / RIGHT
            if item.kind == "RIGHT":
                flipped = ast.Join("LEFT", item.right, item.left, item.condition)
                return self._plan_source(flipped, allow_retired)
            left = self._plan_source(item.left, allow_retired)
            right = self._plan_source(item.right, allow_retired)
            layout = left.node.layout.extend(right.node.layout)
            types = left.node.types + right.node.types
            condition_fn = None
            condition_text = ""
            if item.condition is not None:
                qualified = qualify_columns(
                    item.condition, self._make_resolver(layout)
                )
                condition_fn = compile_expr(qualified, layout)
                condition_text = render_expr(qualified)
            node = planlib.NestedLoopJoinNode(
                left.node,
                right.node,
                layout,
                types,
                condition_fn,
                kind="LEFT",
                condition_text=condition_text,
            )
            return _Source(node, left.bindings | right.bindings)
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    # ------------------------------------------------------------------
    # Join assembly with pushdown
    # ------------------------------------------------------------------
    def _assemble_joins(
        self,
        sources: list[_Source],
        conjuncts: list[ast.Expr],
        combined_layout: RowLayout,
        combined_types: list[SqlType | None],
        allow_retired: bool,
    ) -> planlib.PlanNode:
        pending = list(conjuncts)

        # 1. Push single-source conjuncts into their source.
        refined: list[_Source] = []
        for source in sources:
            mine: list[ast.Expr] = []
            rest: list[ast.Expr] = []
            for conjunct in pending:
                bindings = _conjunct_bindings(conjunct)
                if bindings and bindings <= source.bindings:
                    mine.append(conjunct)
                else:
                    rest.append(conjunct)
            pending = rest
            refined.append(self._push_filter(source, mine))
        sources = refined

        # 2. Greedy left-deep join order: prefer equi-connected sources.
        #    A TID-range source (a migration's granule run) goes first,
        #    and its joins probe an index of the inner side per row.
        ranged = [s for s in sources if isinstance(s.node, planlib.SeqScanNode)
                  and s.node.tid_low is not None]
        current = ranged[0] if ranged else sources[0]
        remaining = [s for s in sources if s is not current]
        while remaining:
            chosen_index = 0
            for index, candidate in enumerate(remaining):
                if _has_equi_link(pending, current.bindings, candidate.bindings):
                    chosen_index = index
                    break
            nxt = remaining.pop(chosen_index)
            current = self._join_pair(current, nxt, pending, probe=bool(ranged))

        # 3. Anything left (e.g. predicates over no columns) as a filter.
        if pending:
            predicate = conjoin(pending)
            assert predicate is not None
            fn = compile_expr(predicate, current.node.layout)
            current = _Source(
                planlib.FilterNode(current.node, fn, render_expr(predicate)),
                current.bindings,
            )
        return current.node

    def _push_filter(self, source: _Source, conjuncts: list[ast.Expr]) -> _Source:
        if not conjuncts:
            return source
        node = source.node
        if isinstance(node, planlib.SeqScanNode) and node.filter_fn is None:
            rebuilt = self._plan_table_scan(
                node.table, node.binding, node.layout, node.types, conjuncts
            )
            return _Source(rebuilt, source.bindings, tuple(conjuncts))
        predicate = conjoin(conjuncts)
        assert predicate is not None
        fn = compile_expr(predicate, node.layout)
        return _Source(
            planlib.FilterNode(node, fn, render_expr(predicate)), source.bindings
        )

    def _plan_table_scan(
        self,
        table,
        binding: str,
        layout: RowLayout,
        types: list[SqlType | None],
        conjuncts: list[ast.Expr],
    ):
        """Choose an index for equality conjuncts, else sequential scan.
        Under an ordered index's equality prefix, the first lower and
        upper range conjunct on the next column become the bounds of the
        span it reads (they also stay in the residual filter).  A
        :class:`ast.TidRange` conjunct makes it a TID range scan."""
        tids = next((c for c in conjuncts if isinstance(c, ast.TidRange)), None)
        if tids is not None:
            conjuncts = [c for c in conjuncts if c is not tids]
        eq_values: dict[str, ast.Expr] = {}
        eq_conjuncts: dict[str, ast.Expr] = {}
        for conjunct in conjuncts:
            column, value = _equality_parts(conjunct, binding)
            if column is not None and column not in eq_values:
                eq_values[column] = value
                eq_conjuncts[column] = conjunct
        choice = None
        if eq_values and tids is None:
            choice = table.find_equality_index(frozenset(eq_values))
        if choice is not None:
            index, key_columns = choice
            covered = set(key_columns)
            residual = [
                c
                for c in conjuncts
                if not any(c is eq_conjuncts.get(col) for col in covered)
            ]
            key_fn = compile_projection(
                [eq_values[col] for col in key_columns], RowLayout()
            )
            residual_expr = conjoin(residual)
            filter_fn = (
                compile_expr(residual_expr, layout) if residual_expr is not None else None
            )
            conds = [
                f"{binding}.{col} = {render_expr(eq_values[col])}"
                for col in key_columns
            ]
            bounds: dict[str, tuple[CompiledExpr, bool]] = {}
            range_type = None
            if len(key_columns) < len(index.columns):
                column = index.columns[len(key_columns)]
                range_type = table.schema.column(column).type
                if range_type.kind in _BOUNDABLE_KINDS:
                    for conjunct in residual:
                        op, value = _range_parts(conjunct, binding, column)
                        if op is None:
                            continue
                        side = "low" if op in (">", ">=") else "high"
                        if side in bounds:
                            continue
                        bounds[side] = (
                            compile_expr(value, RowLayout()), op in (">=", "<=")
                        )
                        conds.append(
                            f"{binding}.{column} {op} {render_expr(value)}"
                        )
            return planlib.IndexScanNode(
                table,
                binding,
                layout,
                types,
                index,
                key_fn,
                len(key_columns),
                filter_fn,
                index_cond_text=" AND ".join(conds),
                filter_text=render_expr(residual_expr) if residual_expr else "",
                low=bounds.get("low"),
                high=bounds.get("high"),
                range_type=range_type,
            )
        predicate = conjoin(conjuncts)
        filter_fn = compile_expr(predicate, layout) if predicate is not None else None
        node = planlib.SeqScanNode(
            table,
            binding,
            layout,
            types,
            filter_fn,
            filter_text=render_expr(predicate) if predicate else "",
        )
        if tids is not None:
            node.tid_low = compile_expr(tids.low, RowLayout())
            node.tid_high = compile_expr(tids.high, RowLayout())
            node.tid_cond_text = render_expr(tids)[1:-1]
        return node

    def _join_pair(
        self, left: _Source, right: _Source, pending: list[ast.Expr], probe: bool = False
    ) -> _Source:
        bindings = left.bindings | right.bindings
        applicable: list[ast.Expr] = []
        rest: list[ast.Expr] = []
        for conjunct in pending:
            refs = _conjunct_bindings(conjunct)
            if refs and refs <= bindings and not (
                refs <= left.bindings or refs <= right.bindings
            ):
                applicable.append(conjunct)
            else:
                rest.append(conjunct)
        pending[:] = rest

        layout = left.node.layout.extend(right.node.layout)
        types = left.node.types + right.node.types

        equi: list[tuple[ast.Expr, ast.Expr]] = []  # (left-side, right-side)
        residual: list[ast.Expr] = []
        for conjunct in applicable:
            pair = _equi_join_parts(conjunct, left.bindings, right.bindings)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)

        condition_text = render_expr(conjoin(applicable)) if applicable else ""
        if equi:
            left_key = compile_projection([l for l, _r in equi], left.node.layout)
            right_key = compile_projection([r for _l, r in equi], right.node.layout)
            residual_expr = conjoin(residual)
            residual_fn = (
                compile_expr(residual_expr, layout)
                if residual_expr is not None
                else None
            )
            looped = probe and self._index_probe(left, right, equi, residual, layout, types)
            if looped:
                looped.condition_text = condition_text
                return _Source(looped, bindings)
            node: planlib.PlanNode = planlib.HashJoinNode(
                left.node,
                right.node,
                layout,
                types,
                left_key,
                right_key,
                residual_fn,
                condition_text=condition_text,
            )
        else:
            predicate = conjoin(applicable)
            fn = compile_expr(predicate, layout) if predicate is not None else None
            node = planlib.NestedLoopJoinNode(
                left.node,
                right.node,
                layout,
                types,
                fn,
                condition_text=condition_text,
            )
        return _Source(node, bindings)

    def _index_probe(
        self, left: _Source, right: _Source, equi: list, residual: list,
        layout: RowLayout, types: list[SqlType | None],
    ) -> planlib.NestedLoopJoinNode | None:
        """The join as one lookup per outer row in an equality index of
        the inner base table, its equi-join columns bound as ``= ?``
        parameters from the outer row; its own filters join the residual
        condition.  ``None`` when the inner side is no base table, filters
        on statement parameters, or has no such index."""
        scan, columns = right.node, [r for _l, r in equi]
        if (
            not isinstance(scan, planlib.TableScan)
            or not all(isinstance(c, ast.ColumnRef) for c in columns)
            or any(has_params(c) for c in right.conjuncts)
        ):
            return None
        keys = [ast.BinaryOp("=", c, ast.Param(i)) for i, c in enumerate(columns)]
        inner = self._plan_table_scan(scan.table, scan.binding, scan.layout, scan.types, keys)
        if not isinstance(inner, planlib.IndexScanNode):
            return None
        condition = conjoin(residual + list(right.conjuncts))
        return planlib.NestedLoopJoinNode(
            left.node, inner, layout, types,
            compile_expr(condition, layout) if condition is not None else None,
            outer_key=compile_projection([l for l, _r in equi], left.node.layout),
        )

    # ------------------------------------------------------------------
    # Projection / aggregation
    # ------------------------------------------------------------------
    def _expand_stars(
        self, items: Sequence[ast.SelectItem], layout: RowLayout
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, name in layout.columns:
                    if item.expr.table is None or item.expr.table == binding:
                        expanded.append(
                            ast.SelectItem(ast.ColumnRef(name, binding), None)
                        )
                if item.expr.table is not None and not any(
                    binding == item.expr.table for binding, _ in layout.columns
                ):
                    raise UnknownObjectError(
                        f"table {item.expr.table!r} not found for '*' expansion"
                    )
            else:
                expanded.append(item)
        return expanded

    def _plan_project(
        self, node: planlib.PlanNode, items: list[ast.SelectItem]
    ) -> tuple[planlib.PlanNode, list[str], list[SqlType | None]]:
        project = compile_projection([item.expr for item in items], node.layout)
        names: list[str] = []
        types: list[SqlType | None] = []
        for index, item in enumerate(items):
            names.append(item.alias or _default_name(item.expr, index))
            types.append(_infer_type(item.expr, node.layout, node.types))
        out_layout = RowLayout()
        for name in names:
            out_layout.add(None, name)
        return planlib.ProjectNode(node, project, out_layout, types, names), names, types

    def _plan_aggregate(
        self,
        node: planlib.PlanNode,
        items: list[ast.SelectItem],
        group_by: list[ast.Expr],
        having: ast.Expr | None,
        classes: EquivalenceClasses,
    ) -> tuple[planlib.PlanNode, list[str], list[SqlType | None]]:
        child_layout = node.layout

        # Unique aggregate calls (by rendered fingerprint).
        agg_order: list[ast.FunctionCall] = []
        agg_index: dict[str, int] = {}

        def collect_aggs(expr: ast.Expr) -> None:
            for sub in ast.walk(expr):
                if ast.is_aggregate_call(sub):
                    fingerprint = render_expr(sub)
                    if fingerprint not in agg_index:
                        agg_index[fingerprint] = len(agg_order)
                        agg_order.append(sub)  # type: ignore[arg-type]

        for item in items:
            collect_aggs(item.expr)
        if having is not None:
            collect_aggs(having)

        # Synthetic layout: group keys then aggregate results.
        synthetic = RowLayout()
        group_fingerprints: dict[str, str] = {}
        for position, group_expr in enumerate(group_by):
            name = f"#g{position}"
            synthetic.add(None, name)
            group_fingerprints[render_expr(group_expr)] = name
        for position in range(len(agg_order)):
            synthetic.add(None, f"#a{position}")

        group_key = compile_projection(group_by, child_layout)

        agg_factories = []
        for call in agg_order:
            is_star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
            no_args = len(call.args) == 0
            if is_star or (no_args and call.name.upper() == "COUNT"):
                arg_fn = None
                star = True
            else:
                if len(call.args) != 1:
                    raise ExecutionError(
                        f"aggregate {call.name} takes exactly one argument"
                    )
                arg_fn = compile_expr(call.args[0], child_layout)
                star = False
            agg_factories.append(
                make_aggregate_factory(call.name, arg_fn, call.distinct, star)
            )

        def rewrite(expr: ast.Expr) -> ast.Expr:
            """Replace aggregate calls and group-key expressions with
            references into the synthetic group row."""
            fingerprint = render_expr(expr)
            if ast.is_aggregate_call(expr):
                return ast.ColumnRef(f"#a{agg_index[fingerprint]}")
            if fingerprint in group_fingerprints:
                return ast.ColumnRef(group_fingerprints[fingerprint])
            if isinstance(expr, ast.ColumnRef):
                # A column equivalent to a group key (via join equality)
                # is also grouped.
                for g_fp, g_name in group_fingerprints.items():
                    member = expr.key()
                    if classes.equivalent(member, g_fp):
                        return ast.ColumnRef(g_name)
                raise ExecutionError(
                    f"column {expr.key()!r} must appear in the GROUP BY "
                    "clause or be used in an aggregate function"
                )
            if isinstance(expr, ast.BinaryOp):
                return ast.BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, ast.UnaryOp):
                return ast.UnaryOp(expr.op, rewrite(expr.operand))
            if isinstance(expr, ast.IsNull):
                return ast.IsNull(rewrite(expr.operand), expr.negated)
            if isinstance(expr, ast.Between):
                return ast.Between(
                    rewrite(expr.operand),
                    rewrite(expr.low),
                    rewrite(expr.high),
                    expr.negated,
                )
            if isinstance(expr, ast.InList):
                return ast.InList(
                    rewrite(expr.operand),
                    tuple(rewrite(i) for i in expr.items),
                    expr.negated,
                )
            if isinstance(expr, ast.FunctionCall):
                return ast.FunctionCall(
                    expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct
                )
            if isinstance(expr, ast.Cast):
                return ast.Cast(rewrite(expr.operand), expr.target)
            if isinstance(expr, ast.Extract):
                return ast.Extract(expr.field, rewrite(expr.operand))
            if isinstance(expr, ast.CaseExpr):
                return ast.CaseExpr(
                    rewrite(expr.operand) if expr.operand is not None else None,
                    tuple((rewrite(w), rewrite(t)) for w, t in expr.whens),
                    rewrite(expr.default) if expr.default is not None else None,
                )
            return expr

        output = compile_projection([rewrite(item.expr) for item in items], synthetic)
        names: list[str] = []
        types: list[SqlType | None] = []
        for index, item in enumerate(items):
            names.append(item.alias or _default_name(item.expr, index))
            types.append(_infer_type(item.expr, child_layout, node.types))

        having_fn = None
        if having is not None:
            having_fn = compile_expr(rewrite(having), synthetic)

        out_layout = RowLayout()
        for name in names:
            out_layout.add(None, name)
        agg_node = planlib.AggregateNode(
            node,
            group_key,
            agg_factories,
            output,
            having_fn,
            out_layout,
            types,
            names,
            implicit_single_group=not group_by,
        )
        return agg_node, names, types

    def _plan_sort(
        self,
        node: planlib.PlanNode,
        order_by: Sequence[ast.OrderItem],
        names: list[str],
        items: list[ast.SelectItem] | None = None,
    ) -> planlib.PlanNode:
        """Sort over the node's own (output) layout — used for aggregate
        queries, where ORDER BY must name output columns."""
        key_fns: list[CompiledExpr] = []
        descending: list[bool] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
                if not 0 <= position < len(names):
                    raise ExecutionError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                expr = ast.ColumnRef(names[position])
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                # Qualified/aggregate expressions were renamed by the
                # projection; map aliases onto output positions.
                if expr.name not in names and items is not None:
                    raise ExecutionError(
                        f"ORDER BY column {expr.name!r} must appear in the "
                        "select list of an aggregate query"
                    )
            key_fns.append(compile_expr(expr, node.layout))
            descending.append(item.descending)
        return planlib.SortNode(node, key_fns, descending)

    def _resolve_order_keys(
        self,
        order_by: Sequence[ast.OrderItem],
        items: list[ast.SelectItem],
        resolver,
    ) -> list[ast.OrderItem]:
        """Rewrite ORDER BY keys for evaluation below the projection:
        positional references and select-list aliases become the item's
        expression; everything else is qualified against the FROM scope."""
        alias_map: dict[str, ast.Expr] = {}
        for index, item in enumerate(items):
            name = item.alias or _default_name(item.expr, index)
            alias_map.setdefault(name, item.expr)
        resolved: list[ast.OrderItem] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
                if not 0 <= position < len(items):
                    raise ExecutionError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                expr = items[position].expr
            elif (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_map
            ):
                expr = alias_map[expr.name]
            else:
                expr = qualify_columns(expr, resolver)
            resolved.append(ast.OrderItem(expr, item.descending))
        return resolved

    # ------------------------------------------------------------------
    def _make_resolver(self, layout: RowLayout):
        def resolve(ref: ast.ColumnRef) -> ast.ColumnRef:
            if ref.table is not None:
                layout.position(ref)  # validates
                return ref
            position = layout.position(ref)
            binding, name = layout.columns[position]
            return ast.ColumnRef(name, binding)

        return resolve


# ======================================================================
# Helpers
# ======================================================================


def _conjunct_bindings(conjunct: ast.Expr) -> frozenset[str]:
    if isinstance(conjunct, ast.TidRange):
        return frozenset({conjunct.binding})
    return frozenset(
        node.table
        for node in ast.walk(conjunct)
        if isinstance(node, ast.ColumnRef) and node.table is not None
    )


def _has_equi_link(
    conjuncts: list[ast.Expr],
    left_bindings: frozenset[str],
    right_bindings: frozenset[str],
) -> bool:
    for conjunct in conjuncts:
        if _equi_join_parts(conjunct, left_bindings, right_bindings) is not None:
            return True
    return False


def _equi_join_parts(
    conjunct: ast.Expr,
    left_bindings: frozenset[str],
    right_bindings: frozenset[str],
) -> tuple[ast.Expr, ast.Expr] | None:
    """If ``conjunct`` is ``exprL = exprR`` where each side references
    exactly one of the two binding sets, return (left_expr, right_expr)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    refs_left = _conjunct_bindings(conjunct.left)
    refs_right = _conjunct_bindings(conjunct.right)
    if not refs_left or not refs_right:
        return None
    if refs_left <= left_bindings and refs_right <= right_bindings:
        return conjunct.left, conjunct.right
    if refs_left <= right_bindings and refs_right <= left_bindings:
        return conjunct.right, conjunct.left
    return None


def _equality_parts(
    conjunct: ast.Expr, binding: str
) -> tuple[str | None, ast.Expr | None]:
    """If ``conjunct`` is ``binding.col = <column-free expr>`` (either
    side), return (col, value_expr); else (None, None)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None, None
    for column_side, value_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(column_side, ast.ColumnRef)
            and column_side.table == binding
            and not any(
                isinstance(n, ast.ColumnRef) for n in ast.walk(value_side)
            )
        ):
            return column_side.name, value_side
    return None, None


# Column types an ordered index can be range-bounded on: the ones whose
# stored values order in Python as they do in SQL (no float NaN, no
# string collation, no bool).
_BOUNDABLE_KINDS = frozenset({
    TypeKind.INT, TypeKind.BIGINT, TypeKind.DECIMAL, TypeKind.DATE,
    TypeKind.TIMESTAMP,
})

_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _range_parts(
    conjunct: ast.Expr, binding: str, column: str
) -> tuple[str | None, ast.Expr | None]:
    """If ``conjunct`` compares ``binding.column`` with ``<``, ``<=``,
    ``>`` or ``>=`` against a column-free expression (either operand
    order), return (op with the column on the left, value_expr); else
    (None, None)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIPPED):
        return None, None
    for column_side, value_side, op in (
        (conjunct.left, conjunct.right, conjunct.op),
        (conjunct.right, conjunct.left, _FLIPPED[conjunct.op]),
    ):
        if (
            isinstance(column_side, ast.ColumnRef)
            and column_side.table == binding
            and column_side.name == column
            and not any(
                isinstance(n, ast.ColumnRef) for n in ast.walk(value_side)
            )
        ):
            return op, value_side
    return None, None


def _default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    if isinstance(expr, ast.Extract):
        return "extract"
    return f"column{index + 1}"


def _infer_type(
    expr: ast.Expr, layout: RowLayout, types: list[SqlType | None]
) -> SqlType | None:
    """Best-effort result-type inference (CREATE TABLE AS SELECT)."""
    if isinstance(expr, ast.ColumnRef):
        position = layout.try_position(expr)
        if position is not None and position < len(types):
            return types[position]
        return None
    if isinstance(expr, ast.Literal):
        return _literal_type(expr.value)
    if isinstance(expr, ast.Cast):
        return expr.target
    if isinstance(expr, ast.Extract):
        return SqlType(TypeKind.INT)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "<>", "<", ">", "<=", ">=", "LIKE"):
            return SqlType(TypeKind.BOOL)
        if expr.op == "||":
            return SqlType(TypeKind.TEXT)
        left = _infer_type(expr.left, layout, types)
        right = _infer_type(expr.right, layout, types)
        return _merge_numeric(left, right)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return SqlType(TypeKind.BOOL)
        return _infer_type(expr.operand, layout, types)
    if isinstance(expr, (ast.IsNull, ast.Between, ast.InList)):
        return SqlType(TypeKind.BOOL)
    if isinstance(expr, ast.FunctionCall):
        name = expr.name.upper()
        if name == "COUNT":
            return SqlType(TypeKind.BIGINT)
        if name in ("SUM", "MIN", "MAX"):
            if expr.args and not isinstance(expr.args[0], ast.Star):
                inner = _infer_type(expr.args[0], layout, types)
                if name == "SUM" and inner is not None and inner.kind is TypeKind.INT:
                    return SqlType(TypeKind.BIGINT)
                return inner
            return None
        if name == "AVG":
            return SqlType(TypeKind.FLOAT)
        if name in ("LOWER", "UPPER", "TRIM", "RTRIM", "LTRIM", "SUBSTR", "SUBSTRING"):
            return SqlType(TypeKind.TEXT)
        if name == "LENGTH":
            return SqlType(TypeKind.INT)
        if name == "COALESCE" and expr.args:
            return _infer_type(expr.args[0], layout, types)
        return None
    if isinstance(expr, ast.CaseExpr):
        for _when, then in expr.whens:
            inferred = _infer_type(then, layout, types)
            if inferred is not None:
                return inferred
        if expr.default is not None:
            return _infer_type(expr.default, layout, types)
        return None
    return None


def _literal_type(value: Any) -> SqlType | None:
    if isinstance(value, bool):
        return SqlType(TypeKind.BOOL)
    if isinstance(value, int):
        return SqlType(TypeKind.BIGINT)
    if isinstance(value, float):
        return SqlType(TypeKind.FLOAT)
    if isinstance(value, Decimal):
        return SqlType(TypeKind.DECIMAL)
    if isinstance(value, str):
        return SqlType(TypeKind.TEXT)
    if isinstance(value, datetime.datetime):
        return SqlType(TypeKind.TIMESTAMP)
    if isinstance(value, datetime.date):
        return SqlType(TypeKind.DATE)
    return None


def _merge_numeric(
    left: SqlType | None, right: SqlType | None
) -> SqlType | None:
    if left is None:
        return right
    if right is None:
        return left
    order = [TypeKind.INT, TypeKind.BIGINT, TypeKind.DECIMAL, TypeKind.FLOAT]
    if left.kind in order and right.kind in order:
        kind = order[max(order.index(left.kind), order.index(right.kind))]
        if kind is TypeKind.DECIMAL:
            return SqlType(TypeKind.DECIMAL)
        return SqlType(kind)
    return left


def _push_into_subqueries(
    select: ast.Select, where_conjuncts: list[ast.Expr]
) -> ast.Select | None:
    """Predicate pushdown through derived tables (view expansion turns
    views into subqueries, so this is what moves a client filter onto
    the base tables — the PostgreSQL behaviour BullFrog's section 2.1
    example leans on).

    ``where_conjuncts`` are the already-qualified WHERE conjuncts.  A
    conjunct referencing only one subquery source is rewritten through
    that subquery's projection and ANDed into its inner WHERE, provided
    the subquery has no aggregation/DISTINCT/LIMIT (pushing below those
    changes semantics) and every referenced output column maps to a
    plain projected expression.  Returns the rewritten SELECT, or None
    when nothing was pushed.
    """
    subqueries: dict[str, ast.SubquerySource] = {}

    def collect(item: ast.FromItem) -> None:
        if isinstance(item, ast.SubquerySource):
            subqueries[item.alias] = item
        elif isinstance(item, ast.Join):
            collect(item.left)
            collect(item.right)

    for item in select.from_items:
        collect(item)
    if not subqueries or not where_conjuncts:
        return None

    pushed: dict[str, list[ast.Expr]] = {alias: [] for alias in subqueries}
    kept: list[ast.Expr] = []
    for conjunct in where_conjuncts:
        target = _single_subquery_target(conjunct, subqueries)
        if target is None:
            kept.append(conjunct)
            continue
        rewritten = _rewrite_through_projection(
            conjunct, subqueries[target].query
        )
        if rewritten is None:
            kept.append(conjunct)
        else:
            pushed[target].append(rewritten)

    if not any(pushed.values()):
        return None

    replacements: dict[str, ast.SubquerySource] = {}
    for alias, conjuncts in pushed.items():
        if not conjuncts:
            continue
        inner = subqueries[alias].query
        where = inner.where
        for conjunct in conjuncts:
            where = conjunct if where is None else ast.BinaryOp("AND", where, conjunct)
        replacements[alias] = ast.SubquerySource(
            ast.Select(
                items=inner.items,
                from_items=inner.from_items,
                where=where,
                group_by=inner.group_by,
                having=inner.having,
                order_by=inner.order_by,
                limit=inner.limit,
                offset=inner.offset,
                distinct=inner.distinct,
            ),
            alias,
        )

    def replace(item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.SubquerySource) and item.alias in replacements:
            return replacements[item.alias]
        if isinstance(item, ast.Join):
            return ast.Join(item.kind, replace(item.left), replace(item.right), item.condition)
        return item

    return ast.Select(
        items=select.items,
        from_items=tuple(replace(item) for item in select.from_items),
        where=conjoin(kept),
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _single_subquery_target(
    conjunct: ast.Expr, subqueries: dict[str, ast.SubquerySource]
) -> str | None:
    """The alias of the only subquery this conjunct references, if every
    column ref is qualified by exactly that alias."""
    aliases: set[str] = set()
    for node in ast.walk(conjunct):
        if isinstance(node, ast.ColumnRef):
            if node.table is None or node.table not in subqueries:
                return None
            aliases.add(node.table)
    if len(aliases) == 1:
        return next(iter(aliases))
    return None


def _rewrite_through_projection(
    conjunct: ast.Expr, inner: ast.Select
) -> ast.Expr | None:
    """Substitute the subquery's output columns with their defining
    expressions; None when the push is not semantics-preserving."""
    if inner.group_by or inner.having is not None or inner.distinct:
        return None
    if inner.limit is not None or inner.offset is not None:
        return None
    projection: dict[str, ast.Expr] = {}
    for index, item in enumerate(inner.items):
        if isinstance(item.expr, ast.Star):
            return None  # unresolved star: handled conservatively
        name = item.alias or _default_name(item.expr, index)
        projection.setdefault(name, item.expr)
        if any(ast.is_aggregate_call(n) for n in ast.walk(item.expr)):
            projection[name] = None  # type: ignore[assignment]
    for node in ast.walk(conjunct):
        if isinstance(node, ast.ColumnRef) and projection.get(node.name) is None:
            return None

    from .rewrite import transform_expr

    def substitute(node: ast.Expr) -> ast.Expr | None:
        if isinstance(node, ast.ColumnRef):
            return projection[node.name]
        return None

    return transform_expr(conjunct, substitute)
