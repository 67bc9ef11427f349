"""Predicate transfer: bounding lazy-migration scope from client requests
(paper section 2.1).

Given a client statement over the *new* schema, BullFrog converts its
filtering predicates into predicates over the *old* schema so that only
potentially-relevant tuples migrate.  The paper does this by creating a
view whose body is the migration SELECT and letting PostgreSQL's view
expansion + optimizer push the filters down; here we perform the same
substitution directly on the AST:

1. collect the statement's conjuncts that reference only the new
   table's columns;
2. substitute each referenced output column with its defining
   expression from the migration SELECT (view expansion through the
   projection);
3. split the resulting old-schema conjuncts per input table, deriving
   extra single-table predicates through join-equality equivalence
   classes (``FID = 'AA101'`` lands on both FLIGHTS and FLEWON);
4. enumerate the matching granules (bitmap units) or group keys
   (hashmap units) — in the worst case, when nothing is pushable, the
   scope is the entire input table (section 2.4).

Aggregate-valued output columns are not pushable through a GROUP BY
(only group keys are), matching what an optimizer can push through an
aggregating view.

All of that happens once per prepared statement: :meth:`PredicateTransfer.
compile_scope` returns a ``fn(params) -> Scope`` whose scans were planned
and compiled with the statement's ``?`` left as parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..sql import ast_nodes as ast
from ..exec.expressions import key_getter
from ..exec.plan import ExecutionContext
from ..exec.rewrite import (
    EquivalenceClasses,
    conjoin,
    derive_equivalent_predicates,
    expand_views,
    split_conjuncts,
    transform_expr,
)
from .classify import MigrationCategory, UnitPlan
from .constraints import constraint_conjuncts


@dataclass
class Scope:
    """The migration scope induced by one client statement on one unit.

    Exactly one of the flavours applies:

    * bitmap units — ``granules``: the set of granule ordinals to claim,
      or ``full = True`` for whole-table scope;
    * hashmap units — ``keys``: the set of group keys, or ``full``.
    """

    full: bool = False
    granules: set[int] = field(default_factory=set)
    keys: set[tuple] = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.granules and not self.keys


ScopeFn = Callable[[Sequence[Any]], Scope]


def _full_scope(params: Sequence[Any]) -> Scope:
    return Scope(full=True)


class PredicateTransfer:
    """Compiles migration scopes for a single migration unit."""

    def __init__(
        self, unit: UnitPlan, catalog, planner, granule_size: int = 1
    ) -> None:
        self.unit = unit
        self.catalog = catalog
        self.planner = planner
        self.granule_size = granule_size
        self.output_tables = frozenset(unit.output_tables)
        # Per output table: column name -> defining expression.
        self._projections: dict[str, dict[str, ast.Expr]] = {}
        for output in unit.outputs:
            self._projections[output.table] = dict(
                zip(output.column_names, output.items)
            )
        # Which output columns are safe to push: for n:1 units only the
        # group-key expressions survive the GROUP BY.
        self._pushable: dict[str, set[str]] = {}
        for output in unit.outputs:
            if unit.category is MigrationCategory.N_TO_ONE:
                group = set(unit.group_columns)
                pushable = {
                    name
                    for name, expr in self._projections[output.table].items()
                    if isinstance(expr, ast.ColumnRef) and expr.name in group
                }
            else:
                pushable = set(output.column_names)
            self._pushable[output.table] = pushable

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compile_scope(self, stmt: ast.Statement) -> ScopeFn | None:
        """``fn(params) -> Scope``: what ``stmt`` needs migrated in this
        unit before it runs — or None when it touches none of the unit's
        outputs.  Built once per prepared statement; an execution only
        binds parameters and runs the compiled scans.

        The scope is the *union* of independent conjunct groups, each
        compiled on its own: the client's own predicates, one group per
        reference to an output (SELECT / UPDATE / DELETE, or an INSERT's
        SELECT, with views expanded), and every constraint group of
        :mod:`repro.core.constraints` — one per VALUES row and unique
        key, per FK parent, per unique key an UPDATE assigns.  ANDing
        them would keep only rows every group needs: a self-join, a
        two-row INSERT, or one conflicting on only one of two keys,
        would migrate nothing and slip past the old rows it reads or
        collides with."""
        groups = self._client_groups(stmt)
        if groups is None:
            return _full_scope  # referenced, nothing pushable
        if isinstance(stmt, (ast.Insert, ast.Update)) and self.catalog.has_table(
            stmt.table
        ):
            table = self.catalog.table(stmt.table)
            for output, predicate in constraint_conjuncts(
                table, stmt, self.output_tables
            ):
                if predicate is None:
                    return _full_scope
                groups.append([(output, predicate)])
        if not groups:
            return None
        computers = [self._compile_group(group) for group in groups]
        if _full_scope in computers:
            return _full_scope
        if len(computers) == 1:
            return computers[0]

        def union(params: Sequence[Any]) -> Scope:
            granules: set[int] = set()
            keys: set[tuple] = set()
            for computer in computers:
                part = computer(params)
                granules |= part.granules
                keys |= part.keys
            return Scope(granules=granules, keys=keys)

        return union

    def _compile_group(self, conjuncts: list[tuple[str, ast.Expr]]) -> ScopeFn:
        """One conjunct group — (output_table, conjunct over unqualified
        output columns) pairs, ANDed — as ``fn(params) -> Scope``.
        Parameters stay ``Param`` placeholders in the compiled scans."""
        old_conjuncts: list[ast.Expr] = []
        any_pushable = False
        for output_table, conjunct in conjuncts:
            mapped = self._map_through_projection(output_table, conjunct)
            if mapped is None:
                continue
            any_pushable = True
            # Split AND trees so equality components are individually
            # visible to the pinned-key fast path and to equivalence
            # derivation (constraint-driven conjuncts arrive as one
            # combined AND per unique set).
            old_conjuncts.extend(split_conjuncts(mapped))
        if not any_pushable:
            return _full_scope
        classes = EquivalenceClasses.from_conjuncts(
            old_conjuncts + self._join_equalities()
        )
        old_conjuncts = old_conjuncts + derive_equivalent_predicates(
            old_conjuncts, classes
        )
        return self._compile_enumerate(old_conjuncts)

    # ------------------------------------------------------------------
    # Step 1: collect client conjuncts on the new table(s)
    # ------------------------------------------------------------------
    def _client_groups(
        self, stmt: ast.Statement
    ) -> list[list[tuple[str, ast.Expr]]] | None:
        """One group of per-output-table conjuncts for each reference the
        statement (an INSERT's SELECT, if any) makes to this unit's
        outputs: the conjuncts that filter that reference alone.  Returns
        None when some reference has no usable filter (full scope)."""
        output_tables = self.output_tables
        # (output table, the names its columns are qualified with)
        references: list[tuple[str, set[str]]] = []

        if isinstance(stmt, ast.Insert):
            return [] if stmt.query is None else self._client_groups(stmt.query)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            if stmt.table not in output_tables:
                return []
            references.append((stmt.table, {stmt.alias or stmt.table, stmt.table}))
            conjuncts = split_conjuncts(stmt.where)
        elif isinstance(stmt, ast.Select):
            stmt = expand_views(stmt, self.planner.view_body)
            subqueries: list[ast.Select] = []

            def collect(item: ast.FromItem, conjuncts_out: list[ast.Expr]) -> None:
                if isinstance(item, ast.TableRef):
                    if item.name in output_tables:
                        references.append((item.name, {item.binding}))
                elif isinstance(item, ast.Join):
                    collect(item.left, conjuncts_out)
                    collect(item.right, conjuncts_out)
                    if item.condition is not None:
                        conjuncts_out.extend(split_conjuncts(item.condition))
                elif isinstance(item, ast.SubquerySource):
                    subqueries.append(item.query)

            join_conjuncts: list[ast.Expr] = []
            for item in stmt.from_items:
                collect(item, join_conjuncts)
            if any(self._client_groups(query) != [] for query in subqueries):
                # The outer filters do not bound what a derived table
                # reads of this unit's outputs: all of it.
                return None
            conjuncts = split_conjuncts(stmt.where) + join_conjuncts
        else:
            return []

        groups = []
        for table_name, names in references:
            group = []
            for conjunct in conjuncts:
                normalized = self._normalize_conjunct(conjunct, table_name, names)
                if normalized is not None:
                    group.append((table_name, normalized))
            if not group:
                return None  # referenced, but no pushable filter: full scope
            groups.append(group)
        return groups

    def _normalize_conjunct(
        self, conjunct: ast.Expr, output_table: str, bindings: set[str]
    ) -> ast.Expr | None:
        """If every column ref in ``conjunct`` belongs to ``bindings``
        (or is unqualified) and names a column of ``output_table``,
        return the conjunct with refs rewritten to bare output column
        names; else None."""
        columns = self._projections[output_table]
        for node in ast.walk(conjunct):
            if isinstance(node, ast.ColumnRef):
                if node.table is not None and node.table not in bindings:
                    return None
                if node.name not in columns:
                    return None

        def strip(node: ast.Expr) -> ast.Expr | None:
            if isinstance(node, ast.ColumnRef):
                return ast.ColumnRef(node.name)
            return None

        return transform_expr(conjunct, strip)

    # ------------------------------------------------------------------
    # Step 2: substitute output columns with defining expressions
    # ------------------------------------------------------------------
    def _map_through_projection(
        self, output_table: str, conjunct: ast.Expr
    ) -> ast.Expr | None:
        projection = self._projections[output_table]
        pushable = self._pushable[output_table]
        for node in ast.walk(conjunct):
            if isinstance(node, ast.ColumnRef) and node.name not in pushable:
                return None

        def substitute(node: ast.Expr) -> ast.Expr | None:
            if isinstance(node, ast.ColumnRef):
                return projection[node.name]
            return None

        return transform_expr(conjunct, substitute)

    def _join_equalities(self) -> list[ast.Expr]:
        """Equality conjuncts implied by the unit's join structure, used
        to seed equivalence classes."""
        unit = self.unit
        equalities: list[ast.Expr] = []
        if unit.aux is not None:
            for anchor_col, aux_col in unit.aux.pairs:
                equalities.append(
                    ast.BinaryOp(
                        "=",
                        ast.ColumnRef(anchor_col, unit.anchor_binding),
                        ast.ColumnRef(aux_col, unit.aux.binding),
                    )
                )
        if unit.join_key is not None:
            jk = unit.join_key
            for anchor_col, other_col in zip(jk.anchor_columns, jk.other_columns):
                equalities.append(
                    ast.BinaryOp(
                        "=",
                        ast.ColumnRef(anchor_col, unit.anchor_binding),
                        ast.ColumnRef(other_col, jk.other_binding),
                    )
                )
        return equalities

    # ------------------------------------------------------------------
    # Step 3/4: split per old table and enumerate granules / keys
    # ------------------------------------------------------------------
    def _per_table_predicate(
        self, conjuncts: list[ast.Expr], binding: str
    ) -> ast.Expr | None:
        mine = []
        for conjunct in conjuncts:
            refs = {
                node.table
                for node in ast.walk(conjunct)
                if isinstance(node, ast.ColumnRef)
            }
            if refs and refs <= {binding}:
                mine.append(conjunct)
        return conjoin(mine)

    def _compile_enumerate(self, conjuncts: list[ast.Expr]) -> ScopeFn:
        unit = self.unit
        if unit.category.uses_bitmap:
            predicate = self._per_table_predicate(conjuncts, unit.anchor_binding)
            if predicate is None:
                return _full_scope
            return self._compile_bitmap_scope(predicate)
        if unit.category is MigrationCategory.N_TO_ONE:
            return self._compile_group_scope(conjuncts)
        return self._compile_join_scope(conjuncts)

    def _compile_scan(self, table_name: str, binding: str, predicate: ast.Expr):
        """fn(params) -> the (tid, row) pairs of ``table_name`` that
        satisfy ``predicate``: one planned scan over the current heads,
        taking no locks."""
        scan = self.planner.plan_dml_scan(
            table_name, binding, predicate, allow_retired=True
        ).compile_tids()
        catalog = self.catalog
        return lambda params: scan(ExecutionContext(
            catalog=catalog, txn=None, params=params, allow_retired=True,
        ))

    def _compile_bitmap_scope(self, predicate: ast.Expr) -> ScopeFn:
        scan = self._compile_scan(self.unit.anchor, self.unit.anchor_binding, predicate)
        size = self.granule_size
        return lambda params: Scope(granules={tid // size for tid, _row in scan(params)})

    def _compile_group_scope(self, conjuncts: list[ast.Expr]) -> ScopeFn:
        unit = self.unit
        pinned = self._pinned_scope(conjuncts, unit.anchor_binding, unit.group_columns)
        if pinned is not None:
            return pinned
        predicate = self._per_table_predicate(conjuncts, unit.anchor_binding)
        if predicate is None:
            return _full_scope
        collect = self._compile_key_collector(
            unit.anchor, unit.anchor_binding, predicate, unit.group_columns
        )
        return lambda params: Scope(keys=collect(params))

    def _compile_join_scope(self, conjuncts: list[ast.Expr]) -> ScopeFn:
        unit = self.unit
        jk = unit.join_key
        assert jk is not None
        anchor_pred = self._per_table_predicate(conjuncts, unit.anchor_binding)
        other_pred = self._per_table_predicate(conjuncts, jk.other_binding)
        if anchor_pred is None and other_pred is None:
            return _full_scope

        # Pinned fast path: if either side's key columns are all pinned
        # by equalities, the group key is known without any scan.
        pinned = self._pinned_scope(
            conjuncts, unit.anchor_binding, jk.anchor_columns
        ) or self._pinned_scope(conjuncts, jk.other_binding, jk.other_columns)
        if pinned is not None:
            return pinned

        if anchor_pred is None:
            collect_other = self._compile_key_collector(
                jk.other_table, jk.other_binding, other_pred, jk.other_columns
            )
            return lambda params: Scope(keys=collect_other(params))
        # A join-value group is relevant to the request only if SOME
        # anchor row with that value matches the anchor-side predicate
        # AND SOME other-side row matches the other-side predicate —
        # when both sides filter, the needed keys are the intersection.
        # Enumerate ONE side and probe the other per candidate key
        # (one planned scan per key), never a second full enumeration.
        collect_anchor = self._compile_key_collector(
            unit.anchor, unit.anchor_binding, anchor_pred, jk.anchor_columns
        )
        if other_pred is None:
            return lambda params: Scope(keys=collect_anchor(params))
        filter_other = self._compile_key_filter(
            jk.other_table, jk.other_binding, other_pred, jk.other_columns
        )
        return lambda params: Scope(
            keys=filter_other(collect_anchor(params), params)
        )

    def _pinned_scope(
        self,
        conjuncts: list[ast.Expr],
        binding: str,
        key_columns: tuple[str, ...],
    ) -> ScopeFn | None:
        """When every key column of ``binding`` is pinned to a literal or
        parameter, the one group key is known without a scan.  A bound
        key holding NULL matches no row (``= NULL`` is never true): its
        scope is empty, so no NULL key is ever claimed and marked
        migrated."""
        pinned = _pinned_value_getters(conjuncts, binding)
        if not all(column in pinned for column in key_columns):
            return None
        getters = [pinned[column] for column in key_columns]

        def compute(params: Sequence[Any]) -> Scope:
            key = tuple(get(params) for get in getters)
            return Scope() if None in key else Scope(keys={key})

        return compute

    def _compile_key_filter(
        self,
        table_name: str,
        binding: str,
        predicate: ast.Expr,
        key_columns: tuple[str, ...],
    ):
        """fn(keys, params) -> the keys some row of ``table_name`` that
        satisfies ``predicate`` has: one planned scan of ``predicate AND
        key_column = ?`` per key, bound after the statement's own
        parameters.  A key with a NULL part matches no row (SQL ``=``),
        as in :meth:`_pinned_scope`, and is not probed."""
        first = 1 + max(
            (node.index for node in ast.walk(predicate) if isinstance(node, ast.Param)),
            default=-1,
        )
        keyed = conjoin([predicate] + [
            ast.BinaryOp("=", ast.ColumnRef(column, binding), ast.Param(first + i))
            for i, column in enumerate(key_columns)
        ])
        scan = self._compile_scan(table_name, binding, keyed)

        def matching(keys: set[tuple], params: Sequence[Any]) -> set[tuple]:
            head = tuple(params[:first])
            return {key for key in keys if None not in key and scan(head + key)}

        return matching

    def _compile_key_collector(
        self,
        table_name: str,
        binding: str,
        predicate: ast.Expr,
        key_columns: tuple[str, ...],
    ):
        scan = self._compile_scan(table_name, binding, predicate)
        schema = self.catalog.table(table_name).schema
        key_of = key_getter([schema.column_index(c) for c in key_columns])
        return lambda params: {key_of(row) for _tid, row in scan(params)}


def _pinned_value_getters(
    conjuncts: list[ast.Expr], binding: str
) -> dict[str, Any]:
    """Columns of ``binding`` pinned by equality to a literal or a
    statement parameter; values are ``fn(params) -> value`` getters."""
    pinned: dict[str, Any] = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for column_side, value_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not (
                isinstance(column_side, ast.ColumnRef)
                and column_side.table == binding
            ):
                continue
            if isinstance(value_side, ast.Literal):
                pinned.setdefault(
                    column_side.name,
                    lambda params, v=value_side.value: v,
                )
            elif isinstance(value_side, ast.Param):
                pinned.setdefault(
                    column_side.name,
                    lambda params, i=value_side.index: params[i],
                )
    return pinned
