"""Physical plan nodes, compiled into closures at prepare time.

Plan nodes are built by :mod:`repro.exec.planner` with all expressions
pre-compiled.  A node is executed through ``compile()``, once per
prepared statement: it returns ``run(ctx) -> list of rows``.  A base
table scan with its residual filter and the projection above it
compiles into *one* loop that appends straight into the result list
(:meth:`TableScan.compile`); every other node consumes its child's
list.  The tree itself stays what ``explain()`` and EXPLAIN ANALYZE
(:func:`instrument_plan`) walk — there is no second, row-at-a-time
execution path.  Nodes carry a
:class:`~repro.exec.expressions.RowLayout` describing their output and
a parallel list of inferred column types (used by CREATE TABLE AS
SELECT).

Storage is read through ``HeapTable.read`` / ``read_snapshot`` and the
index ``lookup`` / ``prefix_scan`` methods, looked up on the objects
at every execution, so wrappers installed on those classes see every
read.

Locking policy (documented in DESIGN.md): scans take a table-level IS
lock — enough to make eager migration's exclusive table lock block all
access, which is the downtime behaviour the paper measures — while
tuple-level X locks are taken by DML in the executor.  Readers do not
take tuple locks (read-committed-style), standing in for PostgreSQL's
MVCC snapshot reads.
"""

from __future__ import annotations

import copy
import datetime
import math
import operator
import time
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain
from typing import Any, Callable, Sequence

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import: catalog depends on exec.expressions
    from ..catalog.catalog import Table

from ..errors import InvalidRowCount, TypeError_
from ..storage.index import Index
from ..storage.tid import Tid
from ..txn.locks import LockMode
from ..txn.manager import Transaction
from ..types import SqlType
from .expressions import CompiledExpr, RowLayout, compare_values, predicate_satisfied
from .operators import OperatorStats

Row = tuple[Any, ...]
Projection = Callable[[Row, Sequence[Any]], Row]
Compiled = Callable[["ExecutionContext"], list]

_second = operator.itemgetter(1)


@dataclass
class ExecutionContext:
    """Everything an operator needs at runtime."""

    catalog: Any  # repro.catalog.Catalog (Any avoids a cycle in type hints)
    txn: Transaction | None
    params: Sequence[Any] = ()
    allow_retired: bool = False  # migration-internal txns may read old schema
    lock_tables: bool = True
    # Row-change hooks: table name -> [fn(ctx, op, tid, old_row, new_row)].
    # The multi-step migration baseline registers trigger-style dual-write
    # hooks here; BullFrog itself does not use them.
    row_hooks: dict[str, list] = field(default_factory=dict)
    # SNAPSHOT isolation: scans read version chains as of this timestamp
    # (plus the transaction's own writes, identified by ``own_stamp``)
    # and skip the table-level IS lock — the lock-free read path.
    snapshot_ts: int | None = None
    own_stamp: Any = None  # repro.storage.version.CommitStamp | None
    # Lazy-migration interplay: pre-migration images of rows whose
    # granules are not yet visibly migrated at ``snapshot_ts``, keyed by
    # output-table name.  Built by the migration interceptor; scans
    # union them in so a snapshot reader never waits on in-flight
    # granule conversion.
    overlay: dict[str, list[Row]] | None = None

    def lock_table(self, name: str, mode: LockMode) -> None:
        if self.txn is not None and self.lock_tables:
            if self.snapshot_ts is not None and mode is LockMode.IS:
                return  # snapshot reads take no read locks
            self.txn.lock_table(name, mode)

    def overlay_rows(self, table_name: str) -> list[Row]:
        if self.overlay is None:
            return []
        return self.overlay.get(table_name, [])

    def fire_row_hooks(
        self, table_name: str, op: str, tid: Tid, old_row, new_row
    ) -> None:
        for hook in self.row_hooks.get(table_name, ()):
            hook(self, op, tid, old_row, new_row)


class PlanNode:
    """Base class for plan nodes."""

    layout: RowLayout
    types: list[SqlType | None]

    def compile(self) -> Compiled:
        """This node as one closure ``run(ctx) -> list of rows``.
        Called once per prepared plan; ``run`` is what executes."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> list[str]:
        """EXPLAIN-style description lines (used by tests and tooling)."""
        raise NotImplementedError


def _row_sink(
    filter_fn: CompiledExpr | None, project: Projection | None
) -> Callable[[Any, Sequence[Any]], list]:
    """The tail of a fused scan: ``sink(rows, params)`` runs the
    residual filter and the projection over candidate rows (``None``
    marks a tuple that vanished between index and heap) in one
    comprehension."""
    if filter_fn is None:
        if project is None:
            return lambda rows, params: [row for row in rows if row is not None]
        return lambda rows, params: [
            project(row, params) for row in rows if row is not None
        ]
    if project is None:
        return lambda rows, params: [
            row for row in rows
            if row is not None and filter_fn(row, params) is True
        ]
    return lambda rows, params: [
        project(row, params) for row in rows
        if row is not None and filter_fn(row, params) is True
    ]


def _pair_sink(
    filter_fn: CompiledExpr | None,
) -> Callable[[Any, Sequence[Any]], list[tuple[Tid, Row]]]:
    """:func:`_row_sink` for the DML form: keeps ``(tid, row)``."""
    if filter_fn is None:
        return lambda pairs, params: [
            (tid, row) for tid, row in pairs if row is not None
        ]
    return lambda pairs, params: [
        (tid, row) for tid, row in pairs
        if row is not None and filter_fn(row, params) is True
    ]


class TableScan(PlanNode):
    """A scan of a base table with its residual filter.

    Two compiled forms: ``compile(project)`` — the SELECT form, with the
    projection above it fused into the same loop and, under SNAPSHOT
    isolation, the interceptor's pre-migration overlay unioned in — and
    ``compile_tids()`` — the DML form, ``(tid, row)`` pairs for UPDATE /
    DELETE / FOR UPDATE and the migration scope probes.  Under SNAPSHOT
    the DML form reads the snapshot (SI semantics: DML targets the rows
    your snapshot shows; the executor's first-updater-wins check aborts
    if a target's current version committed after the snapshot) and has
    no overlay: the interceptor migrates a DML statement's scope
    synchronously, so write targets are always in the new table."""

    table: "Table"
    binding: str
    filter_fn: CompiledExpr | None
    filter_text: str

    def compile(self, project: Projection | None = None) -> Compiled:
        raise NotImplementedError

    def compile_tids(self) -> Callable[["ExecutionContext"], list[tuple[Tid, Row]]]:
        raise NotImplementedError


class SeqScanNode(TableScan):
    """Full scan of a base table with an optional residual filter."""

    def __init__(
        self,
        table: "Table",
        binding: str,
        layout: RowLayout,
        types: list[SqlType | None],
        filter_fn: CompiledExpr | None,
        filter_text: str = "",
    ) -> None:
        self.table = table
        self.binding = binding
        self.layout = layout
        self.types = types
        self.filter_fn = filter_fn
        self.filter_text = filter_text

    def compile(self, project: Projection | None = None) -> Compiled:
        name = self.table.schema.name
        heap = self.table.heap
        sink = _row_sink(self.filter_fn, project)

        def seq_scan(ctx: ExecutionContext) -> list:
            ctx.lock_table(name, LockMode.IS)
            snapshot_ts = ctx.snapshot_ts
            if snapshot_ts is None:
                return sink(map(_second, heap.scan()), ctx.params)
            rows = map(_second, heap.scan_snapshot(snapshot_ts, ctx.own_stamp))
            return sink(chain(rows, ctx.overlay_rows(name)), ctx.params)

        return seq_scan

    def compile_tids(self) -> Callable[["ExecutionContext"], list[tuple[Tid, Row]]]:
        name = self.table.schema.name
        heap = self.table.heap
        sink = _pair_sink(self.filter_fn)

        def seq_scan_tids(ctx: ExecutionContext) -> list[tuple[Tid, Row]]:
            ctx.lock_table(name, LockMode.IS)
            snapshot_ts = ctx.snapshot_ts
            if snapshot_ts is None:
                return sink(heap.scan(), ctx.params)
            return sink(heap.scan_snapshot(snapshot_ts, ctx.own_stamp), ctx.params)

        return seq_scan_tids

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}Seq Scan on {self.table.schema.name} {self.binding}"]
        if self.filter_text:
            lines.append(f"{pad}  Filter: {self.filter_text}")
        return lines


# Value types whose Python order is the SQL order (and the ordered
# index's): the only ones a range bound narrows a span with.
_ORDERED_TYPES = frozenset({int, Decimal, datetime.date, datetime.datetime})


def _index_bound(value: Any, coerce: Callable[[Any], Any]) -> Any:
    """``value`` as a bound on an ordered index column, or ``None`` when
    it cannot be one: NULL, any type outside :data:`_ORDERED_TYPES`
    (``bool``, ``str``, ``float``/NaN ...), a non-finite ``Decimal``, an
    aware ``datetime``, or a value the column's own coercion rejects or
    changes (``2.5`` for an INT column)."""
    kind = type(value)
    if kind not in _ORDERED_TYPES:
        return None
    if kind is Decimal and not value.is_finite():
        return None
    if kind is datetime.datetime and value.tzinfo is not None:
        return None
    try:
        coerced = coerce(value)
    except (TypeError_, ArithmeticError):
        return None
    if type(coerced) not in _ORDERED_TYPES or coerced != value:
        return None
    return coerced


class IndexScanNode(TableScan):
    """A span of an index, plus residual filter.  ``key_fn((), params)``
    computes the (possibly leading-prefix) equality key.  Under a prefix
    of an ordered index, ``low`` / ``high`` — ``(value_fn, inclusive)``
    range conjuncts on the next column, of SQL type ``range_type`` —
    narrow the span the index returns.  They only narrow: the range
    conjuncts stay in the residual filter, which decides every row, and
    an execution whose bound values cannot be index bounds
    (:func:`_index_bound`) reads the whole prefix."""

    def __init__(
        self,
        table: "Table",
        binding: str,
        layout: RowLayout,
        types: list[SqlType | None],
        index: Index,
        key_fn: Projection,
        key_width: int,
        filter_fn: CompiledExpr | None,
        index_cond_text: str = "",
        filter_text: str = "",
        low: tuple[CompiledExpr, bool] | None = None,
        high: tuple[CompiledExpr, bool] | None = None,
        range_type: SqlType | None = None,
    ) -> None:
        self.table = table
        self.binding = binding
        self.layout = layout
        self.types = types
        self.index = index
        self.key_fn = key_fn
        self.key_width = key_width
        self.filter_fn = filter_fn
        self.index_cond_text = index_cond_text
        self.filter_text = filter_text
        self.low = low
        self.high = high
        self.range_type = range_type

    def _bounds(self) -> Callable[[Sequence[Any]], tuple | None] | None:
        """``bounds(params)`` -> the ``prefix_scan`` bound arguments of
        one execution, or ``None`` to read the whole prefix; ``None``
        itself when the plan has no range bounds."""
        if self.low is None and self.high is None:
            return None
        coerce = self.range_type.coerce
        low_fn, low_inclusive = self.low or (None, True)
        high_fn, high_inclusive = self.high or (None, True)

        def bounds(params: Sequence[Any]) -> tuple | None:
            low = high = None
            if low_fn is not None:
                low = _index_bound(low_fn((), params), coerce)
                if low is None:
                    return None
            if high_fn is not None:
                high = _index_bound(high_fn((), params), coerce)
                if high is None:
                    return None
            return low, high, low_inclusive, high_inclusive

        return bounds

    def _lookup(self) -> Callable[[tuple, Sequence[Any]], list[Tid]]:
        """``(key, params) -> TIDs``: an equality lookup for the full
        key, else the ``prefix_scan`` span of an ordered index, bounded
        when this execution's bound values allow it."""
        index = self.index
        if self.key_width == len(index.columns):
            return lambda key, params: index.lookup(key)
        bounds = self._bounds()
        if bounds is None:
            return lambda key, params: list(map(_second, index.prefix_scan(key)))

        def lookup(key: tuple, params: Sequence[Any]) -> list[Tid]:
            span = bounds(params)
            if span is None:
                return list(map(_second, index.prefix_scan(key)))
            return list(map(_second, index.prefix_scan(key, *span)))

        return lookup

    def _snapshot_pairs(self, lookup: Callable[[tuple, Sequence[Any]], list[Tid]]):
        """SNAPSHOT candidates as ``pairs(ctx, key)``: the index maps
        current heads only.  Rows deleted or re-keyed after the snapshot
        fell out of it, but their older versions may still be visible —
        the table's unindexed-TID log supplies those candidates, and a
        key re-check drops the versions whose key does not match (the
        index is unversioned); the residual filter re-checks the range."""
        table = self.table
        heap = table.heap
        index = self.index
        width = self.key_width

        def pairs(ctx: ExecutionContext, key: tuple):
            tids = lookup(key, ctx.params)
            extra = table.unindexed_tids()
            if extra:
                seen = set(tids)
                tids = list(tids) + [t for t in extra if t not in seen]
            snapshot_ts, own_stamp = ctx.snapshot_ts, ctx.own_stamp
            for tid in tids:
                row = heap.read_snapshot(tid, snapshot_ts, own_stamp)
                if row is not None and table.index_key(index, row)[:width] == key:
                    yield tid, row

        return pairs

    def compile(self, project: Projection | None = None) -> Compiled:
        table = self.table
        name = table.schema.name
        heap = table.heap
        index = self.index
        width = self.key_width
        key_fn = self.key_fn
        lookup = self._lookup()
        snapshot_pairs = self._snapshot_pairs(lookup)
        filter_fn = self.filter_fn
        sink = _row_sink(filter_fn, project)
        # A full unique key matches at most one tuple (NULL keys aside),
        # so a plain loop over the lookup beats building the sink's
        # iterators.
        point = index.unique and width == len(index.columns)

        def index_scan(ctx: ExecutionContext) -> list:
            ctx.lock_table(name, LockMode.IS)
            params = ctx.params
            key = key_fn((), params)
            if ctx.snapshot_ts is None:
                if not point:
                    return sink(map(heap.read, lookup(key, params)), params)
                out = []
                for tid in index.lookup(key):
                    row = heap.read(tid)
                    if row is not None and (
                        filter_fn is None or filter_fn(row, params) is True
                    ):
                        out.append(row if project is None else project(row, params))
                return out
            overlay = [
                row for row in ctx.overlay_rows(name)
                if table.index_key(index, row)[:width] == key
            ]
            rows = map(_second, snapshot_pairs(ctx, key))
            return sink(chain(rows, overlay), params)

        return index_scan

    def compile_tids(self) -> Callable[["ExecutionContext"], list[tuple[Tid, Row]]]:
        name = self.table.schema.name
        heap = self.table.heap
        key_fn = self.key_fn
        lookup = self._lookup()
        snapshot_pairs = self._snapshot_pairs(lookup)
        sink = _pair_sink(self.filter_fn)

        def index_scan_tids(ctx: ExecutionContext) -> list[tuple[Tid, Row]]:
            ctx.lock_table(name, LockMode.IS)
            params = ctx.params
            key = key_fn((), params)
            if ctx.snapshot_ts is None:
                tids = lookup(key, params)
                return sink(zip(tids, map(heap.read, tids)), params)
            return sink(snapshot_pairs(ctx, key), params)

        return index_scan_tids

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [
            f"{pad}Index Scan using {self.index.name} on "
            f"{self.table.schema.name} {self.binding}"
        ]
        if self.index_cond_text:
            lines.append(f"{pad}  Index Cond: {self.index_cond_text}")
        if self.filter_text:
            lines.append(f"{pad}  Filter: {self.filter_text}")
        return lines


class DerivedNode(PlanNode):
    """A subquery in FROM: re-binds the inner plan's output columns
    under the derived table's alias."""

    def __init__(
        self,
        inner: PlanNode,
        binding: str,
        layout: RowLayout,
        types: list[SqlType | None],
    ) -> None:
        self.inner = inner
        self.binding = binding
        self.layout = layout
        self.types = types

    def compile(self) -> Compiled:
        return self.inner.compile()

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [f"{pad}Subquery Scan {self.binding}"] + self.inner.explain(indent + 1)


class NestedLoopJoinNode(PlanNode):
    """Nested-loop join (inner or left outer) with optional condition."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        layout: RowLayout,
        types: list[SqlType | None],
        condition: CompiledExpr | None,
        kind: str = "INNER",
        condition_text: str = "",
    ) -> None:
        self.left = left
        self.right = right
        self.layout = layout
        self.types = types
        self.condition = condition
        self.kind = kind
        self.condition_text = condition_text

    def compile(self) -> Compiled:
        run_left = self.left.compile()
        run_right = self.right.compile()
        condition = self.condition
        outer = self.kind == "LEFT"
        null_pad = (None,) * len(self.right.layout)

        def nested_loop(ctx: ExecutionContext) -> list:
            params = ctx.params
            right_rows = run_right(ctx)
            out = []
            for left_row in run_left(ctx):
                matched = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if condition is None or predicate_satisfied(condition(combined, params)):
                        matched = True
                        out.append(combined)
                if outer and not matched:
                    out.append(left_row + null_pad)
            return out

        return nested_loop

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        label = "Nested Loop" if self.kind == "INNER" else f"Nested Loop {self.kind} Join"
        lines = [f"{pad}{label}"]
        if self.condition_text:
            lines.append(f"{pad}  Join Filter: {self.condition_text}")
        lines += self.left.explain(indent + 1)
        lines += self.right.explain(indent + 1)
        return lines


class HashJoinNode(PlanNode):
    """Equi-join: builds a hash table on the right input.  The key
    functions compute a side's join key tuple from its row."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        layout: RowLayout,
        types: list[SqlType | None],
        left_key: Projection,
        right_key: Projection,
        residual: CompiledExpr | None,
        kind: str = "INNER",
        condition_text: str = "",
    ) -> None:
        self.left = left
        self.right = right
        self.layout = layout
        self.types = types
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self.kind = kind
        self.condition_text = condition_text

    def compile(self) -> Compiled:
        run_left = self.left.compile()
        run_right = self.right.compile()
        left_key, right_key = self.left_key, self.right_key
        residual = self.residual
        outer = self.kind == "LEFT"
        null_pad = (None,) * len(self.right.layout)

        def hash_join(ctx: ExecutionContext) -> list:
            params = ctx.params
            build: dict[tuple, list[Row]] = {}
            for right_row in run_right(ctx):
                key = right_key(right_row, params)
                if None in key:
                    continue  # NULL never equi-joins
                build.setdefault(key, []).append(right_row)
            out = []
            for left_row in run_left(ctx):
                key = left_key(left_row, params)
                matched = False
                if None not in key:
                    for right_row in build.get(key, ()):
                        combined = left_row + right_row
                        if residual is None or predicate_satisfied(residual(combined, params)):
                            matched = True
                            out.append(combined)
                if outer and not matched:
                    out.append(left_row + null_pad)
            return out

        return hash_join

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        label = "Hash Join" if self.kind == "INNER" else f"Hash {self.kind} Join"
        lines = [f"{pad}{label}"]
        if self.condition_text:
            lines.append(f"{pad}  Hash Cond: {self.condition_text}")
        lines += self.left.explain(indent + 1)
        lines += self.right.explain(indent + 1)
        return lines


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, filter_fn: CompiledExpr, filter_text: str = "") -> None:
        self.child = child
        self.layout = child.layout
        self.types = child.types
        self.filter_fn = filter_fn
        self.filter_text = filter_text

    def compile(self) -> Compiled:
        run = self.child.compile()
        sink = _row_sink(self.filter_fn, None)
        return lambda ctx: sink(run(ctx), ctx.params)

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}Filter: {self.filter_text}"]
        return lines + self.child.explain(indent + 1)


class ProjectNode(PlanNode):
    """Select-list evaluation; ``project(row, params)`` builds the
    output tuple.  Over a base-table scan it compiles into the scan's
    own loop."""

    def __init__(
        self,
        child: PlanNode,
        project: Projection,
        layout: RowLayout,
        types: list[SqlType | None],
        names: list[str],
    ) -> None:
        self.child = child
        self.project = project
        self.layout = layout
        self.types = types
        self.names = names

    def compile(self) -> Compiled:
        if isinstance(self.child, TableScan):
            return self.child.compile(self.project)
        run = self.child.compile()
        sink = _row_sink(None, self.project)
        return lambda ctx: sink(run(ctx), ctx.params)

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [f"{pad}Project [{', '.join(self.names)}]"] + self.child.explain(indent + 1)


class AggregateNode(PlanNode):
    """Hash aggregation.

    ``group_key`` computes the grouping key tuple from an input row;
    ``agg_factories`` create fresh accumulators per group (see
    :mod:`repro.exec.operators`); ``output`` computes the final select
    items from the synthetic group row ``group_key + tuple(agg_results)``;
    ``having_fn`` filters groups.
    """

    def __init__(
        self,
        child: PlanNode,
        group_key: Projection,
        agg_factories: list[Callable[[], Any]],
        output: Projection,
        having_fn: CompiledExpr | None,
        layout: RowLayout,
        types: list[SqlType | None],
        names: list[str],
        implicit_single_group: bool = False,
    ) -> None:
        self.child = child
        self.group_key = group_key
        self.agg_factories = agg_factories
        self.output = output
        self.having_fn = having_fn
        self.layout = layout
        self.types = types
        self.names = names
        self.implicit_single_group = implicit_single_group

    def compile(self) -> Compiled:
        run = self.child.compile()
        group_key, factories = self.group_key, self.agg_factories
        output, having_fn = self.output, self.having_fn
        implicit_single_group = self.implicit_single_group

        def aggregate(ctx: ExecutionContext) -> list:
            params = ctx.params
            groups: dict[tuple, list[Any]] = {}
            for row in run(ctx):
                key = group_key(row, params)
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = [factory() for factory in factories]
                    groups[key] = accumulators
                for accumulator in accumulators:
                    accumulator.add(row, params)
            if not groups and implicit_single_group:
                groups[()] = [factory() for factory in factories]
            out = []
            for key, accumulators in groups.items():
                group_row = key + tuple([acc.result() for acc in accumulators])
                if having_fn is not None and not predicate_satisfied(
                    having_fn(group_row, params)
                ):
                    continue
                out.append(output(group_row, params))
            return out

        return aggregate

    def explain(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [f"{pad}HashAggregate"] + self.child.explain(indent + 1)


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.layout = child.layout
        self.types = child.types

    def compile(self) -> Compiled:
        run = self.child.compile()
        return lambda ctx: list(dict.fromkeys(run(ctx)))

    def explain(self, indent: int = 0) -> list[str]:
        return ["  " * indent + "Unique"] + self.child.explain(indent + 1)


class SortNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        key_fns: list[CompiledExpr],
        descending: list[bool],
    ) -> None:
        self.child = child
        self.layout = child.layout
        self.types = child.types
        self.key_fns = key_fns
        self.descending = descending

    def compile(self) -> Compiled:
        run = self.child.compile()
        # Stable multi-key sort: apply keys right-to-left.
        keys = list(reversed(list(zip(self.key_fns, self.descending))))

        def sort(ctx: ExecutionContext) -> list:
            params = ctx.params
            material = run(ctx)
            for key_fn, desc in keys:
                material.sort(key=lambda row: _OrderKey(key_fn(row, params)), reverse=desc)
            return material

        return sort

    def explain(self, indent: int = 0) -> list[str]:
        return ["  " * indent + "Sort"] + self.child.explain(indent + 1)


class _OrderKey:
    """NULLs-last ascending total order wrapper for sorting."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_OrderKey") -> bool:
        cmp = compare_values(self.value, other.value)
        if cmp is None:
            if self.value is None and other.value is None:
                return False
            return other.value is None  # non-NULL < NULL
        return cmp < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderKey):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return compare_values(self.value, other.value) == 0


class LimitNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        limit_fn: CompiledExpr | None,
        offset_fn: CompiledExpr | None,
    ) -> None:
        self.child = child
        self.layout = child.layout
        self.types = child.types
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def compile(self) -> Compiled:
        run = self.child.compile()
        limit_fn, offset_fn = self.limit_fn, self.offset_fn

        def limit(ctx: ExecutionContext) -> list:
            # NULL means no limit / no offset, as in PostgreSQL.
            count = limit_fn((), ctx.params) if limit_fn is not None else None
            skip = offset_fn((), ctx.params) if offset_fn is not None else None
            if count is not None and count < 0:
                raise InvalidRowCount("LIMIT must not be negative", "2201W")
            if skip is not None and skip < 0:
                raise InvalidRowCount("OFFSET must not be negative", "2201X")
            rows = run(ctx)
            # ceil: a fractional count admits the row it reaches into.
            start = math.ceil(skip) if skip is not None else 0
            if count is None:
                return rows[start:]
            return rows[start : start + math.ceil(count)]

        return limit

    def explain(self, indent: int = 0) -> list[str]:
        return ["  " * indent + "Limit"] + self.child.explain(indent + 1)


class VirtualScanNode(PlanNode):
    """Scan of a registered virtual system view (``bullfrog_stat_*``).

    ``producer`` takes the :class:`ExecutionContext` and returns an
    iterable of row tuples; it snapshots live engine/txn/lock state at
    scan time, so every scan sees fresh data.  Virtual tables take no
    locks and are read-only (the planner rejects DML against them).
    """

    def __init__(
        self,
        name: str,
        binding: str,
        layout: RowLayout,
        types: list[SqlType | None],
        producer: Callable[[ExecutionContext], Any],
    ) -> None:
        self.name = name
        self.binding = binding
        self.layout = layout
        self.types = types
        self.producer = producer

    def compile(self) -> Compiled:
        producer = self.producer
        return lambda ctx: list(producer(ctx))

    def explain(self, indent: int = 0) -> list[str]:
        return ["  " * indent + f"Virtual Scan on {self.name} {self.binding}"]


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE instrumentation
# ----------------------------------------------------------------------

_CHILD_ATTRS = ("child", "inner", "left", "right")


class AnalyzedNode(PlanNode):
    """Instrumented wrapper around a plan node for ``EXPLAIN ANALYZE``.

    Counts rows, loops (executions of the node) and inclusive wall time
    per node.  The wrapped node is attribute-named ``target`` —
    deliberately distinct from the child attributes scanned by
    :func:`instrument_plan` — and is a shallow *clone* of the original,
    so cached shared plans are never mutated by instrumentation.  A
    wrapper between a projection and its scan is also what keeps the
    two from compiling into one loop, so each reports its own counters.
    """

    def __init__(self, target: PlanNode) -> None:
        self.target = target
        self.layout = target.layout
        self.types = target.types
        self.stats = OperatorStats()

    def compile(self) -> Compiled:
        run = self.target.compile()
        stats = self.stats
        perf = time.perf_counter

        def analyzed(ctx: ExecutionContext) -> list:
            stats.loops += 1
            start = perf()
            rows = run(ctx)
            stats.seconds += perf() - start
            stats.rows += len(rows)
            return rows

        return analyzed

    def explain(self, indent: int = 0) -> list[str]:
        lines = self.target.explain(indent)
        stats = self.stats
        lines[0] += (
            f" (actual time={stats.seconds * 1000.0:.3f} ms"
            f" rows={stats.rows} loops={stats.loops})"
        )
        return lines


def instrument_plan(node: PlanNode) -> AnalyzedNode:
    """Wrap a plan tree for ANALYZE without mutating the original.

    Each node is shallow-copied and its child attributes are replaced by
    instrumented wrappers, so plans held by statement handles stay
    untouched and uninstrumented execution keeps zero overhead.
    """
    clone = copy.copy(node)
    for attr in _CHILD_ATTRS:
        child = getattr(clone, attr, None)
        if isinstance(child, PlanNode):
            setattr(clone, attr, instrument_plan(child))
    return AnalyzedNode(clone)
