"""``bullfrog-router``: one wire-protocol endpoint over N shards.

The router is a plain :class:`~repro.net.server.BullfrogServer` — event
loop, worker pool, prepared statements, pipelining, drain and the META
console, all unchanged — serving a :class:`RouterDatabase` whose
sessions route statements instead of executing them and which
registers the cluster's admin verbs (``shards [json]``, ``cluster
migrate <scenario>``, a per-shard ``progress``) on its own verb table.
Clients connect with the unchanged client library and cannot tell the
difference: HELLO/WELCOME, QUERY/PARSE/EXECUTE, COMPLETE frames
carrying the (cluster) schema epoch, errors as structured frames.

Routing (``RoutePlan``, cached on the statement handle):

* **single** — a WHERE/VALUES equality on the partition column of any
  referenced table pins the statement to one shard (TPC-C transactions
  are all of this shape: every table is co-partitioned by warehouse).
* **any** — replicated-table reads (``item``) go to one shard,
  round-robin.
* **scatter** — cross-shard SELECTs fan out to every shard and the
  rows are stitched back together: concatenate, re-sort by the ORDER
  BY (NULLs ordered exactly as the shard engine orders them),
  re-apply LIMIT/OFFSET, and re-aggregate top-level
  COUNT/SUM/MIN/MAX.  A query with an OFFSET is rewritten for the
  shards — ``LIMIT limit+offset``, no OFFSET — because a shard must
  not skip its own first rows (they may belong in the global result);
  the offset is applied exactly once, at merge time.  Cross-shard
  GROUP BY / DISTINCT / AVG are rejected with a hint to filter on the
  partition column.
* **broadcast** — DDL, replicated-table writes, and keyless
  UPDATE/DELETE run on every shard (each shard touches only its own
  rows); rowcounts sum.
* **local** — system views (``bullfrog_stat_shards``, the server's own
  ``bullfrog_stat_network``) execute on the router's embedded Database.

Transactions bind lazily: BEGIN is deferred until the first keyed
statement fixes the shard, then the whole transaction runs on one
pooled backend connection (BEGIN and that first statement leave in one
write and cost one shard round trip).  A statement that
routes elsewhere mid-transaction is an error — the cluster offers
single-shard transactions, exactly SLSM's model.

The **cluster-wide schema switch** is a two-phase epoch flip
(:meth:`RouterDatabase.cluster_migrate`): PREPARE closes every shard's
statement gate (and the router's own routing gate), COMMIT performs
each shard's logical switch and launches its lazy migration, and the
router bumps its epoch only once every shard committed — so a client
observes exactly one epoch step and no shard ever serves mixed
schemas.  A prepare failure aborts the round everywhere; once every
shard is prepared, commit is driven to completion with per-shard
retries (classic 2PC — aborting a shard that already committed would
strand the cluster on mixed epochs).  Scatter reads double-check:
each sub-result carries its shard's epoch, and a mixed set is retried
until the flip settles.

Tracing: the server parks the continued client context on the session
(``_request_ctx``); the router sets it as ``trace_parent`` on the
backend connection, so the shard-side server spans are children of the
client's span — one request tree across three processes.  A request
without one is head-sampled like an embedded statement; the pool's
connections mint no trace roots of their own.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
import uuid
from typing import Any, Callable, Sequence

from ..db import Database, Result, Session, Statement
from ..errors import (
    ConnectionClosedError,
    ExecutionError,
    ProtocolError,
    ReproError,
    SessionClosed,
    TransactionError,
)
from ..exec.plan import _OrderKey as OrderKey
from ..net.client import Connection, ConnectionPool
from ..obs import console
from ..obs.sysviews import _BOOL, _FLOAT, _INT, _TEXT  # the views' column types
from ..obs.tracectx import TraceContext
from ..obs.tracectx import activate as _trace_activate
from ..obs.tracectx import deactivate as _trace_deactivate
from ..sql import ast_nodes as ast
from ..sql.render import render_select
from .shardmap import ShardMap

# RoutePlan modes.
LOCAL = "local"
SINGLE = "single"
ANY = "any"
SCATTER = "scatter"
BROADCAST = "broadcast"

_AGGS = {"COUNT", "SUM", "MIN", "MAX"}

# How long new work (and a mixed-epoch scatter retry) waits at the
# router's flip gate before running anyway.
_FLIP_GATE_TIMEOUT = 30.0

# value sources: ("param", index) | ("const", value)
_Source = tuple[str, Any]


def _resolve(source: _Source, params: Sequence[Any]) -> Any:
    kind, value = source
    if kind == "param":
        try:
            return params[value]
        except IndexError:
            raise ExecutionError(
                f"statement references parameter ${value + 1} but only "
                f"{len(params)} were bound"
            ) from None
    return value


def _resolve_count(source: _Source, params: Sequence[Any], what: str) -> int:
    value = _resolve(source, params)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ExecutionError(
            f"{what} must be a non-negative integer, got {value!r}"
        )
    return value


class MergeSpec:
    """How to stitch a scatter SELECT's per-shard results together."""

    __slots__ = ("aggregates", "order", "limit", "offset", "select")

    def __init__(
        self,
        aggregates: list[str] | None = None,
        order: list[tuple[Any, bool]] | None = None,
        limit: _Source | None = None,
        offset: _Source | None = None,
        select: ast.Select | None = None,
    ) -> None:
        self.aggregates = aggregates
        self.order = order or []
        self.limit = limit
        self.offset = offset
        # The parsed statement, kept so the shard-bound query can be
        # rewritten when an OFFSET must not reach the shards.
        self.select = select


class RoutePlan:
    """The routing decision for one statement (``Statement.route``)."""

    __slots__ = ("mode", "key_sources", "merge", "error")

    def __init__(
        self,
        mode: str,
        key_sources: list[_Source] | None = None,
        merge: MergeSpec | None = None,
        error: ExecutionError | None = None,
    ) -> None:
        self.mode = mode
        self.key_sources = key_sources
        self.merge = merge
        self.error = error

    def key(self, params: Sequence[Any]) -> int:
        assert self.key_sources
        keys = {_resolve(source, params) for source in self.key_sources}
        if len(keys) != 1:
            raise ExecutionError(
                "multi-row INSERT spans more than one shard "
                f"(partition keys {sorted(keys)}); split it per warehouse"
            )
        key = keys.pop()
        if not isinstance(key, int):
            raise ExecutionError(
                f"partition key must be an integer, got {key!r}"
            )
        return key


# ----------------------------------------------------------------------
# Statement analysis
# ----------------------------------------------------------------------
def _conjuncts(expr: Any):
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _key_from_where(where: Any, pcols: set[str]) -> _Source | None:
    """Find ``partition_col = ?`` (or literal) among top-level AND
    conjuncts.  Any partitioned table in the query works — the TPC-C
    tables are co-partitioned, so equality on any of their warehouse
    columns pins the same shard."""
    if where is None:
        return None
    for conjunct in _conjuncts(where):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for col, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(col, ast.ColumnRef) and col.name.lower() in pcols:
                if isinstance(other, ast.Param):
                    return ("param", other.index)
                if isinstance(other, ast.Literal) and isinstance(
                    other.value, int
                ):
                    return ("const", other.value)
    return None


def _scalar_source(expr: Any, what: str) -> _Source | None:
    if expr is None:
        return None
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        return ("const", expr.value)
    if isinstance(expr, ast.Param):
        return ("param", expr.index)
    raise _unsupported(f"{what} must be a literal or parameter")


def _unsupported(what: str) -> ExecutionError:
    return ExecutionError(
        f"cross-shard {what} is not supported by the router; "
        "add an equality filter on the partition column (e.g. w_id = ?)"
    )


def _merge_spec(stmt: ast.Select) -> tuple[MergeSpec | None, ExecutionError | None]:
    try:
        if stmt.distinct:
            raise _unsupported("SELECT DISTINCT")
        if stmt.group_by:
            raise _unsupported("GROUP BY")
        if stmt.having is not None:
            raise _unsupported("HAVING")
        aggregates: list[str] = []
        has_agg = has_plain = False
        for item in stmt.items:
            expr = item.expr
            if isinstance(expr, ast.FunctionCall) and (
                expr.name.upper() in ast.AGGREGATE_FUNCTIONS
            ):
                name = expr.name.upper()
                if name not in _AGGS:
                    raise _unsupported(f"aggregate {name}")
                if expr.distinct:
                    raise _unsupported(f"{name}(DISTINCT ...)")
                aggregates.append(name)
                has_agg = True
            else:
                aggregates.append("")
                has_plain = True
        if has_agg and has_plain:
            raise _unsupported("mixed aggregate/plain select list")
        order: list[tuple[Any, bool]] = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, ast.ColumnRef):
                order.append((expr.name.lower(), item.descending))
            elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                order.append((expr.value - 1, item.descending))  # ORDER BY 1
            else:
                raise _unsupported("ORDER BY on a computed expression")
        merge = MergeSpec(
            aggregates=aggregates if has_agg else None,
            order=order,
            limit=_scalar_source(stmt.limit, "LIMIT"),
            offset=_scalar_source(stmt.offset, "OFFSET"),
            select=stmt,
        )
        return merge, None
    except ExecutionError as exc:
        return None, exc


_DDL_NODES = (
    ast.CreateTable, ast.CreateView, ast.CreateIndex, ast.DropTable,
    ast.DropView, ast.DropIndex, ast.AlterTable,
)


class RouterDatabase(Database):
    """A Database whose sessions route to shards.

    The inherited local engine still matters: it prepares SQL (shared
    dialect with the shards; the handle also carries the route), runs
    local statements, and hosts the router's virtual views — which is
    how ``SELECT * FROM bullfrog_stat_shards`` is just SQL through the
    normal path.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        obs: Any = None,
        pool_size: int = 8,
        connect_timeout: float = 10.0,
        isolation: Any = None,
    ) -> None:
        if shard_map.n_shards < 1:
            raise ValueError("shard map must name at least one shard")
        super().__init__(obs=obs, isolation=isolation)
        self.shard_map = shard_map
        # ``trace`` negotiates trace trailers with the shards; a pooled
        # connection sends one only under a ``trace_parent``.
        trace = obs is not None
        self.pools = [
            ConnectionPool(
                host, port, size=pool_size,
                connect_timeout=connect_timeout,
                auto_prepare=256, trace=trace, obs=obs,
            )
            for host, port in shard_map.addresses
        ]
        self.admins = [
            _AdminLink(host, port, connect_timeout)
            for host, port in shard_map.addresses
        ]
        # itertools.count: next() is atomic under the GIL, so
        # concurrent worker threads never observe the same tick.
        self._rr = itertools.count()
        # Closed for the duration of a cluster epoch flip: sessions
        # hold *new* statements here (in-transaction statements pass,
        # mirroring the shard-side gate).
        self.flip_gate = threading.Event()
        self.flip_gate.set()
        self._flip_latch = threading.Lock()
        # "Zero mixed-schema responses" accounting: retries are scatter
        # reads that saw shards on different epochs and re-ran; errors
        # are scatters that never converged (always 0 in a healthy
        # cluster — the acceptance test asserts it).
        self.mixed_epoch_retries = 0
        self.mixed_epoch_errors = 0
        # Broadcasts that applied on some shards but failed on others:
        # replicated tables/schemas may have diverged (the cluster
        # invariant checker's replicated-identity check finds it).
        self.broadcast_partial_failures = 0
        self._register_shard_view()
        self.admin_verbs.update(
            shards=self._verb_shards,
            cluster=self._verb_cluster,
            progress=self._verb_progress,
        )

    # ------------------------------------------------------------------
    def connect(
        self, allow_retired: bool = False, isolation: Any = None
    ) -> "RouterSession":
        return RouterSession(self, allow_retired=allow_retired,
                             isolation=isolation)

    def next_rr(self) -> int:
        return next(self._rr) % self.shard_map.n_shards

    # ------------------------------------------------------------------
    # Route plans
    # ------------------------------------------------------------------
    def route_plan(self, handle: Statement) -> RoutePlan:
        plan = handle.route
        if plan is None:
            plan = handle.route = self._analyze(handle)
        return plan

    def _analyze(self, handle: Statement) -> RoutePlan:
        shard_map = self.shard_map
        stmt = handle.ast
        if isinstance(stmt, ast.Explain):
            inner = self._analyze(Statement(stmt.query))
            if inner.mode == LOCAL:
                return inner
            # EXPLAIN of a routed query: one shard's plan is as good as
            # another's (identical schemas).
            return RoutePlan(ANY)
        if isinstance(stmt, ast.Select):
            tables = handle.tables
            known = {t for t in tables if shard_map.knows(t)}
            if not known:
                return RoutePlan(LOCAL)
            if known != tables:
                return RoutePlan(SCATTER, error=ExecutionError(
                    f"query mixes sharded tables {sorted(known)} with "
                    f"router-local tables {sorted(tables - known)}"
                ))
            pcols = {
                shard_map.partition_column(t) for t in tables
            } - {None}
            if not pcols:
                return RoutePlan(ANY)  # replicated-only read
            key = _key_from_where(stmt.where, pcols)
            if key is not None:
                return RoutePlan(SINGLE, key_sources=[key])
            merge, error = _merge_spec(stmt)
            return RoutePlan(SCATTER, merge=merge, error=error)
        if isinstance(stmt, ast.Insert):
            table = stmt.table.lower()
            if not shard_map.knows(table):
                return RoutePlan(LOCAL)
            if shard_map.is_replicated(table):
                return RoutePlan(BROADCAST)
            pcol = shard_map.partition_column(table)
            assert pcol is not None
            if stmt.query is not None:
                return RoutePlan(SINGLE, error=ExecutionError(
                    "INSERT ... SELECT through the router is not supported"
                ))
            if not stmt.columns:
                return RoutePlan(SINGLE, error=ExecutionError(
                    f"INSERT INTO {table} through the router needs an "
                    "explicit column list (to locate the partition key)"
                ))
            lowered = [c.lower() for c in stmt.columns]
            if pcol not in lowered:
                return RoutePlan(SINGLE, error=ExecutionError(
                    f"INSERT INTO {table} must set the partition column "
                    f"{pcol}"
                ))
            position = lowered.index(pcol)
            sources: list[_Source] = []
            for row in stmt.rows:
                value = row[position]
                if isinstance(value, ast.Param):
                    sources.append(("param", value.index))
                elif isinstance(value, ast.Literal) and isinstance(
                    value.value, int
                ):
                    sources.append(("const", value.value))
                else:
                    return RoutePlan(SINGLE, error=ExecutionError(
                        f"partition column {pcol} in INSERT must be a "
                        "literal or parameter"
                    ))
            return RoutePlan(SINGLE, key_sources=sources)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            table = stmt.table.lower()
            if not shard_map.knows(table):
                return RoutePlan(LOCAL)
            if shard_map.is_replicated(table):
                return RoutePlan(BROADCAST)
            pcol = shard_map.partition_column(table)
            assert pcol is not None
            key = _key_from_where(stmt.where, {pcol})
            if key is not None:
                return RoutePlan(SINGLE, key_sources=[key])
            # Keyless write: every shard applies it to its own rows.
            return RoutePlan(BROADCAST)
        if isinstance(stmt, _DDL_NODES):
            return RoutePlan(BROADCAST)
        return RoutePlan(LOCAL)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def forward(
        self,
        shard: int,
        sql: str,
        params: Sequence[Any],
        trace_parent: Any = None,
    ) -> tuple[Result, int]:
        """Run one statement on one shard via its pool; returns the
        result plus the schema epoch the shard reported with it."""
        try:
            with self.pools[shard].acquire() as conn:
                conn.trace_parent = trace_parent
                try:
                    result = conn.execute(sql, params)
                    return result, conn.schema_epoch
                finally:
                    conn.trace_parent = None
        except ConnectionClosedError as exc:
            host, port = self.shard_map.addresses[shard]
            raise ExecutionError(
                f"shard {shard} ({host}:{port}) unavailable: {exc}"
            ) from exc

    def _fan_out(
        self, sql: str, params: Sequence[Any], trace_parent: Any
    ) -> list[Any]:
        """Run one statement on every shard concurrently.  Each slot is
        either a ``(Result, epoch)`` pair or the exception that shard
        raised — callers decide how partial failure is handled."""
        n = self.shard_map.n_shards
        slots: list[Any] = [None] * n

        def run(i: int) -> None:
            try:
                slots[i] = self.forward(i, sql, params, trace_parent)
            except BaseException as exc:  # noqa: BLE001 - callers re-raise
                slots[i] = exc

        threads = [
            threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(1, n)
        ]
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
        return slots

    def broadcast(
        self, sql: str, params: Sequence[Any], trace_parent: Any = None
    ) -> Result:
        slots = self._fan_out(sql, params, trace_parent)
        failed = {
            shard: slot for shard, slot in enumerate(slots)
            if isinstance(slot, BaseException)
        }
        if not failed:
            first = slots[0][0]
            total = sum(result.rowcount for result, _ in slots)
            return Result(first.statement, rowcount=total)
        applied = [shard for shard in range(len(slots)) if shard not in failed]
        first_exc = next(iter(failed.values()))
        if not applied:
            # Uniformly rejected (e.g. a SQL error every shard agrees
            # on): nothing diverged, surface the shard's own error.
            raise first_exc
        # Partial failure: some shards applied the write/DDL, so
        # replicated tables or schemas are now divergent.  Say exactly
        # which shards did what — the caller must repair before
        # retrying, since a blind retry re-applies on the shards that
        # already succeeded.
        with self._flip_latch:
            self.broadcast_partial_failures += 1
        detail = "; ".join(
            f"shard {shard}: {exc}" for shard, exc in sorted(failed.items())
        )
        raise ExecutionError(
            f"broadcast applied on shard(s) {applied} but failed on "
            f"shard(s) {sorted(failed)} — {detail}; replicated tables or "
            "schemas may have diverged, run the cluster invariant checker "
            "and repair the failed shards before retrying"
        ) from first_exc

    def scatter(
        self,
        plan: RoutePlan,
        sql: str,
        params: Sequence[Any],
        trace_parent: Any = None,
        max_attempts: int = 4,
    ) -> Result:
        """Fan a read out to every shard and merge — retrying whenever
        the sub-results straddle an epoch flip, so a client never sees
        a response stitched from two schema versions."""
        if plan.error is not None:
            raise plan.error
        shard_sql, shard_params = self._shard_query(plan, sql, params)
        for _attempt in range(max_attempts):
            outcomes = self._fan_out(shard_sql, shard_params, trace_parent)
            for slot in outcomes:
                if isinstance(slot, BaseException):
                    raise slot
            epochs = {epoch for _, epoch in outcomes}
            if len(epochs) == 1:
                return self._merge(
                    [result for result, _ in outcomes], plan.merge, params
                )
            with self._flip_latch:
                self.mixed_epoch_retries += 1
            # Wait out the flip, then re-run both halves on the new
            # schema (SchemaVersionError from a retired table will
            # surface to the client as usual).
            self.flip_gate.wait(_FLIP_GATE_TIMEOUT)
        with self._flip_latch:
            self.mixed_epoch_errors += 1
        raise ExecutionError(
            "scatter read kept observing shards on different schema "
            f"epochs after {max_attempts} attempts"
        )

    def _shard_query(
        self, plan: RoutePlan, sql: str, params: Sequence[Any]
    ) -> tuple[str, Sequence[Any]]:
        """The statement each shard actually runs.  Verbatim, unless
        the SELECT carries an OFFSET: a shard must not skip its own
        first rows (they may belong in the global result), so the
        shard-bound query becomes ``LIMIT limit+offset`` with no
        OFFSET and the offset is applied exactly once in
        :meth:`_merge`.  Parameters consumed by the rewritten
        LIMIT/OFFSET are dropped from the forwarded bind list (they
        are the last placeholders in the statement, so the remaining
        positions are unchanged)."""
        spec = plan.merge
        if spec is None or spec.offset is None or spec.select is None:
            return sql, params
        offset = _resolve_count(spec.offset, params, "OFFSET")
        consumed = {spec.offset[1]} if spec.offset[0] == "param" else set()
        shard_limit = None
        if spec.limit is not None:
            limit = _resolve_count(spec.limit, params, "LIMIT")
            shard_limit = ast.Literal(limit + offset)
            if spec.limit[0] == "param":
                consumed.add(spec.limit[1])
        shard_select = dataclasses.replace(
            spec.select, limit=shard_limit, offset=None
        )
        shard_params = [
            value for index, value in enumerate(params)
            if index not in consumed
        ]
        return render_select(shard_select), shard_params

    def _merge(
        self,
        results: list[Result],
        spec: MergeSpec | None,
        params: Sequence[Any],
    ) -> Result:
        columns = results[0].columns
        if spec is not None and spec.aggregates is not None:
            row: list[Any] = []
            for j, fn in enumerate(spec.aggregates):
                values = [
                    r.rows[0][j]
                    for r in results
                    if r.rows and r.rows[0][j] is not None
                ]
                if fn in ("COUNT", "SUM"):
                    if values:
                        row.append(sum(values))
                    else:
                        row.append(0 if fn == "COUNT" else None)
                elif fn == "MIN":
                    row.append(min(values) if values else None)
                else:  # MAX
                    row.append(max(values) if values else None)
            rows: list[tuple] = [tuple(row)]
        else:
            rows = [row for result in results for row in result.rows]
            if spec is not None:
                for key, descending in reversed(spec.order):
                    if isinstance(key, int):
                        index = key
                        if not 0 <= index < len(columns):
                            raise ExecutionError(
                                f"ORDER BY position {index + 1} out of range"
                            )
                    else:
                        lowered = [c.lower() for c in columns]
                        if key not in lowered:
                            raise ExecutionError(
                                f"cannot merge cross-shard ORDER BY: column "
                                f"{key!r} is not in the select list"
                            )
                        index = lowered.index(key)
                    # OrderKey gives the shard engine's total order —
                    # NULLs last ascending — so a nullable sort column
                    # merges instead of raising TypeError on None.
                    rows.sort(
                        key=lambda r: OrderKey(r[index]), reverse=descending
                    )
        if spec is not None:
            if spec.offset is not None:
                rows = rows[_resolve_count(spec.offset, params, "OFFSET"):]
            if spec.limit is not None:
                rows = rows[: _resolve_count(spec.limit, params, "LIMIT")]
        return Result("SELECT", rows=rows, columns=columns,
                      rowcount=len(rows))

    # ------------------------------------------------------------------
    # Cluster-wide schema switch (two-phase epoch flip)
    # ------------------------------------------------------------------
    def cluster_migrate(
        self,
        scenario: str,
        prepare_only: bool = False,
        commit_attempts: int = 3,
    ) -> dict:
        """Flip every shard to ``scenario``'s new schema atomically
        (from any client's point of view) and launch the per-shard lazy
        migrations.

        Phase 1 — ``epoch prepare <token>`` on every shard: each closes
        its statement gate (in-flight transactions drain, nothing new
        starts).  Any prepare failure aborts the round everywhere and
        nothing about the cluster changed.
        Phase 2 — ``epoch commit <token> <scenario>``: each shard runs
        the logical switch + submits its lazy migration, then reopens
        its gate.  Once every shard is prepared the round is past the
        point of no return: a shard whose commit fails is *retried*
        (``commit_attempts`` times, treating a lost reply after an
        applied commit as success), never aborted — aborting would
        strand already-committed shards on the new epoch, i.e. exactly
        the mixed-schema cluster the flip exists to prevent.  The
        router's routing gate is closed for the whole round and its
        epoch is bumped only after every shard committed, so router
        clients observe a single epoch step and a failed round leaves
        the router's epoch untouched.

        ``prepare_only`` stops after phase 1 (fault-injection tests:
        the shards' auto-abort timers must clean up).
        """
        token = uuid.uuid4().hex[:12]
        began = time.monotonic()
        self.flip_gate.clear()
        try:
            pre_epochs = self._prepare_all(token)
            if prepare_only:
                return {
                    "token": token,
                    "prepared": list(range(self.shard_map.n_shards)),
                    "committed": False,
                }
            failures: dict[int, Exception] = {}
            for shard in range(self.shard_map.n_shards):
                exc = self._commit_shard(
                    shard, token, scenario, pre_epochs[shard],
                    commit_attempts,
                )
                if exc is not None:
                    failures[shard] = exc
            if failures:
                committed = [
                    shard for shard in range(self.shard_map.n_shards)
                    if shard not in failures
                ]
                detail = "; ".join(
                    f"shard {shard}: {exc}"
                    for shard, exc in sorted(failures.items())
                )
                raise ExecutionError(
                    f"epoch commit failed on shard(s) {sorted(failures)} "
                    f"after {commit_attempts} attempts — {detail}; "
                    f"shard(s) {committed} already committed to the new "
                    "schema, so the cluster is on mixed epochs until the "
                    "failed shards are repaired and the flip is re-run"
                )
            self.bump_epoch()  # router clients see the new epoch
        finally:
            if not prepare_only:
                self.flip_gate.set()
        return {
            "token": token,
            "migration": scenario,
            "shards": self.shard_map.n_shards,
            "epoch": self.epoch,
            "elapsed_seconds": time.monotonic() - began,
            "committed": True,
        }

    def _prepare_all(self, token: str) -> list[int]:
        """Phase 1 on every shard; abort the round everywhere if any
        shard refuses.  Returns each shard's pre-flip epoch (used to
        recognise a commit that applied but lost its reply)."""
        prepared: list[int] = []
        pre_epochs: list[int] = []
        try:
            for shard, admin in enumerate(self.admins):
                reply = admin.meta(f"epoch prepare {token}")
                prepared.append(shard)
                try:
                    pre_epochs.append(int(json.loads(reply)["epoch"]))
                except (ValueError, KeyError, TypeError):
                    pre_epochs.append(-1)
        except BaseException:
            for shard in prepared:
                try:
                    self.admins[shard].meta(f"epoch abort {token}")
                except (ReproError, OSError):
                    pass  # its auto-abort timer is the backstop
            raise
        return pre_epochs

    def _commit_shard(
        self,
        shard: int,
        token: str,
        scenario: str,
        pre_epoch: int,
        attempts: int,
    ) -> Exception | None:
        """Drive one shard's phase-2 commit to completion.  Returns
        ``None`` on success, or the final exception once retries are
        exhausted (or provably futile)."""
        admin = self.admins[shard]
        last: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(0.05 * attempt)
            try:
                admin.meta(f"epoch commit {token} {scenario}")
                return None
            except (ReproError, OSError) as exc:
                last = exc
                try:
                    status = json.loads(admin.meta("epoch status"))
                except (ReproError, OSError, ValueError):
                    continue  # can't tell; retry the commit
                if status.get("prepared") == token:
                    continue  # still prepared; retry the commit
                # Token released without us: either the commit applied
                # and only its reply was lost (epoch moved — success),
                # or the shard auto-aborted this round (epoch did not
                # move — no retry can succeed with this token).
                if int(status.get("epoch", pre_epoch)) > pre_epoch:
                    return None
                return last
        return last

    def migrations_complete(self) -> bool:
        """True when every shard reports its migration finished."""
        return all(
            entry.get("migration_complete") for entry in self.shard_status()
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_status(self) -> list[dict]:
        """One dict per shard: address, pool stats
        (:meth:`ConnectionPool.stats`), and the shard's live epoch/gate
        state (``healthy: False`` with no epoch when unreachable)."""
        out: list[dict] = []
        for shard, (host, port) in enumerate(self.shard_map.addresses):
            entry: dict[str, Any] = {
                "shard": shard,
                "addr": f"{host}:{port}",
                "pool": self.pools[shard].stats(),
            }
            try:
                status = json.loads(self.admins[shard].meta("epoch status"))
            except (ReproError, OSError, ValueError):
                entry["healthy"] = False
            else:
                entry["healthy"] = True
                entry["epoch"] = status.get("epoch")
                entry["gate_open"] = status.get("gate_open")
                migrations = status.get("migrations") or []
                entry["migration_complete"] = (
                    all(m["complete"] for m in migrations)
                    if migrations else None
                )
            out.append(entry)
        return out

    def _verb_shards(self, _db: Database, arg: str) -> str:
        if arg == "json":
            return json.dumps(self.shard_status(), indent=2)
        return console.format_shards(console.view(self, "bullfrog_stat_shards"))

    def _verb_cluster(self, _db: Database, arg: str) -> str:
        sub = arg.split()
        if len(sub) == 2 and sub[0] == "migrate":
            return json.dumps(self.cluster_migrate(sub[1]))
        raise ProtocolError(f"unknown cluster command {arg!r}")

    def _verb_progress(self, _db: Database, arg: str) -> str:
        """Each shard's own ``progress`` under a ``shard N:`` header."""
        blocks = []
        for shard, admin in enumerate(self.admins):
            try:
                body = admin.meta("progress")
            except (ReproError, OSError) as exc:
                body = f"  (unreachable: {exc})"
            blocks.append(f"shard {shard}:\n{body}")
        return "\n".join(blocks)

    def _register_shard_view(self) -> None:
        from ..catalog.catalog import VirtualTable

        def produce(ctx: Any) -> list[tuple]:
            now = time.time()
            rows = []
            for entry in self.shard_status():
                pool = entry["pool"]
                last_ping = pool.get("last_ping")
                rows.append((
                    entry["shard"],
                    entry["addr"],
                    entry["healthy"],
                    entry.get("epoch", -1),
                    bool(entry.get("gate_open", True)),
                    entry.get("migration_complete"),
                    pool["size"],
                    pool["in_use"],
                    pool["idle"],
                    pool["reconnects"],
                    pool["health_check_failures"],
                    (now - last_ping) if last_ping is not None else None,
                ))
            return rows

        self.catalog.register_virtual(VirtualTable(
            "bullfrog_stat_shards",
            (
                "shard", "addr", "healthy", "epoch", "gate_open",
                "migration_complete", "pool_size", "pool_in_use",
                "pool_idle", "pool_reconnects",
                "pool_health_check_failures", "last_ping_age_seconds",
            ),
            (_INT, _TEXT, _BOOL, _INT, _BOOL, _BOOL, _INT, _INT, _INT,
             _INT, _INT, _FLOAT),
            produce,
        ))

    def close(self) -> None:
        for pool in self.pools:
            pool.close()
        for admin in self.admins:
            admin.close()


class _AdminLink:
    """One dedicated coordinator connection per shard (PREPARE/COMMIT,
    status polls) — kept out of the data pools so a saturated pool can
    never block the flip.  Reconnects once per call on a dead link."""

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._conn: Connection | None = None
        self._lock = threading.Lock()

    def meta(self, command: str) -> str:
        with self._lock:
            for attempt in (0, 1):
                conn = self._conn
                if conn is None or conn.closed:
                    conn = self._conn = Connection(
                        self.host, self.port,
                        connect_timeout=self.connect_timeout,
                        client_name="bullfrog-router-admin",
                    )
                try:
                    return conn.meta(command)
                except ConnectionClosedError:
                    self._conn = None
                    if attempt:
                        raise
            raise AssertionError("unreachable")

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class RouterSession(Session):
    """Session whose statements route to shards (see module docs).

    Transaction state is router-local: ``BEGIN`` defers until the
    first keyed statement binds the shard, then the transaction runs on
    one pooled backend connection end-to-end.
    """

    def __init__(self, db: RouterDatabase, allow_retired: bool = False,
                 isolation: Any = None) -> None:
        super().__init__(db, allow_retired=allow_retired, isolation=isolation)
        self._r_in_txn = False
        self._r_shard: int | None = None
        self._r_handle: Any = None  # _PooledConnection while bound

    # -- transaction state ---------------------------------------------
    @property
    def in_transaction(self) -> bool:  # type: ignore[override]
        return self._r_in_txn

    def begin(self, isolation: Any = None):  # type: ignore[override]
        if self._closed:
            raise SessionClosed("session is closed")
        if self._r_in_txn:
            raise TransactionError("a transaction is already in progress")
        self._r_in_txn = True
        return None

    def commit(self) -> None:
        self._finish_txn("commit")

    def rollback(self) -> None:
        self._finish_txn("rollback")

    def _finish_txn(self, op: str) -> None:
        if not self._r_in_txn:
            raise TransactionError("no transaction in progress")
        handle, self._r_handle = self._r_handle, None
        self._r_shard = None
        self._r_in_txn = False
        if handle is None:
            return  # never bound: BEGIN with no routed statement
        try:
            if op == "commit":
                handle.conn.commit()
            else:
                handle.conn.rollback()
        finally:
            handle.release()

    def _abort_binding(self) -> None:
        """The backend transaction is gone (remote abort/kill): drop
        the binding so session state matches what the shard reports."""
        handle, self._r_handle = self._r_handle, None
        self._r_shard = None
        self._r_in_txn = False
        if handle is not None:
            try:
                handle.conn.reset()
            except (ReproError, OSError):
                pass
            handle.release()

    def close(self) -> None:
        if not self._closed:
            self._abort_binding()
        super().close()

    def reset(self) -> None:
        self._abort_binding()
        super().reset()

    # -- statement execution -------------------------------------------
    def execute_statement(
        self, stmt: "Statement | ast.Statement", params: Sequence[Any] = ()
    ) -> Result:
        if self._closed:
            raise SessionClosed("session is closed")
        handle = stmt if type(stmt) is Statement else Statement(stmt)
        rdb: RouterDatabase = self.db  # type: ignore[assignment]
        plan = rdb.route_plan(handle)
        if plan.mode == LOCAL:
            # Also transaction control: the inherited path calls this
            # session's begin/commit/rollback.
            return super().execute_statement(handle, params)
        sql_text = handle.sql
        if sql_text is None:
            raise ExecutionError(
                "the router needs the statement's SQL text to forward it"
            )
        if not self._r_in_txn:
            # New work holds here while a cluster epoch flip runs
            # (mirrors the shard-side gate; in-transaction statements
            # pass so bound transactions can reach COMMIT).
            rdb.flip_gate.wait(_FLIP_GATE_TIMEOUT)
        # Forward a trace context only when the client sent one, or when
        # the head-sampling coin an embedded root uses picks this
        # request (``statement_begin``: 0.0 = counted only, negative =
        # latency-sampled, positive = traced root); every other request
        # reaches the shards untraced.  The context is active while the
        # statement routes, so the pool's acquire lands in its tree.
        ctx = self._request_ctx
        obs = rdb.obs
        start = 0.0
        if ctx is None and obs is not None and obs.active:
            start = obs.statement_begin(handle.ast_type)
            if start > 0.0:
                ctx = TraceContext()
        if ctx is None and not start:
            return self._route(plan, params, sql_text, None)
        token = _trace_activate(ctx) if ctx is not None else None
        try:
            return self._route(plan, params, sql_text, ctx)
        finally:
            if token is not None:
                _trace_deactivate(token)
            if start:
                obs.statement_done(handle.kind, abs(start), ctx, sql_text,
                                   self.isolation.value)

    def _route(
        self,
        plan: RoutePlan,
        params: Sequence[Any],
        sql_text: str,
        trace_parent: Any,
    ) -> Result:
        rdb: RouterDatabase = self.db  # type: ignore[assignment]
        if self._r_in_txn:
            return self._execute_in_txn(plan, params, sql_text, trace_parent)
        if plan.mode == SINGLE:
            if plan.error is not None:
                raise plan.error
            shard = rdb.shard_map.shard_for_key(plan.key(params))
            result, _ = rdb.forward(shard, sql_text, params, trace_parent)
            return result
        if plan.mode == ANY:
            result, _ = rdb.forward(rdb.next_rr(), sql_text, params,
                                    trace_parent)
            return result
        if plan.mode == BROADCAST:
            return rdb.broadcast(sql_text, params, trace_parent)
        return rdb.scatter(plan, sql_text, params, trace_parent)

    def _execute_in_txn(
        self,
        plan: RoutePlan,
        params: Sequence[Any],
        sql_text: str,
        trace_parent: Any,
    ) -> Result:
        rdb: RouterDatabase = self.db  # type: ignore[assignment]
        if plan.mode == SINGLE:
            if plan.error is not None:
                raise plan.error
            shard = rdb.shard_map.shard_for_key(plan.key(params))
        elif plan.mode == ANY:
            if self._r_shard is not None:
                shard = self._r_shard
            else:
                # Replicated read before the transaction binds: serve
                # it from any shard outside the transaction (replicated
                # tables are read-mostly; TPC-C's `item` is read-only).
                result, _ = rdb.forward(rdb.next_rr(), sql_text, params,
                                        trace_parent)
                return result
        else:
            raise ExecutionError(
                "cross-shard statement inside a transaction; cluster "
                "transactions are single-shard (filter on the partition "
                "column, e.g. w_id = ?)"
            )
        if self._r_shard is None:
            return self._bind(shard, sql_text, params, trace_parent)
        if shard != self._r_shard:
            raise ExecutionError(
                f"transaction is bound to shard {self._r_shard} but this "
                f"statement routes to shard {shard}; cluster transactions "
                "are single-shard"
            )
        conn: Connection = self._r_handle.conn
        conn.trace_parent = trace_parent
        try:
            return conn.execute(sql_text, params)
        except ReproError:
            self._check_binding(conn)
            raise
        finally:
            conn.trace_parent = None

    def _bind(
        self,
        shard: int,
        sql_text: str,
        params: Sequence[Any],
        trace_parent: Any,
    ) -> Result:
        """Bind the transaction to ``shard`` with its first statement:
        BEGIN and the statement (EXECUTE through the connection's
        auto-prepared handle) leave in one write, and both replies come
        back in one round trip.  Sending the statement before BEGIN is
        acknowledged is safe: a shard session refuses BEGIN only when
        closed or already in a transaction, and the pool never keeps a
        connection that is in one.  Should BEGIN fail anyway, the
        connection is released — which resets it, rolling back whatever
        the statement did — and BEGIN's error is raised.  Should the
        connection die on the way (a kill, a crash), the shard
        transaction died with it, and so does this one."""
        rdb: RouterDatabase = self.db  # type: ignore[assignment]
        handle = rdb.pools[shard].acquire()
        conn: Connection = handle.conn
        conn.trace_parent = trace_parent
        try:
            prepared = conn.cached_statement(sql_text)
            pipe = conn.pipeline()
            pipe.begin()
            if prepared is not None:
                pipe.execute_prepared(prepared, params)
            else:
                pipe.execute(sql_text, params)
            began, result = pipe.sync()
        except BaseException:
            if conn.closed:
                self._r_in_txn = False
            handle.release()
            raise
        finally:
            conn.trace_parent = None
        if isinstance(began, ReproError):
            handle.release()
            raise began
        self._r_handle = handle
        self._r_shard = shard
        if isinstance(result, ReproError):
            self._check_binding(conn)
            raise result
        return result

    def _check_binding(self, conn: Connection) -> None:
        """After a statement error: if the shard rolled the transaction
        back (abort, kill), drop the binding, so the COMPLETE/ERROR
        frames the server builds from ``session.in_transaction`` stay
        truthful."""
        if conn.closed or not conn.in_transaction:
            self._abort_binding()
