"""The four workloads: seeded op streams, set-up, execution, output checks.

Load model (all workloads): closed loop, one client, one connection.
The op stream is generated from the seed alone (``Workload.blocks``);
the program under test receives only the generated statements.  A
stream is dealt from fixed-composition *decks* (every deck holds the
exact mix), so op-class shares — and every count derived from them —
do not wander with the seed, and is cut into fixed-size *blocks*, the
unit the throughput estimator works on.

Each workload has two topologies.  ``deployed`` is how the system is
run: embedded workloads call the library, wire/router workloads talk
to a server *subprocess* started through the public CLI.  ``inproc``
puts that server in the harness process so the tracing wrappers see
both sides; for embedded workloads the two are the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from typing import Any, Callable, Iterator

from repro import Database
from repro.cluster import LocalCluster
from repro.core import BackgroundConfig, MigrationController, Strategy
from repro.net import BullfrogServer, ServerConfig, connect
from repro.obs import Observability
from repro.testing import InvariantChecker
from repro.tpcc import (
    SCENARIOS,
    ScaleConfig,
    SchemaVariant,
    TpccClient,
    create_schema,
    load_tpcc,
)

from procs import ServerProcess

PIPELINE_DEPTH = 16
KV_GROUP_ROWS = 50
KV_PAD = "p" * 40

# Op classes reported as primary/secondary/tertiary latency, per family.
# The TPC-C tertiary is Stock-Level alone: Order-Status has two query
# paths (by id, by last name), and the median of a two-mode mix jumps
# between the modes from run to run.
TPCC_CLASSES = {"primary": ("new_order", "new_order_rollback"),
                "secondary": ("payment",),
                "tertiary": ("stock_level",)}

# The router CLI's fixed per-warehouse scale (repro/cluster/__main__.py).
ROUTER_SCALE = ScaleConfig(
    warehouses=2, districts_per_warehouse=2, customers_per_district=30,
    items=50, initial_orders_per_district=30,
)


class Sizing:
    """Data sizes and warm-up lengths.  ``smoke`` keeps every code path
    and shrinks the data; its numbers are not comparable with a full run."""

    def __init__(self, smoke: bool) -> None:
        self.kv_rows = 2_000 if smoke else 20_000
        self.kv_warmup_blocks = 2 if smoke else 20
        self.split_scale = ScaleConfig(
            warehouses=1, districts_per_warehouse=10,
            customers_per_district=30 if smoke else 500,
            items=200, initial_orders_per_district=30,
        )
        self.split_warmup_blocks = 2 if smoke else 25
        self.router_warmup_blocks = 1 if smoke else 10


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _deal(rng: random.Random, deck: list[str], block: int) -> Iterator[list[str]]:
    """Shuffle ``deck`` over and over, yielding ``block`` names at a time."""
    assert len(deck) % block == 0
    while True:
        cards = list(deck)
        rng.shuffle(cards)
        for start in range(0, len(cards), block):
            yield cards[start : start + block]


class Stream:
    """Iterator over blocks that also keeps a running SHA-256, so two
    runs can prove they executed the same inputs."""

    def __init__(self, blocks: Iterator[list[tuple]]) -> None:
        self._blocks = blocks
        self._sha = hashlib.sha256()
        self.digests: list[str] = []  # digests[j] covers blocks 0..j

    def __iter__(self) -> "Stream":
        return self

    def __next__(self) -> list[tuple]:
        block = next(self._blocks)
        self._sha.update(repr(block).encode())
        self.digests.append(self._sha.hexdigest())
        return block


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    name: str
    ops_per_block: int  # client ops (a pipelined batch counts its statements)
    classes: dict[str, tuple[str, ...]]
    remote = False  # True when ``deployed`` differs from ``inproc``

    def __init__(self, sizing: Sizing, src_dir: str, out_dir: str) -> None:
        self.sizing = sizing
        self.src_dir = src_dir
        self.out_dir = out_dir

    def blocks(self, seed: int) -> Iterator[list[tuple]]:
        raise NotImplementedError

    def open(self, topology: str, seed: int, rep_seconds: float) -> "Rep":
        """Build a fresh database/server and client; returns the live
        repetition (a context manager)."""
        raise NotImplementedError


class Rep(contextlib.ExitStack):
    """One repetition's live state.  ``run_op(op)`` executes one stream
    op and returns how many of its statements failed the output check;
    ``verify()`` runs the end-of-repetition output check and returns a
    list of problems (empty = correct)."""

    server: ServerProcess | None = None
    conn: Any = None  # the client's wire connection, when there is one
    warmup_blocks = 0
    run_op: Callable[[tuple], int]

    def __init__(self) -> None:
        super().__init__()
        self.dbs: list[Database] = []  # in-process databases, for layer_facts

    def begin_measuring(self) -> None:
        """Hook between warm-up and the measured phase."""

    def poll(self) -> None:
        """Called after every measured block."""

    def verify(self) -> list[str]:
        return []

    def layer_facts(self) -> dict[str, float]:
        """Counts the program itself keeps (migration stats, lock waits)."""
        return {"txn.lock_wait_s": sum(
            row["wait_seconds"]
            for db in self.dbs for row in db.txns.locks.snapshot())}


# ----------------------------------------------------------------------
# kv workloads
# ----------------------------------------------------------------------
KV_DDL = (
    "CREATE TABLE kv (k INT PRIMARY KEY, g INT, v INT, pad VARCHAR(64))",
    "CREATE INDEX kv_g ON kv (g)",
)
KV_INSERT = "INSERT INTO kv VALUES (?, ?, ?, ?)"
KV_SELECT = "SELECT v FROM kv WHERE k = ?"
KV_UPDATE = "UPDATE kv SET v = v + 1 WHERE k = ?"
KV_SCAN = "SELECT k, v * 2 + 1 FROM kv WHERE g = ? AND v >= ?"


def kv_rows(count: int) -> list[list]:
    return [[k, k // KV_GROUP_ROWS, k % 97, KV_PAD] for k in range(count)]


class _KvRep(Rep):
    """Shared kv bookkeeping: the SUM(v) output check."""

    def __init__(self, rows: int) -> None:
        super().__init__()
        self.expected_sum = sum(row[2] for row in kv_rows(rows))
        self.scalar: Callable[[str], Any]

    def verify(self) -> list[str]:
        found = self.scalar("SELECT SUM(v) FROM kv")
        if found != self.expected_sum:
            return [f"SUM(v) is {found}, expected {self.expected_sum} "
                    "(loaded sum + UPDATEs acknowledged)"]
        return []


class KvEmbedded(Workload):
    name = "kv_embedded"
    ops_per_block = 100
    classes = {"primary": ("select",), "secondary": ("update",),
               "tertiary": ("scan",)}
    # 70% cached point SELECT, 20% autocommit point UPDATE, 8% 50-row
    # index scan with residual filter + arithmetic projection, 2% point
    # SELECT whose text never repeats (parse + plan cache miss).
    DECK = ["select"] * 70 + ["update"] * 20 + ["scan"] * 8 + ["literal"] * 2

    def blocks(self, seed: int) -> Iterator[list[tuple]]:
        rng = random.Random(seed)
        rows = self.sizing.kv_rows
        groups = rows // KV_GROUP_ROWS
        literals = 0
        for names in _deal(rng, self.DECK, self.ops_per_block):
            block = []
            for name in names:
                if name == "select":
                    block.append((name, KV_SELECT, [rng.randrange(rows)], 1))
                elif name == "update":
                    block.append((name, KV_UPDATE, [rng.randrange(rows)], 1))
                elif name == "scan":
                    block.append((name, KV_SCAN, [rng.randrange(groups), 0],
                                  KV_GROUP_ROWS))
                else:
                    literals += 1
                    block.append((
                        name,
                        f"SELECT v FROM kv WHERE k = {rng.randrange(rows)} "
                        f"AND v >= -{literals}",
                        (), 1,
                    ))
            yield block

    def open(self, topology: str, seed: int, rep_seconds: float) -> Rep:
        rep = _KvRep(self.sizing.kv_rows)
        rep.warmup_blocks = self.sizing.kv_warmup_blocks
        db = Database()
        rep.dbs.append(db)
        session = db.connect()
        rep.callback(session.close)
        for ddl in KV_DDL:
            session.execute(ddl)
        session.begin()
        for row in kv_rows(self.sizing.kv_rows):
            session.execute(KV_INSERT, row)
        session.commit()
        execute = session.execute

        def run_op(op: tuple) -> int:
            name, sql, params, expect = op
            result = execute(sql, params)
            if name == "update":
                if result.rowcount != expect:
                    return 1
                rep.expected_sum += 1
                return 0
            return int(len(result.rows) != expect)

        rep.run_op = run_op
        rep.scalar = lambda sql: execute(sql).scalar()
        return rep


class KvWire(Workload):
    name = "kv_wire"
    ops_per_block = 100
    classes = {"primary": ("select",), "secondary": ("update",),
               "tertiary": ("batch",)}
    remote = True
    # 56 serial SELECT + 12 serial UPDATE round trips + 2 pipelined
    # batches of 16 SELECTs = 100 statements.
    DECK = ["select"] * 56 + ["update"] * 12 + ["batch"] * 2
    LOAD_BATCH = 500

    def blocks(self, seed: int) -> Iterator[list[tuple]]:
        rng = random.Random(seed)
        rows = self.sizing.kv_rows
        for names in _deal(rng, self.DECK, len(self.DECK)):
            yield [
                (name, [rng.randrange(rows) for _ in range(PIPELINE_DEPTH)])
                if name == "batch" else (name, rng.randrange(rows))
                for name in names
            ]

    def open(self, topology: str, seed: int, rep_seconds: float) -> Rep:
        rep = _KvRep(self.sizing.kv_rows)
        rep.warmup_blocks = self.sizing.kv_warmup_blocks
        if topology == "deployed":
            rep.server = ServerProcess(
                "repro.net", [], self.src_dir, self.out_dir)
            rep.callback(rep.server.stop)
            port = rep.server.port
        else:
            # Same construction as the CLI: observability on.
            db = Database(obs=Observability())
            rep.dbs.append(db)
            server = BullfrogServer(db, ServerConfig(port=0)).start()
            rep.callback(server.shutdown)
            port = server.port
        conn = rep.conn = connect("127.0.0.1", port)
        rep.callback(conn.close)
        for ddl in KV_DDL:
            conn.execute(ddl)
        insert = conn.prepare(KV_INSERT)
        rows = kv_rows(self.sizing.kv_rows)
        # Set-up loads over the wire in pipelined transactions, so
        # setup_s covers the wire write path.
        for start in range(0, len(rows), self.LOAD_BATCH):
            pipe = conn.pipeline()
            pipe.begin()
            for row in rows[start : start + self.LOAD_BATCH]:
                pipe.execute_prepared(insert, row)
            pipe.commit()
            for reply in pipe.sync():
                if isinstance(reply, Exception):
                    raise reply
        select = conn.prepare(KV_SELECT)
        update = conn.prepare(KV_UPDATE)
        execute_prepared = conn.execute_prepared

        def run_op(op: tuple) -> int:
            name, arg = op
            if name == "select":
                return int(len(execute_prepared(select, (arg,)).rows) != 1)
            if name == "update":
                if execute_prepared(update, (arg,)).rowcount != 1:
                    return 1
                rep.expected_sum += 1
                return 0
            pipe = conn.pipeline()
            for key in arg:
                pipe.execute_prepared(select, (key,))
            return sum(
                isinstance(reply, Exception) or len(reply.rows) != 1
                for reply in pipe.sync()
            )

        rep.run_op = run_op
        rep.scalar = lambda sql: conn.execute(sql).scalar()
        return rep


# ----------------------------------------------------------------------
# TPC-C workloads
# ----------------------------------------------------------------------
# 200 transactions in the paper's mix (45/43/4/4/4); one of the 90
# New-Orders is the specification's ~1% user-error rollback, which is a
# success.  The harness, not the client's RNG, decides which one, so
# the number of committed New-Orders is known exactly.
TPCC_DECK = (
    ["new_order"] * 89 + ["new_order_rollback"] + ["payment"] * 86
    + ["delivery"] * 8 + ["order_status"] * 8 + ["stock_level"] * 8
)
TPCC_BLOCK = 20


def _tpcc_blocks(seed: int) -> Iterator[list[tuple]]:
    rng = random.Random(seed)
    for names in _deal(rng, TPCC_DECK, TPCC_BLOCK):
        yield [(name,) for name in names]


def _tpcc_run_op(rep: Rep, client: TpccClient) -> Callable[[tuple], int]:
    def run_op(op: tuple) -> int:
        name = op[0]
        if name == "new_order_rollback":
            client.rollback_rate = 1.0
            committed = client.run("new_order")
            client.rollback_rate = 0.0
            return int(not committed)
        committed = client.run(name)
        if name == "new_order" and committed:
            rep.new_orders += 1
        return int(not committed)

    client.rollback_rate = 0.0
    rep.new_orders = 0
    return run_op


class TpccSplitLazy(Workload):
    name = "tpcc_split_lazy"
    ops_per_block = TPCC_BLOCK
    classes = TPCC_CLASSES

    def blocks(self, seed: int) -> Iterator[list[tuple]]:
        return _tpcc_blocks(seed)

    def open(self, topology: str, seed: int, rep_seconds: float) -> Rep:
        scale = self.sizing.split_scale
        rep = _SplitRep(scale, rep_seconds)
        rep.warmup_blocks = self.sizing.split_warmup_blocks
        db = Database()
        session = db.connect()
        create_schema(session)
        session.close()
        load_tpcc(db, scale)
        rep.dbs.append(db)
        rep.client = TpccClient(db, scale, SchemaVariant.BASE, seed=seed)
        rep.callback(rep.client.session.close)
        rep.run_op = _tpcc_run_op(rep, rep.client)
        return rep


class _SplitRep(Rep):
    def __init__(self, scale: ScaleConfig, rep_seconds: float) -> None:
        super().__init__()
        self.scale = scale
        # Background migration starts a fifth of the way in and, with
        # this pacing, finishes at 60-80% of the phase on the commit
        # that defined the benchmark: the tail is new-schema steady state.
        self.background = BackgroundConfig(
            delay=0.2 * rep_seconds, chunk=32, interval=0.015)
        self.flipped_at = 0.0
        self.complete_s: float | None = None

    def begin_measuring(self) -> None:
        controller = MigrationController(self.dbs[0])
        scenario = SCENARIOS["split"]
        self.flipped_at = time.perf_counter()
        self.handle = controller.submit(
            "split", scenario["ddl"], Strategy.LAZY,
            background=self.background, big_flip=scenario["big_flip"],
        )
        self.callback(self.handle.shutdown)
        self.engine = controller.engine
        self.client.variant = scenario["variant"]

    def poll(self) -> None:
        if self.complete_s is None and self.handle.is_complete:
            self.complete_s = time.perf_counter() - self.flipped_at

    def verify(self) -> list[str]:
        problems = []
        if not self.handle.await_completion(timeout=60.0):
            problems.append("migration did not complete within 60 s")
        self.poll()
        migrated = self.handle.stats.tuples_migrated
        if migrated != self.scale.total_customers:
            problems.append(f"tuples_migrated is {migrated}, expected "
                            f"{self.scale.total_customers}")
        # Payment mutates the migrated rows, so value-level comparison
        # against the old table is not meaningful: structural checks.
        report = InvariantChecker(self.engine).check(
            expect_complete=True, structural_only=True)
        problems.extend(report.violations)
        return problems

    def layer_facts(self) -> dict[str, float]:
        progress = self.handle.progress()
        return {
            **super().layer_facts(),
            "core.migration_complete_s": self.complete_s or 0.0,
            "core.tuples_migrated": progress["tuples_migrated"],
            "core.skip_waits": progress["skip_waits"],
            "core.bg_passes": progress["background_passes"],
        }


class TpccRouter(Workload):
    name = "tpcc_router"
    ops_per_block = TPCC_BLOCK
    classes = TPCC_CLASSES
    remote = True
    SHARDS = 2

    def blocks(self, seed: int) -> Iterator[list[tuple]]:
        return _tpcc_blocks(seed)

    def open(self, topology: str, seed: int, rep_seconds: float) -> Rep:
        rep = _RouterRep()
        rep.warmup_blocks = self.sizing.router_warmup_blocks
        if topology == "deployed":
            rep.server = ServerProcess(
                "repro.cluster",
                ["--shards", str(self.SHARDS),
                 "--warehouses", str(ROUTER_SCALE.warehouses)],
                self.src_dir, self.out_dir,
            )
            rep.callback(rep.server.stop)
            port = rep.server.port
        else:
            cluster = LocalCluster(
                n_shards=self.SHARDS, scale=ROUTER_SCALE,
                obs_factory=Observability)
            rep.callback(cluster.shutdown)
            rep.dbs.extend(cluster.shard_dbs)
            port = cluster.port
        rep.conn = connect("127.0.0.1", port, auto_prepare=128)
        rep.callback(rep.conn.close)
        client = TpccClient(None, ROUTER_SCALE, seed=seed, session=rep.conn)
        rep.run_op = _tpcc_run_op(rep, client)
        return rep


class _RouterRep(Rep):
    def _order_counts(self) -> list[int]:
        return [
            self.conn.execute(
                "SELECT COUNT(*) FROM orders WHERE o_w_id = ?", [w]).scalar()
            for w in range(1, ROUTER_SCALE.warehouses + 1)
        ]

    def begin_measuring(self) -> None:
        self.orders_before = self._order_counts()
        self.new_orders = 0

    def verify(self) -> list[str]:
        problems = []
        grown = [after - before for before, after in
                 zip(self.orders_before, self._order_counts())]
        if sum(grown) != self.new_orders or min(grown) < 0:
            problems.append(
                f"per-warehouse order counts grew by {grown}, but "
                f"{self.new_orders} New-Orders committed")
        # The scatter path must agree with the keyed reads.
        total = self.conn.execute("SELECT COUNT(*) FROM orders").scalar()
        if total != sum(self.orders_before) + sum(grown):
            problems.append(f"scatter COUNT(*) is {total}, keyed counts sum "
                            f"to {sum(self.orders_before) + sum(grown)}")
        return problems


WORKLOADS: tuple[type[Workload], ...] = (
    KvEmbedded, KvWire, TpccSplitLazy, TpccRouter)
