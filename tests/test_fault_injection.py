"""Fault-injection stress suite: exactly-once under adversity.

Every scenario drives one lazy migration with a :class:`FaultPlan`
armed, a pool of concurrent client threads issuing statements against
the new schema, and — for CRASH plans — the full section 3.5 recovery
drill (discard engine, ``submit(resume=True)``, WAL replay).  At the
end the :class:`InvariantChecker` verifies the paper's guarantees
against ground truth: no lost tuples, no duplicates, no stuck claims,
tracker counters consistent with actual output rows.

The grid is (fault plan) x (ConflictMode) x (migration category):
bitmap units use the SPLIT migration (1:1, Algorithm 2), hashmap units
the AGG migration (n:1 with GROUP BY, Algorithm 3).

Depth is controlled by ``BULLFROG_FAULT_DEPTH``: the default ``quick``
keeps tier-1 runtime low; ``full`` raises rows/clients/iterations for a
standalone soak run (``BULLFROG_FAULT_DEPTH=full pytest -m faults``).
"""

import os
import threading

import pytest

from repro import BackgroundConfig, ConflictMode, Database
from repro.core import (
    FAULT_POINTS,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
)
from repro.errors import TransactionAborted
from repro.testing import FaultHarness, InvariantViolation

pytestmark = pytest.mark.faults

FULL_DEPTH = os.environ.get("BULLFROG_FAULT_DEPTH", "quick") == "full"
ROWS = 240 if FULL_DEPTH else 48
CLIENTS = 6 if FULL_DEPTH else 3
ITERATIONS = 120 if FULL_DEPTH else 20
GROUPS = 6


def make_db(rows=ROWS):
    # Pinned: fault-injection tests assert 2PL lazy-migration mechanics.
    db = Database(isolation="read_committed")
    s = db.connect()
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    s.execute("CREATE INDEX src_grp ON src (grp)")
    for i in range(rows):
        s.execute(
            "INSERT INTO src VALUES (?, ?, ?, ?)",
            [i, i % GROUPS, i * 10, f"t{i % 3}"],
        )
    return db


SPLIT_DDL = """
CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
INSERT INTO left_part (id, v) SELECT id, v FROM src;
CREATE TABLE right_part (id INT PRIMARY KEY, tag VARCHAR(10));
INSERT INTO right_part (id, tag) SELECT id, tag FROM src;
"""

AGG_DDL = """
CREATE TABLE grp_totals (grp INT PRIMARY KEY, total INT);
INSERT INTO grp_totals (grp, total)
    SELECT grp, SUM(v) FROM src GROUP BY grp;
"""


def bitmap_ops(session, index, iteration):
    key = (index * 31 + iteration * 7) % ROWS
    session.execute("SELECT v FROM left_part WHERE id = ?", [key])
    if iteration % 3 == 0:
        session.execute("SELECT tag FROM right_part WHERE id = ?", [key])


def hashmap_ops(session, index, iteration):
    key = (index + iteration) % GROUPS
    session.execute("SELECT total FROM grp_totals WHERE grp = ?", [key])


CATEGORIES = {
    "bitmap": (SPLIT_DDL, bitmap_ops),
    "hashmap": (AGG_DDL, hashmap_ops),
}

# Plan factories: fresh FaultRule objects per scenario (the injector
# latches per-rule hit counts).  ``after`` on the crash rules lets a
# couple of migration commits land first so recovery has WAL records
# to replay.
PLANS = {
    "none": lambda: None,
    "abort-produce": lambda: FaultPlan(
        [FaultRule("migrate.after_produce", FaultAction.ABORT, times=3)],
        name="abort-produce",
    ),
    "abort-claim": lambda: FaultPlan(
        [FaultRule("migrate.before_claim", FaultAction.ABORT, times=2, after=1)],
        name="abort-claim",
    ),
    "abort-commit": lambda: FaultPlan(
        [FaultRule("txn.commit", FaultAction.ABORT, times=2, after=1)],
        name="abort-commit",
    ),
    "latency": lambda: FaultPlan(
        [
            FaultRule(
                "migrate.after_produce",
                FaultAction.LATENCY,
                latency=0.005,
                times=10,
            )
        ],
        name="latency",
    ),
    "crash-before-mark": lambda: FaultPlan(
        [FaultRule("migrate.before_mark", FaultAction.CRASH, after=1)],
        name="crash-before-mark",
    ),
    "crash-after-produce": lambda: FaultPlan(
        [FaultRule("migrate.after_produce", FaultAction.CRASH, after=2)],
        name="crash-after-produce",
    ),
    "crash-wal-flush": lambda: FaultPlan(
        [FaultRule("wal.flush", FaultAction.CRASH, after=2)],
        name="crash-wal-flush",
    ),
}


def run_scenario(category, conflict_mode, plan_name, background=False):
    ddl, ops = CATEGORIES[category]
    db = make_db()
    kwargs = {"conflict_mode": conflict_mode}
    if background:
        kwargs["background"] = BackgroundConfig(delay=0.02, chunk=16, interval=0.0)
    else:
        kwargs["background"] = BackgroundConfig(enabled=False)
    harness = FaultHarness(
        db, "m", ddl, plan=PLANS[plan_name](), engine_kwargs=kwargs
    )
    harness.submit()
    try:
        crashed = harness.run_clients(ops, clients=CLIENTS, iterations=ITERATIONS)
        if crashed:
            restored = harness.recover()
            assert restored >= 0
            # Post-recovery client wave: the re-attached engine must
            # keep serving (and finishing) the migration.
            harness.run_clients(ops, clients=CLIENTS, iterations=ITERATIONS // 2)
        harness.quiesce()
        harness.drain()
        report = harness.check(expect_complete=True)
        report.raise_if_violated()
        assert report.ok
        return harness
    finally:
        harness.shutdown()


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("category", sorted(CATEGORIES))
class TestTrackerModeGrid:
    def test_plan(self, category, plan_name):
        run_scenario(category, ConflictMode.TRACKER, plan_name)


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("category", sorted(CATEGORIES))
class TestOnConflictModeGrid:
    def test_plan(self, category, plan_name):
        harness = run_scenario(category, ConflictMode.ON_CONFLICT, plan_name)
        # ON_CONFLICT relies on unique-key suppression instead of lock
        # bits; duplicate attempts are expected and counted, duplicate
        # *rows* never are (checked by the invariant report above).
        assert harness.engine is not None


@pytest.mark.parametrize("category", sorted(CATEGORIES))
def test_crash_with_background_threads(category):
    """Crash while background migration threads are live; they must die
    quietly, and the resumed engine (with fresh threads) must finish."""
    run_scenario(
        category, ConflictMode.TRACKER, "crash-before-mark", background=True
    )


def test_double_crash_bitmap():
    """Two successive crashes, each followed by WAL-replay recovery."""
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        SPLIT_DDL,
        plan=PLANS["crash-before-mark"](),
        engine_kwargs={"background": BackgroundConfig(enabled=False)},
    )
    harness.submit()
    try:
        crashed = harness.run_clients(bitmap_ops, clients=CLIENTS, iterations=ITERATIONS)
        assert crashed
        # Arm a second crash for the next life.
        harness.recover(plan=PLANS["crash-after-produce"]())
        if harness.run_clients(bitmap_ops, clients=CLIENTS, iterations=ITERATIONS):
            harness.recover()
        harness.run_clients(bitmap_ops, clients=CLIENTS, iterations=ITERATIONS // 2)
        harness.drain()
        harness.check(expect_complete=True).raise_if_violated()
        assert harness.crashes >= 1
    finally:
        harness.shutdown()


def test_crash_before_mark_replays_wal():
    """The committed-but-untracked window: the crashed transaction's
    MIGRATE record is durable, so recovery must restore its bits and
    the checker must see neither lost nor duplicate rows."""
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        SPLIT_DDL,
        plan=FaultPlan([FaultRule("migrate.before_mark", FaultAction.CRASH)]),
        engine_kwargs={"background": BackgroundConfig(enabled=False)},
    )
    harness.submit()
    try:
        session = db.connect()
        with pytest.raises(SimulatedCrash):
            session.execute("SELECT v FROM left_part WHERE id = 3")
        assert harness.crashed
        restored = harness.recover()
        # The crashed txn committed before the crash: its granule comes
        # back from the WAL even though mark_migrated never ran.
        assert restored >= 1
        harness.check().raise_if_violated()
        harness.drain()
        report = harness.check(expect_complete=True)
        report.raise_if_violated()
        assert report.rows_verified == 2 * ROWS  # both outputs, once each
    finally:
        harness.shutdown()


def test_abort_resets_claims_and_retry_succeeds():
    """An injected abort mid-migration must leave no stuck claims; the
    very next statement over the same scope succeeds."""
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        SPLIT_DDL,
        plan=FaultPlan([FaultRule("migrate.after_produce", FaultAction.ABORT)]),
        engine_kwargs={"background": BackgroundConfig(enabled=False)},
    )
    harness.submit()
    try:
        session = db.connect()
        with pytest.raises(TransactionAborted):
            session.execute("SELECT v FROM left_part WHERE id = 5")
        if session.in_transaction:
            session.rollback()
        session._txn = None
        harness.check().raise_if_violated()  # no stuck IN_PROGRESS bits
        assert session.execute("SELECT v FROM left_part WHERE id = 5").scalar() == 50
        assert harness.injector.fired("migrate.after_produce") == 1
    finally:
        harness.shutdown()


SEAM_MODES = {
    "tracker": {"conflict_mode": ConflictMode.TRACKER},
    "on-conflict": {"conflict_mode": ConflictMode.ON_CONFLICT},
    "tracking-off": {"tracking_enabled": False},
}
SEAM_STATEMENTS = {
    "bitmap": ("SELECT v FROM left_part WHERE id = 5", 50),
    "hashmap": (
        "SELECT total FROM grp_totals WHERE grp = 1",
        sum(i * 10 for i in range(ROWS) if i % GROUPS == 1),
    ),
}


@pytest.mark.parametrize("category", sorted(CATEGORIES))
@pytest.mark.parametrize("mode", sorted(SEAM_MODES))
def test_one_migration_transaction_one_seam_sequence(mode, category):
    """Claimed (TRACKER) and claim-free (ON_CONFLICT, tracking disabled)
    migrations run the same transaction: an abort at ``after_produce``
    leaves nothing behind, and a successful transaction fires the three
    seams once each, in order, with the same payloads — for both tracker
    kinds."""
    seen = []

    def record(point):
        return FaultRule(
            point,
            FaultAction.CALLBACK,
            times=None,
            callback=lambda ctx: seen.append((point, dict(ctx))),
        )

    plan = FaultPlan(
        [
            # First hit aborts; the recorder behind it sees every later hit.
            FaultRule("migrate.after_produce", FaultAction.ABORT, times=1),
            record("migrate.after_produce"),
            record("migrate.before_mark"),
            record("migrate.after_commit"),
        ]
    )
    ddl, _ops = CATEGORIES[category]
    sql, expected = SEAM_STATEMENTS[category]
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        ddl,
        plan=plan,
        engine_kwargs={
            "background": BackgroundConfig(enabled=False),
            **SEAM_MODES[mode],
        },
    )
    harness.submit()
    try:
        engine = harness.engine
        runtime = engine.units[0]
        session = db.connect()
        with pytest.raises(TransactionAborted):
            session.execute(sql)
        assert seen == []  # nothing past the aborted after_produce
        for name in runtime.plan.output_tables:
            assert list(db.catalog.table(name).heap.scan()) == []
        harness.check().raise_if_violated()  # no stuck IN_PROGRESS claims
        assert runtime.tracker.migrated_count == 0
        assert engine.stats.snapshot()["migration_txn_aborts"] == 1

        assert session.execute(sql).scalar() == expected
        unit = runtime.plan.unit_id
        assert seen == [
            ("migrate.after_produce", {"unit": unit, "wip": 1, "produced": 1}),
            ("migrate.before_mark", {"unit": unit, "wip": 1}),
            ("migrate.after_commit", {"unit": unit, "wip": 1}),
        ]
        snapshot = engine.stats.snapshot()
        assert snapshot["migration_txn_aborts"] == 1
        assert snapshot["granules_migrated"] == 1
        harness.check().raise_if_violated()
    finally:
        harness.shutdown()


def test_invariant_checker_detects_planted_duplicate():
    """The checker itself must catch violations: plant a duplicate row
    in an output heap and expect a report."""
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        SPLIT_DDL,
        engine_kwargs={"background": BackgroundConfig(enabled=False)},
    )
    harness.submit()
    try:
        harness.drain()
        table = db.catalog.table("left_part")
        _tid, row = next(iter(table.heap.scan()))
        table.heap.insert(row)
        report = harness.check()
        assert not report.ok
        assert any("duplicate" in v for v in report.violations)
        with pytest.raises(InvariantViolation):
            report.raise_if_violated()
    finally:
        harness.shutdown()


def test_invariant_checker_detects_stuck_claim():
    db = make_db()
    harness = FaultHarness(
        db,
        "m",
        SPLIT_DDL,
        engine_kwargs={"background": BackgroundConfig(enabled=False)},
    )
    harness.submit()
    try:
        from repro.core import Claim

        runtime = harness.engine.units[0]
        assert runtime.tracker.try_begin(7) is Claim.MIGRATE
        report = harness.check()
        assert any("stuck IN_PROGRESS" in v for v in report.violations)
        runtime.tracker.reset([7])
        assert harness.check().ok
    finally:
        harness.shutdown()


class TestFaultPlanValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("migrate.no_such_point", FaultAction.ABORT)

    def test_abort_at_abort_hook_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("txn.abort", FaultAction.ABORT)

    def test_latency_requires_positive_latency(self):
        with pytest.raises(ValueError):
            FaultRule("wal.flush", FaultAction.LATENCY, latency=0.0)

    def test_callback_requires_callback(self):
        with pytest.raises(ValueError):
            FaultRule("txn.commit", FaultAction.CALLBACK)

    def test_points_registry_is_closed(self):
        assert "migrate.before_mark" in FAULT_POINTS
        assert {"net.accept", "net.read", "net.write"} <= FAULT_POINTS
        assert {"cluster.prepare", "cluster.commit"} <= FAULT_POINTS
        assert len(FAULT_POINTS) == 13


class TestInjectorBookkeeping:
    def test_hits_and_fired_counters(self):
        plan = FaultPlan(
            [FaultRule("txn.commit", FaultAction.ABORT, times=1, after=1)]
        )
        injector = FaultInjector(plan)
        injector.fire("txn.commit")  # after=1 skips the first hit
        with pytest.raises(TransactionAborted):
            injector.fire("txn.commit")
        injector.fire("txn.commit")  # times=1 exhausted
        assert injector.hits("txn.commit") == 3
        assert injector.fired("txn.commit") == 1
        assert injector.fired() == 1
        assert [e.point for e in injector.events] == ["txn.commit"]

    def test_disarmed_injector_is_inert(self):
        injector = FaultInjector(None)
        for point in FAULT_POINTS:
            injector.fire(point)
        assert injector.fired() == 0
        assert not injector.crashed.is_set()

    def test_callback_action(self):
        seen = []
        plan = FaultPlan(
            [
                FaultRule(
                    "background.pass",
                    FaultAction.CALLBACK,
                    times=2,
                    callback=lambda ctx: seen.append(ctx["n"]),
                )
            ]
        )
        injector = FaultInjector(plan)
        for n in range(4):
            injector.fire("background.pass", n=n)
        assert seen == [0, 1]

    def test_predicate_gates_rule(self):
        plan = FaultPlan(
            [
                FaultRule(
                    "migrate.after_produce",
                    FaultAction.ABORT,
                    times=99,
                    predicate=lambda ctx: ctx.get("unit") == "target",
                )
            ]
        )
        injector = FaultInjector(plan)
        injector.fire("migrate.after_produce", unit="other")
        with pytest.raises(TransactionAborted):
            injector.fire("migrate.after_produce", unit="target")
        assert injector.fired() == 1


def test_concurrent_fire_is_thread_safe():
    """Many threads racing the same times-limited rule: exactly
    ``times`` of them observe the fault."""
    plan = FaultPlan([FaultRule("txn.commit", FaultAction.ABORT, times=5)])
    injector = FaultInjector(plan)
    aborted = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for _ in range(10):
            try:
                injector.fire("txn.commit")
            except TransactionAborted:
                aborted.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(aborted) == 5
    assert injector.hits("txn.commit") == 80
