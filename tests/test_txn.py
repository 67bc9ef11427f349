"""Tests for locking, transactions, undo/redo, and the WAL."""

import threading
import time

import pytest

from repro.catalog import Catalog, Column, PrimaryKey, TableSchema
from repro.errors import DeadlockAvoided, LockTimeout, TransactionAborted, TransactionError
from repro.txn import (
    LockManager,
    LockMode,
    LogOp,
    RedoLog,
    TransactionManager,
    TxnState,
)
from repro.txn.locks import supremum
from repro.types import int_type


class TestLockCompatibility:
    def test_shared_locks_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(2, "r", LockMode.S)

    def test_intention_locks_compatible(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.IS)
        lm.acquire(2, "r", LockMode.IX)
        lm.acquire(3, "r", LockMode.IX)

    def test_is_compatible_with_s(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.IS)

    def test_x_exclusive(self):
        lm = LockManager(timeout=0.1)
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeout):
            lm.acquire(2, "r", LockMode.IS)

    def test_reacquire_covered_mode_returns_false(self):
        lm = LockManager()
        assert lm.acquire(1, "r", LockMode.X) is True
        assert lm.acquire(1, "r", LockMode.S) is False
        assert lm.acquire(1, "r", LockMode.X) is False

    def test_upgrade(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.X) is True
        assert lm.held_mode(1, "r") is LockMode.X

    def test_upgrade_blocked_by_other_reader(self):
        lm = LockManager(timeout=0.1)
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        with pytest.raises(LockTimeout):
            lm.acquire(1, "r", LockMode.X)

    def test_release_wakes_waiters(self):
        lm = LockManager(timeout=5.0)
        lm.acquire(1, "r", LockMode.X)
        acquired = threading.Event()

        def waiter():
            lm.acquire(2, "r", LockMode.S)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        lm.release(1, "r")
        assert acquired.wait(2.0)
        thread.join()

    def test_supremum(self):
        assert supremum(LockMode.IS, LockMode.IX) is LockMode.IX
        assert supremum(LockMode.IX, LockMode.S) is LockMode.X
        assert supremum(LockMode.S, LockMode.S) is LockMode.S


class TestLockTableReclamation:
    """A tuple's ``_LockEntry`` leaves ``LockManager._entries`` when its
    last holder releases it, unless it has waiters or was ever
    contended, so the table holds held and contended resources, not
    every tuple ever locked.  Entries share the manager's one latch; a
    ``Condition`` over it is made only on an entry's first wait."""

    def test_distinct_tuple_locks_leave_the_table_bounded(self):
        from repro import Database

        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        s.begin()
        for i in range(300):
            s.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        s.commit()
        for i in range(300):
            s.execute("UPDATE t SET v = v + 1 WHERE id = ?", [i])
        tuples = [r for r in db.txns.locks._entries if r[0] == "tuple"]
        assert tuples == []  # one entry per tuple would leave 300
        assert len(db.txns.locks._entries) <= 1  # the table's own entry

    def test_churn_never_admits_two_x_holders(self):
        """Threads hammer X locks over a shared set of tuples, so
        never-contended entries leave the table at their last release
        and are made afresh at the next acquire while other threads
        wait on, grant and drop entries under the same latch; at no
        point may two transactions hold one tuple."""
        import random
        import sys

        lm = LockManager(timeout=10.0)
        resources = [("tuple", "t", n) for n in range(64)]
        holder: dict = {}
        check = threading.Lock()
        violations: list = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for step in range(400):
                txn_id = seed * 10_000 + step
                resource = rng.choice(resources)
                lm.acquire(txn_id, resource, LockMode.X)
                with check:
                    if resource in holder:
                        violations.append((resource, holder[resource], txn_id))
                    holder[resource] = txn_id
                with check:
                    del holder[resource]
                lm.release(txn_id, resource)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(1, 7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        with lm._latch:
            live = dict(lm._entries)
        assert all(not entry.holders for entry in live.values())

    def test_contended_entry_survives_and_is_reported(self):
        from repro import Database

        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        tid = next(t for t, _row in db.catalog.table("t").heap.scan())
        writer = db.connect(isolation="read_committed")
        writer.begin()
        writer.execute("UPDATE t SET v = 11 WHERE id = 1")
        waiter = threading.Thread(
            target=db.connect(isolation="read_committed").execute,
            args=("UPDATE t SET v = 12 WHERE id = 1",),
        )
        waiter.start()
        deadline = time.monotonic() + 5
        while db.txns.locks.waiter_count(("tuple", "t", tid)) == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        writer.commit()
        waiter.join(5)
        assert not waiter.is_alive()
        assert ("tuple", "t", tid) in db.txns.locks._entries
        rows = s.execute(
            "SELECT resource, wait_count FROM bullfrog_stat_locks "
            "WHERE resource_class = 'tuple'"
        ).rows
        assert rows == [(repr(("tuple", "t", tid)), 1)]
        assert s.execute("SELECT v FROM t WHERE id = 1").scalar() == 12


class TestDeadlockHandling:
    def test_detect_policy_finds_cycle(self):
        lm = LockManager(timeout=5.0)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        failures = []
        done = threading.Event()

        def t1():
            try:
                lm.acquire(1, "b", LockMode.X)  # waits on 2
            except DeadlockAvoided:
                failures.append(1)
            done.set()

        thread = threading.Thread(target=t1)
        thread.start()
        time.sleep(0.1)
        # txn 2 requesting "a" closes the cycle -> one of them dies.
        try:
            lm.acquire(2, "a", LockMode.X)
            died_here = False
        except DeadlockAvoided:
            died_here = True
        if died_here:
            lm.release(2, "b")  # unblock txn 1
        assert done.wait(5.0)
        assert died_here or failures
        thread.join()


class TestDeadlockOnHolderChange:
    def test_cycle_formed_while_waiting_is_detected(self):
        """T1 waits for X on r behind T2's S.  T3 then takes S on r
        (compatible with T2) and waits on T1's lock on a: the cycle
        T1 -> T3 -> T1 exists only through a holder T1 did not see when
        it began to wait.  T1's next check must find it (DeadlockAvoided
        well before the timeout), not sleep until LockTimeout."""
        lm = LockManager(timeout=10.0)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "r", LockMode.S)
        outcome: dict = {}

        def run(txn_id, resource, mode):
            started = time.monotonic()
            try:
                lm.acquire(txn_id, resource, mode)
                outcome[txn_id] = "granted"
            except (DeadlockAvoided, LockTimeout) as exc:
                outcome[txn_id] = type(exc)
                lm.release_all(txn_id, ["a", "r"])
            outcome[txn_id, "seconds"] = time.monotonic() - started

        t1 = threading.Thread(target=run, args=(1, "r", LockMode.X))
        t1.start()
        deadline = time.monotonic() + 5.0
        while lm.waiter_count("r") == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert lm.acquire(3, "r", LockMode.S)  # granted beside T2
        t3 = threading.Thread(target=run, args=(3, "a", LockMode.X))
        t3.start()
        while lm.waiter_count("a") == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        lm.release(2, "r")
        t1.join(5.0)
        t3.join(5.0)
        assert outcome[1] is DeadlockAvoided
        assert outcome[1, "seconds"] < 2.0
        assert outcome[3] == "granted"


def counting_acquires(lm: LockManager, monkeypatch) -> list:
    """Record every request that reaches the shared lock manager."""
    calls: list = []
    real = lm.acquire

    def acquire(txn_id, resource, mode):
        calls.append((txn_id, resource, mode))
        return real(txn_id, resource, mode)

    monkeypatch.setattr(lm, "acquire", acquire)
    return calls


class TestLocalLockTable:
    """A transaction answers requests its held mode covers from its own
    resource -> mode table; only the rest reach the shared manager."""

    @pytest.mark.parametrize(
        "held,requested",
        [
            (LockMode.IX, LockMode.IS),
            (LockMode.X, LockMode.IX),
            (LockMode.IS, LockMode.IS),
            (LockMode.IX, LockMode.IX),
            (LockMode.S, LockMode.S),
            (LockMode.X, LockMode.X),
        ],
    )
    def test_covered_reacquire_never_reaches_the_manager(
        self, monkeypatch, held, requested
    ):
        tm = TransactionManager()
        calls = counting_acquires(tm.locks, monkeypatch)
        txn = tm.begin()
        tid = 1
        txn.lock_table("t", held)
        txn.lock_tuple("t", tid, held)
        assert len(calls) == 2
        for _ in range(3):
            txn.lock_table("t", requested)
            txn.lock_tuple("t", tid, requested)
        assert len(calls) == 2
        assert txn._locks == {("table", "t"): held, ("tuple", "t", tid): held}
        assert tm.locks.held_mode(txn.id, ("table", "t")) is held
        txn.commit()
        assert tm.locks.held_mode(txn.id, ("table", "t")) is None

    def test_ix_then_s_reaches_the_manager_and_ends_as_x(self, monkeypatch):
        tm = TransactionManager()
        calls = counting_acquires(tm.locks, monkeypatch)
        txn = tm.begin()
        txn.lock_table("t", LockMode.IX)
        txn.lock_table("t", LockMode.S)
        assert [mode for _txn, _res, mode in calls] == [LockMode.IX, LockMode.S]
        assert txn._locks == {("table", "t"): LockMode.X}
        assert tm.locks.held_mode(txn.id, ("table", "t")) is LockMode.X
        # X now covers everything: nothing further reaches the manager.
        txn.lock_table("t", LockMode.S)
        txn.lock_table("t", LockMode.IX)
        assert len(calls) == 2
        txn.commit()

    def test_upgrade_is_recorded_as_the_supremum(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.lock_table("t", LockMode.IS)
        txn.lock_table("t", LockMode.IX)
        assert txn._locks == {("table", "t"): LockMode.IX}
        txn.lock_table("t", LockMode.S)
        assert txn._locks == {("table", "t"): LockMode.X}
        assert tm.locks.held_mode(txn.id, ("table", "t")) is LockMode.X
        txn.abort()
        assert tm.locks.snapshot() == []

    def test_cross_locked_tuples_deadlock_fast(self):
        """Two transactions X-lock one tuple each, then request the
        other's: the request that closes the cycle dies with
        DeadlockAvoided long before the 10 s timeout, its transaction
        is rolled back, and the survivor gets its lock."""
        tm = TransactionManager(lock_timeout=10.0)
        a, b = 1, 2
        t1, t2 = tm.begin(), tm.begin()
        t1.lock_tuple("t", a, LockMode.X)
        t2.lock_tuple("t", b, LockMode.X)
        outcome: dict = {}

        def first():
            try:
                t1.lock_tuple("t", b, LockMode.X)  # waits on t2
                outcome["t1"] = "granted"
            except TransactionAborted as exc:
                outcome["t1"] = exc

        thread = threading.Thread(target=first)
        thread.start()
        deadline = time.monotonic() + 5.0
        while tm.locks.waiter_count(("tuple", "t", b)) == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        started = time.monotonic()
        with pytest.raises(DeadlockAvoided):
            t2.lock_tuple("t", a, LockMode.X)  # closes the cycle
        assert time.monotonic() - started < 2.0
        assert t2.state is TxnState.ABORTED
        thread.join(5.0)
        assert outcome["t1"] == "granted"
        (row,) = [
            r for r in tm.locks.snapshot() if r["resource"] == repr(("tuple", "t", a))
        ]
        assert row["deadlock_aborts"] == 1
        assert row["timeouts"] == 0
        assert tm.locks.held_mode(t1.id, ("tuple", "t", b)) is LockMode.X
        t1.commit()

    def test_eager_x_lock_waits_for_a_locally_covered_ix(self, monkeypatch):
        """The eager migration's X table lock must wait for an open
        transaction whose second IX on the table was answered locally,
        and proceed once that transaction commits."""
        from repro import Database
        from repro.core import EagerMigration

        db = Database()
        s = db.connect(isolation="read_committed")
        s.execute("CREATE TABLE src (id INT PRIMARY KEY, v INT)")
        for i in range(20):
            s.execute("INSERT INTO src VALUES (?, ?)", [i, i])
        calls = counting_acquires(db.txns.locks, monkeypatch)
        s.begin()
        s.execute("UPDATE src SET v = v + 1 WHERE id = 1")
        s.execute("UPDATE src SET v = v + 1 WHERE id = 2")
        table_calls = [c for c in calls if c[1] == ("table", "src")]
        assert [mode for _txn, _res, mode in table_calls] == [LockMode.IX]
        done = threading.Event()

        def migrate():
            EagerMigration(db).submit(
                "m", "CREATE TABLE dst (id INT PRIMARY KEY, v INT);"
                "INSERT INTO dst (id, v) SELECT id, v FROM src;"
            )
            done.set()

        thread = threading.Thread(target=migrate)
        thread.start()
        deadline = time.monotonic() + 5.0
        while db.txns.locks.waiter_count(("table", "src")) == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert not done.is_set()
        s.commit()
        thread.join(10.0)
        assert done.is_set()
        assert s.execute("SELECT v FROM dst WHERE id = 2").scalar() == 3


def make_table(name="t"):
    catalog = Catalog()
    schema = TableSchema(
        name=name,
        columns=(Column("id", int_type()), Column("v", int_type())),
        primary_key=PrimaryKey(("id",)),
    )
    return catalog.create_table(schema)


class TestTransaction:
    def test_commit_releases_locks(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.lock_table("t", LockMode.X)
        txn.commit()
        txn2 = tm.begin()
        txn2.lock_table("t", LockMode.X)  # no conflict
        txn2.commit()

    def test_abort_undoes_insert(self):
        tm = TransactionManager()
        table = make_table()
        txn = tm.begin()
        tid = table.physical_insert((1, 10))
        txn.record_insert(table, tid, (1, 10))
        txn.abort()
        assert table.heap.read(tid) is None
        assert table.indexes["t_pkey"].lookup((1,)) == []

    def test_abort_undoes_update(self):
        tm = TransactionManager()
        table = make_table()
        tid = table.physical_insert((1, 10))
        txn = tm.begin()
        old = table.physical_update(tid, (1, 20))
        txn.record_update(table, tid, old, (1, 20))
        txn.abort()
        assert table.heap.read(tid) == (1, 10)

    def test_abort_undoes_delete(self):
        tm = TransactionManager()
        table = make_table()
        tid = table.physical_insert((1, 10))
        txn = tm.begin()
        old = table.physical_delete(tid)
        txn.record_delete(table, tid, old)
        txn.abort()
        assert table.heap.read(tid) == (1, 10)
        assert table.indexes["t_pkey"].lookup((1,)) == [tid]

    def test_undo_applied_in_reverse_order(self):
        tm = TransactionManager()
        table = make_table()
        tid = table.physical_insert((1, 10))
        txn = tm.begin()
        old = table.physical_update(tid, (1, 20))
        txn.record_update(table, tid, old, (1, 20))
        old2 = table.physical_update(tid, (1, 30))
        txn.record_update(table, tid, old2, (1, 30))
        txn.abort()
        assert table.heap.read(tid) == (1, 10)

    def test_aborted_txn_unusable(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.abort()
        with pytest.raises(TransactionAborted):
            txn.lock_table("t", LockMode.S)
        with pytest.raises(TransactionAborted):
            txn.commit()

    def test_double_abort_is_noop(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.abort()
        txn.abort()

    def test_abort_after_commit_rejected(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.abort()

    def test_commit_hooks_run(self):
        tm = TransactionManager()
        txn = tm.begin()
        calls = []
        txn.on_commit(lambda: calls.append("commit"))
        txn.on_abort(lambda: calls.append("abort"))
        txn.commit()
        assert calls == ["commit"]

    def test_abort_hooks_run_after_undo(self):
        """The paper's section 3.5 ordering: tracker reset happens after
        the standard undo code."""
        tm = TransactionManager()
        table = make_table()
        txn = tm.begin()
        tid = table.physical_insert((1, 10))
        txn.record_insert(table, tid, (1, 10))
        state_at_hook = {}
        txn.on_abort(
            lambda: state_at_hook.update(row=table.heap.read(tid))
        )
        txn.abort()
        assert state_at_hook["row"] is None  # undo already applied

    def test_context_manager_commits(self):
        tm = TransactionManager()
        with tm.begin() as txn:
            pass
        assert txn.state is TxnState.COMMITTED

    def test_context_manager_aborts_on_error(self):
        tm = TransactionManager()
        with pytest.raises(RuntimeError):
            with tm.begin() as txn:
                raise RuntimeError("boom")
        assert txn.state is TxnState.ABORTED

    def test_active_count(self):
        tm = TransactionManager()
        txn = tm.begin()
        assert tm.active_count == 1
        txn.commit()
        assert tm.active_count == 0


class TestRedoLog:
    def test_commit_batch_atomic(self):
        log = RedoLog()
        log.append_batch(1, [(LogOp.MIGRATE, ("m", "t", (5,)))])
        records = log.records()
        assert [r.op for r in records] == [LogOp.MIGRATE, LogOp.COMMIT]
        assert records[0].lsn == 0
        assert records[1].lsn == 1

    def test_abort_record(self):
        log = RedoLog()
        log.append_abort(7)
        assert log.records()[0].op is LogOp.ABORT

    def test_committed_txn_ids(self):
        log = RedoLog()
        log.append_batch(1, [])
        log.append_batch(3, [(LogOp.MIGRATE, ("m", "t", (5,)))])
        log.append_abort(2)
        # An empty batch is a commit that leaves nothing to recover.
        assert log.committed_txn_ids() == {3}

    def test_iter_committed_filters_aborted(self):
        log = RedoLog()
        log.append_batch(1, [(LogOp.MIGRATE, ("m", "t", (4,)))])
        log.append_abort(2)
        log.append_batch(3, [(LogOp.MIGRATE, ("m", "t", (5,)))])
        ops = [(r.txn_id, r.op) for r in log.iter_committed()]
        assert ops == [(1, LogOp.MIGRATE), (3, LogOp.MIGRATE)]

    def test_discard_migration_keeps_other_units(self):
        log = RedoLog()
        log.append_batch(1, [(LogOp.MIGRATE, ("a/u0", "t", (4,)))])
        log.append_batch(
            2, [(LogOp.MIGRATE, ("a/u0", "t", (5,))), (LogOp.MIGRATE, ("b/u0", "s", (6,)))]
        )
        log.append_abort(3)
        log.discard_migration({"a/u0"})
        assert [(r.txn_id, r.op) for r in log.records()] == [
            (2, LogOp.MIGRATE),
            (2, LogOp.COMMIT),
        ]
        log.discard_migration({"b/u0"})
        assert len(log) == 0

    def test_transaction_writes_migrate_records(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.record_migration("m1", "old_table", (1, 2, 3))
        txn.commit()
        migrates = [
            r for r in tm.wal.iter_committed() if r.op is LogOp.MIGRATE
        ]
        assert migrates[0].payload == ("m1", "old_table", (1, 2, 3))

    def test_aborted_txn_redo_not_replayed(self):
        tm = TransactionManager()
        table = make_table()
        txn = tm.begin()
        tid = table.physical_insert((1, 1))
        txn.record_insert(table, tid, (1, 1))
        txn.record_migration("m1", "t", (0,))
        txn.abort()
        assert list(tm.wal.iter_committed()) == []
        assert [r.op for r in tm.wal.records()] == [LogOp.ABORT]

    def test_data_writes_log_nothing(self):
        tm = TransactionManager()
        table = make_table()
        txn = tm.begin()
        tid = table.physical_insert((1, 1), txn.stamp)
        txn.record_insert(table, tid, (1, 1))
        txn.commit()
        txn = tm.begin()
        table.physical_update(tid, (1, 2), txn.stamp)
        txn.record_update(table, tid, (1, 1), (1, 2))
        txn.abort()
        assert len(tm.wal) == 0
