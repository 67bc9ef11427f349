"""Tests for locking, transactions, undo/redo, and the WAL."""

import threading
import time

import pytest

from repro.catalog import Catalog, Column, PrimaryKey, TableSchema
from repro.errors import DeadlockAvoided, LockTimeout, TransactionAborted, TransactionError
from repro.storage import Tid
from repro.txn import (
    DeadlockPolicy,
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
    """Idle, never-contended tuple entries leave the lock table (the
    parent kept one ``_LockEntry`` with its own Condition per tuple ever
    locked)."""

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
        assert tuples == []  # parent: 300
        assert len(db.txns.locks._entries) <= 1  # the table's own entry

    def test_churn_never_admits_two_x_holders(self):
        """Threads hammer X locks over a shared set of tuples, so
        entries are reclaimed, reused from the spare list and
        re-registered under other resources while other threads look
        them up; at no point may two transactions hold one tuple."""
        import random
        import sys

        lm = LockManager(timeout=10.0)
        resources = [("tuple", "t", Tid(0, n)) for n in range(64)]
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
        lm = LockManager(timeout=5.0, policy=DeadlockPolicy.DETECT)
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

    def test_wait_die_policy(self):
        lm = LockManager(timeout=1.0, policy=DeadlockPolicy.WAIT_DIE)
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(DeadlockAvoided):
            lm.acquire(2, "r", LockMode.S)  # younger dies immediately

    def test_wait_die_older_waits(self):
        lm = LockManager(timeout=5.0, policy=DeadlockPolicy.WAIT_DIE)
        lm.acquire(2, "r", LockMode.X)
        acquired = threading.Event()

        def older():
            lm.acquire(1, "r", LockMode.S)
            acquired.set()

        thread = threading.Thread(target=older)
        thread.start()
        time.sleep(0.05)
        lm.release(2, "r")
        assert acquired.wait(2.0)
        thread.join()


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
        log.append_batch(1, [(LogOp.INSERT, ("t", Tid(0, 0), (1,)))])
        records = log.records()
        assert [r.op for r in records] == [LogOp.INSERT, LogOp.COMMIT]
        assert records[0].lsn == 0
        assert records[1].lsn == 1

    def test_abort_record(self):
        log = RedoLog()
        log.append_abort(7)
        assert log.records()[0].op is LogOp.ABORT

    def test_committed_txn_ids(self):
        log = RedoLog()
        log.append_batch(1, [])
        log.append_abort(2)
        assert log.committed_txn_ids() == {1}

    def test_iter_committed_filters_aborted(self):
        log = RedoLog()
        log.append_batch(1, [(LogOp.INSERT, ("t", Tid(0, 0), (1,)))])
        log.append_abort(2)
        log.append_batch(3, [(LogOp.MIGRATE, ("m", "t", (5,)))])
        ops = [(r.txn_id, r.op) for r in log.iter_committed()]
        assert ops == [(1, LogOp.INSERT), (3, LogOp.MIGRATE)]

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
