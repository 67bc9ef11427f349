"""An autocommit SELECT is a statement, not a transaction.

Under READ_COMMITTED it takes its table IS locks under a statement
owner id and drops them when it returns; under SNAPSHOT it reads at a
pinned timestamp and takes no lock.  Either way it begins, registers
and commits no ``Transaction``.  Every other autocommit statement still
runs in one.
"""

import threading
import time

import pytest

from repro import Database
from repro.core.eager import EagerMigration
from repro.storage.heap import HeapTable
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import TransactionManager

MOVE_DDL = """
CREATE TABLE t2 (id INT PRIMARY KEY, v INT);
INSERT INTO t2 (id, v) SELECT id, v FROM t;
"""


def make_db():
    db = Database()
    s = db.connect(isolation="read_committed")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    s.execute("CREATE TABLE u (id INT PRIMARY KEY, t_id INT)")
    for i in range(1, 4):
        s.execute("INSERT INTO t VALUES (?, ?)", [i, i * 10])
        s.execute("INSERT INTO u VALUES (?, ?)", [i + 100, i])
    return db, s


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class HeldRead:
    """Runs ``sql`` on a fresh session in a thread whose first call of
    ``HeapTable.<method>`` blocks until :meth:`finish`: the statement is
    then inside its scan, holding whatever it holds."""

    def __init__(self, db, monkeypatch, sql, isolation="read_committed",
                 method="read"):
        self.inside = threading.Event()
        self.release = threading.Event()
        self.result = {}
        session = db.connect(isolation=isolation)
        self.thread = threading.Thread(
            target=lambda: self.result.setdefault("rows", session.execute(sql).rows)
        )
        real = getattr(HeapTable, method)

        def held(heap, *args):
            if threading.current_thread() is self.thread and not self.inside.is_set():
                self.inside.set()
                self.release.wait(5)
            return real(heap, *args)

        monkeypatch.setattr(HeapTable, method, held)
        self.thread.start()
        assert self.inside.wait(5)

    def finish(self):
        self.release.set()
        self.thread.join(5)
        assert not self.thread.is_alive()
        return self.result["rows"]


@pytest.mark.parametrize("change", ["alter", "eager"])
def test_ddl_and_eager_migration_wait_for_a_running_read(monkeypatch, change):
    db, s = make_db()
    read = HeldRead(db, monkeypatch, "SELECT * FROM t WHERE id = 1")
    done = threading.Event()

    def run_change():
        if change == "alter":
            db.connect().execute("ALTER TABLE t ADD COLUMN w INT DEFAULT 7")
        else:
            EagerMigration(db).submit("m", MOVE_DDL)
        done.set()

    changer = threading.Thread(target=run_change)
    changer.start()
    assert wait_until(lambda: db.txns.locks.waiter_count(("table", "t")) == 1)
    assert not done.is_set()
    assert read.finish() == [(1, 10)]  # the old width
    changer.join(5)
    assert done.is_set()
    if change == "alter":
        assert s.execute("SELECT * FROM t WHERE id = 1").rows == [(1, 10, 7)]
    else:
        assert s.execute("SELECT * FROM t2 WHERE id = 1").rows == [(1, 10)]


def read_owner(db):
    """The id holding IS on table t that no transaction owns."""
    with db.txns.locks._latch:
        holders = dict(db.txns.locks._entries[("table", "t")].holders)
    owners = [o for o, mode in holders.items()
              if mode is LockMode.IS and o not in db.txns._active]
    return owners[0] if owners else None


def test_a_running_read_shows_in_stat_locks_not_stat_activity(monkeypatch):
    db, s = make_db()
    read = HeldRead(db, monkeypatch, "SELECT v FROM t WHERE id = 2")
    owner = read_owner(db)
    assert owner is not None
    locks = s.execute(
        "SELECT holders, modes FROM bullfrog_stat_locks WHERE resource = ?",
        [repr(("table", "t"))],
    ).rows
    assert locks == [(str(owner), "IS")]
    activity = s.execute("SELECT txn_id FROM bullfrog_stat_activity").rows
    assert activity == []
    assert read.finish() == [(20,)]
    assert db.txns.locks.held_mode(owner, ("table", "t")) is None


@pytest.mark.parametrize("isolation", ["read_committed", "snapshot"])
def test_autocommit_select_begins_no_transaction(monkeypatch, isolation):
    db, _ = make_db()
    begins = []
    real = TransactionManager.begin

    def counting(self, *args, **kwargs):
        begins.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TransactionManager, "begin", counting)
    s = db.connect(isolation=isolation)
    assert s.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]
    assert begins == []
    assert s.execute("UPDATE t SET v = 11 WHERE id = 1").rowcount == 1
    assert len(begins) == 1
    assert db.txns.active_count == 0


def test_snapshot_read_ignores_uncommitted_writes_and_holds_the_horizon(monkeypatch):
    db, s = make_db()
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 99 WHERE id = 1")
    si = db.connect(isolation="snapshot")
    assert si.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]
    s.execute("ROLLBACK")

    start_ts = db.txns.current_ts()
    read = HeldRead(db, monkeypatch, "SELECT v FROM t WHERE id = 1",
                    isolation="snapshot", method="read_snapshot")
    s.execute("UPDATE t SET v = 11 WHERE id = 1")
    s.execute("UPDATE t SET v = 12 WHERE id = 1")
    assert db.txns.oldest_snapshot_ts() == start_ts
    db.catalog.table("t").prune_versions(db.txns.oldest_snapshot_ts())
    # A snapshot read holds no lock.
    assert all(not row["holders"] for row in db.txns.locks.snapshot())
    assert read.finish() == [(10,)]
    assert db.txns._pins == {}
    assert db.txns.oldest_snapshot_ts() == db.txns.current_ts()


def test_is_lock_released_when_the_read_raises(monkeypatch):
    db, s = make_db()

    def broken(heap, tid):
        raise RuntimeError("read failed")

    with monkeypatch.context() as patch:
        patch.setattr(HeapTable, "read", broken)
        with pytest.raises(RuntimeError):
            s.execute("SELECT v FROM t WHERE id = 1")
    assert all(not row["holders"] for row in db.txns.locks.snapshot())
    # An X lock is granted at once: nothing was left behind.
    s.execute("ALTER TABLE t ADD COLUMN w INT")
    assert s.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]


def test_join_read_holds_one_is_lock_per_table(monkeypatch):
    db, s = make_db()
    acquired = []
    real = LockManager.acquire

    def spy(self, owner, resource, mode):
        acquired.append((owner, resource, mode))
        return real(self, owner, resource, mode)

    monkeypatch.setattr(LockManager, "acquire", spy)
    rows = s.execute(
        "SELECT u.id, t.v FROM u JOIN t ON t.id = u.t_id ORDER BY u.id"
    ).rows
    assert rows == [(101, 10), (102, 20), (103, 30)]
    assert sorted(r for _o, r, _m in acquired) == [("table", "t"), ("table", "u")]
    assert {m for _o, _r, m in acquired} == {LockMode.IS}
    assert len({o for o, _r, _m in acquired}) == 1
    assert all(not row["holders"] for row in db.txns.locks.snapshot())
