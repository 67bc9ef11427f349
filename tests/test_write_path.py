"""The write path: what INSERT / UPDATE / DELETE check and maintain.

Pins the semantics a statement's compiled write artifact must keep —
defaults, NOT NULL, coercion, FK checks both ways, index maintenance,
re-preparation after DDL — plus the ordered index's sort-key order and
the unique probe that keeps a rejected row out of the heap.
"""

from __future__ import annotations

import datetime
import random
import threading
import time
from decimal import Decimal

import pytest

from repro import Database
from repro.catalog.catalog import Catalog
from repro.errors import (
    ForeignKeyViolation,
    NotNullViolation,
    TypeError_,
    UniqueViolation,
)
from repro.storage.index import OrderedIndex
from repro.storage.tid import Tid


@pytest.fixture
def s():
    return Database().connect()


def _index_entries(db, table, index):
    return sorted(db.catalog.table(table).indexes[index].keys())


# ----------------------------------------------------------------------
# Row building: defaults, NOT NULL, coercion
# ----------------------------------------------------------------------
def test_omitted_column_takes_its_default(s):
    s.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, n INT DEFAULT 7, "
        "tag VARCHAR(5) DEFAULT 'x', note TEXT)"
    )
    s.execute("INSERT INTO t (id) VALUES (1)")
    s.execute("INSERT INTO t (note, id) VALUES ('hi', 2)")
    rows = s.execute("SELECT id, n, tag, note FROM t ORDER BY id").rows
    assert rows == [(1, 7, "x", None), (2, 7, "x", "hi")]


def test_not_null_message_and_constraint_name(s):
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10) NOT NULL)")
    with pytest.raises(NotNullViolation) as info:
        s.execute("INSERT INTO t (id) VALUES (1)")
    assert str(info.value) == (
        "null value in column 'name' of table t violates not-null constraint"
    )
    assert info.value.constraint == "t_name_not_null"
    with pytest.raises(NotNullViolation) as info:
        s.execute("INSERT INTO t (name) VALUES ('a')")
    assert info.value.constraint == "t_id_not_null"
    s.execute("INSERT INTO t VALUES (1, 'a')")
    with pytest.raises(NotNullViolation) as info:
        s.execute("UPDATE t SET name = NULL WHERE id = 1")
    assert info.value.constraint == "t_name_not_null"
    assert s.execute("SELECT name FROM t").rows == [("a",)]


@pytest.mark.parametrize(
    "ddl, value, message",
    [
        ("INT", True, "cannot store BOOL value True in INT"),
        ("INT", 2**31, f"value {2**31} out of range for INT"),
        ("VARCHAR(3)", "abcd", "string of length 4 too long for VARCHAR(3)"),
        ("DECIMAL(4, 2)", Decimal("123.45"),
         "value 123.45 exceeds precision of DECIMAL(4, 2)"),
        ("CHAR(2)", "abc  ", "string of length 3 too long for CHAR(2)"),
    ],
)
def test_coercion_errors_keep_their_messages(s, ddl, value, message):
    s.execute(f"CREATE TABLE t (id INT PRIMARY KEY, v {ddl})")
    with pytest.raises(TypeError_) as info:
        s.execute("INSERT INTO t VALUES (1, ?)", [value])
    assert str(info.value) == message
    s.execute("INSERT INTO t (id) VALUES (1)")
    with pytest.raises(TypeError_) as info:
        s.execute("UPDATE t SET v = ? WHERE id = 1", [value])
    assert str(info.value) == message
    assert s.execute("SELECT COUNT(*) FROM t").scalar() == 1


def test_coercion_converts_the_way_the_declared_type_does(s):
    s.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, d DECIMAL(6, 2), c CHAR(4), "
        "f FLOAT, ts TIMESTAMP, day DATE)"
    )
    s.execute(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
        [1.0, Decimal("1.005"), "ab  ", 3, datetime.date(2021, 6, 20),
         datetime.datetime(2021, 6, 20, 10, 30)],
    )
    s.execute("UPDATE t SET d = ? WHERE id = 1", [2])
    row = s.execute("SELECT id, d, c, f, ts, day FROM t").rows[0]
    assert row == (1, Decimal("2.00"), "ab", 3.0,
                   datetime.datetime(2021, 6, 20), datetime.date(2021, 6, 20))
    assert [type(v) for v in row] == [
        int, Decimal, str, float, datetime.datetime, datetime.date]
    assert str(row[1]) == "2.00"
    s.execute("INSERT INTO t (id, d) VALUES (2, ?)", [Decimal("1.005")])
    assert str(s.execute("SELECT d FROM t WHERE id = 2").scalar()) == "1.00"


# ----------------------------------------------------------------------
# Foreign keys and indexes
# ----------------------------------------------------------------------
@pytest.fixture
def fk(s):
    s.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
    s.execute(
        "CREATE TABLE c (id INT PRIMARY KEY, pid INT, "
        "FOREIGN KEY (pid) REFERENCES p (id))"
    )
    for i in (1, 2, 3):
        s.execute("INSERT INTO p VALUES (?, ?)", [i, i * 10])
    s.execute("INSERT INTO c VALUES (1, 1)")
    return s


def test_update_of_fk_column_checks_the_parent(fk):
    with pytest.raises(ForeignKeyViolation):
        fk.execute("UPDATE c SET pid = 9 WHERE id = 1")
    fk.execute("UPDATE c SET pid = 2 WHERE id = 1")
    fk.execute("UPDATE c SET pid = NULL WHERE id = 1")
    assert fk.execute("SELECT pid FROM c").scalar() is None


def test_update_of_referenced_key_restricts_children(fk):
    with pytest.raises(ForeignKeyViolation) as info:
        fk.execute("UPDATE p SET id = 10 WHERE id = 1")
    assert "would orphan rows of 'c'" in str(info.value)
    fk.execute("UPDATE p SET id = 20 WHERE id = 2")  # unreferenced
    fk.execute("UPDATE p SET v = 0 WHERE id = 1")  # key unchanged
    with pytest.raises(ForeignKeyViolation):
        fk.execute("DELETE FROM p WHERE id = 1")
    assert fk.execute("SELECT id FROM p ORDER BY id").rows == [(1,), (3,), (20,)]


def test_update_of_indexed_column_moves_its_entry(s):
    db = s.db
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)")
    s.execute("CREATE INDEX t_k ON t (k)")
    s.execute("INSERT INTO t VALUES (1, 5, 0)")
    s.execute("UPDATE t SET k = 6 WHERE id = 1")
    assert _index_entries(db, "t", "t_k") == [(6,)]
    s.execute("UPDATE t SET id = 2 WHERE k = 6")
    assert _index_entries(db, "t", "t_pkey") == [(2,)]
    assert s.execute("SELECT v FROM t WHERE k = 6").rows == [(0,)]
    assert s.execute("SELECT v FROM t WHERE k = 5").rows == []


def test_prepared_writes_follow_create_index_and_add_column(s):
    db = s.db
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    insert = db.prepare("INSERT INTO t (id, k) VALUES (?, ?)")
    update = db.prepare("UPDATE t SET k = ? WHERE id = ?")
    s.execute_statement(insert, [1, 10])
    s.execute_statement(update, [11, 1])
    s.execute("CREATE INDEX t_k ON t (k)")
    s.execute("ALTER TABLE t ADD COLUMN extra INT DEFAULT 42")
    s.execute_statement(insert, [2, 20])
    s.execute_statement(update, [21, 2])
    assert _index_entries(db, "t", "t_k") == [(11,), (21,)]
    assert s.execute("SELECT id, k, extra FROM t ORDER BY id").rows == [
        (1, 11, 42), (2, 21, 42)]


def test_fk_duties_resolve_at_prepare(fk, monkeypatch):
    """An UPDATE of non-key columns walks no catalog per row, yet a
    child table created after the statement was prepared is enforced
    on its next execution (CREATE TABLE re-prepares it)."""
    db = fk.db
    update = db.prepare("UPDATE p SET v = v + 1")
    delete = db.prepare("DELETE FROM p WHERE id = ?")
    rekey = db.prepare("UPDATE p SET id = ? WHERE id = ?")
    fk.execute_statement(update, [])
    calls = []
    real = Catalog.tables
    monkeypatch.setattr(
        Catalog, "tables",
        lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
    assert fk.execute_statement(update, []).rowcount == 3
    assert calls == []
    monkeypatch.undo()
    fk.execute_statement(delete, [3])
    fk.execute_statement(rekey, [30, 2])
    fk.execute(
        "CREATE TABLE late (id INT PRIMARY KEY, pid INT, "
        "FOREIGN KEY (pid) REFERENCES p (id))"
    )
    fk.execute("INSERT INTO late VALUES (1, 30)")
    with pytest.raises(ForeignKeyViolation):
        fk.execute_statement(delete, [30])
    with pytest.raises(ForeignKeyViolation):
        fk.execute_statement(rekey, [31, 30])
    assert fk.execute("SELECT id FROM p ORDER BY id").rows == [(1,), (30,)]


# ----------------------------------------------------------------------
# A rejected row takes no heap slot
# ----------------------------------------------------------------------
def test_rejected_insert_takes_no_heap_slot(s):
    s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    s.execute("INSERT INTO t VALUES (1, 2)")
    heap = s.db.catalog.table("t").heap
    assert heap.max_ordinal == 1
    for _ in range(200):
        s.execute("INSERT INTO t VALUES (1, 2) ON CONFLICT DO NOTHING")
    with pytest.raises(UniqueViolation):
        s.execute("INSERT INTO t VALUES (1, 3)")
    assert heap.max_ordinal == 1
    s.execute("INSERT INTO t VALUES (2, 2)")
    assert heap.max_ordinal == 2
    assert s.execute("SELECT a, b FROM t ORDER BY a").rows == [(1, 2), (2, 2)]


# ----------------------------------------------------------------------
# Ordered-index sort keys against a sorted reference
# ----------------------------------------------------------------------
def _rank(part):
    """Reference order of one key part: values by type name, then
    value; NULL after every value."""
    return (1,) if part is None else (0, type(part).__name__, part)


def _ranks(key):
    return [_rank(part) for part in key]


def _in_span(key, prefix, low, high, low_inclusive, high_inclusive):
    width = len(prefix)
    if _ranks(key[:width]) != _ranks(prefix):
        return False
    part = _rank(key[width])
    if low is not None:
        bound = _rank(low)
        if part[0] == 1 or part < bound or (part == bound and not low_inclusive):
            return False
    if high is not None:
        bound = _rank(high)
        if part[0] == 1 or part > bound or (part == bound and not high_inclusive):
            return False
    return True


def test_ordered_index_order_and_spans_match_a_sorted_reference():
    rng = random.Random(7)
    first = [1, 2, 3, None, "a", 2.5, Decimal("2")]
    second = [None, 0, 1, 2, 3, 5, 8, "x", "y", 1.5, True]
    third = [None, 0, 1, "z"]
    index = OrderedIndex("i", "t", ("a", "b", "c"))
    entries = []
    for n in range(400):
        key = (rng.choice(first), rng.choice(second), rng.choice(third))
        tid = Tid(n // 50, n % 50)
        index.insert(key, tid)
        entries.append((key, tid))
    reference = sorted(entries, key=lambda entry: _ranks(entry[0]))
    assert [_ranks(k) for k in index.keys()] == [_ranks(k) for k, _ in reference]
    for key, _tid in entries[:40]:
        assert sorted(index.lookup(key)) == sorted(
            t for k, t in entries if _ranks(k) == _ranks(key))
    bounds = [None, 0, 2, 3, 5, 1.5, "x", True]
    for prefix in [(1,), (None,), ("a",), (2.5,), (Decimal("2"),), (1, 2), (3, None)]:
        for low in bounds:
            for high in bounds:
                for low_inclusive in (True, False):
                    for high_inclusive in (True, False):
                        if len(prefix) == 2 and (low, high) != (None, None):
                            continue
                        span = index.prefix_scan(
                            prefix, low, high, low_inclusive, high_inclusive)
                        expected = [
                            (k, t) for k, t in reference
                            if _in_span(k, prefix, low, high,
                                        low_inclusive, high_inclusive)
                        ]
                        assert [_ranks(k) for k, _ in span] == [
                            _ranks(k) for k, _ in expected]
                        assert sorted(t for _, t in span) == sorted(
                            t for _, t in expected)


# ----------------------------------------------------------------------
# A write waits for another transaction's uncommitted insert
# ----------------------------------------------------------------------
def _wait_for_waiter(db, resource, thread):
    """Return once ``thread`` is blocked on ``resource``; fail if it
    finishes first, i.e. did not wait."""
    locks = db.txns.locks
    while locks.waiter_count(resource) == 0:
        assert thread.is_alive(), "the write did not wait"
        time.sleep(0.001)


@pytest.mark.parametrize("outcome", ["COMMIT", "ROLLBACK"])
def test_write_waits_for_an_uncommitted_insert(outcome):
    """An INSERT X-locks the tuple it creates, so an UPDATE of that row
    by another transaction waits for the inserter, then applies to the
    committed row or finds it gone — it never takes over a row whose
    writer may still roll it back."""
    db = Database(isolation="read_committed")
    a, b = db.connect(), db.connect()
    a.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    a.execute("INSERT INTO t VALUES (1, 10)")
    a.execute("BEGIN")
    a.execute("INSERT INTO t VALUES (2, 20)")
    result = {}
    writer = threading.Thread(
        target=lambda: result.update(
            n=b.execute("UPDATE t SET b = 99 WHERE a = 2").rowcount
        )
    )
    writer.start()
    _wait_for_waiter(db, ("txn", a._txn.id), writer)
    a.execute(outcome)
    writer.join(10)
    assert not writer.is_alive()
    if outcome == "COMMIT":
        assert result["n"] == 1
        assert b.execute("SELECT a, b FROM t ORDER BY a").rows == [(1, 10), (2, 99)]
    else:
        assert result["n"] == 0
        assert b.execute("SELECT a, b FROM t ORDER BY a").rows == [(1, 10)]
