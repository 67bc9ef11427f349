"""Tests for the Database facade: sessions, interceptors, row hooks."""

import pytest

from repro import Database
from repro.db import Result
from repro.errors import ExecutionError
from repro.sql import ast_nodes as ast


@pytest.fixture
def s(db):
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO t VALUES (1, 10)")
    session.execute("INSERT INTO t VALUES (2, 20)")
    return session


class TestResult:
    def test_fields(self):
        result = Result("SELECT", rows=[(1, "a")], columns=["id", "n"], rowcount=1)
        assert result.scalar() == 1
        assert result.dicts() == [{"id": 1, "n": "a"}]

    def test_empty(self):
        result = Result("SELECT")
        assert result.scalar() is None
        assert result.dicts() == []


class TestInterceptor:
    def test_interceptor_called_for_dml_and_select(self, db, s):
        calls = []
        db.set_statement_interceptor(
            lambda session, handle, params: calls.append(
                type(handle.ast).__name__
            )
        )
        s.execute("SELECT * FROM t")
        s.execute("INSERT INTO t VALUES (3, 30)")
        s.execute("UPDATE t SET v = 0 WHERE id = 3")
        s.execute("DELETE FROM t WHERE id = 3")
        assert calls == ["Select", "Insert", "Update", "Delete"]

    def test_interceptor_not_called_for_ddl(self, db, s):
        calls = []
        db.set_statement_interceptor(lambda *args: calls.append(1))
        s.execute("CREATE TABLE other (x INT)")
        assert calls == []

    def test_internal_session_skips_interceptor(self, db, s):
        calls = []
        db.set_statement_interceptor(lambda *args: calls.append(1))
        s.internal = True
        s.execute("SELECT * FROM t")
        assert calls == []

    def test_interceptor_cleared(self, db, s):
        calls = []
        db.set_statement_interceptor(lambda *a: calls.append(1))
        db.set_statement_interceptor(None)
        s.execute("SELECT * FROM t")
        assert calls == []

    def test_interceptor_receives_params(self, db, s):
        seen = {}
        db.set_statement_interceptor(
            lambda session, handle, params: seen.update(
                params=list(params), sql=handle.sql
            )
        )
        s.execute("SELECT * FROM t WHERE id = ?", [42])
        assert seen["params"] == [42]
        assert seen["sql"] == "SELECT * FROM t WHERE id = ?"


class TestRowHooks:
    def test_hooks_fire_per_operation(self, db, s):
        events = []
        db.add_row_hook(
            "t", lambda ctx, op, tid, old, new: events.append((op, old, new))
        )
        s.execute("INSERT INTO t VALUES (3, 30)")
        s.execute("UPDATE t SET v = 31 WHERE id = 3")
        s.execute("DELETE FROM t WHERE id = 3")
        ops = [e[0] for e in events]
        assert ops == ["INSERT", "UPDATE", "DELETE"]
        assert events[0][2] == (3, 30)  # new row on insert
        assert events[1][1] == (3, 30) and events[1][2] == (3, 31)
        assert events[2][1] == (3, 31)  # old row on delete

    def test_hooks_scoped_per_table(self, db, s):
        events = []
        s.execute("CREATE TABLE other (x INT)")
        db.add_row_hook("other", lambda *a: events.append(1))
        s.execute("INSERT INTO t VALUES (5, 50)")
        assert events == []

    def test_remove_row_hooks(self, db, s):
        events = []
        db.add_row_hook("t", lambda *a: events.append(1))
        db.remove_row_hooks("t")
        s.execute("INSERT INTO t VALUES (6, 60)")
        assert events == []

    def test_hook_writes_share_transaction(self, db, s):
        """A hook writing through the same ctx participates in the
        client's transaction (this is how multi-step dual-writes stay
        atomic)."""
        s.execute("CREATE TABLE mirror (id INT, v INT)")
        executor = db.executor
        catalog = db.catalog

        def mirror_hook(ctx, op, tid, old, new):
            if op == "INSERT":
                executor.insert_rows(
                    catalog.table("mirror"), ("id", "v"), [(new[0], new[1])], ctx
                )

        db.add_row_hook("t", mirror_hook)
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (7, 70)")
        s.execute("ROLLBACK")
        assert s.execute("SELECT COUNT(*) FROM mirror").scalar() == 0
        s.execute("INSERT INTO t VALUES (8, 80)")
        assert s.execute("SELECT COUNT(*) FROM mirror").scalar() == 1


class TestSessionMisc:
    def test_parse_cache_reuse(self, db, s):
        sql = "SELECT v FROM t WHERE id = ?"
        first = db.parse(sql)
        second = db.parse(sql)
        assert first is second

    def test_execute_statement_directly(self, db, s):
        stmt = db.parse("SELECT COUNT(*) FROM t")
        result = s.execute_statement(stmt)
        assert result.scalar() == 2

    def test_unsupported_statement_type(self, s):
        class Alien:
            pass

        with pytest.raises(ExecutionError):
            s.execute_statement(Alien())  # type: ignore[arg-type]

    def test_multiple_sessions_independent_txns(self, db, s):
        other = db.connect()
        s.execute("BEGIN")
        assert not other.in_transaction
        s.execute("ROLLBACK")

    def test_allow_retired_session(self, db, s):
        db.catalog.retire_table("t")
        internal = db.connect(allow_retired=True)
        assert internal.execute("SELECT COUNT(*) FROM t").scalar() == 2
