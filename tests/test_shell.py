"""Tests for the interactive shell's formatting and its embedded-only
meta-commands; the verbs every surface shares are in test_console.py."""

import pytest

from repro.db import Result
from repro.shell import Shell, format_result


class TestFormatResult:
    def test_select_table(self):
        result = Result(
            "SELECT", rows=[(1, "hello"), (2, "hi")], columns=["id", "v"]
        )
        text = format_result(result)
        assert "id" in text and "hello" in text
        assert "(2 rows)" in text

    def test_single_row_grammar(self):
        result = Result("SELECT", rows=[(1,)], columns=["x"])
        assert "(1 row)" in format_result(result)

    def test_dml_result(self):
        assert format_result(Result("INSERT", rowcount=3)) == "INSERT 3"
        assert format_result(Result("CREATE TABLE")) == "CREATE TABLE"


class TestMetaCommands:
    @pytest.fixture
    def shell(self):
        sh = Shell()
        sh.session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        sh.session.execute("INSERT INTO t VALUES (1, 'a')")
        return sh

    def test_migrate_and_progress(self, shell):
        out = shell.handle_meta(
            "\\migrate split CREATE TABLE t2 AS SELECT id, v FROM t"
        )
        assert "submitted" in out
        progress = shell.handle_meta("\\progress")
        assert "complete" in progress
        result = shell.session.execute("SELECT v FROM t2 WHERE id = 1")
        assert result.scalar() == "a"

    def test_metrics_prometheus_text(self, shell):
        shell.handle_meta("\\dt")
        shell.handle_meta("\\progress")
        out = shell.handle_meta("\\metrics")
        # The fixture ran a CREATE and an INSERT through the shell's
        # session; admin verbs read the views' producers directly, so
        # they never show up as client statements.
        assert 'repro_statements_total{stmt="insert"} 1' in out
        assert 'repro_statements_total{stmt="select"} 0' in out
