"""The admin console (``repro.obs.console``): one verb table behind
every surface — embedded shell, shell over ``--connect`` to a
``bullfrogd``, shell over ``--connect`` to a ``bullfrog-router``.
"""

import ast
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro import Database
from repro.cluster import LocalCluster
from repro.core import BackgroundConfig, MigrationController
from repro.errors import ReproError
from repro.net import BullfrogServer, ServerConfig
from repro.obs import Observability, console
from repro.shell import Shell, format_result
from repro.tpcc.schema import ScaleConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def Surface(shell, db, table, remote):
    """A shell, the database whose console must answer it, and a table
    SQL on this surface can reach."""
    return SimpleNamespace(shell=shell, db=db, table=table, remote=remote)


@pytest.fixture(params=["embedded", "bullfrogd", "router"])
def surface(request, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # \dump bundles land under cwd
    if request.param == "embedded":
        shell = Shell()
        shell.session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        shell.session.execute("INSERT INTO t VALUES (1, 'a')")
        try:
            yield Surface(shell, shell.db, "t", remote=False)
        finally:
            shell.obs.close()
        return
    if request.param == "bullfrogd":
        obs = Observability()
        db = Database(obs=obs)
        server = BullfrogServer(db, ServerConfig(port=0)).start()
        stop, port, table = server.shutdown, server.port, "t"
    else:
        cluster = LocalCluster(
            n_shards=2, scale=ScaleConfig.small(), load=False,
            obs_factory=Observability,
        )
        db, stop, port, table = (
            cluster.router_db, cluster.shutdown, cluster.port, "warehouse"
        )
    try:
        shell = Shell(connect_to=f"127.0.0.1:{port}")
        try:
            if table == "t":
                shell.session.execute(
                    "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
                )
                shell.session.execute("INSERT INTO t VALUES (1, 'a')")
            yield Surface(shell, db, table, remote=True)
        finally:
            shell.remote.close()
    finally:
        stop()
        if db.obs is not None:
            db.obs.close()


def outcome(call):
    try:
        return ("ok", call())
    except ReproError as exc:
        return ("error", str(exc))


def _exact(out, direct, surface):
    assert out == direct


def _metrics_text(out, direct, surface):
    assert out[0] == "ok"
    assert "# TYPE repro_statements_total counter" in out[1]


def _metrics_json(out, direct, surface):
    assert out[0] == "ok"
    assert "repro_statements_total" in json.loads(out[1])


def _top(out, direct, surface):
    assert out[0] == "ok"
    assert "bullfrog top" in out[1] and "latency" in out[1]
    # A server's bullfrog_stat_server row rides along; an embedded
    # shell has no server, so no row.
    assert ("server    serving" in out[1]) == surface.remote


def _health(out, direct, surface):
    assert out[0] == "ok" and out[1].startswith("status:")


def _dump(out, direct, surface):
    assert out[0] == "ok" and "incident bundle written" in out[1]
    assert out[1].rstrip().endswith("-x")


# backslash command -> (verb the console must see, check on the answer)
COMMANDS = [
    ("\\dt", "tables", _exact),
    ("\\d {table}", "describe {table}", _exact),
    ("\\progress", "progress", _exact),
    ("\\metrics", "metrics", _metrics_text),
    ("\\metrics json", "metrics json", _metrics_json),
    ("\\top 0 1", "top json", _top),
    ("\\health", "health", _health),
    ("\\dump x", "dump x", _dump),
    ("\\shards", "shards", _exact),
]


@pytest.mark.parametrize(
    "backslash,verb,check", COMMANDS, ids=[c[1] for c in COMMANDS]
)
def test_every_surface_answers_from_the_shared_table(
    surface, monkeypatch, backslash, verb, check
):
    """Each backslash command reaches ``console.run`` on the database
    that owns the state — the shell's own, the bullfrogd's, the
    router's — with the same verb string, and the shell prints what
    that dispatcher answered (errors included)."""
    calls = []
    real_run = console.run

    def spy(db, command):
        calls.append((db, command))
        return real_run(db, command)

    monkeypatch.setattr(console, "run", spy)
    verb = verb.format(table=surface.table)
    out = outcome(
        lambda: surface.shell.handle_meta(backslash.format(table=surface.table))
    )
    # (A router verb may fan further console calls out to its shards.)
    assert calls[0] == (surface.db, verb)
    check(out, outcome(lambda: real_run(surface.db, verb)), surface)


def test_shell_answers_per_surface(surface):
    """What the shared verbs say differs only where the state does."""
    shell = surface.shell
    if surface.table == "t":
        # Embedded Session and remote Connection share the Result shape.
        selected = format_result(shell.session.execute("SELECT * FROM t"))
        assert "a" in selected and "(1 row)" in selected
        assert "t  [1 rows]" in shell.handle_meta("\\dt")
        described = shell.handle_meta("\\d t")
        assert "id" in described and "PRIMARY KEY" in described
        with pytest.raises(ReproError, match="unknown meta command"):
            shell.handle_meta("\\shards")
        plan = shell.handle_meta("\\explain SELECT * FROM t WHERE id = 1")
        assert "Index Scan" in plan
    else:
        # The router's own catalog holds no tables (DDL is broadcast to
        # the shards); its verbs are the cluster ones.
        assert shell.handle_meta("\\dt") == "(no tables)"
        shards = shell.handle_meta("\\shards")
        assert "shard 0" in shards and "shard 1" in shards
        assert "migration=none" in shards
        progress = shell.handle_meta("\\progress")
        assert "shard 0:" in progress and "no migration" in progress
        plan = shell.handle_meta(
            "\\explain SELECT w_name FROM warehouse WHERE w_id = 1"
        )
        assert "Scan" in plan
    assert "no migration" in shell.handle_meta("\\progress")
    assert "unknown" in shell.handle_meta("\\frobnicate")
    assert shell.handle_meta("\\top nope").startswith("usage:")
    if surface.remote:
        assert "--connect" in shell.handle_meta("\\migrate x CREATE TABLE y")
    with pytest.raises(EOFError):
        shell.handle_meta("\\q")


def test_embedded_progress_sees_any_controller():
    """``\\progress`` reads ``bullfrog_stat_migrations``, so a migration
    submitted through a controller the shell never saw still shows."""
    shell = Shell()
    try:
        shell.session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        shell.session.execute("INSERT INTO t VALUES (1, 'a')")
        MigrationController(shell.db).submit(
            "elsewhere",
            "CREATE TABLE t2 AS SELECT id, v FROM t",
            background=BackgroundConfig(enabled=False),
        )
        out = shell.handle_meta("\\progress")
        assert "migration: elsewhere  complete: False" in out
        assert "granules:  0/1 (0.0%)" in out
        # (read_committed: a snapshot read is served the pre-migration
        # image and would not pull the granule over.)
        reader = shell.db.connect(isolation="read_committed")
        assert reader.execute("SELECT v FROM t2 WHERE id = 1").scalar() == "a"
        assert "complete: True" in shell.handle_meta("\\progress")
    finally:
        shell.obs.close()


def test_format_progress_groups_units_and_tolerates_unknown_totals():
    shared = {
        "tuples_migrated": 7, "tuples_per_sec": 3.2, "eta_seconds": None,
        "skip_waits": 1, "aborts": 0, "background_passes": 2,
        "versions_pruned": 0,
    }
    text = console.format_progress([
        {"migration": "m", "unit": "u1", "category": "one-to-one",
         "complete": True, "granules_migrated": 4, "granules_total": 4,
         "fraction": 1.0, **shared},
        {"migration": "m", "unit": "u2", "category": "many-to-one",
         "complete": False, "granules_migrated": 3, "granules_total": None,
         "fraction": None, **shared},
    ])
    assert "migration: m  complete: False" in text
    assert "granules:  7 (total unknown: hashmap unit)" in text
    assert "eta:       unknown" in text
    assert "unit u1 [one-to-one]: 4/4 migrated (complete)" in text
    assert "unit u2 [many-to-one]: 3 migrated" in text
    assert console.format_progress([]) == "(no migration submitted)"


def test_format_shards_marks_unreachable():
    row = {
        "shard": 1, "addr": "127.0.0.1:9", "healthy": False, "epoch": -1,
        "gate_open": True, "migration_complete": None, "pool_size": 8,
        "pool_in_use": 0, "pool_idle": 0, "pool_reconnects": 2,
    }
    text = console.format_shards([row])
    assert "shard 1" in text and "UNREACHABLE" in text
    assert "pool 0/8 in use, 2 reconnects" in text


def test_service_layers_do_not_import_the_shell():
    """``net``/``obs``/``cluster`` sit below ``repro.shell``; the shell
    imports them, never the reverse."""
    offenders = []
    for layer in ("net", "obs", "cluster"):
        for path in sorted((SRC / layer).rglob("*.py")):
            # Package depth of this module, for resolving relative imports.
            package = ("repro",) + path.relative_to(SRC).parts[:-1]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1]
                    prefix = ".".join(base) if node.level else ""
                    module = ".".join(p for p in (prefix, node.module) if p)
                    names = [module] + [
                        f"{module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    name == "repro.shell" or name.startswith("repro.shell.")
                    for name in names
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
