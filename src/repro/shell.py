"""A minimal interactive SQL shell: ``python -m repro``.

Useful for poking at the engine and demoing migrations by hand:

.. code-block:: text

    $ python -m repro
    repro> CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
    CREATE TABLE
    repro> INSERT INTO t VALUES (1, 'hello');
    INSERT 1
    repro> SELECT * FROM t;
     id | v
    ----+------
     1  | hello
    (1 row)

Meta-commands: ``\\dt`` lists tables, ``\\d <table>`` describes one,
``\\explain <select>`` shows the plan, ``\\migrate <id> <ddl>`` submits
a lazy migration, ``\\progress`` shows live migration progress,
``\\metrics`` dumps the Prometheus text snapshot (``\\metrics json``
for the JSON form), ``\\top [interval [frames]]`` is a live monitor
(QPS, latency percentiles, wait-class breakdown, migration
progress/ETA — ``\\top 0 1`` renders one frame and returns),
``\\health`` prints the health-rule report, ``\\dump [reason]`` writes
a flight-recorder incident bundle, ``\\shards`` shows per-shard health
when connected to a ``bullfrog-router``, ``\\q`` quits.

Every backslash command except ``\\explain``/``\\migrate``/``\\q`` is
an admin verb answered by :func:`repro.obs.console.run` — in-process
for the embedded shell, and as a META request to the server's console
under ``python -m repro --connect HOST:PORT``, where SQL travels over
the wire too and ``\\top`` renders the *server's* history (including
its ``bullfrog_stat_server`` row).  DESIGN.md "Admin surface" has the
verb table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core import BackgroundConfig, MigrationController, Strategy
from .db import Database, Result
from .errors import ReproError
from .obs import Observability, console
from .obs.console import format_health, render_top  # noqa: F401 - re-exported

# Backslash command -> admin verb (repro.obs.console); the rest of the
# line rides along as the verb's argument.
_VERBS = {
    "\\dt": "tables",
    "\\d": "describe",
    "\\progress": "progress",
    "\\metrics": "metrics",
    "\\health": "health",
    "\\dump": "dump",
    "\\shards": "shards",
}


def format_result(result: Result) -> str:
    if result.statement != "SELECT":
        if result.rowcount:
            return f"{result.statement} {result.rowcount}"
        return result.statement
    if not result.columns:
        return "(no columns)"
    widths = [
        max(len(str(column)), *(len(str(row[i])) for row in result.rows))
        if result.rows
        else len(str(column))
        for i, column in enumerate(result.columns)
    ]
    lines = [
        " | ".join(str(c).ljust(w) for c, w in zip(result.columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in result.rows:
        lines.append(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    plural = "row" if len(result.rows) == 1 else "rows"
    lines.append(f"({len(result.rows)} {plural})")
    return "\n".join(lines)


class Shell:
    def __init__(self, connect_to: str | None = None) -> None:
        self.remote = None
        if connect_to is not None:
            # Remote mode: the "session" is a net.Connection — it has
            # the same execute() -> Result surface, so the REPL loop and
            # format_result work unchanged, and admin verbs travel as
            # META requests to the server's console.
            from .net.addr import parse_hostport
            from .net.client import connect as net_connect

            host, port = parse_hostport(connect_to)
            self.remote = net_connect(host, port)
            self.session = self.remote
            self.obs = None
            self.db = None
            self.controller = None
            self.admin = self.remote.meta
            return
        # The shell always runs instrumented: it is the demo surface for
        # the observability layer (\\progress, \\metrics, \\top and
        # \\health read it, \\dump writes incident bundles).
        self.obs = Observability()
        self.db = Database(obs=self.obs)
        self.session = self.db.connect()
        self.controller = MigrationController(self.db)
        self.obs.attach_monitoring(self.db)
        self.admin = lambda command: console.run(self.db, command)

    def handle_meta(self, line: str) -> str | None:
        command, _, arg = line.partition(" ")
        arg = arg.strip()
        if command == "\\q":
            raise EOFError
        if command == "\\explain" and arg:
            result = self.session.execute("EXPLAIN " + arg)
            return "\n".join(str(row[0]) for row in result.rows)
        if command == "\\migrate":
            if self.remote is not None:
                return "\\migrate is not available over --connect (run DDL as SQL)"
            migration_id, _, ddl = arg.partition(" ")
            if ddl:
                self.controller.submit(
                    migration_id,
                    ddl,
                    strategy=Strategy.LAZY,
                    background=BackgroundConfig(delay=2.0),
                )
                return f"migration {migration_id!r} submitted (new schema live)"
        if command == "\\top":
            return self._run_top(arg.split())
        verb = _VERBS.get(command)
        if verb is None:
            return f"unknown meta-command {command!r}"
        return self.admin(f"{verb} {arg}".rstrip())

    def _run_top(self, args: list[str]) -> str | None:
        """Drive ``\\top [interval [frames]]``.  ``frames == 1`` renders
        once and returns the text (the testable path); otherwise loop,
        clearing the screen between frames, until the frame budget runs
        out or the user interrupts.  The wire (and the embedded console)
        carries ``top json``, never ANSI; rendering is local."""
        try:
            interval = float(args[0]) if args else 1.0
            frames = int(args[1]) if len(args) > 1 else None
        except ValueError:
            return "usage: \\top [interval_seconds [frames]]"

        def frame() -> str:
            return render_top(json.loads(self.admin("top json")))

        if frames == 1:
            return frame()
        rendered = 0
        try:
            while frames is None or rendered < frames:
                if rendered:
                    time.sleep(max(interval, 0.05))
                # ANSI clear + home, like top(1); harmless when piped.
                sys.stdout.write("\x1b[2J\x1b[H")
                print(frame())
                print("(ctrl-c to stop)")
                rendered += 1
        except KeyboardInterrupt:
            pass
        return None

    def run(self) -> int:
        if self.remote is not None:
            print(
                "repro shell — connected to bullfrogd "
                f"(server {self.remote.server_version}, "
                f"epoch {self.remote.schema_epoch}).  \\q to quit."
            )
        else:
            print("repro shell — BullFrog reproduction.  \\q to quit.")
        buffer = ""
        while True:
            prompt = "repro> " if not buffer else "  ...> "
            try:
                line = input(prompt)
            except EOFError:
                print()
                return 0
            if not buffer and line.strip().startswith("\\"):
                try:
                    output = self.handle_meta(line.strip())
                except EOFError:
                    return 0
                except ReproError as exc:
                    output = f"error: {exc}"
                if output:
                    print(output)
                continue
            buffer += line + "\n"
            if not line.rstrip().endswith(";"):
                if line.strip():
                    continue
            statement = buffer.strip().rstrip(";")
            buffer = ""
            if not statement:
                continue
            try:
                print(format_result(self.session.execute(statement)))
            except ReproError as exc:
                print(f"error: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="interactive BullFrog SQL shell"
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="attach to a running bullfrogd instead of an embedded database",
    )
    args = parser.parse_args(argv)
    shell = Shell(connect_to=args.connect)
    try:
        return shell.run()
    finally:
        if shell.remote is not None:
            shell.remote.close()
        elif shell.obs is not None:
            shell.obs.close()


if __name__ == "__main__":
    sys.exit(main())
