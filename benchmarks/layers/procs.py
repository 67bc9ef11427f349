"""Server subprocess lifecycle for the wire and router workloads.

Servers are started through the public CLIs (``python -m repro.net``,
``python -m repro.cluster``) on port 0, exactly as the system is
deployed, so client and server do not share an interpreter lock.  The
helper owns the whole lifetime: readiness is the CLI's ``listening on
host:port`` line (with a start timeout), stderr is captured into the
failure report, CPU and peak RSS are read from ``/proc`` while the
process is still alive, and ``stop()`` (also registered with
``atexit``) SIGTERMs then kills so no daemon outlives a failed run.
"""

from __future__ import annotations

import atexit
import os
import re
import select
import subprocess
import sys
import tempfile
import time

_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerStartError(RuntimeError):
    pass


class ServerProcess:
    """One ``python -m <module> ... --port 0`` child."""

    def __init__(
        self,
        module: str,
        args: list[str],
        src_dir: str,
        scratch_dir: str,
        start_timeout: float = 30.0,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        # An unnamed file, not a pipe: a chatty stderr can never fill a
        # buffer and stall the server mid-measurement.
        self._stderr = tempfile.TemporaryFile(dir=scratch_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *args, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
        )
        atexit.register(self.stop)
        try:
            self.host, self.port = self._await_listening(start_timeout)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerStartError(
                    f"server not listening after {timeout}s; stdout: "
                    f"{seen.decode(errors='replace')!r}; stderr: {self.stderr()!r}"
                )
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerStartError(
                    f"server exited with code {self.proc.wait()} before "
                    f"listening; stderr: {self.stderr()!r}"
                )
            seen += chunk
            match = _LISTENING.search(seen.decode(errors="replace"))
            if match and b"\n" in seen[match.end():]:
                return match.group(1), int(match.group(2))

    def stderr(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode(errors="replace")[-4000:]

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            # The command name may hold spaces; fields are counted from
            # the closing parenthesis (utime, stime = fields 14, 15).
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Idempotent: SIGTERM, wait, then kill; always reaps the child."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        atexit.unregister(self.stop)
