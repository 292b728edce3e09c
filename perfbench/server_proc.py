"""One served-path server as a child process: spawn, time, measure, reap."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from pathlib import Path

__all__ = ["ServerProcess", "proc_status_mib"]


def proc_status_mib(pid: int, field: str) -> float:
    """``VmHWM``/``VmRSS`` of ``pid`` from ``/proc/<pid>/status``, MiB.

    Read from the server's own status file, never from ``ru_maxrss``:
    a child's ``ru_maxrss`` is inherited across fork+exec, so it would
    report the load generator's peak instead of the server's.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


class ServerProcess:
    """A server started from ``argv`` that prints ``LISTENING host
    port`` when it is ready.  Use as a context manager: the process is
    reaped on every exit path (SIGTERM, then SIGKILL after a grace
    period)."""

    def __init__(self, argv: list[str], *, env: dict, cwd: Path,
                 log_path: Path, cpus: set[int] | None = None):
        self.argv = argv
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.cpus = cpus
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        #: spawn -> ``LISTENING`` line, seconds
        self.setup_s = 0.0
        #: resident set at ``LISTENING``, before any load, MiB
        self.rss_ready_mib = 0.0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                preexec_fn=self._pin if self.cpus else None,
            )
        assert self.proc.stdout is not None
        line = self._read_line(self.proc.stdout, t0 + timeout)
        self.setup_s = time.perf_counter() - t0
        parts = line.split()
        if len(parts) != 3 or parts[0] != "LISTENING":
            self.stop()
            raise RuntimeError(
                f"server printed {line!r} instead of LISTENING; "
                f"see {self.log_path}"
            )
        self.host, self.port = parts[1], int(parts[2])
        self.rss_ready_mib = proc_status_mib(self.proc.pid, "VmRSS")
        return self

    def _pin(self) -> None:
        assert self.cpus is not None
        os.sched_setaffinity(0, self.cpus)

    def _read_line(self, stream, deadline: float) -> str:
        buf = b""
        fd = stream.fileno()
        while not buf.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.stop()
                raise TimeoutError(
                    f"server not ready in time; see {self.log_path}"
                )
            chunk = os.read(fd, 1)
            if not chunk:
                self.stop()
                raise RuntimeError(
                    f"server exited before LISTENING; see {self.log_path}"
                )
            buf += chunk
        return buf.decode().strip()

    def peak_rss_mib(self) -> float:
        assert self.proc is not None
        return proc_status_mib(self.proc.pid, "VmHWM")

    def stop(self, grace: float = 10.0) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
