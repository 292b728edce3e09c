"""The standalone daemon (``python -m repro.server``) over persisted
files: ``--store`` is its only source, and it serves v3 stores and
legacy v1/v2 ``.npz`` files bit-identically to a direct engine run --
items, bounds, tie order, halting reason and full ``AccessStats``.
``--npz`` is gone and is a usage error."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.middleware import Database
from repro.server import QueryServiceClient
from repro.store import save_store
from tests.helpers import (
    QueryCase,
    run_async,
    run_query_matrix,
    write_legacy_npz,
)

pytestmark = pytest.mark.async_services

SRC = Path(repro.__file__).resolve().parents[1]

CASES = [
    QueryCase("ta", "average", 5),
    QueryCase("nra", "min", 3),
    QueryCase("ca", "sum", 4),
    QueryCase("stream-combine", "average", 2),
]


def _daemon(*args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


@pytest.fixture
def database():
    # coarse grades: many ties, placed by the stable argsort that a v1
    # (grades-only) file also rebuilds, so every format must agree
    rng = np.random.default_rng(44)
    return Database.from_array(rng.integers(0, 6, (150, 3)) / 5.0)


def _write(fmt: str, db: Database, path: Path) -> None:
    if fmt == "v3":
        save_store(db, path)
    elif fmt == "v3-sharded":
        save_store(db.to_sharded(3), path)
    elif fmt == "v2":
        write_legacy_npz(db, path)
    elif fmt == "v2-sharded":
        write_legacy_npz(db.to_sharded(3), path)
    else:
        write_legacy_npz(db, path, order_arrays=False)


@pytest.mark.parametrize(
    "fmt", ["v3", "v3-sharded", "v2", "v2-sharded", "v1"]
)
def test_daemon_serves_store_and_legacy_files_bit_identically(
    tmp_path, database, fmt
):
    path = tmp_path / f"db.{fmt}"
    _write(fmt, database, path)
    daemon = _daemon("--store", str(path), "--port", "0", "--max-active", "2")
    try:
        banner = daemon.stdout.readline().split()
        assert banner[:1] == ["LISTENING"], daemon.stderr.read()
        host, port = banner[1], int(banner[2])

        def execute(cases):
            async def fire():
                client = QueryServiceClient(host, port, request_timeout=60.0)
                try:
                    outcomes = await client.run_queries(
                        [case.spec() for case in cases]
                    )
                finally:
                    await client.aclose()
                return [outcome.result for outcome in outcomes]

            return run_async(fire())

        run_query_matrix(database, CASES, execute)
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        daemon.stdout.close()
        daemon.stderr.close()


@pytest.mark.parametrize(
    "args", [["--npz", "db.npz"], ["--port", "0"]], ids=["npz", "no-store"]
)
def test_daemon_requires_store(args):
    daemon = _daemon(*args)
    _, stderr = daemon.communicate(timeout=30)
    assert daemon.returncode == 2
    assert "usage:" in stderr
