"""Serve a generated grade array over TCP with the daemon's defaults.

::

    PYTHONPATH=src python perfbench/serve_ram.py ARRAY.npy [--mutable]

Builds a ``ColumnarDatabase`` (or, with ``--mutable``, a
``MutableColumnarDatabase``) from the ``(N, m)`` array, mounts a
``QueryService`` on a ``QueryServer`` as ``python -m repro.server``
does, with the settings below (the daemon's defaults; the store
workload passes the same ones to the daemon), prints ``LISTENING
<host> <port>`` and serves until SIGTERM, which drains and exits 0.
The daemon itself cannot serve a mutable backend, and its ``--npz``
path is slated for removal.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import numpy as np

from repro.middleware.cost import AdmissionPolicy
from repro.middleware.database import ColumnarDatabase
from repro.middleware.mutable import MutableColumnarDatabase
from repro.obs import Observability
from repro.server.service import QueryService
from repro.server.wire import QueryServer

#: the daemon's defaults (``python -m repro.server --help``), used by
#: every served workload and by the in-process layer timings
MAX_ACTIVE = 4
MAX_QUEUED = 256
BATCH_SIZE = 64
READAHEAD_PAGES = 2


def daemon_service(database) -> QueryService:
    """A ``QueryService`` over ``database`` with the daemon's defaults
    and the observability plane on."""
    return QueryService(
        database=database,
        obs=Observability(),
        admission=AdmissionPolicy(max_active=MAX_ACTIVE,
                                  max_queued=MAX_QUEUED),
        share_scans=True,
        batch_size=BATCH_SIZE,
        readahead_pages=READAHEAD_PAGES,
    )


async def serve(array_path: str, mutable: bool) -> None:
    array = np.load(array_path)
    cls = MutableColumnarDatabase if mutable else ColumnarDatabase
    service = daemon_service(cls.from_array(array))
    server = QueryServer(service, host="127.0.0.1", port=0)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    host, port = server.address
    print(f"LISTENING {host} {port}", flush=True)
    try:
        await stop.wait()
        await service.adrain(5.0)
        await server.drain(5.0)
    finally:
        await server.aclose()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("array", help="(N, m) float64 grades, np.save format")
    parser.add_argument("--mutable", action="store_true")
    args = parser.parse_args(argv)
    asyncio.run(serve(args.array, args.mutable))
    return 0


if __name__ == "__main__":
    sys.exit(main())
