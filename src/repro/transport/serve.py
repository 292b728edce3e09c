"""CLI entry point: serve a persisted database over the wire protocol.

This is what the subprocess harness (and a human wanting a standalone
source server) runs::

    PYTHONPATH=src python -m repro.transport.serve --store db.store --port 0

The child opens the store written by :func:`~repro.store.save_store`
(tie order intact -- the order arrays are persisted) through
:func:`~repro.store.open_store`, builds one simulated service per list
(plus the per-shard run grid when the store carries a shard layout),
binds, prints one readiness line::

    LISTENING <host> <port>

to stdout (flushed), and serves until killed.  ``--latency`` /
``--jitter`` attach a seeded server-side latency model, which is how
the transport benchmark emulates per-call service time on real
sockets.

Shutdown is graceful on SIGTERM: the listener closes, in-flight
requests get up to ``--drain-timeout`` seconds to finish and flush
their responses, then the process exits 0.  SIGKILL (the chaos
harness's weapon) is, of course, not graceful.  ``--max-concurrent``
caps in-flight requests server-wide (connections stop reading frames
at the cap -- TCP backpressure instead of unbounded buffering).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

from ..services.simulated import LatencyModel
from ..store import open_store
from .server import GradedSourceServer

__all__ = ["main"]


def build_server(args: argparse.Namespace) -> GradedSourceServer:
    db = open_store(Path(args.store))
    latency = None
    if args.latency or args.jitter:
        latency = LatencyModel(
            base=args.latency, jitter=args.jitter, seed=args.latency_seed
        )
    return GradedSourceServer.from_database(
        db,
        latency=latency,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
    )


async def _serve(args: argparse.Namespace) -> None:
    server = build_server(args)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    host, port = server.address
    print(f"LISTENING {host} {port}", flush=True)
    try:
        await stop.wait()
        # graceful: drain in-flight requests (bounded), then close
        await server.drain(args.drain_timeout)
    finally:
        await server.aclose()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--store", required=True, help="store written by save_store"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    parser.add_argument(
        "--latency",
        type=float,
        default=0.0,
        help="server-side per-call latency base, seconds",
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="server-side per-call latency jitter, seconds",
    )
    parser.add_argument("--latency-seed", type=int, default=0)
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="server-wide cap on in-flight requests (backpressure)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds SIGTERM waits for in-flight requests to drain",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
