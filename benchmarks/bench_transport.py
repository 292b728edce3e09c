"""Real-transport overlap benchmark: network sessions and shard-run
drains against a *spawned server process*, overlapped vs the
sequential round-robin client.

Where ``bench_async.py`` measures overlap over in-process simulated
services, every byte here crosses a real TCP socket to a subprocess
started by :class:`~repro.transport.harness.ServerProcess` -- frames,
codecs, connection pool, request multiplexing and all.  The served
sources carry a small per-call service time (the server emulates the
paper's autonomous subsystems; loopback alone has no latency to hide),
and concurrent requests overlap it on the server's event loop exactly
as calls to independent services would.

``session`` runs
    NRA over an :class:`~repro.services.session.AsyncAccessSession`
    whose sources are :class:`~repro.transport.client.NetworkGradedSource`
    (all ``m`` page streams prefetch-pipelined over the multiplexed
    connection) vs the same session with pipelining disabled
    (``prefetch_pages=0``, lazy start) -- the sequential
    fetch-on-demand client.  Results and ``AccessStats`` are verified
    identical to the local synchronous reference.

``streams`` runs
    :func:`~repro.services.assemble.fetch_merged_orders` over the
    server's ``S x m`` run grid -- all streams concurrently vs
    sequential round-robin -- verified bit-identical to the sharded
    backend's own merged orders.

Writes ``BENCH_transport.json`` at the repository root; the committed
full run must hold >= 2x overlap speedup everywhere (enforced by
the ``transport`` row of ``check_bench_regression.py``, which also
gates CI smoke runs against the committed speedups).  Run directly::

    PYTHONPATH=src python benchmarks/bench_transport.py           # full
    PYTHONPATH=src python benchmarks/bench_transport.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation.standard import AVERAGE  # noqa: E402
from repro.core.nra import NoRandomAccessAlgorithm  # noqa: E402
from repro.middleware.database import Database  # noqa: E402
from repro.services import (  # noqa: E402
    AsyncAccessSession,
    fetch_merged_orders,
    network_services,
    network_shard_runs,
)
from repro.transport import ServerProcess  # noqa: E402

SEED = 20260729
K = 10
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_transport.json"


def _signature(result):
    stats = result.stats
    return (
        [(item.obj, item.grade, item.lower_bound, item.upper_bound)
         for item in result.items],
        stats.sorted_accesses,
        stats.random_accesses,
        stats.sorted_by_list,
        stats.random_by_list,
        stats.depth,
        result.halt_reason,
        result.rounds,
    )


def _session_run(server, batch_size, overlapped, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        sources = network_services(server.address)
        with AsyncAccessSession(
            sources,
            batch_size=batch_size,
            prefetch_pages=4 if overlapped else 0,
            eager=overlapped,
        ) as session:
            start = time.perf_counter()
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, K)
            best = min(best, time.perf_counter() - start)
    return best, result


def _stream_run(server, batch_size, overlapped, repeats):
    best = float("inf")
    merged = None
    for _ in range(repeats):
        grid = network_shard_runs(server.address)
        start = time.perf_counter()
        merged = fetch_merged_orders(
            grid, batch_size=batch_size, sequential=not overlapped
        )
        best = min(best, time.perf_counter() - start)
    return best, merged


def run(smoke: bool) -> dict:
    if smoke:
        session_grid = [(4_000, 4, 64, 0.002)]
        stream_grid = [(8_000, 5, 4, 256, 0.002)]
        repeats = 1
    else:
        session_grid = [
            (4_000, 4, 64, 0.002),
            (4_000, 4, 64, 0.005),
        ]
        stream_grid = [
            (30_000, 5, 4, 512, 0.001),
            (30_000, 5, 8, 512, 0.002),
            (8_000, 5, 4, 256, 0.002),
        ]
        repeats = 3
    rng = np.random.default_rng(SEED)
    report = {
        "seed": SEED,
        "k": K,
        "aggregation": AVERAGE.name,
        "smoke": smoke,
        "repeats": repeats,
        "runs": [],
    }

    for n, m, batch, latency in session_grid:
        db = Database.from_array(rng.random((n, m)))
        reference = NoRandomAccessAlgorithm().run_on(db, AVERAGE, K)
        with ServerProcess(db, latency=latency) as server:
            seq_s, seq_res = _session_run(server, batch, False, repeats)
            ovl_s, ovl_res = _session_run(server, batch, True, repeats)
        if not (
            _signature(seq_res)
            == _signature(ovl_res)
            == _signature(reference)
        ):
            raise AssertionError(
                f"transport session divergence at N={n} m={m}: results "
                "or accounting differ from the synchronous reference"
            )
        entry = {
            "part": "session",
            "config": f"NRA-N{n}-m{m}-b{batch}-lat{latency * 1e3:g}ms",
            "N": n,
            "m": m,
            "batch_size": batch,
            "latency_ms": latency * 1e3,
            "sequential_seconds": round(seq_s, 6),
            "overlapped_seconds": round(ovl_s, 6),
            "speedup": round(seq_s / ovl_s, 3),
        }
        report["runs"].append(entry)
        print(
            f"session {entry['config']:28s} sequential={seq_s:7.3f}s "
            f"overlapped={ovl_s:7.3f}s  speedup={entry['speedup']:5.2f}x "
            "(accounting identical, every byte over a real socket)"
        )

    for n, m, shards, batch, latency in stream_grid:
        sharded = Database.from_array(rng.random((n, m))).to_sharded(shards)
        with ServerProcess(
            sharded, num_shards=shards, latency=latency
        ) as server:
            seq_s, seq_merged = _stream_run(server, batch, False, repeats)
            ovl_s, ovl_merged = _stream_run(server, batch, True, repeats)
        for i in range(m):
            expected_rows = np.asarray(sharded._order_rows[i])
            expected_grades = np.asarray(sharded._order_grades[i])
            for label, merged in (("seq", seq_merged), ("ovl", ovl_merged)):
                if not (
                    np.array_equal(merged[i][0], expected_rows)
                    and np.array_equal(merged[i][1], expected_grades)
                ):
                    raise AssertionError(
                        f"merged order divergence ({label}) at N={n} "
                        f"S={shards} list {i}"
                    )
        entry = {
            "part": "streams",
            "config": f"S{shards}-N{n}-m{m}-b{batch}-lat{latency * 1e3:g}ms",
            "N": n,
            "m": m,
            "num_shards": shards,
            "batch_size": batch,
            "latency_ms": latency * 1e3,
            "sequential_seconds": round(seq_s, 6),
            "overlapped_seconds": round(ovl_s, 6),
            "speedup": round(seq_s / ovl_s, 3),
        }
        report["runs"].append(entry)
        print(
            f"streams {entry['config']:28s} sequential={seq_s:7.3f}s "
            f"overlapped={ovl_s:7.3f}s  speedup={entry['speedup']:5.2f}x "
            "(merge bit-identical)"
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: exercises the script, not the hardware",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            f"where to write the JSON report (default: {OUTPUT}; a smoke "
            "run defaults to BENCH_transport.smoke.json)"
        ),
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = OUTPUT.with_suffix(".smoke.json") if args.smoke else OUTPUT
    report = run(args.smoke)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
