"""Resilience benchmark: hedged-request tail-latency wins and the cost
of transparent replica failover.

Two parts, both over in-process simulated replicas (deterministic
failure scripts and seeded latency models; the socket overheads are
``bench_transport.py``'s subject, not this one's):

``hedging`` runs
    p99 sorted-access (page) latency through a
    :class:`~repro.resilience.replica.ReplicatedGradedSource` whose
    replicas suffer injected tail latency (mostly-fast calls with a
    seeded slow tail), hedged vs unhedged.  An unhedged group eats the
    tail at p99; with ``hedge_after`` just above the fast mode, a tail
    request speculatively duplicates onto the second replica and the
    fast response wins -- both tails must coincide for a slow answer,
    so the p99 collapses to roughly ``hedge_after + base``.  The
    reported ``speedup`` is ``p99_unhedged / p99_hedged`` and the
    committed run must hold >= 1.5x (the PR's acceptance bar; in
    practice it is far higher).  Pages are verified bit-identical
    between the two modes.

``failover`` runs
    NRA to completion over 2-replica groups whose primary dies for
    good (scripted ``permanent`` failure) deep into the query, against
    the *naive* client that has no failover: it catches the failure
    and re-runs the whole query from scratch on the backup.  The
    group resumes mid-stream at the exact page boundary, so its total
    time stays near the failure-free run while the naive restart pays
    for the lost progress again; ``speedup`` is
    ``naive_seconds / failover_seconds`` (>= 1.5 when the failure
    lands at 85% of the primary's serving run), and
    ``overhead_ratio`` records ``failover_seconds / clean_seconds``
    (how close transparent failover stays to the failure-free run).
    All three runs' results and ``AccessStats`` are verified
    bit-identical.

Writes ``BENCH_resilience.json`` at the repository root; the committed
full run is enforced by the ``resilience`` row of
``check_bench_regression.py`` (which also gates CI smoke runs against the
committed speedups).  Run directly::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation.standard import AVERAGE  # noqa: E402
from repro.core.nra import NoRandomAccessAlgorithm  # noqa: E402
from repro.middleware.database import Database  # noqa: E402
from repro.middleware.errors import ServiceUnavailableError  # noqa: E402
from repro.resilience import ReplicatedGradedSource  # noqa: E402
from repro.services import (  # noqa: E402
    AsyncAccessSession,
    FailureModel,
    LatencyModel,
    RetryPolicy,
    services_for_database,
)

SEED = 20260808
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class TailLatencyModel(LatencyModel):
    """Mostly-fast calls with a seeded slow tail: ``base`` seconds with
    probability ``1 - tail_prob``, ``tail`` seconds otherwise -- the
    injected tail latency hedging is built to beat."""

    tail: float = 0.0
    tail_prob: float = 0.0

    def delay(self, rng) -> float:
        if self.tail_prob and rng.random() < self.tail_prob:
            return self.tail
        return super().delay(rng)


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


# ---------------------------------------------------------------------------
# part 1: hedged requests vs injected tail latency
# ---------------------------------------------------------------------------
def _hedging_group(db, *, hedge_after, base, tail, tail_prob):
    replicas = [
        services_for_database(
            db,
            latency=TailLatencyModel(
                base=base, tail=tail, tail_prob=tail_prob, seed=17 + j
            ),
        )[0]
        for j in range(2)
    ]
    return ReplicatedGradedSource(
        replicas[0].name, replicas, hedge_after=hedge_after
    )


async def _timed_pages(group, requests, count):
    latencies = np.empty(requests)
    pages = []
    total = group.num_entries
    for r in range(requests):
        start = (r * count) % max(total - count, 1)
        t0 = time.perf_counter()
        page = await group.page(start, count)
        latencies[r] = time.perf_counter() - t0
        pages.append((start, tuple(page.objects), tuple(page.grades)))
    return latencies, pages


def _run_hedging(report, *, n, requests, base, tail, tail_prob, hedge_after):
    rng = np.random.default_rng(SEED)
    db = Database.from_array(rng.random((n, 3)))
    unhedged = _hedging_group(
        db, hedge_after=None, base=base, tail=tail, tail_prob=tail_prob
    )
    hedged = _hedging_group(
        db, hedge_after=hedge_after, base=base, tail=tail,
        tail_prob=tail_prob,
    )
    lat_u, pages_u = asyncio.run(_timed_pages(unhedged, requests, 8))
    lat_h, pages_h = asyncio.run(_timed_pages(hedged, requests, 8))
    if pages_u != pages_h:
        raise AssertionError(
            "hedged pages diverge from unhedged pages: hedging must be "
            "invisible to the consumer"
        )
    p99_u = float(np.percentile(lat_u, 99))
    p99_h = float(np.percentile(lat_h, 99))
    entry = {
        "part": "hedging",
        "config": (
            f"N{n}-req{requests}-tail{tail * 1e3:g}ms"
            f"@{tail_prob:g}-hedge{hedge_after * 1e3:g}ms"
        ),
        "N": n,
        "requests": requests,
        "base_ms": base * 1e3,
        "tail_ms": tail * 1e3,
        "tail_prob": tail_prob,
        "hedge_after_ms": hedge_after * 1e3,
        "p50_unhedged_ms": round(float(np.percentile(lat_u, 50)) * 1e3, 3),
        "p99_unhedged_ms": round(p99_u * 1e3, 3),
        "p50_hedged_ms": round(float(np.percentile(lat_h, 50)) * 1e3, 3),
        "p99_hedged_ms": round(p99_h * 1e3, 3),
        "hedges_fired": hedged.hedges_fired,
        "hedge_wins": hedged.hedge_wins,
        "speedup": round(p99_u / p99_h, 3),
    }
    report["runs"].append(entry)
    print(
        f"hedging  {entry['config']:38s} "
        f"p99 unhedged={entry['p99_unhedged_ms']:7.2f}ms "
        f"hedged={entry['p99_hedged_ms']:7.2f}ms  "
        f"speedup={entry['speedup']:5.2f}x "
        f"(wins {hedged.hedge_wins}/{hedged.hedges_fired}, "
        "pages bit-identical)"
    )


# ---------------------------------------------------------------------------
# part 2: transparent failover vs naive restart-from-scratch
# ---------------------------------------------------------------------------
def _failover_session(db, k, batch, *, latency, primary_failures=None):
    """Session over 2-replica groups (primary optionally scripted to
    die); returns (result, seconds, primaries)."""
    primaries = services_for_database(
        db, latency=latency, failures=primary_failures, retry=NO_RETRY
    )
    backups = services_for_database(db, latency=latency)
    groups = [
        ReplicatedGradedSource(p.name, [p, b])
        for p, b in zip(primaries, backups)
    ]
    with AsyncAccessSession(
        groups, batch_size=batch, prefetch_pages=0
    ) as session:
        start = time.perf_counter()
        result = NoRandomAccessAlgorithm().run(session, AVERAGE, k)
        seconds = time.perf_counter() - start
    return result, seconds, primaries


def _naive_restart(db, k, batch, *, latency, failures):
    """The client with no failover: one service per list; on failure it
    rebuilds over the backup and re-runs the query from zero."""
    primaries = services_for_database(
        db, latency=latency, failures=failures, retry=NO_RETRY
    )
    start = time.perf_counter()
    try:
        with AsyncAccessSession(
            primaries, batch_size=batch, prefetch_pages=0
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, k)
    except ServiceUnavailableError:
        backups = services_for_database(db, latency=latency)
        with AsyncAccessSession(
            backups, batch_size=batch, prefetch_pages=0
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, k)
    else:  # pragma: no cover - the script must fire mid-query
        raise AssertionError("scripted failure never fired")
    return result, time.perf_counter() - start


def _run_failover(report, *, n, k, batch, latency_s, fail_fraction):
    rng = np.random.default_rng(SEED + 1)
    db = Database.from_array(rng.random((n, 3)))
    latency = LatencyModel(base=latency_s)

    clean_result, clean_s, primaries = _failover_session(
        db, k, batch, latency=latency
    )
    # script each primary to die for good at ``fail_fraction`` of the
    # calls it served in the clean run -- deep in the query, the worst
    # place to lose a replica
    fail_calls = [
        max(1, int(service.calls * fail_fraction))
        for service in primaries
    ]
    failures = [
        FailureModel(script={at: "permanent"}) for at in fail_calls
    ]
    failover_result, failover_s, _ = _failover_session(
        db, k, batch, latency=latency, primary_failures=failures
    )
    naive_result, naive_s = _naive_restart(
        db, k, batch, latency=latency, failures=failures
    )
    if not (
        _signature(failover_result)
        == _signature(naive_result)
        == _signature(clean_result)
    ):
        raise AssertionError(
            f"failover divergence at N={n}: results or accounting "
            "differ between clean, failover, and naive-restart runs"
        )
    entry = {
        "part": "failover",
        "config": (
            f"NRA-N{n}-b{batch}-lat{latency_s * 1e3:g}ms"
            f"-fail{fail_fraction:g}"
        ),
        "N": n,
        "k": k,
        "batch_size": batch,
        "latency_ms": latency_s * 1e3,
        "fail_fraction": fail_fraction,
        "fail_calls": fail_calls,
        "clean_seconds": round(clean_s, 6),
        "failover_seconds": round(failover_s, 6),
        "naive_restart_seconds": round(naive_s, 6),
        "overhead_ratio": round(failover_s / clean_s, 3),
        "speedup": round(naive_s / failover_s, 3),
    }
    report["runs"].append(entry)
    print(
        f"failover {entry['config']:38s} clean={clean_s:6.3f}s "
        f"failover={failover_s:6.3f}s naive={naive_s:6.3f}s  "
        f"speedup={entry['speedup']:5.2f}x "
        f"(overhead {entry['overhead_ratio']:4.2f}x, results "
        "bit-identical)"
    )


def run(smoke: bool) -> dict:
    report = {
        "seed": SEED,
        "aggregation": AVERAGE.name,
        "smoke": smoke,
        "runs": [],
    }
    if smoke:
        hedging_grid = [
            dict(n=300, requests=200, base=0.002, tail=0.06,
                 tail_prob=0.05, hedge_after=0.006),
        ]
        failover_grid = [
            dict(n=400, k=5, batch=16, latency_s=0.001,
                 fail_fraction=0.85),
        ]
    else:
        # the full grid contains the smoke grid, so CI smoke runs
        # always share (part, config) keys with the committed baseline
        hedging_grid = [
            dict(n=300, requests=200, base=0.002, tail=0.06,
                 tail_prob=0.05, hedge_after=0.006),
            dict(n=600, requests=600, base=0.002, tail=0.06,
                 tail_prob=0.05, hedge_after=0.006),
            dict(n=600, requests=600, base=0.002, tail=0.1,
                 tail_prob=0.02, hedge_after=0.008),
        ]
        failover_grid = [
            dict(n=400, k=5, batch=16, latency_s=0.001,
                 fail_fraction=0.85),
            dict(n=1000, k=5, batch=16, latency_s=0.001,
                 fail_fraction=0.85),
            dict(n=1000, k=5, batch=16, latency_s=0.002,
                 fail_fraction=0.85),
        ]
    for config in hedging_grid:
        _run_hedging(report, **config)
    for config in failover_grid:
        _run_failover(report, **config)
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
        help="report path (default: BENCH_resilience.json, or "
        "BENCH_resilience.smoke.json with --smoke)",
    )
    args = parser.parse_args()
    report = run(args.smoke)
    output = args.output
    if output is None:
        output = (
            OUTPUT.with_suffix(".smoke.json") if args.smoke else OUTPUT
        )
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
