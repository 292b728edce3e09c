"""Observability overhead benchmark: the cost of the plane itself.

``obs`` answers the one question an always-on instrumentation layer
must answer before it ships: *what does it cost when it is off, and
what does it cost when it is on?*  Each configuration runs the same
top-k query three ways, interleaved so the arms share cache and
frequency state:

* **baseline** -- a plain engine run, no observability object anywhere
  (the pre-instrumentation hot path: the round hook is one attribute
  load that finds no probe);
* **disabled** -- an :class:`~repro.obs.Observability` plane is
  constructed but disabled: ``obs.probe(session)`` returns ``None``
  and every registry factory hands back the shared no-op instrument,
  whose ``inc``/``observe`` calls the arm still makes per query;
* **enabled** -- the plane is live: a
  :class:`~repro.obs.QueryProbe` rides the session through every
  round (cumulative depth/cost/τ/W/B snapshots) and the per-query
  metrics the query service emits (outcome counter, wall/cost
  histograms, access counters) are recorded for real.

All three arms must return bit-identical top-k items -- the zero
perturbation contract, asserted here on every repeat -- and the probe
totals must equal the engine's own ``AccessStats`` exactly.  The
headline numbers are the overhead ratios ``disabled_overhead`` and
``enabled_overhead`` (arm seconds / baseline seconds, min over
repeats).  The committed full run must hold disabled <= 2% and
enabled <= 10%, enforced by the ``obs`` row of
``check_bench_regression.py``, which also gates CI smoke runs (with slack: smoke
boxes are noisy).  Run directly::

    PYTHONPATH=src python benchmarks/bench_obs.py           # full
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation import AVERAGE  # noqa: E402
from repro.core import (  # noqa: E402
    NoRandomAccessAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
)
from repro.middleware import AccessSession  # noqa: E402
from repro.middleware.database import ColumnarDatabase  # noqa: E402
from repro.obs import Observability  # noqa: E402

SEED = 20260808
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

ALGORITHMS = {
    "TA": ThresholdAlgorithm,
    "NRA": NoRandomAccessAlgorithm,
    "SC": StreamCombine,
}


def _signature(result) -> tuple:
    return tuple((item.obj, item.grade) for item in result.items)


def _arm_baseline(algo, db, k):
    """Plain run: no plane anywhere near the session."""
    session = AccessSession(db)
    return _signature(algo.run(session, AVERAGE, k))


def _arm_disabled(algo, db, k, obs, instruments):
    """The plane exists but is off: probe is ``None``, the per-query
    emission hits shared no-op instruments -- exactly the query
    service's hot path with ``--no-obs`` semantics."""
    session = AccessSession(db)
    probe = obs.probe(session)  # None: engines skip the hook
    if probe is not None:  # pragma: no cover - defensive
        session.probe = probe
    start = obs.clock()
    result = algo.run(session, AVERAGE, k)
    outcome, wall, cost, srt, rnd = instruments
    outcome.inc()
    wall.observe(obs.clock() - start)
    stats = result.stats
    cost.observe(stats.middleware_cost)
    srt.inc(stats.sorted_accesses)
    rnd.inc(stats.random_accesses)
    return _signature(result)


def _arm_enabled(algo, db, k, obs, instruments):
    """The plane is live: probe on the session, real metric emission."""
    session = AccessSession(db)
    probe = obs.probe(session)
    session.probe = probe
    start = obs.clock()
    result = algo.run(session, AVERAGE, k)
    outcome, wall, cost, srt, rnd = instruments
    outcome.inc()
    wall.observe(obs.clock() - start)
    stats = result.stats
    cost.observe(stats.middleware_cost)
    srt.inc(stats.sorted_accesses)
    rnd.inc(stats.random_accesses)
    if (
        probe.total_sorted != stats.sorted_accesses
        or probe.total_random != stats.random_accesses
        or probe.total_cost != stats.middleware_cost
    ):
        raise AssertionError(
            "probe totals diverged from AccessStats -- the per-round "
            "profile no longer sums to the engine's own ledger"
        )
    return _signature(result)


def _per_query_instruments(obs):
    """The same handles the query service pre-resolves per query."""
    return (
        obs.counter("repro_queries_finished_total", {"outcome": "ok"}),
        obs.histogram("repro_query_wall_seconds"),
        obs.histogram("repro_query_middleware_cost"),
        obs.counter("repro_sorted_accesses_total"),
        obs.counter("repro_random_accesses_total"),
    )


def run(smoke: bool) -> dict:
    # (algorithm, N, m, k) -- the smoke grid is a strict prefix of the
    # full grid so the regression gate always has shared keys
    grid = [("TA", 2_000, 3, 10)]
    if not smoke:
        grid += [
            ("NRA", 2_000, 3, 10),
            ("SC", 2_000, 3, 10),
            ("TA", 20_000, 4, 10),
            ("NRA", 20_000, 4, 10),
        ]
    repeats = 3 if smoke else 9
    report = {"seed": SEED, "smoke": smoke, "runs": []}
    for name, n, m, k in grid:
        rng = np.random.default_rng(SEED)
        db = ColumnarDatabase.from_array(rng.random((n, m)))
        algo = ALGORITHMS[name]()
        config = f"{name}-N{n}-m{m}-k{k}"

        obs_off = Observability(enabled=False)
        off_instruments = _per_query_instruments(obs_off)
        obs_on = Observability(enabled=True)
        on_instruments = _per_query_instruments(obs_on)

        # interleave the arms inside every repeat and take the min:
        # the arms see the same thermal/cache conditions, and min is
        # the standard noise-rejecting estimator for ratios
        best = {"baseline": float("inf"), "disabled": float("inf"),
                "enabled": float("inf")}
        expected = _arm_baseline(algo, db, k)  # warm-up + reference
        for _ in range(repeats):
            start = time.perf_counter()
            got = _arm_baseline(algo, db, k)
            best["baseline"] = min(
                best["baseline"], time.perf_counter() - start
            )
            if got != expected:
                raise AssertionError(f"baseline arm unstable on {config}")

            start = time.perf_counter()
            got = _arm_disabled(algo, db, k, obs_off, off_instruments)
            best["disabled"] = min(
                best["disabled"], time.perf_counter() - start
            )
            if got != expected:
                raise AssertionError(
                    f"disabled plane perturbed results on {config}"
                )

            start = time.perf_counter()
            got = _arm_enabled(algo, db, k, obs_on, on_instruments)
            best["enabled"] = min(
                best["enabled"], time.perf_counter() - start
            )
            if got != expected:
                raise AssertionError(
                    f"enabled plane perturbed results on {config}"
                )

        entry = {
            "part": "obs",
            "config": config,
            "algorithm": name,
            "N": n,
            "m": m,
            "k": k,
            "repeats": repeats,
            "baseline_seconds": round(best["baseline"], 6),
            "disabled_seconds": round(best["disabled"], 6),
            "enabled_seconds": round(best["enabled"], 6),
            "disabled_overhead": round(
                best["disabled"] / best["baseline"], 4
            ),
            "enabled_overhead": round(
                best["enabled"] / best["baseline"], 4
            ),
        }
        report["runs"].append(entry)
        print(
            f"obs {config:18s} baseline={best['baseline']*1e3:8.3f}ms  "
            f"disabled={entry['disabled_overhead']:6.3f}x  "
            f"enabled={entry['enabled_overhead']:6.3f}x  "
            "(arms bit-identical)"
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
            "run defaults to a .smoke.json suffix instead)"
        ),
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = (
            OUTPUT.with_suffix(".smoke.json") if args.smoke else OUTPUT
        )
    report = run(args.smoke)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
