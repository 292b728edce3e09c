"""Live-view maintenance benchmark: certified-incremental vs recompute.

``views`` runs one mutation stream -- mostly below-window updates with
a trickle of inserts, deletes and hot updates, the shape of a ranking
feed where the long tail churns constantly -- against the same
standing top-k query, two ways:

* the **incremental** arm attaches a
  :class:`~repro.views.LiveView`: every mutation is screened against
  the view's bound certificate (the exact overall grade of its weakest
  member) and the engine re-runs only when the certificate is
  invalidated;
* the **recompute** arm re-runs the same engine from scratch after
  every mutation -- the naive continuous-query baseline.

Both arms apply the identical mutation sequence to identical initial
databases, and the incremental arm's result is verified after every
mutation prefix to equal the database's canonical top-k (the same
check the stateful hypothesis suite enforces); at the end both arms
must agree exactly.  The headline number is ``speedup`` = recompute
wall seconds / incremental wall seconds; ``refresh_fraction`` (engine
runs per mutation in the incremental arm) rides along and is the
mechanism: the certificate screens out the overwhelming majority of
mutations for O(m) aggregate evaluation each.

The committed full run must hold >= 5x on every configuration,
enforced by the ``views`` row of ``check_bench_regression.py``, which
also gates CI smoke runs against the committed speedups.  Run directly::

    PYTHONPATH=src python benchmarks/bench_views.py           # full
    PYTHONPATH=src python benchmarks/bench_views.py --smoke   # CI
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
from repro.core import ThresholdAlgorithm  # noqa: E402
from repro.middleware import MutableColumnarDatabase  # noqa: E402
from repro.views import LiveView  # noqa: E402

SEED = 20260808
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_views.json"


def _mutation_stream(rng: np.random.Generator, n: int, m: int, steps: int):
    """One reproducible stream of (action, payload) tuples.

    85% tail updates (uniform grades: overwhelmingly below a top-10
    window over ``n`` uniform rows), 5% hot updates near the top of the
    grade range (these invalidate certificates), 5% inserts, 5%
    deletes.  Object choices are made against the *evolving* id space,
    so the stream is generated lazily by :func:`_apply`.
    """
    actions = rng.choice(
        ["update", "hot", "insert", "delete"],
        size=steps,
        p=[0.85, 0.05, 0.05, 0.05],
    )
    picks = rng.random(steps)
    lists = rng.integers(0, m, size=steps)
    grades = rng.random((steps, m))
    return list(zip(actions.tolist(), picks.tolist(),
                    lists.tolist(), grades.tolist()))


def _apply(db, stream, after_each=None):
    """Apply the stream to ``db``; ``after_each()`` (when given) runs
    after every mutation -- the recompute arm's engine run goes here.

    The live id list is mirrored locally so target selection stays O(1)
    inside the timed loop (both arms run the identical sequence)."""
    ids = list(db.objects)
    next_id = 0
    for action, pick, list_index, grade_row in stream:
        n = len(ids)
        if action == "insert" or n < 3:
            next_id += 1
            obj = f"new-{next_id}"
            db.insert(obj, tuple(grade_row))
            ids.append(obj)
        elif action == "delete":
            db.delete(ids.pop(int(pick * n) % n))
        elif action == "hot":
            db.update_grade(
                ids[int(pick * n) % n],
                list_index,
                0.9 + grade_row[0] / 10.0,
            )
        else:
            db.update_grade(
                ids[int(pick * n) % n], list_index, grade_row[0]
            )
        if after_each is not None:
            after_each()


def _check(view, db, k):
    want = db.top_k(AVERAGE, min(k, db.num_objects))
    got = [(item.obj, item.grade) for item in view.items]
    if got != [(obj, g) for obj, g in want]:
        raise AssertionError(
            "incremental view diverged from the canonical top-k"
        )


def run(smoke: bool) -> dict:
    # (N, m, k, mutations) -- the smoke grid is a strict prefix of the
    # full grid so the regression gate always has shared keys
    grid = [(2_000, 3, 10, 300)]
    if not smoke:
        grid.append((20_000, 3, 10, 1_500))
    report = {"seed": SEED, "smoke": smoke, "runs": []}
    for n, m, k, steps in grid:
        rng = np.random.default_rng(SEED)
        matrix = rng.random((n, m))
        stream = _mutation_stream(rng, n, m, steps)
        config = f"N{n}-m{m}-k{k}-M{steps}"

        # --- incremental arm: one LiveView, certificate-screened ---
        db_inc = MutableColumnarDatabase.from_array(matrix.copy())
        view = LiveView(db_inc, ThresholdAlgorithm, AVERAGE, k)
        start = time.perf_counter()
        _apply(db_inc, stream)
        incremental_s = time.perf_counter() - start
        _check(view, db_inc, k)  # exact, after the whole stream

        # --- recompute arm: fresh engine run after every mutation ---
        db_re = MutableColumnarDatabase.from_array(matrix.copy())
        last = {"result": None}

        def recompute():
            last["result"] = ThresholdAlgorithm().run_on(
                db_re, AVERAGE, min(k, db_re.num_objects)
            )

        start = time.perf_counter()
        _apply(db_re, stream, after_each=recompute)
        recompute_s = time.perf_counter() - start

        # the arms end bit-identical (uniform grades: no overall ties,
        # so the engine's set/order equals the canonical one)
        final = [
            (item.obj, item.grade) for item in last["result"].items
        ]
        if final != [(it.obj, it.grade) for it in view.items]:
            raise AssertionError(
                f"arms diverged on {config}: the naive recompute and "
                "the certified view must agree exactly"
            )

        entry = {
            "part": "views",
            "config": config,
            "N": n,
            "m": m,
            "k": k,
            "mutations": steps,
            "incremental_seconds": round(incremental_s, 6),
            "recompute_seconds": round(recompute_s, 6),
            "speedup": round(recompute_s / incremental_s, 3),
            "refreshes": view.refreshes,
            "refresh_fraction": round(
                view.refreshes / max(1, view.mutations_seen), 5
            ),
            "events_emitted": view.events_emitted,
        }
        report["runs"].append(entry)
        print(
            f"views {config:24s} incremental={incremental_s:7.3f}s "
            f"recompute={recompute_s:7.3f}s  "
            f"speedup={entry['speedup']:7.2f}x  "
            f"refreshes={view.refreshes}/{view.mutations_seen} "
            "(final states bit-identical)"
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
            "run defaults to BENCH_views.smoke.json)"
        ),
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = (
            OUTPUT.with_suffix(".smoke.json") if args.smoke else OUTPUT
        )
    report = run(smoke=args.smoke)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
