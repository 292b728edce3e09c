"""Run-to-run spread of the end-to-end metrics, as the acceptance
check measures it.

::

    python3 perfbench/spread.py --workload deep-ram --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (``--trace 0``, the
``run_seconds`` of ``BENCHMARK.json``) and prints, for each end-to-end
metric, the median of the runs and the distance between the first and
third quartile as a share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_iqr  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(last)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
    worst = 0.0
    for name, bound in bounds.items():
        spread = relative_iqr(values[name])
        worst = max(worst, spread / bound)
        print(f"{name:16s} median {statistics.median(values[name]):10.4g}  "
              f"spread {spread:.4f}  bound {bound}  "
              f"({spread / bound:.2f} of bound)")
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
