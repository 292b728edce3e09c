"""Run one workload of the served-path benchmark.

::

    python3 perfbench/run.py --workload deep-ram --seed 1 --seconds 20 --trace 0

Prints the run's report (environment, correctness gate, every metric
with its unit; timed end-to-end metrics host-normalised, with the raw
value beside them) and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exits 1 when a served result or bill differs from
the direct engine, 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _terminate(signum, frame):
    # unwind through every ``finally`` so child servers are reaped
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import END_TO_END, PER_LAYER, run_workload
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    report = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), ROOT,
        ROOT / "perfbench" / "out",
    )
    info = report.info
    print(f"workload {report.workload} seed {report.seed}")
    print("env " + json.dumps(info["env"], sort_keys=True))
    print(f"gate checked={info['gate']['checked']} "
          f"unchecked={info['gate']['unchecked']} "
          f"mismatches={info['gate']['mismatches']}")
    for line in report.mismatches[:20]:
        print("  MISMATCH " + line)
    print(f"operations queries={info['queries']} writes={info['writes']} "
          f"attempted={report.attempted} failed={report.failed} "
          f"failed_frac={info['failed_frac']:.4f}")
    for name in ("writes_per_s", "write_p50_ms", "write_p90_ms"):
        if name in info:
            print(f"  {name} {info[name]:.4f}")
    names = PER_LAYER if args.trace else END_TO_END
    shown = dict(END_TO_END)
    if args.trace and report.correct:
        shown.update(PER_LAYER)
        trace = info["trace"]
        print(f"traced: self-time shares sum to {trace['share_sum']:.12f} "
              f"of client wall {trace['client_query_s']:.3f} s; qps "
              f"untraced {trace['untraced_qps']:.3f} traced "
              f"{trace['traced_qps']:.3f}")
    raw = info["end_to_end_raw"]
    for name, unit in shown.items():
        line = f"  {name} {report.metrics[name]:.6g} {unit}"
        if name in raw and raw[name] != report.metrics[name]:
            line += f" (raw {raw[name]:.6g}, before host normalisation)"
        print(line)
    if not report.correct:
        print(json.dumps({"correct": False, "attempted": report.attempted,
                          "failed": report.failed, "metrics": {}}))
        return 1
    print(json.dumps(report.as_json(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
