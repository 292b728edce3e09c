"""Bench regression gate: hold every committed ``BENCH_<name>.json``
baseline and the fresh ``BENCH_<name>.smoke.json`` beside it to the
bars in :data:`GATES`.

Run after the smoke benchmarks; the script takes no arguments::

    python benchmarks/check_bench_regression.py

Each row of :data:`GATES` names a report, one of four rules, and that
rule's bars:

``ratio`` (backend)
    speedup (scalar seconds / columnar seconds) is a within-machine
    ratio, so it compares across hardware where seconds do not.  On
    every (algorithm, N, m) configuration both files share,
    ``baseline speedup / smoke speedup <= tolerance``: the columnar
    engine may not lose more than ``tolerance``x of its advantage.
``speedup`` (async, transport, resilience, server, views)
    every committed run shows ``speedup >= min`` (the subsystem's
    acceptance bar), and on every shared (part, config) the smoke run
    keeps ``baseline / smoke <= tolerance`` and ``smoke >= floor``.
``overhead`` (obs)
    overhead ratios (instrumented / uninstrumented seconds), lower is
    better: every committed run keeps ``disabled_overhead <=
    max_disabled`` and ``enabled_overhead <= max_enabled``; the smoke
    run gets the same ceilings times ``smoke_slack`` (sub-millisecond
    CI timings are noisy).
``residency`` (store)
    every run of both files kept its query phase's resident growth
    within its own recorded ``rss_budget_bytes`` with bit-identical
    results, and the committed baseline holds at least one genuinely
    out-of-core run: ``>= min_rows`` rows at ``headroom`` (store bytes /
    resident delta) ``>= min_headroom``.  CI cannot rebuild a ~1 GiB
    dataset, so no overlap with the committed grid is required.

A missing baseline or smoke file fails the gate (exit 1), as does any
bar; a smoke grid sharing no configuration with its baseline exits 2
(a miswired grid should fail loudly, not pass silently).  The first
failing gate's status is the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (report, rule, bars): ``BENCH_<report>.json`` is the committed
#: baseline, ``BENCH_<report>.smoke.json`` the fresh smoke run
GATES: list[tuple[str, str, dict]] = [
    ("backend", "ratio", {"tolerance": 2.0}),
    ("async", "speedup", {"tolerance": 2.0, "min": 2.0, "floor": 1.2}),
    ("transport", "speedup", {"tolerance": 2.0, "min": 2.0, "floor": 1.2}),
    ("resilience", "speedup", {"tolerance": 2.0, "min": 1.5, "floor": 1.2}),
    ("server", "speedup", {"tolerance": 2.0, "min": 1.5, "floor": 1.2}),
    ("views", "speedup", {"tolerance": 2.0, "min": 5.0, "floor": 5.0}),
    (
        "obs",
        "overhead",
        {"max_disabled": 1.02, "max_enabled": 1.10, "smoke_slack": 3.0},
    ),
    ("store", "residency", {"min_rows": 10_000_000, "min_headroom": 2.0}),
]


class NoOverlap(Exception):
    """The smoke grid shares no configuration with the baseline."""


def _by_key(report: dict, fields: tuple[str, ...]) -> dict[tuple, dict]:
    return {tuple(run[f] for f in fields): run for run in report["runs"]}


def _shared(baseline: dict, smoke: dict) -> list[tuple]:
    shared = sorted(set(baseline) & set(smoke))
    if not shared:
        raise NoOverlap
    return shared


def _ratio(base: float, smoke: float) -> float:
    return base / smoke if smoke > 0 else float("inf")


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def ratio_rule(name: str, baseline: dict, smoke: dict, bars: dict) -> list:
    base = _by_key(baseline, ("algorithm", "N", "m"))
    fresh = _by_key(smoke, ("algorithm", "N", "m"))
    failures = []
    for key in _shared(base, fresh):
        algorithm, n, m = key
        ratio = _ratio(base[key]["speedup"], fresh[key]["speedup"])
        ok = ratio <= bars["tolerance"]
        print(
            f"{name} {algorithm:13s} N={n:>7d} m={m}: baseline "
            f"{base[key]['speedup']:6.2f}x smoke {fresh[key]['speedup']:6.2f}x"
            f"  ratio={ratio:5.2f} (<= {bars['tolerance']:g})  {_verdict(ok)}"
        )
        if not ok:
            failures.append(f"{algorithm} (N={n}, m={m}) lost {ratio:.2f}x")
    return failures


def speedup_rule(name: str, baseline: dict, smoke: dict, bars: dict) -> list:
    base = _by_key(baseline, ("part", "config"))
    fresh = _by_key(smoke, ("part", "config"))
    failures = []
    for (part, config), run in sorted(base.items()):
        ok = run["speedup"] >= bars["min"]
        print(
            f"{name} baseline {part:8s} {config:30s} "
            f"speedup={run['speedup']:6.2f}x (>= {bars['min']:g})  "
            f"{_verdict(ok)}"
        )
        if not ok:
            failures.append(f"{part}/{config} baseline below the bar")
    for key in _shared(base, fresh):
        part, config = key
        speedup = fresh[key]["speedup"]
        ratio = _ratio(base[key]["speedup"], speedup)
        ok = ratio <= bars["tolerance"] and speedup >= bars["floor"]
        print(
            f"{name} smoke    {part:8s} {config:30s} "
            f"baseline {base[key]['speedup']:6.2f}x smoke {speedup:6.2f}x "
            f"ratio={ratio:5.2f} floor={bars['floor']:g}  {_verdict(ok)}"
        )
        if not ok:
            failures.append(f"{part}/{config} smoke regressed")
    return failures


def overhead_rule(name: str, baseline: dict, smoke: dict, bars: dict) -> list:
    base = _by_key(baseline, ("part", "config"))
    fresh = _by_key(smoke, ("part", "config"))
    _shared(base, fresh)
    failures = []
    for arm, runs, slack in (
        ("baseline", base, 1.0),
        ("smoke", fresh, bars["smoke_slack"]),
    ):
        max_disabled = bars["max_disabled"] * slack
        max_enabled = bars["max_enabled"] * slack
        for (part, config), run in sorted(runs.items()):
            disabled_ok = run["disabled_overhead"] <= max_disabled
            enabled_ok = run["enabled_overhead"] <= max_enabled
            print(
                f"{name} {arm:8s} {part:8s} {config:22s} "
                f"disabled={run['disabled_overhead']:6.3f}x "
                f"(<= {max_disabled:.3f})  "
                f"enabled={run['enabled_overhead']:6.3f}x "
                f"(<= {max_enabled:.3f})  "
                f"{_verdict(disabled_ok and enabled_ok)}"
            )
            if not disabled_ok:
                failures.append(f"{part}/{config} {arm} disabled overhead")
            if not enabled_ok:
                failures.append(f"{part}/{config} {arm} enabled overhead")
    return failures


def residency_rule(
    name: str, baseline: dict, smoke: dict, bars: dict
) -> list:
    failures = []
    for arm, report in (("baseline", baseline), ("smoke", smoke)):
        for run in report["runs"]:
            delta, budget = run["resident_delta_bytes"], run["rss_budget_bytes"]
            ok = run["ok"] and run["results_match"] and delta <= budget
            print(
                f"{name} {arm:8s} {run['config']:22s} "
                f"disk={run['store_bytes'] / 2**20:8.1f}MiB "
                f"resident-delta={delta / 2**20:7.1f}MiB "
                f"(<= {budget / 2**20:.0f}MiB)  "
                f"headroom={run['headroom']:8.2f}x  {_verdict(ok)}"
            )
            if not ok:
                failures.append(f"{arm}/{run['config']} residency or results")
    if not any(
        run["rows"] >= bars["min_rows"]
        and run["headroom"] >= bars["min_headroom"]
        for run in baseline["runs"]
    ):
        failures.append(
            f"no committed run with >= {bars['min_rows']:,} rows and "
            f"headroom >= {bars['min_headroom']:g}x (the out-of-core bar)"
        )
    return failures


RULES = {
    "ratio": ratio_rule,
    "speedup": speedup_rule,
    "overhead": overhead_rule,
    "residency": residency_rule,
}


def check_gate(root: Path, name: str, rule: str, bars: dict) -> int:
    """Run one gate; returns its exit status (0 pass, 1 fail, 2 no
    overlap)."""
    paths = [root / f"BENCH_{name}.json", root / f"BENCH_{name}.smoke.json"]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(
            f"{name} bench gate: FAIL, missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    baseline, smoke = (json.loads(path.read_text()) for path in paths)
    try:
        failures = RULES[rule](name, baseline, smoke, bars)
    except NoOverlap:
        print(
            f"{name} bench gate: no configuration is shared between "
            f"{paths[0]} and {paths[1]}; the smoke grid must overlap the "
            "committed grid",
            file=sys.stderr,
        )
        return 2
    if failures:
        print(
            f"{name} bench gate: {len(failures)} failure(s): "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(f"{name} bench gate: all checks passed")
    return 0


def check_all(root: Path = REPO_ROOT) -> int:
    status = 0
    for name, rule, bars in GATES:
        code = check_gate(root, name, rule, bars)
        status = status or code
    return status


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args(argv)
    return check_all()


if __name__ == "__main__":
    raise SystemExit(main())
