"""The table-driven bench regression gate
(``benchmarks/check_bench_regression.py``): toy reports that pass and
fail each rule, the exit statuses, and the bar values themselves."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def test_bars_are_pinned():
    assert gate.GATES == [
        ("backend", "ratio", {"tolerance": 2.0}),
        ("async", "speedup", {"tolerance": 2.0, "min": 2.0, "floor": 1.2}),
        ("transport", "speedup",
         {"tolerance": 2.0, "min": 2.0, "floor": 1.2}),
        ("resilience", "speedup",
         {"tolerance": 2.0, "min": 1.5, "floor": 1.2}),
        ("server", "speedup", {"tolerance": 2.0, "min": 1.5, "floor": 1.2}),
        ("views", "speedup", {"tolerance": 2.0, "min": 5.0, "floor": 5.0}),
        ("obs", "overhead",
         {"max_disabled": 1.02, "max_enabled": 1.10, "smoke_slack": 3.0}),
        ("store", "residency",
         {"min_rows": 10_000_000, "min_headroom": 2.0}),
    ]


def test_script_takes_no_flags():
    with pytest.raises(SystemExit) as exc:
        gate.main(["--tolerance", "2.0"])
    assert exc.value.code == 2


def _speedup_report(speedup):
    return {"runs": [{"part": "p", "config": "c", "speedup": speedup}]}


def _passing_reports():
    """(baseline, smoke) per gate, each comfortably inside its bars."""
    store_run = {
        "config": "c", "rows": 10_000_000, "headroom": 3.0,
        "store_bytes": 2**30, "resident_delta_bytes": 2**20,
        "rss_budget_bytes": 2**28, "ok": True, "results_match": True,
    }
    backend = {"algorithm": "TA", "N": 1000, "m": 3, "speedup": 10.0}
    obs = {"part": "p", "config": "c",
           "disabled_overhead": 1.0, "enabled_overhead": 1.05}
    reports = {"backend": ({"runs": [backend]}, {"runs": [dict(backend)]}),
               "obs": ({"runs": [obs]}, {"runs": [dict(obs)]}),
               "store": ({"runs": [store_run]},
                         {"runs": [dict(store_run, rows=1000)]})}
    for name in ("async", "transport", "resilience", "server", "views"):
        reports[name] = (_speedup_report(6.0), _speedup_report(5.5))
    return reports


def _write(root: Path, reports) -> None:
    for name, (baseline, smoke) in reports.items():
        (root / f"BENCH_{name}.json").write_text(json.dumps(baseline))
        (root / f"BENCH_{name}.smoke.json").write_text(json.dumps(smoke))


def test_passing_reports_pass(tmp_path):
    _write(tmp_path, _passing_reports())
    assert gate.check_all(tmp_path) == 0


def _runs(reports, name, arm):
    return reports[name][0 if arm == "baseline" else 1]["runs"]


FAILING_EDITS = {
    # ratio: the smoke run lost more than 2x of the committed speedup
    "backend-ratio": ("backend", "smoke", {"speedup": 4.9}),
    # speedup: baseline below its acceptance bar
    "async-min": ("async", "baseline", {"speedup": 1.9}),
    "transport-min": ("transport", "baseline", {"speedup": 1.9}),
    "resilience-min": ("resilience", "baseline", {"speedup": 1.4}),
    "server-min": ("server", "baseline", {"speedup": 1.4}),
    "views-min": ("views", "baseline", {"speedup": 4.9}),
    # speedup: smoke under its floor / beyond the tolerance ratio
    "async-floor": ("async", "smoke", {"speedup": 1.1}),
    "views-floor": ("views", "smoke", {"speedup": 4.9}),
    "server-tolerance": ("server", "smoke", {"speedup": 2.9}),  # 6/2.9
    # overhead: committed ceilings, and the smoke ceilings x3
    "obs-disabled": ("obs", "baseline", {"disabled_overhead": 1.03}),
    "obs-enabled": ("obs", "baseline", {"enabled_overhead": 1.11}),
    "obs-smoke-enabled": ("obs", "smoke", {"enabled_overhead": 3.31}),
    # residency: over budget, wrong results, and no run at scale
    "store-budget": ("store", "smoke", {"resident_delta_bytes": 2**29}),
    "store-results": ("store", "baseline", {"results_match": False}),
    "store-rows": ("store", "baseline", {"rows": 9_999_999}),
    "store-headroom": ("store", "baseline", {"headroom": 1.9}),
}


@pytest.mark.parametrize("case", sorted(FAILING_EDITS))
def test_each_bar_fails_when_crossed(tmp_path, case):
    name, arm, edit = FAILING_EDITS[case]
    reports = _passing_reports()
    _runs(reports, name, arm)[0].update(edit)
    _write(tmp_path, reports)
    assert gate.check_all(tmp_path) == 1


def test_slack_applies_only_to_the_smoke_run(tmp_path):
    reports = _passing_reports()
    _runs(reports, "obs", "smoke")[0]["enabled_overhead"] = 3.2
    _write(tmp_path, reports)
    assert gate.check_all(tmp_path) == 0


@pytest.mark.parametrize("name", ["backend", "async", "obs"])
def test_no_overlap_exits_2(tmp_path, name):
    reports = _passing_reports()
    run = _runs(reports, name, "smoke")[0]
    if "config" in run:
        run["config"] = "not-in-the-baseline"
    else:
        run["N"] = 12345
    _write(tmp_path, reports)
    assert gate.check_all(tmp_path) == 2


@pytest.mark.parametrize("suffix", [".smoke.json", ".json"])
def test_missing_report_fails(tmp_path, suffix):
    _write(tmp_path, _passing_reports())
    (tmp_path / f"BENCH_views{suffix}").unlink()
    assert gate.check_all(tmp_path) == 1
