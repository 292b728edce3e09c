"""Toy-size runs of every workload through the real served path.

::

    PYTHONPATH=src python -m pytest perfbench/tests/toy_runs.py

Each run starts servers and keeps both CPUs busy for several seconds,
so the file is named to stay out of the default ``pytest``
collection: right after that much CPU work, the suite's own
socket-load test (``tests/test_server.py``) ran far past its 60 s
guard.  Each run happens in a child process, so the servers, threads
and event loops it starts never share a process with the tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.bench import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tests.test_perfbench import TOY  # noqa: E402
from perfbench.workloads import MIN_QUERIES  # noqa: E402

#: one toy run in a child process, so the servers, threads and event
#: loops it starts never share a process with the rest of the suite
_TOY_RUN = """
import dataclasses, json, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root)]
from perfbench.bench import END_TO_END, PER_LAYER, run_workload
from perfbench.workloads import WORKLOADS
name, toy = sys.argv[2], json.loads(sys.argv[3])
workload = dataclasses.replace(WORKLOADS[name], queries_per_s=0.0, **toy)
with tempfile.TemporaryDirectory() as out:
    report = run_workload(workload, seed=7, seconds=1, trace=True,
                          root=root, out_root=Path(out))
print(json.dumps({
    "report": {**report.as_json(END_TO_END),
               "metrics": report.as_json({**END_TO_END, **PER_LAYER})[
                   "metrics"]},
    "mismatches": report.mismatches,
    "share_sum": report.info.get("trace", {}).get("share_sum"),
}))
"""


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_run_reports_every_metric_with_its_unit(name):
    proc = subprocess.run(
        [sys.executable, "-c", _TOY_RUN, str(ROOT), name,
         json.dumps(TOY[name])],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    report = out["report"]
    assert report["correct"], out["mismatches"]
    assert report["failed"] == 0
    assert report["attempted"] >= 2 * MIN_QUERIES
    metrics = report["metrics"]
    assert set(metrics) == set(END_TO_END) | set(PER_LAYER)
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], float)
    assert out["share_sum"] == pytest.approx(1.0)
    assert metrics["qps"]["value"] > 0
    assert metrics["setup_s"]["value"] > 0
    assert (metrics["rss_peak_mib"]["value"]
            >= metrics["rss_ready_mib"]["value"])
