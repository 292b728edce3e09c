"""Tests of the benchmark's own code: the percentile rule, the self-time
arithmetic, the host-speed windows and the correctness gate.  The
toy-size runs of every workload through the real served path are in
``toy_runs.py``."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.gate import GateReport, Reference, check  # noqa: E402
from perfbench.hostspeed import PAD_S, REFERENCE_S, SlownessTrack  # noqa: E402
from perfbench.loadgen import OpRecord  # noqa: E402
from perfbench.spans import LAYERS, layer_shares, self_times  # noqa: E402
from perfbench.stats import TooFewSamples, percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, make_plan  # noqa: E402


class TestPercentile:
    def test_p90_needs_ten_samples_beyond_it(self):
        with pytest.raises(TooFewSamples):
            percentile(range(99), 90)
        assert percentile(range(1, 101), 90) == 90

    def test_higher_percentiles_need_more_samples(self):
        with pytest.raises(TooFewSamples):
            percentile(range(999), 99)
        assert percentile(range(1, 1001), 99) == 990

    def test_median_of_any_sample(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([1.0, 2.0, 4.0, 8.0], 50) == 3.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(TooFewSamples):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 100)


class TestSelfTimes:
    def test_layers_sum_to_client_wall_time(self):
        row = self_times(client_query=1.0, queued=0.25, running=0.5,
                         engine=0.125)
        assert row == {"wire": 0.25, "queue": 0.25, "access": 0.375,
                       "engine": 0.125}
        assert sum(row.values()) == 1.0

    def test_shares_weight_queries_by_wall_time(self):
        rows = [
            self_times(1.0, 0.0, 0.5, 0.25),
            self_times(3.0, 1.0, 1.0, 0.5),
        ]
        shares = layer_shares(rows)
        assert set(shares) == set(LAYERS)
        assert shares["wire"] == pytest.approx(1.5 / 4.0)
        assert shares["queue"] == pytest.approx(1.0 / 4.0)
        assert shares["access"] == pytest.approx(0.75 / 4.0)
        assert shares["engine"] == pytest.approx(0.75 / 4.0)
        assert sum(shares.values()) == pytest.approx(1.0)


class TestSlownessTrack:
    def test_mean_of_the_padded_window_over_the_reference(self):
        track = SlownessTrack([
            (10.0, REFERENCE_S), (11.0, 2 * REFERENCE_S),
            (12.0, 4 * REFERENCE_S),
        ])
        # a window is widened by PAD_S on each side
        assert track.over(11.0, 11.0) == pytest.approx(2.0)
        assert track.over(11.0 - PAD_S, 11.0 + PAD_S) == pytest.approx(
            (1 + 2 + 4) / 3
        )
        assert track.over(9.0, 11.0) == pytest.approx(1.5)

    def test_an_empty_window_is_refused(self):
        with pytest.raises(RuntimeError):
            SlownessTrack([(10.0, REFERENCE_S)]).over(20.0, 21.0)


#: toy sizes of every workload shape
TOY = {
    "deep-ram": {"n": 300},
    "store-paged": {"n": 3000},
    "read-write": {"n": 300},
}

def _served_as_direct(name):
    """A toy plan's first segment with every query answered by the
    direct engine, as records the gate accepts; writes acknowledged
    one by one with the mirror's versions, reads at the initial
    state."""
    workload = dataclasses.replace(WORKLOADS[name], queries_per_s=0.0,
                                   **TOY[name])
    plan = make_plan(workload, seed=7, seconds=1)
    segment = plan.segments[0]
    reference = Reference(segment.array)
    queries = []
    for i, spec in enumerate(segment.queries):
        result = reference.result(spec)
        stats = result.stats
        queries.append(OpRecord(
            "query", i, ok=True, result=result,
            bill={"sorted_accesses": stats.sorted_accesses,
                  "random_accesses": stats.random_accesses,
                  "middleware_cost": stats.middleware_cost},
        ))
    writes = [
        OpRecord("write", i, ok=True, version=i + 1)
        for i in range(len(segment.writes))
    ]
    return plan, queries, writes


@pytest.mark.parametrize("name", sorted(TOY))
def test_gate_passes_direct_results_and_trips_on_corruption(name):
    plan, queries, writes = _served_as_direct(name)
    segment = plan.segments[0]

    def recheck() -> GateReport:
        return check(Reference(segment.array), segment.array,
                     segment.queries, segment.writes, queries, writes)

    assert recheck().correct
    assert recheck().checked == len(queries)
    record = queries[0]
    good_result, good_bill = record.result, record.bill
    first = good_result.items[0]
    record.result = dataclasses.replace(good_result, items=[
        dataclasses.replace(first, grade=first.grade + 1e-12),
        *good_result.items[1:],
    ])
    gate = recheck()
    assert not gate.correct
    assert gate.mismatches[0].startswith("query 0 ")
    record.result = good_result
    record.bill = dict(good_bill, random_accesses=good_bill[
        "random_accesses"] + 1)
    assert not recheck().correct
    record.bill = good_bill
    if writes:
        writes[0].version += 1
        assert not recheck().correct
        writes[0].version -= 1
        # a read that may have run after a failed write cannot be
        # checked, and fails the gate
        writes[0].ok = False
        record.state_hi = 1
        gate = recheck()
        assert not gate.correct and gate.unchecked == 1
