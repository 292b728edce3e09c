"""The correctness gate: every served answer against a direct engine run.

The reference for a query is ``spec.make_algorithm().run_on`` over a
``ColumnarDatabase`` built from scratch from the same generated grades
(restricted to the spec's lists), with unit costs.  A served result
must equal it bit for bit -- items with their grades and bounds, the
halting reason and the full ``AccessStats`` -- and its bill must
carry the same sorted and random counts and middleware cost.

On the read-write workload a read may have run at any database state
between the writes acknowledged when it was sent and the writes sent
when its answer arrived; it passes if it matches the reference at any
of them.  The benchmark's mirror replays the write stream, and its
version must equal the one the server acknowledged for each write.
A failed write leaves the server's state unknown, so a read that may
have run after it cannot be checked; such a read fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.result import TopKResult
from repro.middleware.database import ColumnarDatabase
from repro.middleware.mutable import MutableColumnarDatabase
from repro.server.service import QuerySpec

from .layers import median_time
from .loadgen import OpRecord
from .workloads import apply_write

__all__ = ["GateReport", "Reference", "check", "spec_key"]


def spec_key(spec: dict) -> str:
    lists = spec.get("lists")
    suffix = "" if lists is None else "@" + ",".join(map(str, lists))
    return f"{spec['algorithm']}/{spec['aggregation']}/{spec['k']}{suffix}"


def _signature(result: TopKResult):
    return (
        tuple(
            (i.obj, i.grade, i.lower_bound, i.upper_bound)
            for i in result.items
        ),
        str(result.halt_reason),
        result.stats,
    )


def _bill_matches(bill: dict | None, result: TopKResult) -> bool:
    stats = result.stats
    return bill is not None and (
        bill["sorted_accesses"], bill["random_accesses"],
        bill["middleware_cost"],
    ) == (stats.sorted_accesses, stats.random_accesses,
          stats.middleware_cost)


class Reference:
    """Direct engine runs over the generated data, memoised per
    (spec, state).  State ``s`` is the database after the first ``s``
    writes of one segment's write stream."""

    def __init__(self, array: np.ndarray):
        self._states: dict[int, ColumnarDatabase] = {
            0: ColumnarDatabase.from_array(array)
        }
        self._restricted: dict[tuple, ColumnarDatabase] = {}
        self._results: dict[tuple[str, int], TopKResult] = {}

    def add_state(self, state: int, db: MutableColumnarDatabase) -> None:
        ids, matrix = db.to_array()
        self._states[state] = ColumnarDatabase.from_array(
            matrix, object_ids=ids
        )

    def has_state(self, state: int) -> bool:
        return state in self._states

    def database(self, spec: dict, state: int = 0) -> ColumnarDatabase:
        lists = spec.get("lists")
        if lists is None:
            return self._states[state]
        key = (tuple(lists), state)
        if key not in self._restricted:
            ids, matrix = self._states[state].to_array()
            self._restricted[key] = ColumnarDatabase.from_array(
                matrix[:, list(lists)], object_ids=ids
            )
        return self._restricted[key]

    def result(self, spec: dict, state: int = 0) -> TopKResult:
        key = (spec_key(spec), state)
        if key not in self._results:
            query = QuerySpec.from_dict(spec)
            self._results[key] = query.make_algorithm().run_on(
                self.database(spec, state), query.make_aggregation(), query.k
            )
        return self._results[key]

    def time_engine(self, spec: dict, state: int = 0) -> float:
        """One warm direct run of ``spec`` at ``state``, seconds."""
        self.result(spec, state)  # builds the backend and warms it
        query = QuerySpec.from_dict(spec)
        db = self.database(spec, state)
        return median_time(
            lambda: query.make_algorithm().run_on(
                db, query.make_aggregation(), query.k
            ),
            repeats=1,
        )


@dataclass
class GateReport:
    checked: int = 0
    unchecked: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: query index -> (spec key, state) of the reference it matched
    matched: dict[int, tuple[str, int]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches


def check(reference: Reference, array: np.ndarray, queries: list[dict],
          writes: list[tuple], query_records: list[OpRecord],
          write_records: list[OpRecord],
          report: GateReport | None = None) -> GateReport:
    """Check every completed query of one pass; returns the report
    (mismatches are described, never raised)."""
    report = report or GateReport()
    # states the mirror can reproduce: up to the first failed write,
    # whose effect on the server is unknown
    known = 0
    if writes:
        mirror = MutableColumnarDatabase.from_array(array)
        for write, record in zip(writes, write_records):
            if not record.ok:
                break
            apply_write(mirror, write)
            known += 1
            if mirror.version != record.version:
                report.mismatches.append(
                    f"write {record.index} {write[0]}: server version "
                    f"{record.version}, mirror {mirror.version}"
                )
            if not reference.has_state(known) and any(
                r.ok and r.state_lo <= known <= r.state_hi
                for r in query_records
            ):
                reference.add_state(known, mirror)
    for record in query_records:
        if not record.ok:
            continue
        spec = queries[record.index]
        if record.state_hi > known:
            report.unchecked += 1
            report.mismatches.append(
                f"query {record.index} {spec_key(spec)} ({record.query_id}):"
                f" not checked: it may have read the database after write"
                f" {known}, which failed"
            )
            continue
        assert record.result is not None
        served = _signature(record.result)
        for state in range(record.state_lo, record.state_hi + 1):
            expected = reference.result(spec, state)
            if served == _signature(expected) and _bill_matches(
                record.bill, expected
            ):
                report.matched[record.index] = (spec_key(spec), state)
                break
        else:
            report.mismatches.append(
                f"query {record.index} {spec_key(spec)} ({record.query_id}):"
                f" served result or bill differs from the direct engine "
                f"at every state {record.state_lo}..{record.state_hi}"
            )
        report.checked += 1
    return report
