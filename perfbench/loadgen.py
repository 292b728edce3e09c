"""Closed-loop clients over the served path.

Each client sends its next operation only after the previous reply:
these are callers that wait for their answer.  Query clients pull from
one shared, seeded query sequence; on the read-write workload one
reader takes the queries and one writer takes the write stream.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.result import TopKResult
from repro.server.client import QueryServiceClient
from repro.server.wire import decode_result

from .spans import SpanLog

__all__ = ["OpRecord", "PassResult", "run_pass", "ping_ms"]

#: server-side hold of one ``result`` long-poll, seconds
POLL_S = 10.0


@dataclass
class OpRecord:
    """One attempted operation of a pass."""

    kind: str  # "query" | "write"
    index: int  # position in its sequence
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    error: str | None = None
    # queries
    query_id: str | None = None
    result: TopKResult | None = None
    bill: dict | None = None
    response: dict | None = None  # raw final reply (traced pass only)
    round_trips: int = 0
    #: writes acknowledged when the query was sent / writes sent when
    #: its answer arrived: the database states it may have read
    state_lo: int = 0
    state_hi: int = 0
    # writes
    version: int | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class PassResult:
    queries: list[OpRecord]
    writes: list[OpRecord]
    elapsed_s: float
    stats_before: dict
    stats_after: dict
    #: ``stats`` snapshots the writer takes just before each write, in
    #: every pass so that traced and untraced passes send the same
    #: operations: the scan cache a write discards is counted
    stats_samples: list[dict] = field(default_factory=list)
    spans: SpanLog = field(default_factory=SpanLog)


class _Shared:
    def __init__(self, queries: list[dict], writes: list[tuple]):
        self.queries = queries
        self.writes = writes
        self.next_query = 0
        self.writes_sent = 0
        self.writes_acked = 0


async def _run_query(client: QueryServiceClient, spec: dict,
                     record: OpRecord, shared: _Shared,
                     spans: SpanLog | None) -> None:
    record.state_lo = shared.writes_acked
    record.start = time.perf_counter()
    query_id = await client.submit_query(spec)
    t_submit = time.perf_counter()
    record.query_id = query_id
    record.round_trips = 1
    polls = []
    while True:
        t_poll = time.perf_counter()
        response = await client.request(
            {"op": "result", "query": query_id, "timeout": POLL_S},
            service="query-service",
        )
        record.round_trips += 1
        polls.append((t_poll, time.perf_counter()))
        if response.get("done"):
            break
    record.result = decode_result(response["result"])
    record.end = time.perf_counter()
    record.state_hi = shared.writes_sent
    record.bill = response.get("bill")
    if spans is not None:
        record.response = response
        spans.add("client.query", query_id, parent=None,
                  start=record.start, end=record.end)
        spans.add("client.submit", query_id, parent="client.query",
                  start=record.start, end=t_submit)
        for start, end in polls:
            spans.add("client.result", query_id, parent="client.query",
                      start=start, end=end)
        trace = await client.query_trace(query_id)
        for span in (trace or {}).get("spans", ()):
            if span["end"] is not None:
                spans.add(span["name"], query_id, parent="client.query",
                          duration=span["end"] - span["start"])
    record.ok = True


async def _query_client(client: QueryServiceClient, shared: _Shared,
                        records: list[OpRecord],
                        spans: SpanLog | None) -> None:
    while shared.next_query < len(shared.queries):
        index = shared.next_query
        shared.next_query += 1
        record = records[index]
        try:
            await _run_query(client, shared.queries[index], record, shared,
                             spans)
        except Exception as exc:  # the run goes on; the op counts failed
            record.end = record.end or time.perf_counter()
            record.error = repr(exc)


async def _writer(client: QueryServiceClient, shared: _Shared,
                  records: list[OpRecord],
                  samples: list[dict]) -> None:
    for index, write in enumerate(shared.writes):
        record = records[index]
        samples.append(await client.service_stats())
        record.start = time.perf_counter()
        shared.writes_sent += 1
        try:
            if write[0] == "update":
                reply = await client.update_grade(write[1], write[2], write[3])
            elif write[0] == "insert":
                reply = await client.insert(write[1], write[2])
            else:
                reply = await client.delete(write[1])
        except Exception as exc:  # the run goes on; the op counts failed
            record.end = time.perf_counter()
            record.error = repr(exc)
            continue
        record.end = time.perf_counter()
        record.version = reply["version"]
        record.ok = True
        shared.writes_acked = index + 1


async def _run_pass(host: str, port: int, queries: list[dict],
                    writes: list[tuple], clients: int, traced: bool,
                    deadline_s: float) -> PassResult:
    shared = _Shared(queries, writes)
    query_records = [OpRecord("query", i) for i in range(len(queries))]
    write_records = [OpRecord("write", i) for i in range(len(writes))]
    spans = SpanLog() if traced else None
    samples: list[dict] = []
    conns = [
        QueryServiceClient(host, port, request_timeout=POLL_S + 30.0)
        for _ in range(clients + (1 if writes else 0))
    ]
    try:
        stats_before = await conns[0].service_stats()
        jobs = [
            _query_client(conn, shared, query_records, spans)
            for conn in conns[:clients]
        ]
        if writes:
            jobs.append(_writer(conns[-1], shared, write_records, samples))
        t0 = time.perf_counter()
        tasks = [asyncio.ensure_future(job) for job in jobs]
        done, pending = await asyncio.wait(tasks, timeout=deadline_s)
        elapsed = time.perf_counter() - t0
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for task in done:
            task.result()
        # an operation the deadline cut off, or never reached, timed out
        for record in query_records + write_records:
            if not record.ok and record.error is None:
                record.error = "timed out"
        stats_after = await conns[0].service_stats()
    finally:
        for conn in conns:
            await conn.aclose()
    return PassResult(
        queries=query_records,
        writes=write_records,
        elapsed_s=elapsed,
        stats_before=stats_before,
        stats_after=stats_after,
        stats_samples=samples,
        spans=spans or SpanLog(),
    )


def run_pass(host: str, port: int, queries: list[dict], writes: list[tuple],
             *, clients: int, traced: bool, deadline_s: float) -> PassResult:
    """Drive one pass of the sequence against ``host:port``; operations
    still open at ``deadline_s`` are cancelled and count as failed."""
    return asyncio.run(
        _run_pass(host, port, queries, writes, clients, traced, deadline_s)
    )


async def _ping_ms(host: str, port: int, count: int) -> list[float]:
    client = QueryServiceClient(host, port)
    try:
        await client.request({"op": "ping"}, service="query-service")
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            await client.request({"op": "ping"}, service="query-service")
            times.append((time.perf_counter() - t0) * 1000.0)
        return times
    finally:
        await client.aclose()


def ping_ms(host: str, port: int, count: int = 200) -> list[float]:
    """Round trips of the ``ping`` op on an idle server, ms."""
    return asyncio.run(_ping_ms(host, port, count))
