"""One benchmark run: generate, serve, load, check, measure, report.

A pass serves the plan's segments in turn, each on a freshly spawned
server, while a speed probe samples the server's CPU (see
:mod:`perfbench.hostspeed`).  The end-to-end times are reported
host-normalised: each raw time is divided by the probe's slowness over
the stretch it was measured in (one operation, a server's start-up, a
segment's load) and ``qps`` is multiplied by it, so they read as on
the reference host and a change of the host's own speed does not move
them.  The raw values are in the report next to them.

``--trace 0`` reports the end-to-end metrics of one untraced pass.
``--trace 1`` runs an untraced pass, then the same seeded plan again
with client spans and the server's ``trace`` op, then times each
layer's public functions in-process, and reports the per-layer metrics
(the difference between the two passes' throughput is the tracing
overhead).  Its plan is sized for half of ``--seconds``, so that the
two passes together take about as long as one untraced run.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.middleware.database import ColumnarDatabase
from repro.middleware.mutable import MutableColumnarDatabase
from repro.store import save_store

from . import layers
from .gate import GateReport, Reference, check
from .hostspeed import SlownessTrack, SpeedProbe
from .loadgen import PassResult, ping_ms, run_pass
from .serve_ram import BATCH_SIZE, MAX_ACTIVE, MAX_QUEUED, READAHEAD_PAGES
from .server_proc import ServerProcess
from .spans import LAYERS, layer_shares, self_times
from .stats import percentile
from .workloads import (
    PAGE_ROWS,
    STORE_CACHE_MB,
    Workload,
    make_plan,
    write_stream,
)

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "ENGINES",
    "RunReport",
    "run_workload",
]

ENGINES = ("ta", "nra", "ca", "stream-combine")
MIB = 1024 * 1024


def split_cpus() -> tuple[set[int], set[int]]:
    """The server's CPU and the load generator's CPUs.

    The server is pinned to one CPU and the load generator to the
    rest.  Unpinned on two CPUs, the server's event-loop thread and its
    engine threads hand the interpreter lock back and forth across
    cores and a deep-ram run slows about tenfold, by an amount that
    changes from run to run; pinned, the two processes never compete
    for a core and runs repeat.
    """
    cpus = sorted(os.sched_getaffinity(0))
    server = {cpus[0]}
    return server, (set(cpus[1:]) or server)


#: seconds a whole run may take before its remaining operations are cut
#: off and counted as timed out (the process must exit within 180 s)
RUN_BUDGET_S = 165.0

END_TO_END = {
    "qps": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "rss_peak_mib": "MiB",
    "cost_per_query": "cost",
}

PER_LAYER = {
    "wire.ping_ms": "ms",
    "wire.round_trips_per_query": "count",
    "wire.self_ms_p50": "ms",
    "wire.codec_us_per_query": "us",
    "service.start_s": "s",
    "service.queued_ms_p50": "ms",
    "service.queued_ms_p90": "ms",
    "service.running_ms_p50": "ms",
    "service.mutate_ms_p50": "ms",
    "services.build_s": "s",
    "scancache.useful_ratio": "ratio",
    **{f"served_direct.{e}": "ratio" for e in ENGINES},
    **{f"engine.{e}_ms": "ms" for e in ENGINES},
    "access.sorted_per_query": "count",
    "access.random_per_query": "count",
    "store.open_s": "s",
    "store.hit_ratio": "ratio",
    "store.lookups_per_query": "count",
    "store.misses_per_query": "count",
    "store.evictions_per_query": "count",
    "store.engine_ta_ms": "ms",
    "store.mapped_mib": "MiB",
    "mutable.write_us_p50": "us",
    "rss_ready_mib": "MiB",
    **{f"trace.{layer}_share": "ratio" for layer in LAYERS},
    "trace.overhead": "ratio",
}

#: direct writes timed for ``mutable.write_us_p50`` / through the
#: embedded service for ``service.mutate_ms_p50``
RAW_WRITES = 200
SERVICE_WRITES = 10
#: repeats of each engine probe for engines a workload's mix lacks
PROBE_REPEATS = 3


@dataclass
class RunReport:
    workload: str
    seed: int
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    info: dict
    mismatches: list[str]
    #: the recorded passes, kept for inspection (e.g. by the tests)
    passes: dict

    def as_json(self, names: dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in names.items()
            },
        }


class _Run:
    """State shared by the steps of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 root: Path, out: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.out = out
        self.t_start = time.perf_counter()
        self.plan = make_plan(workload, seed, seconds)
        # the file each segment's server is handed
        self.data: list[Path] = []
        for i, segment in enumerate(self.plan.segments):
            if workload.server == "store":
                path = out / f"data{i}.store"
                save_store(ColumnarDatabase.from_array(segment.array), path)
            else:
                path = out / f"data{i}.npy"
                np.save(path, segment.array)
            self.data.append(path)
        self.server_cpus, self.loadgen_cpus = split_cpus()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get(
            "PYTHONPATH", ""
        )

    def argv(self, segment: int) -> list[str]:
        w = self.workload
        if w.server == "store":
            return [
                sys.executable, "-m", "repro.server",
                "--store", str(self.data[segment]), "--port", "0",
                "--store-cache-mb", str(STORE_CACHE_MB),
                "--store-page-rows", str(PAGE_ROWS),
                "--max-active", str(MAX_ACTIVE),
                "--max-queued", str(MAX_QUEUED),
                "--batch-size", str(BATCH_SIZE),
                "--readahead-pages", str(READAHEAD_PAGES),
            ]
        argv = [
            sys.executable, str(Path(__file__).with_name("serve_ram.py")),
            str(self.data[segment]),
        ]
        if w.server == "mutable":
            argv.append("--mutable")
        return argv

    def spawn(self, segment: int) -> ServerProcess:
        return ServerProcess(
            self.argv(segment), env=self.env, cwd=self.root,
            log_path=self.out / "server.log", cpus=self.server_cpus,
        ).start()

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def backend(self):
        """A fresh in-process copy of the backend the first segment's
        server serves."""
        w = self.workload
        if w.server == "store":
            return layers.open_paged(self.data[0])
        array = self.plan.segments[0].array
        if w.server == "mutable":
            return MutableColumnarDatabase.from_array(array)
        return ColumnarDatabase.from_array(array)


@dataclass
class _Served:
    """One pass over the plan: a fresh server process per segment."""

    results: list[PassResult]
    setups: list[float]
    rss_peak_mib: float  # the highest VmHWM of the segment servers
    rss_ready_mib: float  # median VmRSS at ``LISTENING``
    pings: list[float]
    probes: PassResult | None  # on the last segment's server, traced only
    #: the server CPU's speed probe over the pass
    track: SlownessTrack
    #: host slowness while each segment's load ran / each server started
    load_slowness: list[float]
    setup_slowness: list[float]

    @property
    def elapsed_s(self) -> float:
        return sum(r.elapsed_s for r in self.results)

    @property
    def normalised_elapsed_s(self) -> float:
        return sum(
            r.elapsed_s / slow
            for r, slow in zip(self.results, self.load_slowness)
        )

    @property
    def queries(self):
        return [q for r in self.results for q in r.queries]

    @property
    def writes(self):
        return [w for r in self.results for w in r.writes]


def _served_pass(run: _Run, *, traced: bool, deadline_s: float) -> _Served:
    """Serve each segment of the plan on its own freshly spawned server
    (so set-up is timed once per segment), then read its memory."""
    end = time.perf_counter() + deadline_s
    segments = run.plan.segments
    results, setups, peaks, ready = [], [], [], []
    spawn_windows, load_windows = [], []  # time.perf_counter()
    pings: list[float] = []
    probes = None
    (server_cpu,) = run.server_cpus
    with SpeedProbe(server_cpu) as probe:
        for i, segment in enumerate(segments):
            t_spawn = time.perf_counter()
            with run.spawn(i) as server:
                spawn_windows.append((t_spawn, time.perf_counter()))
                setups.append(server.setup_s)
                ready.append(server.rss_ready_mib)
                if traced and i == 0:
                    pings = ping_ms(server.host, server.port)
                t_load = time.perf_counter()
                results.append(run_pass(
                    server.host, server.port, segment.queries, segment.writes,
                    clients=run.workload.clients, traced=traced,
                    deadline_s=(end - t_load) / (len(segments) - i),
                ))
                load_windows.append((t_load, time.perf_counter()))
                if traced and i == len(segments) - 1:
                    # after the pass, so they do not warm its scans; they
                    # read the database as the segment's writes left it
                    probes = run_pass(
                        server.host, server.port, _probe_specs(run.workload),
                        [], clients=1, traced=True, deadline_s=30.0,
                    )
                    for record in probes.queries:
                        record.state_lo = record.state_hi = len(segment.writes)
                peaks.append(server.peak_rss_mib())
    track = probe.track
    return _Served(
        track=track,
        load_slowness=[track.over(*w) for w in load_windows],
        setup_slowness=[track.over(*w) for w in spawn_windows],
        results=results,
        setups=setups,
        rss_peak_mib=max(peaks),
        rss_ready_mib=statistics.median(ready),
        pings=pings,
        probes=probes,
    )


def _probe_specs(workload: Workload) -> list[dict]:
    """``<engine>/min/10`` over lists 0 and 1 for each engine the mix
    lacks, so every engine's served/direct ratio exists on every
    workload (a few thousand accesses at most)."""
    present = {entry[0] for entry in workload.block}
    return [
        {"algorithm": e, "aggregation": "min", "k": 10, "lists": [0, 1]}
        for e in ENGINES if e not in present
        for _ in range(PROBE_REPEATS)
    ]


def _ok(records):
    return [r for r in records if r.ok]


def _latencies_ms(served: _Served, kind: str,
                  normalised: bool) -> list[float]:
    """Client latencies of every attempted operation of ``kind``
    (``"queries"`` or ``"writes"``), each divided by the host slowness
    while it ran when ``normalised``; one that failed or was cut off
    counts as slower than any that completed (the whole pass), so it
    misses every latency limit."""
    if normalised:
        return [
            (r.latency_s / served.track.over(r.start, r.end) if r.ok
             else served.normalised_elapsed_s) * 1000.0
            for r in getattr(served, kind)
        ]
    return [
        (r.latency_s if r.ok else served.elapsed_s) * 1000.0
        for r in getattr(served, kind)
    ]


def _end_to_end(served: _Served, normalised: bool) -> dict[str, float]:
    """The end-to-end metrics of a pass, host-normalised or raw."""
    queries = _ok(served.queries)
    latencies = _latencies_ms(served, "queries", normalised)
    if normalised:
        elapsed = served.normalised_elapsed_s
        setups = [s / slow
                  for s, slow in zip(served.setups, served.setup_slowness)]
    else:
        elapsed, setups = served.elapsed_s, served.setups
    return {
        "qps": len(queries) / elapsed,
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(setups),
        "rss_peak_mib": served.rss_peak_mib,
        "cost_per_query": statistics.fmean(
            [r.bill["middleware_cost"] for r in queries] or [0.0]
        ),
    }


def _write_info(served: _Served) -> dict:
    """Raw write throughput and latencies (printed, not gated)."""
    if not served.writes:
        return {}
    latencies = _latencies_ms(served, "writes", normalised=False)
    info = {
        "writes_per_s": len(_ok(served.writes)) / served.elapsed_s,
        "write_p50_ms": percentile(latencies, 50),
    }
    if len(latencies) >= 100:
        info["write_p90_ms"] = percentile(latencies, 90)
    return info


def _scan_pages(samples: list[dict]) -> int:
    """Scan pages fetched across the snapshots, summing the final count
    of every scan cache the server built (one per database version:
    a write rebuilds the cache and resets its counters)."""
    by_version: dict = {}
    for stats in samples:
        pages = sum(s["pages_fetched"] for s in stats["cache"]["scans"])
        key = stats["version"]
        by_version[key] = max(by_version.get(key, 0), pages)
    first = samples[0]
    return sum(by_version.values()) - sum(
        s["pages_fetched"] for s in first["cache"]["scans"]
    )


def _useful_ratio(results: list[PassResult]) -> float:
    """Charged sorted entries over sorted entries fetched by the scan
    caches (pages x batch)."""
    charged = pages = 0
    for r in results:
        pages += _scan_pages([r.stats_before, *r.stats_samples,
                              r.stats_after])
        charged += (r.stats_after["ledger"]["sorted_accesses"]
                    - r.stats_before["ledger"]["sorted_accesses"])
    return charged / (pages * BATCH_SIZE) if pages else 0.0


def _store_delta(results: list[PassResult], queries: int) -> dict:
    """Page-cache counters over the pass, from the ``stats`` op's
    ``store`` key (all zero when the server has no store)."""
    delta = {"hits": 0, "misses": 0, "evictions": 0}
    mapped = 0
    for r in results:
        b = r.stats_before.get("store") or {}
        a = r.stats_after.get("store") or {}
        for key in delta:
            delta[key] += a.get(key, 0) - b.get(key, 0)
        mapped = max(mapped, a.get("mapped_bytes", 0))
    lookups = delta["hits"] + delta["misses"]
    return {
        "store.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "store.lookups_per_query": lookups / queries,
        "store.misses_per_query": delta["misses"] / queries,
        "store.evictions_per_query": delta["evictions"] / queries,
        "store.mapped_mib": mapped / MIB,
    }


def _per_layer(run: _Run, untraced: _Served, traced: _Served,
               references: list[Reference],
               matched: list[dict]) -> tuple[dict, dict]:
    w = run.workload
    probe_specs = _probe_specs(w)
    warm: dict[tuple, float] = {}

    def engine_s(segment: int, spec: dict, key: tuple[str, int]) -> float:
        """One warm direct run of the reference the query matched."""
        if (segment, key) not in warm:
            warm[segment, key] = references[segment].time_engine(spec,
                                                                  key[1])
        return warm[segment, key]

    # per-query self times over the traced pass
    queries, rows = [], []
    wire_ms, queued_ms, running_ms = [], [], []
    running_by_engine: dict[str, list[float]] = {e: [] for e in ENGINES}
    engine_by_engine: dict[str, list[float]] = {e: [] for e in ENGINES}
    for i, result in enumerate(traced.results):
        specs = run.plan.segments[i].queries
        for record in _ok(result.queries):
            key = matched[i].get(record.index)
            if key is None:  # not checked: no reference to time
                continue
            queries.append(record)
            spec = specs[record.index]
            engine = engine_s(i, spec, key)
            qid = record.query_id
            result.spans.add("engine.run", qid, parent="client.query",
                             duration=engine)
            queued = result.spans.duration(qid, "queued")
            running = result.spans.duration(qid, "running")
            row = self_times(record.latency_s, queued, running, engine)
            rows.append(row)
            wire_ms.append(row["wire"] * 1000.0)
            queued_ms.append(queued * 1000.0)
            running_ms.append(running * 1000.0)
            running_by_engine[spec["algorithm"]].append(running * 1000.0)
            engine_by_engine[spec["algorithm"]].append(engine * 1000.0)
    last = len(traced.results) - 1
    probes = traced.probes
    assert probes is not None
    for record in _ok(probes.queries):
        key = matched[-1].get(("probe", record.index))
        if key is None:
            continue
        spec = probe_specs[record.index]
        running_by_engine[spec["algorithm"]].append(
            probes.spans.duration(record.query_id, "running") * 1000.0
        )
        engine_by_engine[spec["algorithm"]].append(
            engine_s(last, spec, key) * 1000.0
        )
    engine_ms = {e: percentile(engine_by_engine[e], 50) for e in ENGINES}
    shares = layer_shares(rows)

    # in-process layer timings on the first segment's data
    array = run.plan.segments[0].array
    store_path = run.out / "layers.store"
    save_store(ColumnarDatabase.from_array(array), store_path)
    writes = run.plan.segments[0].writes or write_stream(
        w.n, w.m, RAW_WRITES, np.random.default_rng(run.seed)
    )
    # host-normalised, so a change of host speed between the two
    # passes is not taken for tracing overhead
    untraced_qps = (len(_ok(untraced.queries))
                    / untraced.normalised_elapsed_s)
    traced_qps = len(_ok(traced.queries)) / traced.normalised_elapsed_s
    metrics = {
        "wire.ping_ms": percentile(traced.pings, 50),
        "wire.round_trips_per_query": statistics.fmean(
            r.round_trips for r in queries
        ),
        "wire.self_ms_p50": percentile(wire_ms, 50),
        "wire.codec_us_per_query": percentile(
            [layers.codec_us(r.response) for r in queries], 50
        ),
        "service.start_s": layers.service_start_s(run.backend),
        "service.queued_ms_p50": percentile(queued_ms, 50),
        "service.queued_ms_p90": percentile(queued_ms, 90),
        "service.running_ms_p50": percentile(running_ms, 50),
        "service.mutate_ms_p50": percentile(
            layers.service_mutate_ms(array,
                                     writes[:SERVICE_WRITES]), 50
        ),
        "services.build_s": layers.services_build_s(run.backend),
        "scancache.useful_ratio": _useful_ratio(traced.results),
        **{
            f"served_direct.{e}": percentile(running_by_engine[e], 50)
            / engine_ms[e]
            for e in ENGINES
        },
        **{f"engine.{e}_ms": engine_ms[e] for e in ENGINES},
        "access.sorted_per_query": statistics.fmean(
            r.bill["sorted_accesses"] for r in queries
        ),
        "access.random_per_query": statistics.fmean(
            r.bill["random_accesses"] for r in queries
        ),
        "store.open_s": layers.store_open_s(store_path),
        **_store_delta(traced.results, len(queries)),
        "store.engine_ta_ms": layers.store_engine_ta_ms(
            array, run.out / "two-lists.store"
        ),
        "mutable.write_us_p50": percentile(
            layers.raw_write_us(array, writes[:RAW_WRITES]), 50
        ),
        "rss_ready_mib": untraced.rss_ready_mib,
        **{f"trace.{layer}_share": shares[layer] for layer in LAYERS},
        "trace.overhead": untraced_qps / traced_qps - 1.0,
    }
    breakdown = {
        "client_query_s": sum(r.latency_s for r in queries),
        "self_s": {
            layer: sum(row[layer] for row in rows) for layer in LAYERS
        },
        "share_sum": sum(shares.values()),
        "untraced_qps": untraced_qps,
        "traced_qps": traced_qps,
    }
    return metrics, breakdown


def environment(run: _Run, served: _Served) -> dict:
    w = run.workload
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "server_cpus": sorted(run.server_cpus),
        "loadgen_cpus": sorted(run.loadgen_cpus),
        # the speed probe's calibration: the server CPU's slowness
        # against the reference host while the untraced pass's servers
        # started and while they served
        "host_slowness": {
            "setup": statistics.median(served.setup_slowness),
            "load": statistics.median(served.load_slowness),
        },
        "server": {
            "kind": w.server,
            "max_active": MAX_ACTIVE,
            "batch_size": BATCH_SIZE,
            "max_queued": MAX_QUEUED,
            "readahead_pages": READAHEAD_PAGES,
            "cache_mib": STORE_CACHE_MB if w.server == "store" else None,
            "page_rows": PAGE_ROWS if w.server == "store" else None,
        },
    }


def _check(run: _Run, name: str, served: _Served,
           references: list[Reference], gate: GateReport) -> list[dict]:
    """Gate one pass, segment by segment; returns, per segment, the
    reference each checked query matched (probes keyed
    ``("probe", index)`` on the last segment)."""
    matched = []
    for i, (segment, result) in enumerate(
        zip(run.plan.segments, served.results)
    ):
        array = segment.array
        report = check(references[i], array, segment.queries,
                       segment.writes, result.queries, result.writes)
        if i == len(served.results) - 1 and served.probes is not None:
            probe = check(references[i], array, _probe_specs(run.workload),
                          segment.writes, served.probes.queries,
                          result.writes)
            report.checked += probe.checked
            report.unchecked += probe.unchecked
            report.mismatches += [f"probe {m}" for m in probe.mismatches]
            report.matched.update(
                {("probe", k): v for k, v in probe.matched.items()}
            )
        gate.checked += report.checked
        gate.unchecked += report.unchecked
        gate.mismatches += [
            f"{name} segment {i}: {m}" for m in report.mismatches
        ]
        matched.append(report.matched)
    return matched


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, root: Path, out_root: Path) -> RunReport:
    """One full run; see the module docstring."""
    out = out_root / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    affinity = os.sched_getaffinity(0)
    try:
        run = _Run(workload, seed, seconds / 2 if trace else seconds,
                   root, out)
        os.sched_setaffinity(0, run.loadgen_cpus)
        passes: dict[str, _Served] = {}
        budget = run.time_left() - (45.0 if trace else 15.0)
        passes["untraced"] = _served_pass(
            run, traced=False, deadline_s=budget / 2 if trace else budget,
        )
        if trace:
            passes["traced"] = _served_pass(
                run, traced=True, deadline_s=run.time_left() - 45.0,
            )
        references = [Reference(seg.array) for seg in run.plan.segments]
        gate = GateReport()
        matched = {
            name: _check(run, name, served, references, gate)
            for name, served in passes.items()
        }
        records = [
            r for served in passes.values()
            for r in served.queries + served.writes
        ]
        failed = sum(not r.ok for r in records)
        untraced = passes["untraced"]
        info: dict = {
            "env": environment(run, untraced),
            "queries": len(untraced.queries),
            "writes": len(untraced.writes),
            "failed_frac": failed / len(records),
            "gate": {"checked": gate.checked, "unchecked": gate.unchecked,
                     "mismatches": len(gate.mismatches)},
            "end_to_end": _end_to_end(untraced, normalised=True),
            "end_to_end_raw": _end_to_end(untraced, normalised=False),
            **_write_info(untraced),
        }
        metrics = dict(info["end_to_end"])
        if trace and gate.correct:
            traced = passes["traced"]
            layer_metrics, breakdown = _per_layer(
                run, untraced, traced, references, matched["traced"]
            )
            metrics.update(layer_metrics)
            info["trace"] = breakdown
            spans = [
                dict(span, segment=i)
                for i, r in enumerate(traced.results)
                for span in r.spans.spans
            ]
            (out / "spans.json").write_text(json.dumps(spans))
        (out / "report.json").write_text(
            json.dumps({"info": info, "metrics": metrics,
                        "mismatches": gate.mismatches}, indent=1)
        )
        return RunReport(
            workload=workload.name,
            seed=seed,
            attempted=len(records),
            failed=failed,
            correct=gate.correct,
            metrics=metrics,
            info=info,
            mismatches=gate.mismatches,
            passes=passes,
        )
    finally:
        os.sched_setaffinity(0, affinity)
        for pattern in ("*.npy", "*.store"):
            for data in out.glob(pattern):
                data.unlink()
