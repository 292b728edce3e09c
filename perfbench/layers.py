"""Per-layer timings taken from outside, by calling each layer's public
functions in the benchmark process on the workload's generated data."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.middleware.database import ColumnarDatabase
from repro.middleware.mutable import MutableColumnarDatabase
from repro.middleware.serialization import decode_frame, encode_frame
from repro.server.service import QuerySpec
from repro.server.wire import decode_result, encode_result
from repro.services.assemble import services_for_database
from repro.store import open_store, save_store

from .serve_ram import daemon_service
from .workloads import PAGE_ROWS, STORE_CACHE_MB, apply_write

__all__ = [
    "median_time",
    "open_paged",
    "service_start_s",
    "services_build_s",
    "store_open_s",
    "store_engine_ta_ms",
    "raw_write_us",
    "service_mutate_ms",
    "codec_us",
]

MIB = 1024 * 1024
#: calls timed per in-process layer timing (their median is reported)
REPEATS = 3


def median_time(fn, repeats: int = REPEATS, *, setup=None,
                teardown=None) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls, seconds.

    With ``setup``, each call is ``fn(setup())``; with ``teardown``,
    ``teardown(result)`` follows each call.  Neither is timed."""
    times = []
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
        if teardown is not None:
            teardown(result)
    return statistics.median(times)


def service_start_s(make_backend) -> float:
    """In-process ``QueryService(database=...).start()`` on a fresh
    backend each time (backend construction not timed)."""
    return median_time(
        lambda backend: daemon_service(backend).start(),
        setup=make_backend, teardown=lambda service: service.close(),
    )


def services_build_s(make_backend) -> float:
    """``services_for_database`` on a fresh backend each time."""
    return median_time(services_for_database, setup=make_backend)


def open_paged(path: Path):
    """``path`` through ``open_store`` with the store workload's page
    cache and page size."""
    return open_store(path, cache_bytes=STORE_CACHE_MB * MIB,
                      page_rows=PAGE_ROWS)


def store_open_s(path: Path) -> float:
    return median_time(lambda: open_paged(path))


def store_engine_ta_ms(array: np.ndarray, path: Path) -> float:
    """Direct TA/average/10 over lists 0 and 1 of ``array`` written
    with ``save_store`` and read through ``open_store`` with the
    workload's cache (the shape of the store workload's deep TA
    queries); the first run warms the cache and is not timed."""
    save_store(ColumnarDatabase.from_array(array[:, :2]), path)
    db = open_paged(path)
    spec = QuerySpec("ta", "average", 10)

    def run():
        spec.make_algorithm().run_on(db, spec.make_aggregation(), spec.k)

    run()
    return median_time(run) * 1000.0


def raw_write_us(array: np.ndarray, writes: list[tuple]) -> list[float]:
    """Each write of the stream applied straight to a
    ``MutableColumnarDatabase``, microseconds."""
    db = MutableColumnarDatabase.from_array(array)
    times = []
    for write in writes:
        t0 = time.perf_counter()
        apply_write(db, write)
        times.append((time.perf_counter() - t0) * 1e6)
    return times


def service_mutate_ms(array: np.ndarray, writes: list[tuple]) -> list[float]:
    """Each write through an embedded ``QueryService.mutate`` over a
    ``MutableColumnarDatabase``, milliseconds."""
    service = daemon_service(MutableColumnarDatabase.from_array(array))
    service.start()
    try:
        times = []
        for write in writes:
            kwargs: dict = {}
            if write[0] == "update":
                kwargs = {"list_index": write[2], "grade": write[3]}
            elif write[0] == "insert":
                kwargs = {"grades": write[2]}
            t0 = time.perf_counter()
            service.mutate(write[0], write[1], **kwargs)
            times.append((time.perf_counter() - t0) * 1000.0)
        return times
    finally:
        service.close()


def codec_us(response: dict) -> float:
    """Result codec plus frame codec on one recorded ``result`` reply,
    microseconds: ``decode_result``/``encode_result`` and
    ``encode_frame``/``decode_frame``."""
    t0 = time.perf_counter()
    result = decode_result(response["result"])
    encoded = dict(response, result=encode_result(result))
    decode_frame(encode_frame(encoded))
    return (time.perf_counter() - t0) * 1e6
