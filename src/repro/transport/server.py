"""The wire-protocol server: graded sources behind a real TCP socket.

:class:`GradedSourceServer` exposes a set of per-attribute services
(and, optionally, a grid of per-shard run services) over the
length-prefixed frame protocol of
:mod:`repro.middleware.serialization`.  One server process plays the
role of the paper's *autonomous subsystems*: clients reach it only
through sorted pages and random-access probes, shipped as real bytes.

The connection/lifecycle chassis (frame loop, per-request tasks,
backpressure, drain, error frames) lives in
:class:`~repro.transport.frames.FrameServer`; this module adds the
source-serving operations (all reads, all idempotent -- the client may
safely retry):

``{"op": "meta"}``
    ``{"sources": [{name, n, sorted, random}, ...], "runs": [[shard
    lengths] per list]}`` -- what the server exports.
``{"op": "page", "src": i, "start": p, "count": c}``
    entries ``[p, p + c)`` of source ``i``'s sorted list:
    ``{"objects": [...], "grades": float64 array}``.  Clients keep
    their own cursors; the server holds no stream state.
``{"op": "random", "src": i, "ids": [...]}``
    ``{"grades": float64 array}``, positionally.
``{"op": "run_page", "list": i, "shard": s, "start": p, "count": c}``
    ``{"rows", "grades", "ties"}`` array slices of that shard run.

Failures raise out of the serving source (latency/failure models run
*server-side*) and travel back as error frames; the client re-raises
the matching :mod:`repro.middleware.errors` type, so failure semantics
are identical to the in-process path.

Lifecycle: ``await start()`` / ``aclose()`` inside an event loop (the
``repro.transport.serve`` CLI), or :meth:`start_in_thread` /
:meth:`close` (context manager) to run the server on a background
thread next to synchronous test or benchmark code.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..middleware.database import Database, ShardedDatabase
from ..middleware.errors import DatabaseError, WireFormatError
from ..middleware.serialization import MAX_FRAME_BYTES
from ..middleware.sources import GradedSource
from ..services.assemble import services_for_database, shard_run_services
from ..services.simulated import (
    FailureModel,
    LatencyModel,
    RetryPolicy,
    ShardRunService,
    SimulatedListService,
)
from .frames import FrameConnection, FrameServer

__all__ = ["GradedSourceServer", "serve_sources"]


def _as_list_service(source) -> SimulatedListService:
    """Adapt one exported source: an already-wrapped service passes
    through, a :class:`GradedSource` is wrapped (keeping its name,
    entry order and capability flags)."""
    if isinstance(source, SimulatedListService):
        return source
    if isinstance(source, GradedSource):
        return SimulatedListService(
            source.name,
            source.entries,
            supports_sorted=source.supports_sorted,
            supports_random=source.supports_random,
        )
    raise DatabaseError(
        f"cannot serve {type(source).__name__}: expected a "
        "SimulatedListService or GradedSource"
    )


class GradedSourceServer(FrameServer):
    """Serve graded sources (and shard runs) over TCP.

    Parameters
    ----------
    sources:
        The per-attribute sorted lists to export, in list order --
        :class:`~repro.services.simulated.SimulatedListService` or
        :class:`~repro.middleware.sources.GradedSource` instances
        (wrapped on the fly).  Latency/failure/retry models attached to
        a service run *inside this server*, which is what makes the
        overlap benchmark honest: concurrent requests overlap their
        service time on the server's event loop exactly as concurrent
        calls to autonomous services would.
    run_grid:
        Optional ``[list][shard]`` grid of
        :class:`~repro.services.simulated.ShardRunService`.
    host, port, max_frame, max_concurrent:
        As for :class:`~repro.transport.frames.FrameServer`.
    """

    thread_name = "repro-transport-server"

    def __init__(
        self,
        sources: Sequence = (),
        run_grid: Sequence[Sequence[ShardRunService]] = (),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME_BYTES,
        max_concurrent: int | None = None,
        obs=None,
    ):
        self._sources = [_as_list_service(s) for s in sources]
        self._run_grid = [list(row) for row in run_grid]
        if not self._sources and not self._run_grid:
            raise DatabaseError("nothing to serve: no sources, no runs")
        super().__init__(
            host=host,
            port=port,
            max_frame=max_frame,
            max_concurrent=max_concurrent,
            obs=obs,
        )

    @classmethod
    def from_database(
        cls,
        db: Database,
        *,
        latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
        failures: FailureModel | Sequence[FailureModel | None] | None = None,
        retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
        names: Sequence[str] | None = None,
        **kwargs,
    ) -> "GradedSourceServer":
        """A server exporting every list of ``db`` (exact tie order),
        plus -- for a :class:`~repro.middleware.database.ShardedDatabase`
        -- its per-shard run grid."""
        sources = services_for_database(
            db, latency=latency, failures=failures, retry=retry, names=names
        )
        run_grid: list[list[ShardRunService]] = []
        if isinstance(db, ShardedDatabase):
            # the run grid carries the same (possibly per-list) models
            # as the page/random sources: every shard of list i behaves
            # like one piece of list i's service
            run_grid = shard_run_services(
                db, latency=latency, failures=failures, retry=retry
            )
        return cls(sources, run_grid, **kwargs)

    # ------------------------------------------------------------------
    # the operations
    # ------------------------------------------------------------------
    async def _dispatch(self, message, conn: FrameConnection) -> dict:
        if not isinstance(message, dict):
            raise WireFormatError("request must be a message dict")
        op = message.get("op")
        if op == "meta":
            return {
                "sources": [
                    {
                        "name": s.name,
                        "n": s.num_entries,
                        "sorted": s.supports_sorted,
                        "random": s.supports_random,
                    }
                    for s in self._sources
                ],
                "runs": [
                    [run.num_entries for run in row]
                    for row in self._run_grid
                ],
                "compression": "zlib",
            }
        if op == "page":
            source = self._source(message)
            page = await source.page(
                int(message["start"]), int(message["count"])
            )
            return {
                "objects": list(page.objects),
                "grades": np.asarray(page.grades, dtype=np.float64),
            }
        if op == "random":
            source = self._source(message)
            ids = message["ids"]
            if not isinstance(ids, list):
                raise WireFormatError("'ids' must be a list")
            grades = await source.random_access_batch(ids)
            return {"grades": np.asarray(grades, dtype=np.float64)}
        if op == "run_page":
            run = self._run(message)
            rows, grades, ties = await run.run_page(
                int(message["start"]), int(message["count"])
            )
            return {"rows": rows, "grades": grades, "ties": ties}
        if op == "ping":
            return {}
        raise WireFormatError(f"unknown op {op!r}")

    def _source(self, message) -> SimulatedListService:
        index = int(message["src"])
        if not (0 <= index < len(self._sources)):
            raise WireFormatError(
                f"source index {index} out of range "
                f"(serving {len(self._sources)})"
            )
        return self._sources[index]

    def _run(self, message) -> ShardRunService:
        i = int(message["list"])
        s = int(message["shard"])
        if not (0 <= i < len(self._run_grid)) or not (
            0 <= s < len(self._run_grid[i])
        ):
            raise WireFormatError(f"run ({i}, {s}) out of range")
        return self._run_grid[i][s]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self._address or (self._host, self._requested_port)
        return (
            f"<GradedSourceServer {where[0]}:{where[1]} "
            f"m={len(self._sources)} runs={len(self._run_grid)}>"
        )


def serve_sources(
    what,
    *,
    num_shards: int | None = None,
    latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
    failures: FailureModel | Sequence[FailureModel | None] | None = None,
    retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame: int = MAX_FRAME_BYTES,
    max_concurrent: int | None = None,
    obs=None,
) -> GradedSourceServer:
    """Serve ``what`` -- a :class:`~repro.middleware.database.Database`
    or a sequence of sources/services -- on a background thread.

    Returns the running :class:`GradedSourceServer` (a context
    manager); connect with
    :func:`repro.services.network_services(server.address)
    <repro.services.network.network_services>`.  A
    :class:`~repro.middleware.database.ShardedDatabase` additionally
    exports its per-shard run grid; ``num_shards`` re-shards a flat
    database first.
    """
    if isinstance(what, Database):
        if num_shards is not None:
            what = what.to_sharded(num_shards)
        server = GradedSourceServer.from_database(
            what,
            latency=latency,
            failures=failures,
            retry=retry,
            host=host,
            port=port,
            max_frame=max_frame,
            max_concurrent=max_concurrent,
            obs=obs,
        )
    else:
        if num_shards is not None:
            raise DatabaseError(
                "num_shards only applies when serving a Database"
            )
        sources = list(what)
        adapted: list[SimulatedListService] = []
        for src, lat, fail, ret in zip(
            sources,
            _broadcast(latency, len(sources)),
            _broadcast(failures, len(sources)),
            _broadcast(retry, len(sources)),
        ):
            has_models = (
                lat is not None or fail is not None or ret is not None
            )
            if isinstance(src, GradedSource):
                adapted.append(
                    SimulatedListService(
                        src.name,
                        src.entries,
                        supports_sorted=src.supports_sorted,
                        supports_random=src.supports_random,
                        latency=lat,
                        failures=fail,
                        retry=ret,
                    )
                )
            elif has_models:
                raise DatabaseError(
                    "latency/failures/retry models must be attached when "
                    f"constructing {type(src).__name__}, not in "
                    "serve_sources"
                )
            else:
                adapted.append(_as_list_service(src))
        server = GradedSourceServer(
            adapted,
            host=host,
            port=port,
            max_frame=max_frame,
            max_concurrent=max_concurrent,
            obs=obs,
        )
    return server.start_in_thread()


def _broadcast(value, m: int) -> list:
    if value is None or not isinstance(value, (list, tuple)):
        return [value] * m
    if len(value) != m:
        raise DatabaseError(f"got {len(value)} entries for m={m} sources")
    return list(value)
