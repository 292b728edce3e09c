"""Spans of the traced run and the per-layer self-time arithmetic.

Each traced query has a root span ``client.query`` keyed by its query
id, with children ``client.submit``, one ``client.result`` per
long-poll, the server's ``admitted``/``queued``/``running`` spans
(durations only: the server's clock is not the client's), and
``engine.run`` from replaying the spec directly in the benchmark
process.  The client wall time then splits into four self times that
add up to it exactly:

* wire -- ``client.query`` minus the server lifecycle
  (``queued`` + ``running``)
* service queue -- ``queued``
* access plane and bridge -- ``running`` minus ``engine.run``
* engine -- ``engine.run``
"""

from __future__ import annotations

__all__ = ["LAYERS", "SpanLog", "self_times", "layer_shares"]

LAYERS = ("wire", "queue", "access", "engine")


class SpanLog:
    """Spans kept in memory during the run, written out at its end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, trace_id: str, *, parent: str | None,
            start: float | None = None, end: float | None = None,
            duration: float | None = None) -> None:
        if duration is None:
            assert start is not None and end is not None
            duration = end - start
        self.spans.append({
            "name": name,
            "trace": trace_id,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
        })

    def duration(self, trace_id: str, name: str) -> float:
        """Summed duration of ``trace_id``'s spans called ``name`` (0
        when it has none, e.g. a query that never queued)."""
        return sum(
            s["duration"] for s in self.spans
            if s["trace"] == trace_id and s["name"] == name
        )


def self_times(client_query: float, queued: float, running: float,
               engine: float) -> dict[str, float]:
    """One query's per-layer self times; they sum to ``client_query``."""
    return {
        "wire": client_query - (queued + running),
        "queue": queued,
        "access": running - engine,
        "engine": engine,
    }


def layer_shares(rows: list[dict[str, float]]) -> dict[str, float]:
    """Each layer's summed self time as a share of the summed client
    wall time over ``rows`` (each a :func:`self_times` result)."""
    total = sum(sum(row.values()) for row in rows)
    return {
        layer: sum(row[layer] for row in rows) / total for layer in LAYERS
    }
