"""The three workloads: generated data and seeded operation sequences.

Every run is a fixed sequence of operations drawn from ``--seed``
(data, query order, list subsets, write stream), so two runs of one
seed issue the same work and their counts and memory compare like with
like.  The sequence length scales with ``--seconds``: ``queries_per_s``
is sized so that, at the commit the benchmark was added to, serving
the sequence takes about that long on the reference host in its slower
phases (see :mod:`perfbench.hostspeed`).

Each segment of a run (see :data:`SEGMENTS`) has its own database of
``m = 8`` uniform lists, and each query reads a seeded subset of them
(4 lists for the deep mix, 2 for the shallow reads).  A top-k query's
cost is set by a handful of extreme grades, so over a single 4-list
database the mean cost per query moved 12-34% from seed to seed; over
many subsets of three databases it averages out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_QUERIES",
    "PAGE_ROWS",
    "SEGMENTS",
    "STORE_CACHE_MB",
    "Workload",
    "WORKLOADS",
    "Segment",
    "Plan",
    "make_plan",
    "write_stream",
    "apply_write",
]


#: queries a run holds at least, so that ten samples lie beyond its p90
MIN_QUERIES = 100
#: server processes per pass: each serves an equal share of the
#: operations and its start-up is one ``setup_s`` sample.  One server's
#: run-to-run variation does not average out within its own lifetime
#: (its threads settle into one interleaving), so a pass pools three.
SEGMENTS = 3
#: the store workload's page cache and page size
STORE_CACHE_MB = 1
PAGE_ROWS = 4096


def _spec(algorithm: str, aggregation: str, k: int, width: int) -> tuple:
    return (algorithm, aggregation, k, width)


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one generated database.

    ``block`` is the query mix of ``(algorithm, aggregation, k,
    width)`` entries: every consecutive ``len(block)`` queries are a
    seeded permutation of it, each over a seeded subset of ``width``
    of the ``m`` lists, so each spec's share is exact for every seed.
    ``server`` is ``"store"`` (the real daemon over a ``save_store``
    file), ``"ram"`` or ``"mutable"`` (the benchmark's own server
    script over the generated array).
    """

    name: str
    n: int
    m: int
    server: str
    clients: int
    block: tuple[tuple, ...]
    queries_per_s: float
    writes_per_query: float = 0.0

    def num_queries(self, seconds: float) -> int:
        wanted = max(MIN_QUERIES, self.queries_per_s * seconds)
        return math.ceil(wanted / len(self.block)) * len(self.block)


WORKLOADS: dict[str, Workload] = {
    # deep queries: the engines, the access plane and the service
    # bridge take the time; wire, store and write plane idle
    "deep-ram": Workload(
        name="deep-ram",
        n=2000,
        m=8,
        server="ram",
        clients=2,
        block=(
            _spec("ta", "average", 10, 4),
            _spec("ta", "sum", 50, 4),
            _spec("ta", "min", 10, 4),
            _spec("nra", "average", 10, 4),
            _spec("ca", "sum", 10, 4),
            _spec("stream-combine", "average", 10, 4),
            _spec("ta", "max", 10, 4),
        ),
        queries_per_s=5.6,
    ),
    # the daemon over an on-disk store about 4.6x its page cache; the
    # only workload through repro.store and the store start-up.  40%
    # shallow, 30% random accesses across every matrix page, 30%
    # sequential sorted pages.  One client, and the median query a deep
    # one: a shallow query's latency is a few 5 ms interpreter-lock
    # switch intervals, so a shallow median jumped 26% between runs
    "store-paged": Workload(
        name="store-paged",
        n=25_000,
        m=8,
        server="store",
        clients=1,
        block=(
            (_spec("ta", "max", 10, 4),) * 4
            + (_spec("ta", "average", 10, 2),) * 3
            + (_spec("nra", "sum", 10, 2),) * 3
        ),
        queries_per_s=16.0,
    ),
    # shallow reads beside a stream of writes: wire and admission
    # dominate a read; a write drains the service and rebuilds it
    "read-write": Workload(
        name="read-write",
        n=5000,
        m=8,
        server="mutable",
        clients=1,
        block=(
            _spec("ta", "max", 10, 2),
            _spec("ta", "max", 1, 2),
            _spec("nra", "max", 10, 2),
        ),
        queries_per_s=16.0,
        writes_per_query=1.0,
    ),
}


@dataclass(frozen=True)
class Segment:
    """What one server process serves: its own generated database,
    queries, and the writes issued beside them (valid from that
    database)."""

    array: np.ndarray
    queries: list[dict]
    writes: list[tuple]


@dataclass(frozen=True)
class Plan:
    """The generated inputs of one run."""

    segments: list[Segment]


def write_stream(n: int, m: int, count: int, rng) -> list[tuple]:
    """``count`` seeded writes against objects ``0 .. n-1``: 60%
    grade updates, 20% inserts of fresh ids, 20% deletes (never
    below ``n // 2`` live objects).  Each write is ``("update", obj,
    list_index, grade)``, ``("insert", obj, grades)`` or
    ``("delete", obj)``."""
    live = list(range(n))
    next_id = n
    writes: list[tuple] = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.6:
            obj = live[int(rng.integers(len(live)))]
            writes.append(
                ("update", obj, int(rng.integers(m)), float(rng.random()))
            )
        elif draw < 0.8 or len(live) <= n // 2:
            grades = tuple(float(g) for g in rng.random(m))
            writes.append(("insert", next_id, grades))
            live.append(next_id)
            next_id += 1
        else:
            obj = live.pop(int(rng.integers(len(live))))
            writes.append(("delete", obj))
    return writes


def apply_write(db, write: tuple) -> None:
    """Apply one :func:`write_stream` entry to a mutable database."""
    if write[0] == "update":
        db.update_grade(write[1], write[2], write[3])
    elif write[0] == "insert":
        db.insert(write[1], write[2])
    else:
        db.delete(write[1])


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """The run's inputs: :data:`SEGMENTS` equal shares of the query
    sequence, each with its own database and write stream.  Three
    databases rather than one: with one, the mean cost of a read-write
    read moved 10% from seed to seed (interquartile range over median,
    twelve seeds), with three 3%."""
    order_seq, *seqs = np.random.SeedSequence(seed).spawn(1 + 2 * SEGMENTS)
    order_rng = np.random.default_rng(order_seq)
    block = len(workload.block)
    per_segment = math.ceil(workload.num_queries(seconds) / SEGMENTS / block)
    parts = []
    for data_seq, write_seq in zip(seqs[0::2], seqs[1::2]):
        array = np.random.default_rng(data_seq).random(
            (workload.n, workload.m)
        )
        queries: list[dict] = []
        for _ in range(per_segment):
            for i in order_rng.permutation(block):
                algorithm, aggregation, k, width = workload.block[i]
                lists = order_rng.choice(workload.m, width, replace=False)
                queries.append({
                    "algorithm": algorithm,
                    "aggregation": aggregation,
                    "k": k,
                    "lists": sorted(int(j) for j in lists),
                })
        writes = write_stream(
            workload.n,
            workload.m,
            round(len(queries) * workload.writes_per_query),
            np.random.default_rng(write_seq),
        )
        parts.append(Segment(array, queries, writes))
    return Plan(segments=parts)
