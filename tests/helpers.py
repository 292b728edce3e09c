"""Shared helper factories for the test-suite."""

from __future__ import annotations

from repro.aggregation import (
    AVERAGE,
    MAX,
    MEDIAN,
    MIN,
    PRODUCT,
    SUM,
    GeometricMean,
    HarmonicMean,
    KthLargest,
    LukasiewiczTNorm,
    MinOfSumFirstTwo,
    ProbabilisticSum,
    WeightedSum,
)
from repro.core import (
    CombinedAlgorithm,
    FaginAlgorithm,
    IntermittentAlgorithm,
    NaiveAlgorithm,
    NoRandomAccessAlgorithm,
    QuickCombine,
    StreamCombine,
    ThresholdAlgorithm,
)


def all_exact_algorithms():
    """Algorithms that return exact top-k answers with grades."""
    return [
        NaiveAlgorithm(),
        FaginAlgorithm(),
        ThresholdAlgorithm(),
        ThresholdAlgorithm(remember_seen=True),
        QuickCombine(),
        QuickCombine(fairness=3),
    ]


def all_objects_only_algorithms():
    """Algorithms whose contract is top-k objects (grades optional)."""
    return [
        NoRandomAccessAlgorithm(),
        NoRandomAccessAlgorithm(naive_bookkeeping=True),
        CombinedAlgorithm(h=1),
        CombinedAlgorithm(h=3),
        IntermittentAlgorithm(h=2),
        StreamCombine(),
    ]


def standard_aggregations():
    """A representative spread of monotone aggregation functions."""
    return [MIN, MAX, SUM, AVERAGE, PRODUCT, MEDIAN]


def extended_aggregations(m: int):
    """Aggregations valid for a given arity m, including exotic ones."""
    fns = [
        MIN,
        MAX,
        SUM,
        AVERAGE,
        PRODUCT,
        MEDIAN,
        GeometricMean(),
        HarmonicMean(),
        LukasiewiczTNorm(),
        ProbabilisticSum(),
        KthLargest(1),
        WeightedSum([1.0 + 0.5 * i for i in range(m)], normalize=True),
    ]
    if m >= 2:
        fns.append(KthLargest(2))
    if m >= 3:
        fns.append(MinOfSumFirstTwo())
    return fns


# ---------------------------------------------------------------------------
# differential-comparison helpers (shared by the async/transport/
# resilience/server suites)
# ---------------------------------------------------------------------------
def run_async(coro):
    """Run a coroutine to completion on a fresh event loop."""
    import asyncio

    return asyncio.run(coro)


def stats_tuple(session):
    """A session's full AccessStats as a comparable tuple."""
    s = session.stats()
    return (
        s.sorted_accesses,
        s.random_accesses,
        s.sorted_by_list,
        s.random_by_list,
        s.middleware_cost,
        s.depth,
        s.distinct_objects_seen,
    )


def result_signature(result):
    """Everything the differential contract compares, as one tuple:
    ranked items (objects, grades, bounds), the full per-list
    AccessStats, halting reason, and round count.  Floats compare with
    ``==`` -- the planes are required to perform identical IEEE
    operations."""
    stats = result.stats
    return (
        [(it.obj, it.grade, it.lower_bound, it.upper_bound)
         for it in result.items],
        stats.sorted_accesses,
        stats.random_accesses,
        stats.sorted_by_list,
        stats.random_by_list,
        stats.middleware_cost,
        stats.depth,
        stats.distinct_objects_seen,
        result.halt_reason,
        result.rounds,
    )


def project_database(db, lists):
    """A scalar Database over a subset of ``db``'s lists, preserving
    exact sorted order and tie placement -- the solo-reference twin of
    a query submitted over ``lists``."""
    from repro.middleware.database import Database

    columns = [
        [db.sorted_entry(i, pos) for pos in range(db.num_objects)]
        for i in lists
    ]
    return Database.from_columns(columns, validate=False)


class QueryCase:
    """One query of a differential matrix.

    ``algorithm``/``aggregation`` may be registry names (the
    :data:`repro.server.ALGORITHMS` / :data:`repro.server.AGGREGATIONS`
    keys, for cases that travel to a query service) or live instances
    (for cases run directly against a session).
    """

    __slots__ = (
        "algorithm", "aggregation", "k", "lists",
        "sorted_cost", "random_cost",
    )

    def __init__(
        self,
        algorithm,
        aggregation,
        k,
        lists=None,
        sorted_cost=1.0,
        random_cost=1.0,
    ):
        self.algorithm = algorithm
        self.aggregation = aggregation
        self.k = k
        self.lists = None if lists is None else tuple(lists)
        self.sorted_cost = sorted_cost
        self.random_cost = random_cost

    def resolve_algorithm(self):
        if isinstance(self.algorithm, str):
            from repro.server import ALGORITHMS

            return ALGORITHMS[self.algorithm]()
        return self.algorithm

    def resolve_aggregation(self):
        if isinstance(self.aggregation, str):
            from repro.server import AGGREGATIONS

            return AGGREGATIONS[self.aggregation]
        return self.aggregation

    def cost_model(self):
        from repro.middleware.cost import CostModel

        return CostModel(self.sorted_cost, self.random_cost)

    def spec(self, **overrides):
        """The case as a wire-portable QuerySpec (requires registry
        names, not instances)."""
        from repro.server import QuerySpec

        return QuerySpec(
            algorithm=self.algorithm,
            aggregation=self.aggregation,
            k=self.k,
            lists=self.lists,
            sorted_cost=self.sorted_cost,
            random_cost=self.random_cost,
            **overrides,
        )

    def __repr__(self):
        return (
            f"QueryCase({self.algorithm!r}, {self.aggregation!r}, "
            f"k={self.k}, lists={self.lists})"
        )


def reference_signatures(db, cases):
    """Solo scalar-reference signatures, one per case: each case runs
    alone, on a fresh scalar AccessSession, over (a projection of)
    ``db``."""
    signatures = []
    for case in cases:
        target = db if case.lists is None else project_database(db, case.lists)
        reference = case.resolve_algorithm().run_on(
            target,
            case.resolve_aggregation(),
            case.k,
            cost_model=case.cost_model(),
        )
        signatures.append(result_signature(reference))
    return signatures


def run_query_matrix(db, cases, execute):
    """The differential load contract in one call.

    ``execute(cases)`` runs every case through the system under test
    (typically *concurrently* -- a query service, a shared scan cache)
    and returns the TopKResults positionally aligned with ``cases``.
    Every result must be bit-identical -- items, bounds, halting, tie
    order, full AccessStats -- to its solo scalar-reference run.
    Returns the reference signatures."""
    references = reference_signatures(db, cases)
    results = execute(list(cases))
    assert len(results) == len(references), (
        f"execute returned {len(results)} results for {len(references)} cases"
    )
    for index, (case, reference, result) in enumerate(
        zip(cases, references, results)
    ):
        assert result_signature(result) == reference, (
            f"case {index} ({case!r}) diverged from its solo reference"
        )
    return references


def write_legacy_npz(db, path, *, order_arrays=True):
    """Write ``db`` as a legacy ``.npz`` database, by hand: v2 (grades,
    string ids, per-list order arrays, plus ``shard_bounds`` for a
    sharded database) or, with ``order_arrays=False``, v1 (grades and
    ids only).  Nothing in the package writes these formats any more;
    :func:`repro.store.open_store` still reads them."""
    import numpy as np

    from repro.middleware.database import ShardedDatabase

    col = db.to_columnar()
    ids = list(col._ids)
    payload = {
        "format": np.array("repro-database-npz-v2"),
        "grades": col._matrix,
        "object_ids": np.array([str(obj) for obj in ids]),
        "int_ids": np.array([isinstance(obj, int) for obj in ids]),
    }
    if order_arrays:
        payload["order_rows"] = np.stack(
            [np.asarray(rows, dtype=np.int64) for rows in col._order_rows]
        )
        if isinstance(db, ShardedDatabase):
            payload["shard_bounds"] = db.shard_bounds.astype(np.int64)
    with open(path, "wb") as f:  # a path would gain a .npz suffix
        np.savez_compressed(f, **payload)
