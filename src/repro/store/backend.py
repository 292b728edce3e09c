"""Store-backed database backends: the ``Database`` API over mmap.

:class:`StoreBackedDatabase` / :class:`StoreBackedShardedDatabase`
subclass the in-RAM array backends and replace their internals --
``_matrix``, ``_order_rows[i]`` / ``_order_grades[i]``, and (for the
sharded variant) the per-(list, shard) run triples -- with paged
proxies reading through one :class:`~repro.store.cache.LRUPageCache`.
Everything above the ``Database`` API -- the batched access plane, all
four chunked engines, ``QueryService``, transport serving, and
``save``/``load`` round trips -- runs unmodified, and the differential
suite's store axis holds the results bit-identical to the scalar
reference.

Construction is O(1) in data size for trivially-id'd stores (ids
``0 .. N-1``, the large-synthetic-workload case): the constructor
reads only the already-validated header; no segment is mapped, no row
is touched, no id table is built.  Stores carrying explicit object
ids intern them eagerly (O(N) in the id table, still O(1) in grade
data) -- those stores are the suite-scale adversarial constructions,
not the ≫-RAM ones.

Ground-truth helpers (``top_k``, ``overall_grades``, validation,
``satisfies_distinctness``) materialise dense arrays: they are
verification-path conveniences, documented O(N·m), never used by the
engines.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..middleware.database import (
    ColumnarDatabase,
    Database,
    ListMergeCursor,
    ShardedDatabase,
)
from ..middleware.errors import DatabaseError
from .cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_PAGE_ROWS,
    LRUPageCache,
    PagedMatrix,
    PagedVector,
    StoreSegment,
)
from .format import StoreReader, is_npz_file

__all__ = [
    "StoreBackedDatabase",
    "StoreBackedShardedDatabase",
    "open_store",
]


class _TrivialRowOf:
    """The identity id -> row mapping for stores whose object ids are
    exactly ``0 .. N-1``: answers ``get``/``in``/``len`` without an
    O(N) dict (the piece that keeps store opening O(1))."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def get(self, obj, default=None):
        if type(obj) is int and 0 <= obj < self._n:
            return obj
        return default

    def __contains__(self, obj) -> bool:
        return self.get(obj) is not None

    def __len__(self) -> int:
        return self._n


def _arm_core(db, reader: StoreReader, cache: LRUPageCache) -> None:
    """Shared constructor body of the store backends: wire the paged
    grade matrix and the id <-> row translation without touching data
    (``ColumnarDatabase._init_core``'s O(N) copies are bypassed)."""
    db._reader = reader
    db._page_cache = cache
    n, m = reader.num_objects, reader.num_lists
    db._m = m
    db._matrix = PagedMatrix(  # type: ignore[assignment]
        StoreSegment(reader, "grades", cache), cache
    )
    ids = reader.object_ids()
    if ids is None:
        db._ids = range(n)  # type: ignore[assignment]
        db._row_of = _TrivialRowOf(n)  # type: ignore[assignment]
        db._trivial_ids = True
    else:
        db._ids = ids
        db._row_of = {obj: row for row, obj in enumerate(ids)}
        db._trivial_ids = all(
            type(obj) is int and obj == row for row, obj in enumerate(ids)
        )
    db._position0_rows = None


def _paged_order(
    reader: StoreReader, cache: LRUPageCache, i: int
) -> tuple[PagedVector, PagedVector]:
    return (
        PagedVector(
            StoreSegment(reader, f"order_rows/{i}", cache),
            cache,
            dtype=np.intp,
        ),
        PagedVector(
            StoreSegment(reader, f"order_grades/{i}", cache), cache
        ),
    )


class _PagedOps:
    """Verification-path overrides shared by both store backends: the
    inherited implementations assume ``_matrix`` supports ufuncs, so
    these materialise a dense copy first (documented O(N·m) -- never
    on an engine path)."""

    def _dense(self) -> np.ndarray:
        return np.asarray(self._matrix, dtype=np.float64)

    def overall_grades(self, t) -> dict:
        t.check_arity(self._m)
        values = t.aggregate_batch(self._dense())
        return dict(zip(self._ids, values.tolist()))

    def top_k(self, t, k: int) -> list:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        t.check_arity(self._m)
        overall = t.aggregate_batch(self._dense())
        if self._position0_rows is None:
            n = len(self._ids)
            pos0 = np.empty(n, dtype=np.intp)
            pos0[np.asarray(self._order_rows[0], dtype=np.intp)] = (
                np.arange(n)
            )
            self._position0_rows = pos0
        order = np.lexsort((self._position0_rows, -overall))
        ids = self._ids
        return [(ids[r], float(overall[r])) for r in order[:k].tolist()]

    # ------------------------------------------------------------------
    # store introspection
    # ------------------------------------------------------------------
    @property
    def reader(self) -> StoreReader:
        return self._reader

    @property
    def page_cache(self) -> LRUPageCache:
        return self._page_cache

    def store_snapshot(self) -> dict:
        """JSON-safe store + cache state (surfaced by
        ``QueryService.stats()`` under the ``"store"`` key)."""
        snapshot = self._page_cache.snapshot()
        snapshot["path"] = str(self._reader.path)
        snapshot["format_version"] = self._reader.version
        snapshot["segments"] = len(self._reader.segments)
        snapshot["shards"] = self._reader.num_shards
        return snapshot


class StoreBackedDatabase(_PagedOps, ColumnarDatabase):
    """A :class:`~repro.middleware.database.ColumnarDatabase` whose
    matrix and order arrays live on disk behind an LRU page cache.

    ``validate=True`` materialises the store and runs the full in-RAM
    validation (order arrays against the matrix included) -- a
    suite-scale option, not for ≫-RAM files.
    """

    def __init__(
        self,
        reader: StoreReader | str | Path,
        *,
        cache: LRUPageCache | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        page_rows: int = DEFAULT_PAGE_ROWS,
        obs=None,
        validate: bool = False,
    ):
        if not isinstance(reader, StoreReader):
            reader = StoreReader(reader)
        if cache is None:
            cache = LRUPageCache(cache_bytes, page_rows, obs=obs)
        _arm_core(self, reader, cache)
        self._order_rows = []  # type: ignore[assignment]
        self._order_grades = []  # type: ignore[assignment]
        for i in range(self._m):
            rows, grades = _paged_order(reader, cache, i)
            self._order_rows.append(rows)
            self._order_grades.append(grades)
        if validate:
            self._validate()

    def _validate(self) -> None:
        dense = self._dense()
        order_rows = [
            np.asarray(rows, dtype=np.intp) for rows in self._order_rows
        ]
        checked = ColumnarDatabase(
            dense, list(self._ids), order_rows, validate=True
        )
        for i in range(self._m):
            if not np.array_equal(
                np.asarray(self._order_grades[i]), checked._order_grades[i]
            ):
                raise DatabaseError(
                    f"list {i}: stored order grades disagree with the "
                    "grade matrix"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StoreBackedDatabase N={self.num_objects} "
            f"m={self.num_lists} path={self._reader.path}>"
        )


class StoreBackedShardedDatabase(_PagedOps, ShardedDatabase):
    """A :class:`~repro.middleware.database.ShardedDatabase` over a
    sharded v3 store: per-(list, shard) run triples are paged vectors,
    and the persisted merged global orders pre-fill ``_merged_cache``
    so sorted access never re-merges (mirroring the legacy ``.npz``
    reader's sharded path) -- a query's resident set stays
    proportional to the prefix it consumes, not to ``N``.
    """

    def __init__(
        self,
        reader: StoreReader | str | Path,
        *,
        cache: LRUPageCache | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        page_rows: int = DEFAULT_PAGE_ROWS,
        obs=None,
        validate: bool = False,
    ):
        if not isinstance(reader, StoreReader):
            reader = StoreReader(reader)
        if reader.num_shards < 2:
            raise DatabaseError(
                f"{reader.path} carries no shard layout; open it as a "
                "StoreBackedDatabase"
            )
        if cache is None:
            cache = LRUPageCache(cache_bytes, page_rows, obs=obs)
        _arm_core(self, reader, cache)
        self._shard_bounds = np.asarray(reader.shard_bounds, dtype=np.intp)
        self._shard_matrices = [  # type: ignore[assignment]
            self._matrix.window(int(lo), int(hi))
            for lo, hi in zip(
                self._shard_bounds[:-1], self._shard_bounds[1:]
            )
        ]
        self._runs = [  # type: ignore[assignment]
            [
                (
                    PagedVector(
                        StoreSegment(reader, f"run_rows/{i}/{s}", cache),
                        cache,
                        dtype=np.intp,
                    ),
                    PagedVector(
                        StoreSegment(
                            reader, f"run_grades/{i}/{s}", cache
                        ),
                        cache,
                    ),
                    PagedVector(
                        StoreSegment(reader, f"run_ties/{i}/{s}", cache),
                        cache,
                        dtype=np.int64,
                    ),
                )
                for s in range(reader.num_shards)
            ]
            for i in range(self._m)
        ]
        # the persisted merged orders ARE the merge of the persisted
        # runs (validate=True checks that claim); handing them to the
        # merge cache means sorted access is pure paged slicing
        self._merged_cache = [  # type: ignore[assignment]
            _paged_order(reader, cache, i) for i in range(self._m)
        ]
        if validate:
            self._validate()

    def _validate(self) -> None:
        dense = self._dense()
        runs = [
            [
                (
                    np.asarray(rows, dtype=np.intp),
                    np.asarray(grades, dtype=np.float64),
                    np.asarray(ties, dtype=np.int64),
                )
                for rows, grades, ties in shard_runs
            ]
            for shard_runs in self._runs
        ]
        ShardedDatabase(
            dense,
            list(self._ids),
            self._shard_bounds,
            runs,
            validate=True,
        )
        for i in range(self._m):
            merged_rows, merged_grades = ListMergeCursor(runs[i]).drain()
            stored_rows, stored_grades = self._merged_cache[i]
            if not np.array_equal(
                np.asarray(stored_rows, dtype=np.intp), merged_rows
            ) or not np.array_equal(
                np.asarray(stored_grades), merged_grades
            ):
                raise DatabaseError(
                    f"list {i}: stored merged order disagrees with the "
                    "merge of the stored shard runs"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StoreBackedShardedDatabase N={self.num_objects} "
            f"m={self.num_lists} S={self.num_shards} "
            f"path={self._reader.path}>"
        )


def _load_legacy_npz(path: Path) -> Database:
    """Read a legacy v1/v2 ``.npz`` database fully into RAM.

    v2 files carry the per-list order arrays (and optionally a shard
    layout), so they come back as a
    :class:`~repro.middleware.database.ColumnarDatabase` -- or a
    :class:`~repro.middleware.database.ShardedDatabase` with the
    persisted layout -- built from the stored orderings: no re-sort,
    tie order intact.  v1 files (grades only) rebuild orderings with
    the deterministic stable sort of :meth:`Database.from_array`.
    Object ids were stored as strings; integer ids are restored.
    """
    with np.load(path, allow_pickle=False) as data:
        files = set(data.files)
        grades = data["grades"]
        ids = [
            int(obj) if is_int else str(obj)
            for obj, is_int in zip(
                data["object_ids"].tolist(), data["int_ids"].tolist()
            )
        ]
        if "order_rows" not in files:
            return Database.from_array(grades, object_ids=ids)
        order_rows = [
            np.asarray(rows, dtype=np.intp) for rows in data["order_rows"]
        ]
        shard_bounds = (
            np.asarray(data["shard_bounds"], dtype=np.intp)
            if "shard_bounds" in files
            else None
        )
    col = ColumnarDatabase(grades, ids, order_rows, validate=True)
    if shard_bounds is None:
        return col
    sharded = ShardedDatabase.from_database(col, shard_bounds=shard_bounds)
    # the shard runs are split from the loaded global orders, so the
    # merge would reproduce them bit-for-bit: hand them over instead
    sharded._merged_cache = [
        (col._order_rows[i], col._order_grades[i])
        for i in range(col.num_lists)
    ]
    return sharded


def open_store(
    path: str | Path,
    *,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    page_rows: int = DEFAULT_PAGE_ROWS,
    obs=None,
    validate: bool = False,
) -> Database:
    """Open a persisted database for querying, out-of-core when the
    file allows it.

    A v3 store file maps lazily behind an LRU page cache and comes
    back as a :class:`StoreBackedDatabase` (or
    :class:`StoreBackedShardedDatabase` when the store carries a shard
    layout).  Legacy v1/v2 ``.npz`` files -- recognised by their zip
    magic -- are read fully into RAM (same results); rewrite them with
    :func:`~repro.store.format.save_store` to get the out-of-core
    path.  Anything else raises
    :class:`~repro.middleware.errors.StoreFormatError`.
    """
    if is_npz_file(path):
        return _load_legacy_npz(Path(path))
    reader = StoreReader(path)
    cls = (
        StoreBackedShardedDatabase
        if reader.num_shards > 1
        else StoreBackedDatabase
    )
    return cls(
        reader,
        cache_bytes=cache_bytes,
        page_rows=page_rows,
        obs=obs,
        validate=validate,
    )
