"""Tests for the mutation plane and continuously-maintained views.

The contract under test (ISSUE: mutable backends + live views): after
*any* sequence of insert/update/delete/compact, a
:class:`~repro.middleware.mutable.MutableColumnarDatabase` or
:class:`~repro.middleware.mutable.MutableShardedDatabase` is
observationally bit-identical -- merged sorted orders, tie order,
engine results, AccessStats -- to a from-scratch database built over
the post-mutation grade matrix, and a :class:`~repro.views.LiveView`
over it always equals a from-scratch top-k run.  The stateful
hypothesis machine at the bottom drives random mutation interleavings
against that oracle, including v3 store save/open round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.aggregation import AVERAGE, MIN
from repro.core import NoRandomAccessAlgorithm, ThresholdAlgorithm
from repro.middleware import (
    ColumnarDatabase,
    Database,
    DatabaseError,
    MutableColumnarDatabase,
    MutableDatabase,
    MutableShardedDatabase,
    ShardedDatabase,
    UnknownListError,
    UnknownObjectError,
)
from repro.store import open_store, save_store
from repro.views import LiveView, ViewEvent
from tests.helpers import write_legacy_npz


BACKENDS = [MutableColumnarDatabase, MutableShardedDatabase]


def make_mutable(cls, matrix, **knobs):
    db = Database.from_array(np.asarray(matrix, dtype=np.float64))
    if cls is MutableShardedDatabase:
        return MutableShardedDatabase.from_database(db, num_shards=3, **knobs)
    return MutableColumnarDatabase.from_database(db, **knobs)


def scratch_equivalent(db):
    """A from-scratch immutable database over the live rows of ``db``
    (same ids, same grades, deterministic stable-sort tie order)."""
    ids, matrix = db.to_array()
    return Database.from_array(matrix, object_ids=ids)


def assert_database_parity(db):
    """``db`` must be observationally identical to its from-scratch
    equivalent: merged orders, sorted entries, grades, top-k."""
    oracle = scratch_equivalent(db)
    assert db.num_objects == oracle.num_objects
    assert set(db.objects) == set(oracle.objects)
    for i in range(db.num_lists):
        for pos in range(db.num_objects + 1):
            assert db.sorted_entry(i, pos) == oracle.sorted_entry(i, pos), (
                f"list {i} position {pos}"
            )
    for obj in oracle.objects:
        assert db.grade_vector(obj) == oracle.grade_vector(obj)
    k = min(5, db.num_objects)
    assert list(db.top_k(AVERAGE, k)) == list(oracle.top_k(AVERAGE, k))


def assert_view_parity(view, db, aggregation):
    """The view's current result must be bit-identical (items, grades,
    tie order) to a from-scratch top-k on ``db``'s current contents
    (views present the canonical order: grade descending, ties by
    list-0 position)."""
    oracle_db = scratch_equivalent(db)
    k = min(view.k, oracle_db.num_objects)
    want = oracle_db.top_k(aggregation, k) if k else []
    got = view.result.items
    assert len(got) == len(want)
    for mine, (obj, grade) in zip(got, want):
        assert mine.obj == obj
        assert mine.grade == grade
        assert mine.lower_bound == grade
        assert mine.upper_bound == grade


# ---------------------------------------------------------------------------
# the mutation ops
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", BACKENDS)
class TestMutationOps:
    def test_insert_appends_and_orders(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        db.insert("new", (0.8, 0.1))
        assert db.num_objects == 3
        assert db.grade_vector("new") == (0.8, 0.1)
        assert db.sorted_entry(0, 0) == ("new", 0.8)
        assert_database_parity(db)

    def test_update_moves_object(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        db.update_grade(1, 0, 0.99)
        assert db.grade_vector(1) == (0.99, 0.9)
        assert db.sorted_entry(0, 0) == (1, 0.99)
        assert_database_parity(db)

    def test_delete_removes_everywhere(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9], [0.7, 0.2]])
        db.delete(0)
        assert db.num_objects == 2
        assert 0 not in set(db.objects)
        with pytest.raises(UnknownObjectError):
            db.grade_vector(0)
        assert_database_parity(db)

    def test_reinsert_after_delete(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        db.delete(0)
        db.insert(0, (0.6, 0.6))
        assert db.grade_vector(0) == (0.6, 0.6)
        assert_database_parity(db)

    def test_version_advances_per_mutation(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        v0 = db.version
        db.insert("x", (0.1, 0.2))
        db.update_grade("x", 1, 0.5)
        db.delete("x")
        assert db.version == v0 + 3

    def test_invalid_mutations_rejected(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        with pytest.raises(DatabaseError):
            db.insert(0, (0.1, 0.2))  # duplicate id
        with pytest.raises(DatabaseError):
            db.insert("x", (0.1,))  # arity
        with pytest.raises(DatabaseError):
            db.insert("x", (0.1, 1.5))  # out of range
        with pytest.raises(DatabaseError):
            db.insert("y", (0.1, float("nan")))
        with pytest.raises(UnknownObjectError):
            db.update_grade("missing", 0, 0.5)
        with pytest.raises(UnknownListError):
            db.update_grade(0, 7, 0.5)  # bad list index
        with pytest.raises(UnknownObjectError):
            db.delete("missing")

    def test_listeners_see_every_mutation(self, cls):
        db = make_mutable(cls, [[0.5, 0.4], [0.3, 0.9]])
        events = []
        db.add_listener(events.append)
        db.insert("x", (0.2, 0.3))
        db.update_grade("x", 0, 0.7)
        db.delete("x")
        assert [e.kind for e in events] == ["insert", "update", "delete"]
        assert events[1].list_index == 0
        assert events[1].grades == (0.7, 0.3)
        assert events[2].grades == (0.7, 0.3)  # pre-deletion grades
        db.remove_listener(events.append)
        db.insert("y", (0.1, 0.1))
        assert len(events) == 3

    def test_compaction_is_observationally_invisible(self, cls):
        rng = np.random.default_rng(11)
        db = make_mutable(cls, rng.random((30, 3)), auto_compact=False)
        for step in range(20):
            db.update_grade(step % 30, step % 3, float(rng.random()))
        for obj in (3, 17, 25):
            db.delete(obj)
        before = [
            [db.sorted_entry(i, p) for p in range(db.num_objects)]
            for i in range(db.num_lists)
        ]
        top_before = list(db.top_k(MIN, 5))
        db.compact()
        after = [
            [db.sorted_entry(i, p) for p in range(db.num_objects)]
            for i in range(db.num_lists)
        ]
        assert before == after
        assert list(db.top_k(MIN, 5)) == top_before
        assert_database_parity(db)

    def test_auto_compaction_keeps_parity(self, cls):
        rng = np.random.default_rng(13)
        db = make_mutable(
            cls, rng.random((40, 2)), compact_min=8, compact_fraction=0.1
        )
        for step in range(60):
            obj = int(rng.integers(0, 40))
            if obj in set(db.objects):
                db.update_grade(obj, step % 2, float(rng.random()))
        assert_database_parity(db)

    def test_engine_run_matches_snapshot(self, cls):
        rng = np.random.default_rng(17)
        db = make_mutable(cls, rng.random((60, 3)))
        for step in range(25):
            db.update_grade(step % 60, step % 3, float(rng.random()))
        db.insert("fresh", (0.95, 0.91, 0.88))
        db.delete(5)
        snapshot = scratch_equivalent(db)
        for algo in (ThresholdAlgorithm, NoRandomAccessAlgorithm):
            mine = algo().run_on(db, AVERAGE, 7)
            theirs = algo().run_on(snapshot, AVERAGE, 7)
            assert [
                (it.obj, it.grade, it.lower_bound, it.upper_bound)
                for it in mine.items
            ] == [
                (it.obj, it.grade, it.lower_bound, it.upper_bound)
                for it in theirs.items
            ]
            assert mine.stats == theirs.stats


# ---------------------------------------------------------------------------
# construction / conversion surface
# ---------------------------------------------------------------------------
def test_from_database_round_trip():
    base = Database.from_rows(
        {"a": (0.9, 0.1), "b": (0.5, 0.5), "c": (0.1, 0.9)}
    )
    db = MutableColumnarDatabase.from_database(base)
    assert isinstance(db, MutableDatabase)
    assert isinstance(db, ColumnarDatabase)
    assert_database_parity(db)
    snap = db.to_columnar()
    assert type(snap) is ColumnarDatabase
    assert list(snap.objects) == list(db.objects)


def test_sharded_insert_lands_in_last_shard():
    rng = np.random.default_rng(23)
    db = MutableShardedDatabase.from_array(rng.random((12, 2)), num_shards=3)
    assert db.num_shards == 3
    db.insert("tail", (0.5, 0.5))
    assert db.num_shards == 3
    assert int(db.shard_bounds[-1]) == db.num_objects
    assert_database_parity(db)
    snap = db.snapshot()
    assert isinstance(snap, ShardedDatabase)
    assert snap.num_shards == 3


def _mutated_sharded():
    rng = np.random.default_rng(29)
    db = MutableShardedDatabase.from_array(rng.random((20, 3)), num_shards=2)
    for step in range(15):
        db.update_grade(step % 20, step % 3, float(rng.random()))
    db.delete(4)
    db.insert("zz", (0.33, 0.44, 0.55))
    return db


def _assert_reloads_identically(loaded, db):
    assert isinstance(loaded, ShardedDatabase)
    assert np.array_equal(loaded.shard_bounds, db.shard_bounds)
    snap = db.to_columnar()
    loaded_col = loaded.to_columnar()
    np.testing.assert_array_equal(loaded_col._matrix, snap._matrix)
    assert list(loaded.objects) == list(snap.objects)
    for i in range(db.num_lists):
        for pos in range(db.num_objects):
            assert loaded.sorted_entry(i, pos) == db.sorted_entry(i, pos)


def test_store_round_trip_after_mutations(tmp_path):
    db = _mutated_sharded()
    path = tmp_path / "mutated.store"
    save_store(db, path)
    _assert_reloads_identically(open_store(path, validate=True), db)


def test_npz_round_trip_after_mutations(tmp_path):
    """A legacy v2 file of a mutated database (as the retired npz
    writer produced it: compacted rows and shard layout) still reads
    back identically."""
    db = _mutated_sharded()
    path = tmp_path / "mutated.npz"
    write_legacy_npz(db, path)
    _assert_reloads_identically(open_store(path), db)


def test_from_columns_rejects_adversarial_tie_order():
    # an explicit ordering that breaks ascending-row tie placement is
    # not representable by the delta-merge tie key and must be refused:
    # list 0 fixes storage rows a=0, b=1; list 1 then places the tied
    # pair as b-before-a (descending row order)
    columns = [
        [("a", 0.9), ("b", 0.8)],
        [("b", 0.5), ("a", 0.5)],
    ]
    with pytest.raises(DatabaseError):
        MutableColumnarDatabase.from_columns(columns)
    # the same ordering is fine for the immutable backends
    Database.from_columns(columns)
    ColumnarDatabase.from_columns(columns)
    # the legal placement (ties in row order) constructs fine
    db = MutableColumnarDatabase.from_columns(
        [
            [("a", 0.9), ("b", 0.8)],
            [("a", 0.5), ("b", 0.5)],
        ]
    )
    assert_database_parity(db)


# ---------------------------------------------------------------------------
# LiveView
# ---------------------------------------------------------------------------
def test_live_view_requires_mutable_database():
    db = Database.from_array(np.random.default_rng(1).random((5, 2)))
    with pytest.raises(DatabaseError):
        LiveView(db, ThresholdAlgorithm, MIN, k=2)


def test_live_view_emits_add_change_remove():
    db = make_mutable(
        MutableColumnarDatabase,
        [[0.9, 0.9], [0.8, 0.8], [0.2, 0.2], [0.1, 0.1]],
    )
    events: list[ViewEvent] = []
    view = LiveView(db, ThresholdAlgorithm, MIN, k=2, on_event=events.append)
    assert events == []  # the initial snapshot is silent
    db.insert("hot", (0.95, 0.95))  # enters the window, evicts obj 1
    kinds = sorted(e.kind for e in events)
    # obj 0 slides from rank 0 to rank 1: a change event
    assert kinds == ["add", "change", "remove"]
    added = next(e for e in events if e.kind == "add")
    assert added.obj == "hot" and added.rank == 0
    removed = next(e for e in events if e.kind == "remove")
    assert removed.obj == 1 and removed.rank is None
    events.clear()
    db.update_grade("hot", 0, 0.93)  # stays top-1, grade changes
    assert [e.kind for e in events] == ["change"]
    events.clear()
    db.delete("hot")
    assert {"remove", "add"} <= {e.kind for e in events}
    assert_view_parity(view, db, MIN)
    view.close()
    db.insert("late", (0.99, 0.99))
    assert not any(e.obj == "late" for e in events)


def test_live_view_certificate_skips_irrelevant_mutations():
    rng = np.random.default_rng(31)
    db = make_mutable(MutableColumnarDatabase, rng.random((400, 2)))
    view = LiveView(db, ThresholdAlgorithm, AVERAGE, k=5)
    floor = view.floor
    assert floor > 0.5  # top-5 of 400 uniform rows sits well above 0.5
    refreshes = view.refreshes
    for obj in range(200):  # far below the certificate floor
        if obj not in view._members:
            db.update_grade(obj, 0, 0.01)
    assert view.refreshes == refreshes  # certificate held: zero re-runs
    assert view.mutations_seen >= 190
    db.insert("champion", (1.0, 1.0))  # above the floor: must refresh
    assert view.refreshes == refreshes + 1
    assert view.items[0].obj == "champion"
    assert_view_parity(view, db, AVERAGE)


def test_live_view_callbacks_split_by_kind():
    db = make_mutable(MutableColumnarDatabase, [[0.9, 0.9], [0.1, 0.1]])
    adds, changes, removes = [], [], []
    LiveView(
        db,
        ThresholdAlgorithm,
        MIN,
        k=1,
        on_add=adds.append,
        on_change=changes.append,
        on_remove=removes.append,
    )
    db.insert("top", (1.0, 1.0))
    db.update_grade("top", 0, 0.99)
    db.delete("top")
    assert [e.obj for e in adds] == ["top", 0]
    assert [e.obj for e in changes] == ["top"]
    assert [e.obj for e in removes] == [0, "top"]


def test_live_view_small_database_keeps_window_full():
    db = make_mutable(MutableColumnarDatabase, [[0.9, 0.9], [0.1, 0.1]])
    view = LiveView(db, NoRandomAccessAlgorithm, MIN, k=5)
    assert len(view.items) == 2  # k > n: the whole database
    db.insert("c", (0.5, 0.5))
    assert len(view.items) == 3  # incomplete window always refreshes
    assert_view_parity(view, db, MIN)
    db.delete(0)
    db.delete(1)
    assert_view_parity(view, db, MIN)


@pytest.mark.parametrize("cls", BACKENDS)
def test_live_view_differential_random_stream(cls):
    rng = np.random.default_rng(37)
    db = make_mutable(cls, rng.random((120, 3)))
    views = [
        (LiveView(db, ThresholdAlgorithm, AVERAGE, k=6),
         ThresholdAlgorithm, AVERAGE),
        (LiveView(db, NoRandomAccessAlgorithm, MIN, k=4),
         NoRandomAccessAlgorithm, MIN),
    ]
    next_id = 0
    for _ in range(80):
        action = rng.choice(["insert", "update", "delete"], p=[0.2, 0.6, 0.2])
        objects = list(db.objects)
        if action == "insert" or len(objects) < 3:
            db.insert(f"n{next_id}", tuple(rng.random(3)))
            next_id += 1
        elif action == "update":
            obj = objects[int(rng.integers(len(objects)))]
            db.update_grade(obj, int(rng.integers(3)), float(rng.random()))
        else:
            db.delete(objects[int(rng.integers(len(objects)))])
        for view, algo, agg in views:
            assert_view_parity(view, db, agg)
    # the certificate must have saved the vast majority of re-runs
    for view, _algo, _agg in views:
        assert view.refreshes < view.mutations_seen / 2


# ---------------------------------------------------------------------------
# the stateful parity machine (ISSUE satellite: RuleBasedStateMachine)
# ---------------------------------------------------------------------------
class MutableParityMachine(RuleBasedStateMachine):
    """Random insert/update/delete/compact interleavings on both
    mutable backends, with live views attached and store round-trips in
    the loop.  After every step, every view must equal a from-scratch
    top-k on the current database and persistence must reload
    bit-identically."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(41)
        matrix = rng.integers(0, 8, (12, 2)) / 7.0  # ties are likely
        self.dbs = [
            make_mutable(
                MutableColumnarDatabase, matrix,
                compact_min=6, compact_fraction=0.25,
            ),
            make_mutable(
                MutableShardedDatabase, matrix,
                compact_min=6, compact_fraction=0.25,
            ),
        ]
        self.views = [
            (LiveView(db, ThresholdAlgorithm, AVERAGE, k=4),
             ThresholdAlgorithm, AVERAGE)
            for db in self.dbs
        ] + [
            (LiveView(db, NoRandomAccessAlgorithm, MIN, k=3),
             NoRandomAccessAlgorithm, MIN)
            for db in self.dbs
        ]
        self.next_id = 0

    @rule(grades=st.tuples(st.integers(0, 7), st.integers(0, 7)))
    def insert(self, grades):
        self.next_id += 1
        vector = tuple(g / 7.0 for g in grades)
        for db in self.dbs:
            db.insert(f"obj-{self.next_id}", vector)

    @rule(pick=st.integers(0, 10**6), list_index=st.integers(0, 1),
          grade=st.integers(0, 7))
    def update(self, pick, list_index, grade):
        objects = sorted(self.dbs[0].objects, key=str)
        obj = objects[pick % len(objects)]
        for db in self.dbs:
            db.update_grade(obj, list_index, grade / 7.0)

    @precondition(lambda self: self.dbs[0].num_objects > 2)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        objects = sorted(self.dbs[0].objects, key=str)
        obj = objects[pick % len(objects)]
        for db in self.dbs:
            db.delete(obj)

    @rule(which=st.integers(0, 1))
    def compact(self, which):
        self.dbs[which].compact()

    @rule(which=st.integers(0, 1))
    def store_round_trip(self, which):
        import tempfile
        from pathlib import Path

        db = self.dbs[which]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.store"
            save_store(db, path)
            # read while the file exists: the store maps it lazily
            loaded = open_store(path, validate=True)
            snap = db.to_columnar()
            np.testing.assert_array_equal(
                loaded.to_columnar()._matrix, snap._matrix
            )
            assert list(loaded.objects) == list(snap.objects)
            for i in range(db.num_lists):
                for pos in range(db.num_objects):
                    assert loaded.sorted_entry(i, pos) == db.sorted_entry(
                        i, pos
                    )

    @invariant()
    def backends_agree_and_views_match_scratch(self):
        reference = None
        for db in self.dbs:
            assert_database_parity(db)
            ids, matrix = db.to_array()
            if reference is None:
                reference = (ids, matrix)
            else:
                assert ids == reference[0]
                np.testing.assert_array_equal(matrix, reference[1])
        for view, algo, agg in self.views:
            assert_view_parity(view, self._db_of(view), agg)

    def _db_of(self, view):
        return view._db

    def teardown(self):
        for view, _algo, _agg in self.views:
            view.close()


def test_mutable_parity_state_machine():
    run_state_machine_as_test(
        MutableParityMachine,
        settings=settings(
            max_examples=10,
            stateful_step_count=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
