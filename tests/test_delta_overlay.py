"""Differential tests: SnapshotManager (base + delta) ≡ scalar ClippedRTree.

The delta overlay's one promise is that buffering writes must be
invisible to readers: after any interleaving of inserts, deletes,
queries, and compactions, a manager answers exactly like a scalar
``ClippedRTree`` maintained with the same operations.  The manager's
*tree* may legitimately diverge structurally (compaction applies the
buffered batch in one pass, the scalar reference one write at a time),
so clip-store equality is pinned against a fresh ``clip_all`` over the
manager's own tree, while query results are pinned against the scalar
reference and brute force.  Reads and joins over a manager with pending
inserts and tombstones, on a tree or a loaded snapshot and mid-fold, are
rows of the conformance matrix (``tests/test_backend_conformance.py``);
this suite keeps the write rules, compaction races, an empty base, block
sizes and the fold.
"""

import copy
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ColumnarIndex, build_columnar_str, load_snapshot, save_snapshot
from repro.engine import delta
from repro.engine.delta import (
    CompactionInProgressError,
    DeltaOverlay,
    SnapshotManager,
    overlay_join,
)
from repro.engine.kernels import stack_bounds
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.query.knn import knn_query
from repro.query.range_query import brute_force_range
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.stats import IOStats
from tests.conftest import assert_knn_contract, object_key


def _random_object(rng, oid):
    low = (rng.uniform(0, 100), rng.uniform(0, 100))
    high = (low[0] + rng.uniform(0, 6), low[1] + rng.uniform(0, 6))
    return SpatialObject(oid, Rect(low, high))


def _keys(hits):
    return sorted(map(object_key, hits))


def _queries(rng, count=8):
    out = []
    for _ in range(count):
        cx, cy = rng.uniform(0, 100), rng.uniform(0, 100)
        size = rng.uniform(2, 30)
        out.append(Rect((cx, cy), (cx + size, cy + size)))
    return out


def _assert_matches_scalar(manager, reference, live, rng):
    queries = _queries(rng)
    stats = IOStats()
    batched = manager.range_query_batch(queries, stats=stats)
    for query, hits in zip(queries, batched):
        expected = _keys(reference.range_query(query))
        assert _keys(hits) == expected
        assert expected == _keys(brute_force_range(live, query))
    if live:
        assert stats.leaf_accesses > 0
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(4)]
    k = min(5, len(live)) or 1
    for point, hits in zip(points, manager.knn_batch(points, k)):
        expected = knn_query(reference.tree, point, k)
        assert sorted((d, o.oid) for d, o in hits) == sorted(
            (d, o.oid) for d, o in expected
        )
    assert len(manager) == len(live) == len(reference)


class TestInterleavedUpdates:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(VARIANT_NAMES),
        # 1 is a freeze per write: the baseline of the update experiments.
        st.sampled_from([None, 1, 7, 13]),
    )
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_interleaving_matches_scalar(self, seed, variant, compact_every):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(40)]
        # Duplicates (same oid AND rect) are different rows of the base.
        live += [SpatialObject(o.oid, o.rect) for o in live[:4]]
        reference = ClippedRTree.wrap(
            build_rtree(variant, live, max_entries=6), method="stairline"
        )
        manager = SnapshotManager(copy.deepcopy(reference), compact_every=compact_every)
        next_oid = 1000
        for step in range(50):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                reference.delete(victim)
                assert manager.delete(victim)
            else:
                obj = _random_object(rng, next_oid)
                next_oid += 1
                live.append(obj)
                reference.insert(obj)
                manager.insert(obj)
            if step % 17 == 16:
                _assert_matches_scalar(manager, reference, live, rng)
            if compact_every is None and rng.random() < 0.08:
                manager.compact()
        _assert_matches_scalar(manager, reference, live, rng)

        # After a final fold the manager's store must equal a full clipping
        # pass over its own tree, and hold every invariant.
        manager.compact()
        assert manager.pending_ops == 0
        source = manager._source
        recomputed = ClippedRTree(copy.deepcopy(source.tree), source.config)
        recomputed.clip_all()
        assert dict(source.store.items()) == dict(recomputed.store.items())
        source.check_clip_invariants()
        source.tree.check_invariants()
        _assert_matches_scalar(manager, reference, live, rng)


class TestEdgeCases:
    def _manager(self, seed=3, count=25, **kwargs):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(count)]
        clipped = ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=6), method="stairline"
        )
        return live, SnapshotManager(clipped, **kwargs)

    def test_empty_delta_compact_is_noop(self):
        _, manager = self._manager()
        epoch = manager.epoch
        stats = manager.compact()
        assert (stats.applied_inserts, stats.applied_deletes, stats.reclipped_nodes) == (0, 0, 0)
        assert manager.epoch == epoch

    def test_delete_unknown_object_returns_false(self):
        rng = random.Random(11)
        _, manager = self._manager()
        ghost = _random_object(rng, 9999)
        assert not manager.delete(ghost)
        assert manager.pending_ops == 0
        manager.insert(ghost)
        assert manager.delete(ghost)
        # A second delete of the same object must fail again.
        assert not manager.delete(ghost)

    def test_insert_then_delete_in_overlay_cancels_out(self):
        rng = random.Random(12)
        live, manager = self._manager()
        obj = _random_object(rng, 777)
        manager.insert(obj)
        assert manager.delete(obj)
        assert manager.overlay.deleted_count == 0
        assert _keys(manager.live_objects()) == _keys(live)
        stats = manager.compact()
        assert (stats.applied_inserts, stats.applied_deletes) == (0, 0)

    def test_compaction_with_nothing_to_fold_clears_the_pending_count(self):
        """Regression: an insert deleted again left two ops pending in an
        empty overlay, and the no-op compaction kept them, so the next
        single write compacted again."""
        rng = random.Random(15)
        _, manager = self._manager(compact_every=2)
        obj = _random_object(rng, 778)
        manager.insert(obj)
        assert manager.delete(obj)  # the second write: a compaction with nothing to fold
        assert manager.pending_ops == 0
        epoch = manager.epoch
        manager.insert(_random_object(rng, 779))
        assert manager.pending_ops == 1
        assert manager.epoch == epoch

    def test_delete_everything(self):
        live, manager = self._manager()
        for obj in live:
            assert manager.delete(obj)
        assert len(manager) == 0
        query = Rect((0, 0), (200, 200))
        assert manager.range_query(query) == []
        assert manager.knn_batch([(50, 50)], 3) == [[]]
        manager.compact()
        assert len(manager) == 0
        assert manager.range_query(query) == []
        # The emptied index keeps accepting writes.
        obj = _random_object(random.Random(1), 42)
        manager.insert(obj)
        assert _keys(manager.range_query(query)) == _keys([obj])

    def test_duplicate_objects_delete_one_copy_at_a_time(self):
        rng = random.Random(13)
        obj = _random_object(rng, 1)
        live = [obj, SpatialObject(obj.oid, obj.rect), _random_object(rng, 2)]
        clipped = ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=4), method="stairline"
        )
        manager = SnapshotManager(clipped)
        assert manager.delete(obj)
        hits = manager.range_query(obj.rect)
        assert sum(1 for o in hits if object_key(o) == object_key(obj)) == 1
        assert manager.delete(obj)
        assert not manager.delete(obj)

    def test_source_free_manager(self):
        rng = random.Random(14)
        live = [_random_object(rng, i) for i in range(30)]
        manager = SnapshotManager(build_columnar_str(live, max_entries=8))
        extra = [_random_object(rng, 100 + i) for i in range(10)]
        for obj in extra:
            manager.insert(obj)
        victims = live[:8]
        for obj in victims:
            assert manager.delete(obj)
        expected_live = live[8:] + extra
        for query in _queries(rng, 5):
            assert _keys(manager.range_query(query)) == _keys(
                brute_force_range(expected_live, query)
            )
        manager.compact()
        assert not manager.snapshot.is_stale
        for query in _queries(rng, 5):
            assert _keys(manager.range_query(query)) == _keys(
                brute_force_range(expected_live, query)
            )

    def test_rejects_unknown_engine_and_bad_compact_every(self):
        live, _ = self._manager()
        clipped = ClippedRTree.wrap(build_rtree("quadratic", live, max_entries=6))
        # "delta" is the one value the keyword still takes (perf/ spells it).
        for engine in ("lazy", "refreeze"):
            with pytest.raises(ValueError):
                SnapshotManager(clipped, update_engine=engine)
        with pytest.raises(ValueError):
            SnapshotManager(clipped, compact_every=0)

    def test_overlay_rejects_dimension_mismatch(self):
        """On every write, overlay's or manager's: ``delete`` used to answer
        False where ``insert`` raised."""
        live, manager = self._manager()
        overlay = manager.overlay
        assert isinstance(overlay, DeltaOverlay)
        bad = SpatialObject(live[0].oid, Rect((0, 0, 0), (1, 1, 1)))
        for write in (overlay.insert, overlay.delete, manager.insert, manager.delete):
            with pytest.raises(ValueError, match="dims"):
                write(bad)
        assert manager.pending_ops == 0
        assert _keys(manager.live_objects()) == _keys(live)

    def test_writes_refuse_anything_but_a_spatial_object(self):
        """Regression: a ``Rect`` has ``dims`` too, so ``manager.insert(rect)``
        passed the dimension check, was acknowledged, and then failed every
        read of the manager with an ``AttributeError``."""
        live, manager = self._manager()
        overlay = manager.overlay
        for payload in (live[0].rect, (live[0].oid, live[0].rect), None):
            for write in (overlay.insert, overlay.delete, manager.insert, manager.delete):
                with pytest.raises(TypeError, match="SpatialObject"):
                    write(payload)
        assert manager.pending_ops == 0
        assert _keys(manager.live_objects()) == _keys(live)
        everything = Rect((-INF, -INF), (INF, INF))
        assert _keys(manager.range_query_batch([everything])[0]) == _keys(live)

    @pytest.mark.parametrize("base_size", [0, 25])
    def test_reads_reject_dimension_mismatch(self, base_size):
        """An empty base is skipped, and used to take its check with it:
        the overlay's scalar kNN answered a 3-d probe of a 2-d index."""
        rng = random.Random(15)
        tree = QuadraticRTree(2)
        for i in range(base_size):
            tree.insert(_random_object(rng, i))
        manager = SnapshotManager(tree)
        manager.insert(_random_object(rng, 500))
        with pytest.raises(ValueError):
            manager.knn_batch([[0.0, 0.0, 0.0]], 1)
        with pytest.raises(ValueError):
            manager.range_query_batch([Rect((0, 0, 0), (1, 1, 1))])
        assert len(manager.knn_batch([[0.0, 0.0]], 1)[0]) == 1


# ----------------------------------------------------------------------
# writes racing a compaction: applied at once, replayed at the swap
# ----------------------------------------------------------------------


class TestCompactionConcurrency:
    """Pins the documented mid-compaction write contract.

    The ``compaction_fault_hook`` fires inside ``compact()`` after the
    compacting flag is set but before the source tree is touched, which
    makes it the perfect stand-in for "another thread runs while the
    fold is in flight": everything a concurrent writer could attempt is
    attempted from the hook, and everything a mid-fold crash could
    corrupt is checked after raising from it.
    """

    def _manager(self, count=30, seed=5):
        rng = random.Random(seed)
        objects = [_random_object(rng, i) for i in range(count)]
        manager = SnapshotManager(build_rtree("quadratic", objects, max_entries=6))
        return rng, objects, manager

    def test_insert_during_compaction_lands_in_current_overlay(self):
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        staged = _random_object(rng, 2000)

        def racer():
            manager.insert(staged)  # staged, not dropped, not applied twice

        manager.compaction_fault_hook = racer
        stats = manager.compact()
        manager.compaction_fault_hook = None

        assert stats.applied_inserts == 1  # only the pre-compaction insert folded
        assert manager.epoch == 1
        # the staged insert replayed into the fresh overlay: pending, visible
        assert manager.pending_ops == 1
        hits = manager.range_query(staged.rect)
        assert staged.oid in {o.oid for o in hits}
        assert {o.oid for o in hits if o.oid == staged.oid} == {staged.oid}
        # folding it later applies it exactly once
        manager.compact()
        assert manager.pending_ops == 0
        again = manager.range_query(staged.rect)
        assert sum(1 for o in again if o.oid == staged.oid) == 1

    @pytest.mark.parametrize("crash", [False, True])
    def test_insert_acknowledged_mid_compaction_is_readable_at_once(self, crash):
        """Regression: a staged insert was on the replay list only, so
        between its acknowledgement and the swap no read returned it."""
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        late = _random_object(rng, 2000)
        centre = late.rect.center

        def count(hits):
            return sum(1 for obj in hits if obj.oid == late.oid)

        def racer():
            manager.insert(late)
            assert count(manager.range_query(late.rect)) == 1
            assert count(obj for _, obj in manager.knn_batch([centre], 3)[0]) == 1
            if crash:
                raise RuntimeError("compaction crashed mid-fold")

        manager.compaction_fault_hook = racer
        if crash:
            with pytest.raises(RuntimeError, match="crashed mid-fold"):
                manager.compact()
        else:
            assert manager.compact().applied_inserts == 1  # its own input excludes `late`
        manager.compaction_fault_hook = None
        assert manager.epoch == (0 if crash else 1)
        assert manager.pending_ops == (2 if crash else 1)
        for _ in range(2):  # before and after the fold that applies it
            assert count(manager.range_query(late.rect)) == 1
            assert count(obj for _, obj in manager.knn_batch([centre], 3)[0]) == 1
            manager.compact()
        assert manager.pending_ops == 0

    @pytest.mark.parametrize("crash", [False, True])
    def test_delete_acknowledged_mid_compaction_is_applied_at_once(self, crash):
        """A mid-fold delete answers as outside a fold, is read at once,
        survives the swap (or the crash) and is folded exactly once."""
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        victim = objects[0]
        centre = victim.rect.center

        def count():
            in_range = sum(1 for obj in manager.range_query(victim.rect) if obj.oid == victim.oid)
            nearest = manager.knn_batch([centre], 3)[0]
            return in_range, sum(1 for _, obj in nearest if obj.oid == victim.oid)

        def racer():
            assert manager.delete(victim) is True
            assert count() == (0, 0)
            if crash:
                raise RuntimeError("compaction crashed mid-fold")

        manager.compaction_fault_hook = racer
        if crash:
            with pytest.raises(RuntimeError, match="crashed mid-fold"):
                manager.compact()
        else:
            stats = manager.compact()
            assert (stats.applied_inserts, stats.applied_deletes) == (1, 0)  # its input only
        manager.compaction_fault_hook = None
        assert manager.epoch == (0 if crash else 1)
        assert manager.pending_ops == (2 if crash else 1)
        assert count() == (0, 0)
        assert manager.compact().applied_deletes == 1
        assert manager.pending_ops == 0 and count() == (0, 0)
        assert not manager.delete(victim)

    def test_a_mid_fold_delete_of_the_folds_own_insert_survives_the_swap(self):
        """The fold's input holds A; the delete removes A from the overlay
        it reads, so only a replay of the delete removes A after the swap."""
        rng, objects, manager = self._manager()
        a, b = _random_object(rng, 1000), _random_object(rng, 1001)
        manager.insert(a)
        manager.insert(b)
        assert manager.compact_step() and manager.compacting
        assert manager.delete(a)
        stats = manager.compact()
        assert (stats.applied_inserts, stats.applied_deletes) == (2, 0)

        def present(obj):
            return sum(1 for hit in manager.range_query(obj.rect) if hit.oid == obj.oid)

        assert (present(a), present(b)) == (0, 1)
        assert manager.pending_ops == 1 and len(manager) == len(objects) + 1
        assert manager.compact().applied_deletes == 1
        assert (present(a), present(b)) == (0, 1) and manager.pending_ops == 0
        assert not manager.delete(a)

    def test_reentrant_compact_raises(self):
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        outcome = {}

        def racer():
            with pytest.raises(CompactionInProgressError, match="already running"):
                manager.compact()
            outcome["raised"] = True

        manager.compaction_fault_hook = racer
        stats = manager.compact()
        manager.compaction_fault_hook = None
        assert outcome == {"raised": True}
        assert stats.applied_inserts == 1
        assert manager.epoch == 1

    def test_crash_mid_compaction_preserves_view_and_staged_inserts(self):
        rng, objects, manager = self._manager()
        pending = _random_object(rng, 1000)
        manager.insert(pending)
        staged = _random_object(rng, 2000)
        before_epoch = manager.epoch
        before_snapshot = manager.view[0]

        def crasher():
            manager.insert(staged)
            raise RuntimeError("compaction crashed mid-fold")

        manager.compaction_fault_hook = crasher
        with pytest.raises(RuntimeError, match="crashed mid-fold"):
            manager.compact()
        manager.compaction_fault_hook = None

        # published view unchanged; nothing folded; nothing lost
        assert manager.epoch == before_epoch
        assert manager.view[0] is before_snapshot
        assert manager.total_compactions == 0
        assert manager.pending_ops == 2  # the original insert + the staged one
        for obj in (pending, staged):
            assert obj.oid in {o.oid for o in manager.range_query(obj.rect)}

        # the crash consumed nothing: a retry folds the full delta once
        stats = manager.compact()
        assert stats.applied_inserts == 2
        assert manager.epoch == before_epoch + 1
        assert manager.pending_ops == 0
        for obj in (pending, staged):
            hits = manager.range_query(obj.rect)
            assert sum(1 for o in hits if o.oid == obj.oid) == 1

    def test_mid_compaction_insert_validates_dims(self):
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        bad = SpatialObject(3000, Rect((0, 0, 0), (1, 1, 1)))
        outcome = {}

        def racer():
            with pytest.raises(ValueError, match="dims"):
                manager.insert(bad)
            outcome["raised"] = True

        manager.compaction_fault_hook = racer
        manager.compact()
        manager.compaction_fault_hook = None
        assert outcome == {"raised": True}
        assert manager.pending_ops == 0  # the bad insert was never staged


# ----------------------------------------------------------------------
# pending inserts are a buffer: one dense pass per read batch
# ----------------------------------------------------------------------


INF = float("inf")


class TestPendingBuffer:
    """Reads answer the pending inserts from one dense pass over the buffer:
    base hits first, then pending hits in arrival order, and kNN ties among
    pending inserts in arrival order behind the base's."""

    @staticmethod
    def _pending_objects(rng):
        """Random, duplicate, zero-extent and ±inf-bounded inserts."""
        objects = [_random_object(rng, 500 + i) for i in range(30)]
        twin = objects[3]
        objects += [SpatialObject(twin.oid, twin.rect) for _ in range(2)]
        objects += [
            SpatialObject(600, Rect((20.0, 20.0), (20.0, 20.0))),
            SpatialObject(601, Rect((20.0, 20.0), (20.0, 20.0))),
            SpatialObject(602, Rect((-INF, 10.0), (5.0, 12.0))),
            SpatialObject(603, Rect((50.0, 50.0), (INF, INF))),
            SpatialObject(604, Rect((INF, 0.0), (INF, 100.0))),
            SpatialObject(605, Rect((-INF, -INF), (INF, INF))),
        ]
        rng.shuffle(objects)
        return objects

    def _scenario(self, base_size, seed=41):
        """``(manager, live base objects, pending inserts in arrival order)``."""
        rng = random.Random(seed)
        base = [_random_object(rng, i) for i in range(base_size)]
        tree = build_rtree("quadratic", base, max_entries=6) if base else QuadraticRTree(2)
        manager = SnapshotManager(ClippedRTree.wrap(tree, method="stairline"))
        pending = self._pending_objects(rng)
        for obj in pending:
            manager.insert(obj)
        # A pending insert deleted again: the first equal copy goes.
        twin = next(obj for obj in pending if pending.count(obj) > 1)
        assert manager.delete(SpatialObject(twin.oid, twin.rect))
        pending.remove(twin)
        # Deleting a pending one that is not there falls through to the base.
        assert not manager.delete(SpatialObject(9_999, twin.rect))
        live = list(base)
        for victim in base[:5]:
            assert manager.delete(victim)
            live.remove(victim)
        assert [id(obj) for obj in manager.overlay.inserted_objects()] == [
            id(obj) for obj in pending
        ]
        return manager, live, pending, rng

    @staticmethod
    def _boxes(rng):
        return _queries(rng, 12) + [
            Rect((-INF, -INF), (INF, INF)),
            Rect((20.0, 20.0), (20.0, 20.0)),
            Rect((90.0, -5.0), (INF, 5.0)),
        ]

    @staticmethod
    def _points(rng):
        return [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(6)] + [
            (20.0, 20.0),
            (INF, 50.0),
            (-INF, 11.0),
            (INF, INF),
            (-INF, -INF),
        ]

    def _assert_reads(self, manager, live, pending, rng):
        snapshot, overlay = manager.view
        queries = self._boxes(rng)
        base_only = (
            snapshot.range_query_batch(queries, live=overlay.live)
            if len(snapshot.objects)
            else [[] for _ in queries]
        )
        for query, got, base in zip(queries, manager.range_query_batch(queries), base_only):
            want = base + [obj for obj in pending if obj.rect.intersects(query)]
            assert [id(obj) for obj in got] == [id(obj) for obj in want]
            assert Counter(map(object_key, got)) == Counter(
                map(object_key, brute_force_range(live + pending, query))
            )
        points = self._points(rng)
        for k in (1, 3, 8, len(pending) + 4):
            base_near = (
                snapshot.knn_batch(points, k, live=overlay.live)
                if len(snapshot.objects)
                else [[] for _ in points]
            )
            got_all = manager.knn_batch(points, k)
            for point, got, base in zip(points, got_all, base_near):
                # Stable sorts: pending ties in arrival order, base first.
                near = sorted(
                    ((obj.rect.min_distance_sq(point), obj) for obj in pending),
                    key=lambda pair: pair[0],
                )
                want = sorted(base + near[:k], key=lambda pair: pair[0])[:k]
                assert [(d, id(o)) for d, o in got] == [(d, id(o)) for d, o in want]
                every = sorted(obj.rect.min_distance_sq(point) for obj in live + pending)
                assert [d for d, _ in got] == every[:k]

    def test_reads_over_an_empty_base_equal_brute_force(self):
        manager, live, pending, rng = self._scenario(0)
        self._assert_reads(manager, live, pending, rng)

    @pytest.mark.parametrize("base_size", [0, 40])
    def test_batches_larger_than_a_block_answer_alike(self, base_size, monkeypatch):
        manager, live, pending, rng = self._scenario(base_size)
        state = rng.getstate()
        queries, points = self._boxes(rng), self._points(rng)
        ranges, nearest = manager.range_query_batch(queries), manager.knn_batch(points, 4)
        # One request per block, and a few requests per block.
        for cells in (1, 3 * len(pending)):
            monkeypatch.setattr(delta, "_PENDING_BLOCK_CELLS", cells)
            assert manager.range_query_batch(queries) == ranges
            assert manager.knn_batch(points, 4) == nearest
            rng.setstate(state)
            self._assert_reads(manager, live, pending, rng)

    @pytest.mark.parametrize("algorithm", ["inlj", "stt"])
    def test_join_pairs_over_an_empty_base_equal_brute_force(self, algorithm):
        left, left_live, left_pending, _ = self._scenario(0, seed=42)
        right, right_live, right_pending, _ = self._scenario(35, seed=43)
        outer = left_live + left_pending
        inner = right_live + right_pending
        want = Counter(
            (object_key(l), object_key(r))
            for l in outer
            for r in inner
            if l.rect.intersects(r.rect)
        )
        for collect in (True, False):
            joined = overlay_join(left, right, algorithm=algorithm, collect_pairs=collect)
            assert joined.pair_count == sum(want.values())
            if collect:
                assert Counter((object_key(l), object_key(r)) for l, r in joined.pairs) == want

    def test_a_view_taken_before_a_delete_keeps_its_rows(self):
        manager, _, pending, _ = self._scenario(40)
        view = manager.overlay.pending()
        assert manager.overlay.pending() is view  # no write, no rebuild
        for victim in (pending[0], pending[len(pending) // 2]):
            assert manager.delete(victim)
        fresh = manager.overlay.pending()
        assert len(fresh) == len(view) - 2
        assert view.objects == tuple(pending)
        for i, obj in enumerate(view.objects):
            assert view.column[i] is obj
            assert tuple(view.lows[i]) == obj.rect.low
            assert tuple(view.highs[i]) == obj.rect.high
        # The old view still answers for the objects it holds.
        box = Rect((-INF, -INF), (INF, INF))
        _, rows = view.intersecting(*stack_bounds([box], 2))
        assert [view.column[row] for row in rows.tolist()] == list(view.objects)

    def test_the_fold_applies_inserts_in_arrival_order(self):
        """With only inserts pending, the folded tree is the pre-fold tree
        with the same inserts made one by one in arrival order."""
        rng = random.Random(44)
        base = [_random_object(rng, i) for i in range(60)]
        clipped = ClippedRTree.wrap(build_rtree("rstar", base, max_entries=6), method="stairline")
        reference = copy.deepcopy(clipped.tree)
        manager = SnapshotManager(clipped)
        for obj in self._pending_objects(rng):
            manager.insert(obj)
            reference.insert(obj)
        manager.compact()
        assert _tree_shape(manager._source.tree) == _tree_shape(reference)


def test_lock_free_readers_see_every_acknowledged_write():
    """Readers rebuild the pending view without a lock while writers insert
    and delete and a compactor folds step by step: a read started after a
    write was acknowledged reflects it, across every swap, and the writes a
    fold's log replays are kept exactly once."""
    rng = random.Random(45)
    manager = SnapshotManager(build_rtree("quadratic", [_random_object(rng, i) for i in range(30)]))
    everything = Rect((-INF, -INF), (INF, INF))
    # Every third insert is deleted again; the others stay.
    kept, deleted, failures = [], [], []
    done, swapped = threading.Event(), threading.Event()

    def writer(first_oid):
        local = random.Random(first_oid)
        for i in range(300):
            if i == 150 and not swapped.wait(timeout=30):  # the rest races later folds
                failures.append("no fold was published")
            obj = _random_object(local, first_oid + i)
            manager.insert(obj)
            if i % 3:
                kept.append(obj)
            else:
                assert manager.delete(obj)
                deleted.append(obj)

    def reader():
        while not done.is_set():
            stay, gone = list(kept), {id(obj) for obj in deleted}
            hits = {id(obj) for obj in manager.range_query_batch([everything])[0]}
            if any(id(obj) not in hits for obj in stay):
                failures.append("an acknowledged insert was missing")
            if hits & gone:
                failures.append("an acknowledged delete was visible")

    def compactor():
        while not done.is_set():
            if not manager.compact_step():
                manager.compact()
                if manager.epoch:
                    swapped.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=writer, args=(1_000 * (n + 1),)) for n in range(3)]
        others = [threading.Thread(target=reader) for _ in range(2)]
        others.append(threading.Thread(target=compactor))
        for thread in others + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        for thread in others:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + others)
    assert failures == []
    manager.compact()  # the fold the compactor left in flight, if any
    manager.compact()  # what its log replayed
    assert manager.pending_ops == 0
    live = Counter(map(object_key, manager.live_objects()))
    assert live == Counter(map(object_key, manager.snapshot.objects))
    assert not live & Counter(map(object_key, deleted))
    assert Counter(map(object_key, kept)) <= live and len(manager) == 30 + 3 * 200


def _tree_shape(tree):
    """Every node with its level and entries (rectangle, child or object)."""
    return tree.root_id, [
        (
            node.node_id,
            node.level,
            [(e.rect, e.child if node.level else object_key(e.child)) for e in node.entries],
        )
        for node in sorted(tree.nodes(), key=lambda n: n.node_id)
    ]


# ----------------------------------------------------------------------
# kNN points at ±inf
# ----------------------------------------------------------------------


_INF_POINTS = [(INF, 0.5), (-INF, 0.5), (INF, INF), (-INF, -INF), (5.0, INF), (INF, -INF)]


def _inf_objects():
    """30 unit boxes in a row, plus objects reaching to (or lying at) ±inf."""
    objects = [SpatialObject(i, Rect((i, 0), (i + 1, 1))) for i in range(30)]
    objects += [
        SpatialObject(99, Rect((0, 0), (INF, 1))),
        SpatialObject(98, Rect((INF, 0), (INF, 1))),
        SpatialObject(97, Rect((-INF, -INF), (-INF, 5))),
        SpatialObject(96, Rect((3, 2), (4, INF))),
    ]
    return objects


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("where", ["memory", "mmap"])
def test_knn_at_infinity_equals_the_scalar_search(tmp_path, where):
    """A point at ±inf meets a bound at the same infinity: the batch MinDist
    read ``inf - inf`` as NaN there and never selected the object."""
    tree = build_rtree("rstar", _inf_objects(), max_entries=6)
    index = ColumnarIndex.from_tree(tree)
    if where == "mmap":
        save_snapshot(index, tmp_path / "snap")
        index = load_snapshot(tmp_path / "snap", mmap=True)
    for k in (1, 3, 5, 40):
        stats = IOStats()
        results = index.knn_batch(_INF_POINTS, k, stats=stats)
        assert_knn_contract(tree, _INF_POINTS, k, results, stats)
