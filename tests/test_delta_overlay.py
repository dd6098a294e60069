"""Differential tests: SnapshotManager (base + delta) ≡ scalar ClippedRTree.

The delta overlay's one promise is that buffering writes must be
invisible to readers: after any interleaving of inserts, deletes,
queries, and compactions, a manager answers exactly like a scalar
``ClippedRTree`` maintained with the same operations.  The manager's
*tree* may legitimately diverge structurally (compaction applies the
buffered batch in one pass, the scalar reference one write at a time),
so clip-store equality is pinned against a fresh ``clip_all`` over the
manager's own tree, while query results are pinned against the scalar
reference and brute force.
"""

import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import build_columnar_str, load_snapshot, save_snapshot
from repro.engine.delta import (
    CompactionInProgressError,
    DeltaOverlay,
    SnapshotManager,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.join.inlj import index_nested_loop_join
from repro.join.stt import synchronized_tree_traversal_join
from repro.query.knn import knn_query
from repro.query.range_query import brute_force_range, execute_workload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.stats import IOStats


def _random_object(rng, oid):
    low = (rng.uniform(0, 100), rng.uniform(0, 100))
    high = (low[0] + rng.uniform(0, 6), low[1] + rng.uniform(0, 6))
    return SpatialObject(oid, Rect(low, high))


def object_key(obj):
    return (obj.oid, obj.rect.low, obj.rect.high)


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
        assert not manager.overlay.has_deletes
        assert _keys(manager.live_objects()) == _keys(live)
        stats = manager.compact()
        assert (stats.applied_inserts, stats.applied_deletes) == (0, 0)

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


class TestWorkloadAndJoinRouting:
    def test_execute_workload_routes_managers(self):
        rng = random.Random(21)
        live = [_random_object(rng, i) for i in range(40)]
        reference = ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=6), method="stairline"
        )
        manager = SnapshotManager(copy.deepcopy(reference))
        extra = [_random_object(rng, 100 + i) for i in range(10)]
        for obj in extra:
            reference.insert(obj)
            manager.insert(obj)
        queries = _queries(rng, 6)
        managed = execute_workload(manager, queries)
        scalar = execute_workload(reference, queries)
        assert managed.queries == scalar.queries
        assert managed.total_results == scalar.total_results

    @pytest.mark.parametrize("algorithm", ["inlj", "stt"])
    def test_joins_with_pending_deltas_match_scalar(self, algorithm):
        rng = random.Random(22)
        left_live = [_random_object(rng, i) for i in range(30)]
        right_live = [_random_object(rng, 1000 + i) for i in range(30)]
        left_mgr = SnapshotManager(
            ClippedRTree.wrap(build_rtree("quadratic", left_live, max_entries=6))
        )
        right_mgr = SnapshotManager(
            ClippedRTree.wrap(build_rtree("quadratic", right_live, max_entries=6))
        )
        # Mutate both sides so base, tombstones, and delta trees all engage.
        for mgr, live, base_oid in ((left_mgr, left_live, 50), (right_mgr, right_live, 2000)):
            for i in range(6):
                obj = _random_object(rng, base_oid + i)
                mgr.insert(obj)
                live.append(obj)
            for _ in range(6):
                victim = live.pop(rng.randrange(len(live)))
                assert mgr.delete(victim)

        left_tree = ClippedRTree.wrap(build_rtree("quadratic", left_live, max_entries=6))
        right_tree = ClippedRTree.wrap(build_rtree("quadratic", right_live, max_entries=6))
        if algorithm == "inlj":
            managed = execute_join(left_mgr, right_mgr, algorithm="inlj")
            scalar = index_nested_loop_join(left_live, right_tree)
        else:
            managed = execute_join(left_mgr, right_mgr, algorithm="stt")
            scalar = synchronized_tree_traversal_join(left_tree, right_tree)

        def pair_keys(pairs):
            return sorted((object_key(l), object_key(r)) for l, r in pairs)

        assert managed.pair_count == scalar.pair_count
        assert pair_keys(managed.pairs) == pair_keys(scalar.pairs)

    def test_join_manager_against_plain_tree(self):
        rng = random.Random(23)
        left_live = [_random_object(rng, i) for i in range(25)]
        right_live = [_random_object(rng, 500 + i) for i in range(25)]
        manager = SnapshotManager(build_rtree("quadratic", left_live, max_entries=6))
        for _ in range(5):
            victim = left_live.pop(rng.randrange(len(left_live)))
            assert manager.delete(victim)
        right_tree = build_rtree("quadratic", right_live, max_entries=6)
        managed = execute_join(manager, right_tree, algorithm="stt")
        scalar = synchronized_tree_traversal_join(
            build_rtree("quadratic", left_live, max_entries=6), right_tree
        )
        assert managed.pair_count == scalar.pair_count


# ----------------------------------------------------------------------
# a tombstone is a row of the base: duplicates, on a loaded snapshot
# ----------------------------------------------------------------------


class TestTombstonesAreRows:
    """Equal duplicates are different rows, so deleting ``d`` of ``b`` copies
    needs no counting on any read path — and finding the rows builds no
    object of a memory-mapped base."""

    COPIES = 3

    def _side(self, tmp_path, name, seed, first_oid):
        """``(duplicated objects, all objects, source-free manager on a loaded snapshot)``."""
        rng = random.Random(seed)
        # The two duplicated objects overlap each other and the other side's.
        twins = [
            SpatialObject(first_oid, Rect((40.0, 40.0), (46.0, 46.0))),
            SpatialObject(first_oid + 1, Rect((44.0, 44.0), (50.0, 50.0))),
        ]
        objects = [_random_object(rng, first_oid + 10 + i) for i in range(40)]
        objects += [SpatialObject(t.oid, t.rect) for t in twins for _ in range(self.COPIES)]
        rng.shuffle(objects)
        save_snapshot(build_columnar_str(objects, max_entries=6), tmp_path / name)
        loaded = load_snapshot(tmp_path / name, mmap=True)
        assert loaded.source is None
        return twins, objects, SnapshotManager(loaded)

    @pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right")])
    @pytest.mark.parametrize("deleted", [1, 2, 3])
    def test_every_read_equals_brute_force_over_the_live_multiset(self, tmp_path, deleted, sides):
        left = self._side(tmp_path, "left", 31, 0)
        right = self._side(tmp_path, "right", 32, 1000)
        live = {}
        for name, (twins, objects, manager) in (("left", left), ("right", right)):
            live[name] = Counter(map(object_key, objects))
            if name in sides:
                for twin in twins:
                    for _ in range(deleted):
                        assert manager.delete(twin)
                    live[name][object_key(twin)] -= deleted
                    if deleted == self.COPIES:
                        assert not manager.delete(twin)
                live[name] = +live[name]
                # Finding the rows read columns; it built no object.
                assert len(manager.snapshot.objects._cache) == 0
            assert len(manager) == sum(live[name].values())

        def rect_of(key):
            return Rect(key[1], key[2])

        rng = random.Random(33)
        twins, _, manager = left if "left" in sides else right
        side_live = live["left" if "left" in sides else "right"]
        queries = [twins[0].rect, twins[1].rect] + _queries(rng, 3)
        answers = manager.range_query_batch(queries)
        # What was materialised is what was returned, not the base.
        assert len(manager.snapshot.objects._cache) <= sum(map(len, answers))
        for query, hits in zip(queries, answers):
            expected = Counter(
                {key: n for key, n in side_live.items() if rect_of(key).intersects(query)}
            )
            assert Counter(map(object_key, hits)) == expected

        # Every live copy of both twins is at distance 0 of this point, so
        # the tie straddles k whenever 2 * (COPIES - deleted) > k.
        points = [(45.0, 45.0), (0.0, 0.0), (47.0, 41.0)]
        for k in (1, 2, 4, 7):
            for point, hits in zip(points, manager.knn_batch(points, k)):
                distances = sorted(
                    rect_of(key).min_distance_sq(point)
                    for key, n in side_live.items()
                    for _ in range(n)
                )
                assert [dist for dist, _ in hits] == distances[:k]
                assert all(obj.rect.min_distance_sq(point) == dist for dist, obj in hits)
                assert not Counter(object_key(obj) for _, obj in hits) - side_live

        expected_pairs = Counter()
        for key_l, n_l in live["left"].items():
            for key_r, n_r in live["right"].items():
                if rect_of(key_l).intersects(rect_of(key_r)):
                    expected_pairs[key_l, key_r] = n_l * n_r
        for algorithm in ("inlj", "stt"):
            joined = execute_join(left[2], right[2], algorithm=algorithm)
            assert joined.pair_count == sum(expected_pairs.values())
            assert Counter((object_key(l), object_key(r)) for l, r in joined.pairs) == expected_pairs


# ----------------------------------------------------------------------
# writes racing a compaction (the CompactionInProgressError contract)
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

    def test_delete_during_compaction_raises_cleanly(self):
        rng, objects, manager = self._manager()
        manager.insert(_random_object(rng, 1000))
        victim = objects[0]
        outcome = {}

        def racer():
            with pytest.raises(CompactionInProgressError, match="retry after the swap"):
                manager.delete(victim)
            outcome["raised"] = True

        manager.compaction_fault_hook = racer
        manager.compact()
        manager.compaction_fault_hook = None
        assert outcome == {"raised": True}
        # the rejected delete was not half-applied: the victim is intact,
        # and retrying after the swap works
        assert victim.oid in {o.oid for o in manager.range_query(victim.rect)}
        assert manager.delete(victim)
        assert victim.oid not in {o.oid for o in manager.range_query(victim.rect)}

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
