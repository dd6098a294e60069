"""Batched kNN where distances tie: integer grids, duplicates, d_k = 0.

``knn_batch`` promises the scalar search's result lists — equal distances
in the heap's ``(distance, push ordinal)`` order — and ``IOStats`` that
count the nodes within the k-th distance (``tests/conftest.py::
assert_knn_contract`` spells out what that means beside the scalar count).
Float-coordinate data almost never ties, so every input here sits on a
small integer grid: objects share corners, points fall on faces and inside
several objects at once, and whole nodes lie at exactly the k-th distance.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ColumnarIndex, ParallelExecutor, SnapshotManager, executor, knn_batch
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.stats import IOStats
from tests.conftest import assert_knn_contract

GRID = 9


def object_key(obj):
    return (obj.oid, obj.rect.low, obj.rect.high)


def _grid_objects(rng, count, dims, first_oid=0):
    objects = []
    for i in range(count):
        low = [float(rng.randrange(GRID)) for _ in range(dims)]
        high = [lo + float(rng.randrange(3)) for lo in low]  # zero extent is common
        objects.append(SpatialObject(first_oid + i, Rect(low, high)))
    return objects


def _grid_points(rng, count, dims):
    return [[float(rng.randrange(-1, GRID + 2)) for _ in range(dims)] for _ in range(count)]


def _check(tree, index, points, k):
    stats = IOStats()
    return assert_knn_contract(tree, points, k, knn_batch(index, points, k, stats=stats), stats)


class TestTiesProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variant=st.sampled_from(VARIANT_NAMES),
        dims=st.sampled_from([2, 3, 8]),
        clipped=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_results_and_io_match_the_scalar_search(self, seed, variant, dims, clipped):
        rng = random.Random(seed)
        count = rng.choice([1, 7, 40, 110]) if dims < 8 else rng.choice([1, 7, 40])
        tree = build_rtree(
            variant, _grid_objects(rng, count, dims), max_entries=rng.choice([4, 6, 9])
        )
        source = ClippedRTree.wrap(tree, method="stairline") if clipped else tree
        index = ColumnarIndex.from_tree(source)
        points = _grid_points(rng, 6, dims)
        for k in (1, rng.choice([2, 5, 13]), count + 3):
            _check(tree, index, points, k)

    def test_the_tie_class_is_exercised(self):
        """Some point must have a node at exactly ``d_k > 0`` — or the
        bracket branch of the contract above is never taken."""
        tied = 0
        for seed in range(12):
            rng = random.Random(seed)
            tree = build_rtree("rstar", _grid_objects(rng, 150, 2), max_entries=5)
            tied += _check(tree, ColumnarIndex.from_tree(tree), _grid_points(rng, 25, 2), 4)
        assert tied > 0


    @pytest.mark.parametrize("near", [1, 3])
    def test_nearest_leaves_first_changes_no_answer(self, monkeypatch, near):
        """The exact stage reads each point's nearest leaves before the
        rest, to tighten the bound the rest are held to; with one or three
        leaves in that first round almost every point has leaves in both,
        and lists, tie order and ``IOStats`` are what one round gives."""
        rng = random.Random(31)
        tree = build_rtree("rstar", _grid_objects(rng, 300, 2), max_entries=5)
        index = ColumnarIndex.from_tree(tree)
        points = _grid_points(rng, 40, 2)
        monkeypatch.setattr(executor, "_NEAR_LEAVES", index.node_count())
        one_round = [(k, IOStats()) for k in (1, 4, 17, 400)]
        expected = [knn_batch(index, points, k, stats=stats) for k, stats in one_round]
        monkeypatch.setattr(executor, "_NEAR_LEAVES", near)
        for (k, stats), hits in zip(one_round, expected):
            again = IOStats()
            assert knn_batch(index, points, k, stats=again) == hits
            assert again == stats
            _check(tree, index, points, k)


class TestEdgeCases:
    def _tree(self, objects, max_entries=4, dims=2):
        tree = QuadraticRTree(dims=dims, max_entries=max_entries)
        for obj in objects:
            tree.insert(obj)
        return tree

    def test_empty_tree(self):
        tree = self._tree([])
        assert _check(tree, ColumnarIndex.from_tree(tree), [[0.0, 0.0], [3.0, 3.0]], 3) == 0

    def test_single_leaf(self):
        rng = random.Random(1)
        tree = self._tree(_grid_objects(rng, 3, 2))
        index = ColumnarIndex.from_tree(tree)
        assert index.node_count() == 1
        for k in (1, 3, 10):
            _check(tree, index, _grid_points(rng, 5, 2), k)

    def test_duplicates_and_zero_extent(self):
        """Forty copies of four point objects: every distance is shared."""
        corners = [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)]
        objects = [SpatialObject(i, Rect.from_point(corners[i % 4])) for i in range(40)]
        tree = self._tree(objects)
        index = ColumnarIndex.from_tree(tree)
        points = [[2.0, 2.0], [0.0, 0.0], [4.0, 2.0], [-1.0, 7.0]]
        for k in (1, 10, 11, 25, 40, 41):
            _check(tree, index, points, k)

    def test_point_inside_at_least_k_objects(self):
        """``d_k = 0``: the heap empties every distance-0 node before it
        pops the first distance-0 object, and so must the count."""
        nested = [
            SpatialObject(i, Rect((-1.0 - i, -1.0 - i), (1.0 + i, 1.0 + i))) for i in range(30)
        ]
        tree = self._tree(nested)
        index = ColumnarIndex.from_tree(tree)
        stats = IOStats()
        results = knn_batch(index, [[0.0, 0.0]], 6, stats=stats)
        assert [d for d, _ in results[0]] == [0.0] * 6
        assert _check(tree, index, [[0.0, 0.0], [0.5, -0.5]], 6) == 0
        assert stats.leaf_accesses + stats.internal_accesses == index.node_count()

    def test_wrong_shape_points_are_rejected(self):
        tree = self._tree(_grid_objects(random.Random(2), 12, 2))
        index = ColumnarIndex.from_tree(tree)
        for bad in ([[0.0, 0.0, 0.0]], [[0.0]], [[0.0, 0.0], [1.0]], [0.0, 0.0]):
            with pytest.raises(ValueError):
                knn_batch(index, bad, 2)
        with pytest.raises(ValueError):
            knn_batch(index, [[0.0, 0.0]], 0)
        assert knn_batch(index, [], 2) == []


def test_manager_is_exact_under_pending_deletes_and_inserts():
    """The base is asked for ``k`` plus the tombstone count, so the k nearest
    *live* objects survive the live mask — on a grid, where a deleted object
    and its live duplicate share every distance."""
    rng = random.Random(5)
    objects = _grid_objects(rng, 160, 2)
    objects += [SpatialObject(obj.oid, obj.rect) for obj in objects[:30]]  # exact duplicates
    manager = SnapshotManager(ClippedRTree.wrap(build_rtree("rstar", objects, max_entries=6)))
    deleted = objects[:160:7] + objects[160:175]
    inserted = _grid_objects(rng, 25, 2, first_oid=5000)
    for obj in deleted:
        assert manager.delete(obj)
    for obj in inserted:
        manager.insert(obj)
    live = Counter(map(object_key, objects + inserted)) - Counter(map(object_key, deleted))
    rects = [Rect(low, high) for (_, low, high), copies in live.items() for _ in range(copies)]
    points = _grid_points(rng, 20, 2)
    for k in (1, 5, 12):
        for point, hits in zip(points, manager.knn_batch(points, k)):
            assert [d for d, _ in hits] == sorted(r.min_distance_sq(point) for r in rects)[:k]
            assert all(obj.rect.min_distance_sq(point) == d for d, obj in hits)
            # No tombstoned copy comes back, and no live one twice.
            assert not Counter(object_key(obj) for _, obj in hits) - live


def test_pool_is_identical_at_every_worker_count():
    rng = random.Random(9)
    tree = build_rtree("rstar", _grid_objects(rng, 200, 3), max_entries=6)
    snapshot = ColumnarIndex.from_tree(tree)
    points = _grid_points(rng, 30, 3)
    serial_stats = IOStats()
    serial = knn_batch(snapshot, points, 5, stats=serial_stats)
    for workers in (1, 2, 4):
        stats = IOStats()
        with ParallelExecutor(snapshot, workers=workers) as executor:
            pooled = executor.knn_batch(points, 5, stats=stats)
        assert [[(d, o.oid) for d, o in hits] for hits in pooled] == [
            [(d, o.oid) for d, o in hits] for hits in serial
        ]
        assert stats == serial_stats
    assert_knn_contract(tree, points, 5, serial, serial_stats)
