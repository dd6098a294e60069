"""Tests for the query workload generator, execution helpers, and kNN search."""

import math

import pytest

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.query.knn import knn_query
from repro.query.range_query import brute_force_range, execute_workload
from repro.query.workload import STANDARD_PROFILES, QueryProfile, RangeQueryWorkload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.storage.stats import IOStats
from tests.conftest import make_random_objects


class TestWorkloadCalibration:
    def test_standard_profiles(self):
        assert [p.target_results for p in STANDARD_PROFILES] == [1, 10, 100]
        assert [p.name for p in STANDARD_PROFILES] == ["QR0", "QR1", "QR2"]
        assert isinstance(STANDARD_PROFILES[0], QueryProfile)

    def test_calibrated_selectivity_close_to_target(self):
        objects = make_random_objects(2000, seed=31)
        workload = RangeQueryWorkload.from_objects(objects, target_results=10, seed=1)
        queries = workload.query_list(50)
        counts = [len(brute_force_range(objects, q)) for q in queries]
        average = sum(counts) / len(counts)
        assert 3.0 <= average <= 40.0, f"average selectivity {average} far from target 10"

    def test_higher_target_gives_larger_queries(self):
        objects = make_random_objects(1500, seed=32)
        small = RangeQueryWorkload.from_objects(objects, target_results=1, seed=1)
        large = RangeQueryWorkload.from_objects(objects, target_results=50, seed=1)
        assert large.side_lengths[0] > small.side_lengths[0]

    def test_queries_centered_on_dithered_object_centers(self):
        objects = make_random_objects(300, seed=33)
        workload = RangeQueryWorkload.from_objects(objects, target_results=5, seed=1)
        space = workload.space
        grown = space.scaled(1.5)
        for query in workload.queries(30):
            assert grown.intersects(query)

    def test_deterministic_given_seed(self):
        objects = make_random_objects(300, seed=34)
        workload = RangeQueryWorkload.from_objects(objects, target_results=5, seed=9)
        first = workload.query_list(10, seed=123)
        second = workload.query_list(10, seed=123)
        assert first == second

    def test_invalid_parameters(self):
        objects = make_random_objects(50, seed=35)
        with pytest.raises(ValueError):
            RangeQueryWorkload.from_objects(objects, target_results=0)
        with pytest.raises(ValueError):
            RangeQueryWorkload.from_objects([], target_results=5)
        with pytest.raises(ValueError):
            RangeQueryWorkload(objects, side_lengths=(1.0,), dither=0.1)

    def test_objects_of_infinite_extent_are_results_but_never_centres(self):
        objects = make_random_objects(200, seed=39)
        finite = RangeQueryWorkload.from_objects(objects, target_results=5, seed=4)
        unbounded = [
            SpatialObject(1000, Rect((-math.inf, 0.0), (math.inf, 1.0))),
            SpatialObject(1001, Rect((0.0, 0.0), (math.inf, 1.0))),
        ]
        workload = RangeQueryWorkload.from_objects(objects + unbounded, target_results=5, seed=4)
        queries = workload.query_list(40, seed=5)
        assert all(math.isfinite(b) for q in queries for b in q.low + q.high)
        assert all(math.isfinite(side) for side in workload.side_lengths)
        # Same centres and extents as over the finite objects alone, but the
        # two unbounded ones still count as results, so the sides shrink.
        assert workload.side_lengths[0] < finite.side_lengths[0]
        with pytest.raises(ValueError, match="finite centre"):
            RangeQueryWorkload.from_objects(unbounded, target_results=1)
        with pytest.raises(ValueError, match="finite centre"):
            RangeQueryWorkload(unbounded, side_lengths=(1.0, 1.0), dither=0.0)

    def test_query_at(self):
        objects = make_random_objects(50, seed=36)
        workload = RangeQueryWorkload(objects, side_lengths=(2.0, 4.0), dither=0.0)
        query = workload.query_at((10.0, 20.0))
        assert query == Rect((9.0, 18.0), (11.0, 22.0))


class TestExecuteWorkload:
    def test_aggregates(self):
        objects = make_random_objects(400, seed=37)
        tree = build_rtree("rstar", objects, max_entries=10)
        workload = RangeQueryWorkload.from_objects(objects, target_results=5, seed=2)
        queries = workload.query_list(20)
        result = execute_workload(tree, queries)
        assert result.queries == 20
        assert result.avg_results > 0
        assert result.avg_leaf_accesses > 0
        assert 0.0 <= result.io_optimality <= 1.0

    def test_empty_workload(self):
        objects = make_random_objects(50, seed=38)
        tree = build_rtree("quadratic", objects, max_entries=8)
        result = execute_workload(tree, [])
        assert result.queries == 0
        assert result.avg_results == 0.0
        assert result.io_optimality == 1.0

    def test_brute_force_reference(self):
        objects = make_random_objects(100, seed=39)
        query = Rect((0, 0), (30, 30))
        expected = [o for o in objects if o.rect.intersects(query)]
        assert brute_force_range(objects, query) == expected


class TestKnn:
    def test_knn_matches_brute_force(self):
        objects = make_random_objects(400, seed=41)
        tree = build_rtree("rstar", objects, max_entries=10)
        point = (50.0, 50.0)
        results = knn_query(tree, point, k=10)
        assert len(results) == 10
        brute = sorted(objects, key=lambda o: o.rect.min_distance_sq(point))[:10]
        assert {o.oid for _, o in results} == {o.oid for o in brute}
        distances = [d for d, _ in results]
        assert distances == sorted(distances)

    def test_knn_k_larger_than_dataset(self):
        objects = make_random_objects(5, seed=42)
        tree = build_rtree("quadratic", objects, max_entries=4)
        results = knn_query(tree, (0.0, 0.0), k=50)
        assert len(results) == 5

    def test_knn_counts_io(self):
        objects = make_random_objects(300, seed=43)
        tree = build_rtree("rstar", objects, max_entries=10)
        stats = IOStats()
        knn_query(tree, (10.0, 10.0), k=3, stats=stats)
        assert stats.leaf_accesses >= 1
        assert stats.leaf_accesses < tree.leaf_count()

    def test_knn_invalid_k(self):
        objects = make_random_objects(10, seed=44)
        tree = build_rtree("quadratic", objects, max_entries=4)
        with pytest.raises(ValueError):
            knn_query(tree, (0.0, 0.0), k=0)


class TestClippedKnn:
    """kNN over a ClippedRTree traverses the wrapped tree unchanged."""

    def test_knn_on_clipped_matches_unclipped(self):
        objects = make_random_objects(400, seed=45)
        tree = build_rtree("rstar", objects, max_entries=10)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        for point in [(50.0, 50.0), (0.0, 99.0), (12.5, 80.0)]:
            plain = knn_query(tree, point, k=8)
            via_clipped = knn_query(clipped, point, k=8)
            assert [(d, o.oid) for d, o in via_clipped] == [
                (d, o.oid) for d, o in plain
            ]

    def test_knn_on_clipped_matches_brute_force(self):
        objects = make_random_objects(300, seed=46)
        tree = build_rtree("hilbert", objects, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="skyline")
        point = (33.0, 66.0)
        results = knn_query(clipped, point, k=10)
        brute = sorted(objects, key=lambda o: o.rect.min_distance_sq(point))[:10]
        assert {o.oid for _, o in results} == {o.oid for o in brute}

    def test_knn_on_clipped_counts_io(self):
        objects = make_random_objects(300, seed=47)
        tree = build_rtree("rstar", objects, max_entries=10)
        clipped = ClippedRTree.wrap(tree)
        stats = IOStats()
        knn_query(clipped, (10.0, 10.0), k=3, stats=stats)
        assert stats.leaf_accesses >= 1
        assert stats.leaf_accesses < clipped.leaf_count()


class TestStatsNonePaths:
    """Query entry points must all accept the default ``stats=None``."""

    def test_scalar_paths_without_stats(self):
        objects = make_random_objects(120, seed=48)
        tree = build_rtree("rstar", objects, max_entries=8)
        clipped = ClippedRTree.wrap(tree)
        query = Rect((10.0, 10.0), (30.0, 30.0))
        assert {o.oid for o in tree.range_query(query)} == {
            o.oid for o in clipped.range_query(query)
        }
        assert knn_query(tree, (5.0, 5.0), k=3)
        assert knn_query(clipped, (5.0, 5.0), k=3)

    def test_batch_paths_without_stats(self):
        from repro.engine import ColumnarIndex

        objects = make_random_objects(120, seed=49)
        tree = build_rtree("rstar", objects, max_entries=8)
        for index in (tree, ClippedRTree.wrap(tree)):
            snapshot = ColumnarIndex.from_tree(index)
            queries = [Rect((10.0, 10.0), (30.0, 30.0)), Rect((200.0, 200.0), (201.0, 201.0))]
            results = snapshot.range_query_batch(queries)
            assert len(results) == 2
            assert results[1] == []
            assert snapshot.knn_batch([(5.0, 5.0)], k=3)[0]
