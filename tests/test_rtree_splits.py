"""Variant-specific split / choose-subtree behaviour."""

import numpy as np
import pytest

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect, mbb_of_rects
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.rrstar import RRStarTree
from repro.rtree.rstar import RStarTree
from tests.conftest import make_random_objects


def _leaf_node(rects, node_id=0):
    node = Node(node_id, level=0)
    node.entries = [Entry(r, SpatialObject(i, r)) for i, r in enumerate(rects)]
    return node


class TestQuadraticSplit:
    def test_pick_seeds_maximises_waste(self):
        rects = [Rect((0, 0), (1, 1)), Rect((10, 10), (11, 11)), Rect((0.5, 0.5), (1.5, 1.5))]
        lows = np.array([r.low for r in rects])
        highs = np.array([r.high for r in rects])
        seeds = QuadraticRTree._pick_seeds(lows, highs)
        assert set(seeds) == {0, 1} or set(seeds) == {1, 2}
        assert 1 in seeds  # the far-away rectangle is always a seed

    def test_split_respects_min_fill(self):
        tree = QuadraticRTree(dims=2, max_entries=6, min_entries=3)
        rects = [Rect((i, 0), (i + 0.5, 1)) for i in range(7)]
        node = _leaf_node(rects)
        group1, group2 = tree._split(node)
        assert len(group1) >= 3 and len(group2) >= 3
        assert len(group1) + len(group2) == 7

    def test_split_separates_two_clusters(self):
        tree = QuadraticRTree(dims=2, max_entries=4, min_entries=2)
        cluster_a = [Rect((i * 0.1, 0), (i * 0.1 + 0.05, 0.1)) for i in range(3)]
        cluster_b = [Rect((100 + i * 0.1, 0), (100 + i * 0.1 + 0.05, 0.1)) for i in range(2)]
        node = _leaf_node(cluster_a + cluster_b)
        group1, group2 = tree._split(node)
        mbb1 = mbb_of_rects([e.rect for e in group1])
        mbb2 = mbb_of_rects([e.rect for e in group2])
        assert mbb1.intersection_volume(mbb2) == 0.0

    def test_choose_subtree_prefers_containing_child(self):
        tree = QuadraticRTree(dims=2, max_entries=4)
        parent = Node(0, level=1)
        parent.entries = [
            Entry(Rect((0, 0), (10, 10)), 1),
            Entry(Rect((20, 20), (30, 30)), 2),
        ]
        assert tree._choose_subtree(parent, Rect((1, 1), (2, 2))) == 0
        assert tree._choose_subtree(parent, Rect((25, 25), (26, 26))) == 1


class TestRStarSplit:
    def test_split_minimises_overlap(self):
        tree = RStarTree(dims=2, max_entries=4, min_entries=2)
        rects = [
            Rect((0, 0), (1, 1)),
            Rect((1.2, 0), (2.2, 1)),
            Rect((10, 0), (11, 1)),
            Rect((11.2, 0), (12.2, 1)),
            Rect((0.5, 0.2), (1.4, 0.8)),
        ]
        node = _leaf_node(rects)
        group1, group2 = tree._split(node)
        mbb1 = mbb_of_rects([e.rect for e in group1])
        mbb2 = mbb_of_rects([e.rect for e in group2])
        assert mbb1.intersection_volume(mbb2) == pytest.approx(0.0)

    def test_forced_reinsert_happens_once_per_level(self):
        tree = RStarTree(dims=2, max_entries=6, min_entries=2)
        objects = make_random_objects(120, seed=2)
        reinserted = 0
        for obj in objects:
            result = tree.insert(obj)
            reinserted += result.reinserted_entries
        assert reinserted > 0, "forced reinsertion should trigger at this scale"
        tree.check_invariants()

    def test_choose_subtree_level1_minimises_overlap_enlargement(self):
        tree = RStarTree(dims=2, max_entries=4)
        parent = Node(0, level=1)
        # Child 0 would overlap child 1 heavily if enlarged; child 2 is free.
        parent.entries = [
            Entry(Rect((0, 0), (4, 4)), 1),
            Entry(Rect((3, 0), (7, 4)), 2),
            Entry(Rect((20, 0), (24, 4)), 3),
        ]
        choice = tree._choose_subtree(parent, Rect((21, 1), (22, 2)))
        assert choice == 2


class TestRRStarBehaviour:
    def test_covering_child_preferred(self):
        tree = RRStarTree(dims=2, max_entries=4)
        parent = Node(0, level=1)
        parent.entries = [
            Entry(Rect((0, 0), (10, 10)), 1),
            Entry(Rect((2, 2), (5, 5)), 2),
        ]
        # Both children cover the rect; the smaller one must win.
        assert tree._choose_subtree(parent, Rect((3, 3), (4, 4))) == 1

    def test_no_reinsertion(self):
        tree = RRStarTree(dims=2, max_entries=6, min_entries=2)
        objects = make_random_objects(100, seed=3)
        total_reinserted = 0
        for obj in objects:
            total_reinserted += tree.insert(obj).reinserted_entries
        assert total_reinserted == 0
        tree.check_invariants()

    def test_rrstar_query_io_not_worse_than_quadratic(self):
        """The RR*-tree's packing should be at least as good as Guttman's."""
        from repro.query.range_query import execute_workload
        from repro.query.workload import RangeQueryWorkload

        objects = make_random_objects(500, seed=4)
        quadratic = QuadraticRTree(dims=2, max_entries=10)
        revised = RRStarTree(dims=2, max_entries=10)
        for obj in objects:
            quadratic.insert(obj)
            revised.insert(obj)
        workload = RangeQueryWorkload.from_objects(objects, target_results=10, seed=1)
        queries = workload.query_list(40)
        io_quadratic = execute_workload(quadratic, queries).avg_leaf_accesses
        io_revised = execute_workload(revised, queries).avg_leaf_accesses
        assert io_revised <= io_quadratic * 1.25
