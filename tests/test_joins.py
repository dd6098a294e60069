"""Tests for the spatial-join strategies (INLJ and STT)."""

import pytest

from repro.join.inlj import index_nested_loop_join
from repro.join.result import JoinResult
from repro.join.stt import synchronized_tree_traversal_join
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from tests.conftest import make_random_objects


@pytest.fixture
def join_inputs():
    left = make_random_objects(150, seed=61, extent=50.0, max_side=4.0)
    right = make_random_objects(120, seed=62, extent=50.0, max_side=4.0)
    return left, right


class TestInlj:
    def test_clipped_inner_index_gives_same_pairs(self, join_inputs):
        left, right = join_inputs
        tree = build_rtree("rstar", right, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        plain = index_nested_loop_join(left, tree)
        fast = index_nested_loop_join(left, clipped)
        assert {(a.oid, b.oid) for a, b in plain.pairs} == {(a.oid, b.oid) for a, b in fast.pairs}
        assert fast.inner_stats.leaf_accesses <= plain.inner_stats.leaf_accesses

    def test_empty_outer(self, join_inputs):
        _, right = join_inputs
        tree = build_rtree("quadratic", right, max_entries=8)
        result = index_nested_loop_join([], tree)
        assert result.pair_count == 0
        assert result.inner_stats.leaf_accesses == 0


class TestStt:
    def test_clipped_join_same_pairs_fewer_accesses(self, join_inputs):
        left, right = join_inputs
        left_tree = build_rtree("rstar", left, max_entries=8)
        right_tree = build_rtree("rstar", right, max_entries=8)
        clipped_left = ClippedRTree.wrap(left_tree, method="stairline")
        clipped_right = ClippedRTree.wrap(right_tree, method="stairline")
        plain = synchronized_tree_traversal_join(left_tree, right_tree)
        fast = synchronized_tree_traversal_join(clipped_left, clipped_right)
        assert {(a.oid, b.oid) for a, b in plain.pairs} == {(a.oid, b.oid) for a, b in fast.pairs}
        assert fast.total_leaf_accesses <= plain.total_leaf_accesses

    def test_join_result_helpers(self):
        result = JoinResult()
        assert result.pair_count == 0
        assert result.total_leaf_accesses == 0
