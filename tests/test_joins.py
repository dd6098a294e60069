"""Tests for the spatial-join strategies (INLJ and STT)."""

import pytest

from repro.join.inlj import index_nested_loop_join
from repro.join.result import JoinResult
from repro.join.stt import synchronized_tree_traversal_join
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from tests.conftest import make_random_objects


def _brute_force_pairs(left, right):
    return {
        (a.oid, b.oid) for a in left for b in right if a.rect.intersects(b.rect)
    }


@pytest.fixture
def join_inputs():
    left = make_random_objects(150, seed=61, extent=50.0, max_side=4.0)
    right = make_random_objects(120, seed=62, extent=50.0, max_side=4.0)
    return left, right


class TestInlj:
    def test_matches_brute_force(self, join_inputs):
        left, right = join_inputs
        tree = build_rtree("rstar", right, max_entries=8)
        result = index_nested_loop_join(left, tree)
        expected = _brute_force_pairs(left, right)
        assert {(a.oid, b.oid) for a, b in result.pairs} == expected

    def test_clipped_inner_index_gives_same_pairs(self, join_inputs):
        left, right = join_inputs
        tree = build_rtree("rstar", right, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        plain = index_nested_loop_join(left, tree)
        fast = index_nested_loop_join(left, clipped)
        assert {(a.oid, b.oid) for a, b in plain.pairs} == {(a.oid, b.oid) for a, b in fast.pairs}
        assert fast.inner_stats.leaf_accesses <= plain.inner_stats.leaf_accesses

    def test_uncollected_mode_counts_pairs(self, join_inputs):
        left, right = join_inputs
        tree = build_rtree("quadratic", right, max_entries=8)
        collected = index_nested_loop_join(left, tree, collect_pairs=True)
        counted = index_nested_loop_join(left, tree, collect_pairs=False)
        assert counted.pairs == []
        assert collected.pair_count == len(collected.pairs)
        assert counted.pair_count == len(collected.pairs)
        # The count travels in ``pair_count`` only, never in the I/O counters.
        assert counted.inner_stats.extra == collected.inner_stats.extra == {}

    def test_empty_outer(self, join_inputs):
        _, right = join_inputs
        tree = build_rtree("quadratic", right, max_entries=8)
        result = index_nested_loop_join([], tree)
        assert result.pair_count == 0
        assert result.inner_stats.leaf_accesses == 0


class TestStt:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_brute_force_all_variants(self, join_inputs, variant):
        left, right = join_inputs
        left_tree = build_rtree(variant, left, max_entries=8)
        right_tree = build_rtree(variant, right, max_entries=8)
        result = synchronized_tree_traversal_join(left_tree, right_tree)
        assert {(a.oid, b.oid) for a, b in result.pairs} == _brute_force_pairs(left, right)

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

    def test_contributing_accesses_require_emitted_pairs(self, join_inputs):
        left, right = join_inputs
        result = synchronized_tree_traversal_join(
            build_rtree("rstar", left, max_entries=8),
            build_rtree("rstar", right, max_entries=8),
        )
        assert result.pair_count == len(result.pairs) > 0
        for stats in (result.outer_stats, result.inner_stats):
            assert stats.contributing_leaf_accesses <= stats.leaf_accesses

    def test_mixed_clipped_and_plain_inputs(self, join_inputs):
        left, right = join_inputs
        left_tree = build_rtree("quadratic", left, max_entries=8)
        right_tree = build_rtree("quadratic", right, max_entries=8)
        clipped_left = ClippedRTree.wrap(left_tree)
        result = synchronized_tree_traversal_join(clipped_left, right_tree)
        assert {(a.oid, b.oid) for a, b in result.pairs} == _brute_force_pairs(left, right)

    def test_disjoint_inputs_produce_nothing(self):
        left = make_random_objects(60, seed=63, extent=10.0)
        right = [o for o in make_random_objects(60, seed=64, extent=10.0)]
        shifted = [type(o)(o.oid, o.rect.translate((1000.0, 1000.0))) for o in right]
        left_tree = build_rtree("quadratic", left, max_entries=8)
        right_tree = build_rtree("quadratic", shifted, max_entries=8)
        result = synchronized_tree_traversal_join(left_tree, right_tree)
        assert result.pair_count == 0
        # Disjoint root MBBs: the join answers without accessing any node.
        assert result.outer_stats.total_accesses == 0
        assert result.inner_stats.total_accesses == 0

    def test_trees_of_different_heights(self):
        left = make_random_objects(500, seed=65, extent=50.0)
        right = make_random_objects(30, seed=66, extent=50.0)
        left_tree = build_rtree("rstar", left, max_entries=8)
        right_tree = build_rtree("rstar", right, max_entries=8)
        assert left_tree.height > right_tree.height
        result = synchronized_tree_traversal_join(left_tree, right_tree)
        assert {(a.oid, b.oid) for a, b in result.pairs} == _brute_force_pairs(left, right)

    def test_join_result_helpers(self):
        result = JoinResult()
        assert result.pair_count == 0
        assert result.total_leaf_accesses == 0
