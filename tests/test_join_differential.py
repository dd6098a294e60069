"""Differential-testing harness for the spatial joins.

Four implementations must enumerate the same join:

1. the brute-force nested loop over the raw objects (ground truth);
2. the scalar INLJ (``index_nested_loop_join``);
3. the scalar STT (``synchronized_tree_traversal_join``);
4. the columnar batch joins (``inlj_batch`` / ``stt_batch``) over
   :class:`ColumnarIndex` snapshots.

On top of the pair sets, the columnar joins must report **identical**
``pair_count`` and ``IOStats`` (leaf, contributing-leaf, and internal
accesses on both sides, and nothing in ``extra``) to their scalar
counterparts — across every registered R-tree variant ×
dataset × clipped/plain, including disjoint inputs, trees of unequal
height, single-leaf trees, and empty trees.

The suite also pins the fixed accounting semantics: non-emitting
leaf-leaf pairings are *not* contributing accesses, and a root pair that
fails the (clipped) intersection test accesses nothing at all.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.registry import DATASET_NAMES, generate
from repro.engine import ColumnarIndex, SnapshotManager, inlj_batch, overlay_join, stt_batch
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.join.inlj import index_nested_loop_join
from repro.join.stt import synchronized_tree_traversal_join
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from tests.conftest import make_random_objects

ALL_VARIANTS = VARIANT_NAMES + ("str",)


def _brute_force_pairs(left, right):
    return {(a.oid, b.oid) for a in left for b in right if a.rect.intersects(b.rect)}


def _pair_oids(result):
    return {(a.oid, b.oid) for a, b in result.pairs}


def _stats_tuple(stats):
    return (
        stats.leaf_accesses,
        stats.contributing_leaf_accesses,
        stats.internal_accesses,
        dict(stats.extra),
    )


def _assert_join_engines_agree(left_objects, right_objects, left_index, right_index):
    """Scalar ≡ columnar on pairs, counts, and both sides' IOStats."""
    expected = _brute_force_pairs(left_objects, right_objects)
    left_snap = ColumnarIndex.from_tree(left_index)
    right_snap = ColumnarIndex.from_tree(right_index)

    for collect in (True, False):
        scalar_inlj = index_nested_loop_join(
            left_objects, right_index, collect_pairs=collect
        )
        batch_inlj = inlj_batch(left_objects, right_snap, collect_pairs=collect)
        scalar_stt = synchronized_tree_traversal_join(
            left_index, right_index, collect_pairs=collect
        )
        batch_stt = stt_batch(left_snap, right_snap, collect_pairs=collect)

        for result in (scalar_inlj, batch_inlj, scalar_stt, batch_stt):
            assert result.pair_count == len(expected)
            if collect:
                assert _pair_oids(result) == expected
            else:
                assert result.pairs == []
                assert result.inner_stats.extra == {}

        assert _stats_tuple(batch_inlj.inner_stats) == _stats_tuple(
            scalar_inlj.inner_stats
        )
        assert _stats_tuple(batch_inlj.outer_stats) == _stats_tuple(
            scalar_inlj.outer_stats
        )
        assert _stats_tuple(batch_stt.inner_stats) == _stats_tuple(
            scalar_stt.inner_stats
        )
        assert _stats_tuple(batch_stt.outer_stats) == _stats_tuple(
            scalar_stt.outer_stats
        )


class TestAcrossVariants:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_plain_trees(self, variant):
        left = make_random_objects(170, seed=61, extent=50.0, max_side=4.0)
        right = make_random_objects(140, seed=62, extent=50.0, max_side=4.0)
        left_tree = build_rtree(variant, left, max_entries=8)
        right_tree = build_rtree(variant, right, max_entries=8)
        _assert_join_engines_agree(left, right, left_tree, right_tree)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_clipped_trees(self, variant):
        left = make_random_objects(170, seed=63, extent=50.0, max_side=4.0)
        right = make_random_objects(140, seed=64, extent=50.0, max_side=4.0)
        left_index = ClippedRTree.wrap(
            build_rtree(variant, left, max_entries=8), method="stairline"
        )
        right_index = ClippedRTree.wrap(
            build_rtree(variant, right, max_entries=8), method="stairline"
        )
        _assert_join_engines_agree(left, right, left_index, right_index)

    @pytest.mark.parametrize("method", ["skyline", "stairline"])
    def test_clipping_methods_and_mixed_inputs(self, method):
        left = make_random_objects(200, seed=65, extent=40.0, max_side=5.0)
        right = make_random_objects(160, seed=66, extent=40.0, max_side=5.0)
        left_tree = build_rtree("rstar", left, max_entries=10)
        right_tree = build_rtree("rstar", right, max_entries=10)
        clipped_left = ClippedRTree.wrap(left_tree, method=method)
        # Clipped ⋈ plain exercises one-sided pruning in both executors.
        _assert_join_engines_agree(left, right, clipped_left, right_tree)


class TestAcrossDatasets:
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_dataset_self_join(self, dataset):
        left = generate(dataset, 150, seed=21)
        right = generate(dataset, 130, seed=22)
        left_index = ClippedRTree.wrap(
            build_rtree("str", left, max_entries=10), method="stairline"
        )
        right_index = build_rtree("str", right, max_entries=10)
        _assert_join_engines_agree(left, right, left_index, right_index)


class TestShapeEdgeCases:
    def test_trees_of_unequal_height_both_directions(self):
        big = make_random_objects(500, seed=65, extent=50.0)
        small = make_random_objects(30, seed=66, extent=50.0)
        big_tree = build_rtree("rstar", big, max_entries=8)
        small_tree = build_rtree("rstar", small, max_entries=8)
        assert big_tree.height > small_tree.height
        _assert_join_engines_agree(big, small, big_tree, small_tree)
        _assert_join_engines_agree(small, big, small_tree, big_tree)

    def test_single_leaf_trees(self):
        left = make_random_objects(5, seed=7)
        right = make_random_objects(5, seed=8)
        left_tree = build_rtree("quadratic", left, max_entries=8)
        right_tree = build_rtree("quadratic", right, max_entries=8)
        assert left_tree.height == right_tree.height == 1
        _assert_join_engines_agree(left, right, left_tree, right_tree)

    def test_empty_trees(self):
        objects = make_random_objects(40, seed=5)
        tree = build_rtree("quadratic", objects, max_entries=8)
        empty = QuadraticRTree(dims=2, max_entries=4)
        for left_objs, right_objs, left_tree, right_tree in (
            ([], objects, empty, tree),
            (objects, [], tree, empty),
            ([], [], empty, QuadraticRTree(dims=2, max_entries=4)),
        ):
            _assert_join_engines_agree(left_objs, right_objs, left_tree, right_tree)


class TestFixedAccounting:
    """Regression pins for the two accounting bugs this suite was built on."""

    @staticmethod
    def _lattice(offset, count=40):
        """Tiny boxes on an integer lattice, shifted by ``offset``."""
        side = 10
        return [
            SpatialObject(
                i,
                Rect(
                    (i % side + offset, i // side + offset),
                    (i % side + offset + 0.2, i // side + offset + 0.2),
                ),
            )
            for i in range(count)
        ]

    def test_disjoint_roots_access_nothing(self):
        left = make_random_objects(60, seed=63, extent=10.0)
        right = [
            type(o)(o.oid, o.rect.translate((1000.0, 1000.0)))
            for o in make_random_objects(60, seed=64, extent=10.0)
        ]
        left_tree = build_rtree("quadratic", left, max_entries=8)
        right_tree = build_rtree("quadratic", right, max_entries=8)
        _assert_join_engines_agree(left, right, left_tree, right_tree)
        result = synchronized_tree_traversal_join(left_tree, right_tree)
        assert result.pair_count == 0
        assert result.total_leaf_accesses == 0
        assert result.outer_stats.total_accesses == 0
        assert result.inner_stats.total_accesses == 0

    def test_non_emitting_leaves_do_not_contribute(self):
        # Interleaved lattices: node MBBs overlap heavily, but no object
        # pair intersects — every leaf access must be non-contributing.
        left = self._lattice(0.0)
        right = self._lattice(0.5)
        left_tree = build_rtree("quadratic", left, max_entries=4)
        right_tree = build_rtree("quadratic", right, max_entries=4)
        _assert_join_engines_agree(left, right, left_tree, right_tree)
        result = synchronized_tree_traversal_join(left_tree, right_tree)
        assert result.pair_count == 0
        assert result.total_leaf_accesses > 0
        assert result.outer_stats.contributing_leaf_accesses == 0
        assert result.inner_stats.contributing_leaf_accesses == 0

    def test_contributions_bounded_by_leaf_accesses(self):
        left = make_random_objects(120, seed=91, extent=30.0, max_side=3.0)
        right = make_random_objects(120, seed=92, extent=30.0, max_side=3.0)
        result = synchronized_tree_traversal_join(
            build_rtree("rstar", left, max_entries=8),
            build_rtree("rstar", right, max_entries=8),
        )
        assert result.pair_count > 0
        for stats in (result.outer_stats, result.inner_stats):
            assert 0 < stats.contributing_leaf_accesses <= stats.leaf_accesses


class TestExecuteJoinDispatch:
    def test_engines_and_algorithms(self, small_objects_2d):
        left = small_objects_2d
        right = make_random_objects(50, seed=44)
        left_tree = build_rtree("rstar", left, max_entries=8)
        right_tree = build_rtree("rstar", right, max_entries=8)
        expected = _brute_force_pairs(left, right)
        for freeze in (lambda tree: tree, ColumnarIndex.from_tree):
            stt = execute_join(freeze(left_tree), freeze(right_tree), algorithm="stt")
            inlj = execute_join(left, freeze(right_tree), algorithm="inlj")
            assert _pair_oids(stt) == _pair_oids(inlj) == expected

    def test_a_tree_beside_a_snapshot_is_frozen_on_the_fly(self, small_objects_2d):
        right = make_random_objects(50, seed=44)
        left_tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        right_tree = build_rtree("rstar", right, max_entries=8)
        scalar = execute_join(left_tree, right_tree)
        for left, right_index in (
            (ColumnarIndex.from_tree(left_tree), right_tree),
            (left_tree, ColumnarIndex.from_tree(right_tree)),
        ):
            mixed = execute_join(left, right_index)
            assert _pair_oids(mixed) == _pair_oids(scalar)
            assert mixed.outer_stats == scalar.outer_stats
            assert mixed.inner_stats == scalar.inner_stats

    def test_precomputed_snapshots_are_accepted(self, small_objects_2d):
        right = make_random_objects(50, seed=44)
        left_tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        right_tree = build_rtree("rstar", right, max_entries=8)
        direct = execute_join(left_tree, right_tree)
        reused = execute_join(
            ColumnarIndex.from_tree(left_tree), ColumnarIndex.from_tree(right_tree)
        )
        assert _pair_oids(reused) == _pair_oids(direct)
        assert reused.total_leaf_accesses == direct.total_leaf_accesses

    def test_unknown_engine_and_algorithm_rejected(self, small_objects_2d):
        tree = build_rtree("quadratic", small_objects_2d, max_entries=8)
        with pytest.raises(TypeError):
            execute_join(tree, tree, engine="columnar")
        for index in (tree, ColumnarIndex.from_tree(tree), SnapshotManager(tree)):
            with pytest.raises(ValueError, match="inlj.*stt"):
                execute_join(index, index, algorithm="hash")
        with pytest.raises(ValueError, match="inlj.*stt"):
            overlay_join(tree, SnapshotManager(tree), algorithm="hash")

    def test_dimension_mismatch_rejected(self, small_objects_2d, small_objects_3d):
        tree_2d = ColumnarIndex.from_tree(
            build_rtree("quadratic", small_objects_2d, max_entries=8)
        )
        tree_3d = ColumnarIndex.from_tree(
            build_rtree("quadratic", small_objects_3d, max_entries=8)
        )
        with pytest.raises(ValueError):
            stt_batch(tree_2d, tree_3d)
        with pytest.raises(ValueError):
            inlj_batch(small_objects_3d, tree_2d)


box = st.tuples(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, width=32),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, width=32),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False, width=32),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False, width=32),
)


def _objects_from(boxes):
    return [
        SpatialObject(i, Rect((x, y), (x + w, y + h)))
        for i, (x, y, w, h) in enumerate(boxes)
    ]


class TestJoinProperties:
    @given(
        st.lists(box, min_size=1, max_size=40),
        st.lists(box, min_size=1, max_size=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_inputs_agree_everywhere(self, left_boxes, right_boxes):
        left = _objects_from(left_boxes)
        right = _objects_from(right_boxes)
        left_index = ClippedRTree.wrap(
            build_rtree("quadratic", left, max_entries=4), method="stairline"
        )
        right_index = build_rtree("quadratic", right, max_entries=4)
        _assert_join_engines_agree(left, right, left_index, right_index)
