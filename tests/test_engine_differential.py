"""Edge cases of the columnar batch engine's kernels, against the scalar walk.

The conformance matrix (``tests/test_backend_conformance.py``) holds every
backend to brute force and the scalar ``IOStats`` on ordinary trees.  This
suite pushes the frontier's node-major layout where padding could show:
under-full nodes, 2 to 8 dimensions, a root leaf, all-space queries, the
level-by-level visits, the per-node clip view, node levels and the clip
probe's memory blocks — plus regression pins of exact counters.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.datasets.registry import generate
from repro.engine import (
    ColumnarIndex,
    executor,
    inlj_batch,
    kernels,
    knn_batch,
    load_snapshot,
    range_query_batch,
    save_snapshot,
)
from repro.geometry.rect import Rect
from repro.join.inlj import index_nested_loop_join
from repro.query.range_query import execute_workload
from repro.query.workload import RangeQueryWorkload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.stats import IOStats
from tests.conftest import (
    ALL_VARIANTS,
    assert_range_contract,
    brute_force_answers,
    make_random_objects,
    scalar_range_stats,
    workload_queries,
)


def _scalar_rounds(index, queries):
    """Per depth, the multiset of ``(query, node id)`` visits of the scalar walk."""
    tree = getattr(index, "tree", index)
    height = tree.node(tree.root_id).level
    rounds = [Counter() for _ in range(height + 1)]
    for q, query in enumerate(queries):
        index.range_query(
            query,
            access_hook=lambda node, q=q: rounds[height - node.level].update(
                [(q, node.node_id)]
            ),
        )
    # The frontier stops at the first level nobody reaches.
    while rounds and not rounds[-1]:
        rounds.pop()
    return rounds


def _assert_batch_conforms(index, objects, queries, check_rounds=False):
    """Scalar ≡ batch ≡ brute force on results; scalar ≡ batch on ``IOStats``.

    With ``check_rounds`` the batch's ``access_hook`` calls must also be,
    round for round, the scalar traversal's visits at that depth.
    """
    expected = brute_force_answers(objects, queries)
    assert_range_contract(expected, [index.range_query(q) for q in queries])
    stats, rounds = IOStats(), []
    results = range_query_batch(
        ColumnarIndex.from_tree(index),
        queries,
        stats=stats,
        access_hook=lambda qs, nodes: rounds.append(Counter(zip(qs.tolist(), nodes.tolist()))),
    )
    assert_range_contract(expected, results)
    assert stats == scalar_range_stats(index, queries)
    if check_rounds:
        assert rounds == _scalar_rounds(index, queries)


def _all_space(dims):
    return Rect((-math.inf,) * dims, (math.inf,) * dims)


class TestNodeMajorLayoutEdgeCases:
    """Shapes that stress the frontier's padded node-major entry layout.

    Insertion-built variants leave nodes under-full, so most rows of the
    layout end in padding; the padding must be invisible to every query
    and to every ``IOStats`` counter.
    """

    @pytest.mark.parametrize("max_entries", [4, 10, 48])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_under_full_nodes_plain_and_clipped(self, variant, max_entries):
        objects = make_random_objects(260, dims=2, seed=41)
        queries = workload_queries(objects, seed=43)
        tree = build_rtree(variant, objects, max_entries=max_entries)
        counts = ColumnarIndex.from_tree(tree).entry_count
        assert counts.min() < counts.max()  # the layout really is padded
        # The same tree frozen without and with its clip points.
        _assert_batch_conforms(tree, objects, queries)
        _assert_batch_conforms(ClippedRTree.wrap(tree), objects, queries, check_rounds=True)

    @pytest.mark.parametrize("dims", [2, 4, 6, 8])
    def test_dimensions(self, dims):
        objects = make_random_objects(150, dims=dims, seed=47 + dims)
        queries = workload_queries(objects, seed=53)
        tree = build_rtree("rstar", objects, max_entries=10)
        _assert_batch_conforms(tree, objects, queries)
        _assert_batch_conforms(ClippedRTree.wrap(tree), objects, queries, check_rounds=True)

    @pytest.mark.parametrize("variant", ["rstar", "str"])
    def test_skyline_clipped_tree(self, variant):
        # The matrix clips with stairline; skyline clip points are vetoed alike.
        objects = make_random_objects(300, dims=2, seed=23)
        tree = build_rtree(variant, objects, max_entries=10)
        clipped = ClippedRTree.wrap(tree, method="skyline")
        queries = workload_queries(objects, seed=29)
        _assert_batch_conforms(clipped, objects, queries, check_rounds=True)

    def test_root_is_leaf(self):
        objects = make_random_objects(5, dims=2, seed=59)
        tree = build_rtree("quadratic", objects, max_entries=10)
        assert tree.node(tree.root_id).is_leaf
        _assert_batch_conforms(tree, objects, workload_queries(objects, seed=61))

    @pytest.mark.parametrize("n_objects", [0, 5, 260])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_all_space_query_never_matches_padding(self, dims, n_objects):
        # ``inf <= inf`` holds, so ±inf padding would hand this query a
        # phantom entry in every under-full node; NaN padding cannot.
        objects = make_random_objects(n_objects, dims=dims, seed=67)
        tree = QuadraticRTree(dims=dims, max_entries=8)
        for obj in objects:
            tree.insert(obj)
        queries = [_all_space(dims), _all_space(dims)]
        # Brute force returns every object; batch must match it and the
        # scalar result lengths, so a phantom hit cannot hide.  Nor may the
        # clip layout's NaN padding veto (or a ±inf probe select) anything.
        _assert_batch_conforms(tree, objects, queries)
        _assert_batch_conforms(ClippedRTree.wrap(tree), objects, queries, check_rounds=True)

    @pytest.mark.parametrize("clipped", [False, True])
    def test_access_hook_sees_the_scalar_visits_level_by_level(self, clipped):
        objects = make_random_objects(400, dims=2, seed=71)
        queries = workload_queries(objects, seed=73)
        tree = build_rtree("rrstar", objects, max_entries=6)
        index = ClippedRTree.wrap(tree) if clipped else tree

        # Round r of the frontier visits what the scalar traversal visits
        # at depth r: the same (query, node id) pairs, each exactly once.
        expected = _scalar_rounds(index, queries)
        assert len(expected) == tree.node(tree.root_id).level + 1
        rounds = []
        range_query_batch(
            ColumnarIndex.from_tree(index),
            queries,
            access_hook=lambda qs, nodes: rounds.append(
                Counter(zip(qs.tolist(), nodes.tolist()))
            ),
        )
        assert rounds == expected

    def test_inlj_through_padded_inner(self):
        outer = make_random_objects(120, dims=2, seed=79, max_side=6.0)
        inner = make_random_objects(300, dims=2, seed=83, max_side=6.0)
        inner_index = ClippedRTree.wrap(build_rtree("hilbert", inner, max_entries=48))
        scalar = index_nested_loop_join(outer, inner_index)
        batch = inlj_batch(outer, ColumnarIndex.from_tree(inner_index))
        assert batch.pair_count == scalar.pair_count > 0
        assert Counter((a.oid, b.oid) for a, b in batch.pairs) == Counter(
            (a.oid, b.oid) for a, b in scalar.pairs
        )
        assert batch.inner_stats == scalar.inner_stats


def _assert_node_clip_view_is_the_store(snapshot, store):
    """Every slot's clip run is its node's ``ClipStore`` entry, point for point."""
    starts, counts = snapshot.node_clip_start, snapshot.node_clip_count
    assert counts.any()
    for slot, node_id in enumerate(snapshot.node_ids.tolist()):
        run = slice(int(starts[slot]), int(starts[slot] + counts[slot]))
        clips = store.get(node_id)
        assert [tuple(row) for row in snapshot.clip_coords[run].tolist()] == [
            clip.coord for clip in clips
        ]
        np.testing.assert_array_equal(
            snapshot.clip_is_high[run],
            kernels.masks_to_bool(
                np.array([clip.mask for clip in clips], dtype=np.int64), snapshot.dims
            ),
        )
    # The runs tile the clip columns, the root's last: no entry leads to it.
    assert counts.sum() == len(snapshot.clip_coords)
    root = ColumnarIndex.ROOT_SLOT
    if counts[root]:
        assert starts[root] + counts[root] == len(snapshot.clip_coords)


class TestNodeClipView:
    """The per-node clip view — the only clip view — against its source.

    Every probe reaches a node's clip points through ``node_clip_start`` /
    ``node_clip_count`` (the range frontier via ``entry_child``, the STT
    join directly), so the runs must be the store's lists, in order.
    """

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_every_entry_names_its_childs_run(self, variant, tmp_path):
        # An entry names a run only through ``entry_child``: the slot's own.
        objects = make_random_objects(400, dims=3, seed=89)
        tree = build_rtree(variant, objects, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        snapshot = ColumnarIndex.from_tree(clipped)
        assert snapshot.has_clips
        _assert_node_clip_view_is_the_store(snapshot, clipped.store)
        save_snapshot(snapshot, tmp_path)
        loaded = load_snapshot(tmp_path, mmap=True)
        assert not loaded.node_clip_start.flags.writeable
        _assert_node_clip_view_is_the_store(loaded, clipped.store)
        for mine, theirs in zip(loaded.node_major_clips(), snapshot.node_major_clips()):
            np.testing.assert_array_equal(mine, theirs)


def _levels_slot_by_slot(snapshot):
    """``node_levels`` by its rule, one slot at a time (the reference).

    Parents precede children in the BFS layout, so one reverse sweep sees
    every first child before its parent.
    """
    levels = np.zeros(len(snapshot.is_leaf), dtype=np.int64)
    for slot in range(len(levels) - 1, -1, -1):
        if not snapshot.is_leaf[slot]:
            levels[slot] = levels[snapshot.entry_child[snapshot.entry_start[slot]]] + 1
    return levels


class TestNodeLevels:
    """The vectorised fixpoint against the per-slot sweep it replaced."""

    def _check(self, tree, height=None):
        snapshot = ColumnarIndex.from_tree(tree)
        levels = snapshot.node_levels()
        assert levels.dtype == np.int64
        np.testing.assert_array_equal(levels, _levels_slot_by_slot(snapshot))
        assert levels[ColumnarIndex.ROOT_SLOT] == tree.node(tree.root_id).level
        assert snapshot.node_levels() is levels  # cached
        if height is not None:
            assert levels[ColumnarIndex.ROOT_SLOT] >= height

    def test_empty_tree(self):
        self._check(QuadraticRTree(dims=2, max_entries=4))

    def test_single_leaf(self):
        self._check(build_rtree("quadratic", make_random_objects(3, seed=103), max_entries=4))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_tall_narrow_tree(self, variant):
        objects = make_random_objects(600, dims=2, seed=107)
        self._check(build_rtree(variant, objects, max_entries=4), height=4)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_after_condensing_deletes(self, variant):
        objects = make_random_objects(300, dims=2, seed=109)
        tree = build_rtree(variant, objects, max_entries=4)
        before = tree.node(tree.root_id).level
        for obj in objects[:280]:
            tree.delete(obj)
        assert tree.node(tree.root_id).level < before  # the tree really shrank
        self._check(tree)


@pytest.fixture(scope="module")
def wide_clip_rows():
    """A clipped 8-d tree whose clip rows are 512 cells wide, and 500 queries."""
    objects = generate("uniform08", 1500, seed=5)
    tree = build_rtree("str", objects, max_entries=12)
    snapshot = ColumnarIndex.from_tree(ClippedRTree.wrap(tree, method="stairline"))
    assert snapshot.node_major_clips()[0].shape[2] == 2 ** (8 + 1)
    workload = RangeQueryWorkload.from_objects(objects, target_results=10, seed=6)
    return snapshot, workload.query_list(500, seed=7)


def _hits_in_order(snapshot, queries):
    stats = IOStats()
    results = range_query_batch(snapshot, queries, stats=stats)
    return [[obj.oid for obj in hits] for hits in results], stats


class TestClipBlocksBoundMemory:
    """The clip probe walks its candidates in blocks of a fixed cell budget."""

    def test_peak_memory_is_a_few_bytes_per_budgeted_cell(self, wide_clip_rows):
        snapshot, queries = wide_clip_rows
        candidates = []
        range_query_batch(
            snapshot, queries, access_hook=lambda qs, nodes: candidates.append(len(qs))
        )
        # Unblocked, the widest level alone would gather this many cells …
        assert max(candidates) * 512 > 8 * kernels._CLIP_BLOCK_CELLS
        tracemalloc.start()
        try:
            range_query_batch(snapshot, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # … at 11 bytes each: one gathered float64 row and three bool masks.
        # 24 bytes per *budgeted* cell covers a block and the rest of the
        # batch (measured 13.9); the whole level at once would be ≈ 200.
        assert peak <= 24 * kernels._CLIP_BLOCK_CELLS

    def test_many_blocks_equal_one_block(self, wide_clip_rows, monkeypatch):
        snapshot, queries = wide_clip_rows
        candidates = []

        def counting_veto(*args):
            candidates.append(len(args[2]))
            return kernels.padded_clip_veto(*args)

        monkeypatch.setattr(executor, "padded_clip_veto", counting_veto)
        blocked = _hits_in_order(snapshot, queries)
        rows_per_block = kernels._CLIP_BLOCK_CELLS // 512
        assert max(candidates) > 2 * rows_per_block  # at least three blocks
        monkeypatch.setattr(kernels, "_CLIP_BLOCK_CELLS", 1 << 40)
        single = _hits_in_order(snapshot, queries)
        assert blocked == single
        assert sum(len(hits) for hits in single[0]) > 0
        few = _hits_in_order(snapshot, queries[:40])
        monkeypatch.setattr(kernels, "_CLIP_BLOCK_CELLS", 512)  # one row a block
        assert _hits_in_order(snapshot, queries[:40]) == few


class TestStatsPinned:
    """Regression pin: exact counters on a small fixed tree, both engines.

    The numbers below were produced by the scalar traversal at the time
    the batch engine landed; any drift in either engine breaks the pin.
    """

    QUERIES = [
        Rect((10.0, 10.0), (40.0, 40.0)),
        Rect((0.0, 0.0), (5.0, 5.0)),
        Rect((80.0, 80.0), (99.0, 99.0)),
        Rect((200.0, 200.0), (210.0, 210.0)),  # empty result
        Rect((50.0, 50.0), (50.0, 50.0)),  # degenerate point
    ]

    # (total_results, leaf_accesses, contributing_leaf_accesses, internal_accesses)
    PINNED_PLAIN = (9, 6, 5, 9)
    PINNED_CLIPPED = (9, 5, 5, 9)

    def _fixed_indexes(self):
        objects = make_random_objects(60, dims=2, seed=1)
        tree = build_rtree("rstar", objects, max_entries=8)
        return tree, ClippedRTree.wrap(tree)

    @pytest.mark.parametrize("freeze", [False, True], ids=["scalar", "columnar"])
    def test_pinned_counts(self, freeze):
        tree, clipped = self._fixed_indexes()
        engine = "columnar" if freeze else "scalar"
        for index, pinned in ((tree, self.PINNED_PLAIN), (clipped, self.PINNED_CLIPPED)):
            backend = ColumnarIndex.from_tree(index) if freeze else index
            result = execute_workload(backend, self.QUERIES)
            observed = (
                result.total_results,
                result.stats.leaf_accesses,
                result.stats.contributing_leaf_accesses,
                result.stats.internal_accesses,
            )
            assert observed == pinned, f"{engine} drifted on {type(index).__name__}"

    def test_pinned_io_optimality(self):
        tree, clipped = self._fixed_indexes()
        assert execute_workload(ColumnarIndex.from_tree(tree), self.QUERIES).io_optimality == pytest.approx(5 / 6)
        assert execute_workload(ColumnarIndex.from_tree(clipped), self.QUERIES).io_optimality == 1.0


class TestSnapshotLifecycle:
    def test_empty_tree_snapshot(self):
        tree = QuadraticRTree(dims=2, max_entries=4)
        snapshot = ColumnarIndex.from_tree(tree)
        stats = IOStats()
        results = range_query_batch(snapshot, [Rect((0, 0), (10, 10))], stats=stats)
        assert results == [[]]
        # The scalar path also counts the (empty) root leaf access.
        assert stats.leaf_accesses == 1
        assert stats.contributing_leaf_accesses == 0
        assert knn_batch(snapshot, [(0.0, 0.0)], k=3) == [[]]

    def test_snapshot_staleness_and_refresh(self, small_objects_2d):
        extra = make_random_objects(5, dims=2, seed=99)
        tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        snapshot = ColumnarIndex.from_tree(tree)
        assert not snapshot.is_stale
        tree.insert(extra[0])
        assert snapshot.is_stale
        assert len(snapshot) == len(small_objects_2d)  # still the frozen state
        fresh = snapshot.refresh()
        assert not fresh.is_stale
        assert len(fresh) == len(small_objects_2d) + 1

    def test_clipped_snapshot_staleness_after_reclip(self, small_objects_2d):
        tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        clipped = ClippedRTree.wrap(tree)
        snapshot = ColumnarIndex.from_tree(clipped)
        assert not snapshot.is_stale
        clipped.clip_all()  # re-clipping alone must invalidate
        assert snapshot.is_stale

    def test_deletion_invalidates(self, small_objects_2d):
        tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        snapshot = ColumnarIndex.from_tree(tree)
        tree.delete(small_objects_2d[0])
        assert snapshot.is_stale

    def test_knn_batch_invalid_k(self, small_objects_2d):
        tree = build_rtree("quadratic", small_objects_2d, max_entries=8)
        with pytest.raises(ValueError):
            knn_batch(ColumnarIndex.from_tree(tree), [(0.0, 0.0)], k=0)

    def test_dimension_mismatch_rejected(self, small_objects_2d):
        tree = build_rtree("quadratic", small_objects_2d, max_entries=8)
        snapshot = ColumnarIndex.from_tree(tree)
        with pytest.raises(ValueError):
            range_query_batch(snapshot, [Rect((0, 0, 0), (1, 1, 1))])
        with pytest.raises(ValueError):
            knn_batch(snapshot, [(0.0, 0.0, 0.0)], k=1)
