"""Differential suite: vectorized construction ≡ scalar construction.

Two contracts, each pinned exactly (no tolerances):

1. ``ClippedRTree.clip_all`` / ``reclip_nodes`` (the batched kernels of
   ``clip_nodes_batch``) must fill a :class:`ClipStore` *identical* to
   the paper's Algorithm 1 run node by node (``compute_clip_points``,
   conftest's ``scalar_clip_store``) — same node set, same clip-point
   coordinates and corner masks, same scores, same (score-descending)
   per-node ordering, same byte accounting — across every tree variant ×
   dataset × clipping method and from 2 to 9 dimensions.

2. ``str_bulk_load``, which builds from the shared array tiling, must be
   node for node the centre-keyed, object-by-object STR packer kept here
   (``_center_keyed_str``), rectangle bytes included; and
   ``build_columnar_str`` must produce a :class:`ColumnarIndex`
   array-for-array identical to freezing that tree
   (``ColumnarIndex.from_tree(str_bulk_load(...))``), including the
   synthesized node ids and the permuted object order.

3. The freeze a tree keeps: ``str_bulk_load``'s tree keeps its tiling's
   layout, and ``ColumnarIndex.from_tree`` reads it instead of walking
   the tree — byte for byte what a walk of every node gives, and walked
   again once an insert, a delete or a thaw has moved on from it.
"""

import gc
import importlib
import math
import random
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.cbb.clipping import ClippingConfig
from repro.cbb.clipping import compute_clip_points
from repro.datasets import generate
from repro.engine import ColumnarIndex, build_columnar_str, clip_nodes_batch, range_query_batch
from repro.engine.bulk_clip import clip_point_lists
from repro.engine.clip_kernels import first_occurrence_mask
from repro.engine.incremental_clip import dirty_node_ids, reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import (
    assert_range_contract,
    brute_force_answers,
    make_random_objects,
    scalar_clip_store,
    walked_freeze,
    workload_queries,
)

DATASETS = (("uniform02", 420), ("rea02", 380), ("axo03", 320), ("par03", 300))
VARIANTS = ("quadratic", "hilbert", "rstar", "rrstar", "str")
METHODS = ("skyline", "stairline")

SNAPSHOT_ARRAYS = (
    "is_leaf",
    "entry_start",
    "entry_count",
    "node_ids",
    "entry_lows",
    "entry_highs",
    "entry_child",
    "clip_coords",
    "clip_is_high",
    "node_clip_start",
    "node_clip_count",
)


def _store_table(store):
    """The full observable content of a ClipStore, exact floats included."""
    return {
        node_id: [(cp.coord, cp.mask, cp.score) for cp in points]
        for node_id, points in store.items()
    }


def _entry_rows(nodes, dims):
    """``nodes``' entry rows back to back and their counts: the kernel's input."""
    rects = [entry.rect for node in nodes for entry in node.entries]
    lows = np.array([rect.low for rect in rects], dtype=np.float64).reshape(-1, dims)
    highs = np.array([rect.high for rect in rects], dtype=np.float64).reshape(-1, dims)
    return lows, highs, np.array([len(node.entries) for node in nodes], dtype=np.int64)


def _clip_nodes(nodes, dims, config):
    """``clip_nodes_batch`` over ``nodes``: ``{node_id: clip points}`` of those that earned any."""
    clips = clip_point_lists(clip_nodes_batch(*_entry_rows(nodes, dims), config))
    return {node.node_id: points for node, points in zip(nodes, clips) if points}


def _coord_bytes(points):
    return np.array([cp.coord for cp in points], dtype=np.float64).tobytes()


def _assert_stores_identical(scalar_store, vector_store):
    """``vector_store`` is the oracle's ``scalar_store``, bytes and order included."""
    scalar_table = _store_table(scalar_store)
    vector_table = _store_table(vector_store)
    # Same entries *and* the same insertion (iteration) order.
    assert list(vector_table) == list(scalar_table)
    for node_id, scalar_points in scalar_table.items():
        assert vector_table[node_id] == scalar_points, f"node {node_id}"
        # == cannot tell 0.0 from -0.0; the persisted bytes can.
        assert _coord_bytes(vector_store.get(node_id)) == _coord_bytes(scalar_store.get(node_id))
    assert vector_store.total_clip_points() == scalar_store.total_clip_points()
    assert vector_store.storage_bytes() == scalar_store.storage_bytes()
    assert vector_store.average_clip_points() == scalar_store.average_clip_points()


class TestClipAllDifferential:
    @pytest.mark.parametrize("dataset,size", DATASETS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("method", METHODS)
    def test_clip_all_matches_the_oracle(self, dataset, size, variant, method):
        objects = generate(dataset, size, seed=11)
        tree = build_rtree(variant, objects, max_entries=8)
        config = ClippingConfig(method=method)
        oracle = scalar_clip_store(tree, config)
        clipped = ClippedRTree(tree, config)
        # clip_all reports the resulting store length: the nodes holding clip points.
        assert clipped.clip_all() == len(clipped.store) == len(oracle)
        _assert_stores_identical(oracle, clipped.store)

    @pytest.mark.parametrize("k,tau", [(0, 0.025), (1, 0.0), (3, 0.1), (None, 0.0)])
    def test_clip_all_matches_the_oracle_across_k_tau(self, k, tau):
        objects = generate("axo03", 300, seed=4)
        tree = build_rtree("rstar", objects, max_entries=10)
        config = ClippingConfig(method="stairline", k=k, tau=tau)
        clipped = ClippedRTree(tree, config)
        clipped.clip_all()
        _assert_stores_identical(scalar_clip_store(tree, config), clipped.store)

    def test_clip_all_refills_wrapper_store_in_place(self):
        objects = generate("uniform02", 300, seed=9)
        tree = build_rtree("str", objects, max_entries=8)
        clipped = ClippedRTree(tree, ClippingConfig(method="stairline"))
        clipped.clip_all()
        store = clipped.store
        before = _store_table(store)
        assert before
        clipped.clip_all()
        assert clipped.store is store
        assert _store_table(store) == before

    def test_clip_all_empty_tree(self):
        tree = build_rtree("quadratic", generate("uniform02", 5, seed=1), max_entries=4)
        for obj in list(tree.objects()):
            tree.delete(obj)
        assert len(tree) == 0
        assert ClippedRTree(tree).clip_all() == 0

    def test_unknown_engine_rejected(self):
        tree = build_rtree("str", generate("uniform02", 50, seed=2), max_entries=8)
        for engine in ("scalar", "gpu"):
            with pytest.raises(ValueError, match="unknown clip engine"):
                ClippedRTree.wrap(tree, engine=engine)


def _random_boxes(dims, count, seed):
    rng = random.Random(seed)
    objects = []
    for oid in range(count):
        low = [rng.uniform(0, 100) for _ in range(dims)]
        high = [lo + rng.uniform(0, 12) for lo in low]
        objects.append(SpatialObject(oid, Rect(low, high)))
    return objects


def _grid_boxes(dims, count, seed):
    """Integer-grid rectangles: shared faces, zero extents, exact duplicates
    and zeros of either sign — every tie the kernels decide by ``==``."""
    rng = random.Random(seed)

    def signed(value):
        return -0.0 if value == 0 and rng.random() < 0.5 else float(value)

    objects = []
    for oid in range(count):
        low = [signed(rng.randint(-5, 4)) for _ in range(dims)]
        extents = [rng.choice((0, 0, 1, 2)) for _ in range(dims)]
        high = [lo if e == 0 else signed(lo + e) for lo, e in zip(low, extents)]
        objects.append(SpatialObject(oid, Rect(low, high)))
    for oid in range(count, count + count // 4):  # exact duplicates
        objects.append(SpatialObject(oid, objects[rng.randrange(count)].rect))
    return objects


class TestClipAllBeyondThreeDimensions:
    """Dimensionalities the dataset matrix does not reach — 9 needs a
    dominance word wider than uint8 — and data made of ties."""

    CASES = [
        ("boxes", 4, 90),
        ("boxes", 8, 60),
        ("boxes", 9, 40),
        ("grid", 2, 120),
        ("grid", 3, 120),
        ("grid", 4, 80),
    ]

    @pytest.mark.parametrize("kind,dims,count", CASES)
    @pytest.mark.parametrize("method", METHODS)
    def test_clip_all_and_reclip_match_the_oracle(self, kind, dims, count, method):
        make = _grid_boxes if kind == "grid" else _random_boxes
        objects = make(dims, count, seed=dims)
        tree = build_rtree("rstar", objects, max_entries=5)
        config = ClippingConfig(method=method)
        oracle = scalar_clip_store(tree, config)
        assert oracle.total_clip_points() > 0
        vector = ClippedRTree(tree, config)
        vector.clip_all()
        _assert_stores_identical(oracle, vector.store)

        # Update the bare tree, as a compaction does, and re-clip what it
        # dirtied through the batched kernels.
        rng = random.Random(count)
        live = list(objects)
        results = []
        for extra in make(dims, count // 3, seed=dims + 100):
            results.append(tree.delete(live.pop(rng.randrange(len(live)))))
            fresh = SpatialObject(10_000 + extra.oid, extra.rect)
            live.append(fresh)
            results.append(tree.insert(fresh))
        dirty = dirty_node_ids(results, tree)
        assert reclip_nodes_for_results(vector, dirty) > 0
        recomputed = scalar_clip_store(tree, config)
        assert dict(vector.store.items()) == dict(recomputed.items())
        for node_id, points in recomputed.items():
            assert _coord_bytes(vector.store.get(node_id)) == _coord_bytes(points)

    @pytest.mark.parametrize("kind,dims,count", [case for case in CASES if case[0] == "grid"])
    def test_dedup_before_scoring_gives_the_same_store(self, kind, dims, count, monkeypatch):
        # The order bulk_clip ran before the dedup moved past the tau
        # filter, kept as an oracle: dedup every problem's valid splices
        # first, so nothing is left for the moved dedup to drop.  A small
        # k makes a duplicate that reached the top-k cut cost a clip point.
        bulk_clip_module = importlib.import_module("repro.engine.bulk_clip")
        tree = build_rtree("rstar", _grid_boxes(dims, count, seed=dims), max_entries=5)
        nodes = list(tree.nodes())
        dropped = []
        configs = [ClippingConfig(k=k, tau=tau) for k in (None, 2) for tau in (0.025, 0.0, 0.2)]
        for config in configs:
            moved = _clip_nodes(nodes, dims, config)
            produce = bulk_clip_module._stair_points

            def deduplicated(sky_pts, sky_counts):
                pts, owner = produce(sky_pts, sky_counts)
                first = first_occurrence_mask(pts, owner)
                dropped.append(int((~first).sum()))
                return pts[first], owner[first]

            monkeypatch.setattr(bulk_clip_module, "_stair_points", deduplicated)
            oracle = _clip_nodes(nodes, dims, config)
            monkeypatch.undo()
            assert list(moved) == list(oracle)
            for node_id, points in oracle.items():
                assert [(cp.coord, cp.mask, cp.score) for cp in moved[node_id]] == [
                    (cp.coord, cp.mask, cp.score) for cp in points
                ]
                assert _coord_bytes(moved[node_id]) == _coord_bytes(points)
        # The grid data must make repeated splices for the move to be
        # exercised.  In 2-d it cannot: a skyline sorted by x has y
        # falling, and the pair (i, j) splices to (x_j, y_i), one point
        # per pair.
        assert (sum(dropped) > 0) == (dims > 2)

    def test_signed_zeros_reach_the_store_as_the_scalar_path_leaves_them(self):
        # The grid cases above compare coordinate bytes; this keeps them
        # from passing for want of a -0.0 to disagree about.
        tree = build_rtree("rstar", _grid_boxes(3, 120, seed=3), max_entries=5)
        oracle = scalar_clip_store(tree, ClippingConfig())
        zeros = [x for _, points in oracle.items() for cp in points for x in cp.coord if x == 0.0]
        assert {bool(np.signbit(x)) for x in zeros} == {False, True}


def _leaf(node_id, rects):
    return Node(node_id, 0, [Entry(rect, SpatialObject(i, rect)) for i, rect in enumerate(rects)])


class TestPaddedLevels:
    """``clip_nodes_batch`` clips a level as one group, padded with NaN to
    its widest node: the nodes that share a padded block — and those it
    drops before any kernel runs — get what the scalar path gives them."""

    @pytest.mark.parametrize("dims", (2, 3, 4, 8))
    @pytest.mark.parametrize("method", METHODS)
    def test_mixed_level_matches_scalar(self, dims, method):
        boxes = [obj.rect for obj in _random_boxes(dims, 14, seed=dims)]
        first = boxes[0]
        flat = [Rect((5.0,) + b.low[1:], (5.0,) + b.high[1:]) for b in boxes[1:4]]
        infinite = Rect((-math.inf,) + first.low[1:], first.high)
        nodes = [
            _leaf(0, [first]),  # one entry
            _leaf(1, flat),  # zero volume
            _leaf(2, boxes[4:7] + [infinite]),  # infinite volume
            _leaf(3, boxes[6:14]),  # the widest
            _leaf(4, boxes[8:11]),
        ]
        config = ClippingConfig(method=method)
        got = _clip_nodes(nodes, dims, config)
        assert got.get(3), "the full node earns clip points"
        for node in nodes:
            expected = compute_clip_points(node.mbb(), node.child_rects(), config)
            points = got.get(node.node_id, [])
            assert [(cp.coord, cp.mask, cp.score) for cp in points] == [
                (cp.coord, cp.mask, cp.score) for cp in expected
            ], f"node {node.node_id}"
            assert _coord_bytes(points) == _coord_bytes(expected)


class TestDuplicatedBestSplice:
    """A node whose best candidate is a splice that three skyline pairs
    make.  Kept through scoring, the copies of the best score exactly
    0.0, which no threshold passes, not even ``tau = 0``."""

    # Min-corner points of four children: no one dominates another, and
    # the pairs (p, q), (p, s) and (q, r) all splice to (8, 8, 2), which
    # clips 128 of the node's 1000 and leaves no corner point inside.
    CORNERS = [(8.0, 0.0, 2.0), (0.0, 8.0, 2.0), (8.0, 2.0, 0.0), (2.0, 8.0, 0.0)]

    @pytest.mark.parametrize("tau", (0.0, 0.025))
    def test_matches_scalar(self, tau):
        node = _leaf(0, [Rect(low, (10.0, 10.0, 10.0)) for low in self.CORNERS])
        config = ClippingConfig(method="stairline", tau=tau)
        expected = compute_clip_points(node.mbb(), node.child_rects(), config)
        best = max((cp for cp in expected if cp.mask == 0), key=lambda cp: cp.score)
        assert (best.coord, best.score) == ((8.0, 8.0, 2.0), 128.0)
        # The kernels see the splice three times before the dedup.
        stair_points = importlib.import_module("repro.engine.bulk_clip")._stair_points
        pts, _ = stair_points(np.array(self.CORNERS), np.array([4]))
        assert sum(row == [8.0, 8.0, 2.0] for row in pts.tolist()) == 3

        got = _clip_nodes([node], 3, config)[0]
        assert [(cp.coord, cp.mask, cp.score) for cp in got] == [
            (cp.coord, cp.mask, cp.score) for cp in expected
        ]
        assert _coord_bytes(got) == _coord_bytes(expected)


#: One object with an infinite bound, added to a finite data set.
INFINITE_BOXES = {
    "half-infinite": Rect((-math.inf, 0.2), (0.3, 0.4)),
    "all-space": Rect((-math.inf, -math.inf), (math.inf, math.inf)),
    "infinite-times-zero": Rect((-math.inf, 0.5), (math.inf, 0.5)),
    "3-d": Rect((0.1, -math.inf, 0.2), (0.3, 0.4, math.inf)),
}


class TestInfiniteBounds:
    """``Rect`` accepts ±inf.  A node of infinite (or ``inf * 0 = NaN``)
    volume gets no clip points from the scalar path — no score exceeds
    ``tau`` times it — and none from the kernels, which must not crash
    on the NaN scores such a node produces."""

    @pytest.mark.parametrize("kind", INFINITE_BOXES)
    @pytest.mark.parametrize("variant", ("str", "quadratic", "rstar"))
    @pytest.mark.parametrize("method", METHODS)
    def test_wrap_matches_scalar(self, kind, variant, method):
        box = INFINITE_BOXES[kind]
        objects = generate(f"uniform0{box.dims}", 300, seed=2)
        tree = build_rtree(variant, objects + [SpatialObject(10**6, box)], max_entries=8)
        oracle = scalar_clip_store(tree, ClippingConfig(method=method))
        vector = ClippedRTree.wrap(tree, method=method)
        _assert_stores_identical(oracle, vector.store)
        assert len(vector.store) > 0


class TestClipChunksBoundMemory:
    """clip_nodes_batch walks the (node, corner) axis in chunks, so its
    working memory is set by ``_CHUNK_BUDGET`` and not by the tree."""

    BOUND = 12 * 2**20

    @staticmethod
    def _peaks(tree, config):
        rows = _entry_rows(list(tree.nodes()), tree.dims)
        tracemalloc.start()
        try:
            results = clip_nodes_batch(*rows, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results.coords)
        return peak, peak - kept

    def test_leaf_heavy_3d_tree(self):
        # The tree perf/'s build_load clips: 20 000 axo03 objects, M = 48.
        tree = str_bulk_load(generate("axo03", 20_000, seed=7), max_entries=48)
        peak, working = self._peaks(tree, ClippingConfig(method="stairline"))
        # Measured 5.6 MiB; one flat pass over every corner at once is ~30.
        assert peak <= self.BOUND
        assert working <= self.BOUND

    def test_level_of_mixed_fanouts(self):
        # One level is one group, padded to its widest node: leaves cut to
        # 1..48 entries beside full ones must not widen the working set.
        tree = str_bulk_load(generate("axo03", 20_000, seed=7), max_entries=48)
        rng = random.Random(7)
        for leaf in list(tree.leaves())[1:]:
            leaf.entries = leaf.entries[: rng.randint(1, 48)]
        peak, working = self._peaks(tree, ClippingConfig(method="stairline"))
        assert peak <= self.BOUND
        assert working <= self.BOUND

    def test_256_corners_a_node(self):
        tree = str_bulk_load(generate("uniform08", 1_500, seed=7), max_entries=12)
        _, working = self._peaks(tree, ClippingConfig(method="stairline"))
        # The 65 536 clip points it returns are 6 MiB of arrays, which the
        # runs' parts are concatenated into, so the bound is on what the
        # pass holds beyond its result (measured 7.5 MiB; thirteen nodes a
        # chunk, which the skyline tables alone would allow, is ~70).
        assert working <= self.BOUND

    def test_many_chunks_equal_one_chunk(self, monkeypatch):
        bulk_clip_module = importlib.import_module("repro.engine.bulk_clip")
        tree = build_rtree("rstar", generate("axo03", 600, seed=5), max_entries=8)
        nodes = list(tree.nodes())
        config = ClippingConfig(method="stairline")
        expected = {
            node_id: [(cp.coord, cp.mask, cp.score) for cp in points]
            for node_id, points in _clip_nodes(nodes, 3, config).items()
        }
        assert expected
        for budget in (1, 20_000, 1 << 40):  # a node a chunk ... one chunk
            monkeypatch.setattr(bulk_clip_module, "_CHUNK_BUDGET", budget)
            got = _clip_nodes(nodes, 3, config)
            assert list(got) == list(expected)
            for node_id, points in got.items():
                assert [(cp.coord, cp.mask, cp.score) for cp in points] == expected[node_id]


def _tile_by_center(objects, dims, dim, capacity):
    """STR's slab recursion as a Python stable sort keyed on one centre
    coordinate per object per pass."""
    if dim >= dims or len(objects) <= capacity:
        return [objects]
    leaf_pages = math.ceil(len(objects) / capacity)
    slab_count = math.ceil(leaf_pages ** (1.0 / (dims - dim)))
    slab_size = math.ceil(len(objects) / slab_count)
    ordered = sorted(objects, key=lambda o: o.rect.center[dim])
    slabs = []
    for start in range(0, len(ordered), slab_size):
        slabs.extend(_tile_by_center(ordered[start : start + slab_size], dims, dim + 1, capacity))
    return slabs


def _center_keyed_str(objects, max_entries, min_entries=None, leaf_fill=1.0):
    """``str_bulk_load`` as objects all the way: the centre-keyed tiling,
    leaves cut from its slabs, and ``_pack_level`` bounding each directory
    node with ``Node.mbb``.  The oracle for the array tiling."""
    tree = QuadraticRTree(objects[0].dims, max_entries=max_entries, min_entries=min_entries)
    capacity = max(tree.min_entries, int(max_entries * leaf_fill))
    del tree._nodes[tree.root_id]
    leaves = []
    for slab in _tile_by_center(list(objects), tree.dims, 0, capacity):
        for start in range(0, len(slab), capacity):
            leaf = tree._new_node(level=0)
            leaf.entries = [Entry(obj.rect, obj) for obj in slab[start : start + capacity]]
            leaves.append(leaf)
    if len(leaves) > 1 and len(leaves[-1].entries) < tree.min_entries:
        deficit = tree.min_entries - len(leaves[-1].entries)
        moved = leaves[-2].entries[-deficit:]
        leaves[-2].entries = leaves[-2].entries[:-deficit]
        leaves[-1].entries = moved + leaves[-1].entries
    root = tree._pack_level(leaves, level=0)
    tree._adopt_structure(root.node_id, len(objects))
    return tree


def _assert_same_tree(tree, oracle):
    """Node for node: ids, levels, entry order, children and rectangle bytes."""

    def table(t):
        return [
            (node.node_id, node.level, [(e.rect, e.child) for e in node.entries])
            for node in t.nodes()
        ]

    def rect_bytes(t):  # == cannot tell 0.0 from -0.0
        return np.array([(e.rect.low, e.rect.high) for n in t.nodes() for e in n.entries]).tobytes()

    assert table(tree) == table(oracle)
    assert rect_bytes(tree) == rect_bytes(oracle)
    assert (tree.root_id, tree._next_id, len(tree)) == (oracle.root_id, oracle._next_id, len(oracle))


#: ``test_arrays_identical_on_edge_shapes``' shapes: (size, keyword arguments).
EDGE_SHAPES = [
    (10, {}),  # single leaf
    (60, {"leaf_fill": 0.7}),
    (300, {"min_entries": 3}),
    (300, {"leaf_fill": 0.5, "min_entries": 2}),
]


class TestStrTileOrder:
    """``str_bulk_load`` (the shared array tiling, ``reduceat`` directory
    MBBs) is the centre-keyed object-by-object packer, node for node."""

    @pytest.mark.parametrize("dataset", ("rea02", "axo03", "uniform08"))
    @pytest.mark.parametrize("leaf_fill", (1.0, 0.7))
    def test_packed_tree_is_entry_for_entry_the_center_keyed_one(self, dataset, leaf_fill):
        # rea02 is grid-patterned: equal centres, so the stable order shows.
        objects = generate(dataset, 900, seed=13)
        _assert_same_tree(
            str_bulk_load(objects, max_entries=8, leaf_fill=leaf_fill),
            _center_keyed_str(objects, max_entries=8, leaf_fill=leaf_fill),
        )

    @pytest.mark.parametrize("size,kwargs", EDGE_SHAPES)
    def test_edge_shapes(self, size, kwargs):
        objects = generate("uniform02", size, seed=5)
        _assert_same_tree(
            str_bulk_load(objects, max_entries=8, **kwargs),
            _center_keyed_str(objects, max_entries=8, **kwargs),
        )

    @pytest.mark.parametrize("dims", (2, 3))
    def test_signed_zero_ties_keep_the_first(self, dims):
        # NumPy's min/max may return either of -0.0 and 0.0; mbb_of_rects
        # keeps the first, and so must the directory MBBs.
        objects = _grid_boxes(dims, 400, seed=dims)
        tree = str_bulk_load(objects, max_entries=5)
        _assert_same_tree(tree, _center_keyed_str(objects, max_entries=5))
        directory = [e.rect for node in tree.nodes() if not node.is_leaf for e in node.entries]
        zeros = [x for rect in directory for x in rect.low + rect.high if x == 0.0]
        assert {bool(np.signbit(x)) for x in zeros} == {False, True}


class TestBuilderDifferential:
    @pytest.mark.parametrize("dataset,size", DATASETS)
    @pytest.mark.parametrize("max_entries", (8, 24))
    def test_arrays_identical_to_scalar_str(self, dataset, size, max_entries):
        objects = generate(dataset, size, seed=11)
        scalar = ColumnarIndex.from_tree(str_bulk_load(objects, max_entries=max_entries))
        vector = build_columnar_str(objects, max_entries=max_entries)
        for name in SNAPSHOT_ARRAYS:
            left, right = getattr(scalar, name), getattr(vector, name)
            assert left.dtype == right.dtype, name
            assert np.array_equal(left, right), name
        assert len(scalar.objects) == len(vector.objects)
        assert all(a is b for a, b in zip(scalar.objects, vector.objects))

    @pytest.mark.parametrize("size,kwargs", EDGE_SHAPES)
    def test_arrays_identical_on_edge_shapes(self, size, kwargs):
        objects = generate("uniform02", size, seed=5)
        scalar = ColumnarIndex.from_tree(str_bulk_load(objects, max_entries=8, **kwargs))
        vector = build_columnar_str(objects, max_entries=8, **kwargs)
        for name in SNAPSHOT_ARRAYS:
            assert np.array_equal(getattr(scalar, name), getattr(vector, name)), name

    def test_signed_zeros_identical_to_the_byte(self):
        objects = _grid_boxes(3, 400, seed=3)
        scalar = ColumnarIndex.from_tree(str_bulk_load(objects, max_entries=5))
        vector = build_columnar_str(objects, max_entries=5)
        for name in SNAPSHOT_ARRAYS:
            assert getattr(scalar, name).tobytes() == getattr(vector, name).tobytes(), name

    def test_infinite_extents_sort_last_in_both_builders(self):
        # An object spanning (-inf, inf) in x has a NaN x centre, which the
        # x pass of both builders sorts after every finite one.
        objects = make_random_objects(60, dims=2, seed=21)
        for i in range(0, 60, 7):
            rect = objects[i].rect
            objects[i] = SpatialObject(i, Rect((-math.inf, rect.low[1]), (math.inf, rect.high[1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = str_bulk_load(objects, max_entries=4)
            vector = build_columnar_str(objects, max_entries=4)
        scalar = ColumnarIndex.from_tree(tree)
        for name in SNAPSHOT_ARRAYS:
            assert getattr(scalar, name).tobytes() == getattr(vector, name).tobytes(), name
        assert all(a is b for a, b in zip(scalar.objects, vector.objects))
        # 60 objects in leaves of 4 make four x slabs of 15: the nine
        # infinite ones sort into the last.
        assert {obj.oid for obj in vector.objects[-15:]} >= set(range(0, 60, 7))
        # Calibrated on every object; only the finite-centred ones are drawn on.
        queries = workload_queries(objects, seed=21)
        expected = brute_force_answers(objects, queries)
        assert_range_contract(expected, [tree.range_query(q) for q in queries])
        assert_range_contract(expected, range_query_batch(vector, queries))

    def test_source_free_snapshot_semantics(self):
        objects = generate("uniform02", 200, seed=8)
        snapshot = build_columnar_str(objects, max_entries=8)
        assert snapshot.source is None
        assert not snapshot.is_stale
        assert snapshot.refresh() is snapshot
        assert not snapshot.has_clips
        assert len(snapshot) == len(objects)

    def test_validation_errors(self):
        objects = generate("uniform02", 20, seed=1)
        with pytest.raises(ValueError, match="empty object collection"):
            build_columnar_str([])
        with pytest.raises(ValueError, match="leaf_fill"):
            build_columnar_str(objects, leaf_fill=0.0)
        with pytest.raises(ValueError, match="max_entries"):
            build_columnar_str(objects, max_entries=1)


def _assert_same_snapshot(snapshot, oracle):
    """Every snapshot array byte for byte, and the same object instances in order."""
    for name in SNAPSHOT_ARRAYS:
        ours, theirs = getattr(snapshot, name), getattr(oracle, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert len(snapshot.objects) == len(oracle.objects)
    assert all(a is b for a, b in zip(snapshot.objects, oracle.objects))


def _unwalked_freeze(index):
    """``ColumnarIndex.from_tree(index)``, failing if it walks the tree or reads the store.

    Right after ``clip_all``, the clip runs are the arrays it kept.
    """
    with mock.patch("repro.rtree.base.walk", side_effect=AssertionError("walked")), mock.patch(
        "repro.engine.columnar._stored_clips", side_effect=AssertionError("read the store")
    ):
        return ColumnarIndex.from_tree(index)


class TestKeptFreeze:
    """An STR tree keeps its tiling's layout as its freeze, stamped with its
    version; ``from_tree`` and ``clip_all`` read it, walking no node, and it
    equals a walk of every node (``conftest.walked_freeze``).  ``clip_all``
    keeps its clip arrays beside that freeze, stamped with the clipped
    tree's version, and the freeze reads its clip runs from them, not from
    the store, until the tree or the store changes."""

    @staticmethod
    def _check(objects, method="stairline", **kwargs):
        clipped = ClippedRTree.wrap(str_bulk_load(objects, **kwargs), method=method)
        _assert_same_snapshot(_unwalked_freeze(clipped), walked_freeze(clipped))

    @pytest.mark.parametrize("dataset,size", DATASETS)
    @pytest.mark.parametrize("leaf_fill", (1.0, 0.7))
    def test_kept_freeze_is_the_walk(self, dataset, size, leaf_fill):
        self._check(generate(dataset, size, seed=11), max_entries=8, leaf_fill=leaf_fill)

    @pytest.mark.parametrize("size,kwargs", EDGE_SHAPES)
    def test_kept_freeze_is_the_walk_on_edge_shapes(self, size, kwargs):
        self._check(generate("uniform02", size, seed=5), max_entries=8, **kwargs)

    def test_kept_freeze_keeps_signed_zeros(self):
        self._check(_grid_boxes(3, 400, seed=3), max_entries=5)

    def test_a_tree_without_a_freeze_is_walked_once(self):
        tree = build_rtree("rstar", generate("axo03", 300, seed=3), max_entries=8)
        clipped = ClippedRTree.wrap(tree)  # clip_all walks, and the tree keeps the walk
        _assert_same_snapshot(_unwalked_freeze(clipped), walked_freeze(clipped))

    @pytest.mark.parametrize("change", ["insert", "delete", "reclip_nodes", "to_tree"])
    def test_a_change_is_walked_again(self, change):
        objects = generate("axo03", 400, seed=12)
        clipped = ClippedRTree.wrap(str_bulk_load(objects, max_entries=8))
        before = ColumnarIndex.from_tree(clipped)
        if change == "insert":
            clipped.insert(SpatialObject(10**6, objects[0].rect))
        elif change == "delete":
            clipped.delete(objects[0])
        elif change == "reclip_nodes":
            # The tree is unchanged, its clip runs are not: only the leaves keep clips.
            clipped.store.clear()
            clipped.reclip_nodes(node.node_id for node in clipped.tree.leaves())
        else:
            clipped = before.to_tree()
        assert clipped.kept_clips(clipped.tree.freeze()) is None
        after = ColumnarIndex.from_tree(clipped)
        _assert_same_snapshot(after, walked_freeze(clipped))
        moved = {"insert": "entry_count", "delete": "entry_count", "to_tree": None}
        name = moved.get(change, "node_clip_count")
        if name is None:
            _assert_same_snapshot(after, before)
        else:
            assert getattr(after, name).tobytes() != getattr(before, name).tobytes()

    def test_kept_clips_are_those_of_the_freeze_they_clipped(self):
        clipped = ClippedRTree.wrap(str_bulk_load(generate("axo03", 300, seed=14), max_entries=8))
        freeze = clipped.tree.freeze()
        assert clipped.kept_clips(freeze) is not None
        clipped.tree._freeze = None  # a walk of the same tree: another freeze object
        assert clipped.kept_clips(clipped.tree.freeze()) is None
        clipped.store.remove(clipped.tree.root_id)  # the store moved: dropped for good
        assert clipped.kept_clips(freeze) is None and clipped._kept_clips is None

    def test_two_wrappers_of_one_tree_get_their_own_clip_runs(self):
        tree = str_bulk_load(generate("axo03", 400, seed=13), max_entries=8)
        skyline = ClippedRTree.wrap(tree, method="skyline")
        stairline = ClippedRTree.wrap(tree, method="stairline")
        frozen = {clipped: _unwalked_freeze(clipped) for clipped in (skyline, stairline)}
        assert frozen[skyline].entry_lows is frozen[stairline].entry_lows
        assert frozen[skyline].clip_coords.tobytes() != frozen[stairline].clip_coords.tobytes()
        for clipped, snapshot in frozen.items():
            _assert_same_snapshot(snapshot, walked_freeze(clipped))

    def test_a_dropped_tree_and_its_index_are_freed_by_reference_counting(self):
        gc.collect()
        gc.disable()
        try:
            tree = str_bulk_load(generate("uniform02", 300, seed=3), max_entries=8)
            clipped = ClippedRTree.wrap(tree)
            index = ColumnarIndex.from_tree(clipped)
            refs = [weakref.ref(x) for x in (tree, clipped, index, index.entry_lows)]
            del tree, clipped, index
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
