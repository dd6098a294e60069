"""Differential suite: vectorized construction ≡ scalar construction.

Two contracts, each pinned exactly (no tolerances):

1. ``bulk_clip`` / ``clip_all(engine="vectorized")`` must fill a
   :class:`ClipStore` *identical* to the scalar ``compute_clip_points``
   path — same node set, same clip-point coordinates and corner masks,
   same scores, same (score-descending) per-node ordering, same byte
   accounting — across every tree variant × dataset × clipping method.

2. ``build_columnar_str`` must produce a :class:`ColumnarIndex`
   array-for-array identical to freezing the scalar STR builder's tree
   (``ColumnarIndex.from_tree(str_bulk_load(...))``), including the
   synthesized node ids and the permuted object order.
"""

import copy
import importlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.cbb.clipping import ClippingConfig
from repro.datasets import generate
from repro.engine import ColumnarIndex, build_columnar_str, bulk_clip, clip_nodes_batch
from repro.engine.incremental_clip import reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.query.range_query import brute_force_range
from repro.query.workload import RangeQueryWorkload
from repro.rtree import str_bulk
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load

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


def _coord_bytes(points):
    return np.array([cp.coord for cp in points], dtype=np.float64).tobytes()


def _assert_stores_identical(scalar_store, vector_store):
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


class TestBulkClipDifferential:
    @pytest.mark.parametrize("dataset,size", DATASETS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("method", METHODS)
    def test_bulk_clip_matches_scalar(self, dataset, size, variant, method):
        objects = generate(dataset, size, seed=11)
        tree = build_rtree(variant, objects, max_entries=8)
        scalar = ClippedRTree(tree, ClippingConfig(method=method))
        scalar_count = scalar.clip_all(engine="scalar")
        vector = ClippedRTree(tree, ClippingConfig(method=method))
        vector_count = vector.clip_all(engine="vectorized")
        assert vector_count == scalar_count
        # Both engines report the same thing: the resulting store length
        # (the number of nodes holding clip points).
        assert scalar_count == len(scalar.store)
        assert vector_count == len(vector.store)
        _assert_stores_identical(scalar.store, vector.store)

    @pytest.mark.parametrize("k,tau", [(0, 0.025), (1, 0.0), (3, 0.1), (None, 0.0)])
    def test_bulk_clip_matches_scalar_across_k_tau(self, k, tau):
        objects = generate("axo03", 300, seed=4)
        tree = build_rtree("rstar", objects, max_entries=10)
        config = ClippingConfig(method="stairline", k=k, tau=tau)
        scalar = ClippedRTree(tree, config)
        scalar.clip_all(engine="scalar")
        _assert_stores_identical(scalar.store, bulk_clip(tree, config))

    def test_bulk_clip_refills_wrapper_store_in_place(self):
        objects = generate("uniform02", 300, seed=9)
        tree = build_rtree("str", objects, max_entries=8)
        clipped = ClippedRTree(tree, ClippingConfig(method="stairline"))
        clipped.clip_all(engine="vectorized")
        store = clipped.store
        before = _store_table(store)
        assert before
        clipped.clip_all(engine="vectorized")
        assert clipped.store is store
        assert _store_table(store) == before

    def test_bulk_clip_empty_tree(self):
        tree = build_rtree("quadratic", generate("uniform02", 5, seed=1), max_entries=4)
        for obj in list(tree.objects()):
            tree.delete(obj)
        assert len(tree) == 0
        assert len(bulk_clip(tree, ClippingConfig())) == 0

    def test_unknown_engine_rejected(self):
        objects = generate("uniform02", 50, seed=2)
        clipped = ClippedRTree(build_rtree("str", objects, max_entries=8))
        with pytest.raises(ValueError, match="unknown clip engine"):
            clipped.clip_all(engine="gpu")

    def test_clipped_queries_agree_after_vectorized_clipping(self):
        objects = generate("rea02", 400, seed=6)
        tree = build_rtree("rrstar", objects, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline", engine="vectorized")
        clipped.check_clip_invariants()
        queries = RangeQueryWorkload.from_objects(
            objects, target_results=8, seed=3
        ).query_list(25)
        for query in queries:
            expected = {o.oid for o in brute_force_range(objects, query)}
            assert {o.oid for o in clipped.range_query(query)} == expected


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


class TestBulkClipBeyondThreeDimensions:
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
    def test_bulk_clip_and_reclip_match_scalar(self, kind, dims, count, method):
        make = _grid_boxes if kind == "grid" else _random_boxes
        objects = make(dims, count, seed=dims)
        tree = build_rtree("rstar", objects, max_entries=5)
        config = ClippingConfig(method=method)
        scalar = ClippedRTree(tree, config)
        scalar.clip_all(engine="scalar")
        assert scalar.store.total_clip_points() > 0
        vector = ClippedRTree(tree, config)
        vector.clip_all(engine="vectorized")
        _assert_stores_identical(scalar.store, vector.store)

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
        assert reclip_nodes_for_results(vector, results, engine="vectorized") > 0
        recomputed = ClippedRTree(copy.deepcopy(tree), config)
        recomputed.clip_all(engine="scalar")
        assert dict(vector.store.items()) == dict(recomputed.store.items())
        for node_id, points in recomputed.store.items():
            assert _coord_bytes(vector.store.get(node_id)) == _coord_bytes(points)

    def test_signed_zeros_reach_the_store_as_the_scalar_path_leaves_them(self):
        # The grid cases above compare coordinate bytes; this keeps them
        # from passing for want of a -0.0 to disagree about.
        clipped = ClippedRTree(build_rtree("rstar", _grid_boxes(3, 120, seed=3), max_entries=5))
        clipped.clip_all(engine="scalar")
        zeros = [
            x for _, points in clipped.store.items() for cp in points for x in cp.coord if x == 0.0
        ]
        assert {bool(np.signbit(x)) for x in zeros} == {False, True}


class TestClipChunksBoundMemory:
    """clip_nodes_batch walks the (node, corner) axis in chunks, so its
    working memory is set by ``_CHUNK_BUDGET`` and not by the tree."""

    BOUND = 12 * 2**20

    @staticmethod
    def _peaks(tree, config):
        nodes = list(tree.nodes())
        tracemalloc.start()
        try:
            results = clip_nodes_batch(nodes, tree.dims, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results
        return peak, peak - kept

    def test_leaf_heavy_3d_tree(self):
        # The tree perf/'s build_load clips: 20 000 axo03 objects, M = 48.
        tree = str_bulk_load(generate("axo03", 20_000, seed=7), max_entries=48)
        peak, working = self._peaks(tree, ClippingConfig(method="stairline"))
        # Measured 5.6 MiB; one flat pass over every corner at once is ~30.
        assert peak <= self.BOUND
        assert working <= self.BOUND

    def test_256_corners_a_node(self):
        tree = str_bulk_load(generate("uniform08", 1_500, seed=7), max_entries=12)
        _, working = self._peaks(tree, ClippingConfig(method="stairline"))
        # The 65 536 clip points it returns are 25 MiB by themselves, so
        # the bound is on what the pass holds beyond its result (measured
        # 5.7 MiB; thirteen nodes a chunk, which the skyline tables alone
        # would allow, is ~70).
        assert working <= self.BOUND

    def test_many_chunks_equal_one_chunk(self, monkeypatch):
        bulk_clip_module = importlib.import_module("repro.engine.bulk_clip")
        tree = build_rtree("rstar", generate("axo03", 600, seed=5), max_entries=8)
        nodes = list(tree.nodes())
        config = ClippingConfig(method="stairline")
        expected = {
            node_id: [(cp.coord, cp.mask, cp.score) for cp in points]
            for node_id, points in clip_nodes_batch(nodes, 3, config).items()
        }
        assert expected
        for budget in (1, 20_000, 1 << 40):  # a node a chunk ... one chunk
            monkeypatch.setattr(bulk_clip_module, "_CHUNK_BUDGET", budget)
            got = clip_nodes_batch(nodes, 3, config)
            assert list(got) == list(expected)
            for node_id, points in got.items():
                assert [(cp.coord, cp.mask, cp.score) for cp in points] == expected[node_id]


def _tile_by_center(objects, dims, dim, capacity):
    """``str_bulk._tile`` with the sort key it had before: a whole centre
    tuple per object per pass, of which one coordinate is read."""
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


class TestStrTileOrder:
    @pytest.mark.parametrize("dataset", ("rea02", "axo03", "uniform08"))
    @pytest.mark.parametrize("leaf_fill", (1.0, 0.7))
    def test_packed_tree_is_entry_for_entry_the_center_keyed_one(
        self, dataset, leaf_fill, monkeypatch
    ):
        # rea02 is grid-patterned: equal centres, so the stable order shows.
        objects = generate(dataset, 900, seed=13)

        def entry_lists():
            tree = str_bulk_load(objects, max_entries=8, leaf_fill=leaf_fill)
            return [
                (node.node_id, node.level, [(e.rect, e.child) for e in node.entries])
                for node in tree.nodes()
            ]

        packed = entry_lists()
        monkeypatch.setattr(str_bulk, "_tile", _tile_by_center)
        assert packed == entry_lists()


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

    @pytest.mark.parametrize(
        "size,kwargs",
        [
            (10, {}),  # single leaf
            (60, {"leaf_fill": 0.7}),
            (300, {"min_entries": 3}),
            (300, {"leaf_fill": 0.5, "min_entries": 2}),
        ],
    )
    def test_arrays_identical_on_edge_shapes(self, size, kwargs):
        objects = generate("uniform02", size, seed=5)
        scalar = ColumnarIndex.from_tree(str_bulk_load(objects, max_entries=8, **kwargs))
        vector = build_columnar_str(objects, max_entries=8, **kwargs)
        for name in SNAPSHOT_ARRAYS:
            assert np.array_equal(getattr(scalar, name), getattr(vector, name)), name

    def test_source_free_snapshot_semantics(self):
        objects = generate("uniform02", 200, seed=8)
        snapshot = build_columnar_str(objects, max_entries=8)
        assert snapshot.source is None
        assert not snapshot.is_stale
        assert snapshot.refresh() is snapshot
        assert not snapshot.has_clips
        assert len(snapshot) == len(objects)

    def test_batch_queries_match_brute_force(self):
        objects = generate("uniform03", 400, seed=12)
        snapshot = build_columnar_str(objects, max_entries=10)
        queries = RangeQueryWorkload.from_objects(
            objects, target_results=6, seed=4
        ).query_list(20)
        for query, result in zip(queries, snapshot.range_query_batch(queries)):
            expected = {o.oid for o in brute_force_range(objects, query)}
            assert {o.oid for o in result} == expected

    def test_validation_errors(self):
        objects = generate("uniform02", 20, seed=1)
        with pytest.raises(ValueError, match="empty object collection"):
            build_columnar_str([])
        with pytest.raises(ValueError, match="leaf_fill"):
            build_columnar_str(objects, leaf_fill=0.0)
        with pytest.raises(ValueError, match="max_entries"):
            build_columnar_str(objects, max_entries=1)
