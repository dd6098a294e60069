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

import numpy as np
import pytest

from repro.cbb.clipping import ClippingConfig
from repro.datasets import generate
from repro.engine import ColumnarIndex, build_columnar_str, bulk_clip
from repro.query.range_query import brute_force_range
from repro.query.workload import RangeQueryWorkload
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


def _assert_stores_identical(scalar_store, vector_store):
    scalar_table = _store_table(scalar_store)
    vector_table = _store_table(vector_store)
    # Same entries *and* the same insertion (iteration) order.
    assert list(vector_table) == list(scalar_table)
    for node_id, scalar_points in scalar_table.items():
        assert vector_table[node_id] == scalar_points, f"node {node_id}"
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
