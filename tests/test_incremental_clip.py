"""Dirty-node re-clipping ≡ full recomputation, for any update batch.

A node's clip points are a pure function of its own entry rectangles, so
re-clipping exactly the nodes whose entries changed
(:func:`repro.engine.incremental_clip.reclip_nodes_for_results`) must
leave the store identical to throwing everything away and running
``clip_all`` from scratch.  These tests apply random insert/delete
batches to the *bare* tree (no per-update clip maintenance), run one
incremental pass, and compare against the full recompute.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.incremental_clip import (
    dirty_node_ids,
    reclip_live_nodes,
    reclip_nodes_for_results,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree


def _random_object(rng, oid):
    low = (rng.uniform(0, 100), rng.uniform(0, 100))
    high = (low[0] + rng.uniform(0, 5), low[1] + rng.uniform(0, 5))
    return SpatialObject(oid, Rect(low, high))


def _store_state(clipped):
    return dict(clipped.store.items())


def _full_recompute(clipped, engine="scalar"):
    fresh = ClippedRTree(copy.deepcopy(clipped.tree), clipped.config)
    fresh.clip_all(engine=engine)
    return _store_state(fresh)


class TestReclipForResults:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(VARIANT_NAMES),
        st.sampled_from(["scalar", "vectorized"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_reclip_equals_full_recompute(self, seed, variant, engine):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(45)]
        clipped = ClippedRTree.wrap(
            build_rtree(variant, live, max_entries=6), method="stairline"
        )
        # Mutate the bare tree, exactly as SnapshotManager.compact does.
        results = []
        for step in range(30):
            if live and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                results.append(clipped.tree.delete(victim))
            else:
                obj = _random_object(rng, 1000 + step)
                live.append(obj)
                results.append(clipped.tree.insert(obj))
        count = reclip_nodes_for_results(clipped, results, engine=engine)
        assert count >= 0
        assert _store_state(clipped) == _full_recompute(clipped)
        clipped.check_clip_invariants()

    def test_dirty_set_covers_removed_and_changed(self):
        rng = random.Random(4)
        live = [_random_object(rng, i) for i in range(40)]
        clipped = ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=4), method="stairline"
        )
        results = [clipped.tree.delete(obj) for obj in live[:30]]
        dirty = dirty_node_ids(results)
        removed = set().union(*(r.removed_node_ids for r in results))
        # Heavy deletion must eliminate nodes; their clips must disappear.
        assert removed
        reclip_nodes_for_results(clipped, results)
        for node_id in removed - {n.node_id for n in clipped.tree.nodes()}:
            assert clipped.store.get(node_id) == []
        assert dirty
        assert _store_state(clipped) == _full_recompute(clipped)


class TestReclipNodes:
    def _clipped(self, seed=5):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(35)]
        return ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=6), method="stairline"
        )

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_engines_agree(self, engine):
        clipped = self._clipped()
        node_ids = [node.node_id for node in clipped.tree.nodes()]
        before = _store_state(clipped)
        count = clipped.reclip_nodes(node_ids, engine=engine)
        assert count == len(node_ids)
        assert _store_state(clipped) == before

    def test_dead_node_ids_are_dropped_from_store(self):
        clipped = self._clipped()
        ghost_id = 10_000
        clipped.store.put(ghost_id, clipped.store.get(clipped.tree.root_id))
        for engine in ("scalar", "vectorized"):
            clipped.store.put(ghost_id, clipped.store.get(clipped.tree.root_id))
            assert clipped.reclip_nodes([ghost_id], engine=engine) == 0
            assert clipped.store.get(ghost_id) == []

    def test_clipped_rtree_wrapper_delegates(self):
        """The default engine is the batched kernel pass, and nothing else is."""
        clipped = self._clipped()
        node_ids = sorted(node.node_id for node in clipped.tree.nodes())
        before = _store_state(clipped)
        clipped.store.clear()
        assert clipped.reclip_nodes(node_ids) == len(node_ids)
        assert _store_state(clipped) == before
        clipped.store.clear()
        reclip_live_nodes(clipped, node_ids)
        assert _store_state(clipped) == before

    def test_rejects_unknown_engine(self):
        clipped = self._clipped()
        with pytest.raises(ValueError):
            clipped.reclip_nodes([clipped.tree.root_id], engine="gpu")
        with pytest.raises(ValueError):
            reclip_nodes_for_results(clipped, [], engine="gpu")
