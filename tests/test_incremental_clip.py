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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SnapshotManager, delta, incremental_clip, save_snapshot
from repro.engine.incremental_clip import (
    dirty_node_ids,
    reclip_live_nodes,
    reclip_nodes_for_results,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.engine.snapshot_io import read_manifest
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


class TestSlicedCompaction:
    """``compact(pause=…)`` is ``compact()`` with pauses: same work, same order."""

    ARRAYS = (
        "is_leaf", "entry_start", "entry_count", "node_ids", "entry_lows", "entry_highs",
        "entry_child", "clip_coords", "clip_is_high", "node_clip_start", "node_clip_count",
    )

    def _managers(self, variant, seed):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(220)]
        ops = []
        for step in range(140):
            if rng.random() < 0.4:
                ops.append(("delete", live.pop(rng.randrange(len(live)))))
            else:
                ops.append(("insert", _random_object(rng, 1000 + step)))
        base = live + [obj for kind, obj in ops if kind == "delete"]
        managers = []
        for _ in range(2):
            clipped = ClippedRTree.wrap(
                build_rtree(variant, base, max_entries=5),
                method="stairline",
            )
            manager = SnapshotManager(clipped)
            for kind, obj in ops:
                if kind == "insert":
                    manager.insert(obj)
                else:
                    assert manager.delete(obj)
            managers.append((manager, clipped))
        return managers

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_paused_compaction_publishes_what_compact_publishes(
        self, variant, monkeypatch, tmp_path
    ):
        # A budget of zero and two-node chunks: a pause after every op and chunk.
        monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)
        monkeypatch.setattr(incremental_clip, "_RECLIP_CHUNK_NODES", 2)
        (plain, plain_tree), (sliced, sliced_tree) = self._managers(variant, seed=17)
        pauses = []
        whole = plain.compact()
        parts = sliced.compact(pause=lambda: pauses.append(sliced.epoch))
        assert (parts.applied_inserts, parts.applied_deletes, parts.reclipped_nodes) == (
            whole.applied_inserts, whole.applied_deletes, whole.reclipped_nodes,
        )
        # One per op, one to end the apply slice, one per re-clip chunk; all
        # before the swap.
        assert len(pauses) == 140 + 1 + -(-whole.reclipped_nodes // 2)
        assert set(pauses) == {0} and sliced.epoch == 1
        for name in self.ARRAYS:
            ours, theirs = getattr(sliced.snapshot, name), getattr(plain.snapshot, name)
            assert np.array_equal(ours, theirs), name
        fingerprints = [
            read_manifest(save_snapshot(manager.snapshot, tmp_path / name))["fingerprint"]
            for name, manager in (("plain", plain), ("sliced", sliced))
        ]
        assert fingerprints[0] == fingerprints[1]
        assert _store_state(sliced_tree) == _store_state(plain_tree)
        assert _store_state(sliced_tree) == _full_recompute(sliced_tree, engine="vectorized")
        sliced_tree.check_clip_invariants()
