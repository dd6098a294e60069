"""Dirty-node re-clipping ≡ full recomputation, for any update batch.

A node's clip points are a pure function of its own entry rectangles, so
re-clipping exactly the nodes whose entries changed
(:func:`repro.engine.incremental_clip.reclip_nodes_for_results`) must
leave the store identical to throwing everything away and clipping every
node from scratch.  These tests apply random insert/delete batches to the
*bare* tree (no per-update clip maintenance), run one incremental pass,
and compare against the paper's Algorithm 1 run over every node
(conftest's ``scalar_clip_store``).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SnapshotManager, bulk_clip, delta, incremental_clip, save_snapshot
from repro.engine.incremental_clip import dirty_node_ids, reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.engine.snapshot_io import read_manifest
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from tests.conftest import scalar_clip_store


def _random_object(rng, oid):
    low = (rng.uniform(0, 100), rng.uniform(0, 100))
    high = (low[0] + rng.uniform(0, 5), low[1] + rng.uniform(0, 5))
    return SpatialObject(oid, Rect(low, high))


def _store_state(clipped):
    return dict(clipped.store.items())


def _full_recompute(clipped):
    return dict(scalar_clip_store(clipped.tree, clipped.config).items())


class TestReclipForResults:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(VARIANT_NAMES),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_reclip_equals_full_recompute(self, seed, variant):
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
        count = reclip_nodes_for_results(clipped, dirty_node_ids(results, clipped.tree))
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
        dirty = dirty_node_ids(results, clipped.tree)
        removed = set().union(*(r.removed_node_ids for r in results))
        # Heavy deletion must eliminate nodes; their clips must disappear.
        assert removed and removed <= dirty
        reclip_nodes_for_results(clipped, dirty)
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

    @pytest.mark.parametrize("subset", ["all", "leaves", "directory"])
    def test_reclip_nodes_restores_the_oracle(self, subset):
        clipped = self._clipped()
        nodes = [
            node
            for node in clipped.tree.nodes()
            if subset == "all" or (node.is_leaf == (subset == "leaves"))
        ]
        assert nodes
        # Give the subset wrong clip points (the root's) or none at all.
        wrong = clipped.store.get(clipped.tree.root_id)
        for node in nodes:
            clipped.store.put(node.node_id, wrong if node.node_id % 2 else [])
        assert clipped.reclip_nodes(node.node_id for node in nodes) == len(nodes)
        assert _store_state(clipped) == _full_recompute(clipped)

    def test_dead_node_ids_are_dropped_from_store(self):
        clipped = self._clipped()
        ghost_id = 10_000
        clipped.store.put(ghost_id, clipped.store.get(clipped.tree.root_id))
        assert clipped.reclip_nodes([ghost_id]) == 0
        assert clipped.store.get(ghost_id) == []

    def test_reclip_nodes_is_one_batched_pass(self, monkeypatch):
        """However many nodes, one call of the batched kernels clips them."""
        clipped = self._clipped()
        node_ids = sorted(node.node_id for node in clipped.tree.nodes())
        calls = []
        batch = bulk_clip.clip_nodes_batch

        def counted(lows, highs, counts, config):
            calls.append(len(counts))
            return batch(lows, highs, counts, config)

        monkeypatch.setattr(bulk_clip, "clip_nodes_batch", counted)
        before = _store_state(clipped)
        clipped.store.clear()
        assert clipped.reclip_nodes(node_ids) == len(node_ids)
        assert calls == [len(node_ids)]
        assert _store_state(clipped) == before


class TestSlicedCompaction:
    """``compact_step()`` until none remains, then ``compact()``, is ``compact()``:
    same work, same order, same snapshot."""

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
    def test_stepped_compaction_publishes_what_compact_publishes(
        self, variant, monkeypatch, tmp_path
    ):
        # A budget of zero and two-node chunks: a step per op and per chunk.
        monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)
        monkeypatch.setattr(incremental_clip, "_RECLIP_CHUNK_NODES", 2)
        (plain, plain_tree), (sliced, sliced_tree) = self._managers(variant, seed=17)
        whole = plain.compact()
        epochs = [sliced.epoch]
        while sliced.compact_step():
            epochs.append(sliced.epoch)
        assert sliced.compacting and not sliced.compact_step()
        parts = sliced.compact()
        assert (parts.applied_inserts, parts.applied_deletes, parts.reclipped_nodes) == (
            whole.applied_inserts, whole.applied_deletes, whole.reclipped_nodes,
        )
        # One step per op, then one per re-clip chunk; all before the swap.
        assert len(epochs) == 140 + -(-whole.reclipped_nodes // 2)
        assert set(epochs) == {0} and sliced.epoch == 1 and not sliced.compacting
        for name in self.ARRAYS:
            ours, theirs = getattr(sliced.snapshot, name), getattr(plain.snapshot, name)
            assert np.array_equal(ours, theirs), name
        fingerprints = [
            read_manifest(save_snapshot(manager.snapshot, tmp_path / name))["fingerprint"]
            for name, manager in (("plain", plain), ("sliced", sliced))
        ]
        assert fingerprints[0] == fingerprints[1]
        assert _store_state(sliced_tree) == _store_state(plain_tree)
        assert _store_state(sliced_tree) == _full_recompute(sliced_tree)
        sliced_tree.check_clip_invariants()


class TestInfiniteBoundsInAManager:
    """Objects with infinite bounds, zero-extent points and exact duplicates
    through a manager's compactions: each re-clips the nodes holding them
    (a node of infinite volume gets no clip points) and every range batch
    in between answers what a scan of the live objects answers."""

    SPECIALS = (
        Rect((-math.inf, 10.0), (20.0, 30.0)),
        Rect((-math.inf, -math.inf), (math.inf, math.inf)),
        Rect((-math.inf, 40.0), (math.inf, 40.0)),
        Rect((50.0, 50.0), (50.0, 50.0)),
        Rect((60.0, 0.0), (60.0, 100.0)),
    )

    def test_range_batches_equal_brute_force_across_compactions(self):
        rng = random.Random(29)
        live = [_random_object(rng, i) for i in range(150)]
        clipped = ClippedRTree.wrap(
            build_rtree("quadratic", live, max_entries=6), method="stairline"
        )
        manager = SnapshotManager(clipped, compact_every=20)
        queries = [_random_object(rng, -1).rect for _ in range(24)]
        queries += [Rect((-math.inf, 45.0), (math.inf, 55.0)), self.SPECIALS[1]]
        oid = 1_000
        while manager.total_compactions < 6:
            for _ in range(10):
                if rng.random() < 0.5:
                    rect = rng.choice(self.SPECIALS)
                else:  # an exact duplicate of a live rectangle
                    rect = rng.choice(live).rect
                obj = SpatialObject(oid, rect)
                oid += 1
                live.append(obj)
                manager.insert(obj)
                victim = live.pop(rng.randrange(len(live)))
                assert manager.delete(victim)
            answers = manager.range_query_batch(queries)
            for query, answer in zip(queries, answers):
                expected = sorted(obj.oid for obj in live if obj.rect.intersects(query))
                assert sorted(obj.oid for obj in answer) == expected
        assert _store_state(clipped) == _full_recompute(clipped)
        clipped.tree.check_invariants()
