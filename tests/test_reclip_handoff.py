"""A freeze fed by the re-clip's hand-off ≡ a walk of every node and a ``clip_all``.

A fold re-clips the nodes its writes dirtied (``ClippedRTree.reclip_nodes``,
chunk by chunk when stepped); the re-clip stacks their entry rows once and
its kernel returns their clip points as arrays, and the fold hands both to
``ColumnarIndex.from_tree``, which writes the fresh slots from them and
reads neither the nodes' entries nor the clip store again.  After every
fold, whole or stepped, over every insertion variant and STR packing with
slack, plain and clipped (CSKY and CSTA), in 2-d and 3-d:

* the published snapshot equals ``from_tree`` of the same source with its
  kept freeze dropped (``conftest.walked_freeze``: every node walked, every
  clip run read from the store), byte for byte, objects by identity;
* the store equals a fresh ``clip_all`` of the tree, scores included.

A fold over a thawed tree (no generation to copy from) walks every node
and reads every clip run from the store, as it did before the hand-off.
"""

import random

import numpy as np
import pytest

from repro.engine import ColumnarIndex, SnapshotManager, columnar, delta, incremental_clip
from repro.engine.incremental_clip import dirty_node_ids, reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import walked_freeze
from tests.test_located_apply import assert_same_freeze

SOURCES = [(name, {}) for name in VARIANT_NAMES] + [("str", {"leaf_fill": 0.7})]
CLIPS = (None, "skyline", "stairline")


def _box(rng, oid, dims):
    low = [rng.uniform(0, 100) for _ in range(dims)]
    return SpatialObject(oid, Rect(low, [x + rng.uniform(0, 6) for x in low]))


def _source(variant, kwargs, method, objects, dims):
    if variant == "str":
        tree = str_bulk_load(objects, max_entries=8, **kwargs)
    else:
        tree = build_rtree(variant, objects, max_entries=8)
    return tree if method is None else ClippedRTree.wrap(tree, method=method)


def _store_table(store, scores=True):
    """Everything a store holds, coordinate bytes (``-0.0``) included."""
    return {
        node_id: [
            (np.array(cp.coord).tobytes(), cp.mask, cp.score if scores else None) for cp in points
        ]
        for node_id, points in store.items()
    }


class Reads:
    """Counts the freeze's own reads: rows stacked from nodes, clip runs read from a store."""

    def __init__(self, monkeypatch):
        self.rows = self.clips = 0
        node_rows, stored_clips = columnar.node_rows, columnar._stored_clips

        def rows(nodes, dims):
            self.rows += len(nodes)
            return node_rows(nodes, dims)

        def clips(clips_of, dims, node_ids):
            self.clips += len(node_ids)
            return stored_clips(clips_of, dims, node_ids)

        monkeypatch.setattr(columnar, "node_rows", rows)
        monkeypatch.setattr(columnar, "_stored_clips", clips)


class Interleaving:
    """Seeded inserts and deletes through a manager, folded whole or step by step."""

    def __init__(self, manager, live, dims, seed):
        self.manager = manager
        self.live = list(live)
        self.dims = dims
        self.rng = random.Random(seed)
        self.next_oid = 10_000

    def write(self, count):
        for _ in range(count):
            if self.live and self.rng.random() < 0.5:
                victim = self.live.pop(self.rng.randrange(len(self.live)))
                assert self.manager.delete(victim)
            else:
                self.next_oid += 1
                obj = _box(self.rng, self.next_oid, self.dims)
                self.live.append(obj)
                self.manager.insert(obj)

    def fold(self, stepped):
        """One fold; a stepped one takes a write after every other step (the next fold's)."""
        if stepped:
            steps = 0
            while self.manager.compact_step():
                steps += 1
                if steps % 2:
                    self.write(1)
        self.manager.compact()


def assert_fold_is_walk_and_clip_all(manager, scores=True):
    source = manager._source
    assert_same_freeze(manager.snapshot, walked_freeze(source))
    if isinstance(source, ClippedRTree):
        fresh = ClippedRTree(source.tree, source.config)
        fresh.clip_all()
        assert _store_table(source.store, scores) == _store_table(fresh.store, scores)


@pytest.mark.parametrize("dims", (2, 3))
@pytest.mark.parametrize("method", CLIPS, ids=["plain", "csky", "csta"])
@pytest.mark.parametrize("variant,kwargs", SOURCES, ids=[v for v, _ in SOURCES])
@pytest.mark.parametrize("stepped", (False, True), ids=["whole", "stepped"])
def test_each_fold_equals_a_walk_and_a_clip_all(
    variant, kwargs, method, dims, stepped, monkeypatch
):
    if stepped:
        monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)  # a step after every write
        monkeypatch.setattr(incremental_clip, "_RECLIP_CHUNK_NODES", 5)
    seed = sum(map(ord, f"{variant}{method}{dims}{stepped}"))
    rng = random.Random(seed)
    objects = [_box(rng, i, dims) for i in range(150)]
    manager = SnapshotManager(_source(variant, kwargs, method, objects, dims))
    run = Interleaving(manager, objects, dims, seed)
    reads = Reads(monkeypatch)
    for _ in range(3):
        run.write(40)
        reads.rows = reads.clips = 0
        run.fold(stepped)
        if method is not None:
            # Every fresh slot came from the re-clip's hand-off.
            assert reads.rows == reads.clips == 0
        assert_fold_is_walk_and_clip_all(manager)


@pytest.mark.parametrize("dims", (2, 3))
@pytest.mark.parametrize("method", CLIPS, ids=["plain", "csky", "csta"])
@pytest.mark.parametrize("stepped", (False, True), ids=["whole", "stepped"])
def test_a_thawed_trees_first_fold_walks(method, dims, stepped, monkeypatch):
    rng = random.Random(dims)
    objects = [_box(rng, i, dims) for i in range(150)]
    snapshot = ColumnarIndex.from_tree(_source("rstar", {}, method, objects, dims))
    snapshot.source = None  # as a loaded snapshot: no tree behind it
    manager = SnapshotManager(snapshot)
    run = Interleaving(manager, objects, dims, seed=dims)
    run.write(40)
    reads = Reads(monkeypatch)
    run.fold(stepped)
    # No generation of this tree to copy from: every clip run is read.
    assert reads.clips == manager.snapshot.node_count()
    # A thawed store keeps the clip points' order, not their scores
    # (ColumnarIndex.to_tree): the nodes no fold re-clipped hold 0.0.
    assert_fold_is_walk_and_clip_all(manager, scores=False)
    run.write(40)
    reads.rows = reads.clips = 0
    run.fold(stepped)
    if method is not None:
        assert reads.rows == reads.clips == 0
    assert_fold_is_walk_and_clip_all(manager, scores=False)


def test_a_hand_off_must_hold_every_fresh_node():
    """A fold hands over every node it re-clipped, and every node it did not copy is one."""
    rng = random.Random(3)
    objects = [_box(rng, i, 2) for i in range(120)]
    clipped = _source("rstar", {}, "stairline", objects, 2)
    previous = ColumnarIndex.from_tree(clipped)
    results = [clipped.tree.delete(obj) for obj in objects[:20]]
    results += [clipped.tree.insert(_box(rng, 1000 + i, 2)) for i in range(20)]
    dirty = dirty_node_ids(results, clipped.tree)
    live = sorted(node_id for node_id in dirty if clipped.tree.has_node(node_id))
    handed = []
    assert reclip_nodes_for_results(clipped, dirty - {live[-1]}, handed) == len(live) - 1
    with pytest.raises(ValueError, match=f"node {live[-1]} is fresh but was not handed over"):
        ColumnarIndex.from_tree(clipped, previous, dirty, reclipped=handed)
    assert reclip_nodes_for_results(clipped, [live[-1]], handed) == 1
    assert_same_freeze(
        ColumnarIndex.from_tree(clipped, previous, dirty, reclipped=handed), walked_freeze(clipped)
    )
