"""A freeze fed by the clipped tree's last clip pass ≡ a walk of every node and a ``clip_all``.

A fold re-clips the nodes its writes dirtied (``ClippedRTree.reclip_nodes``,
chunk by chunk when stepped); the re-clip stacks their entry rows once, its
kernel returns their clip points as arrays, and the clipped tree records
both, chunk after chunk, as its last clip pass.  ``ColumnarIndex.from_tree``
asks for the fresh slots' rows and clip runs (``ClippedRTree.clip_pass``),
so it stacks no node and reads no clip store entry.  After every fold,
whole or stepped, over every insertion variant and STR packing with slack,
plain and clipped (CSKY and CSTA), in 2-d and 3-d:

* the published snapshot equals ``from_tree`` of the same source with its
  kept freeze and clip pass dropped (``conftest.walked_freeze``: every
  node walked, every clip run read from the store), byte for byte,
  objects by identity;
* the store equals a fresh ``clip_all`` of the tree, scores included.

A fold over a thawed tree (no generation to copy from) walks every node
and reads every clip run from the store.  A record the store moved past
(a direct ``store.put``) or one that lacks a fresh node is not read: the
rows come from the nodes and the clip runs from the store (after a
per-update ``insert`` / ``delete``: ``TestKeptFreeze`` in
``tests/test_build_differential.py``).  Only the freeze the tree kept last
may be the previous generation.
"""

import random

import numpy as np
import pytest

from repro.engine import ColumnarIndex, SnapshotManager, delta, incremental_clip
from repro.engine.incremental_clip import dirty_node_ids, reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import FreezeReads, walked_freeze
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
    reads = FreezeReads(monkeypatch)
    for _ in range(3):
        run.write(40)
        reads.reset()
        run.fold(stepped)
        if method is not None:
            # Every fresh slot came from the record of the fold's re-clip.
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
    reads = FreezeReads(monkeypatch)
    run.fold(stepped)
    # No generation of this tree to copy from: every node is walked and a
    # clipped tree's every clip run read from the store.
    nodes = manager.snapshot.node_count()
    assert (reads.rows, reads.clips) == (nodes, 0 if method is None else nodes)
    # A thawed store keeps the clip points' order, not their scores
    # (ColumnarIndex.to_tree): the nodes no fold re-clipped hold 0.0.
    assert_fold_is_walk_and_clip_all(manager, scores=False)
    run.write(40)
    reads.reset()
    run.fold(stepped)
    if method is not None:
        assert reads.rows == reads.clips == 0
    assert_fold_is_walk_and_clip_all(manager, scores=False)


def _batch(seed=3):
    """A clipped tree, its freeze, and 20 deletes and 20 inserts made on its tree since.

    Returns ``(clipped, previous, dirty, live)``: the dirty set of those
    writes and its ids still in the tree, in order; nothing re-clipped yet.
    """
    rng = random.Random(seed)
    objects = [_box(rng, i, 2) for i in range(120)]
    clipped = _source("rstar", {}, "stairline", objects, 2)
    previous = ColumnarIndex.from_tree(clipped)
    results = [clipped.tree.delete(obj) for obj in objects[:20]]
    results += [clipped.tree.insert(_box(rng, 1000 + i, 2)) for i in range(20)]
    dirty = dirty_node_ids(results, clipped.tree)
    live = sorted(node_id for node_id in dirty if clipped.tree.has_node(node_id))
    return clipped, previous, dirty, live


def _fresh_slots(snapshot, previous, dirty):
    """The slots of ``snapshot`` not copied from ``previous``, in slot order."""
    ids = snapshot.node_ids.tolist()
    return [slot for slot, node_id in enumerate(ids) if node_id in dirty or node_id not in previous.node_ids]


def test_chunks_add_up_to_one_record(monkeypatch):
    """Two re-clip calls with nothing between them: the freeze reads both, and nothing else."""
    clipped, previous, dirty, live = _batch()
    assert reclip_nodes_for_results(clipped, dirty - {live[-1]}) == len(live) - 1
    assert reclip_nodes_for_results(clipped, [live[-1]]) == 1
    reads = FreezeReads(monkeypatch)
    snapshot = ColumnarIndex.from_tree(clipped, previous, dirty)
    assert reads.rows == reads.clips == 0
    assert_same_freeze(snapshot, walked_freeze(clipped))


def test_a_record_that_lacks_a_fresh_node_is_not_read(monkeypatch):
    """A fresh node no pass since the writes clipped: every fresh node's rows and runs are read."""
    clipped, previous, dirty, live = _batch()
    assert reclip_nodes_for_results(clipped, dirty - {live[-1]}) == len(live) - 1
    reads = FreezeReads(monkeypatch)
    snapshot = ColumnarIndex.from_tree(clipped, previous, dirty)
    fresh = len(_fresh_slots(snapshot, previous, dirty))
    assert reads.rows == reads.clips == fresh > 0
    # The store still holds the node's clip points from before the writes,
    # and the freeze says so; a re-clip of it brings both up to date.
    assert_same_freeze(snapshot, walked_freeze(clipped))
    clipped, previous, dirty, live = _batch()
    reclip_nodes_for_results(clipped, dirty)
    assert_same_freeze(ColumnarIndex.from_tree(clipped, previous, dirty), walked_freeze(clipped))


def test_a_store_write_after_the_re_clip_makes_the_record_stale(monkeypatch):
    clipped, previous, dirty, live = _batch()
    reclip_nodes_for_results(clipped, dirty)
    root = clipped.tree.root_id
    clipped.store.put(root, clipped.store.get(root)[1:])  # the root loses its best clip point
    reads = FreezeReads(monkeypatch)
    snapshot = ColumnarIndex.from_tree(clipped, previous, dirty)
    fresh = len(_fresh_slots(snapshot, previous, dirty))
    assert reads.rows == reads.clips == fresh > 0
    assert_same_freeze(snapshot, walked_freeze(clipped))


def test_a_stale_previous_is_refused():
    """Only the freeze the tree kept last may be copied from: an older one misses later writes."""
    rng = random.Random(5)
    clipped = ClippedRTree.wrap(
        build_rtree("quadratic", [_box(rng, i, 2) for i in range(300)], max_entries=8)
    )
    generations = [ColumnarIndex.from_tree(clipped)]
    for fold in range(2):
        results = [clipped.tree.insert(_box(rng, 1000 * (fold + 1) + i, 2)) for i in range(20)]
        dirty = dirty_node_ids(results, clipped.tree)
        clipped.reclip_nodes(dirty)
        generations.append(ColumnarIndex.from_tree(clipped, generations[-1], dirty))
    for stale in generations[:2]:
        with pytest.raises(ValueError, match="kept last"):
            ColumnarIndex.from_tree(clipped, stale, dirty)
    with pytest.raises(ValueError, match="kept last"):
        ColumnarIndex.from_tree(clipped, walked_freeze(clipped), set())
    assert len(generations[-1].objects) == len(clipped) == 340
    assert_same_freeze(generations[-1], walked_freeze(clipped))
