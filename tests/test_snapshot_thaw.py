"""Thawing a snapshot back into its tree, and the one compaction path it buys.

:meth:`ColumnarIndex.to_tree` rebuilds the scalar tree a snapshot was
frozen from — node ids, levels, entry order, next node id and clip runs —
from the arrays and the tree record the snapshot carries.  Pinned here:

* *round trip* — ``from_tree(s.to_tree())`` equals ``s`` array for array,
  tree record and fingerprint included, for every variant × clipping
  method × d ∈ {2, 3, 5}, in memory, memory-mapped after a save, and for
  the array-native STR packer's output;
* *one path* — a manager over a loaded snapshot thaws at its first
  compaction and from then on publishes what a manager over the tree
  publishes, generation for generation;
* *recovery* — a fold that fails after it reached the tree leaves a
  manager whose next compaction thaws the published snapshot and folds
  the same writes exactly once.
"""

import copy
import random

import numpy as np
import pytest

from repro.engine import (
    ColumnarIndex,
    SnapshotManager,
    build_columnar_str,
    load_snapshot,
    save_snapshot,
)
from repro.engine.snapshot_io import _ARRAYS, _INDEX_ARRAYS, _fingerprint
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.query.range_query import brute_force_range
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import fail_after_write, make_random_objects

VARIANTS = ("quadratic", "rstar", "rrstar", "hilbert", "str")


def _fingerprint_of(snapshot):
    arrays = {name: getattr(snapshot, name) for name in _INDEX_ARRAYS}
    arrays["object_oids"] = snapshot.object_oids()
    assert set(arrays) == set(_ARRAYS)
    return _fingerprint(arrays)


def _assert_same_snapshot(actual, expected):
    """Array for array (dtype and shape included), record and fingerprint."""
    for name in _INDEX_ARRAYS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert actual.tree_record == expected.tree_record
    assert _fingerprint_of(actual) == _fingerprint_of(expected)


def _index(variant, dims, clip, count=150, seed=1):
    objects = make_random_objects(count, dims=dims, seed=seed)
    tree = build_rtree(variant, objects, max_entries=8)
    return objects, (ClippedRTree.wrap(tree, method=clip) if clip else tree)


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3, 5])
@pytest.mark.parametrize("clip", [None, "skyline", "stairline"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_thaw_then_freeze_is_the_snapshot(tmp_path, variant, clip, dims):
    _, index = _index(variant, dims, clip)
    snapshot = ColumnarIndex.from_tree(index)
    save_snapshot(snapshot, tmp_path)
    for source in (snapshot, load_snapshot(tmp_path, mmap=True)):
        thawed = source.to_tree()
        assert isinstance(thawed, ClippedRTree) == (clip is not None)
        tree = thawed.tree if clip else thawed
        tree.check_invariants()
        if clip:
            thawed.check_clip_invariants()
            assert thawed.config == index.config
        _assert_same_snapshot(ColumnarIndex.from_tree(thawed), snapshot)


def test_thawed_leaves_hold_the_snapshots_own_objects(tmp_path):
    _, index = _index("rstar", 2, "stairline")
    snapshot = ColumnarIndex.from_tree(index)
    save_snapshot(snapshot, tmp_path)
    loaded = load_snapshot(tmp_path, mmap=True)
    for source in (snapshot, loaded):
        thawed = source.to_tree()
        mine = {id(obj) for obj in source.take_objects(np.arange(len(source)))}
        assert {id(obj) for obj in thawed.tree.objects()} == mine
    # A loaded snapshot builds each object once: the thaw built them all.
    assert len(loaded.objects._cache) == len(loaded)


def _signed_grid_objects(count, dims, seed):
    """Integer-grid boxes with zeros of both signs and zero extents."""
    rng = random.Random(seed)

    def signed(value):
        return -0.0 if value == 0 and rng.random() < 0.5 else float(value)

    objects = []
    for oid in range(count):
        low = [signed(rng.randint(-3, 3)) for _ in range(dims)]
        high = [signed(lo + rng.choice((0, 0, 1, 2))) for lo in low]
        objects.append(SpatialObject(oid, Rect(low, high)))
    return objects


def _node_table(tree):
    """Every node as ``(id, level, entries)``, each entry as its bounds'
    values and sign bits and its child id or object oid."""
    def entry(e):
        bounds = e.rect.low + e.rect.high
        child = e.child.oid if isinstance(e.child, SpatialObject) else e.child
        return bounds, np.signbit(bounds).tolist(), child

    return sorted(
        (node.node_id, node.level, [entry(e) for e in node.entries]) for node in tree.nodes()
    )


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("variant", ["rstar", "str"])
def test_a_loaded_thaw_is_the_frozen_tree_node_for_node(tmp_path, variant, dims):
    # Directory rectangles and objects are built from rows checked as
    # arrays, not by Rect bound by bound; they must still be the frozen
    # tree's rectangles, zeros' sign bits included.
    tree = build_rtree(variant, _signed_grid_objects(300, dims, seed=dims), max_entries=8)
    snapshot = ColumnarIndex.from_tree(ClippedRTree.wrap(tree))
    save_snapshot(snapshot, tmp_path)
    for source in (snapshot, load_snapshot(tmp_path, mmap=True)):
        thawed = source.to_tree()
        assert _node_table(thawed.tree) == _node_table(tree)


@pytest.mark.parametrize("dims", [2, 3, 5])
def test_thaw_of_the_array_packer_is_str_bulk_load(dims):
    objects = make_random_objects(200, dims=dims, seed=4)
    packed = build_columnar_str(objects, max_entries=8)
    thawed = packed.to_tree()
    thawed.check_invariants()
    _assert_same_snapshot(ColumnarIndex.from_tree(thawed), packed)
    _assert_same_snapshot(
        ColumnarIndex.from_tree(str_bulk_load(objects, max_entries=8)), packed
    )


def test_an_empty_snapshot_thaws_into_an_empty_tree():
    objects, index = _index("quadratic", 2, "stairline", count=30)
    manager = SnapshotManager(index)
    for obj in objects:
        assert manager.delete(obj)
    manager.compact()
    empty = manager.snapshot
    assert len(empty) == 0
    thawed = empty.to_tree()
    assert len(thawed) == 0 and len(thawed.store) == 0
    _assert_same_snapshot(ColumnarIndex.from_tree(thawed), empty)


def test_a_snapshot_without_a_record_refuses_to_thaw():
    _, index = _index("quadratic", 2, None, count=30)
    snapshot = ColumnarIndex.from_tree(index)
    snapshot.tree_record = None
    with pytest.raises(ValueError, match="no tree record"):
        snapshot.to_tree()


# ----------------------------------------------------------------------
# one path: a loaded manager is the tree-backed manager
# ----------------------------------------------------------------------


def _fresh(rng, oid, dims):
    low = [rng.uniform(0.0, 97.0) for _ in range(dims)]
    return SpatialObject(oid, Rect(low, [c + rng.uniform(0.01, 3.0) for c in low]))


def _rounds(objects, dims, rounds=6, per_round=25, seed=9):
    """``rounds`` batches of ``(deletes, inserts)``, each object deleted once."""
    rng = random.Random(seed)
    victims = rng.sample(objects, rounds * per_round)
    batches = []
    for r in range(rounds):
        inserts = [_fresh(rng, 10**6 + r * per_round + i, dims) for i in range(per_round)]
        batches.append((victims[r * per_round : (r + 1) * per_round], inserts))
    return batches


def _apply(manager, deletes, inserts):
    for obj in deletes:
        assert manager.delete(obj)
    for obj in inserts:
        manager.insert(obj)
    return manager.compact()


@pytest.mark.parametrize("variant", ["quadratic", "rstar", "rrstar", "str"])
def test_a_loaded_manager_publishes_the_tree_backed_managers_generations(tmp_path, variant):
    objects, index = _index(variant, 2, "stairline", count=400)
    save_snapshot(ColumnarIndex.from_tree(index), tmp_path)
    loaded = SnapshotManager(load_snapshot(tmp_path, mmap=True))
    backed = SnapshotManager(copy.deepcopy(index))
    for deletes, inserts in _rounds(objects, 2):
        loaded_stats = _apply(loaded, deletes, inserts)
        backed_stats = _apply(backed, deletes, inserts)
        assert loaded_stats.reclipped_nodes == backed_stats.reclipped_nodes > 0
        _assert_same_snapshot(loaded.snapshot, backed.snapshot)
    assert loaded.epoch == backed.epoch == 6


def test_a_packed_manager_publishes_the_str_tree_managers_generations():
    objects = make_random_objects(400, dims=3, seed=6)
    packed = SnapshotManager(build_columnar_str(objects, max_entries=8))
    backed = SnapshotManager(str_bulk_load(objects, max_entries=8))
    for deletes, inserts in _rounds(objects, 3, rounds=5):
        _apply(packed, deletes, inserts)
        _apply(backed, deletes, inserts)
        _assert_same_snapshot(packed.snapshot, backed.snapshot)


def test_a_loaded_hilbert_manager_stays_exact_and_fully_clipped(tmp_path):
    """The thaw recomputes exact LHVs where the live tree kept lazy upper
    bounds, so later inserts may route differently and the two managers'
    trees may part.  What must hold after every compaction: answers equal
    brute force over the live objects, and the clip points equal a fresh
    ``clip_all`` of the manager's tree."""
    objects, index = _index("hilbert", 2, "stairline", count=400)
    save_snapshot(ColumnarIndex.from_tree(index), tmp_path)
    manager = SnapshotManager(load_snapshot(tmp_path, mmap=True))
    live = list(objects)
    rng = random.Random(3)
    for deletes, inserts in _rounds(objects, 2):
        assert _apply(manager, deletes, inserts).reclipped_nodes > 0
        live = [obj for obj in live if obj not in deletes] + inserts
        published = manager.snapshot
        fresh = ClippedRTree(published.source.tree, published.source.config)
        fresh.clip_all()
        _assert_same_snapshot(ColumnarIndex.from_tree(fresh), published)
        for _ in range(8):
            low = [rng.uniform(0, 90), rng.uniform(0, 90)]
            query = Rect(low, [c + 10.0 for c in low])
            assert sorted(o.oid for o in manager.range_query(query)) == sorted(
                o.oid for o in brute_force_range(live, query)
            )


def test_a_clipped_loaded_manager_keeps_its_clip_points(tmp_path):
    objects, index = _index("rstar", 2, "stairline", count=400)
    save_snapshot(ColumnarIndex.from_tree(index), tmp_path)
    loaded = load_snapshot(tmp_path, mmap=True)
    assert loaded.has_clips
    manager = SnapshotManager(loaded)
    # Construction is O(metadata): no object built, nothing thawed yet.
    assert len(loaded.objects._cache) == 0
    (deletes, inserts), *_ = _rounds(objects, 2)
    stats = _apply(manager, deletes, inserts)
    assert stats.reclipped_nodes > 0
    assert manager.snapshot.has_clips
    assert isinstance(manager.snapshot.source, ClippedRTree)


def test_the_thaw_is_a_slice_of_its_own(tmp_path):
    objects, index = _index("rstar", 2, "stairline", count=200)
    save_snapshot(ColumnarIndex.from_tree(index), tmp_path)
    manager = SnapshotManager(load_snapshot(tmp_path, mmap=True))
    (deletes, inserts), *_ = _rounds(objects, 2, per_round=10)
    for obj in deletes:
        manager.delete(obj)
    for obj in inserts:
        manager.insert(obj)
    # The first step thaws, and writes nothing.
    assert manager._source is None and manager.compact_step()
    assert len(manager._source) == len(objects) and not manager.snapshot.is_stale
    manager.compact()
    assert manager.epoch == 1 and len(manager) == len(objects)


# ----------------------------------------------------------------------
# recovery: a failed fold thaws the published snapshot
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fail_at", [1, 5, 30])
def test_a_fold_that_fails_midway_is_folded_again_once(fail_at):
    objects, index = _index("rstar", 2, "stairline", count=400)
    failing = SnapshotManager(copy.deepcopy(index))
    reference = SnapshotManager(copy.deepcopy(index))
    (deletes, inserts), (more_deletes, more_inserts), *_ = _rounds(objects, 2)
    for manager in (failing, reference):
        for obj in deletes:
            manager.delete(obj)
        for obj in inserts:
            manager.insert(obj)
    fail_after_write(failing, fail_at, OSError("lost the lane"))
    with pytest.raises(OSError):
        failing.compact()
    assert failing._source is None and not failing.compacting
    assert failing.epoch == 0 and failing.pending_ops == len(deletes) + len(inserts)
    reference.compact()
    failing.compact()
    _assert_same_snapshot(failing.snapshot, reference.snapshot)
    # ...and it keeps folding incrementally into the tree it thawed.
    _apply(failing, more_deletes, more_inserts)
    _apply(reference, more_deletes, more_inserts)
    _assert_same_snapshot(failing.snapshot, reference.snapshot)
