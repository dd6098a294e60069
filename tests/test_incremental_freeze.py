"""The compaction's freeze ≡ a from-scratch freeze, generation after generation.

``SnapshotManager.compact`` freezes by handing ``ColumnarIndex.from_tree``
the generation it replaces and the node ids the fold dirtied: only those
nodes are read from the tree, every other node's entry rows, leaf objects
and clip run are copied from the previous generation.  Each generation is
built on the previous *incremental* one, so an error would compound.
After every compaction the published snapshot must equal
``ColumnarIndex.from_tree(source)`` with nothing to copy from and no
freeze kept by the tree (``conftest.walked_freeze``):

* the eleven canonical arrays and the oid column — the twelve arrays a
  snapshot persists — byte for byte (so ``-0.0`` is not ``0.0``);
* ``objects`` element by element, by identity;
* the ``save_snapshot`` manifest fingerprint — a hash of exactly those
  bytes, names, dtypes and shapes, so the grid of plain chains checks it
  once per chain (a save fsyncs thirteen files) and the edge cases after
  every compaction.

Every incremental freeze is also spied on (``recorded_freezes``): it
calls ``tree.node`` exactly once for each dirty node the new layout
holds and for no other node, never walks the tree (``bfs_nodes``,
``walk``), and its layout, slot map and oid column equal those of the
walking freeze it replaced (``conftest.walked_refreeze``).

The chains cover every insertion variant and STR packing at fill 0.7, at
three fan-outs, three dimensionalities, clipped and plain, plus the
structural edge cases, folded whole and step by step: root splits, a
root shrinking to a leaf, condense-tree reinsertion at directory level,
an emptied tree, inserts staged mid-compaction and a base that was stale
before the fold (which must not be reused).
"""

import contextlib
import random
import tempfile
from pathlib import Path
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ColumnarIndex, SnapshotManager, columnar, save_snapshot
from repro.engine.snapshot_io import read_manifest
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree import base as rtree_base, freeze as rtree_freeze
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import walked_freeze, walked_refreeze

CANONICAL = (
    "is_leaf", "entry_start", "entry_count", "node_ids", "entry_lows", "entry_highs",
    "entry_child", "clip_coords", "clip_is_high", "node_clip_start", "node_clip_count",
)

#: Every variant ``build_rtree`` builds, and STR packed with slack.
BUILT = ("quadratic", "hilbert", "rstar", "rrstar", "str")
VARIANTS = BUILT + ("str-0.7",)

GENERATIONS = 10


FREEZE_ARRAYS = (
    "is_leaf", "entry_start", "entry_count", "node_ids", "entry_lows", "entry_highs",
    "entry_child",
)


def _walk_forbidden(*args, **kwargs):
    raise AssertionError("an incremental freeze walked the tree")


def _spied_freeze(freeze, cls, index, previous, dirty, *args, **kwargs):
    """``freeze`` with ``previous``, checking what it reads of the tree and what it makes."""
    tree = index.tree if isinstance(index, ClippedRTree) else index
    reads: List[int] = []
    read = tree.node

    def node(node_id):
        reads.append(node_id)
        return read(node_id)

    with mock.patch.object(tree, "node", node), mock.patch.object(
        rtree_freeze, "bfs_nodes", _walk_forbidden
    ), mock.patch.object(rtree_base, "walk", _walk_forbidden):
        snapshot = freeze(cls, index, previous, dirty, *args, **kwargs)
    assert "node" not in vars(tree)
    # Each node the fold dirtied and the layout holds, once; nothing else.
    assert sorted(reads) == sorted(set(snapshot.node_ids.tolist()) & set(dirty))
    oracle, oracle_slots, oracle_oids = walked_refreeze(tree, previous, dirty)
    for name in FREEZE_ARRAYS:
        assert getattr(snapshot, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert len(snapshot.objects) == len(oracle.objects)
    assert all(ours is theirs for ours, theirs in zip(snapshot.objects, oracle.objects))
    if oracle_oids is None:
        assert snapshot._object_oids is None
    else:
        assert snapshot._object_oids.tobytes() == oracle_oids.tobytes()
    _, slots, *_ = columnar._refreeze(tree, previous, dirty)
    assert slots.tobytes() == oracle_slots.tobytes()
    return snapshot


@contextlib.contextmanager
def recorded_freezes():
    """Patch ``from_tree`` to record, per call, whether it was handed a previous generation.

    A call that was is spied on and checked against the walking freeze
    (``_spied_freeze``).
    """
    calls: List[bool] = []
    freeze = ColumnarIndex.from_tree.__func__

    def recording(cls, index, previous=None, dirty=frozenset(), *args, **kwargs):
        calls.append(previous is not None)
        if previous is None:
            return freeze(cls, index, previous, dirty, *args, **kwargs)
        return _spied_freeze(freeze, cls, index, previous, dirty, *args, **kwargs)

    with mock.patch.object(ColumnarIndex, "from_tree", classmethod(recording)):
        yield calls


def _fingerprint(snapshot: ColumnarIndex, directory: Path) -> str:
    return read_manifest(save_snapshot(snapshot, directory))["fingerprint"]


def assert_is_fresh_freeze(manager: SnapshotManager, scratch: Path, fingerprint=True) -> None:
    """The manager's snapshot equals a from-scratch freeze of its source."""
    fresh = manager.snapshot
    oracle = walked_freeze(manager._source)
    for name in CANONICAL:
        ours, theirs = getattr(fresh, name), getattr(oracle, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert fresh.object_oids().tobytes() == oracle.object_oids().tobytes()
    assert len(fresh.objects) == len(oracle.objects)
    assert all(ours is theirs for ours, theirs in zip(fresh.objects, oracle.objects))
    if fingerprint:
        assert _fingerprint(fresh, scratch / "fresh") == _fingerprint(oracle, scratch / "oracle")


def _box(rng: random.Random, oid: int, dims: int) -> SpatialObject:
    low = [rng.uniform(0, 100) for _ in range(dims)]
    return SpatialObject(oid, Rect(low, [x + rng.uniform(0, 6) for x in low]))


class Chain:
    """A manager over a built tree, driven one generation at a time."""

    def __init__(self, variant, max_entries, dims, clipped, seed, count):
        self.rng = random.Random(seed)
        self.dims = dims
        self.live = [_box(self.rng, i, dims) for i in range(count)]
        self.next_oid = 10_000
        if variant == "str-0.7":
            tree = str_bulk_load(self.live, max_entries=max_entries, leaf_fill=0.7)
        else:
            tree = build_rtree(variant, self.live, max_entries=max_entries)
        self.source = ClippedRTree.wrap(tree, method="stairline") if clipped else tree
        self.tree = tree
        self.manager = SnapshotManager(self.source)

    def new_object(self) -> SpatialObject:
        self.next_oid += 1
        return _box(self.rng, self.next_oid, self.dims)

    def write(self, ops: int, delete_share: float = 0.5) -> None:
        for _ in range(ops):
            if self.live and self.rng.random() < delete_share:
                victim = self.live.pop(self.rng.randrange(len(self.live)))
                assert self.manager.delete(victim)
            else:
                obj = self.new_object()
                self.live.append(obj)
                self.manager.insert(obj)

    def compact_and_check(
        self, freezes: List[bool], scratch: Path, incremental=True, fingerprint=True,
        stepped=False,
    ) -> None:
        before = len(freezes)
        # Writes may cancel out in the overlay (an insert deleted again).
        folds = not self.manager.overlay.is_empty
        if stepped:
            while self.manager.compact_step():
                pass
        self.manager.compact()
        assert freezes[before:] == ([incremental] if folds else [])
        assert_is_fresh_freeze(self.manager, scratch, fingerprint)
        assert len(self.manager.snapshot.objects) == len(self.live)


@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "plain"])
@pytest.mark.parametrize("dims", [2, 3, 5])
@pytest.mark.parametrize("max_entries", [4, 10, 48])
@pytest.mark.parametrize("variant", VARIANTS)
def test_chained_generations_equal_a_fresh_freeze(variant, max_entries, dims, clipped, tmp_path):
    chain = Chain(
        variant, max_entries, dims, clipped, seed=max_entries * dims, count=2 * max_entries + 16
    )
    ops = max(6, len(chain.live) // 8)
    with recorded_freezes() as freezes:
        for generation in range(GENERATIONS):
            chain.write(ops)
            chain.compact_and_check(
                freezes, tmp_path, fingerprint=generation == GENERATIONS - 1
            )
    chain.tree.check_invariants()


def _root_splits(variant, stepped, tmp_path):
    chain = Chain(variant, 4, 2, True, seed=1, count=3)
    heights = set()
    with recorded_freezes() as freezes:
        for _ in range(GENERATIONS):
            chain.write(7, delete_share=0.1)
            chain.compact_and_check(freezes, tmp_path, stepped=stepped)
            heights.add(chain.tree.height)
    assert len(heights) >= 3, "the stream must split the root more than once"


@pytest.mark.parametrize("variant", VARIANTS)
def test_root_splits(variant, tmp_path):
    _root_splits(variant, False, tmp_path)


@pytest.mark.parametrize("variant", VARIANTS)
def test_root_splits_stepped(variant, tmp_path):
    _root_splits(variant, True, tmp_path)


def _root_shrinks_to_a_leaf_and_the_tree_empties(variant, stepped, tmp_path):
    chain = Chain(variant, 4, 2, True, seed=2, count=90)
    assert chain.tree.height >= 3
    with recorded_freezes() as freezes:
        while chain.live:
            chain.write(min(12, len(chain.live)), delete_share=1.0)
            chain.compact_and_check(freezes, tmp_path, stepped=stepped)
        assert chain.tree.root.is_leaf and len(chain.tree) == 0
        # The emptied tree keeps taking writes, generation after generation.
        for _ in range(3):
            chain.write(5, delete_share=0.0)
            chain.compact_and_check(freezes, tmp_path, stepped=stepped)


@pytest.mark.parametrize("variant", VARIANTS)
def test_root_shrinks_to_a_leaf_and_the_tree_empties(variant, tmp_path):
    _root_shrinks_to_a_leaf_and_the_tree_empties(variant, False, tmp_path)


@pytest.mark.parametrize("variant", VARIANTS)
def test_root_shrinks_to_a_leaf_and_the_tree_empties_stepped(variant, tmp_path):
    _root_shrinks_to_a_leaf_and_the_tree_empties(variant, True, tmp_path)


def _condense_tree_reinserts_directory_entries(variant, stepped, tmp_path):
    chain = Chain(variant, 4, 2, True, seed=3, count=160)
    condensed = False
    with recorded_freezes() as freezes:
        for _ in range(GENERATIONS):
            tree = chain.tree
            directories = {node.node_id for node in tree.internal_nodes()} - {tree.root_id}
            # Delete one region: its directory nodes underflow and their
            # child pointers are re-inserted one level up.
            chain.live.sort(key=lambda obj: obj.rect.low)
            for victim in chain.live[:8]:
                assert chain.manager.delete(victim)
            del chain.live[:8]
            chain.write(3, delete_share=0.0)
            chain.compact_and_check(freezes, tmp_path, stepped=stepped)
            condensed |= any(not tree.has_node(node_id) for node_id in directories)
    assert condensed, "no directory node below the root was condensed"


@pytest.mark.parametrize("variant", VARIANTS)
def test_condense_tree_reinserts_directory_entries(variant, tmp_path):
    _condense_tree_reinserts_directory_entries(variant, False, tmp_path)


@pytest.mark.parametrize("variant", VARIANTS)
def test_condense_tree_reinserts_directory_entries_stepped(variant, tmp_path):
    _condense_tree_reinserts_directory_entries(variant, True, tmp_path)


def test_inserts_staged_mid_compaction(tmp_path):
    chain = Chain("rstar", 6, 2, True, seed=4, count=80)
    manager = chain.manager
    with recorded_freezes() as freezes:
        for _ in range(GENERATIONS):
            chain.write(12)
            before = len(freezes)
            # Three inserts between the fold's first steps, then the swap.
            for _ in range(3):
                manager.compact_step()
                obj = chain.new_object()
                chain.live.append(obj)
                manager.insert(obj)
            manager.compact()
            assert freezes[before:] == [True]
            assert manager.pending_ops >= 1  # the staged inserts wait for the next fold
            assert_is_fresh_freeze(manager, tmp_path)
        chain.compact_and_check(freezes, tmp_path)
    assert manager.pending_ops == 0


def test_a_stale_base_is_not_reused(tmp_path):
    chain = Chain("quadratic", 6, 2, True, seed=5, count=80)
    with recorded_freezes() as freezes:
        for generation in range(GENERATIONS):
            chain.write(10)
            if generation % 3 == 1:
                # Mutate the source behind the manager's back, far from
                # everything else: no change tracking reports it.
                outsider = SpatialObject(
                    -generation, Rect((500.0 + generation, 500.0), (501.0 + generation, 501.0))
                )
                chain.tree.insert(outsider)
                chain.live.append(outsider)
                assert chain.manager.snapshot.is_stale
            chain.compact_and_check(freezes, tmp_path, incremental=generation % 3 != 1)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(VARIANTS),
    st.sampled_from([4, 5, 10, 48]),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=10, deadline=None)
def test_chained_generations_equal_a_fresh_freeze_hypothesis(
    seed, variant, max_entries, dims, clipped, delete_share
):
    chain = Chain(variant, max_entries, dims, clipped, seed=seed, count=2 * max_entries + 5)
    with tempfile.TemporaryDirectory() as scratch, recorded_freezes() as freezes:
        for _ in range(GENERATIONS):
            chain.write(chain.rng.randint(1, 15), delete_share=delete_share)
            chain.compact_and_check(freezes, Path(scratch))


def reference_freeze(index):
    """The canonical arrays by a per-entry walk: the freeze as it was first written."""
    tree = index.tree if isinstance(index, ClippedRTree) else index
    order, slot_of, queue = [], {}, [tree.root_id]
    while queue:
        node_id = queue.pop(0)
        slot_of[node_id] = len(order)
        order.append(node_id)
        if not tree.node(node_id).is_leaf:
            queue.extend(entry.child for entry in tree.node(node_id).entries)
    arrays = {name: [] for name in CANONICAL}
    objects = []
    for slot, node_id in enumerate(order):
        node = tree.node(node_id)
        arrays["is_leaf"].append(node.is_leaf)
        arrays["node_ids"].append(node_id)
        arrays["entry_start"].append(len(arrays["entry_child"]))
        arrays["entry_count"].append(len(node.entries))
        for entry in node.entries:
            arrays["entry_lows"].append(entry.rect.low)
            arrays["entry_highs"].append(entry.rect.high)
            if node.is_leaf:
                arrays["entry_child"].append(len(objects))
                objects.append(entry.child)
            else:
                arrays["entry_child"].append(slot_of[entry.child])
    starts, counts = [0] * len(order), [0] * len(order)
    for slot in [*range(1, len(order)), 0]:
        clips = index.store.get(order[slot]) if isinstance(index, ClippedRTree) else []
        if clips:
            starts[slot], counts[slot] = len(arrays["clip_coords"]), len(clips)
            arrays["clip_coords"].extend(clip.coord for clip in clips)
            arrays["clip_is_high"].extend(
                tuple(bool(clip.mask >> d & 1) for d in range(tree.dims)) for clip in clips
            )
    arrays["node_clip_start"], arrays["node_clip_count"] = starts, counts
    dtypes = {"is_leaf": bool, "clip_is_high": bool, "entry_lows": float, "entry_highs": float,
              "clip_coords": float}
    out = {}
    for name, values in arrays.items():
        array = np.array(values, dtype=dtypes.get(name, np.int64))
        if name in ("entry_lows", "entry_highs", "clip_coords", "clip_is_high"):
            array = array.reshape(-1, tree.dims)
        out[name] = array
    return out, objects


@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "plain"])
@pytest.mark.parametrize("variant", BUILT)
def test_full_freeze_equals_the_per_entry_walk(variant, clipped):
    """The one freeze, with nothing to copy, is the original freeze."""
    rng = random.Random(7)
    for dims, count in ((2, 0), (2, 3), (3, 60), (5, 140)):
        objects = [_box(rng, i, dims) for i in range(count)]
        tree = build_rtree(variant, objects, max_entries=6) if objects else QuadraticRTree(dims)
        index = ClippedRTree.wrap(tree) if clipped else tree
        frozen = ColumnarIndex.from_tree(index)
        expected, expected_objects = reference_freeze(index)
        for name in CANONICAL:
            ours = getattr(frozen, name)
            assert (ours.dtype, ours.shape) == (expected[name].dtype, expected[name].shape), name
            assert ours.tobytes() == expected[name].tobytes(), name
        assert all(a is b for a, b in zip(frozen.objects, expected_objects))
        assert len(frozen.objects) == len(expected_objects) == count


def test_previous_must_come_from_the_same_index():
    chain = Chain("quadratic", 6, 2, False, seed=6, count=30)
    other = build_rtree("quadratic", chain.live, max_entries=6)
    with pytest.raises(ValueError, match="same index"):
        ColumnarIndex.from_tree(other, previous=chain.manager.snapshot, dirty=set())
