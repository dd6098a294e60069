"""A compaction's apply ≡ the same writes one at a time through plain ``delete`` / ``insert``.

A fold (``SnapshotManager.compact``) deletes each buffered base object
along the root-to-leaf path its freeze locates (``RTreeBase._delete_at``,
checked before use, searched for when it no longer holds or the object's
id is not unique in the base), and every write refreshes its ancestors
only up to the first parent entry it leaves unchanged.  The oracle is a
twin tree built from the same objects that takes the fold's writes in
the fold's order — deletes, then inserts — through plain ``tree.delete``
/ ``tree.insert`` with the full walk to the root patched back in
(``conftest.full_refresh``).  After every fold, whole or stepped, the
published snapshot must equal a walked freeze of the twin
(``conftest.walked_freeze``) byte for byte, objects by identity.  Every
write the managed tree takes is checked as it lands: each directory entry
equals its child's ``mbb()``, and each node whose parent entry moved is in
the result's ``mbb_changed_node_ids``.

The fallbacks are pinned one by one: duplicate ids in the base, a path
broken by an earlier delete's condense-tree reinsertion, a fold over a
thawed tree, infinite extents and ``-0.0`` / ``0.0`` on node boundaries.
"""

import contextlib
import copy
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.datasets import generate
from repro.engine import SnapshotManager, build_columnar_str, delta
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import full_refresh, walked_freeze
from tests.test_build_differential import EDGE_SHAPES, _grid_boxes

ARRAYS = (
    "is_leaf", "entry_start", "entry_count", "node_ids", "entry_lows", "entry_highs",
    "entry_child", "clip_coords", "clip_is_high", "node_clip_start", "node_clip_count",
)

#: ``(variant, keyword arguments)``: every insertion variant, and STR packing
#: with slack in its leaves.
SOURCES = [(name, {}) for name in VARIANT_NAMES] + [("str", {"leaf_fill": 0.7})]


def _build(variant, objects, max_entries, **kwargs):
    if variant == "str":
        return str_bulk_load(objects, max_entries=max_entries, **kwargs)
    return build_rtree(variant, objects, max_entries=max_entries)


def _box(rng, oid, dims=2):
    low = [rng.uniform(0, 100) for _ in range(dims)]
    return SpatialObject(oid, Rect(low, [x + rng.uniform(0, 5) for x in low]))


def _parent_rects(tree):
    return {e.child: (e.rect.low, e.rect.high) for n in tree.internal_nodes() for e in n.entries}


@contextlib.contextmanager
def checked_writes():
    """Check every tree write on landing; count, per tree, the deletes and the searches."""
    counts = Counter()
    insert, delete_at, find_leaf = RTreeBase.insert, RTreeBase._delete_at, RTreeBase._find_leaf

    def checked(write, kind):
        def run(self, *args):
            before = _parent_rects(self)
            result = write(self, *args)
            counts[kind, id(self)] += 1
            for node in self.internal_nodes():
                for entry in node.entries:
                    assert entry.rect == self.node(entry.child).mbb(), f"stale entry {entry.child}"
            after = _parent_rects(self)
            moved = {child for child, rect in before.items() if after.get(child, rect) != rect}
            assert moved <= result.mbb_changed_node_ids
            return result

        return run

    def searching(self, obj):
        counts["search", id(self)] += 1
        counts["searched", id(self), obj.oid] += 1
        return find_leaf(self, obj)

    with mock.patch.object(RTreeBase, "insert", checked(insert, "insert")), mock.patch.object(
        RTreeBase, "_delete_at", checked(delete_at, "delete")
    ), mock.patch.object(RTreeBase, "_find_leaf", searching):
        yield counts


def assert_same_freeze(ours, theirs):
    for name in ARRAYS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert ours.object_oids().tobytes() == theirs.object_oids().tobytes()
    assert len(ours.objects) == len(theirs.objects)
    assert all(a is b for a, b in zip(ours.objects, theirs.objects))


class Run:
    """A manager and its twin, fed the same writes; the twin takes each fold's writes in order.

    ``source`` is what the manager starts from, ``twin`` a tree equal to
    its tree.  Writes made while a stepped fold is in flight belong to the
    next fold, as the manager's log replays them onto the fresh overlay.
    """

    def __init__(self, source, twin, live, rng, new_object):
        self.manager = SnapshotManager(source)
        self.twin = twin
        self.clipping = getattr(source, "config", None)
        self.live = list(live)
        self.rng = rng
        self.new_object = new_object
        self.queued = ([], [])  # deletes, inserts of the next fold
        self.later = None  # while a fold is in flight: the writes after its input

    @property
    def tree(self):
        source = self.manager._source
        return getattr(source, "tree", source)

    def write(self, count, delete_share=0.5):
        for _ in range(count):
            deletes, inserts = self.later or self.queued
            if self.live and self.rng.random() < delete_share:
                victim = self.live.pop(self.rng.randrange(len(self.live)))
                self.delete(victim, deletes, inserts)
            else:
                obj = self.new_object()
                self.live.append(obj)
                self.manager.insert(obj)
                inserts.append(obj)

    def delete(self, victim, deletes=None, inserts=None):
        if deletes is None:
            deletes, inserts = self.later or self.queued
        assert self.manager.delete(victim)
        pending = [i for i, obj in enumerate(inserts) if obj is victim]
        if pending:
            del inserts[pending[0]]
        else:
            deletes.append(victim)

    def fold(self, stepped=False, writes_during=0):
        """One fold of the manager, then the twin's; their freezes must be equal.

        A stepped fold takes one write after each step, ``writes_during`` in all.
        """
        if stepped:
            self.later = ([], [])
            while self.manager.compact_step():
                if writes_during:
                    self.write(1)
                    writes_during -= 1
        self.manager.compact()
        deletes, inserts = self.queued
        with full_refresh():
            for obj in deletes:
                assert self.twin.delete(obj).found
            for obj in inserts:
                self.twin.insert(obj)
        self.queued, self.later = self.later or ([], []), None
        twin = self.twin
        if self.clipping is not None:
            twin = ClippedRTree(twin, self.clipping)
            twin.clip_all()
        assert_same_freeze(self.manager.snapshot, walked_freeze(twin))
        return len(deletes)


def _run(variant, kwargs, seed, count=240, max_entries=8, objects=None, boxes=_box):
    """A :class:`Run` over a stairline-clipped tree of ``objects`` (``count`` boxes if None)."""
    rng = random.Random(seed)
    objects = objects or [boxes(rng, i) for i in range(count)]
    source = ClippedRTree.wrap(_build(variant, objects, max_entries, **kwargs), method="stairline")
    twin = _build(variant, objects, max_entries, **kwargs)
    oids = iter(range(10_000, 10**9))
    return Run(source, twin, objects, rng, lambda: boxes(rng, next(oids)))


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant,kwargs", SOURCES, ids=[v for v, _ in SOURCES])
@pytest.mark.parametrize("stepped,seed", [(False, 1), (True, 2)], ids=["whole", "stepped"])
def test_apply_is_the_writes_one_at_a_time(variant, kwargs, stepped, seed, monkeypatch):
    if stepped:
        monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)  # a step after every write
    run = _run(variant, kwargs, seed)
    with checked_writes() as counts:
        for _ in range(4):
            run.write(60)
            run.fold(stepped=stepped, writes_during=20)
        deletes, searches = counts["delete", id(run.tree)], counts["search", id(run.tree)]
    assert deletes > 100
    assert searches < deletes // 4  # located, bar the paths a condense broke


# ----------------------------------------------------------------------
# the fallbacks
# ----------------------------------------------------------------------


def test_duplicate_ids_in_the_base_are_searched():
    rng = random.Random(5)
    objects = [_box(rng, i) for i in range(200)]
    objects += [SpatialObject(objects[i].oid, objects[i].rect) for i in range(0, 40, 4)]  # equal
    objects += [_box(rng, objects[i].oid) for i in range(1, 40, 4)]  # same id, other box
    shared = {oid for oid, n in Counter(obj.oid for obj in objects).items() if n > 1}
    run = _run("quadratic", {}, 5, objects=objects)
    victims = [obj for obj in objects if obj.oid in shared][::2] + objects[100:140:3]
    with checked_writes() as counts:
        for victim in victims:
            run.live.remove(victim)
            run.delete(victim)
        run.fold()
        tree = id(run.tree)
    for victim in victims:
        assert counts["searched", tree, victim.oid] >= (victim.oid in shared)
    assert counts["search", tree] < len(victims)  # the unique ids were located


def test_a_path_broken_by_condense_reinsertion_is_searched():
    # Full leaves of 4 and a minimum fill of 2: the third delete from one
    # leaf underflows it, and its last entry is re-inserted elsewhere.
    run = _run("str", {}, 6, count=64, max_entries=4)
    leaf = next(run.tree.leaves())
    victims = [entry.child for entry in leaf.entries]
    assert len(victims) == 4 and run.tree.min_entries == 2
    with checked_writes() as counts:
        for victim in victims:  # the fourth's path leads to a removed leaf
            run.live.remove(victim)
            run.delete(victim)
        run.fold()
        assert counts["search", id(run.tree)] == 1
        assert not run.tree.has_node(leaf.node_id)


def test_directory_condense_breaks_the_paths_below_it():
    # Deletes under one directory node until it underflows: its last leaf
    # is re-inserted under another parent, so the path to each of that
    # leaf's objects runs through a removed node and is searched.
    run = _run("str", {}, 7, count=48, max_entries=4)
    tree = run.tree
    parent = next(node for node in tree.internal_nodes() if node.level == 1)
    survivor = parent.entries[-1].child
    kept = [entry.child for entry in tree.node(survivor).entries]
    # Which deletes get there: found on a copy, sparing the survivor.
    probe = copy.deepcopy(tree, {id(obj): obj for obj in run.live})
    victims = []
    while probe.has_node(parent.node_id):
        leaf = next(e.child for e in probe.node(parent.node_id).entries if e.child != survivor)
        victims.append(probe.node(leaf).entries[0].child)
        probe.delete(victims[-1])
    still = {id(entry.child) for entry in probe.node(survivor).entries}
    moved = [obj for obj in kept if id(obj) in still][:2]
    assert len(moved) == 2
    with checked_writes() as counts:
        for victim in victims + moved:
            run.live.remove(victim)
            run.delete(victim)
        run.fold()
    assert not tree.has_node(parent.node_id) and tree.has_node(survivor)
    assert all(counts["searched", id(tree), obj.oid] == 1 for obj in moved)


def test_a_thawed_tree_searches_until_its_first_freeze():
    rng = random.Random(8)
    objects = [_box(rng, i) for i in range(300)]
    snapshot = build_columnar_str(objects, max_entries=8)
    oids = iter(range(10_000, 10**9))
    run = Run(snapshot, snapshot.to_tree(), objects, rng, lambda: _box(rng, next(oids)))
    with checked_writes() as counts:
        run.write(60)
        deletes = run.fold()
        tree = id(run.tree)
        assert counts["search", tree] == counts["delete", tree] == deletes > 0
        run.write(60)
        run.fold()
        # The second fold starts from a freeze of its own tree.
        assert counts["search", tree] - deletes < (counts["delete", tree] - deletes) // 4


def _infinite_box(rng, oid):
    box = _box(rng, oid)
    if oid % 5:
        return box
    low, high = list(box.rect.low), list(box.rect.high)
    dim = oid % 2
    low[dim], high[dim] = (-math.inf, math.inf) if oid % 3 else (-math.inf, high[dim])
    return SpatialObject(oid, Rect(low, high))


@pytest.mark.parametrize("variant", ["quadratic", "rstar", "str"])
def test_infinite_extents(variant):
    run = _run(variant, {}, 9, boxes=_infinite_box)
    with checked_writes():
        for _ in range(3):
            run.write(60)
            run.fold()


@pytest.mark.parametrize("size,kwargs", EDGE_SHAPES)
def test_edge_shapes(size, kwargs):
    run = _run("str", kwargs, 10, objects=generate("uniform02", size, seed=5))
    with checked_writes():
        for _ in range(3):
            run.write(size // 4 + 5)
            run.fold()


@pytest.mark.parametrize("dims", [2, 3])
def test_signed_zero_grid(dims):
    grid = _grid_boxes(dims, 400, seed=dims)
    rng = random.Random(dims)

    def boxes(_, oid):
        return SpatialObject(oid, rng.choice(grid).rect)

    run = _run("str", {}, dims, objects=grid, max_entries=5, boxes=boxes)
    with checked_writes():
        for _ in range(3):
            run.write(80)
            run.fold()


# ----------------------------------------------------------------------
# the tree's two shortcuts, directly
# ----------------------------------------------------------------------


def _hints(tree, obj):
    """The true path to ``obj`` and broken variants of it, by what breaks."""
    path = tree._find_leaf(obj)
    sibling_leaf = next(e.child for e in tree.node(path[-2]).entries if e.child != path[-1])
    uncle = next(e.child for e in tree.node(path[-3]).entries if e.child != path[-2])
    return path, {
        "no root": path[2:],
        "a removed id": path[:-1] + [10**9],
        "a parent without the child": path[:-2] + [uncle, path[-1]],
        "a leaf without the object": path[:-1] + [sibling_leaf],
        "ends above the leaves": path[:-1],
        "empty": [],
    }


@pytest.mark.parametrize("variant", ["quadratic", "str"])
def test_a_broken_hint_falls_back_to_the_search(variant):
    rng = random.Random(11)
    objects = [_box(rng, i) for i in range(300)]
    tree = _build(variant, objects, 6)
    assert tree.height >= 3
    for victim in objects[::75]:
        path, broken = _hints(tree, victim)
        for name, hint in broken.items():
            shared = {id(obj): obj for obj in objects}
            ours, theirs = copy.deepcopy(tree, dict(shared)), copy.deepcopy(tree, dict(shared))
            with mock.patch.object(
                RTreeBase, "_find_leaf", autospec=True, side_effect=RTreeBase._find_leaf
            ) as search:
                result = ours._delete_at(victim, hint)
            assert search.call_count == 1, name
            expected = theirs.delete(victim)
            assert (result.found, result.leaf_id) == (True, expected.leaf_id), name
            assert_same_freeze(walked_freeze(ours), walked_freeze(theirs))
        with mock.patch.object(RTreeBase, "_find_leaf", side_effect=AssertionError) as search:
            tree._delete_at(victim, path)
        assert not search.called


@pytest.mark.parametrize("variant", ["quadratic", "str"])
def test_a_hint_is_re_anchored_at_the_root(variant):
    # A root that split since the hint was read holds an entry for the
    # hint's first node; one that shrank is a node on the hint.
    rng = random.Random(13)
    objects = [_box(rng, i) for i in range(300)]
    tree = _build(variant, objects, 6)
    assert tree.height >= 3
    for victim in objects[::75]:
        path = tree._find_leaf(victim)
        re_anchored = {"root prepended": path[1:], "ids above it dropped": [10**9] + path}
        for name, hint in re_anchored.items():
            assert tree._checked_path(victim, hint) == path, name
            shared = {id(obj): obj for obj in objects}
            ours, theirs = copy.deepcopy(tree, dict(shared)), copy.deepcopy(tree, dict(shared))
            with mock.patch.object(RTreeBase, "_find_leaf", side_effect=AssertionError):
                result = ours._delete_at(victim, hint)
            expected = theirs.delete(victim)
            assert (result.found, result.leaf_id) == (True, expected.leaf_id), name
            assert_same_freeze(walked_freeze(ours), walked_freeze(theirs))


def test_a_fold_that_moves_the_root_stays_located():
    """150 deletes in one fold split and shrink the root of an R*-tree of 240
    objects at M = 8; the deletes after each move follow their re-anchored
    paths.  Counted against the check that required the hint to start at
    the current root (58 searches where re-anchoring leaves 36, the rest
    for paths a condense-tree reinsertion broke), the twin differential
    holding for both."""
    checked = RTreeBase._checked_path

    def rooted_only(self, obj, hint):
        if not hint or hint[0] != self._root_id:
            return None
        return checked(self, obj, hint)

    searches = {}
    for name, check in (("rooted only", rooted_only), ("re-anchored", checked)):
        with mock.patch.object(RTreeBase, "_checked_path", check):
            run = _run("rstar", {}, 5)
            rng = random.Random(5)
            with checked_writes() as counts:
                for _ in range(150):
                    run.delete(run.live.pop(rng.randrange(len(run.live))))
                run.fold(stepped=True)
            searches[name] = counts["search", id(run.tree)]
    assert searches["re-anchored"] < searches["rooted only"]


@pytest.mark.parametrize(
    "low,high,recomputed",
    [
        ((1.0, 1.0), (2.0, 2.0), False),  # strictly inside
        ((0.0, 1.0), (2.0, 2.0), True),  # on the low boundary
        ((1.0, 1.0), (2.0, 4.0), True),  # on the high boundary
        ((-0.0, 1.0), (2.0, 2.0), True),  # a signed-zero tie
        ((-math.inf, 1.0), (2.0, 2.0), True),  # outside
    ],
)
@pytest.mark.parametrize("infinite", [False, True])
def test_the_mbb_is_skipped_only_strictly_inside(low, high, recomputed, infinite):
    # A leaf bounded by (0, 0)–(4, 4), or by (-inf, 0)–(4, 4): an infinite
    # bound is strictly below every finite low, and ties with -inf.
    corner = -math.inf if infinite else 0.0
    rects = [Rect((corner, 0.0), (1.0, 1.0)), Rect((3.0, 3.0), (4.0, 4.0))]
    leaf = Node(1, 0, [Entry(rect, None) for rect in rects])
    parent = Node(2, 1, [Entry(leaf.mbb(), 1)])
    if infinite and low[0] == 0.0:
        low = (corner,) + low[1:]
    inner = Rect(low, high)
    with mock.patch.object(Node, "mbb", autospec=True, side_effect=Node.mbb) as mbb:
        changed = RTreeBase._refresh_parent_entry(None, parent, leaf, inner)
    assert mbb.called is recomputed
    assert changed is False


def test_each_generation_carries_its_oid_column():
    # The first delete builds the base's column; every later generation's is
    # assembled by its freeze, before any delete asks for it.
    run = _run("str", {"leaf_fill": 0.7}, 12)
    for _ in range(3):
        run.write(60)
        run.fold()
        snapshot = run.manager.snapshot
        assert snapshot._object_oids is not None
        oids = np.array([obj.oid for obj in snapshot.objects], dtype=np.int64)
        assert snapshot.object_oids().tobytes() == oids.tobytes()
    # A generation no delete asked for its column hands none on: built on first use.
    manager = SnapshotManager(str_bulk_load(generate("uniform02", 300, seed=4), max_entries=8))
    rng = random.Random(4)
    for oid in range(10_000, 10_020):
        manager.insert(_box(rng, oid))
    manager.compact()
    assert manager.snapshot._object_oids is None
