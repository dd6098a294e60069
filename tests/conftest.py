"""Shared fixtures and helpers for the test-suite."""

import contextlib
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from repro.cbb.clipping import compute_clip_points
from repro.cbb.store import ClipStore
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.query.range_query import brute_force_range
from repro.query.workload import RangeQueryWorkload
from repro.rtree.registry import VARIANT_NAMES
from repro.serve.server import CoalescingServer
from repro.storage.stats import IOStats

#: Examples of tests/test_compaction_machine.py per tier-1 run, and the
#: profile that runs 100 times as many (``--hypothesis-profile``, CI chaos
#: job).  Registered here: pytest loads the profile before any test module.
MACHINE_EXAMPLES = 100
MACHINE_PROFILE = "compaction-machine-100x"
settings.register_profile(MACHINE_PROFILE, max_examples=100 * MACHINE_EXAMPLES)

#: Examples of tests/test_property_rtree_updates.py per tier-1 run, and the
#: profile that runs 25 times as many (CI chaos job).
UPDATES_EXAMPLES = 12
UPDATES_PROFILE = "rtree-updates-25x"
settings.register_profile(UPDATES_PROFILE, max_examples=25 * UPDATES_EXAMPLES)

#: Every tree ``build_rtree`` builds: the insertion variants and STR packing.
ALL_VARIANTS = VARIANT_NAMES + ("str",)


def make_random_objects(count, dims=2, seed=0, extent=100.0, max_side=3.0):
    """Deterministic random boxes used across many tests."""
    rng = random.Random(seed)
    objects = []
    for i in range(count):
        low = [rng.uniform(0.0, extent - max_side) for _ in range(dims)]
        high = [lo + rng.uniform(0.01, max_side) for lo in low]
        objects.append(SpatialObject(i, Rect(low, high)))
    return objects


def scalar_clip_store(tree, config):
    """The paper's Algorithm 1 node by node: the oracle for batched clipping.

    One ``compute_clip_points`` call per node of ``tree``, in
    ``tree.nodes()`` order, into a fresh :class:`ClipStore` — what
    ``ClippedRTree(tree, config).clip_all()`` must fill, value for value.
    """
    store = ClipStore()
    for node in tree.nodes():
        if node.entries:
            store.put(node.node_id, compute_clip_points(node.mbb(), node.child_rects(), config))
    return store


def walked_freeze(index):
    """``ColumnarIndex.from_tree(index)`` of a walk of every node and every stored clip run.

    A tree keeps its last freeze while its version stands still, and a
    clipped tree its last clip pass (``ClippedRTree.clip_pass``), and
    ``from_tree`` reads those; dropping both for the call makes this the
    from-scratch oracle they must equal.  Both are put back afterwards, so
    the oracle leaves the index as it found it.
    """
    from repro.engine.columnar import ColumnarIndex

    with contextlib.ExitStack() as dropped:
        for owner, name in ((getattr(index, "tree", index), "_freeze"), (index, "_clip_pass")):
            if hasattr(owner, name):
                dropped.enter_context(mock.patch.object(owner, name, None))
        return ColumnarIndex.from_tree(index)


class FreezeReads:
    """Counts what ``ColumnarIndex.from_tree`` reads for itself while it runs.

    ``rows``: nodes stacked into entry rows (``rtree.freeze.node_rows``,
    patched wherever it is imported: a walk, a plain tree's fresh nodes, a
    stale clip pass's fallback); ``clips``: clip runs read from a
    ``ClipStore`` (``ClipStore.get``).  Calls outside a freeze (a re-clip
    stacking its dirty nodes) are not counted.
    """

    def __init__(self, monkeypatch):
        from repro.engine import columnar
        from repro.rtree import clipped, freeze

        self.rows = self.clips = 0
        self.freezing = False
        stack, get = freeze.node_rows, ClipStore.get
        from_tree = columnar.ColumnarIndex.from_tree.__func__

        def rows(nodes, dims):
            self.rows += self.freezing * len(nodes)
            return stack(nodes, dims)

        def clips(store, node_id):
            self.clips += self.freezing
            return get(store, node_id)

        def spied(cls, *args, **kwargs):
            self.freezing = True
            try:
                return from_tree(cls, *args, **kwargs)
            finally:
                self.freezing = False

        for module in (freeze, columnar, clipped):
            monkeypatch.setattr(module, "node_rows", rows)
        monkeypatch.setattr(ClipStore, "get", clips)
        monkeypatch.setattr(columnar.ColumnarIndex, "from_tree", classmethod(spied))

    def reset(self):
        self.rows = self.clips = 0


def walked_refreeze(tree, previous, dirty):
    """An incremental freeze that walks every node: the oracle of ``columnar._refreeze``.

    ``tree`` is read breadth first, node by node; a node ``previous``
    holds and ``dirty`` does not has its entry rows, leaf objects and
    object ids copied from ``previous`` one slot at a time, every other
    node is read from the tree.  Returns ``(freeze, previous_slot,
    oids)`` as ``_refreeze`` does (oids None when ``previous`` never built
    its column).
    """
    from repro.rtree.freeze import bfs_nodes, node_rows, tree_freeze

    nodes = bfs_nodes(tree)
    kept_slot = {
        node_id: slot for slot, node_id in enumerate(previous.node_ids.tolist())
        if node_id not in dirty
    }
    first_leaf_before = len(previous.entry_child) - len(previous.objects)
    previous_slot = np.array([kept_slot.get(node.node_id, -1) for node in nodes], dtype=np.int64)
    fresh_rows = node_rows([n for n, s in zip(nodes, previous_slot) if s < 0], tree.dims)
    lows, highs, objects, oids = [], [], [], []
    fresh_row = 0
    for node, slot in zip(nodes, previous_slot.tolist()):
        count = len(node.entries)
        if slot < 0:
            lows.append(fresh_rows.lows[fresh_row : fresh_row + count])
            highs.append(fresh_rows.highs[fresh_row : fresh_row + count])
            fresh_row += count
            if node.is_leaf:
                objects.extend(entry.child for entry in node.entries)
                oids.extend(entry.child.oid for entry in node.entries)
            continue
        start = int(previous.entry_start[slot])
        lows.append(previous.entry_lows[start : start + count])
        highs.append(previous.entry_highs[start : start + count])
        if node.is_leaf:
            first = start - first_leaf_before
            objects.extend(previous.objects[first : first + count])
            if previous._object_oids is not None:
                oids.extend(previous._object_oids[first : first + count].tolist())
    empty = np.empty((0, tree.dims), dtype=np.float64)
    freeze = tree_freeze(
        is_leaf=np.array([node.is_leaf for node in nodes], dtype=bool),
        entry_count=np.array([len(node.entries) for node in nodes], dtype=np.int64),
        node_ids=np.array([node.node_id for node in nodes], dtype=np.int64),
        entry_lows=np.concatenate([empty, *lows]),
        entry_highs=np.concatenate([empty, *highs]),
        objects=objects,
    )
    column = np.array(oids, dtype=np.int64) if previous._object_oids is not None else None
    return freeze, previous_slot, column


def full_propagate_up(self, path, result, added=None):
    """``RTreeBase._propagate_up`` without its early stop: the oracle.

    Every level up to the root: handle an overflow, recompute the child's
    MBB and refresh its parent entry.  ``added`` is ignored.
    """
    for depth in range(len(path) - 1, -1, -1):
        node = self._nodes[path[depth]]
        if len(node.entries) > self.max_entries:
            self._handle_overflow(node, path[:depth], result)
        if depth > 0:
            parent = self._nodes[path[depth - 1]]
            if self._refresh_parent_entry(parent, node):
                result.mbb_changed_node_ids.add(node.node_id)


def full_condense_tree(self, path, result, removed=None):
    """``RTreeBase._condense_tree`` without its early stop: the oracle.

    Every level below the root: drop an underfull node or recompute its
    MBB and refresh its parent entry; then re-insert the orphans.
    ``removed`` is ignored.
    """
    from repro.rtree.base import InsertResult

    orphans = []
    for depth in range(len(path) - 1, 0, -1):
        node = self._nodes[path[depth]]
        parent = self._nodes[path[depth - 1]]
        if len(node.entries) < self.min_entries:
            parent.entries = [
                e for e in parent.entries if not (e.is_node_pointer and e.child == node.node_id)
            ]
            orphans.append((node.level, list(node.entries)))
            result.removed_node_ids.add(node.node_id)
            result.entry_removed_node_ids.add(parent.node_id)
            del self._nodes[node.node_id]
        elif self._refresh_parent_entry(parent, node):
            result.mbb_changed_node_ids.add(node.node_id)
    insert_result = InsertResult()
    for level, entries in orphans:
        for entry in entries:
            self._begin_insert()
            self._insert_entry(entry, level, insert_result)
    live = self._nodes
    result.mbb_changed_node_ids.update(n for n in insert_result.mbb_changed_node_ids if n in live)
    result.split_node_ids.update(n for n in insert_result.split_node_ids if n in live)
    result.new_node_ids.update(n for n in insert_result.new_node_ids if n in live)
    result.entry_removed_node_ids.update(
        n for n in insert_result.entry_removed_node_ids if n in live
    )
    for node_id, rects in insert_result.added_rects.items():
        if node_id in live:
            result.added_rects.setdefault(node_id, []).extend(rects)


@contextlib.contextmanager
def full_refresh():
    """Every tree updated inside refreshes each ancestor to the root (the oracle loops)."""
    from repro.rtree.base import RTreeBase

    with mock.patch.object(RTreeBase, "_propagate_up", full_propagate_up), mock.patch.object(
        RTreeBase, "_condense_tree", full_condense_tree
    ):
        yield


def fail_after_write(manager, n, error):
    """Make the n-th write to ``manager``'s source tree from now on raise ``error``.

    Inserts and deletes count together, across folds; the failing write
    lands first, so the fault is post-mutation: the tree is ahead of the
    published view.  The manager drops that tree when the fold fails, and
    the patch with it.
    """
    source = manager._source
    tree = getattr(source, "tree", source)
    writes = iter(range(1, n + 1))
    # ``delete`` and a compaction's located deletes both run ``_delete_at``.
    for name in ("insert", "_delete_at"):
        def failing(*args, write=getattr(tree, name)):
            result = write(*args)
            if next(writes, None) == n:
                raise error
            return result

        setattr(tree, name, failing)


@pytest.fixture
def small_objects_2d():
    """60 small 2d boxes."""
    return make_random_objects(60, dims=2, seed=1)


@pytest.fixture
def small_objects_3d():
    """60 small 3d boxes."""
    return make_random_objects(60, dims=3, seed=2)


@pytest.fixture
def medium_objects_2d():
    """400 small 2d boxes (enough for multi-level trees)."""
    return make_random_objects(400, dims=2, seed=3)


@pytest.fixture
def figure2_objects():
    """Five objects laid out like the paper's Figure 2 running example.

    The layout preserves the relations the paper derives from its figure:
    the oriented skyline for corner ``R^00`` is {o1, o2, o3, o4} with o5
    dominated by o3 and o4, and for corner ``R^11`` the splice of o1's and
    o4's corners is a valid stairline point that clips a large area.
    """
    rects = [
        Rect((0.5, 5.5), (2.0, 7.5)),    # o1: top-left
        Rect((1.0, 3.8), (2.0, 5.0)),    # o2: left
        Rect((3.0, 1.8), (4.5, 2.4)),    # o3: centre-bottom
        Rect((5.5, 1.0), (7.5, 2.5)),    # o4: bottom-right
        Rect((8.0, 2.0), (9.0, 2.45)),   # o5: right
    ]
    return [SpatialObject(i + 1, rect) for i, rect in enumerate(rects)]


def knn_reference(tree, point, k):
    """The scalar kNN answer on ``tree`` and the bracket its I/O lies in.

    Returns ``(results, stats, strict, closed)``: ``knn_query``'s result
    list and ``IOStats``, then the ``(leaf, internal)`` counts of the
    nodes whose MinDist² to ``point`` lies below the k-th result's
    distance² (root included: it is always read) and of those at or below
    it.  The heap reads every node of the first set and none outside the
    second; with fewer than ``k`` objects it drains the tree and both
    sets are every node.
    """
    from repro.query.knn import knn_query
    from repro.storage.stats import IOStats

    stats = IOStats()
    results = knn_query(tree, point, k, stats=stats)
    kth = results[-1][0] if len(results) == k else float("inf")
    strict, closed = [0, 0], [0, 0]
    stack = [(tree.root_id, 0.0)]
    while stack:
        node_id, dist = stack.pop()
        node = tree.node(node_id)
        level = 0 if node.is_leaf else 1
        strict[level] += dist < kth or node_id == tree.root_id
        closed[level] += dist <= kth
        if not node.is_leaf:
            stack.extend((e.child, e.rect.min_distance_sq(point)) for e in node.entries)
    return results, stats, tuple(strict), tuple(closed)


def assert_knn_contract(tree, points, k, batch_results, batch_stats, references=None):
    """``knn_batch``'s documented contract against the scalar search on ``tree``.

    Result lists identical, ties included.  ``batch_stats`` is the closed
    count summed over the points; the scalar heap's own count equals it
    for every point with no node at exactly ``d_k > 0`` and lies between
    the strict and the closed count otherwise.  Returns how many points
    fell into that tie class.  ``references``, when given, are the points'
    ``knn_reference`` tuples, computed once for many batches.
    """
    assert len(batch_results) == len(points)
    if references is None:
        references = [knn_reference(tree, point, k) for point in points]
    leaf = internal = tied = 0
    for got, (want, stats, strict, closed) in zip(batch_results, references):
        assert [(d, o.oid) for d, o in got] == [(d, o.oid) for d, o in want]
        scalar = (stats.leaf_accesses, stats.internal_accesses)
        if strict == closed or not want or want[-1][0] == 0.0:
            assert scalar == closed
        else:
            tied += 1
            assert strict[0] <= scalar[0] <= closed[0]
            assert strict[1] <= scalar[1] <= closed[1]
        leaf += closed[0]
        internal += closed[1]
    assert (batch_stats.leaf_accesses, batch_stats.internal_accesses) == (leaf, internal)
    assert batch_stats.contributing_leaf_accesses == 0
    return tied


# ----------------------------------------------------------------------
# the one oracle every backend is held to (tests/test_backend_conformance.py)
# ----------------------------------------------------------------------


def object_key(obj):
    """An object's identity: equal copies are different rows, counted apart."""
    return obj.oid, obj.rect.low, obj.rect.high


def workload_queries(objects, seed, count=18):
    """Calibrated boxes, point rectangles on corners and centres, two empty queries.

    Points and empty queries, like the workload's centres, come from the
    objects with a finite centre; all of ``objects`` calibrate the boxes.
    """
    rng = random.Random(seed)
    workload = RangeQueryWorkload.from_objects(objects, target_results=8, seed=seed)
    queries = workload.query_list(count, seed=seed)
    centred = [obj for obj in objects if all(map(math.isfinite, obj.rect.center))]
    for _ in range(6):
        obj = rng.choice(centred)
        queries.append(Rect(obj.rect.low, obj.rect.low))
        queries.append(Rect.from_point(obj.rect.center))
    space = workload.space
    far = [hi + (hi - lo) + 10.0 for lo, hi in zip(space.low, space.high)]
    queries.append(Rect(far, [f + 1.0 for f in far]))
    queries.append(Rect.from_point(far))
    return queries


def scalar_range_stats(tree, queries):
    """The scalar walk's ``IOStats`` over ``queries``: what every base-only backend charges."""
    stats = IOStats()
    for query in queries:
        tree.range_query(query, stats=stats)
    return stats


def brute_force_answers(live, queries):
    """Each query's brute-force scan of ``live``, as a multiset of keys."""
    return [Counter(map(object_key, brute_force_range(live, query))) for query in queries]


def assert_range_contract(expected, results):
    """Each query's answer is its ``brute_force_answers`` multiset."""
    assert [Counter(map(object_key, hits)) for hits in results] == expected


def assert_knn_distances(live, points, answers):
    """``answers[k]`` lists each point's ``k`` nearest: live objects at the
    ``k`` smallest brute-force distances."""
    keys = Counter(map(object_key, live))
    assert all(len(results) == len(points) for results in answers.values())
    for i, point in enumerate(points):
        distances = sorted(obj.rect.min_distance_sq(point) for obj in live)
        for k, results in answers.items():
            assert [d for d, _ in results[i]] == distances[:k]
            assert all(obj.rect.min_distance_sq(point) == d for d, obj in results[i])
            assert not Counter(object_key(obj) for _, obj in results[i]) - keys


def brute_force_pairs(left, right):
    """The join of two object lists, every pair tested, as a multiset of key pairs."""
    if not left or not right:
        return Counter()
    # (objects, low/high, dims); a pair meets where it overlaps in every dimension.
    a, b = (np.array([(obj.rect.low, obj.rect.high) for obj in side]) for side in (left, right))
    meet = ((a[:, None, 0] <= b[None, :, 1]) & (b[None, :, 0] <= a[:, None, 1])).all(axis=2)
    rows, cols = np.nonzero(meet)
    return Counter((object_key(left[i]), object_key(right[j])) for i, j in zip(rows, cols))


def pair_keys(pairs):
    """A join's pairs as a multiset of key pairs."""
    return Counter((object_key(a), object_key(b)) for a, b in pairs)


def assert_join_contract(join, expected, reference=None):
    """``join(collect_pairs)`` yields the pair multiset ``expected`` both ways;
    given the scalar join's ``reference`` result, both sides' ``IOStats`` too."""
    for collect in (True, False):
        result = join(collect)
        assert result.pair_count == sum(expected.values())
        if collect:
            assert pair_keys(result.pairs) == expected
        else:
            assert result.pairs == []
        if reference is not None:
            assert result.outer_stats == reference.outer_stats
            assert result.inner_stats == reference.inner_stats


# ----------------------------------------------------------------------
# request accounting at quiescence
# ----------------------------------------------------------------------


def assert_requests_accounted(server):
    """Every request ``server`` admitted ended one way: completed, past its
    deadline, an error or cancelled by its caller."""
    report = server.report()
    ended = (
        report["completed"] + report["deadline_exceeded"] + report["errors"] + report["cancelled"]
    )
    assert report["admitted"] == ended, report


@pytest.fixture
def requests_accounted():
    """Check :func:`assert_requests_accounted` on every server the test started, once it ends.

    For tests whose servers stop quiescent.
    """
    servers = []
    start = CoalescingServer.start

    async def recording_start(server):
        servers.append(server)
        return await start(server)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoalescingServer, "start", recording_start)
        yield
    for server in servers:
        assert_requests_accounted(server)
