"""A state machine over one ``SnapshotManager``: writes, stepped folds, faults.

Hypothesis drives a manager over a small clipped tree through any
interleaving of inserts, deletes, ``compact_step``, ``compact``, range and
kNN reads, INLJ and STT joins, a reload (``save_snapshot``, then
``load_snapshot(mmap=True)`` under a new manager holding the same
pending writes), a pre-mutation fault (``compaction_fault_hook``) and a
post-mutation fault (the source tree's n-th write lands, then raises,
inside a step), against a brute-force list of the live objects.  No
threads: a fold in flight is just steps not taken yet, so every
interleaving is reproducible and shrinks.  Checked after every rule:

* every answer equals the model's (range as a multiset, kNN distances,
  join pairs as a multiset);
* no acknowledged write is lost or applied twice — across steps, the
  swap and a failed fold, the manager's live objects are the model's;
* whenever the base alone misses a model write, the degraded path's stamp
  (``snapshot.is_stale or not overlay.is_empty``) says so;
* the base rows the overlay's ``live`` column marks dead are exactly the
  base rows the model no longer holds, and no row dead means no column;
* after every successful ``compact()`` the snapshot is a fresh
  ``ColumnarIndex.from_tree`` of the source, and its clip store a fresh
  ``clip_all``;
* every published generation holds its leaf and entry rows as a loaded
  snapshot must, and no node's clip region meets one of its entries with
  positive volume (the paper's soundness claim, on what readers are served).

A write during a fold follows the rule it follows outside one: no write
rule has a fold branch.  Pending writes live only in memory: nothing here
claims they survive a process crash.
"""

import copy
import shutil
import tempfile
from collections import Counter

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.cbb.scoring import clip_region
from repro.engine import ColumnarIndex, SnapshotManager
from repro.engine import delta, incremental_clip
from repro.engine.delta import overlay_join
from repro.engine.snapshot_io import (
    _INDEX_ARRAYS,
    _entry_rows_fault,
    _leaf_rows_fault,
    load_snapshot,
    save_snapshot,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from tests.conftest import (
    MACHINE_EXAMPLES,
    MACHINE_PROFILE,
    assert_join_contract,
    brute_force_pairs,
    fail_after_write,
    make_random_objects,
    object_key,
)


class MachineFault(Exception):
    """A fault the machine injected."""


coordinate = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
boxes = st.builds(
    lambda x, y, w, h: Rect((x, y), (x + w, y + h)),
    coordinate,
    coordinate,
    st.sampled_from([0.0, 0.5, 2.0, 7.0]),
    st.sampled_from([0.0, 1.0, 3.0, 9.0]),
)


class CompactionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # One write per apply step and two nodes per re-clip chunk: every
        # step boundary the fold has is one the machine can stop at.
        self._budgets = delta._SLICE_SECONDS, incremental_clip._RECLIP_CHUNK_NODES
        delta._SLICE_SECONDS, incremental_clip._RECLIP_CHUNK_NODES = 0.0, 2
        self._directories = []
        self._checked = None  # the (manager, epoch) last checked by generation_is_sound

    def teardown(self):
        delta._SLICE_SECONDS, incremental_clip._RECLIP_CHUNK_NODES = self._budgets
        for directory in self._directories:
            shutil.rmtree(directory, ignore_errors=True)

    @initialize(
        variant=st.sampled_from(["quadratic", "rstar", "hilbert"]),
        fanout=st.sampled_from([4, 6]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def build(self, variant, fanout, seed):
        self.model = make_random_objects(30, seed=seed)
        tree = build_rtree(variant, self.model, max_entries=fanout)
        self.manager = SnapshotManager(ClippedRTree.wrap(tree, method="stairline"))
        self.next_oid = 10_000
        # The other side of the STT joins: never written to.
        self.other = make_random_objects(12, seed=seed + 1)
        other = build_rtree(variant, self.other, max_entries=fanout)
        self.other_index = ColumnarIndex.from_tree(ClippedRTree.wrap(other, method="stairline"))

    # -- writes ---------------------------------------------------------

    @rule(rect=boxes)
    def insert(self, rect):
        obj = SpatialObject(self.next_oid, rect)
        self.next_oid += 1
        self.manager.insert(obj)
        self.model.append(obj)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0))
    def insert_duplicate(self, pick):
        """An equal copy of a live object: a different row, not a count."""
        twin = self.model[pick % len(self.model)]
        obj = SpatialObject(twin.oid, twin.rect)
        self.manager.insert(obj)
        self.model.append(obj)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        victim = self.model[pick % len(self.model)]
        assert self.manager.delete(victim)
        self.model.remove(next(obj for obj in self.model if object_key(obj) == object_key(victim)))

    @rule(rect=boxes)
    def delete_missing(self, rect):
        assert not self.manager.delete(SpatialObject(-1, rect))

    # -- compaction ---------------------------------------------------------

    @rule(steps=st.integers(min_value=1, max_value=8))
    def step(self, steps):
        epoch = self.manager.epoch
        for _ in range(steps):
            try:
                more = self.manager.compact_step()
            except MachineFault:
                assert not self.manager.compacting
                break
            assert not more or self.manager.compacting
        assert self.manager.epoch == epoch  # a step never publishes

    @rule()
    def compact(self):
        epoch = self.manager.epoch
        try:
            stats = self.manager.compact()
        except MachineFault:
            assert self.manager.epoch == epoch and not self.manager.compacting
            return
        assert not self.manager.compacting
        if self.manager.epoch == epoch:  # nothing was left to fold
            assert stats.applied_inserts == stats.applied_deletes == 0
            return
        source = self.manager._source
        fresh = ColumnarIndex.from_tree(source)
        snapshot = self.manager.snapshot
        for name in _INDEX_ARRAYS:
            assert np.array_equal(getattr(snapshot, name), getattr(fresh, name)), name
        assert np.array_equal(snapshot.object_oids(), fresh.object_oids())
        recomputed = ClippedRTree(copy.deepcopy(source.tree), source.config)
        recomputed.clip_all()
        assert dict(source.store.items()) == dict(recomputed.store.items())

    @precondition(lambda self: not self.manager.compacting)
    @rule()
    def fault_before_mutation(self):
        def hook():
            self.manager.compaction_fault_hook = None  # one shot, across a reload too
            raise MachineFault("before the first write")

        self.manager.compaction_fault_hook = hook

    @precondition(lambda self: not self.manager.compacting and self.manager._source is not None)
    @rule(n=st.integers(min_value=1, max_value=12))
    def fault_after_mutation(self, n):
        fail_after_write(self.manager, n, MachineFault(f"after write {n}"))

    @precondition(lambda self: not self.manager.compacting)
    @rule()
    def reload(self):
        """Serve the published base from disk under a new manager.

        The old overlay's pending deletes, then its inserts, are applied
        to the new one: the model does not change, and the next fold
        thaws the loaded snapshot.
        """
        old = self.manager
        directory = tempfile.mkdtemp(prefix="compaction-machine-")
        self._directories.append(directory)
        save_snapshot(old.snapshot, directory)
        manager = SnapshotManager(load_snapshot(directory, mmap=True))
        for obj in old.overlay.deleted_objects():
            assert manager.delete(obj)
        for obj in old.overlay.inserted_objects():
            manager.insert(obj)
        manager.compaction_fault_hook = old.compaction_fault_hook
        self.manager = manager

    # -- reads ----------------------------------------------------------------

    @rule(rects=st.lists(boxes, min_size=1, max_size=4))
    def range(self, rects):
        answers = self.manager.range_query_batch(rects)
        for rect, hits in zip(rects, answers):
            expected = Counter(object_key(obj) for obj in self.model if obj.rect.intersects(rect))
            assert Counter(map(object_key, hits)) == expected

    @rule(x=coordinate, y=coordinate, k=st.integers(min_value=1, max_value=5))
    def knn(self, x, y, k):
        (hits,) = self.manager.knn_batch([(x, y)], k)
        expected = sorted(obj.rect.min_distance_sq((x, y)) for obj in self.model)[:k]
        assert [distance for distance, _ in hits] == expected
        for distance, obj in hits:
            assert obj.rect.min_distance_sq((x, y)) == distance and object_key(obj) in self._keys()

    @rule(rects=st.lists(boxes, min_size=1, max_size=4))
    def inlj(self, rects):
        probes = [SpatialObject(-2 - i, rect) for i, rect in enumerate(rects)]
        assert_join_contract(
            lambda collect: overlay_join(
                probes, self.manager, algorithm="inlj", collect_pairs=collect
            ),
            brute_force_pairs(probes, self.model),
        )

    @rule(manager_left=st.booleans())
    def stt(self, manager_left):
        sides = [(self.manager, self.model), (self.other_index, self.other)]
        (left, left_live), (right, right_live) = sides if manager_left else sides[::-1]
        assert_join_contract(
            lambda collect: overlay_join(left, right, algorithm="stt", collect_pairs=collect),
            brute_force_pairs(left_live, right_live),
        )

    # -- invariants -----------------------------------------------------------

    def _keys(self):
        return Counter(map(object_key, self.model))

    @invariant()
    def every_acknowledged_write_once(self):
        assert Counter(map(object_key, self.manager.live_objects())) == self._keys()
        assert len(self.manager) == len(self.model)

    @invariant()
    def a_base_that_misses_a_write_is_stamped(self):
        snapshot, overlay = self.manager.view
        if Counter(map(object_key, snapshot.objects)) != self._keys():
            assert snapshot.is_stale or not overlay.is_empty

    @invariant()
    def the_live_column_is_the_model(self):
        """The base rows whose ``live`` bit is False are, key for key, the
        base rows the model no longer holds; with none, there is no column."""
        snapshot, overlay = self.manager.view
        base = list(map(object_key, snapshot.objects))
        dead = Counter(base) - (self._keys() - Counter(map(object_key, overlay.inserted_objects())))
        if overlay.live is None:
            assert not dead
        else:
            assert len(overlay.live) == len(base)
            assert Counter(key for key, live in zip(base, overlay.live) if not live) == dead
            assert dead

    @invariant()
    def generation_is_sound(self):
        """Once per published generation: its rows, and its clip points."""
        manager = self.manager
        if self._checked == (manager, manager.epoch):
            return
        self._checked = (manager, manager.epoch)
        snapshot = manager.snapshot
        assert _leaf_rows_fault(snapshot, len(snapshot.objects)) is None
        assert _entry_rows_fault(snapshot) is None
        node_lows, node_highs = snapshot.node_bounds()
        masks = (snapshot.clip_is_high << np.arange(snapshot.dims)).sum(axis=1).tolist()
        for slot, (first, count) in enumerate(
            zip(snapshot.node_clip_start.tolist(), snapshot.node_clip_count.tolist())
        ):
            mbb = Rect(node_lows[slot], node_highs[slot])
            start = int(snapshot.entry_start[slot])
            entries = [
                Rect(snapshot.entry_lows[row], snapshot.entry_highs[row])
                for row in range(start, start + int(snapshot.entry_count[slot]))
            ]
            for clip in range(first, first + count):
                region = clip_region(tuple(snapshot.clip_coords[clip]), masks[clip], mbb)
                assert all(region.intersection_volume(entry) == 0.0 for entry in entries), (
                    f"clip {clip} of node slot {slot} meets one of its entries"
                )


_scaled = settings.get_current_profile_name() == MACHINE_PROFILE
TestCompactionMachine = CompactionMachine.TestCase
TestCompactionMachine.settings = settings(
    settings.default if _scaled else settings(max_examples=MACHINE_EXAMPLES),
    stateful_step_count=30,
    deadline=None,
)
