"""A compaction's derived layouts ≡ a fresh derivation, generation after generation.

When the generation a compaction replaces has built its padded layouts
(``ColumnarIndex.node_major`` / ``node_major_clips``), the freeze derives
the new generation's from them: a kept slot's padded row is copied, only
the fresh slots are filled.  The freeze assembles the objects as a
column (``take_objects``'s) in any case, kept leaves' runs from the
column of the generation it replaces.  After every generation those layouts must equal the ones a
snapshot derives from its own flat arrays, kept here as the oracles (the
derivations as first written): byte for byte, so NaN padding and
``-0.0`` count, and the object column element by element, by identity.

The chains cover every insertion variant and STR packing at fill 0.7,
clipped and plain, folded whole and step by step; padded widths that
grow (STR's slack fills up) and shrink (to an emptied tree and back);
and generations whose predecessor never built a layout, which then
derive theirs lazily on first use.  No reference to the replaced
generation outlives the swap.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from repro.engine import ColumnarIndex, SnapshotManager
from repro.engine.kernels import expand_segments
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load

VARIANTS = ("quadratic", "hilbert", "rstar", "rrstar", "str-0.7")


def reference_node_major(index: ColumnarIndex):
    flat, owners = expand_segments(index.entry_start, index.entry_count)
    cols = flat - index.entry_start[owners]
    shape = (index.dims, len(index.entry_count), int(index.entry_count.max()))
    lows = np.full(shape, np.nan, dtype=np.float64)
    highs = np.full(shape, np.nan, dtype=np.float64)
    lows[:, owners, cols] = index.entry_lows[flat].T
    highs[:, owners, cols] = index.entry_highs[flat].T
    return lows, highs


def reference_node_major_clips(index: ColumnarIndex):
    flat, owners = expand_segments(index.node_clip_start, index.node_clip_count)
    cols = flat - index.node_clip_start[owners]
    shape = (index.dims, len(index.node_clip_count), int(index.node_clip_count.max()))
    high_side = np.full(shape, np.nan, dtype=np.float64)
    low_side = np.full(shape, np.nan, dtype=np.float64)
    coords = index.clip_coords[flat].T
    is_high = index.clip_is_high[flat].T
    high_side[:, owners, cols] = np.where(is_high, coords, np.nan)
    low_side[:, owners, cols] = np.where(is_high, np.nan, coords)
    return high_side, low_side


def _same_bytes(ours, theirs) -> None:
    for mine, reference in zip(ours, theirs):
        assert (mine.dtype, mine.shape) == (reference.dtype, reference.shape)
        assert mine.flags.c_contiguous
        assert mine.tobytes() == reference.tobytes()


def assert_layouts_are_fresh(snapshot: ColumnarIndex) -> None:
    """Whatever layouts ``snapshot`` holds equal a fresh derivation; then builds the rest."""
    _same_bytes(snapshot.node_major(), reference_node_major(snapshot))
    _same_bytes(snapshot.node_major_clips(), reference_node_major_clips(snapshot))
    taken = snapshot.take_objects(np.arange(len(snapshot.objects)))
    assert len(snapshot._object_column) == len(snapshot.objects)
    assert all(ours is theirs for ours, theirs in zip(snapshot._object_column, snapshot.objects))
    assert all(ours is theirs for ours, theirs in zip(taken, snapshot.objects))


def _box(rng: random.Random, oid: int, dims: int, side: float) -> SpatialObject:
    # A grid of corners with zero-width sides: signed zeros and ties.
    low = [rng.choice([-0.0, 0.0, rng.uniform(-50, 50)]) for _ in range(dims)]
    high = [x + rng.choice([0.0, rng.uniform(0, side)]) for x in low]
    return SpatialObject(oid, Rect(low, high))


class Chain:
    def __init__(self, variant, clipped, seed, count=120, max_entries=8, dims=2):
        self.rng = random.Random(seed)
        self.dims = dims
        self.next_oid = 0
        self.live = [self.new_object() for _ in range(count)]
        if variant == "str-0.7":
            tree = str_bulk_load(self.live, max_entries=max_entries, leaf_fill=0.7)
        else:
            tree = build_rtree(variant, self.live, max_entries=max_entries)
        self.source = ClippedRTree.wrap(tree) if clipped else tree
        self.manager = SnapshotManager(self.source)

    def new_object(self) -> SpatialObject:
        self.next_oid += 1
        return _box(self.rng, self.next_oid, self.dims, 8.0)

    def write(self, ops: int, delete_share: float) -> None:
        for _ in range(ops):
            if self.live and self.rng.random() < delete_share:
                assert self.manager.delete(self.live.pop(self.rng.randrange(len(self.live))))
            else:
                obj = self.new_object()
                self.live.append(obj)
                self.manager.insert(obj)

    def fold(self, stepped: bool) -> None:
        if stepped:
            while self.manager.compact_step():
                pass
        self.manager.compact()


def _widths(snapshot: ColumnarIndex):
    return int(snapshot.entry_count.max()), int(snapshot.node_clip_count.max())


#: Generations before this one build no layout: the freeze has none to copy.
FIRST_READ = 3


@pytest.mark.parametrize("stepped", [False, True], ids=["whole", "stepped"])
@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "plain"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_derived_layouts_equal_a_fresh_derivation(variant, clipped, stepped):
    chain = Chain(variant, clipped, seed=len(variant) + 10 * clipped + 100 * stepped)
    widths = [_widths(chain.manager.snapshot)]
    # Insert-heavy (slack fills up), then down to an empty tree, then back.
    phases = [(0.1, 6)] * 8 + [(1.0, 20)] * 10 + [(0.0, 10)] * 4
    for generation, (delete_share, ops) in enumerate(phases):
        before = chain.manager.snapshot
        if generation == FIRST_READ:
            # Its predecessor built nothing: derived lazily, on first use.
            assert before._node_major is None and before._node_major_clips is None
        if generation >= FIRST_READ:
            assert_layouts_are_fresh(before)
        chain.write(ops, delete_share)
        chain.fold(stepped)
        snapshot = chain.manager.snapshot
        if snapshot is before:  # deletes asked of an emptied tree: nothing to fold
            assert not chain.live and not before.objects
            continue
        derived = generation >= FIRST_READ
        assert (snapshot._node_major is not None) == derived
        assert (snapshot._node_major_clips is not None) == derived
        # The freeze assembles the objects as a column: every fold keeps it.
        assert snapshot._object_column is not None
        if derived:
            assert_layouts_are_fresh(snapshot)
        widths.append(_widths(snapshot))
        if not chain.live:
            assert widths[-1] == (0, 0)
    assert (0, 0) in widths, "the tree never emptied"
    entry_widths = [entry for entry, _ in widths[FIRST_READ:]]
    assert any(b > a for a, b in zip(entry_widths, entry_widths[1:])), "it never grew"
    assert any(b < a for a, b in zip(entry_widths, entry_widths[1:])), "it never shrank"
    if clipped:
        clip_widths = [clips for _, clips in widths[FIRST_READ:]]
        assert len(set(clip_widths)) > 1, "the clip width never changed"


def test_no_reference_to_the_replaced_generation_survives():
    chain = Chain("rstar", True, seed=5)
    for _ in range(4):
        replaced = weakref.ref(chain.manager.snapshot)
        assert_layouts_are_fresh(replaced())
        chain.write(12, 0.5)
        chain.fold(stepped=False)
        gc.collect()
        assert replaced() is None
