"""The quadratic split ≡ Guttman's PickSeeds / PickNext loops.

``QuadraticRTree._pick_seeds`` runs over a node's entry bounds as NumPy
arrays, and ``QuadraticRTree._split`` keeps each group's enlargement of
every entry as an array, recomputing only the group that grew.  The
loops they replaced live on here as the oracles: the same seeds, and the
same two groups in the same entry order, on any entry set (ties,
duplicates, zero-extent boxes, ±inf bounds whose enlargements are NaN,
entries inside a group's rectangle that leave it as it was, 1–8
dimensions, every node size from the minimum fill to an overflowing
node, the minimum-fill safeguard), and whole trees built by insertion
with the kernels have the node ids and entry order of trees built with
the loops.
"""

import math
import random
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree import quadratic
from repro.rtree.quadratic import QuadraticRTree


# ----------------------------------------------------------------------
# the reference loops
# ----------------------------------------------------------------------


def reference_pick_seeds(entries: List[Entry]) -> Tuple[int, int]:
    worst_pair = (0, 1)
    worst_waste = float("-inf")
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            union = entries[i].rect.union(entries[j].rect)
            waste = union.volume() - entries[i].rect.volume() - entries[j].rect.volume()
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
    return worst_pair


def reference_pick_next(remaining: List[Entry], rect1: Rect, rect2: Rect) -> int:
    best_index = 0
    best_difference = -1.0
    for i, entry in enumerate(remaining):
        d1 = rect1.enlargement(entry.rect)
        d2 = rect2.enlargement(entry.rect)
        difference = abs(d1 - d2)
        if difference > best_difference:
            best_difference = difference
            best_index = i
    return best_index


class ReferenceQuadraticRTree(QuadraticRTree):
    """The quadratic R-tree with the loop-based split."""

    def _split(self, node):
        entries = list(node.entries)
        seed1, seed2 = reference_pick_seeds(entries)
        group1 = [entries[seed1]]
        group2 = [entries[seed2]]
        rect1 = group1[0].rect
        rect2 = group2[0].rect
        remaining = [e for i, e in enumerate(entries) if i not in (seed1, seed2)]
        while remaining:
            if len(group1) + len(remaining) == self.min_entries:
                group1.extend(remaining)
                break
            if len(group2) + len(remaining) == self.min_entries:
                group2.extend(remaining)
                break
            entry = remaining.pop(reference_pick_next(remaining, rect1, rect2))
            d1 = rect1.enlargement(entry.rect)
            d2 = rect2.enlargement(entry.rect)
            if d1 < d2 or (
                d1 == d2
                and (
                    rect1.volume() < rect2.volume()
                    or (rect1.volume() == rect2.volume() and len(group1) <= len(group2))
                )
            ):
                group1.append(entry)
                rect1 = rect1.union(entry.rect)
            else:
                group2.append(entry)
                rect2 = rect2.union(entry.rect)
        return group1, group2


# ----------------------------------------------------------------------
# entry sets that stress the tie-breaks
# ----------------------------------------------------------------------

#: Coordinates drawn from a small grid (ties and duplicates), with the
#: infinities in the mix.
_COORDS = [-math.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf]


def _random_rect(rng: random.Random, dims: int, kind: str) -> Rect:
    if kind == "grid":
        pairs = [sorted((rng.choice(_COORDS), rng.choice(_COORDS))) for _ in range(dims)]
    elif kind == "point":
        pairs = [(x, x) for x in (rng.choice(_COORDS[1:-1]) for _ in range(dims))]
    elif kind == "nested":
        # Inside [0, 8]^d: a group whose rectangle already covers the
        # entry it takes does not grow.
        pairs = []
        for _ in range(dims):
            low = rng.choice([0.0, 1.0, 2.0, rng.uniform(0, 6)])
            pairs.append((low, rng.choice([low, 8.0, low + rng.uniform(0, 8 - low)])))
    else:
        pairs = []
        for _ in range(dims):
            low = rng.uniform(-10, 10)
            pairs.append((low, low + rng.choice([0.0, rng.uniform(0, 5)])))
    return Rect([p[0] for p in pairs], [p[1] for p in pairs])


def _entry_set(rng: random.Random, dims: int, n: int) -> List[Entry]:
    kind = rng.choice(["grid", "point", "uniform", "nested"])
    rects = [_random_rect(rng, dims, kind) for _ in range(n)]
    if kind == "nested":
        rects[rng.randrange(n)] = Rect([0.0] * dims, [8.0] * dims)
    for _ in range(rng.randrange(3)):  # exact duplicates
        rects[rng.randrange(n)] = rects[rng.randrange(n)]
    return [Entry(rect, i) for i, rect in enumerate(rects)]


def _bounds(entries: List[Entry]):
    lows = np.array([e.rect.low for e in entries], dtype=np.float64)
    highs = np.array([e.rect.high for e in entries], dtype=np.float64)
    return lows, highs


def _groups(split) -> List[List[int]]:
    return [[entry.child for entry in group] for group in split]


def _check_split_on(
    rng: random.Random, dims: int, n: int, max_entries: int, min_entries: int = None
) -> Tuple[List[Entry], Tuple[List[Entry], List[Entry]]]:
    """Seeds and split of one random entry set against the loops; returns both."""
    entries = _entry_set(rng, dims, n)
    lows, highs = _bounds(entries)
    assert QuadraticRTree._pick_seeds(lows, highs) == reference_pick_seeds(entries)
    node = Node(0, level=0)
    node.entries = entries
    ours = QuadraticRTree(dims, max_entries=max_entries, min_entries=min_entries)._split(node)
    theirs = ReferenceQuadraticRTree(
        dims, max_entries=max_entries, min_entries=min_entries
    )._split(node)
    assert _groups(ours) == _groups(theirs)
    # The same instances, and every entry in exactly one group.
    assert all(a is b for g, h in zip(ours, theirs) for a, b in zip(g, h))
    assert sorted(_groups(ours)[0] + _groups(ours)[1]) == list(range(n))
    return entries, ours


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dims", range(1, 9))
def test_kernels_pick_what_the_loops_pick(dims):
    rng = random.Random(dims)
    for max_entries in (4, 10, 48):
        low = max(2, QuadraticRTree(dims, max_entries=max_entries).min_entries)
        # Every size a split meets, ends included: a group of min_entries
        # up to an overflowing node of max_entries + 1.
        for n in range(low, max_entries + 2):
            _check_split_on(rng, dims, n, max_entries)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=49),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_kernels_pick_what_the_loops_pick_hypothesis(seed, dims, n, min_entries):
    max_entries = max(n - 1, 2 * min_entries)
    _check_split_on(random.Random(seed), dims, n, max_entries, min_entries)


def test_the_minimum_fill_safeguard_fills_the_lagging_group():
    """All but one entry crowd round the first seed: the far group takes the rest to fill."""
    rng = random.Random(11)
    for dims in (1, 2, 3):
        for max_entries in (4, 10, 48):
            crowd = [
                Rect(low, [x + rng.uniform(0, 0.5) for x in low])
                for low in ([rng.uniform(0, 1) for _ in range(dims)] for _ in range(max_entries))
            ]
            far = Rect([100.0] * dims, [101.0] * dims)
            entries = [Entry(rect, i) for i, rect in enumerate([*crowd, far])]
            node = Node(0, level=0)
            node.entries = entries
            tree = QuadraticRTree(dims, max_entries=max_entries)
            ours = tree._split(node)
            theirs = ReferenceQuadraticRTree(dims, max_entries=max_entries)._split(node)
            assert _groups(ours) == _groups(theirs)
            assert min(len(group) for group in ours) == tree.min_entries
            assert any(entry.child == max_entries for entry in min(ours, key=len))


def test_a_group_that_does_not_grow_is_not_recomputed():
    """Entries inside a seed's rectangle leave its enlargements as they were."""
    dims = 2
    big = Rect((0.0, 0.0), (10.0, 10.0))
    inside = [Rect((x, x), (x + 1.0, x + 1.0)) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    far = Rect((50.0, 50.0), (51.0, 51.0))
    entries = [Entry(rect, i) for i, rect in enumerate([big, *inside, far])]
    node = Node(0, level=0)
    node.entries = entries
    calls = []
    enlargements = quadratic._enlargements

    def counting(low, high, volume, lows, highs):
        calls.append(Rect(low, high))
        return enlargements(low, high, volume, lows, highs)

    with mock.patch.object(quadratic, "_enlargements", counting):
        ours = QuadraticRTree(dims, max_entries=6, min_entries=1)._split(node)
    theirs = ReferenceQuadraticRTree(dims, max_entries=6, min_entries=1)._split(node)
    assert _groups(ours) == _groups(theirs) == [[0, 1, 2, 3, 4, 5], [6]]
    assert calls == [big, far]  # the seeds' arrays only


def test_nan_waste_never_wins():
    """Infinite bounds make ``inf - inf`` wastes and enlargements; the loops skip them."""
    rects = [
        Rect((-math.inf, 0.0), (math.inf, 1.0)),
        Rect((0.0, 0.0), (1.0, 1.0)),
        Rect((5.0, 5.0), (6.0, 6.0)),
        Rect((-math.inf, 0.0), (math.inf, 2.0)),
    ]
    entries = [Entry(r, i) for i, r in enumerate(rects)]
    lows, highs = _bounds(entries)
    assert QuadraticRTree._pick_seeds(lows, highs) == reference_pick_seeds(entries) == (1, 2)
    # Every waste NaN: the loop keeps its initial pair, and every
    # enlargement is NaN too, so the first remaining entry goes next.
    everything = [Entry(Rect((-math.inf,), (math.inf,)), i) for i in range(5)]
    lows, highs = _bounds(everything)
    assert QuadraticRTree._pick_seeds(lows, highs) == reference_pick_seeds(everything) == (0, 1)
    for group in (entries, everything):
        node = Node(0, level=0)
        node.entries = group
        ours = QuadraticRTree(1 if group is everything else 2, max_entries=4)._split(node)
        theirs = ReferenceQuadraticRTree(
            1 if group is everything else 2, max_entries=4
        )._split(node)
        assert _groups(ours) == _groups(theirs)


def test_a_taken_entry_never_wins_again():
    """A taken row may prefer one group infinitely (an overflowing union); it stays taken.

    ``C`` lies inside seed ``B``'s box but makes seed ``A``'s union
    overflow to ``inf``: its difference is ``inf`` after it is taken, and
    the rows still left must outrank it.
    """
    big = 1e200
    rects = [
        Rect((0.0, 0.0), (1.0, big)),  # A
        Rect((0.0, 0.0), (big, 2.0)),  # B
        Rect((0.0, 0.0), (big, 1.0)),  # C: inside B, A's union overflows
        Rect((0.5, 0.5), (0.6, 0.6)),
        Rect((0.2, 0.2), (0.3, 0.3)),
    ]
    entries = [Entry(rect, i) for i, rect in enumerate(rects)]
    node = Node(0, level=0)
    node.entries = entries
    ours = QuadraticRTree(2, max_entries=4, min_entries=1)._split(node)
    theirs = ReferenceQuadraticRTree(2, max_entries=4, min_entries=1)._split(node)
    assert _groups(ours) == _groups(theirs)
    assert sorted(_groups(ours)[0] + _groups(ours)[1]) == list(range(len(rects)))


def _tree_shape(tree) -> List[Tuple[int, int, list]]:
    shape = []
    for node in sorted(tree.nodes(), key=lambda n: n.node_id):
        children = [
            (e.rect.low, e.rect.high, e.child if node.level else e.child.oid) for e in node.entries
        ]
        shape.append((node.node_id, node.level, children))
    return shape


@pytest.mark.parametrize("dims", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("max_entries", [4, 10, 48])
def test_insertion_builds_match_the_loop_split(dims, max_entries):
    rng = random.Random(dims * 100 + max_entries)
    count = 8 * max_entries
    kind = ["uniform", "grid", "point"][(dims + max_entries) % 3]
    objects = [SpatialObject(i, _random_rect(rng, dims, kind)) for i in range(count)]
    kernel = QuadraticRTree(dims, max_entries=max_entries)
    reference = ReferenceQuadraticRTree(dims, max_entries=max_entries)
    for obj in objects:
        kernel.insert(obj)
        reference.insert(obj)
    # Deletes condense and re-insert, splitting again on the way.
    for obj in rng.sample(objects, count // 3):
        assert kernel.delete(obj).found and reference.delete(obj).found
    assert kernel.root_id == reference.root_id
    assert _tree_shape(kernel) == _tree_shape(reference)
    kernel.check_invariants()


def test_split_of_a_single_node_matches_the_loop_split():
    rng = random.Random(3)
    for dims in (2, 4):
        tree = QuadraticRTree(dims, max_entries=6)
        reference = ReferenceQuadraticRTree(dims, max_entries=6)
        node = Node(0, level=0)
        node.entries = _entry_set(rng, dims, 7)
        ours = tree._split(node)
        theirs = reference._split(node)
        assert [[e.child for e in g] for g in ours] == [[e.child for e in g] for g in theirs]
