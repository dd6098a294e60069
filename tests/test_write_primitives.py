"""The write path's tight loops ≡ the per-entry method-call loops they replaced.

``RTreeBase._find_leaf``, ``mbb_of_rects`` (and so ``Node.mbb``) and
``QuadraticRTree._choose_subtree`` inline the ``Rect`` methods they used
to call once per entry.  The old loops live on here as the oracles: the
same path, the same floats to the bit and the same index on any input
(ties, exact duplicates, zero-extent boxes, ``-0.0`` / ``0.0``, ±inf
bounds whose enlargement is NaN), and trees of every variant, built and
then updated by insertion and deletion with the old loops patched back
in, are node for node the trees the new loops build.
"""

import math
import random
import struct
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect, mbb_of_rects
from repro.rtree import hilbert, node as node_module, rrstar, rstar
from repro.rtree.base import RTreeBase
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.registry import build_rtree


# ----------------------------------------------------------------------
# the reference loops
# ----------------------------------------------------------------------


def reference_mbb_of_rects(rects) -> Rect:
    rects = list(rects)
    if not rects:
        raise ValueError("cannot bound an empty rectangle set")
    dims = rects[0].dims
    low = [math.inf] * dims
    high = [-math.inf] * dims
    for rect in rects:
        for i in range(dims):
            if rect.low[i] < low[i]:
                low[i] = rect.low[i]
            if rect.high[i] > high[i]:
                high[i] = rect.high[i]
    return Rect(low, high)


def reference_node_mbb(self) -> Rect:
    if not self.entries:
        raise ValueError(f"node {self.node_id} has no entries to bound")
    return reference_mbb_of_rects([entry.rect for entry in self.entries])


def reference_find_leaf(self, obj: SpatialObject) -> Optional[List[int]]:
    def descend(node_id: int, path: List[int]) -> Optional[List[int]]:
        node = self._nodes[node_id]
        path.append(node_id)
        if node.is_leaf:
            for entry in node.entries:
                if (
                    not entry.is_node_pointer
                    and entry.child.oid == obj.oid
                    and entry.rect == obj.rect
                ):
                    return path
        else:
            for entry in node.entries:
                if entry.rect.contains(obj.rect):
                    found = descend(entry.child, list(path))
                    if found is not None:
                        return found
        return None

    return descend(self._root_id, [])


def reference_choose_subtree(self, node: Node, rect: Rect) -> int:
    best_index = 0
    best_enlargement = float("inf")
    best_area = float("inf")
    for i, entry in enumerate(node.entries):
        enlargement = entry.rect.enlargement(rect)
        area = entry.rect.volume()
        if enlargement < best_enlargement or (
            enlargement == best_enlargement and area < best_area
        ):
            best_index = i
            best_enlargement = enlargement
            best_area = area
    return best_index


def _patch_reference_loops(monkeypatch) -> None:
    monkeypatch.setattr(RTreeBase, "_find_leaf", reference_find_leaf)
    monkeypatch.setattr(QuadraticRTree, "_choose_subtree", reference_choose_subtree)
    monkeypatch.setattr(Node, "mbb", reference_node_mbb)
    for module in (node_module, rstar, rrstar, hilbert):
        monkeypatch.setattr(module, "mbb_of_rects", reference_mbb_of_rects)


# ----------------------------------------------------------------------
# inputs that stress the tie-breaks
# ----------------------------------------------------------------------

#: A small grid (ties, duplicates, zeros of either sign) with the
#: infinities in the mix.
_COORDS = [-math.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf]


def _random_rect(rng: random.Random, dims: int, kind: str) -> Rect:
    if kind == "grid":
        pairs = [sorted((rng.choice(_COORDS), rng.choice(_COORDS))) for _ in range(dims)]
    elif kind == "point":
        pairs = [(x, x) for x in (rng.choice(_COORDS[1:-1]) for _ in range(dims))]
    else:
        pairs = []
        for _ in range(dims):
            low = rng.uniform(-10, 10)
            pairs.append((low, low + rng.choice([0.0, rng.uniform(0, 5)])))
    return Rect([p[0] for p in pairs], [p[1] for p in pairs])


def _rect_set(rng: random.Random, dims: int, n: int) -> List[Rect]:
    kind = rng.choice(["grid", "point", "uniform"])
    rects = [_random_rect(rng, dims, kind) for _ in range(n)]
    for _ in range(rng.randrange(3)):  # exact duplicates
        rects[rng.randrange(n)] = rects[rng.randrange(n)]
    return rects


def _bits(rect: Rect) -> bytes:
    """The bounds' bytes: ``==`` cannot tell ``-0.0`` from ``0.0``."""
    return struct.pack(f"{2 * rect.dims}d", *rect.low, *rect.high)


# ----------------------------------------------------------------------
# mbb_of_rects
# ----------------------------------------------------------------------


def _check_mbb_on(rng: random.Random, dims: int, n: int) -> None:
    rects = _rect_set(rng, dims, n)
    assert _bits(mbb_of_rects(rects)) == _bits(reference_mbb_of_rects(rects))
    node = Node(0, 0, [Entry(rect, SpatialObject(i, rect)) for i, rect in enumerate(rects)])
    assert _bits(node.mbb()) == _bits(reference_mbb_of_rects(rects))


@pytest.mark.parametrize("dims", range(1, 9))
def test_mbb_of_rects_is_the_loop_to_the_bit(dims):
    rng = random.Random(dims)
    for n in (1, 2, 3, 16, 48):
        for _ in range(4):
            _check_mbb_on(rng, dims, n)


def test_mbb_keeps_the_first_of_signed_zeros():
    first, second = Rect((-0.0, 0.0), (0.0, 1.0)), Rect((0.0, -0.0), (-0.0, 1.0))
    for rects in ([first, second], [second, first]):
        assert _bits(mbb_of_rects(rects)) == _bits(reference_mbb_of_rects(rects))
    assert _bits(mbb_of_rects([first, second])) != _bits(mbb_of_rects([second, first]))
    everywhere = Rect((math.inf, -math.inf), (math.inf, math.inf))
    assert _bits(mbb_of_rects([everywhere])) == _bits(reference_mbb_of_rects([everywhere]))
    with pytest.raises(ValueError):
        mbb_of_rects([])


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_mbb_of_rects_is_the_loop_hypothesis(seed, dims, n):
    _check_mbb_on(random.Random(seed), dims, n)


# ----------------------------------------------------------------------
# QuadraticRTree._choose_subtree
# ----------------------------------------------------------------------


def _check_choose_subtree_on(rng: random.Random, dims: int, n: int) -> None:
    tree = QuadraticRTree(dims, max_entries=max(2, n))
    node = Node(0, 1, [Entry(rect, i) for i, rect in enumerate(_rect_set(rng, dims, n))])
    for _ in range(4):
        rect = _random_rect(rng, dims, rng.choice(["grid", "point", "uniform"]))
        assert tree._choose_subtree(node, rect) == reference_choose_subtree(tree, node, rect)


@pytest.mark.parametrize("dims", range(1, 9))
def test_choose_subtree_picks_what_the_loop_picks(dims):
    rng = random.Random(100 + dims)
    for n in (1, 2, 3, 16, 48, 49):
        for _ in range(4):
            _check_choose_subtree_on(rng, dims, n)


def test_nan_enlargement_never_wins():
    tree = QuadraticRTree(2, max_entries=4)
    wide = Rect((-math.inf, 0.0), (math.inf, 1.0))
    node = Node(0, 1, [Entry(wide, 0), Entry(Rect((5.0, 5.0), (6.0, 6.0)), 1), Entry(wide, 2)])
    # inf - inf: the infinite entries' enlargement is NaN and the finite one wins.
    assert math.isnan(wide.enlargement(Rect((0.0, 0.0), (0.5, 0.5))))
    probe = Rect((0.0, 0.0), (0.5, 0.5))
    assert tree._choose_subtree(node, probe) == reference_choose_subtree(tree, node, probe) == 1
    # Every enlargement NaN: the loop keeps entry 0.
    node = Node(0, 1, [Entry(wide, 0), Entry(wide, 1)])
    assert tree._choose_subtree(node, probe) == reference_choose_subtree(tree, node, probe) == 0


def test_ties_go_to_the_first_least_area():
    tree = QuadraticRTree(2, max_entries=4)
    big, small = Rect((0.0, 0.0), (4.0, 4.0)), Rect((0.0, 0.0), (2.0, 2.0))
    node = Node(0, 1, [Entry(big, 0), Entry(small, 1), Entry(small, 2), Entry(big, 3)])
    probe = Rect((1.0, 1.0), (1.5, 1.5))  # inside all: zero enlargement everywhere
    assert tree._choose_subtree(node, probe) == reference_choose_subtree(tree, node, probe) == 1


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_choose_subtree_picks_what_the_loop_picks_hypothesis(seed, dims, n):
    _check_choose_subtree_on(random.Random(seed), dims, n)


# ----------------------------------------------------------------------
# RTreeBase._find_leaf
# ----------------------------------------------------------------------


def _objects(rng: random.Random, dims: int, count: int, kind: str) -> List[SpatialObject]:
    objects = [SpatialObject(i, _random_rect(rng, dims, kind)) for i in range(count)]
    for i in range(count // 8):  # the same rectangle under another id
        objects.append(SpatialObject(count + i, objects[rng.randrange(count)].rect))
    return objects


def _check_find_leaf(tree, probes) -> None:
    for obj in probes:
        assert tree._find_leaf(obj) == reference_find_leaf(tree, obj)


@pytest.mark.parametrize("kind", ["grid", "point", "uniform"])
@pytest.mark.parametrize("dims", [1, 2, 3, 5])
def test_find_leaf_returns_the_loops_path(kind, dims):
    rng = random.Random(dims * 7 + len(kind))
    objects = _objects(rng, dims, 120, kind)
    tree = build_rtree("quadratic", objects, max_entries=5)
    absent = [SpatialObject(10_000 + i, _random_rect(rng, dims, kind)) for i in range(20)]
    moved = [SpatialObject(obj.oid, _random_rect(rng, dims, kind)) for obj in objects[:20]]
    _check_find_leaf(tree, objects + absent + moved)
    assert all(tree._find_leaf(obj) is not None for obj in objects)


def test_find_leaf_with_one_object_in_two_leaves():
    """The same ``(oid, rect)`` twice: both paths agree on which leaf is
    first, and once it is gone from there, both backtrack to the other."""
    twin = SpatialObject(7, Rect((0.5, 0.5), (0.5, 0.5)))
    groups = (
        [(0.0, 0.0, 0.2, 0.2), None, (0.6, 0.6, 1.0, 1.0)],
        [(0.4, 0.4, 0.45, 0.45), (0.5, 0.5, 0.9, 0.9), None],
    )
    tree = QuadraticRTree(2, max_entries=4)
    del tree._nodes[tree.root_id]
    leaves = []
    for g, group in enumerate(groups):
        leaf = tree._new_node(level=0)
        for i, box in enumerate(group):
            obj = twin if box is None else SpatialObject(10 * g + i, Rect(box[:2], box[2:]))
            leaf.entries.append(Entry(obj.rect, obj))
        leaves.append(leaf.node_id)
    tree._adopt_structure(tree._pack_level([tree.node(i) for i in leaves], 0).node_id, 6)
    tree.check_invariants()
    for expected_leaf in leaves:
        path = tree._find_leaf(twin)
        assert path == reference_find_leaf(tree, twin) and path[-1] == expected_leaf
        assert tree.delete(twin).found
    assert tree._find_leaf(twin) is None is reference_find_leaf(tree, twin)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["grid", "point", "uniform"]),
)
@settings(max_examples=30, deadline=None)
def test_find_leaf_returns_the_loops_path_hypothesis(seed, dims, kind):
    rng = random.Random(seed)
    objects = _objects(rng, dims, 40, kind)
    tree = build_rtree("quadratic", objects, max_entries=4)
    _check_find_leaf(tree, objects + [SpatialObject(0, _random_rect(rng, dims, kind))])


# ----------------------------------------------------------------------
# whole trees
# ----------------------------------------------------------------------


def _tree_shape(tree):
    shape = []
    for node in sorted(tree.nodes(), key=lambda n: n.node_id):
        children = [
            (_bits(e.rect), e.child if node.level else e.child.oid) for e in node.entries
        ]
        shape.append((node.node_id, node.level, children))
    return tree.root_id, shape


def _build_and_update(variant: str, dims: int, seed: int):
    rng = random.Random(seed)
    kind = ["uniform", "grid", "point"][seed % 3]
    objects = _objects(rng, dims, 160, kind)
    tree = build_rtree(variant, objects, max_entries=6)
    live = list(objects)
    found = []
    for step in range(120):
        if live and rng.random() < 0.5:
            found.append(tree.delete(live.pop(rng.randrange(len(live)))).found)
        else:
            obj = SpatialObject(1_000 + step, _random_rect(rng, dims, kind))
            live.append(obj)
            tree.insert(obj)
    assert all(found)
    tree.check_invariants()
    return _tree_shape(tree)


@pytest.mark.parametrize("variant", ["quadratic", "hilbert", "rstar", "rrstar", "str"])
@pytest.mark.parametrize("dims", [2, 3])
def test_updated_trees_match_the_loop_built_ones(variant, dims, monkeypatch):
    seed = dims * 10 + len(variant)
    ours = _build_and_update(variant, dims, seed)
    with monkeypatch.context() as patch:
        _patch_reference_loops(patch)
        assert RTreeBase._find_leaf is reference_find_leaf
        theirs = _build_and_update(variant, dims, seed)
    assert ours == theirs
