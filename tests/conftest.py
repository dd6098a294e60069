"""Shared fixtures and helpers for the test-suite."""

import random

import pytest

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect


def make_random_objects(count, dims=2, seed=0, extent=100.0, max_side=3.0):
    """Deterministic random boxes used across many tests."""
    rng = random.Random(seed)
    objects = []
    for i in range(count):
        low = [rng.uniform(0.0, extent - max_side) for _ in range(dims)]
        high = [lo + rng.uniform(0.01, max_side) for lo in low]
        objects.append(SpatialObject(i, Rect(low, high)))
    return objects


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


def assert_knn_contract(tree, points, k, batch_results, batch_stats):
    """``knn_batch``'s documented contract against the scalar search on ``tree``.

    Result lists identical, ties included.  ``batch_stats`` is the closed
    count summed over the points; the scalar heap's own count equals it
    for every point with no node at exactly ``d_k > 0`` and lies between
    the strict and the closed count otherwise.  Returns how many points
    fell into that tie class.
    """
    assert len(batch_results) == len(points)
    leaf = internal = tied = 0
    for point, got in zip(points, batch_results):
        want, stats, strict, closed = knn_reference(tree, point, k)
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
