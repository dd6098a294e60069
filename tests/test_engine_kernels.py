"""Seeded property tests for the engine's vectorized kernels.

Each kernel is compared against its scalar reference implementation on
randomized inputs engineered to hit the awkward regions: rectangles that
touch only on a face/corner (closed-intersection boundary), degenerate
point rectangles, query corners exactly on a clip point (strictness), and
MinDist points inside/outside/astride rectangle slabs.  Seeds are fixed,
so failures reproduce deterministically.
"""

import random

import numpy as np
import pytest

from repro.cbb.clip_point import ClipPoint
from repro.cbb.clipping import ClippingConfig, compute_clip_points
from repro.cbb.intersection import clipped_intersects
from repro.engine import ColumnarIndex, inlj_batch, range_query_batch, stt_batch
from repro.engine.kernels import (
    expand_segments,
    intersect_mask,
    mask_cells,
    masks_to_bool,
    padded_clip_veto,
    padded_min_dist_sq,
)
from repro.geometry.dominance import strictly_inside_corner_region
from repro.geometry.rect import Rect, mbb_of_rects
from repro.query.knn import knn_query
from repro.query.range_query import brute_force_range
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from tests.conftest import make_random_objects


def _grid_rect(rng, dims, span=10):
    """Random rectangle on an integer grid (boundary contact is common)."""
    low = [float(rng.randint(0, span)) for _ in range(dims)]
    high = [lo + float(rng.randint(0, 3)) for lo in low]
    return Rect(low, high)


class TestIntersectionKernel:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_matches_rect_intersects(self, dims):
        rng = random.Random(100 + dims)
        rects = [_grid_rect(rng, dims) for _ in range(300)]
        queries = [_grid_rect(rng, dims) for _ in range(40)]
        lows = np.array([r.low for r in rects])
        highs = np.array([r.high for r in rects])
        for query in queries:
            mask = intersect_mask(lows, highs, np.array(query.low), np.array(query.high))
            expected = np.array([r.intersects(query) for r in rects])
            assert np.array_equal(mask, expected)

    def test_point_rectangles(self):
        rng = random.Random(7)
        rects = [_grid_rect(rng, 2) for _ in range(200)]
        lows = np.array([r.low for r in rects])
        highs = np.array([r.high for r in rects])
        for _ in range(50):
            point = Rect.from_point((float(rng.randint(0, 12)), float(rng.randint(0, 12))))
            mask = intersect_mask(lows, highs, np.array(point.low), np.array(point.high))
            expected = np.array([r.intersects(point) for r in rects])
            assert np.array_equal(mask, expected)

    def test_per_row_queries(self):
        rng = random.Random(8)
        rects = [_grid_rect(rng, 3) for _ in range(150)]
        queries = [_grid_rect(rng, 3) for _ in range(150)]
        mask = intersect_mask(
            np.array([r.low for r in rects]),
            np.array([r.high for r in rects]),
            np.array([q.low for q in queries]),
            np.array([q.high for q in queries]),
        )
        expected = np.array([r.intersects(q) for r, q in zip(rects, queries)])
        assert np.array_equal(mask, expected)


def _one_node(rects):
    """Node-major ``(lows, highs)`` of a single node holding ``rects``."""
    lows = np.array([r.low for r in rects]).T[:, None, :]
    highs = np.array([r.high for r in rects]).T[:, None, :]
    return np.ascontiguousarray(lows), np.ascontiguousarray(highs)


def _min_dists(lows, highs, point):
    points_t = np.array(point, dtype=np.float64)[:, None]
    zero = np.zeros(1, dtype=np.int64)
    return padded_min_dist_sq(lows, highs, zero, points_t, zero)[0]


class TestMinDistKernel:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_matches_rect_min_distance_sq(self, dims):
        rng = random.Random(200 + dims)
        rects = [_grid_rect(rng, dims) for _ in range(300)]
        lows, highs = _one_node(rects)
        for _ in range(30):
            point = [rng.uniform(-5.0, 18.0) for _ in range(dims)]
            expected = np.array([r.min_distance_sq(point) for r in rects])
            # Bit-exact: same per-dimension arithmetic, same accumulation order.
            assert np.array_equal(_min_dists(lows, highs, point), expected)

    def test_zero_inside(self):
        lows, highs = _one_node([Rect((0.0, 0.0), (10.0, 10.0))])
        assert _min_dists(lows, highs, [5.0, 10.0])[0] == 0.0

    def test_padding_stays_nan_and_rows_pair_with_their_points(self):
        rng = random.Random(77)
        objects = make_random_objects(90, dims=3, seed=78)
        snapshot = ColumnarIndex.from_tree(build_rtree("rstar", objects, max_entries=7))
        lows, highs = snapshot.node_major()
        nodes = np.array([rng.randrange(snapshot.node_count()) for _ in range(40)])
        points = np.array([[rng.uniform(-10, 110) for _ in range(3)] for _ in range(6)])
        queries = np.array([rng.randrange(len(points)) for _ in nodes])
        block = padded_min_dist_sq(lows, highs, nodes, np.ascontiguousarray(points.T), queries)
        assert block.shape == (len(nodes), lows.shape[2])
        for row, (slot, q) in enumerate(zip(nodes.tolist(), queries.tolist())):
            start, count = snapshot.entry_start[slot], snapshot.entry_count[slot]
            expected = [
                Rect(lo, hi).min_distance_sq(points[q])
                for lo, hi in zip(
                    snapshot.entry_lows[start : start + count].tolist(),
                    snapshot.entry_highs[start : start + count].tolist(),
                )
            ]
            assert block[row, :count].tolist() == expected
            assert np.isnan(block[row, count:]).all()

    def test_knn_ordering_matches_scalar(self):
        """The kernel drives knn_batch to the scalar traversal's ordering."""
        objects = make_random_objects(350, dims=2, seed=55)
        tree = build_rtree("rstar", objects, max_entries=9)
        snapshot = ColumnarIndex.from_tree(tree)
        rng = random.Random(56)
        for _ in range(8):
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
            scalar = knn_query(tree, point, k=12)
            batch = snapshot.knn_batch([point], k=12)[0]
            assert [(d, o.oid) for d, o in batch] == [(d, o.oid) for d, o in scalar]
            dists = [d for d, _ in batch]
            assert dists == sorted(dists)


def _clip_layout_index(dims, node_clips):
    """A bare ``ColumnarIndex`` whose slot ``i`` owns ``node_clips[i]``.

    Only the clip columns and the per-node view matter here: the probe
    kernel reads nothing else of the index.
    """
    flat = [clip for clips in node_clips for clip in clips]
    counts = np.array([len(clips) for clips in node_clips], dtype=np.int64)
    n_nodes = len(node_clips)
    none = np.zeros(0, dtype=np.int64)
    return ColumnarIndex(
        source=None,
        dims=dims,
        is_leaf=np.ones(n_nodes, dtype=bool),
        entry_start=np.zeros(n_nodes, dtype=np.int64),
        entry_count=np.zeros(n_nodes, dtype=np.int64),
        node_ids=np.arange(n_nodes),
        entry_lows=np.zeros((0, dims)),
        entry_highs=np.zeros((0, dims)),
        entry_child=none,
        clip_coords=np.array([c.coord for c in flat], dtype=np.float64).reshape(-1, dims),
        clip_is_high=masks_to_bool(np.array([c.mask for c in flat], dtype=np.int64), dims),
        objects=[],
        source_version=None,
        node_clip_start=np.cumsum(counts) - counts,
        node_clip_count=counts,
    )


def _veto(index, nodes, rects):
    """``padded_clip_veto`` of ``rects[i]`` against slot ``nodes[i]``."""
    lows_t = np.ascontiguousarray(np.array([r.low for r in rects]).T)
    highs_t = np.ascontiguousarray(np.array([r.high for r in rects]).T)
    return padded_clip_veto(
        *index.node_major_clips(),
        np.asarray(nodes, dtype=np.int64),
        lows_t,
        highs_t,
        np.arange(len(rects), dtype=np.int64),
    )


def _scalar_veto(clips, query):
    """Algorithm 2's dominance probe, clip point by clip point."""
    selector = (1 << query.dims) - 1
    return any(
        strictly_inside_corner_region(query.corner(selector ^ c.mask), c.coord, c.mask)
        for c in clips
    )


class TestClipPruneKernel:
    def _random_clipped_node(self, rng, dims):
        rects = [_grid_rect(rng, dims) for _ in range(rng.randint(4, 14))]
        mbb = mbb_of_rects(rects)
        clips = compute_clip_points(mbb, rects, ClippingConfig(method="stairline"))
        return mbb, clips

    @pytest.mark.parametrize("dims", [2, 3, 5, 8])
    def test_matches_scalar_dominance_probe(self, dims):
        rng = random.Random(300 + dims)
        # Fewer nodes where the scalar stairline is slow (256 corners at d = 8).
        n_nodes = {2: 60, 3: 60, 5: 20, 8: 6}[dims]
        nodes = [self._random_clipped_node(rng, dims) for _ in range(n_nodes)]
        index = _clip_layout_index(dims, [clips for _, clips in nodes])
        slots, queries = [], []
        for slot in range(len(nodes)):
            for _ in range(20):
                slots.append(slot)
                queries.append(_grid_rect(rng, dims))
        verdicts = _veto(index, slots, queries)
        clipped_cases = 0
        for slot, query, verdict in zip(slots, queries, verdicts.tolist()):
            mbb, clips = nodes[slot]
            assert verdict == _scalar_veto(clips, query)
            # The caller has already matched the MBB; then a veto is
            # exactly ``clipped_intersects`` failing.
            if mbb.intersects(query):
                assert verdict == (not clipped_intersects(mbb, clips, query))
            clipped_cases += bool(clips)
        assert clipped_cases > 100, "not enough clipped nodes generated"
        assert verdicts.any() and not verdicts.all()

    def test_boundary_contact_never_prunes(self):
        """A query corner exactly on the clip point must not be pruned."""
        clips = [ClipPoint((8.0, 8.0), 0b11)]  # clips towards (10, 10)
        index = _clip_layout_index(2, [clips])
        # Query's far corner (towards the clip corner) lands exactly on the
        # clip coordinate: strictness requires no pruning.
        on_the_point = Rect((8.0, 8.0), (8.0, 8.0))
        # Touching the clipped region's face in one dimension only.
        on_one_face = Rect((8.0, 8.5), (9.0, 9.0))
        # Strictly inside the dead region: pruned.
        inside = Rect((8.5, 8.5), (9.0, 9.0))
        assert _veto(index, [0, 0, 0], [on_the_point, on_one_face, inside]).tolist() == [
            False,
            False,
            True,
        ]

    @pytest.mark.parametrize("dims", [2, 3, 5, 8])
    def test_clipless_node_beside_a_full_one(self, dims):
        """Rows of NaN padding next to a row with all ``k`` cells real."""
        k = 2 ** (dims + 1)
        # Two clip points per corner, nested: the full row has no padding.
        full = [
            ClipPoint(tuple(6.0 + step if (mask >> d) & 1 else 4.0 - step for d in range(dims)), mask)
            for mask in range(1 << dims)
            for step in (0.0, 1.0)
        ]
        index = _clip_layout_index(dims, [[], full, [], full[:3]])
        high_side, low_side = index.node_major_clips()
        assert high_side.shape == low_side.shape == (dims, 4, k)
        # A clip-less node is a row of NaN on both sides …
        assert np.isnan(high_side[:, 0]).all() and np.isnan(low_side[:, 0]).all()
        # … and a real cell carries its coordinate on exactly one of them.
        assert (np.isnan(high_side[:, 1]) ^ np.isnan(low_side[:, 1])).all()
        assert np.isnan(high_side[:, 3, 3:]).all() and np.isnan(low_side[:, 3, 3:]).all()

        inf = float("inf")
        probes = [
            Rect((6.5,) * dims, (8.0,) * dims),  # inside the all-high corner's region
            Rect((0.0,) * dims, (3.5,) * dims),  # inside the all-low corner's region
            Rect((4.5,) * dims, (5.5,) * dims),  # the live middle
            Rect((-inf,) * dims, (inf,) * dims),  # all of space
            Rect((6.5,) * dims, (inf,) * dims),  # half-infinite, still dominated
            Rect((-inf,) * dims, (3.5,) * dims),
            Rect((6.0,) * dims, (8.0,) * dims),  # touches the outer clip coordinate
        ]
        for slot, clips in enumerate([[], full, [], full[:3]]):
            expected = [_scalar_veto(clips, probe) for probe in probes]
            assert _veto(index, [slot] * len(probes), probes).tolist() == expected
        assert _veto(index, [0] * len(probes), probes).tolist() == [False] * len(probes)
        assert _veto(index, [1] * len(probes), probes).tolist() == [
            True,
            True,
            False,
            False,
            True,
            True,
            False,
        ]

    def test_plain_snapshot_never_derives_the_layout(self):
        objects = make_random_objects(200, dims=2, seed=74)
        tree = build_rtree("rstar", objects, max_entries=8)
        plain = ColumnarIndex.from_tree(tree)
        assert not plain.has_clips
        range_query_batch(plain, [Rect((0.0, 0.0), (100.0, 100.0))])
        inlj_batch(objects[:20], plain)
        stt_batch(plain, plain)
        assert plain._node_major is not None
        assert plain._node_major_clips is None
        # The same tree with its clip points does, on first use.
        clipped = ColumnarIndex.from_tree(ClippedRTree.wrap(tree))
        assert clipped.has_clips and clipped._node_major_clips is None
        range_query_batch(clipped, [Rect((0.0, 0.0), (100.0, 100.0))])
        assert clipped._node_major_clips is not None

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_never_prunes_a_contributing_leaf(self, seed):
        """End-to-end no-false-negative property on clipped snapshots.

        Every object the linear scan finds must survive batch execution
        over the clipped snapshot — i.e. the pruning kernel never skips a
        subtree that holds a result.
        """
        objects = make_random_objects(320, dims=2, seed=seed)
        tree = build_rtree("hilbert", objects, max_entries=10)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        snapshot = ColumnarIndex.from_tree(clipped)
        rng = random.Random(seed)
        queries = [_grid_rect(rng, 2) for _ in range(40)]
        queries += [
            Rect.from_point((rng.uniform(0, 100), rng.uniform(0, 100))) for _ in range(10)
        ]
        results = range_query_batch(snapshot, queries)
        for query, found in zip(queries, results):
            expected = {obj.oid for obj in brute_force_range(objects, query)}
            assert {obj.oid for obj in found} == expected


class TestIndexingHelpers:
    def test_expand_segments_reference(self):
        rng = random.Random(400)
        for _ in range(50):
            n = rng.randint(0, 12)
            starts = np.array([rng.randint(0, 100) for _ in range(n)], dtype=np.int64)
            counts = np.array([rng.randint(0, 5) for _ in range(n)], dtype=np.int64)
            flat, owners = expand_segments(starts, counts)
            expected_flat, expected_owner = [], []
            for i, (s, c) in enumerate(zip(starts, counts)):
                for j in range(c):
                    expected_flat.append(s + j)
                    expected_owner.append(i)
            assert flat.tolist() == expected_flat
            assert owners.tolist() == expected_owner

    def test_masks_to_bool_reference(self):
        for dims in (1, 2, 3, 4):
            masks = np.arange(1 << dims)
            bools = masks_to_bool(masks, dims)
            for mask in masks:
                for bit in range(dims):
                    assert bools[mask, bit] == bool((mask >> bit) & 1)

    def test_mask_cells_is_row_major_nonzero(self):
        rng = np.random.default_rng(500)
        for shape in ((0, 4), (7, 1), (13, 48), (5, 4, 6), (3, 0, 2)):
            mask = rng.random(shape) < 0.2
            for got, expected in zip(mask_cells(mask), np.nonzero(mask)):
                assert got.tolist() == expected.tolist()
