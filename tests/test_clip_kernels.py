"""Property tests: each batched clip kernel ≡ its scalar counterpart.

Every kernel in :mod:`repro.engine.clip_kernels` claims bit-exact
agreement with one scalar building block of Algorithm 1; these seeded
hypothesis suites pin each claim on adversarial inputs (grid-valued
coordinates so ties, duplicates, and shared corners occur constantly),
from 2 dimensions to 9 — one more than fits the uint8 dominance word.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cbb.scoring import _same_corner_overlap, clip_volume, score_clip_candidates
from repro.engine.clip_kernels import (
    _skyline_masks_2d,
    _skyline_masks_pairwise,
    corner_distances,
    first_occurrence_mask,
    orient,
    overlap_volumes,
    packed_compare,
    pair_index,
    segment_first_argmax,
    sequential_prod,
    skyline_masks,
    splice,
    valid_splices,
)
from repro.engine.kernels import masks_to_bool
from repro.geometry.rect import mbb_of_points
from repro.skyline.skyline import _skyline_pairwise_indices, oriented_skyline
from repro.skyline.stairline import stairline_points

#: Grid-heavy coordinates: duplicates and axis ties with high probability.
coord = st.one_of(
    st.integers(min_value=0, max_value=5).map(float),
    st.floats(min_value=0, max_value=10, allow_nan=False, allow_infinity=False, width=16),
)


def _point_groups(dims, max_group=10, max_points=12):
    return st.lists(
        st.lists(st.tuples(*[coord] * dims), min_size=1, max_size=max_points),
        min_size=1,
        max_size=max_group,
    )


def _rect_groups(dims, max_group=10, max_rects=12):
    """Groups of child rectangles as ``(low, high)`` pairs of d-tuples;
    a drawn point pair is sorted per dimension, so zero extents abound."""

    def as_rect(pair):
        a, b = pair
        return tuple(map(min, a, b)), tuple(map(max, a, b))

    point = st.tuples(*[coord] * dims)
    return st.lists(
        st.lists(st.tuples(point, point).map(as_rect), min_size=1, max_size=max_rects),
        min_size=1,
        max_size=max_group,
    )


def _pad_groups(groups):
    """Stack variable-size groups of rectangles into dense ``(g, c, d)``
    ``lows`` / ``highs`` by padding each group with repeats of its first
    rectangle (repeats never change a skyline beyond the dedup the kernels
    already implement)."""
    count = max(len(g) for g in groups)
    padded = [list(g) + [g[0]] * (count - len(g)) for g in groups]
    lows = np.array([[low for low, _ in g] for g in padded], dtype=np.float64)
    highs = np.array([[high for _, high in g] for g in padded], dtype=np.float64)
    return lows, highs


def _corner_points(group, mask):
    dims = len(group[0][0])
    return [
        tuple(high[i] if (mask >> i) & 1 else low[i] for i in range(dims))
        for low, high in group
    ]


def _check_skyline_matches_scalar(groups):
    """Every corner of every group, against the scalar pairwise filter."""
    dims = len(groups[0][0][0])
    for group in groups:
        lows, highs = _pad_groups([group])
        got = skyline_masks(lows, highs)[0]
        assert got.shape == (1 << dims, len(group))
        for mask in range(1 << dims):
            expected = np.zeros(len(group), dtype=bool)
            expected[_skyline_pairwise_indices(_corner_points(group, mask), mask)] = True
            assert np.array_equal(got[mask], expected), mask


class TestSkylineKernel:
    @given(_rect_groups(dims=2))
    @settings(max_examples=60)
    def test_matches_scalar_per_group_2d(self, groups):
        _check_skyline_matches_scalar(groups)

    @given(_rect_groups(dims=3))
    @settings(max_examples=60)
    def test_matches_scalar_per_group_3d(self, groups):
        _check_skyline_matches_scalar(groups)

    @pytest.mark.parametrize("dims", (4, 8, 9))
    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_scalar_per_group_high_d(self, dims, data):
        _check_skyline_matches_scalar(
            data.draw(_rect_groups(dims=dims, max_group=2, max_rects=6))
        )

    @given(_rect_groups(dims=2))
    @settings(max_examples=80)
    def test_2d_sweep_equals_batched_pairwise(self, groups):
        lows, highs = _pad_groups(groups)
        assert np.array_equal(
            _skyline_masks_2d(lows, highs), _skyline_masks_pairwise(lows, highs)
        )


def _kernel_stairline(skyline, mask, dims):
    """orient ∘ validity ∘ splice ∘ dedup ∘ un-orient, as bulk_clip composes them."""
    is_high = masks_to_bool(np.array([mask]), dims)[0]
    points = np.array(skyline, dtype=np.float64)
    oriented = orient(points, points, is_high)
    i_idx, j_idx = pair_index(len(skyline))
    _, pair = np.nonzero(valid_splices(oriented[None]))
    stair = splice(oriented[i_idx[pair]], oriented[j_idx[pair]])
    stair = stair[first_occurrence_mask(stair, np.zeros(len(stair), dtype=np.int64))]
    return [tuple(row) for row in orient(stair, stair, is_high).tolist()]


def _check_stairline_matches_scalar(groups, mask, dims):
    for group in groups:
        skyline = oriented_skyline(group, mask)
        if len(skyline) < 2:
            continue
        # stairline_points seeds its ``seen`` set with the skyline; the
        # kernels carry no such test (no splice of a skyline can equal one
        # of its points), so agreement here pins that argument too.
        assert _kernel_stairline(skyline, mask, dims) == stairline_points(skyline, mask, dims)


class TestStairlineKernels:
    @given(_point_groups(dims=2, max_group=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=100)
    def test_composed_candidates_match_scalar_stairline_2d(self, groups, mask):
        _check_stairline_matches_scalar(groups, mask, dims=2)

    @given(_point_groups(dims=3, max_group=4), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_composed_candidates_match_scalar_stairline_3d(self, groups, mask):
        _check_stairline_matches_scalar(groups, mask, dims=3)

    @pytest.mark.parametrize("dims", (4, 8, 9))
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_composed_candidates_match_scalar_stairline_high_d(self, dims, data):
        groups = data.draw(_point_groups(dims=dims, max_group=3, max_points=7))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << dims) - 1))
        _check_stairline_matches_scalar(groups, mask, dims)

    def test_splice_ties_keep_the_first_operand_like_python_max(self):
        # 0.0 == -0.0: Python's max(p, q) / min(p, q) return p on a tie,
        # and the stored coordinate must carry the same sign bit.
        a = np.array([[0.0, -0.0, 1.0]])
        b = np.array([[-0.0, 0.0, 2.0]])
        got = splice(a, b)
        assert got.tolist() == [[max(0.0, -0.0), max(-0.0, 0.0), 2.0]]
        assert np.signbit(got).tolist() == [[False, True, False]]

    @pytest.mark.parametrize("s", (2, 3, 7))
    def test_pair_index_is_the_scalar_double_loop_and_shared(self, s):
        i_idx, j_idx = pair_index(s)
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == [
            (i, j) for i in range(s) for j in range(i + 1, s)
        ]
        assert pair_index(s)[0] is i_idx
        with pytest.raises(ValueError):
            i_idx[0] = 1


class TestPackedCompare:
    @pytest.mark.parametrize(
        "dims,dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (17, np.uint32)]
    )
    def test_bit_t_is_the_comparison_in_dimension_t(self, dims, dtype):
        rng = np.random.default_rng(dims)
        a = rng.integers(0, 3, size=(5, 1, dims)).astype(np.float64)
        b = rng.integers(0, 3, size=(1, 4, dims)).astype(np.float64)
        words = packed_compare(np.less_equal, a, b)
        assert words.dtype == dtype
        assert words.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                expected = sum(int(a[i, 0, t] <= b[0, j, t]) << t for t in range(dims))
                assert int(words[i, j]) == expected


class TestScoringKernels:
    @given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=16))
    @settings(max_examples=100)
    def test_sequential_prod_matches_scalar_accumulation(self, rows):
        values = np.array(rows, dtype=np.float64)
        expected = []
        for row in rows:
            acc = 1.0
            for x in row:
                acc *= x
            expected.append(acc)
        assert np.array_equal(sequential_prod(values), np.array(expected))

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100)
    def test_volumes_overlaps_and_selection_match_scalar_scoring(self, pts, mask):
        mbb = mbb_of_points(pts + [(0.0, 0.0), (10.0, 10.0)])
        corner = np.array(mbb.corner(mask))
        arr = np.array(pts, dtype=np.float64)
        dist = corner_distances(arr, corner)
        vols = sequential_prod(dist)
        assert vols.tolist() == [clip_volume(p, mask, mbb) for p in pts]
        # bulk_clip scores in oriented space: the distances are the same floats.
        is_high = masks_to_bool(np.array([mask]), 2)[0]
        assert np.array_equal(
            corner_distances(orient(arr, arr, is_high), orient(corner, corner, is_high)), dist
        )

        best_index = max(range(len(pts)), key=vols.tolist().__getitem__)
        starts = np.array([0])
        counts = np.array([len(pts)])
        assert segment_first_argmax(vols, starts, counts)[0] == best_index

        best = arr[best_index]
        overlaps = overlap_volumes(dist, dist[best_index])
        assert overlaps.tolist() == [
            _same_corner_overlap(p, tuple(best), mask, mbb) for p in pts
        ]

        # And the composed per-corner scoring matches score_clip_candidates.
        scored = score_clip_candidates(pts, mask, mbb)
        kernel_scores = np.where(
            np.arange(len(pts)) == best_index, vols, vols - overlaps
        )
        order = np.lexsort((np.arange(len(pts)), -kernel_scores))
        got = [(tuple(arr[i]), float(kernel_scores[i])) for i in order]
        assert got == [(cp.coord, cp.score) for cp in scored]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=80)
    def test_segment_first_argmax_multi_segment(self, raw):
        values = np.array([float(a) for a, _ in raw])
        # Split into segments at pseudo-random boundaries derived from data.
        bounds = sorted({0, *[i for i, (_, b) in enumerate(raw) if b == 0 and i > 0]})
        starts = np.array(bounds, dtype=np.int64)
        counts = np.diff(np.append(starts, len(values)))
        got = segment_first_argmax(values, starts, counts)
        for seg, (start, count) in enumerate(zip(starts, counts)):
            chunk = values[start : start + count].tolist()
            expected = start + max(range(count), key=chunk.__getitem__)
            assert got[seg] == expected


class TestDedupKernel:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_first_occurrence_mask_matches_seen_set(self, raw):
        # Rows of one owner are contiguous (owners 2, 0, 1: grouped, not sorted).
        raw = sorted(raw, key=lambda row: (row[2] + 1) % 3)
        rows = np.array([(float(a), float(b)) for a, b, _ in raw], dtype=np.float64)
        rows = rows.reshape(-1, 2)
        owners = np.array([g for _, _, g in raw], dtype=np.int64)
        seen = set()
        expected = []
        for owner, row in zip(owners.tolist(), rows.tolist()):
            key = (owner, tuple(row))
            expected.append(key not in seen)
            seen.add(key)
        assert first_occurrence_mask(rows, owners).tolist() == expected


class TestBatchConsistency:
    """Batching many groups must decide each group as if it were alone."""

    @given(_rect_groups(dims=3, max_group=8, max_rects=6))
    @settings(max_examples=60)
    def test_skyline_batch_equals_one_group_at_a_time(self, groups):
        lows, highs = _pad_groups(groups)
        batched = skyline_masks(lows, highs)
        for gi in range(len(groups)):
            single = skyline_masks(lows[gi : gi + 1], highs[gi : gi + 1])[0]
            assert np.array_equal(batched[gi], single)
