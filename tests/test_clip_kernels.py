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
    _closeness_sets,
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
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect, mbb_of_points
from repro.rtree.str_bulk import str_bulk_load
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


def _lexsort_skyline_masks_2d(lows, highs):
    """The group-wide 2-d sweep the per-row sorts replaced, kept as their
    oracle: one lexsort of every problem's points by ``(problem, key0,
    key1, position)``, then the running minimum of ``key1`` per problem."""
    g, c, _ = lows.shape
    is_high = masks_to_bool(np.arange(4), 2)[:, None, :]
    oriented = orient(lows[:, None], highs[:, None], is_high)  # (g, 4, c, 2)
    rows = g * 4
    key0 = oriented[..., 0].reshape(-1)
    key1 = oriented[..., 1].reshape(-1)
    owner = np.repeat(np.arange(rows, dtype=np.int64), c)
    position = np.tile(np.arange(c, dtype=np.int64), rows)
    order = np.lexsort((position, key1, key0, owner))
    key1_sorted = key1[order].reshape(rows, c)
    running_min = np.minimum.accumulate(key1_sorted, axis=1)
    improves = np.empty((rows, c), dtype=bool)
    improves[:, 0] = True
    improves[:, 1:] = key1_sorted[:, 1:] < running_min[:, :-1]
    mask = np.zeros(rows * c, dtype=bool)
    mask[order[improves.reshape(-1)]] = True
    return mask.reshape(g, 4, c)


#: 2-d keys that tie: small integers, zeros of both signs, infinite bounds.
_tie_key = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -np.inf, np.inf]),
    st.integers(min_value=-2, max_value=2).map(float),
)


@st.composite
def _nan_padded_2d_groups(draw):
    """A group of 2-d nodes padded with NaN to its width, a node of every
    fan-out from 1 to that width among them (so nodes of one and two
    entries beside full ones), in a drawn order."""
    width = draw(st.integers(min_value=1, max_value=10))
    fanouts = list(range(1, width + 1))
    fanouts += draw(st.lists(st.integers(min_value=1, max_value=width), max_size=3))
    fanouts = draw(st.permutations(fanouts))
    lows = np.full((len(fanouts), width, 2), np.nan)
    highs = np.full((len(fanouts), width, 2), np.nan)
    corner = st.tuples(_tie_key, _tie_key)
    for node, fanout in enumerate(fanouts):
        for child in range(fanout):
            a, b = draw(corner), draw(corner)
            lows[node, child] = np.minimum(a, b)
            highs[node, child] = np.maximum(a, b)
    return lows, highs


class TestSkyline2dRowSorts:
    """Two stable sorts per row decide what the group-wide lexsort decided."""

    @given(_nan_padded_2d_groups())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_lexsort_sweep(self, group):
        lows, highs = group
        assert np.array_equal(
            _skyline_masks_2d(lows, highs), _lexsort_skyline_masks_2d(lows, highs)
        )

    @given(_nan_padded_2d_groups())
    @settings(max_examples=60, deadline=None)
    def test_padding_never_enters_a_mask(self, group):
        lows, highs = group
        real = ~np.isnan(lows[:, :, 0])
        masks = _skyline_masks_2d(lows, highs)
        assert not (masks & ~real[:, None, :]).any()
        # Every corner of every node keeps at least its first-sorted entry.
        assert masks.any(axis=2).all()


def _dense_skyline_masks_pairwise(lows, highs):
    """The dense pairwise filter the bitset kernel replaced, kept as its
    oracle: ``2 * d`` packed compare words per child pair, spread into a
    ``(g, 2**d, c, c)`` table per corner."""
    _, c, dims = lows.shape
    low_side = packed_compare(np.less_equal, lows[:, :, None, :], lows[:, None, :, :])
    high_side = packed_compare(np.greater_equal, highs[:, :, None, :], highs[:, None, :, :])
    closer = _all_bits_per_corner(low_side, high_side, dims)  # (g, 2**d, j, i)
    not_before = np.tril(np.ones((c, c), dtype=bool))  # not_before[j, i]: j >= i
    spared = _all_bits_per_corner(
        low_side.swapaxes(1, 2) * not_before, high_side.swapaxes(1, 2) * not_before, dims
    )
    return ~(closer > spared).any(axis=-2)


def _all_bits_per_corner(low_side, high_side, dims):
    masks = np.arange(1 << dims, dtype=low_side.dtype)[:, None, None]
    words = (low_side ^ high_side)[:, None] & masks
    words ^= low_side[:, None]
    return words == masks.max()


def _box_objects(kind, dims, count, seed):
    """Random boxes; ``"grid"`` ones hold ties, zero extents, duplicates
    and zeros of both signs."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        lows = rng.integers(-3, 3, size=(count, dims)).astype(np.float64)
        lows[(lows == 0) & (rng.random((count, dims)) < 0.5)] = -0.0
        highs = lows + rng.choice([0.0, 0.0, 1.0, 2.0], size=(count, dims))
    else:
        lows = rng.uniform(0, 100, size=(count, dims))
        highs = lows + rng.uniform(0, 12, size=(count, dims))
    return [
        SpatialObject(oid, Rect(low, high))
        for oid, (low, high) in enumerate(zip(lows.tolist(), highs.tolist()))
    ]


def _level_groups(tree):
    """Each level's children as bulk_clip pads them: ``(g, widest, d)``, NaN past a fan-out."""
    levels = {}
    for node in tree.nodes():
        levels.setdefault(node.level, []).append(node)
    for nodes in levels.values():
        counts = np.array([len(node.entries) for node in nodes])
        valid = np.arange(counts.max()) < counts[:, None]
        lows = np.full(valid.shape + (tree.dims,), np.nan)
        highs = np.full(valid.shape + (tree.dims,), np.nan)
        lows[valid] = [entry.rect.low for node in nodes for entry in node.entries]
        highs[valid] = [entry.rect.high for node in nodes for entry in node.entries]
        yield lows, highs


class TestSkylineBitsets:
    """The bitset kernel decides every corner as the dense tables did."""

    @pytest.mark.parametrize("dims", (3, 4, 5, 8))
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_groups_match_the_dense_kernel(self, dims, data):
        lows, highs = _pad_groups(data.draw(_rect_groups(dims=dims, max_group=4, max_rects=12)))
        assert np.array_equal(
            _skyline_masks_pairwise(lows, highs), _dense_skyline_masks_pairwise(lows, highs)
        )

    @pytest.mark.parametrize("dims", (3, 4, 5, 8))
    @pytest.mark.parametrize("kind", ("grid", "uniform"))
    def test_tree_levels_of_two_words_match_the_dense_kernel(self, dims, kind):
        tree = str_bulk_load(_box_objects(kind, dims, 260, seed=dims), max_entries=100)
        widest = 0
        for lows, highs in _level_groups(tree):
            widest = max(widest, lows.shape[1])
            got = _skyline_masks_pairwise(lows, highs)
            for n in range(len(lows)):  # the dense tables one node at a time
                dense = _dense_skyline_masks_pairwise(lows[n : n + 1], highs[n : n + 1])
                assert np.array_equal(got[n : n + 1], dense)
        assert widest > 64  # nodes whose bitsets span two words

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_closeness_sets_are_the_comparisons(self, data):
        count = data.draw(st.integers(min_value=1, max_value=140))
        values = st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan])
        keys = np.array(data.draw(st.lists(values, min_size=count, max_size=count)))
        at_most, at_least = _closeness_sets(keys[None, None, :])
        words = -(-count // 64)
        bit = np.arange(64 * words)
        for sets, expected in (
            (at_most, keys[None, :] <= keys[:, None]),  # [i, j]: keys[j] <= keys[i]
            (at_least, keys[:, None] <= keys[None, :]),
        ):
            assert sets.shape == (1, 1, count, words)
            bits = (sets[0, 0][:, bit // 64] >> (bit % 64).astype(np.uint64)) & np.uint64(1)
            assert np.array_equal(bits[:, :count].astype(bool), expected)
            assert not bits[:, count:].any()  # no bit past the last key


def _first_rows(rows):
    return first_occurrence_mask(rows, np.zeros(len(rows), dtype=np.int64))


def _oriented_splices(skyline, mask, dims):
    """orient ∘ validity ∘ splice: the oriented skyline, its valid splices
    (duplicates included) and the corner's ``is_high`` row."""
    is_high = masks_to_bool(np.array([mask]), dims)[0]
    points = np.array(skyline, dtype=np.float64)
    oriented = orient(points, points, is_high)
    i_idx, j_idx = pair_index(len(skyline))
    _, pair = np.nonzero(valid_splices(oriented[None]))
    return oriented, splice(oriented[i_idx[pair]], oriented[j_idx[pair]]), is_high


def _kernel_stairline(skyline, mask, dims):
    """orient ∘ validity ∘ splice ∘ dedup ∘ un-orient: the candidates of the
    order bulk_clip ran before it moved the dedup past the τ filter."""
    _, stair, is_high = _oriented_splices(skyline, mask, dims)
    stair = stair[_first_rows(stair)]
    return [tuple(row) for row in orient(stair, stair, is_high).tolist()]


def _kernel_corner_clips(skyline, mask, dims, mbb, tau, dedup_first=False):
    """One (node, corner) problem as bulk_clip composes it: orient ∘ validity
    ∘ splice ∘ scoring ∘ τ filter ∘ dedup ∘ un-orient, best score first.

    ``dedup_first`` dedups the splices before scoring instead, the old
    order, kept as the oracle the moved dedup must agree with.
    """
    oriented, stair, is_high = _oriented_splices(skyline, mask, dims)
    if dedup_first:
        stair = stair[_first_rows(stair)]
    candidates = np.concatenate([oriented, stair])
    corner = np.array(mbb.corner(mask))
    dist = corner_distances(candidates, orient(corner, corner, is_high))
    scores = sequential_prod(dist)
    best = segment_first_argmax(scores, np.array([0]), np.array([len(scores)]))[0]
    best_score = scores[best]
    scores -= overlap_volumes(dist, dist[best])
    scores[best] = best_score
    passing = np.flatnonzero(scores > tau * mbb.volume())
    passing = passing[_first_rows(candidates[passing])]
    passing = passing[np.argsort(-scores[passing], kind="stable")]
    coords = orient(candidates[passing], candidates[passing], is_high)
    return [(tuple(row), score) for row, score in zip(coords.tolist(), scores[passing].tolist())]


def _scalar_corner_clips(skyline, mask, dims, mbb, tau):
    candidates = list(skyline) + stairline_points(skyline, mask, dims)
    return [
        (cp.coord, cp.score)
        for cp in score_clip_candidates(candidates, mask, mbb)
        if cp.score > tau * mbb.volume()
    ]


def _check_stairline_matches_scalar(groups, mask, dims):
    for group in groups:
        skyline = oriented_skyline(group, mask)
        if len(skyline) < 2:
            continue
        # stairline_points seeds its ``seen`` set with the skyline; the
        # kernels carry no such test (no splice of a skyline can equal one
        # of its points), so agreement here pins that argument too.
        assert _kernel_stairline(skyline, mask, dims) == stairline_points(skyline, mask, dims)
        mbb = mbb_of_points(group)
        for tau in (0.0, 0.025, 0.2):
            expected = _scalar_corner_clips(skyline, mask, dims, mbb, tau)
            assert _kernel_corner_clips(skyline, mask, dims, mbb, tau) == expected
            assert _kernel_corner_clips(skyline, mask, dims, mbb, tau, dedup_first=True) == expected


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
