"""Unit tests for clip points, scoring, and the auxiliary clip store."""

import numpy as np
import pytest

from repro.cbb.clip_point import ClipPoint, _unchecked_clip_point
from repro.cbb.scoring import (
    clip_region,
    clip_volume,
    clipped_union_volume,
    score_clip_candidates,
)
from repro.cbb.store import ClipStore
from repro.geometry.rect import Rect


class TestClipPoint:
    def test_region_spans_point_to_corner(self):
        mbb = Rect((0, 0), (10, 10))
        clip = ClipPoint((6.0, 7.0), 0b11)
        assert clip.region(mbb) == Rect((6, 7), (10, 10))
        clip_low = ClipPoint((3.0, 4.0), 0b00)
        assert clip_low.region(mbb) == Rect((0, 0), (3, 4))

    def test_equality_ignores_score(self):
        a = ClipPoint((1.0, 2.0), 0b01, score=5.0)
        b = ClipPoint((1.0, 2.0), 0b01, score=9.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ClipPoint((1.0, 2.0), 0b10)

    def test_storage_bytes(self):
        clip = ClipPoint((1.0, 2.0, 3.0), 0b101)
        assert clip.storage_bytes() == 1 + 3 * 8
        assert clip.storage_bytes(coord_bytes=4) == 1 + 3 * 4

    def test_dims(self):
        assert ClipPoint((1.0, 2.0), 0).dims == 2
        assert ClipPoint((1.0, 2.0, 3.0), 0).dims == 3

    def test_unchecked_constructor_matches_the_checked_one(self):
        # What the clip kernels and a snapshot's thaw hand it: rows zipped
        # from ``tolist()`` columns, ``tolist()`` masks and scores.
        coords = np.array([[1.5, -0.0, 3.0], [-np.inf, 2.0, 0.0], [4.0, 5.0, np.inf]])
        masks = np.array([0b101, 0, 0b111], dtype=np.int64)
        scores = np.array([2.25, 0.0, 7.0])
        fast = list(
            map(_unchecked_clip_point, zip(*coords.T.tolist()), masks.tolist(), scores.tolist())
        )
        checked = [ClipPoint(row, mask, score) for row, mask, score in zip(coords, masks, scores)]
        for a, b in zip(fast, checked):
            assert type(a.coord) is tuple and {type(x) for x in a.coord} == {float}
            assert type(a.mask) is int and type(a.score) is float
            assert (a.coord, a.mask, a.score) == (b.coord, b.mask, b.score)
            assert np.signbit(a.coord).tolist() == np.signbit(b.coord).tolist()
            assert a == b and hash(a) == hash(b)
        default = _unchecked_clip_point((1.0, 2.0), 3)
        assert (default.score, default) == (0.0, ClipPoint((1.0, 2.0), 3))


class TestScoring:
    def test_clip_volume(self):
        mbb = Rect((0, 0), (10, 10))
        assert clip_volume((6, 7), 0b11, mbb) == pytest.approx(4 * 3)
        assert clip_volume((6, 7), 0b00, mbb) == pytest.approx(6 * 7)
        assert clip_volume((10, 10), 0b11, mbb) == 0.0

    def test_clip_region_matches_volume(self):
        mbb = Rect((0, 0), (8, 4))
        for mask in range(4):
            region = clip_region((5.0, 3.0), mask, mbb)
            assert region.volume() == pytest.approx(clip_volume((5.0, 3.0), mask, mbb))

    def test_best_candidate_gets_exact_volume(self):
        mbb = Rect((0, 0), (10, 10))
        candidates = [(4.0, 4.0), (2.0, 8.0), (8.0, 2.0)]
        scored = score_clip_candidates(candidates, 0b11, mbb)
        best = scored[0]
        assert best.coord == (4.0, 4.0)
        assert best.score == pytest.approx(6 * 6)

    def test_other_candidates_discounted_by_overlap_with_best(self):
        mbb = Rect((0, 0), (10, 10))
        candidates = [(4.0, 4.0), (2.0, 8.0)]
        scored = {cp.coord: cp.score for cp in score_clip_candidates(candidates, 0b11, mbb)}
        # (2, 8): own volume 8*2 = 16, overlap with best region [4..10]x[4..10]
        # is min(6,8)*min(6,2) = 6*2 = 12 -> score 4.
        assert scored[(2.0, 8.0)] == pytest.approx(16 - 12)

    def test_scores_sorted_descending(self):
        mbb = Rect((0, 0), (10, 10))
        candidates = [(1.0, 9.0), (5.0, 5.0), (9.0, 1.0)]
        scored = score_clip_candidates(candidates, 0b11, mbb)
        assert [cp.score for cp in scored] == sorted((cp.score for cp in scored), reverse=True)

    def test_empty_candidates(self):
        assert score_clip_candidates([], 0b11, Rect((0, 0), (1, 1))) == []

    def test_clipped_union_volume_deduplicates(self):
        mbb = Rect((0, 0), (10, 10))
        clips = [ClipPoint((4.0, 4.0), 0b11), ClipPoint((5.0, 5.0), 0b11)]
        # The second region is nested in the first.
        assert clipped_union_volume(clips, mbb) == pytest.approx(36.0)

    def test_clipped_union_volume_different_corners(self):
        mbb = Rect((0, 0), (10, 10))
        clips = [ClipPoint((2.0, 2.0), 0b00), ClipPoint((8.0, 8.0), 0b11)]
        assert clipped_union_volume(clips, mbb) == pytest.approx(4.0 + 4.0)


class TestClipStore:
    def test_put_get_roundtrip(self):
        store = ClipStore()
        clips = [ClipPoint((1.0, 1.0), 0b00, score=2.0), ClipPoint((2.0, 2.0), 0b11, score=5.0)]
        store.put(7, clips)
        stored = store.get(7)
        assert [c.score for c in stored] == [5.0, 2.0]
        assert 7 in store
        assert len(store) == 1

    def test_get_missing_returns_empty(self):
        assert ClipStore().get(99) == []

    def test_put_empty_removes_entry(self):
        store = ClipStore()
        store.put(1, [ClipPoint((0.0, 0.0), 0, score=1.0)])
        store.put(1, [])
        assert 1 not in store
        assert len(store) == 0

    def test_remove_is_idempotent(self):
        store = ClipStore()
        store.remove(3)
        store.put(3, [ClipPoint((0.0, 0.0), 0, score=1.0)])
        store.remove(3)
        store.remove(3)
        assert 3 not in store

    def test_statistics(self):
        store = ClipStore()
        store.put(1, [ClipPoint((0.0, 0.0), 0, score=1.0)])
        store.put(2, [ClipPoint((0.0, 0.0), 0, score=1.0), ClipPoint((1.0, 1.0), 3, score=2.0)])
        assert store.total_clip_points() == 3
        assert store.average_clip_points() == pytest.approx(1.5)
        expected_bytes = 2 * ClipStore.ENTRY_HEADER_BYTES + 3 * (1 + 2 * 8)
        assert store.storage_bytes() == expected_bytes

    def test_empty_statistics(self):
        store = ClipStore()
        assert store.total_clip_points() == 0
        assert store.average_clip_points() == 0.0
        assert store.storage_bytes() == 0

    def test_clear(self):
        store = ClipStore()
        store.put(1, [ClipPoint((0.0, 0.0), 0, score=1.0)])
        store.clear()
        assert len(store) == 0

    def test_items_iteration(self):
        store = ClipStore()
        store.put(4, [ClipPoint((0.0, 0.0), 0, score=1.0)])
        items = dict(store.items())
        assert set(items) == {4}
