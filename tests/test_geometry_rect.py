"""Unit tests for Rect and the MBB helpers."""

import math

import pytest

from repro.geometry.rect import Rect, mbb_of_points, mbb_of_rects


class TestRectConstruction:
    def test_basic_properties(self):
        rect = Rect((0.0, 1.0), (2.0, 5.0))
        assert rect.dims == 2
        assert rect.low == (0.0, 1.0)
        assert rect.high == (2.0, 5.0)
        assert rect.center == (1.0, 3.0)
        assert rect.side(0) == 2.0
        assert rect.side(1) == 4.0

    def test_volume_and_margin(self):
        rect = Rect((0, 0, 0), (2, 3, 4))
        assert rect.volume() == 24.0
        assert rect.margin() == 9.0

    def test_point_rect(self):
        point = Rect.from_point((3.0, 4.0))
        assert point.is_point()
        assert point.volume() == 0.0

    def test_from_center(self):
        rect = Rect.from_center((5.0, 5.0), (1.0, 2.0))
        assert rect.low == (4.0, 3.0)
        assert rect.high == (6.0, 7.0)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError, match=r"low \(1\.0, 0\.0\) exceeds high \(0\.0, 1\.0\)"):
            Rect((1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize(
        "low,high",
        [
            ((math.nan, 0.0), (1.0, 1.0)),
            ((0.0, 0.0), (1.0, math.nan)),
            ((0.0, math.nan), (1.0, math.nan)),
            ((math.nan,), (math.nan,)),
        ],
    )
    def test_nan_bounds_raise(self, low, high):
        # ``nan > x`` is False, so a guard written ``lo > hi`` lets NaN in;
        # the rectangle would then be found by no query, all-space included.
        with pytest.raises(ValueError, match="NaN bound"):
            Rect(low, high)
        with pytest.raises(ValueError, match="NaN bound"):
            Rect.from_point(tuple(lo + hi for lo, hi in zip(low, high)))

    def test_infinite_bounds_are_legal(self):
        inf = math.inf
        all_space = Rect((-inf, -inf), (inf, inf))
        assert all_space.intersects(Rect((0.0, 0.0), (1.0, 1.0)))
        assert Rect((-inf, 0.0), (3.0, inf)).high == (3.0, inf)
        assert Rect((inf,), (inf,)).is_point()
        assert Rect((-inf,), (-inf,)).is_point()
        with pytest.raises(ValueError, match="exceeds"):
            Rect((inf,), (-inf,))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0, 1.0))

    def test_zero_dims_raise(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_immutable(self):
        rect = Rect((0, 0), (1, 1))
        with pytest.raises(AttributeError):
            rect.low = (5, 5)

    def test_equality_and_hash(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0.0, 0.0), (1.0, 1.0))
        c = Rect((0, 0), (2, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a rect"


class TestRectRelations:
    def test_intersects_overlapping(self):
        a = Rect((0, 0), (2, 2))
        b = Rect((1, 1), (3, 3))
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_touching_edge(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((1, 0), (2, 1))
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((2, 2), (3, 3))
        assert not a.intersects(b)
        assert a.intersection(b) is None
        assert a.intersection_volume(b) == 0.0

    def test_contains(self):
        outer = Rect((0, 0), (10, 10))
        inner = Rect((2, 2), (3, 3))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_contains_point(self):
        rect = Rect((0, 0), (2, 2))
        assert rect.contains_point((1, 1))
        assert rect.contains_point((0, 2))
        assert not rect.contains_point((3, 1))

    def test_intersection_volume(self):
        a = Rect((0, 0), (2, 2))
        b = Rect((1, 1), (3, 3))
        assert a.intersection_volume(b) == pytest.approx(1.0)
        assert a.intersection(b) == Rect((1, 1), (2, 2))

    def test_union_and_enlargement(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((2, 2), (3, 3))
        union = a.union(b)
        assert union == Rect((0, 0), (3, 3))
        assert a.enlargement(b) == pytest.approx(9.0 - 1.0)
        assert a.enlargement(Rect((0.2, 0.2), (0.8, 0.8))) == 0.0

    def test_min_distance_sq(self):
        rect = Rect((0, 0), (1, 1))
        assert rect.min_distance_sq((0.5, 0.5)) == 0.0
        assert rect.min_distance_sq((2.0, 1.0)) == pytest.approx(1.0)
        assert rect.min_distance_sq((2.0, 3.0)) == pytest.approx(1.0 + 4.0)

    def test_center_distance_sq(self):
        a = Rect((0, 0), (2, 2))
        b = Rect((3, 4), (5, 6))
        assert a.center_distance_sq(b) == pytest.approx((4 - 1) ** 2 + (5 - 1) ** 2)

    def test_translate_and_scale(self):
        rect = Rect((0, 0), (2, 2))
        moved = rect.translate((1, -1))
        assert moved == Rect((1, -1), (3, 1))
        grown = rect.scaled(2.0)
        assert grown == Rect((-1, -1), (3, 3))
        shrunk = rect.scaled(0.0)
        assert shrunk.is_point()
        with pytest.raises(ValueError):
            rect.scaled(-1.0)

    def test_corner(self):
        rect = Rect((0, 0), (2, 3))
        assert rect.corner(0b00) == (0, 0)
        assert rect.corner(0b01) == (2, 0)
        assert rect.corner(0b10) == (0, 3)
        assert rect.corner(0b11) == (2, 3)


class TestMbbHelpers:
    def test_mbb_of_points(self):
        mbb = mbb_of_points([(0, 5), (2, 1), (1, 3)])
        assert mbb == Rect((0, 1), (2, 5))

    def test_mbb_of_rects(self):
        mbb = mbb_of_rects([Rect((0, 0), (1, 1)), Rect((3, -1), (4, 0.5))])
        assert mbb == Rect((0, -1), (4, 1))

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            mbb_of_points([])
        with pytest.raises(ValueError):
            mbb_of_rects([])

    def test_mbb_contains_all_inputs(self):
        rects = [Rect((i, i), (i + 1, i + 2)) for i in range(5)]
        mbb = mbb_of_rects(rects)
        assert all(mbb.contains(r) for r in rects)
