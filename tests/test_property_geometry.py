"""Property-based tests (hypothesis) for the geometric primitives."""

from hypothesis import given, settings, strategies as st

from repro.geometry.bitmask import flip_mask
from repro.geometry.dominance import dominates
from repro.geometry.rect import Rect, mbb_of_rects
from repro.geometry.union_volume import dead_space_fraction, union_volume

coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False, width=32)


@st.composite
def rects(draw, dims=2):
    low = [draw(coord) for _ in range(dims)]
    extent = [draw(st.floats(min_value=0, max_value=100, allow_nan=False, width=32)) for _ in range(dims)]
    high = [lo + e for lo, e in zip(low, extent)]
    return Rect(low, high)


@st.composite
def points(draw, dims=2):
    return tuple(draw(coord) for _ in range(dims))


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        assert a.intersection_volume(b) == b.intersection_volume(a)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains(a)
        assert union.contains(b)
        assert union.volume() >= max(a.volume(), b.volume())

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains(inter)
            assert b.contains(inter)
            assert inter.volume() <= min(a.volume(), b.volume()) + 1e-6

    @given(rects())
    def test_enlargement_of_self_is_zero(self, rect):
        assert rect.enlargement(rect) == 0.0
        assert rect.contains(rect)
        assert rect.intersects(rect)

    @given(rects(), rects())
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= -1e-9

    @given(st.data(), st.integers(min_value=1, max_value=8))
    def test_enlargement_is_the_unions_volume_minus_its_own(self, data, dims):
        # Exactly, not approximately: the R-tree variants break
        # ChooseSubtree ties on this number.
        a = data.draw(st.one_of(rects(dims=dims), points(dims=dims).map(Rect.from_point)))
        fractions = st.floats(min_value=0, max_value=1)
        kind = data.draw(st.sampled_from(("any", "contained", "touching", "disjoint", "point")))
        if kind == "any":
            b = data.draw(rects(dims=dims))
        elif kind == "point":
            b = Rect.from_point(data.draw(points(dims=dims)))
        elif kind == "contained":
            cuts = [sorted(data.draw(st.tuples(fractions, fractions))) for _ in range(dims)]
            b = Rect(
                [min(hi, lo + t[0] * (hi - lo)) for lo, hi, t in zip(a.low, a.high, cuts)],
                [min(hi, lo + t[1] * (hi - lo)) for lo, hi, t in zip(a.low, a.high, cuts)],
            )
            assert a.contains(b)
        else:
            gap = 0.0 if kind == "touching" else data.draw(st.floats(min_value=1, max_value=50))
            low = a.high[0] + gap
            b = Rect((low,) + a.low[1:], (low + (a.high[0] - a.low[0]),) + a.high[1:])
            assert a.intersects(b) == (kind == "touching")
        assert a.enlargement(b) == a.union(b).volume() - a.volume()
        assert b.enlargement(a) == b.union(a).volume() - b.volume()

    @given(st.lists(rects(), min_size=1, max_size=10))
    def test_mbb_contains_all(self, collection):
        mbb = mbb_of_rects(collection)
        assert all(mbb.contains(r) for r in collection)

    @given(rects(dims=3))
    def test_corners_are_inside(self, rect):
        for mask in range(8):
            assert rect.contains_point(rect.corner(mask))

    @given(rects(dims=2), st.integers(min_value=0, max_value=3))
    def test_opposite_corners_span_rect(self, rect, mask):
        a = rect.corner(mask)
        b = rect.corner(flip_mask(mask, 2))
        reconstructed = Rect(
            tuple(min(x, y) for x, y in zip(a, b)), tuple(max(x, y) for x, y in zip(a, b))
        )
        assert reconstructed == rect


class TestDominanceProperties:
    @given(points(), points(), st.integers(min_value=0, max_value=3))
    def test_antisymmetry(self, p, q, mask):
        assert not (dominates(p, q, mask) and dominates(q, p, mask))

    @given(points(), points(), st.integers(min_value=0, max_value=3))
    def test_flip_mask_inverts_direction(self, p, q, mask):
        if dominates(p, q, mask):
            assert dominates(q, p, flip_mask(mask, 2))

    @given(points(dims=3), points(dims=3), points(dims=3), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_transitivity(self, p, q, r, mask):
        if dominates(p, q, mask) and dominates(q, r, mask):
            assert dominates(p, r, mask)


class TestUnionVolumeProperties:
    @given(st.lists(rects(), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_union_bounded_by_sum_and_max(self, collection):
        total = union_volume(collection)
        assert total <= sum(r.volume() for r in collection) + 1e-6
        assert total >= max(r.volume() for r in collection) - 1e-6

    @given(st.lists(rects(), min_size=1, max_size=6), rects())
    @settings(max_examples=60)
    def test_union_monotone_in_inputs(self, collection, extra):
        assert union_volume(collection + [extra]) >= union_volume(collection) - 1e-6

    @given(st.lists(rects(), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_dead_space_fraction_in_unit_interval(self, collection):
        mbb = mbb_of_rects(collection)
        fraction = dead_space_fraction(mbb, collection)
        assert 0.0 <= fraction <= 1.0
