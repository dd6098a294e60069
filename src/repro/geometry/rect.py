"""Axis-aligned d-dimensional hyperrectangles."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

from repro.geometry.bitmask import corner_of


class Rect:
    """An axis-aligned hyperrectangle ``<low, high>``.

    ``low`` and ``high`` are tuples of floats with ``low[i] <= high[i]`` in
    every dimension.  A point is represented as a degenerate rectangle with
    ``low == high``.  Bounds may be infinite but never NaN: every
    comparison with NaN is False, so no query could find such a rectangle
    (the padded layouts of :mod:`repro.engine.columnar` use NaN for exactly
    that reason).  Instances are immutable and hashable.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float], high: Sequence[float]):
        low = tuple(float(x) for x in low)
        high = tuple(float(x) for x in high)
        if len(low) != len(high):
            raise ValueError(
                f"low and high must have the same dimensionality "
                f"({len(low)} != {len(high)})"
            )
        if not low:
            raise ValueError("a rectangle needs at least one dimension")
        for lo, hi in zip(low, high):
            if not lo <= hi:
                if lo > hi:
                    raise ValueError(f"low {low} exceeds high {high}")
                raise ValueError(f"NaN bound in low {low} / high {high}")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Rect is immutable")

    # Immutable, so copies may share the instance (deepcopy would otherwise
    # trip over the __setattr__ guard while reconstructing the slots).
    def __copy__(self) -> "Rect":
        return self

    def __deepcopy__(self, memo) -> "Rect":
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """Build a degenerate (zero-extent) rectangle around ``point``."""
        return cls(point, point)

    @classmethod
    def from_center(cls, center: Sequence[float], extents: Sequence[float]) -> "Rect":
        """Build a rectangle from its center and per-dimension half-widths."""
        low = tuple(c - e for c, e in zip(center, extents))
        high = tuple(c + e for c, e in zip(center, extents))
        return cls(low, high)

    # -- basic properties --------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.low)

    @property
    def center(self) -> Tuple[float, ...]:
        """Geometric center of the rectangle."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    def side(self, dim: int) -> float:
        """Extent of the rectangle along dimension ``dim``."""
        return self.high[dim] - self.low[dim]

    def volume(self) -> float:
        """Product of side lengths (area in 2d, volume in 3d, ...)."""
        vol = 1.0
        for lo, hi in zip(self.low, self.high):
            vol *= hi - lo
        return vol

    def margin(self) -> float:
        """Sum of side lengths (half-perimeter in 2d, as used by the R*-tree)."""
        return sum(hi - lo for lo, hi in zip(self.low, self.high))

    def is_point(self) -> bool:
        """True when the rectangle has zero extent in every dimension."""
        return all(lo == hi for lo, hi in zip(self.low, self.high))

    def corner(self, mask: int) -> Tuple[float, ...]:
        """Corner selected by bitmask ``mask`` (bit set -> max extent)."""
        return corner_of(self.low, self.high, mask)

    # -- relations ---------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the two closed rectangles share at least one point."""
        return all(
            lo <= o_hi and o_lo <= hi
            for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high)
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return all(
            lo <= o_lo and o_hi <= hi
            for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside this closed rectangle."""
        return all(lo <= p <= hi for lo, hi, p in zip(self.low, self.high, point))

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` if the two are disjoint."""
        low = tuple(max(a, b) for a, b in zip(self.low, other.low))
        high = tuple(min(a, b) for a, b in zip(self.high, other.high))
        if any(lo > hi for lo, hi in zip(low, high)):
            return None
        return Rect(low, high)

    def intersection_volume(self, other: "Rect") -> float:
        """Volume of the overlap region (0.0 when disjoint)."""
        vol = 1.0
        for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high):
            span = min(hi, o_hi) - max(lo, o_lo)
            if span <= 0:
                return 0.0
            vol *= span
        return vol

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding box of the two rectangles."""
        low = tuple(min(a, b) for a, b in zip(self.low, other.low))
        high = tuple(max(a, b) for a, b in zip(self.high, other.high))
        return Rect(low, high)

    def enlargement(self, other: "Rect") -> float:
        """Volume increase needed for this rectangle to also cover ``other``.

        ``self.union(other).volume() - self.volume()`` to the bit, without
        building the union: the insertion paths call this once per
        candidate subtree.
        """
        vol = 1.0
        for lo, hi, other_lo, other_hi in zip(self.low, self.high, other.low, other.high):
            vol *= max(hi, other_hi) - min(lo, other_lo)
        return vol - self.volume()

    def min_distance_sq(self, point: Sequence[float]) -> float:
        """Squared minimum distance from ``point`` to this rectangle.

        Uses plain multiplication rather than ``** 2``: ``pow`` may be a
        ULP off the correctly-rounded product, and the batch engine's
        MinDist kernel (an IEEE multiply) must match this bit for bit.
        """
        dist = 0.0
        for lo, hi, p in zip(self.low, self.high, point):
            if p < lo:
                delta = lo - p
                dist += delta * delta
            elif p > hi:
                delta = p - hi
                dist += delta * delta
        return dist

    def center_distance_sq(self, other: "Rect") -> float:
        """Squared distance between the centers of the two rectangles."""
        return sum((a - b) ** 2 for a, b in zip(self.center, other.center))

    def translate(self, offset: Sequence[float]) -> "Rect":
        """Return a copy shifted by ``offset``."""
        low = tuple(lo + o for lo, o in zip(self.low, offset))
        high = tuple(hi + o for hi, o in zip(self.high, offset))
        return Rect(low, high)

    def scaled(self, factor: float) -> "Rect":
        """Return a copy scaled by ``factor`` about its center."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        center = self.center
        low = tuple(c - (c - lo) * factor for c, lo in zip(center, self.low))
        high = tuple(c + (hi - c) * factor for c, hi in zip(center, self.high))
        return Rect(low, high)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and self.low == other.low
            and self.high == other.high
        )

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        return f"Rect(low={self.low}, high={self.high})"


def mbb_of_points(points: Iterable[Sequence[float]]) -> Rect:
    """Minimum bounding box of a non-empty collection of points."""
    points = list(points)
    if not points:
        raise ValueError("cannot bound an empty point set")
    dims = len(points[0])
    low = [math.inf] * dims
    high = [-math.inf] * dims
    for point in points:
        for i, coord in enumerate(point):
            if coord < low[i]:
                low[i] = coord
            if coord > high[i]:
                high[i] = coord
    return Rect(low, high)


def mbb_of_rects(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding box of a non-empty collection of rectangles."""
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
