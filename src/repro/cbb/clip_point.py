"""Clip points (paper, Definition 2)."""

from __future__ import annotations

from typing import Tuple

from repro.geometry.rect import Rect


class ClipPoint:
    """A single clip point: coordinate, corner bitmask, and heuristic score.

    The pair ``(coord, mask)`` declares the axis-aligned box between
    ``coord`` and the MBB corner selected by ``mask`` to contain no
    objects.  ``score`` is the (approximate) volume the point clips away;
    clip points of a node are stored sorted by descending score so that
    non-intersection is detected as early as possible (§IV-A).
    """

    __slots__ = ("coord", "mask", "score")

    def __init__(self, coord: Tuple[float, ...], mask: int, score: float = 0.0):
        self.coord = tuple(float(c) for c in coord)
        self.mask = int(mask)
        self.score = float(score)

    @property
    def dims(self) -> int:
        """Dimensionality of the clip point."""
        return len(self.coord)

    def region(self, mbb: Rect) -> Rect:
        """The box this clip point declares dead, relative to ``mbb``."""
        corner = mbb.corner(self.mask)
        low = tuple(min(c, k) for c, k in zip(self.coord, corner))
        high = tuple(max(c, k) for c, k in zip(self.coord, corner))
        return Rect(low, high)

    def storage_bytes(self, coord_bytes: int = 8) -> int:
        """Bytes needed to store this clip point (mask byte + coordinates).

        Matches the layout of Figure 4b: a d-bit corner flag (rounded up to
        one byte) followed by ``d`` coordinates.
        """
        return 1 + coord_bytes * self.dims

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClipPoint)
            and self.coord == other.coord
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.coord, self.mask))

    def __repr__(self) -> str:
        return f"ClipPoint(coord={self.coord}, mask={self.mask:b}, score={self.score:.4g})"


def _unchecked_clip_point(coord: Tuple[float, ...], mask: int, score: float = 0.0) -> ClipPoint:
    """A :class:`ClipPoint` of values its caller has already converted.

    ``coord`` must be a tuple of Python floats, ``mask`` a Python int and
    ``score`` a Python float — what the constructor would make of them.
    For callers whose values come out of ``ndarray.tolist()``, which
    converts them already.
    """
    point = _new_clip_point(ClipPoint)
    _set_coord(point, coord)
    _set_mask(point, mask)
    _set_score(point, score)
    return point


_new_clip_point = object.__new__
_set_coord = ClipPoint.coord.__set__
_set_mask = ClipPoint.mask.__set__
_set_score = ClipPoint.score.__set__
