"""Stairline (point-spliced) clip-point generation (Definitions 6 and 7).

A *splice point* of two points mixes their coordinates: with respect to
mask ``m`` it takes the maximum coordinate on set bits and the minimum on
cleared bits (it is the ``m``-corner of the MBB of the two points).

For clipping corner ``R^b`` of a node, stairline points are splice points
of pairs of skyline points computed with the *opposite* mask ``~b`` — they
sit at the inner corners of the staircase formed by the skyline, as far
from ``R^b`` as their two sources allow — that are still *valid* clip
points, i.e. whose clip region contains no object.

The validity test: a splice point ``c`` is valid for corner ``b`` iff no
object corner lies strictly inside the region between ``c`` and ``R^b``.
Because an object's ``b``-corner is its closest point to ``R^b`` (in the
rectilinear sense), it suffices to check the skyline of the object
corners.  (Algorithm 1 as printed in the paper writes this check with the
operands of ``≺_b`` swapped; the running example of Figure 2 requires the
orientation implemented here.)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.bitmask import flip_mask
from repro.geometry.dominance import strictly_inside_corner_region

Point = Tuple[float, ...]


def splice_point(p: Point, q: Point, mask: int) -> Point:
    """The ``mask``-corner of the MBB of ``{p, q}`` (Definition 6)."""
    return tuple(
        max(pi, qi) if (mask >> i) & 1 else min(pi, qi)
        for i, (pi, qi) in enumerate(zip(p, q))
    )


def stairline_points(
    skyline: Sequence[Point], mask: int, dims: int
) -> List[Point]:
    """Valid stairline points for corner ``mask``, spliced from ``skyline``.

    ``skyline`` must be the oriented skyline of the children's
    ``mask``-corners.  The result excludes points that coincide with a
    skyline point (they would add no clipping power) and points whose clip
    region would swallow part of an object.  The pairwise enumeration is
    O(s^3) in the skyline size ``s``, as in the paper; ``s`` is bounded by
    the node fan-out so this is cheap in practice.
    """
    opposite = flip_mask(mask, dims)
    skyline = list(skyline)
    skyline_set = set(skyline)
    result: List[Point] = []
    seen: set = set(skyline_set)
    for i, p in enumerate(skyline):
        for q in skyline[i + 1:]:
            candidate = splice_point(p, q, opposite)
            if candidate in seen:
                continue
            seen.add(candidate)
            # Valid iff no object corner sits strictly inside the region the
            # candidate would clip away (checking skyline corners suffices).
            invalid = any(
                strictly_inside_corner_region(s, candidate, mask)
                for s in skyline
            )
            if not invalid:
                result.append(candidate)
    return result
