"""Scoring of candidate clip points (paper, Figure 5 and §IV-B).

The exact volume clipped by a *set* of clip points would require the
inclusion–exclusion principle (exponential in the set size).  The paper's
approximation, reproduced here, assumes per corner that

1. the candidate clipping the most volume is always selected, and
2. every other candidate contributes its own volume minus its overlap with
   that best candidate.

An exact union-volume helper is also provided; the ``ablations``
experiment quantifies the approximation error.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.cbb.clip_point import ClipPoint
from repro.geometry.rect import Rect
from repro.geometry.union_volume import union_volume

Point = Tuple[float, ...]


def clip_region(coord: Point, mask: int, mbb: Rect) -> Rect:
    """The box between ``coord`` and the ``mask``-corner of ``mbb``."""
    corner = mbb.corner(mask)
    low = tuple(min(c, k) for c, k in zip(coord, corner))
    high = tuple(max(c, k) for c, k in zip(coord, corner))
    return Rect(low, high)


def clip_volume(coord: Point, mask: int, mbb: Rect) -> float:
    """Volume of the region clipped away by ``(coord, mask)`` in ``mbb``."""
    corner = mbb.corner(mask)
    vol = 1.0
    for c, k in zip(coord, corner):
        vol *= abs(k - c)
    return vol


def _same_corner_overlap(p: Point, q: Point, mask: int, mbb: Rect) -> float:
    """Overlap volume of the clip regions of two candidates of one corner."""
    corner = mbb.corner(mask)
    vol = 1.0
    for pc, qc, k in zip(p, q, corner):
        vol *= min(abs(k - pc), abs(k - qc))
    return vol


def score_clip_candidates(
    candidates: Sequence[Point], mask: int, mbb: Rect
) -> List[ClipPoint]:
    """Assign approximate scores to all candidates of one corner.

    The highest-volume candidate receives its exact clipped volume; every
    other candidate receives its volume minus the overlap with that best
    candidate (Figure 5).  Returns :class:`ClipPoint` instances in
    descending score order.
    """
    if not candidates:
        return []
    volumes = [clip_volume(c, mask, mbb) for c in candidates]
    best_index = max(range(len(candidates)), key=volumes.__getitem__)
    best = candidates[best_index]

    scored: List[ClipPoint] = []
    for i, candidate in enumerate(candidates):
        if i == best_index:
            score = volumes[i]
        else:
            score = volumes[i] - _same_corner_overlap(candidate, best, mask, mbb)
        scored.append(ClipPoint(candidate, mask, score))
    scored.sort(key=lambda cp: cp.score, reverse=True)
    return scored


def clipped_union_volume(clip_points: Iterable[ClipPoint], mbb: Rect) -> float:
    """Exact volume of the union of the regions clipped by ``clip_points``.

    Unlike the additive score, this never double-counts overlapping
    regions; it is the quantity plotted in Figure 10.
    """
    regions = [cp.region(mbb) for cp in clip_points]
    return union_volume(regions, within=mbb)
