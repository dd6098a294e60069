"""NumPy brute-force reference answers over plain object arrays.

The oracle never touches an index: it holds the live objects as
``(oids, lows, highs)`` arrays and answers by testing every object, so a
wrong answer from any layer of the program shows as a mismatch here.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: rows of the outer side tested per broadcast block in :func:`join_pair_count`
_JOIN_BLOCK = 256


class Oracle:
    """Brute-force range / kNN answers over one set of live objects."""

    def __init__(self, objects: Iterable) -> None:
        objects = list(objects)
        self.oids = np.array([o.oid for o in objects], dtype=np.int64)
        self.lows = np.array([o.rect.low for o in objects], dtype=np.float64)
        self.highs = np.array([o.rect.high for o in objects], dtype=np.float64)

    def range_oids(self, rect) -> List[int]:
        """Sorted oids of every object intersecting ``rect`` (closed boxes)."""
        mask = np.all(
            (self.lows <= np.asarray(rect.high)) & (np.asarray(rect.low) <= self.highs),
            axis=1,
        )
        return sorted(self.oids[mask].tolist())

    def knn_dists(self, point: Sequence[float], k: int) -> np.ndarray:
        """The ``k`` smallest squared MinDist values from ``point``, ascending."""
        p = np.asarray(point, dtype=np.float64)
        gap = np.maximum(self.lows - p, 0.0) + np.maximum(p - self.highs, 0.0)
        dists = np.einsum("ij,ij->i", gap, gap)
        k = min(k, len(dists))
        return np.sort(np.partition(dists, k - 1)[:k])

    # ------------------------------------------------------------------
    # checks: each returns the number of mismatching answers
    # ------------------------------------------------------------------

    def check_range(self, rects: Sequence, results: Sequence[Sequence]) -> int:
        failed = 0
        for rect, hits in zip(rects, results):
            if sorted(obj.oid for obj in hits) != self.range_oids(rect):
                failed += 1
        return failed + abs(len(rects) - len(results))

    def check_knn(
        self, points: Sequence, k: int, results: Sequence[Sequence[Tuple[float, object]]]
    ) -> int:
        """Distances must match; ties may legitimately pick different objects."""
        failed = 0
        for point, hits in zip(points, results):
            got = np.array([dist for dist, _ in hits], dtype=np.float64)
            want = self.knn_dists(point, k)
            if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                failed += 1
        return failed + abs(len(points) - len(results))


def join_pair_count(left: Oracle, right: Oracle) -> int:
    """Number of intersecting ``(left, right)`` object pairs, by blocks."""
    total = 0
    dims = left.lows.shape[1]
    for start in range(0, len(left.lows), _JOIN_BLOCK):
        lows = left.lows[start : start + _JOIN_BLOCK]
        highs = left.highs[start : start + _JOIN_BLOCK]
        mask = np.ones((len(lows), len(right.lows)), dtype=bool)
        for d in range(dims):
            mask &= lows[:, d, None] <= right.highs[None, :, d]
            mask &= right.lows[None, :, d] <= highs[:, d, None]
        total += int(mask.sum())
    return total
