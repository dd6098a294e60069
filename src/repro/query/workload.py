"""Range-query workload generator (paper §V-B).

Queries originate from the *dithered centres of data objects* — object
centres are chosen uniformly at random, so dense regions are queried most
— and their extent is calibrated so that a query returns approximately a
target number of objects.  The three standard profiles, ``QR0``/``QR1``/
``QR2``, target roughly 1, 10 and 100 result objects respectively.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect, mbb_of_rects


@dataclass(frozen=True)
class QueryProfile:
    """A named selectivity profile."""

    name: str
    target_results: int


#: The paper's three query profiles.
STANDARD_PROFILES = (
    QueryProfile("QR0", 1),
    QueryProfile("QR1", 10),
    QueryProfile("QR2", 100),
)


def _centred(objects: List[SpatialObject]) -> List[SpatialObject]:
    """The objects whose centre is finite, the only ones a query can centre on.

    An object reaching to infinity in a dimension has an infinite (or, when
    it spans the whole axis, NaN) centre there, which would make every
    query drawn on it, and every side calibrated over it, infinite.  Such
    objects still count as results.  Raises ``ValueError`` when no object
    has a finite centre.
    """
    centred = [obj for obj in objects if all(map(math.isfinite, obj.rect.center))]
    if not centred:
        raise ValueError("a workload needs an object with a finite centre")
    return centred


class RangeQueryWorkload:
    """Generates square range queries with a calibrated selectivity.

    The query side length is calibrated once (against the supplied objects,
    via vectorised counting over a sample of candidate centres) so that the
    expected number of results matches ``target_results``; individual
    queries then vary only through the choice of the (dithered) centre.
    Centres, and the extent the sides are fractions of (``space``, their
    MBB), come from the objects with a finite centre; results are counted
    over all of them.
    """

    def __init__(
        self,
        objects: Sequence[SpatialObject],
        side_lengths: Sequence[float],
        dither: float,
        seed: int = 0,
    ):
        if not objects:
            raise ValueError("a workload needs a non-empty object collection")
        self._objects = list(objects)
        self.dims = self._objects[0].dims
        if len(side_lengths) != self.dims:
            raise ValueError("side_lengths must have one value per dimension")
        self.side_lengths = tuple(float(s) for s in side_lengths)
        self.dither = float(dither)
        self.seed = seed
        self._centred = _centred(self._objects)
        self.space = mbb_of_rects([obj.rect for obj in self._centred])

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------

    @classmethod
    def from_objects(
        cls,
        objects: Sequence[SpatialObject],
        target_results: int,
        seed: int = 0,
        calibration_samples: int = 48,
        calibration_iterations: int = 14,
    ) -> "RangeQueryWorkload":
        """Calibrate a workload so queries return ~``target_results`` objects."""
        if target_results < 1:
            raise ValueError("target_results must be at least 1")
        objects = list(objects)
        if not objects:
            raise ValueError("a workload needs a non-empty object collection")
        # Sides are calibrated below; the placeholders only pass validation.
        workload = cls(objects, [1.0] * objects[0].dims, 0.0, seed=seed)
        extents = [max(workload.space.side(i), 1e-12) for i in range(workload.dims)]

        lows = np.array([obj.rect.low for obj in objects])
        highs = np.array([obj.rect.high for obj in objects])
        rng = random.Random(seed)
        sample_centers = np.array(
            [rng.choice(workload._centred).rect.center for _ in range(calibration_samples)]
        )

        def average_results(fraction: float) -> float:
            sides = np.array([fraction * e for e in extents])
            q_low = sample_centers - sides / 2.0
            q_high = sample_centers + sides / 2.0
            # intersects: obj.low <= q.high and q.low <= obj.high, per dim
            counts = []
            for i in range(sample_centers.shape[0]):
                mask = np.all((lows <= q_high[i]) & (q_low[i] <= highs), axis=1)
                counts.append(int(mask.sum()))
            return float(np.mean(counts))

        lo_frac, hi_frac = 1e-6, 1.0
        # Grow the upper bound until it returns enough results.
        while average_results(hi_frac) < target_results and hi_frac < 8.0:
            hi_frac *= 2.0
        for _ in range(calibration_iterations):
            mid = (lo_frac + hi_frac) / 2.0
            if average_results(mid) < target_results:
                lo_frac = mid
            else:
                hi_frac = mid
        fraction = (lo_frac + hi_frac) / 2.0
        workload.side_lengths = tuple(fraction * e for e in extents)
        workload.dither = 0.5 * min(workload.side_lengths)
        return workload

    # ------------------------------------------------------------------
    # query generation
    # ------------------------------------------------------------------

    def query_at(self, center: Sequence[float]) -> Rect:
        """The workload's query box centred at ``center``."""
        low = [c - s / 2.0 for c, s in zip(center, self.side_lengths)]
        high = [c + s / 2.0 for c, s in zip(center, self.side_lengths)]
        return Rect(low, high)

    def queries(self, count: int, seed: Optional[int] = None) -> Iterator[Rect]:
        """Yield ``count`` queries at dithered object centres."""
        rng = random.Random(self.seed if seed is None else seed)
        for _ in range(count):
            obj = rng.choice(self._centred)
            center = [
                c + rng.uniform(-self.dither, self.dither) for c in obj.rect.center
            ]
            yield self.query_at(center)

    def query_list(self, count: int, seed: Optional[int] = None) -> List[Rect]:
        """Materialised version of :meth:`queries`."""
        return list(self.queries(count, seed=seed))
