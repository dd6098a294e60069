"""A reference kernel that measures how fast the host is right now.

The sandbox this benchmark runs in shares its two cores with neighbours: the
same process ran the same 1 000-query batch in 27 ms for some seconds and in
41 ms for the next ones, with nothing else running in the guest, and a run's
minimum moved with its median.  No estimator over one run's samples removes
that.  A fixed piece of work that is independent of the program under test
moves with it, though (ratio steady to 1–2 % while the raw times moved by
5–30 %), so every run times that work between its repetitions and reports
times in units of it::

    normalised seconds = seconds * NOMINAL_S / mean reference seconds nearby

"Nearby" is the repetition's own interval extended by its length on both
sides.  Each vCPU flips between fast and slow within fractions of a second,
independently of the other: a 30 ms batch is best corrected by the samples
right beside it, a 0.7 s repetition that spans many flips (and two threads)
by the mean over a few seconds around it, and this one rule gives both.

The kernel has a NumPy part shaped like the batch kernels (comparisons,
masks, gathers, a stable sort) and an interpreter part shaped like the
per-point and per-request code (heap pushes, tuples, dict updates).
``NOMINAL_S`` is what it took on the baseline host in its fast mode, so
normalised figures read like that host's seconds.  The raw seconds and each
repetition's factor are kept in the ``--out`` record, and the traced run
reports the run's factor as ``run.host_factor``.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List, Tuple

import numpy as np

#: seconds one :func:`reference_kernel` call takes on the baseline host (fast mode)
NOMINAL_S = 0.0115

_rng = np.random.default_rng(20180416)
_BOXES = _rng.random((120_000, 3))
_PROBE = np.array([0.55, 0.6, 0.65])
_KEYS = _rng.random(6_000).tolist()


def reference_kernel() -> float:
    """Run the fixed reference work once; return its seconds."""
    start = time.perf_counter()
    mask = np.logical_and(_BOXES <= _PROBE, _BOXES * 0.5 <= _PROBE).all(axis=-1)
    rows = np.nonzero(mask)[0]
    picked = _BOXES[rows]
    order = np.argsort(picked[:, 0], kind="stable")
    np.repeat(rows[order], 2).cumsum()
    heap: list = []
    seen: dict = {}
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i, (key, i)))
        seen[i & 255] = seen.get(i & 255, 0) + 1
        if i & 3 == 3:
            heapq.heappop(heap)
    return time.perf_counter() - start


class HostClock:
    """Timestamped reference samples of one run, and the factors they imply."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (started at, seconds)

    def sample(self, passes: int) -> None:
        """Time the reference ``passes`` times; nothing of the program may be running.

        The collector is off meanwhile: a full collection over the workload's
        objects in the middle of an 11 ms sample would measure the workload's
        heap, not the host.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(passes):
                started = time.perf_counter()
                self.samples.append((started, reference_kernel()))
        finally:
            if collecting:
                gc.enable()

    def factor(self, began: float, ended: float) -> float:
        """How much slower than nominal the host ran around ``[began, ended]``."""
        reach = ended - began
        near = [s for t, s in self.samples if began - reach <= t <= ended + reach]
        if not near:
            middle = (began + ended) / 2.0
            near = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(near) / NOMINAL_S
