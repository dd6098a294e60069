"""I/O optimality: how many leaf accesses actually contribute results (Fig. 1c)."""

from __future__ import annotations

from typing import Iterable

from repro.geometry.rect import Rect
from repro.query.range_query import execute_workload


def io_optimality(index, queries: Iterable[Rect]) -> float:
    """Fraction of leaf accesses containing at least one result object.

    1.0 means every leaf read was useful ("optimal"); the complement is
    the fraction of reads that only touched dead space.  ``index`` is
    anything :func:`~repro.query.range_query.execute_workload` accepts;
    every backend reports the same value — they visit the same leaves.
    """
    return execute_workload(index, queries).io_optimality
