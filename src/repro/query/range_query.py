"""Range-query workloads with I/O accounting: the backend picks the path.

:func:`execute_workload` has no engine switch.  What runs is decided by
the index object it is handed:

* an R-tree or a :class:`~repro.rtree.clipped.ClippedRTree` — one scalar
  Python traversal per query, the reference every batch path is pinned
  against;
* a frozen :class:`~repro.engine.columnar.ColumnarIndex` — the whole
  batch through the vectorised frontier kernels;
* a :class:`~repro.engine.delta.SnapshotManager` — the batch kernels on
  its base snapshot merged with the pending delta overlay;
* a :class:`~repro.engine.parallel.ParallelExecutor` — the batch sharded
  across the executor's worker pool, the one kind of task the pool runs.

All four report identical result counts and, on the same frozen state,
identical :class:`~repro.storage.stats.IOStats`
(``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Protocol, Sequence

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.storage.stats import IOStats


class SupportsRangeQuery(Protocol):
    """Anything with a ``range_query(rect, stats=...)`` method."""

    def range_query(self, rect: Rect, stats: IOStats = ...) -> List[SpatialObject]:
        ...  # pragma: no cover - protocol


@dataclass
class WorkloadResult:
    """Aggregate result of running a batch of range queries.

    Every backend produces identical instances on identical workloads:
    all visit the same node set per query, so ``stats.leaf_accesses`` and
    ``stats.contributing_leaf_accesses`` — and therefore
    :attr:`io_optimality` — agree exactly (pinned by
    ``tests/test_engine_differential.py``).
    """

    queries: int
    total_results: int
    stats: IOStats

    @property
    def avg_results(self) -> float:
        """Average number of result objects per query."""
        return self.total_results / self.queries if self.queries else 0.0

    @property
    def avg_leaf_accesses(self) -> float:
        """Average leaf accesses per query — the paper's I/O metric."""
        return self.stats.leaf_accesses / self.queries if self.queries else 0.0

    @property
    def io_optimality(self) -> float:
        """Fraction of leaf accesses that contributed at least one result."""
        if self.stats.leaf_accesses == 0:
            return 1.0
        return self.stats.contributing_leaf_accesses / self.stats.leaf_accesses


def execute_workload(index: SupportsRangeQuery, queries: Iterable[Rect]) -> WorkloadResult:
    """Run every query against ``index`` and accumulate I/O statistics.

    The path follows from ``index`` (see the module docstring): a tree is
    traversed query by query, anything exposing ``range_query_batch`` — a
    ``ColumnarIndex``, a ``SnapshotManager``, a ``ParallelExecutor`` —
    answers the batch in one call.  A ``ColumnarIndex`` whose source tree
    has mutated since the freeze is re-frozen first.
    """
    queries = list(queries)
    stats = IOStats()
    if not hasattr(index, "range_query_batch"):
        total_results = sum(len(index.range_query(q, stats=stats)) for q in queries)
        return WorkloadResult(len(queries), total_results, stats)

    # Imported lazily: only the scalar path works without NumPy.
    from repro.engine import ColumnarIndex

    if isinstance(index, ColumnarIndex) and index.is_stale:
        index = index.refresh()
    results = index.range_query_batch(queries, stats=stats)
    return WorkloadResult(len(queries), sum(map(len, results)), stats)


def brute_force_range(objects: Sequence[SpatialObject], rect: Rect) -> List[SpatialObject]:
    """Reference implementation used by tests: linear scan."""
    return [obj for obj in objects if obj.rect.intersects(rect)]
