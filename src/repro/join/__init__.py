"""Spatial joins: Index Nested Loop Join and Synchronised Tree Traversal.

:func:`execute_join` runs either strategy and has no engine switch; the
indexed inputs it is handed pick the implementation:

* R-trees / :class:`~repro.rtree.clipped.ClippedRTree` wrappers on every
  indexed side — the scalar reference joins of :mod:`repro.join.inlj`
  and :mod:`repro.join.stt`, one Python node visit at a time;
* a frozen :class:`~repro.engine.columnar.ColumnarIndex` or a
  :class:`~repro.engine.delta.SnapshotManager` on either side —
  :func:`repro.engine.delta.overlay_join`, the level-synchronous batch
  joins of :mod:`repro.engine.join_exec` over the base snapshots, merged
  with a manager's pending deltas (a tree on the other side of an STT is
  frozen on the fly, a stale snapshot re-frozen).

Pairs, ``pair_count`` and both sides' ``IOStats`` are identical across
these paths (``tests/test_backend_conformance.py``).  A
:class:`~repro.engine.parallel.ParallelExecutor` answers range batches
only; handed in on either side it raises ``TypeError``.
"""

from __future__ import annotations

from repro.join.inlj import index_nested_loop_join
from repro.join.result import JoinResult
from repro.join.stt import synchronized_tree_traversal_join
from repro.query.range_query import BatchedBackend

JOIN_ALGORITHMS = ("inlj", "stt")


def check_join_algorithm(algorithm: str) -> None:
    """Raise ``ValueError`` unless ``algorithm`` is one of :data:`JOIN_ALGORITHMS`."""
    if algorithm not in JOIN_ALGORITHMS:
        raise ValueError(
            f"unknown join algorithm {algorithm!r}; known: {JOIN_ALGORITHMS}"
        )


def execute_join(
    left,
    right,
    algorithm: str = "stt",
    collect_pairs: bool = True,
) -> JoinResult:
    """Run one spatial join; the inputs pick the path (module docstring).

    ``algorithm``:

    * ``"inlj"`` — ``left`` is an iterable of outer
      :class:`~repro.geometry.objects.SpatialObject` probes (or a
      ``SnapshotManager``, whose live objects probe), ``right`` the
      indexed inner input;
    * ``"stt"`` — ``left`` and ``right`` are both indexed inputs.

    Pass snapshots rather than trees to amortise the freeze across many
    joins.  A stale snapshot on either side is re-frozen first;
    :func:`~repro.engine.delta.overlay_join` called directly joins it as
    it is.

    Raises ``TypeError`` for a
    :class:`~repro.engine.parallel.ParallelExecutor` on either side: its
    pool answers range batches only.
    """
    check_join_algorithm(algorithm)
    # Both sides are checked, INLJ's probes too: a SnapshotManager is the
    # one batched input that also probes (through ``overlay_join``).
    if not any(isinstance(side, BatchedBackend) for side in (left, right)):
        if algorithm == "inlj":
            return index_nested_loop_join(left, right, collect_pairs=collect_pairs)
        return synchronized_tree_traversal_join(left, right, collect_pairs=collect_pairs)

    # Imported lazily: repro.engine imports this package (and through it
    # repro.query); a module-level import would close the cycle.
    from repro.engine import ColumnarIndex, ParallelExecutor, overlay_join

    if any(isinstance(side, ParallelExecutor) for side in (left, right)):
        raise TypeError(
            "execute_join joins trees, ColumnarIndex snapshots and SnapshotManagers; "
            "a ParallelExecutor answers range batches only"
        )
    left, right = (
        side.refresh() if isinstance(side, ColumnarIndex) and side.is_stale else side
        for side in (left, right)
    )
    return overlay_join(left, right, algorithm=algorithm, collect_pairs=collect_pairs)


__all__ = [
    "JOIN_ALGORITHMS",
    "JoinResult",
    "check_join_algorithm",
    "execute_join",
    "index_nested_loop_join",
    "synchronized_tree_traversal_join",
]
