"""Spatial joins: Index Nested Loop Join and Synchronised Tree Traversal.

:func:`execute_join` runs either strategy and has no engine switch; the
indexed inputs it is handed pick the implementation:

* R-trees / :class:`~repro.rtree.clipped.ClippedRTree` wrappers on every
  indexed side — the scalar reference joins of :mod:`repro.join.inlj`
  and :mod:`repro.join.stt`, one Python node visit at a time;
* a frozen :class:`~repro.engine.columnar.ColumnarIndex` on any indexed
  side — the level-synchronous batch joins of
  :mod:`repro.engine.join_exec` (a tree on the other side of an STT is
  frozen on the fly);
* a :class:`~repro.engine.delta.SnapshotManager` on either side —
  :func:`repro.engine.delta.overlay_join`, the batch join of the base
  snapshots merged with the pending deltas;
* a :class:`~repro.engine.parallel.ParallelExecutor` as the INLJ inner
  or the STT left input — the batch join sharded across its pool.

Pairs, ``pair_count`` and both sides' ``IOStats`` are identical across
these paths (``tests/test_join_differential.py``,
``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

from repro.join.inlj import index_nested_loop_join
from repro.join.result import JoinResult
from repro.join.stt import synchronized_tree_traversal_join

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
    stale: str = "refresh",
) -> JoinResult:
    """Run one spatial join; the inputs pick the path (module docstring).

    ``algorithm``:

    * ``"inlj"`` — ``left`` is an iterable of outer
      :class:`~repro.geometry.objects.SpatialObject` probes, ``right``
      the indexed inner input;
    * ``"stt"`` — ``left`` and ``right`` are both indexed inputs.

    Pre-frozen snapshots are checked for staleness under the ``stale``
    policy (``"refresh"`` / ``"raise"`` / ``"serve"``, see
    :func:`repro.engine.columnar.resolve_stale`); pass snapshots rather
    than trees to amortise the freeze across many joins.

    A :class:`~repro.engine.parallel.ParallelExecutor` shards INLJ by
    outer-object partition and STT by pair-frontier partition.  Pair
    counts and both sides' ``IOStats`` still match the serial joins
    exactly; STT's collected pairs arrive in a different (deterministic)
    order.
    """
    check_join_algorithm(algorithm)
    indexed = (right,) if algorithm == "inlj" else (left, right)
    if getattr(left, "is_snapshot_manager", False) or getattr(
        right, "is_snapshot_manager", False
    ):
        from repro.engine.delta import overlay_join

        return overlay_join(left, right, algorithm=algorithm, collect_pairs=collect_pairs)
    if not any(hasattr(side, "range_query_batch") for side in indexed):
        if algorithm == "inlj":
            return index_nested_loop_join(left, right, collect_pairs=collect_pairs)
        return synchronized_tree_traversal_join(left, right, collect_pairs=collect_pairs)

    # Imported lazily: only the scalar path works without NumPy.
    from repro.engine import ColumnarIndex, ParallelExecutor, resolve_stale
    from repro.engine.join_exec import inlj_batch, stt_batch

    def snapshot_of(index) -> ColumnarIndex:
        if isinstance(index, ColumnarIndex):
            return resolve_stale(index, stale)
        if isinstance(index, ParallelExecutor):
            return index.snapshot
        return ColumnarIndex.from_tree(index)

    if isinstance(indexed[0], ParallelExecutor):
        pool = indexed[0]
        if algorithm == "inlj":
            return pool.inlj_batch(left, collect_pairs=collect_pairs)
        return pool.stt_batch(snapshot_of(right), collect_pairs=collect_pairs)
    if algorithm == "inlj":
        return inlj_batch(left, snapshot_of(right), collect_pairs=collect_pairs)
    return stt_batch(snapshot_of(left), snapshot_of(right), collect_pairs=collect_pairs)


__all__ = [
    "JOIN_ALGORITHMS",
    "JoinResult",
    "check_join_algorithm",
    "execute_join",
    "index_nested_loop_join",
    "synchronized_tree_traversal_join",
]
