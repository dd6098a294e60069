"""Batch query execution over a :class:`~repro.engine.columnar.ColumnarIndex`.

:func:`range_query_batch` runs *all* queries simultaneously with a
level-synchronous frontier: each iteration expands every pending
``(query, node)`` pair of one tree level.  The entry test reads the
snapshot's node-major padded layout
(:meth:`~repro.engine.columnar.ColumnarIndex.node_major`): per dimension
one row gather of the frontier's nodes and one dense ``<=`` against the
frontier's query bounds, and-ed in place into a single ``(frontier,
max_fanout)`` mask whose row-major cell order is the ``(frontier row,
entry)`` discovery order.  Matched directory entries then take the clip
pruning pass, the same shape one step later: the children's rows of the
node-major clip layout
(:meth:`~repro.engine.columnar.ColumnarIndex.node_major_clips`) against
their queries' bounds, one strict compare per dimension and mask side
(:func:`~repro.engine.kernels.padded_clip_veto`), over the candidates
only — a few thousand rows, not the whole mask — before they become the
next frontier.  The per-level Python overhead is a handful of NumPy calls
regardless of how many queries or nodes are in flight.

:func:`knn_batch` keeps the scalar best-first control flow (a heap per
query — best-first order is inherently sequential) but replaces the
per-entry MinDist loop with one kernel call per visited node.

Both report :class:`~repro.storage.stats.IOStats` identically to the
scalar traversals in :mod:`repro.rtree.base` and :mod:`repro.query.knn`:
the same nodes are visited (in a different order), so ``leaf_accesses``,
``contributing_leaf_accesses`` and ``internal_accesses`` match count for
count.  ``tests/test_engine_differential.py`` asserts this for every
variant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.kernels import (
    mask_cells,
    min_dist_sq,
    padded_clip_veto,
    padded_intersect_mask,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.storage.stats import IOStats

#: ``access_hook(query_indices, node_ids)`` — one call per frontier round
#: with the queries and the original tree node ids they are visiting.
AccessHook = Callable[[np.ndarray, np.ndarray], None]


def _query_arrays(index: ColumnarIndex, rects: Sequence[Rect]) -> Tuple[np.ndarray, np.ndarray]:
    lows = np.array([r.low for r in rects], dtype=np.float64)
    highs = np.array([r.high for r in rects], dtype=np.float64)
    if lows.shape[1] != index.dims:
        raise ValueError(
            f"queries have {lows.shape[1]} dims, snapshot expects {index.dims}"
        )
    return lows, highs


def gather_range_hits(
    index: ColumnarIndex,
    q_lows: np.ndarray,
    q_highs: np.ndarray,
    stats: Optional[IOStats] = None,
    access_hook: Optional[AccessHook] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the level-synchronous frontier for a batch of query rectangles.

    Returns ``(hit_queries, hit_objects)``: parallel arrays pairing each
    matched object index with the query (row of ``q_lows``/``q_highs``)
    that matched it, in frontier-discovery (BFS) order.  This is the
    shared core of :func:`range_query_batch` and the columnar INLJ
    (:func:`repro.engine.join_exec.inlj_batch`), which only differ in how
    they materialise the hits; ``IOStats`` accounting is identical to the
    scalar traversal either way.
    """
    lows, highs = index.node_major()
    clips = index.node_major_clips() if index.has_clips else None
    # One contiguous row per dimension: the frontier gathers query bounds a
    # dimension at a time.
    q_low_t = np.ascontiguousarray(q_lows.T)
    q_high_t = np.ascontiguousarray(q_highs.T)
    n_queries = len(q_lows)
    frontier_q = np.arange(n_queries, dtype=np.int64)
    frontier_n = np.full(n_queries, ColumnarIndex.ROOT_SLOT, dtype=np.int64)
    hit_queries_rounds: List[np.ndarray] = []
    hit_objects_rounds: List[np.ndarray] = []

    while len(frontier_n):
        if access_hook is not None:
            access_hook(frontier_q, index.node_ids[frontier_n])

        # --- every entry of every frontier node against its query -------
        match = padded_intersect_mask(
            lows, highs, frontier_n, q_low_t, q_high_t, frontier_q
        )
        # Row-major order is (frontier row, entry) order — discovery order.
        rows, cols = mask_cells(match)
        # Cell [row, j] is flat entry ``entry_start[node] + j``.
        matched_child = index.entry_child[index.entry_start[frontier_n[rows]] + cols]
        matched_q = frontier_q[rows]
        leaf_sel = index.is_leaf[frontier_n]
        at_leaf = leaf_sel[rows]

        # --- leaf visits: record hits -----------------------------------
        n_leaves = int(np.count_nonzero(leaf_sel))
        hit_rows = rows[at_leaf]
        if stats is not None:
            stats.leaf_accesses += n_leaves
            if len(hit_rows):
                # ``hit_rows`` ascends: contributing leaves = distinct rows.
                stats.contributing_leaf_accesses += 1 + int(
                    np.count_nonzero(hit_rows[1:] != hit_rows[:-1])
                )
        if len(hit_rows):
            hit_queries_rounds.append(matched_q[at_leaf])
            hit_objects_rounds.append(matched_child[at_leaf])

        # --- internal visits: filter children into the next frontier ----
        n_internal = len(frontier_n) - n_leaves
        if stats is not None:
            stats.internal_accesses += n_internal
        if not n_internal:
            break
        below = ~at_leaf
        frontier_n = matched_child[below]
        frontier_q = matched_q[below]
        if clips is not None:
            keep = ~padded_clip_veto(*clips, frontier_n, q_low_t, q_high_t, frontier_q)
            frontier_n = frontier_n[keep]
            frontier_q = frontier_q[keep]

    if hit_queries_rounds:
        return np.concatenate(hit_queries_rounds), np.concatenate(hit_objects_rounds)
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def range_query_batch(
    index: ColumnarIndex,
    rects: Sequence[Rect],
    stats: Optional[IOStats] = None,
    access_hook: Optional[AccessHook] = None,
) -> List[List[SpatialObject]]:
    """All objects intersecting each query rectangle, per query.

    The vectorized equivalent of calling ``range_query(rect, stats=...)``
    once per rectangle: result *sets* and every ``IOStats`` counter are
    identical to the scalar path (results arrive in BFS rather than DFS
    order).  ``access_hook``, when given, is invoked once per frontier
    round with the visiting query indices and visited node ids — the
    cold-disk experiment uses it to charge a buffer pool.
    """
    rects = list(rects)
    if not rects:
        return []
    q_lows, q_highs = _query_arrays(index, rects)
    all_q, all_obj = gather_range_hits(
        index, q_lows, q_highs, stats=stats, access_hook=access_hook
    )
    return materialize_range_hits(index, len(rects), all_q, all_obj)


def materialize_range_hits(
    index: ColumnarIndex, n_queries: int, all_q: np.ndarray, all_obj: np.ndarray
) -> List[List[SpatialObject]]:
    """Group flat ``(query, object)`` hit arrays into per-query result lists.

    One grouped pass: a stable sort by query keeps the discovery order
    within each query, and objects are resolved per contiguous slice
    rather than per hit.  Shared by :func:`range_query_batch` and the
    multi-process executor (:mod:`repro.engine.parallel`), whose merged
    shard hits materialise identically.
    """
    results: List[List[SpatialObject]] = [[] for _ in range(n_queries)]
    if len(all_q):
        order = np.argsort(all_q, kind="stable")
        sorted_q = all_q[order]
        sorted_obj = all_obj[order]
        boundaries = np.nonzero(np.diff(sorted_q))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_q)]))
        get = index.objects.__getitem__
        for q, start, end in zip(sorted_q[starts].tolist(), starts.tolist(), ends.tolist()):
            results[q] = [get(i) for i in sorted_obj[start:end].tolist()]
    return results


def knn_batch(
    index: ColumnarIndex,
    points: Sequence[Sequence[float]],
    k: int,
    stats: Optional[IOStats] = None,
) -> List[List[Tuple[float, SpatialObject]]]:
    """The ``k`` nearest objects per query point (squared distance, object).

    Result lists and ``IOStats`` counters match
    :func:`repro.query.knn.knn_query` run on the source tree; clip points
    are not consulted (MinDist to the MBB is already a valid lower bound,
    so clipping could only tighten — never change — the result set).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return [_knn_single(index, point, k, stats) for point in points]


def _knn_single(
    index: ColumnarIndex,
    point: Sequence[float],
    k: int,
    stats: Optional[IOStats],
) -> List[Tuple[float, SpatialObject]]:
    return [
        (dist, index.objects[obj_idx])
        for dist, obj_idx in knn_single_indices(index, point, k, stats)
    ]


def knn_single_indices(
    index: ColumnarIndex,
    point: Sequence[float],
    k: int,
    stats: Optional[IOStats],
) -> List[Tuple[float, int]]:
    """Best-first kNN returning ``(squared distance, object index)`` pairs.

    The index-level core of :func:`knn_batch`; the multi-process executor
    runs this in workers and materialises objects in the coordinator.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (index.dims,):
        raise ValueError(f"point has shape {point.shape}, snapshot expects ({index.dims},)")
    counter = itertools.count()
    heap: List[Tuple[float, int, int, bool]] = [
        (0.0, next(counter), ColumnarIndex.ROOT_SLOT, True)
    ]
    results: List[Tuple[float, int]] = []

    while heap and len(results) < k:
        dist, _, item, is_node = heapq.heappop(heap)
        if not is_node:
            results.append((dist, item))
            continue
        slot = item
        leaf = bool(index.is_leaf[slot])
        if stats is not None:
            if leaf:
                stats.record_leaf()
            else:
                stats.record_internal()
        start = int(index.entry_start[slot])
        count = int(index.entry_count[slot])
        if not count:
            continue
        dists = min_dist_sq(
            index.entry_lows[start : start + count],
            index.entry_highs[start : start + count],
            point,
        )
        children = index.entry_child[start : start + count]
        for d, child in zip(dists.tolist(), children.tolist()):
            heapq.heappush(heap, (d, next(counter), child, not leaf))
    return results
