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

:func:`knn_batch` runs the same way.  Best-first search reads exactly the
nodes no farther than the k-th result, so the batch needs that distance,
not a heap: a *bound* stage descends all points together along their few
nearest entries and takes the k-th object distance it reaches, and an
*exact* stage is the range frontier with a ball ``MinDist² <= bound`` per
point in place of the box, on dense ``(frontier, max_fanout)`` MinDist²
blocks (:func:`~repro.engine.kernels.padded_min_dist_sq`), reading each
point's nearest leaves first so that the rest are held to a bound taken
from real neighbours; one stable sort per level reproduces the scalar
heap's order among equal distances (:func:`gather_knn_hits`).

Both report :class:`~repro.storage.stats.IOStats` like the scalar
traversals in :mod:`repro.rtree.base` and :mod:`repro.query.knn`.  A range
batch visits the same nodes in a different order, so ``leaf_accesses``,
``contributing_leaf_accesses`` and ``internal_accesses`` match count for
count.  A kNN batch counts the nodes within the k-th distance, which is
the scalar access set except for nodes at exactly that distance, where the
heap's tie order decides (:func:`knn_batch` states the bracket).
``tests/test_backend_conformance.py`` and ``tests/test_knn_ties.py`` assert
both for every variant.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.kernels import (
    mask_cells,
    padded_clip_veto,
    padded_intersect_mask,
    padded_min_dist_sq,
    stack_bounds,
    stack_points,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.storage.stats import IOStats

#: ``access_hook(query_indices, node_ids)`` — one call per frontier round
#: with the queries and the original tree node ids they are visiting.
AccessHook = Callable[[np.ndarray, np.ndarray], None]


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
    live: Optional[np.ndarray] = None,
) -> List[List[SpatialObject]]:
    """All objects intersecting each query rectangle, per query.

    The vectorized equivalent of calling ``range_query(rect, stats=...)``
    once per rectangle: result *sets* and every ``IOStats`` counter are
    identical to the scalar path (results arrive in BFS rather than DFS
    order).  ``access_hook``, when given, is invoked once per frontier
    round with the visiting query indices and visited node ids — the
    cold-disk experiment uses it to charge a buffer pool.

    ``live``, when given, is a boolean column over the objects (the
    tombstones of :class:`~repro.engine.delta.DeltaOverlay`): hits on a
    ``False`` row are dropped before any object is materialised.  The
    traversal, and so ``IOStats``, are those of the unfiltered batch.
    """
    rects = list(rects)
    if not rects:
        return []
    q_lows, q_highs = stack_bounds(rects, index.dims)
    all_q, all_obj = gather_range_hits(
        index, q_lows, q_highs, stats=stats, access_hook=access_hook
    )
    if live is not None:
        keep = live[all_obj]
        all_q, all_obj = all_q[keep], all_obj[keep]
    return materialize_range_hits(index, len(rects), all_q, all_obj)


def materialize_range_hits(
    index: ColumnarIndex, n_queries: int, all_q: np.ndarray, all_obj: np.ndarray
) -> List[List[SpatialObject]]:
    """Group flat ``(query, object)`` hit arrays into per-query result lists.

    A stable sort by query keeps the discovery order within each query;
    one :meth:`~repro.engine.columnar.ColumnarIndex.take_objects` call
    resolves every hit, and each query's list is one slice of it, so
    Python runs once per query, never per hit.  Shared by
    :func:`range_query_batch` and the multi-process executor
    (:mod:`repro.engine.parallel`), whose merged shard hits materialise
    identically.
    """
    order = np.argsort(all_q, kind="stable")
    hits = index.take_objects(all_obj[order])
    bounds = np.searchsorted(all_q[order], np.arange(n_queries + 1)).tolist()
    return [hits[start:end] for start, end in zip(bounds, bounds[1:])]


#: Leaves per point the exact stage of :func:`gather_knn_hits` reads before the
#: others, to tighten the bound the others are held to.
_NEAR_LEAVES = 8


def knn_batch(
    index: ColumnarIndex,
    points: Sequence[Sequence[float]],
    k: int,
    stats: Optional[IOStats] = None,
    live: Optional[np.ndarray] = None,
) -> List[List[Tuple[float, SpatialObject]]]:
    """The ``k`` nearest objects per query point (squared distance, object).

    Result lists equal :func:`repro.query.knn.knn_query` run on the source
    tree point by point — distances bit for bit, objects in the scalar
    heap's order, ties included (see :func:`gather_knn_hits`).  Clip points
    are not consulted: MinDist to the MBB is already a valid lower bound,
    so clipping could only tighten — never change — the result set.

    ``IOStats`` count, per point, every node whose MinDist² is at most the
    k-th result's distance² ``d_k²`` (every node when the tree holds fewer
    than ``k`` objects).  That is exactly the scalar access set whenever
    no node lies at exactly ``d_k > 0`` — ``d_k = 0`` included, where the
    heap's first-in first-out tie order empties every distance-0 node
    before the first distance-0 object.  A node at exactly ``d_k > 0`` is
    read by the scalar heap only if it was pushed before the k-th result
    was, so there the scalar count lies between the strict count
    (``MinDist² < d_k²``) and the one reported here.

    ``live``, when given, is a boolean column over the objects (see
    :func:`range_query_batch`): the search asks for ``k`` plus the number
    of ``False`` rows — any point's ``k`` nearest live objects lie within
    that prefix — drops the dead ones and keeps each point's first ``k``.
    ``IOStats`` are those of the longer search.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    points = list(points)
    if not points:
        return []
    dead = 0 if live is None else len(live) - int(np.count_nonzero(live))
    counts, dists, objects = gather_knn_hits(
        index, stack_points(points, index.dims), k + dead, stats
    )
    if live is not None:
        keep = live[objects]
        point = np.repeat(np.arange(len(counts)), counts)[keep]
        dists, objects = dists[keep], objects[keep]
        found = np.bincount(point, minlength=len(counts))
        first_k = np.arange(len(point)) - (np.cumsum(found) - found)[point] < k
        counts, dists, objects = np.minimum(found, k), dists[first_k], objects[first_k]
    pairs = list(zip(dists.tolist(), index.take_objects(objects)))
    ends = np.cumsum(counts).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends, ends)]


def gather_knn_hits(
    index: ColumnarIndex,
    points: np.ndarray,
    k: int,
    stats: Optional[IOStats] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-first kNN for a batch of points, in two level-synchronous stages.

    Returns ``(counts, dists, objects)``: the number of results of each
    point (row of ``points``), then their squared distances and object
    indices as flat arrays in point order, which :func:`knn_batch` filters
    and materialises.

    Best-first search reads exactly the nodes no farther than the k-th
    result, so its access set needs no heap to compute, only that
    distance.  The *bound* stage finds an upper bound on it: all points
    descend together, each keeping the few nearest entries of its current
    nodes per level (as many as are sure to reach ``k`` objects), and the
    k-th smallest object distance in the leaves reached is the bound.
    The *exact* stage is the range frontier with a ball in place of the
    box: per level one dense ``(frontier, max_fanout)`` MinDist² block
    (:func:`~repro.engine.kernels.padded_min_dist_sq`) and one ``<=``
    against each row's bound; the leaf level's cells are the candidate
    objects, a superset of the answer.  The beam's bound is only as good
    as its leaves: where many nodes contain the point their MinDist ties
    at 0, the beam keeps whichever it meets first, and its bound alone
    lets through 12 to 90 times the candidates the answer needs
    (``par02``, by how the data set's clusters overlap).  So the leaf
    level runs in two rounds: each point's ``_NEAR_LEAVES`` nearest
    leaves — the first the heap would pop — then the rest, held to the
    k-th distance found in the first round.  Any bound at or above the
    k-th distance gives the same answer, and ``IOStats`` are counted from
    the frontier rows, not from the rounds.

    The scalar heap pops by ``(distance, push ordinal)``, and ordinals
    grow with the parent's pop time, then the position in the parent.  In
    a balanced tree that order is reproducible level by level: a node's
    pop rank within its level is its place in a stable sort by
    ``(point, MinDist²)`` of cells generated in ``(parent's rank,
    position)`` order — which is row-major order of the block, as long as
    each frontier is kept in that sorted order.  The same sort at the leaf
    level orders the candidate objects by ``(distance², leaf's rank,
    position)``; the first ``k`` per point are the scalar result list.
    Candidates the heap never popped sort behind the ones it did: within
    the one distance they can share with a result they were pushed later.
    """
    n_points = len(points)
    if not len(index.objects):
        # The scalar search reads the (empty) root leaf and stops.
        if stats is not None:
            stats.leaf_accesses += n_points
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(n_points, dtype=np.int64), np.empty(0, dtype=np.float64), empty
    lows, highs = index.node_major()
    fanout = lows.shape[2]
    points_t = np.ascontiguousarray(points.T)
    everyone = np.arange(n_points, dtype=np.int64)
    root = np.full(n_points, ColumnarIndex.ROOT_SLOT, dtype=np.int64)

    # --- bound stage: a beam of the nearest entries, down to the leaves --
    # As many entries as are sure to hold k objects, and one to spare: the
    # leaf nearest by MinDist alone seldom holds all k nearest objects.
    width = -(-k // int(index.entry_count[index.is_leaf].min())) + 1
    beam = root[:, None]
    while True:
        per_point = beam.shape[1]
        block = padded_min_dist_sq(
            lows, highs, beam.ravel(), points_t, np.repeat(everyone, per_point)
        ).reshape(n_points, per_point * fanout)
        if index.is_leaf[beam[0, 0]]:
            break
        # Every point keeps the same number of entries, so the beam stays a
        # matrix: the fewest real (non-NaN) cells any point has caps it.
        keep = min(width, int(index.entry_count[beam].sum(axis=1).min()))
        cells = np.argpartition(block, keep - 1, axis=1)[:, :keep]
        parent = np.take_along_axis(beam, cells // fanout, axis=1)
        beam = index.entry_child[index.entry_start[parent] + cells % fanout]
    if k <= block.shape[1]:
        bound = np.partition(block, k - 1, axis=1)[:, k - 1]
        bound[np.isnan(bound)] = np.inf  # fewer than k objects reached
    else:
        bound = np.full(n_points, np.inf)

    # --- exact stage: the frontier of nodes within each point's bound ----
    def within(frontier_p, frontier_n):
        """Cells no farther than their point's bound, sorted by (point, distance)."""
        block = padded_min_dist_sq(lows, highs, frontier_n, points_t, frontier_p)
        cells = np.flatnonzero(block <= bound.take(frontier_p)[:, None])
        rows = cells // fanout
        dist = block.ravel().take(cells)
        point = frontier_p.take(rows)
        # Stable, and the cells arrive in (parent's rank, position) order.
        order = np.lexsort((dist, point))
        child = index.entry_child[index.entry_start[frontier_n.take(rows)] + cells % fanout]
        return point.take(order), dist.take(order), child.take(order)

    def kth_distance(point, dist):
        """``(rows per point, first row per point, k-th distance or inf)``."""
        found = np.bincount(point, minlength=n_points)
        starts = np.cumsum(found) - found
        kth = np.full(n_points, np.inf)
        full = found >= k
        kth[full] = dist[starts[full] + (k - 1)]
        return found, starts, kth

    # (point, MinDist²) of every frontier row, level by level; the heap
    # pushes the root at distance 0.
    frontier_p, frontier_d, frontier_n = everyone, np.zeros(n_points), root
    visited = [(frontier_p, frontier_d)]
    while not index.is_leaf[frontier_n[0]]:
        frontier_p, frontier_d, frontier_n = within(frontier_p, frontier_n)
        visited.append((frontier_p, frontier_d))

    # --- the leaves: each point's nearest few first, to tighten its bound --
    _, starts, _ = kth_distance(frontier_p, frontier_d)
    near = np.arange(len(frontier_p)) - starts.take(frontier_p) < _NEAR_LEAVES
    point, dist, child = within(frontier_p[near], frontier_n[near])
    np.minimum(bound, kth_distance(point, dist)[2], out=bound)
    rest = ~near
    rest[rest] = frontier_d[rest] <= bound.take(frontier_p[rest])
    if rest.any():
        # Behind the near leaves' cells, so one more stable sort keeps
        # (leaf's rank, position) order among equal distances.
        more = within(frontier_p[rest], frontier_n[rest])
        point, dist, child = (np.concatenate(pair) for pair in zip((point, dist, child), more))
        order = np.lexsort((dist, point))
        point, dist, child = point.take(order), dist.take(order), child.take(order)

    # --- the first k candidates of each point -----------------------------
    found, starts, kth = kth_distance(point, dist)
    counts = np.minimum(found, k)
    keep = np.arange(len(point)) - starts.take(point) < k
    if stats is not None:
        # d_k² per point; with fewer than k objects the heap drains the tree.
        accessed = [int(np.count_nonzero(d <= kth.take(p))) for p, d in visited]
        stats.leaf_accesses += accessed[-1]
        stats.internal_accesses += sum(accessed[:-1])
    return counts, dist[keep], child[keep]
