"""Level-synchronous, batched clip-point construction (Algorithm 1 for
whole tree levels at once).

:func:`bulk_clip` computes clip points for *every* node of a tree with a
handful of NumPy calls per (level, fan-out) group instead of one Python
loop nest per node per corner.  The result is a
:class:`~repro.cbb.store.ClipStore` whose entries are *identical* to
running the scalar :func:`~repro.cbb.clipping.compute_clip_points` over
each node — same coordinate values, same scores, same per-node ordering,
same byte accounting (``tests/test_build_differential.py`` pins this
across tree variants, datasets, dimensionalities and both clipping
methods).

One pass over one problem axis.  Nodes of one level are grouped by
fan-out so their children form dense ``(nodes, fanout, dims)`` arrays.
Every corner is oriented once (:func:`~repro.engine.clip_kernels.orient`
negates the max-extent dimensions), which turns "node x corner mask" into
the batch axis of a single min-corner problem; nothing below loops over
corners.  Per group:

======================================  ======================================
stage                                   scalar counterpart
======================================  ======================================
``skyline_masks``: all ``2**d``         ``oriented_skyline``, once per corner
corners of a node from ``2 * d``
packed compare tables
:func:`_stair_points`: problems         ``stairline_points``: splice, ``seen``
regrouped by skyline size, pair         set, validity probe
validity on a packed table,
coordinates and dedup for the
surviving pairs only
flat scoring over (problem, candidate)  ``score_clip_candidates`` and the
rows, threshold, one stable sort per    ``tau`` / top-``k`` selection of
node                                    ``compute_clip_points``
======================================  ======================================

The surviving clip points are un-oriented at the very end.  The problem
axis is walked in runs of nodes whose candidate count fits
``_CHUNK_BUDGET`` (:func:`_candidate_slices`), and the skyline tables in
their own chunks, so working memory does not grow with the tree
(``TestClipChunksBoundMemory``).

Exactness notes (why the store matches the scalar path bit for bit; the
kernel-level ones are in :mod:`repro.engine.clip_kernels`):

* all dominance / validity / dedup decisions are exact float64
  comparisons on the same coordinate values the scalar path reads —
  orientation negates both sides of a comparison, which is exact;
* volumes and overlaps multiply dimension by dimension in dimension
  order (:func:`~repro.engine.clip_kernels.sequential_prod`), matching
  the scalar accumulation, and ``abs(corner - point)`` is the same float
  with both operands negated;
* the scalar path sorts each corner's candidates by descending score
  (stable), filters by threshold, concatenates corners in mask order,
  stable-sorts again, and truncates to ``k`` — which orders clips by
  ``(-score, mask, position in the candidate list)``; the flat rows are
  in ``(node, mask, position)`` order already, so one stable sort on
  ``(node, -score)`` reproduces exactly that.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cbb.clip_point import ClipPoint
from repro.cbb.clipping import ClippingConfig
from repro.cbb.store import ClipStore
from repro.engine.clip_kernels import (
    corner_distances,
    first_occurrence_mask,
    orient,
    overlap_volumes,
    pair_index,
    segment_first_argmax,
    sequential_prod,
    skyline_masks,
    splice,
    valid_splices,
)
from repro.engine.kernels import masks_to_bool
from repro.rtree.base import RTreeBase
from repro.rtree.node import Node

#: Ceiling on the element count of any broadcast intermediate, in units of
#: about two bytes; groups are walked in chunks of nodes that stay below it.
_CHUNK_BUDGET = 4_000_000


def bulk_clip(
    tree: RTreeBase,
    config: ClippingConfig = ClippingConfig(),
    store: Optional[ClipStore] = None,
) -> ClipStore:
    """Compute clip points for every node of ``tree``, level-synchronously.

    Returns a :class:`ClipStore` holding, for each node that earned at
    least one clip point, the same score-ordered :class:`ClipPoint` list
    the scalar ``compute_clip_points`` would produce.  When ``store`` is
    given it is cleared and refilled in place (the wrapper's own store,
    for :meth:`repro.rtree.clipped.ClippedRTree.clip_all`).
    """
    if store is None:
        store = ClipStore()
    else:
        store.clear()
    results = clip_nodes_batch(list(tree.nodes()), tree.dims, config)
    # Fill the store in tree.nodes() order — the scalar clip_all insertion
    # order — so store iteration (and thus persisted bytes) is identical.
    for node in tree.nodes():
        clips = results.get(node.node_id)
        if clips:
            store.put(node.node_id, clips)
    return store


def clip_nodes_batch(
    nodes: List[Node], dims: int, config: ClippingConfig = ClippingConfig()
) -> Dict[int, List[ClipPoint]]:
    """Clip points for an arbitrary set of nodes, batched by (level, fan-out).

    The shared core of :func:`bulk_clip` (every node of a tree) and the
    incremental dirty-node re-clipper
    (:func:`repro.engine.incremental_clip.reclip_live_nodes`, a handful of
    nodes after a compaction).  Returns ``{node_id: [ClipPoint, ...]}``
    containing only nodes that earned at least one clip point; each list
    is value-for-value what the scalar ``compute_clip_points`` produces
    for that node.
    """
    k = config.max_clip_points(dims)
    results: Dict[int, List[ClipPoint]] = {}
    if k == 0:
        return results
    groups: Dict[Tuple[int, int], List[Node]] = defaultdict(list)
    for node in nodes:
        if node.entries:
            groups[(node.level, len(node.entries))].append(node)
    for (_, count), group_nodes in sorted(groups.items()):
        _clip_group(group_nodes, count, dims, k, config, results)
    return results


def _clip_group(
    nodes: List[Node],
    count: int,
    dims: int,
    k: int,
    config: ClippingConfig,
    results: Dict[int, List[ClipPoint]],
) -> None:
    """Clip one (level, fan-out) group of nodes in a few array passes."""
    lows = np.empty((len(nodes), count, dims), dtype=np.float64)
    highs = np.empty((len(nodes), count, dims), dtype=np.float64)
    for gi, node in enumerate(nodes):
        lows[gi] = [entry.rect.low for entry in node.entries]
        highs[gi] = [entry.rect.high for entry in node.entries]

    volume = sequential_prod(highs.max(axis=1) - lows.min(axis=1))

    # Zero-volume nodes cannot be clipped meaningfully (scalar: empty list).
    active = volume > 0.0
    if not active.any():
        return
    if not active.all():
        nodes = [node for node, keep in zip(nodes, active) if keep]
        lows, highs, volume = lows[active], highs[active], volume[active]
    threshold = config.tau * volume
    stairline = config.method == "stairline"

    sky_mask = _chunked_skyline(lows, highs)
    for part in _candidate_slices(sky_mask.sum(axis=2), dims, stairline):
        clips = _clip_slice(lows[part], highs[part], sky_mask[part], threshold[part], stairline, k)
        for node, points in zip(nodes[part], clips):
            if points:
                results[node.node_id] = points


def _chunked_skyline(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Skyline masks ``(g, 2**d, c)``, chunked to bound the (g,2**d,c,c) blow-up."""
    _, count, dims = lows.shape
    step = max(1, _CHUNK_BUDGET // ((count * count * dims) << dims))
    parts = [
        skyline_masks(lows[start : start + step], highs[start : start + step])
        for start in range(0, len(lows), step)
    ]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _candidate_slices(sky_counts: np.ndarray, dims: int, stairline: bool) -> Iterator[slice]:
    """Cut a group's nodes into runs whose candidates fit the chunk budget.

    ``sky_counts`` is ``(g, 2**d)``.  A corner with ``s`` skyline points
    has at most ``s * (s + 1) / 2`` candidates (the skyline and, for
    stairline clipping, every pair).  In the budget's units of about two
    bytes, a candidate costs ``d`` float64 coordinates in up to six live
    arrays plus, in the validity test, a byte per skyline point in up to
    four.  Every run holds at least one node.
    """
    candidates = sky_counts * (sky_counts + 1) // 2 if stairline else sky_counts
    spent = np.cumsum((candidates * (24 * dims + 2 * sky_counts)).sum(axis=1))
    start = 0
    while start < len(spent):
        allowance = _CHUNK_BUDGET + (spent[start - 1] if start else 0)
        stop = max(start + 1, int(np.searchsorted(spent, allowance, side="right")))
        yield slice(start, stop)
        start = stop


def _clip_slice(
    lows: np.ndarray,
    highs: np.ndarray,
    sky_mask: np.ndarray,
    threshold: np.ndarray,
    stairline: bool,
    k: int,
) -> List[List[ClipPoint]]:
    """Clip points of a run of nodes, given their children's skylines.

    ``lows`` / ``highs`` are the ``(g, c, d)`` child rectangles,
    ``sky_mask`` the ``(g, 2**d, c)`` output of
    :func:`~repro.engine.clip_kernels.skyline_masks` for them and
    ``threshold`` the score a node's clip points must exceed.
    """
    g, count, dims = lows.shape
    # One min-corner problem per (node, corner), node-major: problem p is
    # corner p % 2**d of node p // 2**d, and from here on "low" means
    # "towards the corner" in every dimension.
    corners = 1 << dims
    problem_node = np.repeat(np.arange(g), corners)
    is_high = np.tile(masks_to_bool(np.arange(corners), dims), (g, 1))
    corner = orient(lows.min(axis=1)[problem_node], highs.max(axis=1)[problem_node], is_high)

    sky_mask = sky_mask.reshape(-1, count)
    sky_owner, child = np.nonzero(sky_mask)
    sky_node = problem_node[sky_owner]
    sky_pts = orient(lows[sky_node, child], highs[sky_node, child], is_high[sky_owner])
    sky_counts = sky_mask.sum(axis=1)
    if stairline:
        stair_pts, stair_owner = _stair_points(sky_pts, sky_counts)
    else:
        stair_pts = np.empty((0, dims), dtype=np.float64)
        stair_owner = np.empty(0, dtype=np.int64)

    # Per-problem candidate lists, flat: the skyline (in child order),
    # then the stairline points (in pair order).
    counts = sky_counts + np.bincount(stair_owner, minlength=len(corner))
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(corner)), counts)
    position = np.arange(len(owner)) - starts[owner]
    pts = np.empty((len(owner), dims), dtype=np.float64)
    pts[position < sky_counts[owner]] = sky_pts
    pts[starts[stair_owner] + sky_counts[stair_owner] + _ranks_within(stair_owner)] = stair_pts

    dist = corner_distances(pts, corner[owner])
    scores = sequential_prod(dist)
    best = segment_first_argmax(scores, starts, counts)
    best_scores = scores[best]
    scores -= overlap_volumes(dist, dist[best[owner]])
    scores[best] = best_scores

    passing = np.flatnonzero(scores > threshold[problem_node[owner]])
    node = problem_node[owner[passing]]
    # Final per-node order: descending score, ties by (mask, position) —
    # the order the rows are in already, which the stable sort keeps —
    # exactly the scalar stable sort over mask-major sorted candidates.
    order = np.lexsort((-scores[passing], node))
    order = order[_ranks_within(node[order]) < k]
    passing = passing[order]
    owner = owner[passing]
    pts = pts[passing]
    coords = orient(pts, pts, is_high[owner])  # negation undoes itself

    clips: List[List[ClipPoint]] = [[] for _ in range(g)]
    for ni, coord, mask, score in zip(
        node[order].tolist(),
        coords.tolist(),
        (owner & (corners - 1)).tolist(),
        scores[passing].tolist(),
    ):
        clips[ni].append(ClipPoint(tuple(coord), mask, score))
    return clips


def _stair_points(sky_pts: np.ndarray, sky_counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Valid, deduplicated stairline points of every problem.

    ``sky_pts`` holds the problems' oriented skylines back to back,
    ``sky_counts`` their sizes.  Problems are regrouped by skyline size so
    each subgroup forms a dense ``(problems, s, d)`` array; the points
    come back flat with their problem, each problem's in pair order and
    together.
    """
    dims = sky_pts.shape[1]
    sky_starts = np.cumsum(sky_counts) - sky_counts
    pts_parts: List[np.ndarray] = []
    owner_parts: List[np.ndarray] = []
    for s in np.unique(sky_counts).tolist():
        if s < 2:
            continue
        problems = np.flatnonzero(sky_counts == s)
        i_idx, j_idx = pair_index(s)
        skylines = sky_pts[sky_starts[problems][:, None] + np.arange(s)]
        local, pair = np.nonzero(valid_splices(skylines))
        pts_parts.append(splice(skylines[local, i_idx[pair]], skylines[local, j_idx[pair]]))
        owner_parts.append(problems[local])
    if not pts_parts:
        return np.empty((0, dims), dtype=np.float64), np.empty(0, dtype=np.int64)
    pts = np.concatenate(pts_parts)
    owner = np.concatenate(owner_parts)
    first = first_occurrence_mask(pts, owner)
    return pts[first], owner[first]


def _ranks_within(owners: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal consecutive owners."""
    n = len(owners)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    new_run = np.r_[True, owners[1:] != owners[:-1]]
    run_starts = np.nonzero(new_run)[0]
    run_id = np.cumsum(new_run) - 1
    return np.arange(n, dtype=np.int64) - run_starts[run_id]
