"""Batched clip-point construction (Algorithm 1 for many nodes at once).

:func:`clip_nodes_batch` computes clip points for a batch of nodes given
as arrays: the nodes' entry rows back to back, ``(lows, highs)``, and
each node's entry count.  Its two callers build that input differently.
:meth:`ClippedRTree.clip_all <repro.rtree.clipped.ClippedRTree.clip_all>`
hands over the entry arrays of the freeze the tree keeps
(:meth:`RTreeBase.freeze <repro.rtree.base.RTreeBase.freeze>`), every
node of the tree at once: a tree from
:func:`~repro.rtree.str_bulk.str_bulk_load` kept the layout of its STR
tiling, any other tree is walked once and keeps that walk, and either
way the freeze stays current until the tree's ``version`` moves (an
insert, a delete, a new structure).  The compaction's re-clip
(:meth:`~repro.rtree.clipped.ClippedRTree.reclip_nodes`) stacks the
entries of its dirty nodes into the same form.  The kernel does a
handful of NumPy calls per batch instead of one Python loop nest per
node per corner.  Each node's clip points are *identical* to what the
scalar :func:`~repro.cbb.clipping.compute_clip_points` (Algorithm 1)
returns for it — same coordinate values, same scores, same ordering
(``tests/test_build_differential.py`` pins this against the per-node
oracle across tree variants, datasets, dimensionalities and both
clipping methods).

One pass over one problem axis.  The batch forms one group: its nodes'
children fill a ``(nodes, widest fan-out, dims)`` array, padded with NaN
past each node's own fan-out (the layout of
:meth:`ColumnarIndex.node_major <repro.engine.columnar.ColumnarIndex.node_major>`),
so nodes of every level and fan-out share one pass.  Every corner is
oriented once (:func:`~repro.engine.clip_kernels.orient` negates the
max-extent dimensions), which turns "node x corner mask" into the batch
axis of a single min-corner problem; nothing below loops over corners.
Per group:

======================================  ======================================
stage                                   scalar counterpart
======================================  ======================================
``skyline_masks``: all ``2**d``         ``oriented_skyline``, once per corner
corners of a node from ``2 * d``
per-face bitsets, ``d`` ANDs a corner
:func:`_stair_points`: problems         ``stairline_points``: splice and
regrouped by skyline size, pair         validity probe
validity on a packed table,
coordinates for the valid pairs only
flat scoring over (problem, candidate)  ``score_clip_candidates`` and the
rows, threshold, dedup of the rows      ``tau`` / top-``k`` selection of
that pass, one stable sort per node     ``compute_clip_points``; the
                                        ``seen`` set of ``stairline_points``
======================================  ======================================

The surviving clip points are un-oriented at the very end and leave as
``ClipPoint`` objects built straight from ``tolist()`` values, which are
Python floats and ints already (``cbb.clip_point._unchecked_clip_point``;
the public constructor would convert each value again).  The problem
axis is walked in runs of nodes whose candidate count fits
``_CHUNK_BUDGET`` (:func:`_candidate_slices`), and the skyline tables in
their own, cache-sized chunks (:func:`_chunked_skyline`), so working
memory does not grow with the tree (``TestClipChunksBoundMemory``).

Exactness notes (why the store matches the scalar path bit for bit; the
kernel-level ones are in :mod:`repro.engine.clip_kernels`):

* padding never reaches a result: a node's MBB is the NaN-skipping
  ``fmin`` / ``fmax`` of its rows, the skyline masks are ANDed with the
  per-node validity mask (a NaN row would otherwise count as an
  undominated skyline point in the pairwise filter), and everything
  after the skyline reads skyline points only;
* a node of zero, infinite or NaN (``inf * 0``) volume is dropped before
  any kernel runs: the scalar path returns no clip points for it either,
  since no score exceeds ``tau`` times an infinite volume;
* all dominance / validity / dedup decisions are exact float64
  comparisons on the same coordinate values the scalar path reads —
  orientation negates both sides of a comparison, which is exact;
* the dedup runs on the rows that pass the threshold, not on every
  valid splice, and drops exactly the rows the scalar ``seen`` set drops
  (the "Dedup after the τ filter" note of
  :mod:`~repro.engine.clip_kernels`);
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

from typing import Iterator, List, Tuple

import numpy as np

from repro.cbb.clip_point import ClipPoint, _unchecked_clip_point
from repro.cbb.clipping import ClippingConfig
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

#: Ceiling on the element count of any broadcast intermediate, in units of
#: about two bytes; groups are walked in chunks of nodes that stay below it.
_CHUNK_BUDGET = 4_000_000

#: The skyline kernel re-reads its bitset tables once per dimension, and
#: runs fastest on chunks that stay in a core's cache: on build_load's
#: leaf level (20 000 axo03 objects, M = 48), chunks of 32 nodes took
#: 14 ms where chunks of 192 took 19.
_SKYLINE_CHUNK_BYTES = 1 << 20


def clip_nodes_batch(
    lows: np.ndarray,
    highs: np.ndarray,
    counts: np.ndarray,
    config: ClippingConfig = ClippingConfig(),
) -> List[List[ClipPoint]]:
    """Clip points of a batch of nodes, given their entry rows.

    Node ``i`` holds the next ``counts[i]`` rows of the ``(n, d)`` arrays
    ``lows`` / ``highs``, in entry order, as in a snapshot's entry arrays.
    Returns one list per node, empty where a node earned no clip point;
    each list is value for value what the scalar ``compute_clip_points``
    produces for that node, whatever other nodes share the call.
    """
    results: List[List[ClipPoint]] = [[] for _ in range(len(counts))]
    dims = lows.shape[1]
    k = config.max_clip_points(dims)
    if k == 0 or not counts.any():
        return results
    valid = np.arange(counts.max()) < counts[:, None]  # (g, c): a real entry
    padded_lows = np.full(valid.shape + (dims,), np.nan)
    padded_highs = np.full(valid.shape + (dims,), np.nan)
    padded_lows[valid] = lows
    padded_highs[valid] = highs
    lows, highs = padded_lows, padded_highs
    del padded_lows, padded_highs

    node_low = np.fmin.reduce(lows, axis=1)  # fmin / fmax skip the NaN padding
    node_high = np.fmax.reduce(highs, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf
        volume = sequential_prod(node_high - node_low)

    # Zero-volume nodes cannot be clipped meaningfully, and no score exceeds
    # tau times an infinite (or NaN) volume: the scalar path returns an
    # empty list for both, and for an entry-less node (all NaN).
    active = np.isfinite(volume) & (volume > 0.0)
    nodes = np.flatnonzero(active)
    if not len(nodes):
        return results
    if len(nodes) < len(active):
        lows, highs, valid = lows[active], highs[active], valid[active]
        node_low, node_high, volume = node_low[active], node_high[active], volume[active]
    threshold = config.tau * volume
    stairline = config.method == "stairline"

    sky_mask = _chunked_skyline(lows, highs)
    sky_mask &= valid[:, None, :]
    for part in _candidate_slices(sky_mask.sum(axis=2), dims, stairline):
        clips = _clip_slice(
            lows[part],
            highs[part],
            node_low[part],
            node_high[part],
            sky_mask[part],
            threshold[part],
            stairline,
            k,
        )
        for node, points in zip(nodes[part].tolist(), clips):
            results[node] = points
    return results


def _chunked_skyline(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Skyline masks ``(g, 2**d, c)``, in chunks of nodes.

    Per node, :func:`~repro.engine.clip_kernels.skyline_masks` holds
    ``c`` bitsets of ``w = ⌈c/64⌉`` words for each of the ``2**d``
    corners (three such tables at once) and for each of the ``2 * d``
    faces (about six), beside about eight int64 or float64 keys per face
    and child: some ``c * (w * 24 * 2**d + 224 * d)`` bytes, measured at
    75–100 % of that.  A chunk stays within the budget and within
    :data:`_SKYLINE_CHUNK_BYTES`.
    """
    _, count, dims = lows.shape
    node_bytes = count * (-(-count // 64) * (24 << dims) + 224 * dims)
    step = max(1, min(2 * _CHUNK_BUDGET, _SKYLINE_CHUNK_BYTES) // node_bytes)
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
    node_low: np.ndarray,
    node_high: np.ndarray,
    sky_mask: np.ndarray,
    threshold: np.ndarray,
    stairline: bool,
    k: int,
) -> List[List[ClipPoint]]:
    """Clip points of a run of nodes, given their children's skylines.

    ``lows`` / ``highs`` are the ``(g, c, d)`` child rectangles (NaN past a
    node's fan-out), ``node_low`` / ``node_high`` the ``(g, d)`` node
    MBBs, ``sky_mask`` the ``(g, 2**d, c)`` output of
    :func:`~repro.engine.clip_kernels.skyline_masks` for them, padding
    masked out, and ``threshold`` the score a node's clip points must
    exceed.
    """
    g, count, dims = lows.shape
    # One min-corner problem per (node, corner), node-major: problem p is
    # corner p % 2**d of node p // 2**d, and from here on "low" means
    # "towards the corner" in every dimension.
    corners = 1 << dims
    problem_node = np.repeat(np.arange(g), corners)
    is_high = np.tile(masks_to_bool(np.arange(corners), dims), (g, 1))
    corner = orient(node_low[problem_node], node_high[problem_node], is_high)

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
    # The stairline points came with their duplicates; among the rows that
    # pass, the dedup drops exactly those the scalar ``seen`` set drops
    # (module notes), and before the top-k cut.
    passing = passing[first_occurrence_mask(pts[passing], owner[passing])]
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

    # Zipping the ``tolist()`` columns yields each row as a tuple of floats.
    points = list(
        map(
            _unchecked_clip_point,
            zip(*coords.T.tolist()),
            (owner & (corners - 1)).tolist(),
            scores[passing].tolist(),
        )
    )
    ends = np.cumsum(np.bincount(node[order], minlength=g)).tolist()
    return [points[start:end] for start, end in zip([0] + ends, ends)]


def _stair_points(sky_pts: np.ndarray, sky_counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Valid stairline points of every problem, duplicates included.

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
    return np.concatenate(pts_parts), np.concatenate(owner_parts)


def _ranks_within(owners: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal consecutive owners."""
    n = len(owners)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    new_run = np.r_[True, owners[1:] != owners[:-1]]
    run_starts = np.nonzero(new_run)[0]
    run_id = np.cumsum(new_run) - 1
    return np.arange(n, dtype=np.int64) - run_starts[run_id]
