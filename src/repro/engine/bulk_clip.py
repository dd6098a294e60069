"""Level-synchronous, batched clip-point construction (Algorithm 1 for
whole tree levels at once).

:func:`bulk_clip` computes clip points for *every* node of a tree with a
handful of NumPy calls per (level, fan-out, corner) group instead of one
Python loop nest per node per corner.  The result is a
:class:`~repro.cbb.store.ClipStore` whose entries are *identical* to
running the scalar :func:`~repro.cbb.clipping.compute_clip_points` over
each node — same coordinate values, same scores, same per-node ordering,
same byte accounting (``tests/test_build_differential.py`` pins this
across tree variants, datasets, and both clipping methods).

The batching strategy mirrors the query engine's frontier trick: nodes
of one level are grouped by fan-out so their children's corners form a
dense ``(nodes, fanout, dims)`` array, dominance/splice/validity run as
broadcast comparisons (:mod:`repro.engine.clip_kernels`), and per-node
selection — score > tau·volume, stable score-descending order, top-k —
collapses into a single lexsort over flat candidate arrays.  Groups are
chunked so no intermediate broadcast exceeds a fixed element budget.

Exactness notes (why the store matches the scalar path bit for bit):

* all dominance / validity / dedup decisions are exact float64
  comparisons on the same coordinate values the scalar path reads;
* volumes and overlaps multiply dimension by dimension in dimension
  order (:func:`~repro.engine.clip_kernels.sequential_prod`), matching
  the scalar accumulation;
* the scalar path sorts each corner's candidates by descending score
  (stable), filters by threshold, concatenates corners in mask order,
  stable-sorts again, and truncates to ``k`` — which orders clips by
  ``(-score, mask, stage, rank)`` with stage/rank the candidate's
  generation position; one lexsort reproduces exactly that.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cbb.clip_point import ClipPoint
from repro.cbb.clipping import ClippingConfig
from repro.cbb.store import ClipStore
from repro.engine.clip_kernels import (
    clip_volumes,
    equals_any_point,
    first_occurrence_mask,
    overlap_volumes,
    segment_first_argmax,
    sequential_prod,
    skyline_mask_batch,
    splice_candidates,
    stair_invalid_mask,
)
from repro.engine.kernels import masks_to_bool
from repro.rtree.base import RTreeBase
from repro.rtree.node import Node

#: Ceiling on the element count of any broadcast intermediate; groups are
#: split into chunks of nodes that stay below it.
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

    node_low = lows.min(axis=1)
    node_high = highs.max(axis=1)
    volume = sequential_prod(node_high - node_low)

    # Zero-volume nodes cannot be clipped meaningfully (scalar: empty list).
    active = volume > 0.0
    if not active.any():
        return
    if not active.all():
        nodes = [node for node, keep in zip(nodes, active) if keep]
        lows, highs = lows[active], highs[active]
        node_low, node_high = node_low[active], node_high[active]
        volume = volume[active]
    g = len(nodes)
    threshold = config.tau * volume
    stairline = config.method == "stairline"

    # Per-candidate accumulators across all corners, flat over the group.
    acc_pts: List[np.ndarray] = []
    acc_owner: List[np.ndarray] = []
    acc_mask: List[np.ndarray] = []
    acc_stage: List[np.ndarray] = []
    acc_rank: List[np.ndarray] = []
    acc_score: List[np.ndarray] = []

    for mask in range(1 << dims):
        is_high = masks_to_bool(np.array([mask]), dims)[0]
        corners = np.where(is_high, highs, lows)
        node_corner = np.where(is_high, node_high, node_low)

        sky_mask = _chunked_skyline(corners, is_high, count, dims)
        sky_owner = np.nonzero(sky_mask)[0]
        sky_pts = corners[sky_mask]
        sky_counts = sky_mask.sum(axis=1)

        if stairline:
            stair_pts, stair_owner, stair_rank = _stair_candidates(
                corners, sky_mask, sky_counts, is_high, dims
            )
        else:
            stair_pts = np.empty((0, dims), dtype=np.float64)
            stair_owner = np.empty(0, dtype=np.int64)
            stair_rank = np.empty(0, dtype=np.int64)

        # Assemble the per-node candidate lists: skyline first (in child
        # order), then valid stairline points (in pair order).
        pts = np.concatenate([sky_pts, stair_pts])
        owner = np.concatenate([sky_owner, stair_owner])
        stage = np.concatenate(
            [np.zeros(len(sky_pts), np.int64), np.ones(len(stair_pts), np.int64)]
        )
        rank = np.concatenate([_ranks_within(sky_owner), stair_rank])
        order = np.lexsort((rank, stage, owner))
        pts, owner, stage, rank = pts[order], owner[order], stage[order], rank[order]

        counts = sky_counts + np.bincount(stair_owner, minlength=g)
        starts = np.cumsum(counts) - counts

        vols = clip_volumes(pts, node_corner[owner])
        best_rows = segment_first_argmax(vols, starts, counts)[owner]
        is_best = np.arange(len(pts)) == best_rows
        scores = np.where(
            is_best,
            vols,
            vols - overlap_volumes(pts, pts[best_rows], node_corner[owner]),
        )

        passing = scores > threshold[owner]
        acc_pts.append(pts[passing])
        acc_owner.append(owner[passing])
        acc_mask.append(np.full(int(passing.sum()), mask, dtype=np.int64))
        acc_stage.append(stage[passing])
        acc_rank.append(rank[passing])
        acc_score.append(scores[passing])

    pts = np.concatenate(acc_pts)
    owner = np.concatenate(acc_owner)
    cmask = np.concatenate(acc_mask)
    stage = np.concatenate(acc_stage)
    rank = np.concatenate(acc_rank)
    score = np.concatenate(acc_score)

    # Final per-node order: descending score, ties by (mask, stage, rank) —
    # exactly the scalar stable sort over mask-major sorted candidates.
    order = np.lexsort((rank, stage, cmask, -score, owner))
    owner = owner[order]
    keep = _ranks_within(owner) < k
    owner = owner[keep]
    pts = pts[order][keep]
    cmask = cmask[order][keep]
    score = score[order][keep]

    clips: Dict[int, List[ClipPoint]] = defaultdict(list)
    for oi, coord, mask_val, score_val in zip(
        owner.tolist(), pts.tolist(), cmask.tolist(), score.tolist()
    ):
        clips[oi].append(ClipPoint(tuple(coord), mask_val, score_val))
    for oi, points in clips.items():
        results[nodes[oi].node_id] = points


def _chunked_skyline(
    corners: np.ndarray, is_high: np.ndarray, count: int, dims: int
) -> np.ndarray:
    """Skyline masks for all nodes, chunked to bound the (g,c,c,d) blow-up."""
    step = max(1, _CHUNK_BUDGET // (count * count * dims))
    parts = [
        skyline_mask_batch(corners[start : start + step], is_high)
        for start in range(0, len(corners), step)
    ]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _stair_candidates(
    corners: np.ndarray,
    sky_mask: np.ndarray,
    sky_counts: np.ndarray,
    is_high: np.ndarray,
    dims: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid, deduplicated stairline points for every node of the group.

    Nodes are regrouped by skyline size so each subgroup forms a dense
    ``(nodes, s, d)`` array; candidates come back flat with their owner
    (group-node index) and rank (position among the node's *kept*
    stairline points, in pair order) — what the final ordering needs.
    """
    pts_parts: List[np.ndarray] = []
    owner_parts: List[np.ndarray] = []
    rank_parts: List[np.ndarray] = []
    for s in np.unique(sky_counts):
        s = int(s)
        if s < 2:
            continue
        node_sel = np.nonzero(sky_counts == s)[0]
        skylines = corners[node_sel][sky_mask[node_sel]].reshape(len(node_sel), s, dims)
        pairs = s * (s - 1) // 2
        step = max(1, _CHUNK_BUDGET // (pairs * s * dims))
        for start in range(0, len(node_sel), step):
            chunk = skylines[start : start + step]
            cands, _, _ = splice_candidates(chunk, is_high)
            bad = stair_invalid_mask(chunk, cands, is_high) | equals_any_point(
                cands, chunk
            )
            flat = cands.reshape(-1, dims)
            local_owner = np.repeat(np.arange(len(chunk), dtype=np.int64), pairs)
            keep = first_occurrence_mask(flat, local_owner) & ~bad.reshape(-1)
            kept_owner = local_owner[keep]
            pts_parts.append(flat[keep])
            owner_parts.append(node_sel[start : start + step][kept_owner])
            rank_parts.append(_ranks_within(kept_owner))
    if not pts_parts:
        return (
            np.empty((0, dims), dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(pts_parts),
        np.concatenate(owner_parts),
        np.concatenate(rank_parts),
    )


def _ranks_within(owners: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal consecutive owners."""
    n = len(owners)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    new_run = np.r_[True, owners[1:] != owners[:-1]]
    run_starts = np.nonzero(new_run)[0]
    run_id = np.cumsum(new_run) - 1
    return np.arange(n, dtype=np.int64) - run_starts[run_id]
