"""Vectorized NumPy kernels used by the batch query executor.

Each kernel is the array analogue of one scalar geometric predicate:

=============================  ==============================================
:func:`intersect_mask`         :meth:`repro.geometry.rect.Rect.intersects`
:func:`min_dist_sq`            :meth:`repro.geometry.rect.Rect.min_distance_sq`
:func:`clip_prune_mask`        :func:`repro.cbb.intersection.clipped_intersects`
                               (the per-clip-point dominance probe)
=============================  ==============================================

All comparisons run in float64 on the exact coordinate values held by the
scalar :class:`~repro.geometry.rect.Rect` objects, so every kernel decides
each predicate *identically* to its scalar counterpart — the differential
test-suite (``tests/test_engine_differential.py``) pins this down.

:func:`expand_segments` is the shared indexing helper that turns
``(start, count)`` slices of a flat array into a gather index plus an
owner map, and :func:`segment_any` folds per-row verdicts back onto the
owners.  The clip-point probes (range frontier and STT join) and the
derivation of :meth:`ColumnarIndex.node_major
<repro.engine.columnar.ColumnarIndex.node_major>` use them; the entry
tests themselves — range frontier, INLJ and both stages of the STT join —
run on that padded layout (:func:`padded_intersect_mask` and its
leaf×leaf analogue in :mod:`repro.engine.join_exec`) and need no gather
index.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def expand_segments(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand ``(start, count)`` segments into flat indices plus owners.

    Given ``starts[i]`` and ``counts[i]`` describing contiguous slices of
    some flat array, returns ``(flat, owners)`` where ``flat`` lists every
    index covered by the segments (in segment order) and ``owners[j]`` is
    the segment that produced ``flat[j]``.  Zero-length segments simply
    contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within, owners


def intersect_mask(
    lows: np.ndarray,
    highs: np.ndarray,
    q_lows: np.ndarray,
    q_highs: np.ndarray,
) -> np.ndarray:
    """Closed-rectangle intersection test, vectorized over rows.

    ``lows``/``highs`` are ``(n, d)`` rectangle bounds; ``q_lows``/
    ``q_highs`` are either a single ``(d,)`` query or per-row ``(n, d)``
    queries.  Returns an ``(n,)`` boolean mask matching
    ``Rect.intersects`` for every row: ``low <= q_high and q_low <= high``
    in every dimension.
    """
    return np.logical_and(lows <= q_highs, q_lows <= highs).all(axis=-1)


def padded_intersect_mask(
    lows: np.ndarray,
    highs: np.ndarray,
    nodes: np.ndarray,
    q_lows_t: np.ndarray,
    q_highs_t: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """:func:`intersect_mask` of whole nodes' entries on the node-major layout.

    ``lows``/``highs`` are :meth:`ColumnarIndex.node_major
    <repro.engine.columnar.ColumnarIndex.node_major>` arrays; row ``r`` of
    the result tests every (padded) entry of ``nodes[r]`` against the
    rectangle ``queries[r]`` of ``q_lows_t``/``q_highs_t``, which hold one
    row per dimension.  Per dimension that is one row gather and one dense
    ``<=`` per bound, and-ed in place; padded cells are NaN and fail it.
    Row-major ``np.nonzero`` of the ``(len(nodes), max_fanout)`` mask is
    ``(row, entry)`` order — the order a per-entry gather would test in.
    """
    match = lows[0][nodes] <= q_highs_t[0][queries][:, None]
    match &= q_lows_t[0][queries][:, None] <= highs[0][nodes]
    for dim in range(1, len(lows)):
        match &= lows[dim][nodes] <= q_highs_t[dim][queries][:, None]
        match &= q_lows_t[dim][queries][:, None] <= highs[dim][nodes]
    return match


def min_dist_sq(lows: np.ndarray, highs: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared MinDist from ``point`` to each rectangle row.

    The array analogue of ``Rect.min_distance_sq``: per dimension the
    distance is ``low - p`` when the point lies below the rectangle,
    ``p - high`` when above, and zero inside the slab.
    """
    point = np.asarray(point, dtype=np.float64)
    below = np.maximum(lows - point, 0.0)
    above = np.maximum(point - highs, 0.0)
    delta = np.maximum(below, above)
    squared = np.square(delta)
    # Accumulate dimension by dimension, in dimension order: ``np.sum`` may
    # associate differently, and the scalar path's sequential accumulation
    # must be matched bit for bit so heap orderings downstream agree.
    total = squared[..., 0].copy()
    for dim in range(1, squared.shape[-1]):
        total += squared[..., dim]
    return total


def clip_prune_mask(
    q_lows: np.ndarray,
    q_highs: np.ndarray,
    clip_coords: np.ndarray,
    clip_is_high: np.ndarray,
) -> np.ndarray:
    """Per-clip-point pruning verdicts (paper, Algorithm 2 with the query selector).

    Row ``j`` pairs one clip point (``clip_coords[j]``, ``clip_is_high[j]``
    — the boolean per-dimension expansion of the corner bitmask) with the
    query rectangle ``(q_lows[j], q_highs[j])`` probing it.  The scalar
    test probes the query corner *opposite* the clip corner and prunes
    when that corner lies strictly inside the clipped region; expanded per
    dimension that is ``q_low > coord`` on set mask bits and ``q_high <
    coord`` on cleared ones.  Returns True for rows whose clip point
    proves the query intersects only dead space.

    Strictness mirrors ``strictly_inside_corner_region``: boundary contact
    never prunes, so an object touching a clipped region's face is never
    lost.
    """
    cond = np.where(clip_is_high, q_lows > clip_coords, q_highs < clip_coords)
    return cond.all(axis=-1)


def masks_to_bool(masks: np.ndarray, dims: int) -> np.ndarray:
    """Expand integer corner bitmasks into an ``(n, dims)`` boolean matrix.

    Bit ``i`` of a mask selects the max-extent corner in dimension ``i``
    (see ``repro.geometry.bitmask.corner_of``); the boolean expansion is
    what :func:`clip_prune_mask` consumes.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    bits = np.arange(dims, dtype=np.int64)
    return (masks >> bits) & 1 > 0


def segment_any(flags: np.ndarray, owners: np.ndarray, n_segments: int) -> np.ndarray:
    """Per-segment logical OR of ``flags`` grouped by ``owners``.

    Safe for empty segments (they aggregate to False), unlike
    ``np.logical_or.reduceat``.
    """
    return np.bincount(owners[flags], minlength=n_segments) > 0
