"""Vectorized NumPy kernels used by the batch query executor.

Each kernel is the array analogue of one scalar geometric predicate:

=============================  ==============================================
:func:`intersect_mask`         :meth:`repro.geometry.rect.Rect.intersects`
:func:`padded_intersect_mask`  the same, for every entry of whole nodes
:func:`padded_min_dist_sq`     :meth:`repro.geometry.rect.Rect.min_distance_sq`,
                               for every entry of whole nodes
:func:`padded_clip_veto`       ``not`` :func:`repro.cbb.intersection.clipped_intersects`
                               of a rectangle that meets the node's MBB (the
                               dominance probe over all of a node's clip points)
=============================  ==============================================

All comparisons run in float64 on the exact coordinate values held by the
scalar :class:`~repro.geometry.rect.Rect` objects, so every kernel decides
each predicate *identically* to its scalar counterpart — the conformance
matrix (``tests/test_backend_conformance.py``) pins this down.

The ``padded_*`` kernels read the node-major layouts a
:class:`~repro.engine.columnar.ColumnarIndex` derives from its flat arrays
(:meth:`~repro.engine.columnar.ColumnarIndex.node_major` for entries,
:meth:`~repro.engine.columnar.ColumnarIndex.node_major_clips` for clip
points): one row per node, NaN past its own count, so a whole frontier is
a row gather and one dense compare per dimension and bound, with no gather
index and no owner map.  The range frontier, the INLJ and the STT join
share the intersection and clip kernels; batched kNN runs on the MinDist
one.  :func:`expand_segments`, which turns ``(start, count)`` slices of a
flat array into a gather index plus an owner map, is what the two
derivations are built with.

Three helpers cross the boundary between Python objects and arrays once
per batch rather than once per item: :func:`stack_rows` turns coordinate
tuples (points, entry and clip coordinates) into one float64 matrix,
:func:`stack_bounds` does so for the two bounds of rectangles, and
:func:`object_column` turns a sequence of objects into an object array
that one fancy index gathers hits from.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from operator import attrgetter
from typing import Sequence, Tuple

import numpy as np


def stack_rows(
    rows: Sequence[Sequence[float]], dims: int, what: str = "rows", owner: str = "snapshot"
) -> np.ndarray:
    """``rows`` (``n`` sequences of ``dims`` numbers) as one ``(n, dims)`` float64 array.

    One ``np.fromiter`` over the chained values takes about half the time
    ``np.array`` needs for the same list.  ``fromiter`` stops at its
    ``count`` and cannot tell where a row ends, so a row of another width
    would shift every row after it; every row's length is checked first,
    and a mismatch raises ``ValueError`` ("<what> have 3 dims, <owner>
    expects 2"), as does a row that is not a sequence.
    """
    try:
        widths = set(map(len, rows))
    except TypeError:
        raise ValueError(f"{what} must be sequences of {dims} numbers") from None
    widths.discard(dims)
    if widths:
        raise ValueError(f"{what} have {min(widths)} dims, {owner} expects {dims}")
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=len(rows) * dims)
    return flat.reshape(len(rows), dims)


def stack_points(points: Sequence[Sequence[float]], dims: int) -> np.ndarray:
    """kNN query ``points`` as a :func:`stack_rows` array, or ``ValueError``.

    A NaN coordinate has no distance order (every compare is False), so
    it would fail the whole batch far from its cause; it is named here.
    ±inf is a point at infinity and stays legal.
    """
    stacked = stack_rows(points, dims, "points")
    bad = np.flatnonzero(np.isnan(stacked).any(axis=1))
    if len(bad):
        row = int(bad[0])
        raise ValueError(f"NaN coordinate in kNN point {row}: {tuple(stacked[row].tolist())}")
    return stacked


def stack_bounds(
    rects: Sequence, dims: int, what: str = "queries"
) -> Tuple[np.ndarray, np.ndarray]:
    """The bounds of ``rects`` as ``(lows, highs)``, two :func:`stack_rows` arrays."""
    lows = stack_rows(list(map(attrgetter("low"), rects)), dims, what)
    highs = stack_rows(list(map(attrgetter("high"), rects)), dims, what)
    return lows, highs


def object_column(objects: Sequence[object]) -> np.ndarray:
    """``objects`` as a one-dimensional object array holding the same instances."""
    return np.fromiter(objects, dtype=object, count=len(objects))


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
    Row-major order (:func:`mask_cells`) of the ``(len(nodes), max_fanout)``
    mask is ``(row, entry)`` order — the order a per-entry gather would
    test in.
    """
    match = lows[0].take(nodes, axis=0) <= q_highs_t[0].take(queries)[:, None]
    match &= q_lows_t[0].take(queries)[:, None] <= highs[0].take(nodes, axis=0)
    for dim in range(1, len(lows)):
        match &= lows[dim].take(nodes, axis=0) <= q_highs_t[dim].take(queries)[:, None]
        match &= q_lows_t[dim].take(queries)[:, None] <= highs[dim].take(nodes, axis=0)
    return match


def mask_cells(mask: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Index arrays of the True cells of a dense mask, in row-major order.

    ``np.nonzero(mask)``, several times faster on a sparse 2-d mask and an
    order of magnitude on a 3-d one: the flat scan is the fast path.
    """
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def padded_min_dist_sq(
    lows: np.ndarray,
    highs: np.ndarray,
    nodes: np.ndarray,
    points_t: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Squared MinDist to every entry of whole nodes, on the node-major layout.

    The kNN twin of :func:`padded_intersect_mask`: row ``r`` of the
    ``(len(nodes), max_fanout)`` result holds the squared MinDist from
    point ``queries[r]`` of ``points_t`` (one row per dimension) to every
    (padded) entry of ``nodes[r]``.  Per dimension the gap is the larger
    of ``low - p`` and ``p - high``, floored at zero — at most one of the
    two is positive, so that is the scalar's ``low - p`` below the
    rectangle, ``p - high`` above it and nothing inside the slab — and
    ``gap * gap`` is accumulated in dimension order, the arithmetic of
    ``Rect.min_distance_sq`` bit for bit.  Padded cells are NaN and stay
    NaN through every step, so no ``<=`` against a bound selects them and
    a sort or partition places them last.

    A point at ±inf meets a bound at the same infinity in one case only:
    it lies on that bound, where the scalar adds nothing.  The difference
    there is ``inf - inf``, NaN, so when the batch holds an infinite
    coordinate the cells whose bound equals the point's coordinate are set
    to 0; padding equals nothing and stays NaN.  Finite points skip that
    step, so their arithmetic is the one above.
    """
    at_infinity = np.isinf(points_t).any()
    total = None
    # inf - inf is set right below; finite points never meet it.
    with np.errstate(invalid="ignore") if at_infinity else nullcontext():
        for dim in range(len(lows)):
            point = points_t[dim].take(queries)[:, None]
            gap = lows[dim].take(nodes, axis=0)
            gap -= point
            np.maximum(gap, point - highs[dim].take(nodes, axis=0), out=gap)
            np.maximum(gap, 0.0, out=gap)
            if at_infinity:
                on_bound = lows[dim].take(nodes, axis=0) == point
                on_bound |= highs[dim].take(nodes, axis=0) == point
                gap[on_bound] = 0.0
            gap *= gap
            if total is None:
                total = gap
            else:
                total += gap
    return total


#: Cells (rows × widest clip count) per block of :func:`padded_clip_veto`:
#: what bounds its working memory, however long the candidate list.
_CLIP_BLOCK_CELLS = 1 << 18


def padded_clip_veto(
    high_side: np.ndarray,
    low_side: np.ndarray,
    nodes: np.ndarray,
    p_lows_t: np.ndarray,
    p_highs_t: np.ndarray,
    probes: np.ndarray,
) -> np.ndarray:
    """Rows whose node's clip points prove the probe hits dead space only.

    The paper's Algorithm 2 with the query selector, for all clip points of
    ``nodes[r]`` against the rectangle ``probes[r]`` of ``p_lows_t``/
    ``p_highs_t`` (one row per dimension), on the
    :meth:`ColumnarIndex.node_major_clips
    <repro.engine.columnar.ColumnarIndex.node_major_clips>` layout.  The
    scalar test probes the rectangle's corner *opposite* the clip corner
    and prunes when it lies strictly inside the clipped region: per
    dimension ``p_low > coord`` on set mask bits, ``p_high < coord`` on
    cleared ones.  ``high_side`` carries the coordinate only where the bit
    is set and ``low_side`` only where it is cleared, so that is one ``>``
    or-ed with one ``<``, and-ed over the dimensions; a row is vetoed when
    ``any`` of its node's clip points passes all of them.

    Every strict compare against NaN is False: padding, clip-less nodes and
    the side a clip point does not use can never dominate.  Strictness is
    ``strictly_inside_corner_region``'s — boundary contact never prunes, so
    an object touching a clipped region's face is never lost.  The caller
    has already established that the probe meets the node's MBB.
    """
    veto = np.empty(len(nodes), dtype=bool)
    step = max(1, _CLIP_BLOCK_CELLS // high_side.shape[2])
    for start in range(0, len(nodes), step):
        block = nodes[start : start + step]
        probe = probes[start : start + step]
        inside = p_lows_t[0].take(probe)[:, None] > high_side[0].take(block, axis=0)
        inside |= p_highs_t[0].take(probe)[:, None] < low_side[0].take(block, axis=0)
        for dim in range(1, len(high_side)):
            closer = p_lows_t[dim].take(probe)[:, None] > high_side[dim].take(block, axis=0)
            closer |= p_highs_t[dim].take(probe)[:, None] < low_side[dim].take(block, axis=0)
            inside &= closer
        veto[start : start + step] = inside.any(axis=1)
    return veto


def masks_to_bool(masks: np.ndarray, dims: int) -> np.ndarray:
    """Expand integer corner bitmasks into an ``(n, dims)`` boolean matrix.

    Bit ``i`` of a mask selects the max-extent corner in dimension ``i``
    (see ``repro.geometry.bitmask.corner_of``); the boolean expansion is
    the persisted ``clip_is_high`` column.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    bits = np.arange(dims, dtype=np.int64)
    return (masks >> bits) & 1 > 0
