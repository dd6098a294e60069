"""Vectorized NumPy kernels for batched clip-point construction.

Every kernel works on *oriented* coordinates: :func:`orient` negates the
max-extent dimensions of a corner, so each (node, corner) pair becomes one
min-corner *problem* — smaller means closer to the corner in every
dimension — and the corner bitmask drops out of everything downstream.
Each kernel is the array analogue of one scalar building block of the
paper's Algorithm 1, batched over a leading problem axis:

==============================  =============================================
:func:`skyline_masks`           :func:`repro.skyline.skyline.oriented_skyline_indices`
                                for all ``2**d`` corners of a node
:func:`valid_splices`           the validity probe of
                                :func:`repro.skyline.stairline.stairline_points`
                                (``strictly_inside_corner_region``) over all
                                skyline pairs
:func:`splice`                  :func:`repro.skyline.stairline.splice_point`
:func:`first_occurrence_mask`   the ``seen`` set of ``stairline_points``,
                                run after the ``tau`` filter
:func:`corner_distances`        the factors of :func:`repro.cbb.scoring.clip_volume`
                                (their :func:`sequential_prod` is the volume)
:func:`overlap_volumes`         ``repro.cbb.scoring._same_corner_overlap``
:func:`segment_first_argmax`    ``max(range(n), key=volumes.__getitem__)``
==============================  =============================================

Exactness notes (``tests/test_clip_kernels.py`` pins each correspondence,
``tests/test_build_differential.py`` the composed pipeline):

* **Orientation.**  Negation is exact in IEEE-754, order-reversing and its
  own inverse, so an oriented comparison decides what the mask-dispatched
  scalar comparison decides, ``abs(corner - point)`` is the same float on
  either side, and un-orienting a coordinate returns its original bits.
* **Packed tables.**  Dominance and validity are conjunctions over
  dimensions of float comparisons between two *points*.  For validity,
  :func:`packed_compare` makes each comparison once per (point, point,
  dimension) and stores the ``d`` outcomes of a point pair as the bits of
  one word; the per-candidate tests are then bitwise operations on those
  words.  No float is compared that the scalar path does not compare.
* **Skyline bitsets.**  For dominance (d >= 3) the outcomes are stored
  the other way round: per dimension and face, one bitset over the other
  point, so a corner's test is ``d`` ANDs of words.  The sets come from
  one sort per face and dimension, not from ``c * c`` comparisons: on
  floats other than NaN, ``<=`` is a total preorder and the sort follows
  it, so the keys ``<=`` a key are exactly those up to the end of its run
  of ``==`` keys — whatever order the sort leaves equal keys in
  (:func:`_closeness_sets`).
* **Splices never equal skyline points.**  ``stairline_points`` seeds its
  ``seen`` set with the skyline.  On a skyline (distinct, mutually
  non-dominated points) that seed never fires: a splice ``max(p, q)``
  equal to a skyline point ``r`` has ``p <= r`` everywhere, so ``p``
  dominates ``r`` unless ``p == r``; likewise ``q == r``, and ``p == q``
  contradicts distinctness.  The kernels therefore carry no such test.
* **Dedup after the τ filter.**  Validity and score are functions of a
  candidate's coordinates, so equal candidates are equally valid and
  score alike, and "first among all, then valid" keeps the candidates
  "first among the valid" keeps.  Keeping the duplicates through scoring
  moves nothing either: a duplicate comes after its original, so the
  first maximum is never one; a duplicate of the best scores
  ``V - overlap(best, best)``, exactly ``0.0``, which never exceeds
  ``tau * V >= 0``; any other duplicate passes only with its original.
  So :mod:`~repro.engine.bulk_clip` runs :func:`first_occurrence_mask`
  on the rows that pass the threshold, before the top-``k`` cut — a few
  thousand rows where the valid splices are tens of thousands.
* Volume products accumulate dimension by dimension in dimension order
  (:func:`sequential_prod`), matching the scalar accumulation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from repro.engine.kernels import masks_to_bool


def sequential_prod(values: np.ndarray) -> np.ndarray:
    """Product over the last axis, accumulated in dimension order.

    ``np.prod`` is free to re-associate the reduction; the scalar scoring
    code multiplies dimension by dimension, and matching it bit for bit
    requires the same association order.
    """
    out = values[..., 0].copy()
    for dim in range(1, values.shape[-1]):
        out *= values[..., dim]
    return out


def orient(lows: np.ndarray, highs: np.ndarray, is_high: np.ndarray) -> np.ndarray:
    """Corner coordinates with the max-extent dimensions negated.

    ``is_high`` is the boolean expansion of a corner bitmask (bit ``i`` set
    -> max extent in dimension ``i``, :func:`~repro.engine.kernels.masks_to_bool`)
    and broadcasts against the coordinates.  ``orient(points, points,
    is_high)`` maps oriented points back: negation is its own inverse.
    """
    return np.where(is_high, -highs, lows)


def packed_compare(
    compare: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``compare(a, b)`` along the last axis, packed into one word per row.

    Bit ``t`` of the result is ``compare(a[..., t], b[..., t])``; the
    leading axes broadcast.  The word is the narrowest unsigned integer
    holding ``d`` bits: uint8 up to eight dimensions, wider above.
    """
    dims = a.shape[-1]
    dtype = np.min_scalar_type((1 << dims) - 1)
    words = compare(a[..., dims - 1], b[..., dims - 1]).astype(dtype)
    for dim in range(dims - 2, -1, -1):
        words += words  # shift left by one
        words |= compare(a[..., dim], b[..., dim])
    return words


def skyline_masks(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Oriented-skyline membership of every corner of a batch of nodes.

    ``lows`` / ``highs`` are ``(g, c, d)`` — ``g`` nodes with ``c`` child
    rectangles each.  Returns ``(g, 2**d, c)``: row ``[n, mask]`` is True
    exactly at the indices :func:`~repro.skyline.skyline.oriented_skyline_indices`
    returns for the children's ``mask``-corners — not dominated by another
    child and not duplicating an earlier one.

    Mirrors the scalar dispatch: 2-d runs a batched sort-based sweep,
    higher dimensions the batched pairwise filter on per-face bitsets.
    """
    if lows.shape[-1] == 2:
        return _skyline_masks_2d(lows, highs)
    return _skyline_masks_pairwise(lows, highs)


def _skyline_masks_2d(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Batched 2-d skyline sweep: two stable sorts per row + one running minimum.

    The row-wise form of ``_skyline_2d_indices``: order each problem's
    oriented points by ``(key0, key1, position)`` — a stable sort by
    ``key1``, then a stable sort of that order by ``key0``, so equal keys
    keep their positions in order — and keep exactly those that strictly
    improve the running minimum of ``key1``.  The NaN padding sorts last
    and never improves it.
    """
    g, c, _ = lows.shape
    is_high = masks_to_bool(np.arange(4), 2)[:, None, :]
    oriented = orient(lows[:, None], highs[:, None], is_high)  # (g, 4, c, 2)
    key0 = oriented[..., 0].reshape(g * 4, c)
    key1 = oriented[..., 1].reshape(g * 4, c)
    order = np.argsort(key1, axis=1, kind="stable")
    order = np.take_along_axis(
        order, np.argsort(np.take_along_axis(key0, order, axis=1), axis=1, kind="stable"), axis=1
    )
    key1_sorted = np.take_along_axis(key1, order, axis=1)
    running_min = np.minimum.accumulate(key1_sorted, axis=1)
    improves = np.empty((g * 4, c), dtype=bool)
    improves[:, 0] = True
    improves[:, 1:] = key1_sorted[:, 1:] < running_min[:, :-1]
    mask = np.empty((g * 4, c), dtype=bool)
    np.put_along_axis(mask, order, improves, axis=1)
    return mask.reshape(g, 4, c)


def _skyline_masks_pairwise(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Batched pairwise dominance filter (any dimensionality), on bitsets.

    Per dimension and face, row ``i`` of a node holds the set of children
    ``j`` at least as close to that face as child ``i``, and the set of
    children ``i`` is at least as close as, each as ``⌈c/64⌉`` uint64
    words (:func:`_closeness_sets`).  A corner takes, dimension by
    dimension, the low face's set or the high face's, so ``closer`` (``j``
    at least as close to the corner as ``i`` in every dimension) is ``d``
    ANDs of bitsets; the ``2**d`` corners are built by doubling, one
    dimension at a time.  ``j`` eliminates ``i`` when it is closer and not
    coordinate-equal (dominance) or equal but earlier (the
    first-occurrence dedup): ``closer & ~spared``, where ``j`` spares
    ``i`` when ``i`` is as close as ``j`` in every dimension (so the two
    are equal) and ``j`` comes no earlier.  A NaN padding row is in no
    set, so it eliminates nothing.
    """
    _, c, dims = lows.shape
    # "Closer to the face" is "smaller key": the low faces, then the high
    # faces negated (exact, and order-reversing).
    keys = np.concatenate([lows, -highs], axis=2).transpose(2, 0, 1)
    at_most, at_least = _closeness_sets(keys)
    # Axis 0 is a corner's bit for the dimension: low face, high face.
    at_most = at_most.reshape((2, dims) + at_most.shape[1:])
    at_least = at_least.reshape((2, dims) + at_least.shape[1:])
    closer, spared = at_most[:, 0], at_least[:, 0]
    for dim in range(1, dims):
        # Corner ``bit * 2**dim + mask``: bit ``dim`` above the ones so far.
        closer = (at_most[:, dim, None] & closer).reshape((-1,) + closer.shape[1:])
        spared = (at_least[:, dim, None] & spared).reshape((-1,) + spared.shape[1:])
    spared &= _later_children(c)
    closer &= ~spared
    return np.ascontiguousarray(~closer.any(axis=-1).swapaxes(0, 1))


def _closeness_sets(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bitsets of ``<=`` and ``>=`` between the keys of each row.

    ``keys`` is ``(f, g, c)``.  Returns ``(at_most, at_least)``, each
    ``(f, g, c, ⌈c/64⌉)`` uint64: bit ``j % 64`` of word ``j // 64`` of
    ``at_most[., ., i]`` is ``keys[j] <= keys[i]``, of ``at_least`` it is
    ``keys[i] <= keys[j]``; a NaN key is in no set and has none.

    One sort per row replaces the ``c * c`` comparisons: in ascending
    order, the keys ``<=`` a key are every key up to the end of its run
    of equal keys (a prefix OR of one-bit words), the keys ``>=`` it every
    key from the start of that run on (a suffix OR).  ``<=`` on floats
    other than NaN is a total preorder and the runs are cut with ``==``,
    so each set is exactly what the comparisons give, whatever order the
    sort leaves equal keys (``0.0`` / ``-0.0`` included) in.  NaN sorts
    last and carries no bit.
    """
    f, g, c = keys.shape
    words = -(-c // 64)
    rows = f * g
    flat = keys.reshape(rows, c)
    order = np.argsort(flat, axis=1)
    row_base = np.arange(rows)[:, None] * c
    ranked = flat.reshape(-1)[order + row_base]
    bit = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    bit[np.isnan(ranked)] = 0
    one_hot = np.zeros((rows, c, words), dtype=np.uint64)
    one_hot.reshape(-1, words)[np.arange(rows * c), (order >> 6).reshape(-1)] = bit.reshape(-1)

    tie = ranked[:, 1:] == ranked[:, :-1]
    position = np.arange(c)
    run_end = np.full((rows, c), c - 1)
    run_end[:, :-1] = np.where(tie, c, position[:-1])
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    run_start = np.zeros((rows, c), dtype=np.int64)
    run_start[:, 1:] = np.where(tie, 0, position[1:])
    run_start = np.maximum.accumulate(run_start, axis=1)
    rank = np.empty_like(order)
    rank[np.arange(rows)[:, None], order] = position

    prefix = np.bitwise_or.accumulate(one_hot, axis=1).reshape(-1, words)
    suffix = np.bitwise_or.accumulate(one_hot[:, ::-1], axis=1)[:, ::-1].reshape(-1, words)
    at_most = prefix[np.take_along_axis(run_end, rank, axis=1) + row_base]
    at_least = suffix[np.take_along_axis(run_start, rank, axis=1) + row_base]
    nan = np.isnan(flat)
    at_most[nan] = 0
    at_least[nan] = 0
    return at_most.reshape(f, g, c, words), at_least.reshape(f, g, c, words)


@lru_cache(maxsize=64)
def _later_children(c: int) -> np.ndarray:
    """Row ``i`` is the bitset of the children ``j >= i``: ``(c, ⌈c/64⌉)`` uint64.

    Shared between callers and read-only.
    """
    packed = np.packbits(np.triu(np.ones((c, c), dtype=bool)), axis=1, bitorder="little")
    words = np.zeros((c, -(-c // 64) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view(np.uint64)
    words.setflags(write=False)
    return words


@lru_cache(maxsize=256)
def pair_index(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sources ``(i, j)`` of the ``s * (s - 1) / 2`` pairs of ``s`` points.

    In the scalar double-loop order (``i < j``, row-major).  The arrays
    are shared between callers and read-only.
    """
    i_idx, j_idx = np.triu_indices(s, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def valid_splices(skylines: np.ndarray) -> np.ndarray:
    """Pairs of skyline points whose splice clips no skyline point away.

    ``skylines`` is ``(n, s, d)``, oriented; returns ``(n, s * (s - 1) / 2)``
    over :func:`pair_index` pairs.  The splice of ``(i, j)`` is the
    per-dimension maximum, so skyline point ``q`` lies *strictly* inside
    the splice's clip region iff in every dimension it is below ``p_i``
    or below ``p_j`` (``strictly_inside_corner_region``; boundary contact
    never invalidates).  With bit ``t`` of ``at_or_past[i, q]`` holding
    ``q_t >= p_i,t``, the pair is valid iff for every ``q`` the words of
    ``i`` and ``j`` share a set bit.
    """
    at_or_past = packed_compare(
        np.greater_equal, skylines[:, None, :, :], skylines[:, :, None, :]
    )
    i_idx, j_idx = pair_index(skylines.shape[1])
    shared = at_or_past.take(i_idx, axis=1)
    shared &= at_or_past.take(j_idx, axis=1)
    return shared.all(axis=2)


def splice(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Splice points of oriented point pairs (Definition 6).

    The per-dimension maximum — the scalar ``splice_point(p, q,
    flip_mask(mask))`` in oriented space — taking ``b`` only where it is
    strictly larger, as Python's ``max(p, q)`` / ``min(p, q)`` do, so a
    ``0.0`` / ``-0.0`` tie keeps the same sign bit as the scalar path.
    """
    return np.where(b > a, b, a)


def first_occurrence_mask(rows: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """True for rows that first introduce their coordinates within an owner.

    ``rows`` is ``(n, d)`` and ``owners`` ``(n,)``, each owner's rows
    together; a row is kept when no earlier row of the *same owner* has
    identical coordinates — the vectorized form of the scalar
    ``seen``-set dedup.  A stable lexsort on the coordinates alone leaves
    each run of equal rows in its original order, so owner by owner,
    earliest first.
    """
    if len(rows) == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort(rows.T[::-1])
    sorted_rows = rows[order]
    sorted_owners = owners[order]
    same_as_prev = (sorted_rows[1:] == sorted_rows[:-1]).all(axis=1) & (
        sorted_owners[1:] == sorted_owners[:-1]
    )
    first = np.ones(len(rows), dtype=bool)
    first[order[1:]] = ~same_as_prev
    return first


def corner_distances(points: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Per-dimension distance of each point from its node corner.

    ``abs(corner - point)``, the factors of ``clip_volume``: their
    :func:`sequential_prod` is the volume clipped between the point and
    the corner.  ``corner`` broadcasts against ``points``.
    """
    return np.abs(corner - points)


def overlap_volumes(distances: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Overlap of each candidate's clip region with the best candidate's.

    The array analogue of ``_same_corner_overlap`` on
    :func:`corner_distances` rows: per dimension the overlap extent is
    the smaller of the two corner distances.
    """
    return sequential_prod(np.minimum(distances, best))


def segment_first_argmax(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Flat index of the *first* maximum inside each contiguous segment.

    Segments must be non-empty, in ascending order, and tile ``values``
    completely (``starts[i+1] == starts[i] + counts[i]``) — the layout
    the bulk-clip orchestrator produces.  Matches the scalar
    ``max(range(n), key=volumes.__getitem__)`` tie-breaking (lowest index
    wins).
    """
    seg_max = np.maximum.reduceat(values, starts)
    owners = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    position = np.arange(len(values), dtype=np.int64)
    at_max = values == seg_max[owners]
    return np.minimum.reduceat(np.where(at_max, position, len(values)), starts)
