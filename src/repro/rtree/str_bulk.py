"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).

Not one of the four variants evaluated in the paper, but a standard
packing strategy of the same benchmark family; exposed as an optional
builder (``build_rtree("str", ...)``) and used by some ablation benches.

Both STR builders run one tiling, :func:`str_tiling`, on arrays: the
objects' bounds are stacked once, each pass orders a slab by one
dimension's centre with a stable ``np.argsort`` — the order Python's
stable ``sorted`` gives on the same float keys, NaN centres (an object
spanning ``(-inf, inf)``) last — and every level's node MBBs come from
segmented ``reduceat`` reductions.  :func:`str_bulk_load` turns the
tiling into ``Node`` / ``Entry`` objects and
:func:`repro.engine.builder.build_columnar_str` into snapshot arrays, so
the two agree by construction.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import _unchecked_rect
from repro.rtree.base import check_dims, resolve_min_entries
from repro.rtree.entry import Entry
from repro.rtree.quadratic import QuadraticRTree


class StrTiling(NamedTuple):
    """What STR packing decides, level by level from the leaves up.

    ``order`` lists the objects' input positions in leaf order, and
    ``counts[i]`` the entry count of each level-``i`` node, left to right.
    ``lows[i]`` / ``highs[i]`` are level ``i``'s ``(n, d)`` entry rectangles
    (the objects', then the MBBs of the level below); the last are the root's.
    """

    order: np.ndarray
    counts: List[np.ndarray]
    lows: List[np.ndarray]
    highs: List[np.ndarray]
    min_entries: int


def str_tiling(
    objects: Sequence[SpatialObject],
    max_entries: int = 50,
    min_entries: Optional[int] = None,
    leaf_fill: float = 1.0,
) -> StrTiling:
    """STR-pack ``objects``: leaf order, node sizes and node MBBs per level."""
    if not objects:
        raise ValueError("cannot bulk load an empty object collection")
    if not 0.0 < leaf_fill <= 1.0:
        raise ValueError("leaf_fill must be in (0, 1]")
    if max_entries < 2:
        raise ValueError("max_entries must be at least 2")
    dims = objects[0].dims
    if set(map(len, map(attrgetter("rect.low"), objects))) != {dims}:
        check_dims(objects, dims)  # raises, naming the first odd object
    lows, highs = (
        np.fromiter(chain.from_iterable(map(side, objects)), np.float64, len(objects) * dims)
        .reshape(-1, dims)
        for side in (attrgetter("rect.low"), attrgetter("rect.high"))
    )
    min_entries = resolve_min_entries(max_entries, min_entries)
    capacity = max(min_entries, int(max_entries * leaf_fill))
    with np.errstate(invalid="ignore"):  # -inf + inf: a NaN centre, sorted last
        centres = lows + highs
        centres /= 2.0
    slabs = _tile(centres, np.arange(len(objects)), 0, capacity)
    del centres
    order = np.concatenate(slabs)
    # Each slab is cut into leaves of ``capacity``, each upper level into
    # nodes of ``max_entries`` children.
    counts = [_node_counts([len(slab) for slab in slabs], capacity, min_entries)]
    while len(counts[-1]) > 1:
        counts.append(_node_counts([len(counts[-1])], max_entries, min_entries))
    # Reassigned one at a time, so no more than three (n, d) arrays live.
    lows = lows[order]
    highs = highs[order]
    level_lows, level_highs = [lows], [highs]
    for level_counts in counts:
        starts = np.cumsum(level_counts) - level_counts
        level_lows.append(_first_extreme(np.minimum, level_lows[-1], starts))
        level_highs.append(_first_extreme(np.maximum, level_highs[-1], starts))
    return StrTiling(order, counts, level_lows, level_highs, min_entries)


def _tile(centres: np.ndarray, idx: np.ndarray, dim: int, capacity: int) -> List[np.ndarray]:
    """Sort ``idx`` by centre along ``dim`` and cut it into slabs, recursively."""
    dims = centres.shape[1]
    if dim >= dims or len(idx) <= capacity:
        return [idx]
    leaf_pages = math.ceil(len(idx) / capacity)
    slab_count = math.ceil(leaf_pages ** (1.0 / (dims - dim)))
    slab_size = math.ceil(len(idx) / slab_count)
    ordered = idx[np.argsort(centres[idx, dim], kind="stable")]
    slabs = (ordered[start : start + slab_size] for start in range(0, len(ordered), slab_size))
    return [part for slab in slabs for part in _tile(centres, slab, dim + 1, capacity)]


def _node_counts(runs: List[int], size: int, min_entries: int) -> np.ndarray:
    """Entry counts of the nodes that cut each run into chunks of ``size``.

    A run's last chunk may be short; the level's last node is topped up to
    ``min_entries`` with its left neighbour's last entries.
    """
    counts: List[int] = []
    for run in runs:
        full, rem = divmod(run, size)
        counts += [size] * full + ([rem] if rem else [])
    if len(counts) > 1 and counts[-1] < min_entries:
        deficit = min_entries - counts[-1]
        counts[-2] -= deficit
        counts[-1] += deficit
    return np.asarray(counts, dtype=np.int64)


def _first_extreme(ufunc: np.ufunc, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc.reduceat(rows, starts)``, a ``±0.0`` tie settled as ``min`` / ``max`` do.

    The two zeros compare equal, so NumPy may return either; Python's
    ``min`` / ``max`` keep the first, which :func:`mbb_of_rects` relies
    on.  Only a zero result can be such a tie (bounds are never NaN).
    """
    out = ufunc.reduceat(rows, starts)
    ends = np.append(starts[1:], len(rows))
    for node, dim in zip(*np.nonzero(out == 0.0)):
        column = rows[starts[node] : ends[node], dim]
        out[node, dim] = column[np.argmax(column == 0.0)]
    return out


def str_bulk_load(
    objects: Sequence[SpatialObject],
    max_entries: int = 50,
    min_entries: Optional[int] = None,
    leaf_fill: float = 1.0,
) -> QuadraticRTree:
    """Build an R-tree over ``objects`` with STR packing.

    The resulting tree behaves like a quadratic R-tree for later updates
    (STR only prescribes the initial packing).  Node ids follow the
    constructor's dropped empty root (id 0): the leaves, left to right,
    then each level above them.
    """
    tiling = str_tiling(objects, max_entries, min_entries, leaf_fill)
    # Directory rectangles first: the tiling's (n, d) arrays are then freed
    # before the leaf entries are built.
    directory_rects = [
        list(map(_unchecked_rect, zip(*lows.T.tolist()), zip(*highs.T.tolist())))
        for lows, highs in zip(tiling.lows[1:], tiling.highs[1:])
    ]
    order, level_counts = tiling.order, tiling.counts
    del tiling
    tree = QuadraticRTree(objects[0].dims, max_entries=max_entries, min_entries=min_entries)
    del tree._nodes[tree.root_id]

    ordered = np.fromiter(objects, object, len(objects))[order].tolist()
    entries = [Entry(obj.rect, obj) for obj in ordered]
    for level, (counts, rects) in enumerate(zip(level_counts, directory_rects)):
        node_ids = []
        start = 0
        for count in counts.tolist():
            node = tree._new_node(level)
            node.entries = entries[start : start + count]
            node_ids.append(node.node_id)
            start += count
        entries = list(map(Entry, rects, node_ids))
    tree._adopt_structure(node_ids[0], len(objects))
    return tree
