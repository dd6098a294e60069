"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).

Not one of the four variants evaluated in the paper, but a standard
packing strategy of the same benchmark family; exposed as an optional
builder (``build_rtree("str", ...)``) and used by some ablation benches.

Both STR builders run one packing, :func:`str_layout`, on arrays: the
objects' bounds are stacked once, each pass orders a slab by one
dimension's centre with a stable ``np.argsort`` — the order Python's
stable ``sorted`` gives on the same float keys, NaN centres (an object
spanning ``(-inf, inf)``) last — and every level's node MBBs come from
segmented ``reduceat`` reductions, written straight into BFS slot order.
The result is the arrays of a snapshot without its clip runs
(:class:`~repro.rtree.freeze.TreeFreeze`), so the two builders agree by
construction: :func:`repro.engine.builder.build_columnar_str` turns it
into a snapshot as it is, and :func:`str_bulk_load` into ``Node`` /
``Entry`` objects.

The tree :func:`str_bulk_load` returns keeps that layout as its freeze,
stamped with its ``version`` (:meth:`RTreeBase.freeze
<repro.rtree.base.RTreeBase.freeze>`): clipping it
(:meth:`ClippedRTree.clip_all <repro.rtree.clipped.ClippedRTree.clip_all>`)
and freezing it (:meth:`ColumnarIndex.from_tree
<repro.engine.columnar.ColumnarIndex.from_tree>`) read those arrays and
walk no node, until the first insert or delete makes the freeze stale.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import _unchecked_rect
from repro.rtree.base import check_dims, resolve_min_entries
from repro.rtree.entry import Entry
from repro.rtree.freeze import TreeFreeze, tree_freeze
from repro.rtree.quadratic import QuadraticRTree


def str_layout(
    objects: Sequence[SpatialObject],
    max_entries: int = 50,
    min_entries: Optional[int] = None,
    leaf_fill: float = 1.0,
) -> Tuple[TreeFreeze, List[int]]:
    """STR-pack ``objects`` into a tree laid out in BFS slots.

    Returns the tree's freeze and its node count per level, leaves first.
    Slots are the levels top-down, each left to right, so the directory
    entries lead to slots 1, 2, ... in turn.  Node ids are the ones
    :func:`str_bulk_load` gives: the constructor's empty root takes id 0
    and is dropped, the leaves take 1..L, then each level above continues
    the sequence.
    """
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
    # One side at a time, so no more than three (n, d) arrays live.
    entry_lows = _bfs_rows(lows, order, counts, np.minimum)
    del lows
    entry_highs = _bfs_rows(highs, order, counts, np.maximum)
    del highs

    entry_count = np.concatenate(counts[::-1])
    total_nodes = len(entry_count)
    level_sizes = [len(level_counts) for level_counts in counts]
    bottom_up = np.split(np.arange(1, total_nodes + 1, dtype=np.int64), np.cumsum(level_sizes[:-1]))
    freeze = tree_freeze(
        is_leaf=np.arange(total_nodes) >= total_nodes - level_sizes[0],
        entry_count=entry_count,
        node_ids=np.concatenate(bottom_up[::-1]),
        entry_lows=entry_lows,
        entry_highs=entry_highs,
        objects=np.fromiter(objects, object, len(objects))[order].tolist(),
    )
    return freeze, level_sizes


def _bfs_rows(
    rows: np.ndarray, order: np.ndarray, counts: List[np.ndarray], ufunc: np.ufunc
) -> np.ndarray:
    """One bound of every entry row in BFS slot order, the objects' ``rows`` last.

    Above the objects in leaf order come the node bounds of each level
    (``counts[i]`` the entry counts of level ``i``'s nodes) from the
    root's children down: each block is reduced from the block after it.
    """
    # Level i's block ends where the blocks of levels 0 .. i-1 begin.
    above_objects = np.cumsum([len(level_counts) for level_counts in counts[:-1]], dtype=np.int64)
    directory_rows = int(above_objects[-1]) if len(above_objects) else 0
    out = np.empty((directory_rows + len(order), rows.shape[1]))
    # mode="clip" writes into ``out`` unbuffered; every index is in range.
    np.take(rows, order, axis=0, out=out[directory_rows:], mode="clip")
    below = out[directory_rows:]
    for level_counts, start in zip(counts, (directory_rows - above_objects).tolist()):
        block = out[start : start + len(level_counts)]
        block[...] = _first_extreme(ufunc, below, np.cumsum(level_counts) - level_counts)
        below = block
    return out


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
    then each level above them.  The tree keeps :func:`str_layout` as its
    freeze.
    """
    freeze, level_sizes = str_layout(objects, max_entries, min_entries, leaf_fill)
    levels = [level for level, size in enumerate(level_sizes) for _ in range(size)][::-1]
    tree = QuadraticRTree(objects[0].dims, max_entries=max_entries, min_entries=min_entries)
    del tree._nodes[tree.root_id]

    node_ids = freeze.node_ids.tolist()
    directory_rows = len(node_ids) - 1
    rects = map(
        _unchecked_rect,
        zip(*freeze.entry_lows[:directory_rows].T.tolist()),
        zip(*freeze.entry_highs[:directory_rows].T.tolist()),
    )
    # Row r of the directory leads to slot r + 1; the leaf rows are the objects.
    entries = list(map(Entry, rects, node_ids[1:]))
    entries += [Entry(obj.rect, obj) for obj in freeze.objects]
    starts, counts = freeze.entry_start.tolist(), freeze.entry_count.tolist()
    for slot in np.argsort(freeze.node_ids).tolist():  # ids in order: leaves first
        node = tree._new_node(levels[slot])
        node.entries = entries[starts[slot] : starts[slot] + counts[slot]]
    tree._adopt_structure(node_ids[0], len(objects))
    tree.keep_freeze(freeze)
    return tree
