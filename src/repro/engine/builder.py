"""Array-native STR bulk loading straight into a columnar snapshot.

:func:`build_columnar_str` packs objects with Sort-Tile-Recursive and
emits a ready-to-query :class:`~repro.engine.columnar.ColumnarIndex`
level by level — node MBBs, entry slices, and BFS slots are produced as
NumPy arrays from the start, with no per-node ``Node``/``Entry`` Python
objects in between.  Sorting runs through ``np.argsort`` on index
arrays and level MBBs through segmented ``reduceat`` reductions, so the
build cost is dominated by O(n log n) C-level sorts instead of Python
comparisons.

The packing replicates :func:`repro.rtree.str_bulk.str_bulk_load`
decision for decision — same slab recursion, same capacity and
minimum-fill arithmetic, same last-node rebalancing — so the resulting
snapshot is array-for-array identical to freezing the scalar builder's
tree (``ColumnarIndex.from_tree(str_bulk_load(objects, ...))``),
including the synthesized node ids.  ``tests/test_build_differential.py``
pins that equality.

The one observable difference: a snapshot built here has no source tree
(``source`` is ``None``), so it is never stale and cannot be refreshed.
Its tree record is the quadratic tree's that ``str_bulk_load`` builds, so
:meth:`ColumnarIndex.to_tree` thaws that tree when a
:class:`~repro.engine.delta.SnapshotManager` first compacts it.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.columnar import ColumnarIndex, TreeRecord
from repro.engine.kernels import object_column, stack_bounds
from repro.geometry.objects import SpatialObject
from repro.rtree.base import resolve_min_entries


def build_columnar_str(
    objects: Sequence[SpatialObject],
    max_entries: int = 50,
    min_entries: Optional[int] = None,
    leaf_fill: float = 1.0,
) -> ColumnarIndex:
    """STR-pack ``objects`` directly into a :class:`ColumnarIndex`.

    Parameters and packing semantics match
    :func:`~repro.rtree.str_bulk.str_bulk_load`; the output matches
    ``ColumnarIndex.from_tree`` of that tree array for array.
    """
    if not objects:
        raise ValueError("cannot bulk load an empty object collection")
    if not 0.0 < leaf_fill <= 1.0:
        raise ValueError("leaf_fill must be in (0, 1]")
    if max_entries < 2:
        raise ValueError("max_entries must be at least 2")
    dims = objects[0].dims
    min_entries = resolve_min_entries(max_entries, min_entries)
    capacity = max(min_entries, int(max_entries * leaf_fill))

    lows, highs = stack_bounds(list(map(attrgetter("rect"), objects)), dims, "objects")
    centers = (lows + highs) / 2.0

    def tile(idx: np.ndarray, dim: int) -> List[np.ndarray]:
        if dim >= dims or len(idx) <= capacity:
            return [idx]
        remaining_dims = dims - dim
        leaf_pages = math.ceil(len(idx) / capacity)
        slab_count = math.ceil(leaf_pages ** (1.0 / remaining_dims))
        slab_size = math.ceil(len(idx) / slab_count)
        ordered = idx[np.argsort(centers[idx, dim], kind="stable")]
        slabs: List[np.ndarray] = []
        for start in range(0, len(ordered), slab_size):
            slabs.extend(tile(ordered[start : start + slab_size], dim + 1))
        return slabs

    slabs = tile(np.arange(len(objects), dtype=np.int64), 0)
    perm = np.concatenate(slabs)

    # Leaf sizes: each slab split into capacity-sized chunks, then the
    # final leaf rebalanced up to minimum fill from its left neighbour
    # (moves entries, never reorders them).
    leaf_counts: List[int] = []
    for slab in slabs:
        full, rem = divmod(len(slab), capacity)
        leaf_counts.extend([capacity] * full)
        if rem:
            leaf_counts.append(rem)
    _rebalance_last(leaf_counts, min_entries)

    # Upper levels: chunks of max_entries children, same rebalancing.
    level_counts = [np.asarray(leaf_counts, dtype=np.int64)]
    while len(level_counts[-1]) > 1:
        n_children = len(level_counts[-1])
        full, rem = divmod(n_children, max_entries)
        counts = [max_entries] * full + ([rem] if rem else [])
        _rebalance_last(counts, min_entries)
        level_counts.append(np.asarray(counts, dtype=np.int64))

    # MBBs bottom-up: segmented min/max over the children of each level.
    entry_lows_lvl = [lows[perm]]
    entry_highs_lvl = [highs[perm]]
    node_lows_lvl: List[np.ndarray] = []
    node_highs_lvl: List[np.ndarray] = []
    for counts in level_counts:
        starts = np.cumsum(counts) - counts
        node_lows_lvl.append(np.minimum.reduceat(entry_lows_lvl[-1], starts))
        node_highs_lvl.append(np.maximum.reduceat(entry_highs_lvl[-1], starts))
        entry_lows_lvl.append(node_lows_lvl[-1])
        entry_highs_lvl.append(node_highs_lvl[-1])

    # Node ids as the scalar builder would number them: the constructor's
    # empty root takes id 0 and is dropped, leaves take 1..L in order,
    # then each packed level continues the sequence.
    next_id = 1
    node_ids_lvl: List[np.ndarray] = []
    for counts in level_counts:
        node_ids_lvl.append(np.arange(next_id, next_id + len(counts), dtype=np.int64))
        next_id += len(counts)

    # Assemble in BFS slot order: levels top-down, left-to-right (exactly
    # the order ``ColumnarIndex.from_tree`` discovers nodes in).
    n_levels = len(level_counts)
    total_nodes = sum(len(counts) for counts in level_counts)
    total_entries = int(sum(int(counts.sum()) for counts in level_counts))

    is_leaf = np.zeros(total_nodes, dtype=bool)
    entry_count = np.empty(total_nodes, dtype=np.int64)
    node_ids = np.empty(total_nodes, dtype=np.int64)
    entry_lows = np.empty((total_entries, dims), dtype=np.float64)
    entry_highs = np.empty((total_entries, dims), dtype=np.float64)
    entry_child = np.empty(total_entries, dtype=np.int64)

    node_cursor = 0
    entry_cursor = 0
    child_slot_offset = 0
    for level_index in range(n_levels - 1, -1, -1):
        counts = level_counts[level_index]
        n_nodes = len(counts)
        n_entries = int(counts.sum())
        node_slice = slice(node_cursor, node_cursor + n_nodes)
        entry_slice = slice(entry_cursor, entry_cursor + n_entries)
        is_leaf[node_slice] = level_index == 0
        entry_count[node_slice] = counts
        node_ids[node_slice] = node_ids_lvl[level_index]
        entry_lows[entry_slice] = entry_lows_lvl[level_index]
        entry_highs[entry_slice] = entry_highs_lvl[level_index]
        if level_index == 0:
            entry_child[entry_slice] = np.arange(n_entries, dtype=np.int64)
        else:
            # Children occupy the next level's slots, in order.
            child_slot_offset += n_nodes
            entry_child[entry_slice] = child_slot_offset + np.arange(
                n_entries, dtype=np.int64
            )
        node_cursor += n_nodes
        entry_cursor += n_entries

    entry_start = np.concatenate(([0], np.cumsum(entry_count)[:-1]))

    return ColumnarIndex(
        source=None,
        dims=dims,
        is_leaf=is_leaf,
        entry_start=entry_start,
        entry_count=entry_count,
        node_ids=node_ids,
        entry_lows=entry_lows,
        entry_highs=entry_highs,
        entry_child=entry_child,
        clip_coords=np.empty((0, dims), dtype=np.float64),
        clip_is_high=np.empty((0, dims), dtype=bool),
        node_clip_start=np.zeros(total_nodes, dtype=np.int64),
        node_clip_count=np.zeros(total_nodes, dtype=np.int64),
        objects=object_column(objects)[perm].tolist(),
        source_version=None,
        tree_record=TreeRecord("quadratic", max_entries, min_entries, next_id),
    )


def _rebalance_last(counts: List[int], min_entries: int) -> None:
    """Top the final node up to minimum fill from its left neighbour."""
    if len(counts) > 1 and counts[-1] < min_entries:
        deficit = min_entries - counts[-1]
        counts[-2] -= deficit
        counts[-1] += deficit
