"""Array-native STR bulk loading straight into a columnar snapshot.

:func:`build_columnar_str` packs objects with Sort-Tile-Recursive and
emits a ready-to-query :class:`~repro.engine.columnar.ColumnarIndex`
level by level — node MBBs, entry slices, and BFS slots are produced as
NumPy arrays from the start, with no per-node ``Node``/``Entry`` Python
objects in between.

It shares one tiling with :func:`repro.rtree.str_bulk.str_bulk_load`:
:func:`~repro.rtree.str_bulk.str_tiling` decides the leaf order, every
node's size and every node's MBB, and this module only lays the result
out in BFS slots.  The snapshot is therefore array-for-array identical
to freezing the scalar builder's tree
(``ColumnarIndex.from_tree(str_bulk_load(objects, ...))``), including
the synthesized node ids; ``tests/test_build_differential.py`` pins that
equality.

The one observable difference: a snapshot built here has no source tree
(``source`` is ``None``), so it is never stale and cannot be refreshed.
Its tree record is the quadratic tree's that ``str_bulk_load`` builds, so
:meth:`ColumnarIndex.to_tree` thaws that tree when a
:class:`~repro.engine.delta.SnapshotManager` first compacts it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.engine.columnar import ColumnarIndex, TreeRecord
from repro.engine.kernels import object_column
from repro.geometry.objects import SpatialObject
from repro.rtree.str_bulk import str_tiling


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
    tiling = str_tiling(objects, max_entries, min_entries, leaf_fill)
    dims = objects[0].dims
    # BFS slot order is the levels top-down, each left to right (the order
    # ``ColumnarIndex.from_tree`` discovers nodes in), so the directory
    # entries point at slots 1, 2, ... in turn.
    entry_count = np.concatenate(tiling.counts[::-1])
    total_nodes = len(entry_count)
    # Node ids as the scalar builder numbers them: the constructor's empty
    # root takes id 0 and is dropped, the leaves take 1..L, then each level
    # above continues the sequence.
    level_sizes = [len(counts) for counts in tiling.counts]
    bottom_up = np.split(np.arange(1, total_nodes + 1, dtype=np.int64), np.cumsum(level_sizes[:-1]))
    entry_child = np.concatenate(
        (np.arange(1, total_nodes, dtype=np.int64), np.arange(len(objects), dtype=np.int64))
    )

    return ColumnarIndex(
        source=None,
        dims=dims,
        is_leaf=np.arange(total_nodes) >= total_nodes - level_sizes[0],
        entry_start=np.cumsum(entry_count) - entry_count,
        entry_count=entry_count,
        node_ids=np.concatenate(bottom_up[::-1]),
        entry_lows=np.concatenate(tiling.lows[-2::-1]),
        entry_highs=np.concatenate(tiling.highs[-2::-1]),
        entry_child=entry_child,
        clip_coords=np.empty((0, dims), dtype=np.float64),
        clip_is_high=np.empty((0, dims), dtype=bool),
        node_clip_start=np.zeros(total_nodes, dtype=np.int64),
        node_clip_count=np.zeros(total_nodes, dtype=np.int64),
        objects=object_column(objects)[tiling.order].tolist(),
        source_version=None,
        tree_record=TreeRecord("quadratic", max_entries, tiling.min_entries, total_nodes + 1),
    )

