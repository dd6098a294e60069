"""Array-native STR bulk loading straight into a columnar snapshot.

:func:`build_columnar_str` packs objects with Sort-Tile-Recursive and
emits a ready-to-query :class:`~repro.engine.columnar.ColumnarIndex`:
node MBBs, entry slices and BFS slots are NumPy arrays from the start,
with no per-node ``Node``/``Entry`` Python objects in between.

It shares its layout with :func:`repro.rtree.str_bulk.str_bulk_load`:
:func:`~repro.rtree.str_bulk.str_layout` decides the leaf order, every
node's size and every node's MBB, and lays them out in BFS slots.
Here the layout becomes a snapshot with no clip points; there it becomes
the tree's nodes and the freeze that tree keeps, which
``ColumnarIndex.from_tree(str_bulk_load(objects, ...))`` reads as long
as the tree is unchanged.  The two snapshots are therefore array for
array identical, synthesized node ids included;
``tests/test_build_differential.py`` pins that equality.

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
from repro.geometry.objects import SpatialObject
from repro.rtree.base import resolve_min_entries
from repro.rtree.str_bulk import str_layout


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
    layout, _ = str_layout(objects, max_entries, min_entries, leaf_fill)
    dims = objects[0].dims
    total_nodes = len(layout.node_ids)
    return ColumnarIndex(
        source=None,
        dims=dims,
        **layout._asdict(),
        clip_coords=np.empty((0, dims), dtype=np.float64),
        clip_is_high=np.empty((0, dims), dtype=bool),
        node_clip_start=np.zeros(total_nodes, dtype=np.int64),
        node_clip_count=np.zeros(total_nodes, dtype=np.int64),
        source_version=None,
        tree_record=TreeRecord(
            "quadratic", max_entries, resolve_min_entries(max_entries, min_entries), total_nodes + 1
        ),
    )
