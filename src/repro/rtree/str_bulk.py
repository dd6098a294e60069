"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).

Not one of the four variants evaluated in the paper, but a standard
packing strategy of the same benchmark family; exposed as an optional
builder (``build_rtree("str", ...)``) and used by some ablation benches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.geometry.objects import SpatialObject
from repro.rtree.base import check_dims
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.quadratic import QuadraticRTree


def _tile(objects: List[SpatialObject], dims: int, dim: int, capacity: int) -> List[List[SpatialObject]]:
    """Recursively sort-and-tile objects along ``dim`` and beyond."""
    if dim >= dims or len(objects) <= capacity:
        return [objects]
    remaining_dims = dims - dim
    leaf_pages = math.ceil(len(objects) / capacity)
    slab_count = math.ceil(leaf_pages ** (1.0 / remaining_dims))
    slab_size = math.ceil(len(objects) / slab_count)
    # Rect.center[dim], without building the other d - 1 coordinates.
    ordered = sorted(objects, key=lambda o: (o.rect.low[dim] + o.rect.high[dim]) / 2.0)
    slabs: List[List[SpatialObject]] = []
    for start in range(0, len(ordered), slab_size):
        slabs.extend(_tile(ordered[start : start + slab_size], dims, dim + 1, capacity))
    return slabs


def str_bulk_load(
    objects: Sequence[SpatialObject],
    max_entries: int = 50,
    min_entries: Optional[int] = None,
    leaf_fill: float = 1.0,
) -> QuadraticRTree:
    """Build an R-tree over ``objects`` with STR packing.

    The resulting tree behaves like a quadratic R-tree for later updates
    (STR only prescribes the initial packing).
    """
    if not objects:
        raise ValueError("cannot bulk load an empty object collection")
    if not 0.0 < leaf_fill <= 1.0:
        raise ValueError("leaf_fill must be in (0, 1]")
    dims = objects[0].dims
    check_dims(objects, dims)
    tree = QuadraticRTree(dims, max_entries=max_entries, min_entries=min_entries)
    capacity = max(tree.min_entries, int(max_entries * leaf_fill))

    slabs = _tile(list(objects), dims, 0, capacity)

    # Drop the fresh empty root created by the constructor.
    del tree._nodes[tree.root_id]

    leaves: List[Node] = []
    for slab in slabs:
        for start in range(0, len(slab), capacity):
            chunk = slab[start : start + capacity]
            leaf = tree._new_node(level=0)
            leaf.entries = [Entry(obj.rect, obj) for obj in chunk]
            leaves.append(leaf)
    if len(leaves) > 1 and len(leaves[-1].entries) < tree.min_entries:
        deficit = tree.min_entries - len(leaves[-1].entries)
        donor = leaves[-2]
        moved = donor.entries[-deficit:]
        donor.entries = donor.entries[:-deficit]
        leaves[-1].entries = moved + leaves[-1].entries

    root = tree._pack_level(leaves, level=0)
    tree._adopt_structure(root.node_id, len(objects))
    return tree
