"""A tree's freeze: its nodes laid out in BFS slots, as arrays.

A :class:`TreeFreeze` is the part of a columnar snapshot
(:class:`~repro.engine.columnar.ColumnarIndex`) that the tree alone
decides: per slot the leaf flag, the ``(start, count)`` slice of its
entry rows and its node id; per entry row the rectangle and the child
(a slot for a directory row, an object index for a leaf row); and the
objects in leaf order.  Slots are the nodes breadth first from the root,
parents before children, so a directory node's children take
consecutive slots, directory row ``r`` leads to slot ``r + 1``, and the
leaves' rows follow every directory row.  Clip runs are not part of it:
they belong to a :class:`~repro.rtree.clipped.ClippedRTree`'s store,
and two wrappers over one tree share its freeze but not their clips.

**Who keeps it, and when it goes stale.**  A tree keeps the last freeze
taken of it, stamped with the ``version`` it was taken at
(:meth:`RTreeBase.freeze <repro.rtree.base.RTreeBase.freeze>`).  Every
insert, delete and ``_adopt_structure`` bumps the version, so after any
of them the kept freeze is stale and the next ``freeze()`` walks the
tree (:func:`walk`) and keeps the walk in its place.  STR bulk loading
keeps the layout its tiling already computed
(:func:`repro.rtree.str_bulk.str_layout`), and an incremental
:meth:`ColumnarIndex.from_tree <repro.engine.columnar.ColumnarIndex.from_tree>`
keeps what it assembled; a tree thawed from a snapshot starts with none.
The freeze holds arrays and objects only, nothing that points back at
the tree, and its arrays are read-only: the tree and every snapshot
taken from the freeze share them.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import stack_rows
from repro.rtree.node import Node


class TreeFreeze(NamedTuple):
    """A tree in BFS slots: the snapshot arrays that do not hold clip points."""

    is_leaf: np.ndarray
    entry_start: np.ndarray
    entry_count: np.ndarray
    node_ids: np.ndarray
    entry_lows: np.ndarray
    entry_highs: np.ndarray
    entry_child: np.ndarray
    objects: List[SpatialObject]


def tree_freeze(
    is_leaf: np.ndarray,
    entry_count: np.ndarray,
    node_ids: np.ndarray,
    entry_lows: np.ndarray,
    entry_highs: np.ndarray,
    objects: List[SpatialObject],
) -> TreeFreeze:
    """The freeze of a BFS layout; its entry starts and children follow from the layout."""
    entry_start = np.cumsum(entry_count) - entry_count
    entry_child = np.concatenate(
        (np.arange(1, len(entry_count), dtype=np.int64), np.arange(len(objects), dtype=np.int64))
    )
    arrays = (is_leaf, entry_start, entry_count, node_ids, entry_lows, entry_highs, entry_child)
    for array in arrays:
        array.flags.writeable = False
    return TreeFreeze(*arrays, objects)


class NodeRows(NamedTuple):
    """Some nodes' entry rows back to back: node ``node_ids[i]`` holds the next ``counts[i]``."""

    node_ids: np.ndarray
    counts: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


def node_rows(nodes: Sequence[Node], dims: int) -> NodeRows:
    """The entry rows of ``nodes``, in entry order, stacked once.

    The one place a node's entry rectangles become arrays: a walk reads
    every node through it, a compaction's re-clip its dirty nodes (the
    clipped tree records the rows for the freeze that follows).
    """
    rects = [entry.rect for node in nodes for entry in node.entries]
    return NodeRows(
        node_ids=np.array([node.node_id for node in nodes], dtype=np.int64),
        counts=np.array([len(node.entries) for node in nodes], dtype=np.int64),
        lows=stack_rows([rect.low for rect in rects], dims, "entries"),
        highs=stack_rows([rect.high for rect in rects], dims, "entries"),
    )


def bfs_nodes(tree) -> List[Node]:
    """``tree``'s nodes in slot order: breadth first from the root."""
    nodes = [tree.node(tree.root_id)]
    for node in nodes:
        if not node.is_leaf:
            nodes.extend(tree.node(entry.child) for entry in node.entries)
    return nodes


def walk(tree) -> TreeFreeze:
    """Read every node of ``tree`` into its freeze."""
    nodes = bfs_nodes(tree)
    rows = node_rows(nodes, tree.dims)
    return tree_freeze(
        is_leaf=np.array([node.is_leaf for node in nodes], dtype=bool),
        entry_count=rows.counts,
        node_ids=rows.node_ids,
        entry_lows=rows.lows,
        entry_highs=rows.highs,
        objects=[entry.child for node in nodes if node.is_leaf for entry in node.entries],
    )
