"""Persisting R-trees and clip stores in the paper's physical layout.

Figure 4 of the paper shows the on-disk layout: R-tree nodes are arrays of
``(rectangle, pointer)`` entries, and clip points live in a separate
auxiliary table indexed by node id, each entry holding a count and a list
of ``(bitmask, coordinates)`` records.  This module serialises a tree (and
optionally its clip store) to a single binary file in that spirit and
loads it back, so indexes can be built once and re-used across processes.

The format is deliberately simple and self-describing:

* header: magic, version, dimensionality, fan-out parameters, object count;
* one record per node: id, level, entry count, entries (each a rectangle
  plus either a child id or an object id + payload-less object rectangle);
* the clip table: node id, clip count, then (mask, coordinates, score) per
  clip point.

Object payloads are not serialised (they may be arbitrary Python objects);
loading reconstructs :class:`SpatialObject` instances with ``payload=None``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Tuple, Type, Union

from repro.cbb.clip_point import ClipPoint
from repro.cbb.store import ClipStore
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.entry import Entry
from repro.rtree.hilbert import HilbertRTree
from repro.rtree.node import Node
from repro.rtree.quadratic import QuadraticRTree
from repro.rtree.rrstar import RRStarTree
from repro.rtree.rstar import RStarTree

_MAGIC = b"CBBRTREE"
#: The clip-point mask field is ``<Q``: corner bitmasks have one bit per
#: dimension, and version 1's 32-bit field overflowed beyond 32 of them.
_VERSION = 2

_VARIANT_CODES: Dict[str, int] = {
    "quadratic": 1,
    "hilbert": 2,
    "rstar": 3,
    "rrstar": 4,
}
_VARIANT_CLASSES: Dict[int, Type[RTreeBase]] = {
    1: QuadraticRTree,
    2: HilbertRTree,
    3: RStarTree,
    4: RRStarTree,
}


def _write_rect(out: BinaryIO, rect: Rect) -> None:
    for value in rect.low + rect.high:
        out.write(struct.pack("<d", value))


def _read_rect(data: BinaryIO, dims: int) -> Rect:
    values = struct.unpack(f"<{2 * dims}d", data.read(16 * dims))
    return Rect(values[:dims], values[dims:])


def save_tree(
    tree_or_clipped: Union[RTreeBase, ClippedRTree], path: Union[str, Path]
) -> None:
    """Serialise a tree (optionally with its clip store) to ``path``."""
    if isinstance(tree_or_clipped, ClippedRTree):
        tree = tree_or_clipped.tree
        store: Optional[ClipStore] = tree_or_clipped.store
    else:
        tree = tree_or_clipped
        store = None
    variant_code = _VARIANT_CODES.get(tree.variant_name, 1)

    path = Path(path)
    with path.open("wb") as out:
        out.write(_MAGIC)
        out.write(
            struct.pack(
                "<HHIIIqI",
                _VERSION,
                variant_code,
                tree.dims,
                tree.max_entries,
                tree.min_entries,
                tree.root_id,
                len(tree),
            )
        )
        nodes = list(tree.nodes())
        out.write(struct.pack("<I", len(nodes)))
        for node in nodes:
            out.write(struct.pack("<qII", node.node_id, node.level, len(node.entries)))
            for entry in node.entries:
                _write_rect(out, entry.rect)
                if entry.is_node_pointer:
                    out.write(struct.pack("<q", entry.child))
                else:
                    out.write(struct.pack("<q", entry.child.oid))

        clip_entries = list(store.items()) if store is not None else []
        out.write(struct.pack("<I", len(clip_entries)))
        for node_id, clips in clip_entries:
            out.write(struct.pack("<qI", node_id, len(clips)))
            for clip in clips:
                out.write(struct.pack("<Qd", clip.mask, clip.score))
                for value in clip.coord:
                    out.write(struct.pack("<d", value))


def load_tree(path: Union[str, Path]) -> Tuple[RTreeBase, Optional[ClippedRTree]]:
    """Load a tree saved by :func:`save_tree`.

    Returns ``(tree, clipped)`` where ``clipped`` is ``None`` when the file
    carries no clip table, and otherwise a :class:`ClippedRTree` sharing
    the returned tree.
    """
    path = Path(path)
    with path.open("rb") as data:
        magic = data.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a CBB R-tree file")
        version, variant_code, dims, max_entries, min_entries, root_id, size = struct.unpack(
            "<HHIIIqI", data.read(struct.calcsize("<HHIIIqI"))
        )
        if version != _VERSION:
            raise ValueError(f"unsupported file version {version}")

        cls = _VARIANT_CLASSES.get(variant_code, QuadraticRTree)
        tree = cls(dims, max_entries=max_entries, min_entries=min_entries)
        # Drop the constructor's fresh root; the file defines all nodes.
        tree._nodes.clear()

        (node_count,) = struct.unpack("<I", data.read(4))
        max_node_id = 0
        for _ in range(node_count):
            node_id, level, entry_count = struct.unpack("<qII", data.read(16))
            node = Node(node_id, level)
            for _ in range(entry_count):
                rect = _read_rect(data, dims)
                (child,) = struct.unpack("<q", data.read(8))
                if level == 0:
                    node.entries.append(Entry(rect, SpatialObject(child, rect)))
                else:
                    node.entries.append(Entry(rect, child))
            tree._nodes[node_id] = node
            max_node_id = max(max_node_id, node_id)
        tree._next_id = max_node_id + 1
        tree._adopt_structure(root_id, size)

        (clip_node_count,) = struct.unpack("<I", data.read(4))
        if clip_node_count == 0:
            return tree, None
        clipped = ClippedRTree(tree)
        clip_format = "<Qd"
        clip_header_size = struct.calcsize(clip_format)
        for _ in range(clip_node_count):
            node_id, clip_count = struct.unpack("<qI", data.read(12))
            clips = []
            for _ in range(clip_count):
                mask, score = struct.unpack(clip_format, data.read(clip_header_size))
                coord = struct.unpack(f"<{dims}d", data.read(8 * dims))
                clips.append(ClipPoint(coord, mask, score))
            clipped.store.put(node_id, clips)
        return tree, clipped
