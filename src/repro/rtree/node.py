"""R-tree nodes."""

from __future__ import annotations

from typing import List, Optional

from repro.geometry.rect import Rect, mbb_of_rects
from repro.rtree.entry import Entry


class Node:
    """An R-tree node: a level and a list of entries.

    ``level`` 0 denotes a leaf; the root has the highest level.  ``lhv``
    (largest Hilbert value) is only used by the Hilbert R-tree and is
    ``None`` elsewhere.
    """

    __slots__ = ("node_id", "level", "entries", "lhv")

    def __init__(self, node_id: int, level: int, entries: Optional[List[Entry]] = None):
        self.node_id = node_id
        self.level = level
        self.entries: List[Entry] = entries if entries is not None else []
        self.lhv: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """True for leaf nodes (level 0)."""
        return self.level == 0

    def mbb(self) -> Rect:
        """Minimum bounding box of the node's entries."""
        if not self.entries:
            raise ValueError(f"node {self.node_id} has no entries to bound")
        return mbb_of_rects([entry.rect for entry in self.entries])

    def child_rects(self) -> List[Rect]:
        """Rectangles of all entries (child MBBs or object rectangles)."""
        return [entry.rect for entry in self.entries]

    def find_child_entry(self, child_id: int) -> Optional[Entry]:
        """The directory entry pointing at ``child_id``, if present."""
        for entry in self.entries:
            if entry.child == child_id and entry.is_node_pointer:
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"dir(level={self.level})"
        return f"Node(id={self.node_id}, {kind}, entries={len(self.entries)})"
