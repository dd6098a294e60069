"""Hilbert R-tree (HR-tree): Hilbert-curve bulk loading plus ordered inserts.

The HR-tree of Kamel & Faloutsos sorts objects by the Hilbert value of
their centre and packs them into leaves in that order, which yields very
well-clustered nodes at build time.  For subsequent insertions each node
keeps its *largest Hilbert value* (LHV); an insert descends into the first
child whose LHV is at least the new object's Hilbert value and splits
nodes in Hilbert order.  (The published 2-to-3 sibling redistribution is
not implemented — overflowing nodes split in half — which only affects
space utilisation, not correctness.)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect, mbb_of_rects
from repro.rtree.base import RTreeBase, check_dims
from repro.rtree.entry import Entry
from repro.rtree.hilbert_curve import HilbertMapper
from repro.rtree.node import Node


class HilbertRTree(RTreeBase):
    """Hilbert-sort bulk-loaded R-tree with Hilbert-ordered insertion."""

    variant_name = "hilbert"

    def __init__(
        self,
        dims: int,
        max_entries: int = 50,
        min_entries: Optional[int] = None,
        space: Optional[Rect] = None,
        bits: int = 16,
        leaf_fill: float = 1.0,
    ):
        super().__init__(dims, max_entries, min_entries)
        if not 0.0 < leaf_fill <= 1.0:
            raise ValueError("leaf_fill must be in (0, 1]")
        self.leaf_fill = leaf_fill
        self._bits = bits
        self._mapper = HilbertMapper(space, bits) if space is not None else None

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        objects: Sequence[SpatialObject],
        max_entries: int = 50,
        min_entries: Optional[int] = None,
        bits: int = 16,
        leaf_fill: float = 1.0,
    ) -> "HilbertRTree":
        """Build an HR-tree over ``objects`` by Hilbert-sort packing."""
        if not objects:
            raise ValueError("cannot bulk load an empty object collection")
        dims = objects[0].dims
        check_dims(objects, dims)
        space = mbb_of_rects([obj.rect for obj in objects])
        tree = cls(
            dims,
            max_entries=max_entries,
            min_entries=min_entries,
            space=space,
            bits=bits,
            leaf_fill=leaf_fill,
        )
        tree._bulk_build(objects)
        return tree

    def _ensure_mapper(self, rect: Rect) -> HilbertMapper:
        if self._mapper is None:
            # Derive a reference space from the first rectangle seen; it
            # will be generous enough because coordinates are clamped.
            self._mapper = HilbertMapper(rect.scaled(4.0) if rect.volume() > 0 else rect, self._bits)
        return self._mapper

    def _bulk_build(self, objects: Sequence[SpatialObject]) -> None:
        mapper = self._mapper
        keyed = sorted(
            ((mapper.index_of_rect(obj.rect), obj) for obj in objects), key=lambda kv: kv[0]
        )
        capacity = max(self.min_entries, int(self.max_entries * self.leaf_fill))

        # Drop the fresh empty root created by the base constructor.
        del self._nodes[self._root_id]

        leaves: List[Node] = []
        for start in range(0, len(keyed), capacity):
            chunk = keyed[start : start + capacity]
            leaf = self._new_node(level=0)
            leaf.entries = [Entry(obj.rect, obj) for _, obj in chunk]
            leaf.lhv = chunk[-1][0]
            leaves.append(leaf)
        if len(leaves) > 1 and len(leaves[-1].entries) < self.min_entries:
            deficit = self.min_entries - len(leaves[-1].entries)
            donor = leaves[-2]
            moved = donor.entries[-deficit:]
            donor.entries = donor.entries[:-deficit]
            leaves[-1].entries = moved + leaves[-1].entries
            donor.lhv = mapper.index_of_rect(donor.entries[-1].rect)

        root = self._pack_level(leaves, level=0)
        self._refresh_lhv_subtree(root)
        self._adopt_structure(root.node_id, len(objects))

    def _refresh_lhv_subtree(self, node: Node) -> int:
        if node.is_leaf:
            if node.lhv is None:
                mapper = self._ensure_mapper(node.mbb())
                node.lhv = max(mapper.index_of_rect(e.rect) for e in node.entries)
            return node.lhv
        node.lhv = max(self._refresh_lhv_subtree(self._nodes[e.child]) for e in node.entries)
        return node.lhv

    # ------------------------------------------------------------------
    # dynamic inserts
    # ------------------------------------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        mapper = self._ensure_mapper(rect)
        h = mapper.index_of_rect(rect)
        # Keep the visited node's LHV an upper bound of everything routed
        # through it; this is cheaper than recomputing LHVs bottom-up and is
        # sufficient for the ordering heuristic.
        node.lhv = h if node.lhv is None else max(node.lhv, h)
        best_index: Optional[int] = None
        for i, entry in enumerate(node.entries):
            child = self._nodes[entry.child]
            child_lhv = child.lhv if child.lhv is not None else -1
            if child_lhv >= h:
                best_index = i
                break
        if best_index is None:
            best_index = len(node.entries) - 1
        return best_index

    def _insert_entry(self, entry: Entry, level: int, result) -> None:
        super()._insert_entry(entry, level, result)
        if self._mapper is not None and result.leaf_id is not None and level == 0:
            leaf = self._nodes.get(result.leaf_id)
            if leaf is not None:
                h = self._mapper.index_of_rect(entry.rect)
                leaf.lhv = h if leaf.lhv is None else max(leaf.lhv, h)

    def _split(self, node: Node) -> Tuple[List[Entry], List[Entry]]:
        mapper = self._ensure_mapper(node.entries[0].rect)
        if node.is_leaf:
            ordered = sorted(node.entries, key=lambda e: mapper.index_of_rect(e.rect))
        else:
            ordered = sorted(
                node.entries,
                key=lambda e: self._nodes[e.child].lhv
                if self._nodes[e.child].lhv is not None
                else mapper.index_of_rect(e.rect),
            )
        half = len(ordered) // 2
        half = max(self.min_entries, min(half, len(ordered) - self.min_entries))
        return ordered[:half], ordered[half:]

    def _after_split(self, node: Node, sibling: Node) -> None:
        mapper = self._mapper
        if mapper is None:
            return
        for n in (node, sibling):
            if n.is_leaf:
                n.lhv = max(mapper.index_of_rect(e.rect) for e in n.entries)
            else:
                n.lhv = max(
                    self._nodes[e.child].lhv or mapper.index_of_rect(e.rect) for e in n.entries
                )
