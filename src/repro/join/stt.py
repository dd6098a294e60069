"""Synchronised Tree Traversal (STT) spatial join (Brinkhoff et al. 1993).

Both inputs are indexed.  The join descends both trees simultaneously,
only following pairs of children whose bounding boxes intersect.  When the
inputs are :class:`ClippedRTree` instances, the paper's §V strategy is
applied: a child pair is pruned when either child's clipped bounding box
proves the other child's MBB lies entirely in dead space.

I/O accounting: a node access is recorded each time the traversal descends
into a child (one access per node *pairing*, mirroring a page fetch per
visit), and a leaf access is *contributing* only when the subtree pairing
entered at that access emitted at least one result pair.  When the two
roots cannot join at all — disjoint MBBs, or a clip point proving the
overlap is dead space — nothing is accessed and every counter stays zero.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.geometry.rect import Rect
from repro.join.result import JoinResult
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.node import Node
from repro.storage.stats import IOStats

Index = Union[RTreeBase, ClippedRTree]


def _unwrap(index: Index) -> Tuple[RTreeBase, Optional[ClippedRTree]]:
    if isinstance(index, ClippedRTree):
        return index.tree, index
    return index, None


def _pair_passes(
    rect_a: Rect,
    node_a_id: int,
    clipped_a: Optional[ClippedRTree],
    rect_b: Rect,
    node_b_id: int,
    clipped_b: Optional[ClippedRTree],
) -> bool:
    """MBB intersection extended with the CBB dominance tests of §V."""
    if not rect_a.intersects(rect_b):
        return False
    if clipped_a is not None and not clipped_a.node_intersects(node_a_id, rect_a, rect_b):
        return False
    if clipped_b is not None and not clipped_b.node_intersects(node_b_id, rect_b, rect_a):
        return False
    return True


def _record_access(stats: IOStats, node: Node, emitted: int) -> None:
    if node.is_leaf:
        stats.record_leaf(contributed=emitted > 0)
    else:
        stats.record_internal()


def synchronized_tree_traversal_join(
    left: Index, right: Index, collect_pairs: bool = True
) -> JoinResult:
    """Join every pair of intersecting objects from the two indexes."""
    left_tree, left_clipped = _unwrap(left)
    right_tree, right_clipped = _unwrap(right)
    result = JoinResult()

    def join_nodes(node_l: Node, node_r: Node) -> int:
        """Join one node pair; returns the result pairs it emitted."""
        if node_l.is_leaf and node_r.is_leaf:
            emitted = 0
            for e_l in node_l.entries:
                for e_r in node_r.entries:
                    if e_l.rect.intersects(e_r.rect):
                        emitted += 1
                        if collect_pairs:
                            result.pairs.append((e_l.child, e_r.child))
            return emitted
        emitted = 0
        if not node_l.is_leaf and (node_r.is_leaf or node_l.level >= node_r.level):
            # Descend the left (deeper) tree.
            for entry in node_l.entries:
                if _pair_passes(
                    entry.rect, entry.child, left_clipped,
                    node_r.mbb(), node_r.node_id, right_clipped,
                ):
                    child = left_tree.node(entry.child)
                    sub = join_nodes(child, node_r)
                    _record_access(result.outer_stats, child, sub)
                    emitted += sub
            return emitted
        for entry in node_r.entries:
            if _pair_passes(
                node_l.mbb(), node_l.node_id, left_clipped,
                entry.rect, entry.child, right_clipped,
            ):
                child = right_tree.node(entry.child)
                sub = join_nodes(node_l, child)
                _record_access(result.inner_stats, child, sub)
                emitted += sub
        return emitted

    root_l, root_r = left_tree.root, right_tree.root
    pair_count = 0
    if root_l.entries and root_r.entries and _pair_passes(
        root_l.mbb(), root_l.node_id, left_clipped,
        root_r.mbb(), root_r.node_id, right_clipped,
    ):
        pair_count = join_nodes(root_l, root_r)
        _record_access(result.outer_stats, root_l, pair_count)
        _record_access(result.inner_stats, root_r, pair_count)
    result.pair_count = pair_count
    return result
