"""The clipped R-tree: any R-tree variant plus the CBB plugin (paper §IV).

``ClippedRTree`` does not modify the wrapped tree's pages at all — exactly
as in the paper, clip points live in an auxiliary :class:`ClipStore`
(Figure 4b), queries run the ordinary traversal with the extended
intersection test (Algorithm 2), and updates re-clip only the nodes whose
clip points can actually have changed (§IV-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cbb.clipping import ClippingConfig, compute_clip_points
from repro.cbb.intersection import clipped_intersects, insertion_keeps_clips_valid
from repro.cbb.scoring import clipped_union_volume
from repro.cbb.store import ClipStore
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.base import DeleteResult, InsertResult, RTreeBase
from repro.rtree.node import Node
from repro.storage.page import DEFAULT_PAGE_LAYOUT, PageLayout
from repro.storage.stats import IOStats


class ReclipCause(enum.Enum):
    """Why a node's clip points were recomputed (Figure 12 categories)."""

    NODE_SPLIT = "node_split"
    MBB_CHANGE = "mbb_change"
    CBB_ONLY = "cbb_change"


@dataclass
class UpdateReport:
    """Re-clipping activity caused by one insert or delete."""

    reclips: List[Tuple[int, ReclipCause]] = field(default_factory=list)

    def count(self, cause: Optional[ReclipCause] = None) -> int:
        """Number of re-clips, optionally restricted to one cause."""
        if cause is None:
            return len(self.reclips)
        return sum(1 for _, c in self.reclips if c == cause)

    def counts_by_cause(self) -> Dict[ReclipCause, int]:
        """Re-clip counts per cause."""
        counts = {cause: 0 for cause in ReclipCause}
        for _, cause in self.reclips:
            counts[cause] += 1
        return counts


class ClippedRTree:
    """An R-tree variant augmented with clipped bounding boxes."""

    def __init__(self, tree: RTreeBase, config: ClippingConfig = ClippingConfig()):
        self.tree = tree
        self.config = config
        self.store = ClipStore()

    # ------------------------------------------------------------------
    # structure delegation (lets generic traversals — kNN search, the
    # columnar snapshot builder — treat a clipped tree like a plain one)
    # ------------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Dimensionality of the wrapped tree."""
        return self.tree.dims

    @property
    def root_id(self) -> int:
        """Id of the wrapped tree's root node."""
        return self.tree.root_id

    def node(self, node_id: int):
        """Look up a node of the wrapped tree by id."""
        return self.tree.node(node_id)

    def leaf_count(self) -> int:
        """Number of leaf nodes of the wrapped tree."""
        return self.tree.leaf_count()

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def version(self) -> Tuple[int, int]:
        """Combined (tree version, clip-store version) mutation counter.

        Bumped by inserts/deletes *and* by any re-clipping, so a columnar
        snapshot of a clipped tree goes stale whenever either the pages or
        the auxiliary clip table change.
        """
        return (self.tree.version, self.store.version)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    #: Engines understood by :meth:`clip_all`.
    CLIP_ENGINES = ("scalar", "vectorized")

    @classmethod
    def wrap(
        cls,
        tree: RTreeBase,
        method: str = "stairline",
        k: Optional[int] = None,
        tau: float = 0.025,
        engine: str = "vectorized",
    ) -> "ClippedRTree":
        """Clip every node of an already-built tree and return the wrapper."""
        clipped = cls(tree, ClippingConfig(method=method, k=k, tau=tau))
        clipped.clip_all(engine=engine)
        return clipped

    def clip_all(self, engine: str = "vectorized") -> int:
        """(Re)compute clip points for every node.

        Returns the number of nodes that ended up holding clip points —
        i.e. the resulting store length — identically for both engines
        (``tests/test_build_differential.py`` pins the agreement).

        ``engine`` selects the construction path:

        * ``"vectorized"`` (default) — the level-synchronous
          :func:`repro.engine.bulk_clip.bulk_clip` through batched NumPy
          kernels;
        * ``"scalar"`` — one ``compute_clip_points`` call per node,
          exactly Algorithm 1: the oracle the differential suites and
          the build speed-up benchmark compare the kernels against
          (identical values, ordering and scores).
        """
        self._check_clip_engine(engine)
        if engine == "vectorized":
            # Imported lazily: the scalar path must not require NumPy.
            from repro.engine.bulk_clip import bulk_clip

            bulk_clip(self.tree, self.config, store=self.store)
        else:
            self.store.clear()
            for node in self.tree.nodes():
                self._clip_node(node)
        return len(self.store)

    def _check_clip_engine(self, engine: str) -> None:
        if engine not in self.CLIP_ENGINES:
            raise ValueError(
                f"unknown clip engine {engine!r}; known: {self.CLIP_ENGINES}"
            )

    def _clip_node(self, node: Node) -> bool:
        """Clip one node; returns True when any clip point was stored."""
        if not node.entries:
            self.store.remove(node.node_id)
            return False
        clips = compute_clip_points(node.mbb(), node.child_rects(), self.config)
        self.store.put(node.node_id, clips)
        return bool(clips)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query(
        self,
        rect: Rect,
        stats: Optional[IOStats] = None,
        access_hook=None,
    ) -> List[SpatialObject]:
        """Range query using the clipped intersection test for child pruning."""

        def child_passes(child_id: int, child_mbb: Rect, query: Rect) -> bool:
            return clipped_intersects(child_mbb, self.store.get(child_id), query)

        return self.tree.range_query(
            rect, stats=stats, child_filter=child_passes, access_hook=access_hook
        )

    def count_query(self, rect: Rect) -> int:
        """Number of objects intersecting ``rect``."""
        return len(self.range_query(rect))

    def node_intersects(self, node_id: int, node_mbb: Rect, rect: Rect) -> bool:
        """Clipped intersection test for an arbitrary node (used by joins)."""
        return clipped_intersects(node_mbb, self.store.get(node_id), rect)

    # ------------------------------------------------------------------
    # updates (§IV-D)
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> UpdateReport:
        """Insert an object, re-clipping only where necessary."""
        result: InsertResult = self.tree.insert(obj)
        return self._apply_structural_changes(
            split_ids=result.split_node_ids | result.new_node_ids,
            changed_ids=result.mbb_changed_node_ids,
            added_rects=result.added_rects,
        )

    def delete(self, obj: SpatialObject) -> UpdateReport:
        """Delete an object.

        Pure deletions are handled lazily (§IV-D): a node whose MBB did not
        move keeps its clip points.  However, underflow handling re-inserts
        orphaned entries, and those re-insertions are treated eagerly just
        like ordinary inserts.
        """
        result: DeleteResult = self.tree.delete(obj)
        if not result.found:
            return UpdateReport()
        for node_id in result.removed_node_ids:
            self.store.remove(node_id)
        return self._apply_structural_changes(
            split_ids=result.split_node_ids | result.new_node_ids,
            changed_ids=result.mbb_changed_node_ids,
            added_rects=result.added_rects,
        )

    def _apply_structural_changes(
        self,
        split_ids: set,
        changed_ids: set,
        added_rects: Dict[int, List[Rect]],
    ) -> UpdateReport:
        """Re-clip (or validity-check) every node an update may have affected."""
        report = UpdateReport()
        reclipped = set()

        def reclip(node_id: int, cause: ReclipCause) -> None:
            if node_id in reclipped or not self.tree.has_node(node_id):
                return
            self._clip_node(self.tree.node(node_id))
            reclipped.add(node_id)
            report.reclips.append((node_id, cause))

        for node_id in sorted(split_ids):
            reclip(node_id, ReclipCause.NODE_SPLIT)
        for node_id in sorted(changed_ids):
            reclip(node_id, ReclipCause.MBB_CHANGE)

        # CBB-only candidates: nodes that received new entries, plus the
        # parents of every structurally-changed node (their clip points are
        # derived from the changed child rectangles).
        parents = self._parent_index()
        candidates: Dict[int, List[Rect]] = {}
        for node_id, rects in added_rects.items():
            if self.tree.has_node(node_id):
                candidates.setdefault(node_id, []).extend(rects)
        for node_id in split_ids | changed_ids:
            if not self.tree.has_node(node_id):
                continue
            parent_id = parents.get(node_id)
            if parent_id is None:
                continue
            candidates.setdefault(parent_id, []).append(self.tree.node(node_id).mbb())

        for node_id, new_rects in candidates.items():
            if node_id in reclipped:
                continue
            clips = self.store.get(node_id)
            if not clips:
                continue
            mbb = self.tree.node(node_id).mbb()
            if any(not insertion_keeps_clips_valid(mbb, clips, rect) for rect in new_rects):
                reclip(node_id, ReclipCause.CBB_ONLY)
        return report

    def reclip_nodes(self, node_ids: Iterable[int], engine: str = "vectorized") -> int:
        """Recompute clip points for exactly ``node_ids`` (§IV-D, batched).

        Ids of nodes that no longer exist are dropped from the store; the
        surviving nodes get freshly computed clip points — identical to
        what a full :meth:`clip_all` would assign them, whichever
        ``engine`` computes them: the batched kernels of
        :func:`repro.engine.incremental_clip.reclip_live_nodes` (the
        compaction path of :class:`repro.engine.delta.SnapshotManager`)
        or scalar per-node Algorithm 1.  Returns the number of live
        nodes re-clipped.
        """
        self._check_clip_engine(engine)
        ids = set(node_ids)
        live = sorted(nid for nid in ids if self.tree.has_node(nid))
        for node_id in ids.difference(live):
            self.store.remove(node_id)
        if engine == "vectorized":
            # Imported lazily: the scalar path must not require NumPy.
            from repro.engine.incremental_clip import reclip_live_nodes

            reclip_live_nodes(self, live)
        else:
            for node_id in live:
                self._clip_node(self.tree.node(node_id))
        return len(live)

    def _parent_index(self) -> Dict[int, int]:
        """Map of node id -> parent node id (rebuilt on demand)."""
        parents: Dict[int, int] = {}
        for node in self.tree.internal_nodes():
            for entry in node.entries:
                parents[entry.child] = node.node_id
        return parents

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def average_clip_points(self) -> float:
        """Average number of stored clip points per node (over all nodes)."""
        node_count = self.tree.node_count()
        if node_count == 0:
            return 0.0
        return self.store.total_clip_points() / node_count

    def clipped_volume_of(self, node: Node) -> float:
        """Exact volume clipped away from one node's MBB."""
        clips = self.store.get(node.node_id)
        if not clips or not node.entries:
            return 0.0
        return clipped_union_volume(clips, node.mbb())

    def storage_breakdown(self, layout: PageLayout = DEFAULT_PAGE_LAYOUT) -> Dict[str, int]:
        """Bytes used by directory nodes, leaf nodes, and clip points (Fig. 13)."""
        leaf_nodes = sum(1 for _ in self.tree.leaves())
        dir_nodes = self.tree.node_count() - leaf_nodes
        return {
            "leaf_nodes": leaf_nodes * layout.node_bytes(),
            "dir_nodes": dir_nodes * layout.node_bytes(),
            "clip_points": self.store.storage_bytes(),
        }

    def check_clip_invariants(self) -> None:
        """Assert that every stored clip point clips only dead space."""
        for node_id, clips in self.store.items():
            if not self.tree.has_node(node_id):
                raise AssertionError(f"clip store references missing node {node_id}")
            node = self.tree.node(node_id)
            mbb = node.mbb()
            for clip in clips:
                region = clip.region(mbb)
                for rect in node.child_rects():
                    overlap = region.intersection_volume(rect)
                    if overlap > 1e-9 * max(region.volume(), 1e-300):
                        raise AssertionError(
                            f"clip point {clip} of node {node_id} clips child {rect}"
                        )
