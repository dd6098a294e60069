"""Common R-tree machinery shared by every variant.

The base class owns the node table, insertion/deletion plumbing, the range
query with I/O accounting, and change tracking (which nodes split, whose
MBBs changed) — everything the clipped-R-tree plugin and the update-cost
experiment need.  Variants only customise ``_choose_subtree`` and
``_split`` (plus, for the R*-tree, the overflow policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le, lt
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.freeze import TreeFreeze, walk
from repro.rtree.node import Node
from repro.storage.stats import IOStats


@dataclass
class InsertResult:
    """What one insertion changed, for the CBB update bookkeeping (§IV-D).

    ``added_rects`` maps node id to the rectangles of entries newly placed
    in that node (the inserted object, split siblings registered with a
    parent, forced-reinsertion targets, ...); these are the nodes whose
    clip points may have been invalidated even though their own MBB did
    not move.

    ``entry_removed_node_ids`` holds nodes that *lost* entries without
    being split (forced reinsertion evicting entries, a parent dropping
    an underfull child during condense-tree).  ``mbb_changed_node_ids``
    records the *child* whose parent entry rect was refreshed; together
    these sets let the incremental re-clipper
    (:mod:`repro.engine.incremental_clip`) find every node whose entry
    list changed.
    """

    leaf_id: Optional[int] = None
    split_node_ids: Set[int] = field(default_factory=set)
    new_node_ids: Set[int] = field(default_factory=set)
    mbb_changed_node_ids: Set[int] = field(default_factory=set)
    added_rects: Dict[int, List[Rect]] = field(default_factory=dict)
    entry_removed_node_ids: Set[int] = field(default_factory=set)
    reinserted_entries: int = 0

    def record_added(self, node_id: int, rect: Rect) -> None:
        """Remember that ``node_id`` received an entry bounded by ``rect``."""
        self.added_rects.setdefault(node_id, []).append(rect)


@dataclass
class DeleteResult:
    """What one deletion changed.

    Deleting can trigger re-insertion of orphaned entries (condense tree),
    so it carries the same ``added_rects`` bookkeeping as insertion —
    plus ``split_node_ids`` / ``new_node_ids`` for splits those
    re-insertions may cause, and ``entry_removed_node_ids`` for nodes
    that lost an entry in place (the leaf that held the object, parents
    that dropped an underfull child).
    """

    found: bool = False
    leaf_id: Optional[int] = None
    mbb_changed_node_ids: Set[int] = field(default_factory=set)
    removed_node_ids: Set[int] = field(default_factory=set)
    added_rects: Dict[int, List[Rect]] = field(default_factory=dict)
    split_node_ids: Set[int] = field(default_factory=set)
    new_node_ids: Set[int] = field(default_factory=set)
    entry_removed_node_ids: Set[int] = field(default_factory=set)


def resolve_min_entries(max_entries: int, min_entries: Optional[int] = None) -> int:
    """The effective node minimum fill for a given capacity.

    Defaults to the usual 40 % of capacity and clamps into
    ``[1, max_entries // 2]``.  Shared by every tree constructor *and* the
    STR packing both STR builders run (:func:`repro.rtree.str_bulk.str_layout`),
    which must size nodes as the quadratic tree it fills does.
    """
    if min_entries is None:
        min_entries = max(2, int(round(0.4 * max_entries)))
    if not 1 <= min_entries <= max_entries // 2:
        min_entries = max(1, max_entries // 2)
    return min_entries


def check_dims(objects: Sequence[SpatialObject], dims: int) -> None:
    """Raise ``ValueError`` for the first of ``objects`` without ``dims`` dimensions.

    The one check behind :meth:`RTreeBase.insert` and both bulk loaders,
    which take ``dims`` from their first object.
    """
    for obj in objects:
        if obj.dims != dims:
            raise ValueError(f"object has {obj.dims} dims, tree expects {dims}")


class RTreeBase:
    """Abstract R-tree; concrete variants provide subtree choice and split."""

    variant_name = "base"

    def __init__(self, dims: int, max_entries: int = 50, min_entries: Optional[int] = None):
        if dims < 1:
            raise ValueError("dims must be at least 1")
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = resolve_min_entries(max_entries, min_entries)
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        root = self._new_node(level=0)
        self._root_id = root.node_id
        self._size = 0
        self._version = 0
        #: ``(version, freeze)`` of the last freeze taken (:meth:`freeze`).
        self._freeze: Optional[Tuple[int, TreeFreeze]] = None

    # ------------------------------------------------------------------
    # structure access
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        """Id of the root node."""
        return self._root_id

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural mutation.

        Columnar snapshots (:class:`repro.engine.columnar.ColumnarIndex`)
        record it at freeze time to detect staleness after inserts and
        deletes, and the freeze the tree keeps (:meth:`freeze`) is stamped
        with it.
        """
        return self._version

    def freeze(self) -> TreeFreeze:
        """The tree laid out in BFS slots, as arrays (:mod:`repro.rtree.freeze`).

        The freeze the tree keeps while its ``version`` is the one that
        freeze was stamped with; otherwise a walk of every node, which the
        tree then keeps in its place.
        """
        if self._freeze is not None and self._freeze[0] == self._version:
            return self._freeze[1]
        self._freeze = None  # not kept alive through the walk
        return self.keep_freeze(walk(self))

    def keep_freeze(self, freeze: TreeFreeze) -> TreeFreeze:
        """Keep ``freeze``, a layout of the tree as it is now; returns it."""
        self._freeze = (self._version, freeze)
        return freeze

    @property
    def root(self) -> Node:
        """The root node."""
        return self._nodes[self._root_id]

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf)."""
        return self.root.level + 1

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        """True when ``node_id`` currently exists in the tree."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        """Iterate over every node in the tree."""
        return iter(self._nodes.values())

    def leaves(self) -> Iterator[Node]:
        """Iterate over all leaf nodes."""
        return (n for n in self._nodes.values() if n.is_leaf)

    def internal_nodes(self) -> Iterator[Node]:
        """Iterate over all directory (non-leaf) nodes."""
        return (n for n in self._nodes.values() if not n.is_leaf)

    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self._nodes)

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for _ in self.leaves())

    def __len__(self) -> int:
        return self._size

    def objects(self) -> Iterator[SpatialObject]:
        """Iterate over every indexed object."""
        for leaf in self.leaves():
            for entry in leaf.entries:
                yield entry.child

    def _new_node(self, level: int) -> Node:
        node = Node(self._next_id, level)
        self._nodes[self._next_id] = node
        self._next_id += 1
        return node

    # ------------------------------------------------------------------
    # variant hooks
    # ------------------------------------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        """Index of the entry of ``node`` under which ``rect`` should go."""
        raise NotImplementedError

    def _split(self, node: Node) -> Tuple[List[Entry], List[Entry]]:
        """Partition the entries of an overflowing node into two groups."""
        raise NotImplementedError

    def _handle_overflow(self, node: Node, ancestor_path: List[int], result: InsertResult) -> None:
        """Default overflow policy: split.  The R*-tree overrides this."""
        self._split_node(node, ancestor_path, result)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> InsertResult:
        """Insert one object; returns the set of structural changes."""
        check_dims((obj,), self.dims)
        result = InsertResult()
        self._begin_insert()
        self._insert_entry(Entry(obj.rect, obj), level=0, result=result)
        self._size += 1
        self._version += 1
        return result

    def _begin_insert(self) -> None:
        """Reset per-insertion state (used by the R*-tree reinsertion flag)."""

    def _insert_entry(self, entry: Entry, level: int, result: InsertResult) -> None:
        path = self._choose_path(entry.rect, level)
        target = self._nodes[path[-1]]
        target.entries.append(entry)
        result.record_added(target.node_id, entry.rect)
        if level == 0 and result.leaf_id is None:
            result.leaf_id = target.node_id
        self._propagate_up(path, result, entry.rect)

    def _choose_path(self, rect: Rect, level: int) -> List[int]:
        """Node ids from the root down to the insertion target at ``level``."""
        node = self.root
        path = [node.node_id]
        while node.level > level:
            index = self._choose_subtree(node, rect)
            child_id = node.entries[index].child
            node = self._nodes[child_id]
            path.append(node.node_id)
        return path

    def _propagate_up(self, path: List[int], result: InsertResult, added: Rect) -> None:
        """Handle overflow and refresh parent rectangles from ``path[-1]`` up.

        ``path[-1]`` has just received an entry bounded by ``added``.  The
        walk stops at the first node that did not overflow and whose
        parent entry already held its MBB: that parent's entries are the
        ones it had, so every ancestor above it is as it was, and going on
        would find each of their entries equal and change nothing.
        """
        inner: Optional[Rect] = added
        for depth in range(len(path) - 1, -1, -1):
            node = self._nodes[path[depth]]
            overflow = len(node.entries) > self.max_entries
            if overflow:
                self._handle_overflow(node, path[:depth], result)
            if depth > 0:
                parent = self._nodes[path[depth - 1]]
                changed = self._refresh_parent_entry(parent, node, None if overflow else inner)
                if changed:
                    result.mbb_changed_node_ids.add(node.node_id)
                elif changed is False and not overflow:
                    return
            inner = None

    def _refresh_parent_entry(
        self, parent: Node, child: Node, inner: Optional[Rect] = None
    ) -> Optional[bool]:
        """Sync the parent's entry rect with the child's MBB.

        True if it changed, False if it already held a value-equal rect,
        None if ``parent`` has no entry for ``child``.  ``inner`` is the
        one rect ``child`` gained or lost since the entry was last synced:
        strictly inside the entry in every dimension, it bounds none of
        the child's extremes, so the MBB is not recomputed.  Strict ``<``:
        a ``-0.0`` / ``0.0`` tie or an infinite bound it shares with the
        entry is recomputed, as it may have set that bound.
        """
        entry = parent.find_child_entry(child.node_id)
        if entry is None:
            return None
        bounds = entry.rect
        if (
            inner is not None
            and all(map(lt, bounds.low, inner.low))
            and all(map(lt, inner.high, bounds.high))
        ):
            return False
        new_rect = child.mbb()
        if bounds != new_rect:
            entry.rect = new_rect
            return True
        return False

    def _split_node(self, node: Node, ancestor_path: List[int], result: InsertResult) -> None:
        group1, group2 = self._split(node)
        if not group1 or not group2:
            raise RuntimeError(f"{self.variant_name}: split produced an empty group")
        node.entries = group1
        sibling = self._new_node(node.level)
        sibling.entries = group2
        self._after_split(node, sibling)
        result.split_node_ids.add(node.node_id)
        result.new_node_ids.add(sibling.node_id)

        if ancestor_path:
            parent = self._nodes[ancestor_path[-1]]
            sibling_mbb = sibling.mbb()
            parent.entries.append(Entry(sibling_mbb, sibling.node_id))
            result.record_added(parent.node_id, sibling_mbb)
        else:
            new_root = self._new_node(node.level + 1)
            new_root.entries = [
                Entry(node.mbb(), node.node_id),
                Entry(sibling.mbb(), sibling.node_id),
            ]
            self._root_id = new_root.node_id
            result.new_node_ids.add(new_root.node_id)

    def _after_split(self, node: Node, sibling: Node) -> None:
        """Hook for variants that maintain extra per-node state (e.g. LHV)."""

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, obj: SpatialObject) -> DeleteResult:
        """Remove one object (matched by id and rectangle)."""
        return self._delete_at(obj, None)

    def _delete_at(self, obj: SpatialObject, hint: Optional[Sequence[int]]) -> DeleteResult:
        """:meth:`delete`, along ``hint`` when it still leads to ``obj``.

        ``hint`` is a guess at the root-to-leaf node ids of the leaf
        holding ``obj`` (a compaction reads it off the freeze the tree had
        when its deletes were buffered).  It is used only if, re-anchored at
        the current root (:meth:`_checked_path`: the ids above the root are
        dropped, or the root is prepended), each node on it still has an
        entry for the next and its last is a leaf holding an entry equal to
        ``obj``; otherwise :meth:`_find_leaf` searches.  The caller vouches
        that no other entry with ``obj``'s id is in the tree: then the
        checked path is the one path to the one leaf the search would find.
        """
        result = DeleteResult()
        path = None if hint is None else self._checked_path(obj, hint)
        if path is None:
            path = self._find_leaf(obj)
        if path is None:
            return result
        result.found = True
        leaf = self._nodes[path[-1]]
        result.leaf_id = leaf.node_id
        for i, entry in enumerate(leaf.entries):
            if entry.child.oid == obj.oid and entry.rect == obj.rect:
                del leaf.entries[i]
                result.entry_removed_node_ids.add(leaf.node_id)
                break
        self._size -= 1
        self._version += 1
        self._condense_tree(path, result, obj.rect)
        self._shrink_root(result)
        return result

    def _checked_path(self, obj: SpatialObject, hint: Sequence[int]) -> Optional[List[int]]:
        """``hint`` re-anchored at the root, if that is a root-to-leaf path to ``obj``'s entry.

        The root may have moved since the hint was read: ``_shrink_root``
        can replace it by a node on the hint (the ids above that node are
        dropped), and a condense-tree reinsertion can split it (the new
        root is prepended; it holds an entry for the hint's first node if
        the old root is that node).  Every link and the leaf's entry are
        checked either way.
        """
        nodes = self._nodes
        root_id = self._root_id
        hint = list(hint)
        if root_id in hint:
            hint = hint[hint.index(root_id) :]
        else:
            hint.insert(0, root_id)
        for parent_id, child_id in zip(hint, hint[1:]):
            parent = nodes.get(parent_id)
            if parent is None or parent.find_child_entry(child_id) is None:
                return None
        leaf = nodes.get(hint[-1])
        if leaf is None or not leaf.is_leaf:
            return None
        oid, rect = obj.oid, obj.rect
        for entry in leaf.entries:
            if entry.child.oid == oid and entry.rect == rect:
                return hint
        return None

    def _find_leaf(self, obj: SpatialObject) -> Optional[List[int]]:
        """Root-to-leaf path of the leaf containing ``obj``, or None.

        Depth first with entries in order, into every child whose rectangle
        contains ``obj``'s: the first leaf holding an entry with ``obj``'s
        id and rectangle wins.  The containment test is inlined (no method
        call per entry): a search visits about a dozen nodes.  A plain
        :meth:`delete` searches; a compaction's delete searches only when it
        has no located path or that path no longer holds (:meth:`_delete_at`).
        """
        oid, rect = obj.oid, obj.rect
        low, high = rect.low, rect.high
        nodes = self._nodes
        path: List[int] = []

        def descend(node: Node) -> bool:
            path.append(node.node_id)
            if node.is_leaf:
                for entry in node.entries:
                    if entry.child.oid == oid and entry.rect == rect:
                        return True
            else:
                for entry in node.entries:
                    bounds = entry.rect
                    if (
                        all(map(le, bounds.low, low))
                        and all(map(le, high, bounds.high))
                        and descend(nodes[entry.child])
                    ):
                        return True
            path.pop()
            return False

        return path if descend(self.root) else None

    def _condense_tree(self, path: List[int], result: DeleteResult, removed: Rect) -> None:
        """Drop underfull nodes and refresh parent rectangles from ``path[-1]`` up.

        ``path[-1]`` has just lost an entry bounded by ``removed``.  As in
        :meth:`_propagate_up`, the walk stops at the first node that kept
        enough entries and whose parent entry already held its MBB.
        """
        orphans: List[Tuple[int, List[Entry]]] = []
        inner: Optional[Rect] = removed
        for depth in range(len(path) - 1, 0, -1):
            node = self._nodes[path[depth]]
            parent = self._nodes[path[depth - 1]]
            if len(node.entries) < self.min_entries:
                parent.entries = [
                    e for e in parent.entries if not (e.is_node_pointer and e.child == node.node_id)
                ]
                orphans.append((node.level, list(node.entries)))
                result.removed_node_ids.add(node.node_id)
                result.entry_removed_node_ids.add(parent.node_id)
                del self._nodes[node.node_id]
            else:
                changed = self._refresh_parent_entry(parent, node, inner)
                if changed:
                    result.mbb_changed_node_ids.add(node.node_id)
                elif changed is False:
                    break
            inner = None

        # Re-insert entries of eliminated nodes at their original levels.
        insert_result = InsertResult()
        for level, entries in orphans:
            for entry in entries:
                self._begin_insert()
                self._insert_entry(entry, level, insert_result)
        result.mbb_changed_node_ids.update(
            nid for nid in insert_result.mbb_changed_node_ids if nid in self._nodes
        )
        result.split_node_ids.update(
            nid for nid in insert_result.split_node_ids if nid in self._nodes
        )
        result.new_node_ids.update(
            nid for nid in insert_result.new_node_ids if nid in self._nodes
        )
        result.entry_removed_node_ids.update(
            nid for nid in insert_result.entry_removed_node_ids if nid in self._nodes
        )
        for node_id, rects in insert_result.added_rects.items():
            if node_id in self._nodes:
                result.added_rects.setdefault(node_id, []).extend(rects)

    def _shrink_root(self, result: DeleteResult) -> None:
        root = self.root
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].child
            result.removed_node_ids.add(root.node_id)
            del self._nodes[root.node_id]
            self._root_id = child_id
            root = self.root
        if not root.is_leaf and not root.entries:
            # Tree became empty: replace with a fresh leaf root.
            del self._nodes[root.node_id]
            new_root = self._new_node(level=0)
            self._root_id = new_root.node_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query(
        self,
        rect: Rect,
        stats: Optional[IOStats] = None,
        child_filter: Optional[Callable[[int, Rect, Rect], bool]] = None,
        access_hook: Optional[Callable[[Node], None]] = None,
    ) -> List[SpatialObject]:
        """All objects whose rectangles intersect ``rect``.

        ``stats`` (when given) accumulates node accesses; the root is
        always visited and counted at its own level (internal, or leaf for
        a single-node tree).  ``child_filter(child_id, child_mbb, query)``
        can veto descending into a child whose MBB intersects the query —
        this is the hook the clipped R-tree uses.  ``access_hook`` is
        called with every visited node (the buffer-pool experiments use it
        to charge simulated disk reads).  The columnar batch engine
        (:mod:`repro.engine`) visits the same node set and reports
        identical counters.
        """
        results: List[SpatialObject] = []
        stack = [self._root_id]
        while stack:
            node = self._nodes[stack.pop()]
            if access_hook is not None:
                access_hook(node)
            if node.is_leaf:
                found_here = 0
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        results.append(entry.child)
                        found_here += 1
                if stats is not None:
                    stats.record_leaf(contributed=found_here > 0)
                continue
            if stats is not None:
                stats.record_internal()
            for entry in node.entries:
                if not entry.rect.intersects(rect):
                    continue
                if child_filter is not None and not child_filter(entry.child, entry.rect, rect):
                    continue
                stack.append(entry.child)
        return results

    def count_query(self, rect: Rect) -> int:
        """Number of objects intersecting ``rect`` (no I/O accounting)."""
        return len(self.range_query(rect))

    # ------------------------------------------------------------------
    # integrity checking (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when any structural invariant is violated."""
        root = self.root
        seen_objects = 0
        for node_id, node in self._nodes.items():
            assert node.node_id == node_id, "node id mismatch in table"
            if node_id != self._root_id:
                assert (
                    self.min_entries <= len(node.entries) <= self.max_entries
                ), f"node {node_id} has {len(node.entries)} entries"
            else:
                assert len(node.entries) <= self.max_entries or self._size == 0
            for entry in node.entries:
                if node.is_leaf:
                    assert not entry.is_node_pointer, "leaf entry must hold an object"
                    seen_objects += 1
                else:
                    assert entry.is_node_pointer, "directory entry must point to a node"
                    child = self._nodes[entry.child]
                    assert child.level == node.level - 1, "child level mismatch"
                    assert entry.rect == child.mbb(), (
                        f"stale parent rect for child {entry.child}"
                    )
        assert seen_objects == self._size, (
            f"object count mismatch: {seen_objects} in leaves vs size {self._size}"
        )
        # Every non-root node must be reachable exactly once.
        reachable = self._reachable_ids()
        assert reachable == set(self._nodes), "unreachable or dangling nodes exist"
        assert root.level == max(n.level for n in self._nodes.values())

    def _reachable_ids(self) -> Set[int]:
        reachable: Set[int] = set()
        stack = [self._root_id]
        while stack:
            node_id = stack.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            node = self._nodes[node_id]
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)
        return reachable

    # ------------------------------------------------------------------
    # helpers for bulk loaders
    # ------------------------------------------------------------------

    def _adopt_structure(self, root_id: int, size: int) -> None:
        """Install a bulk-built structure (root id + object count)."""
        self._root_id = root_id
        self._size = size
        self._version += 1

    def _pack_level(self, children: Sequence[Node], level: int) -> Node:
        """Pack ``children`` into parents of ``level``; returns the root."""
        current = list(children)
        current_level = level
        while len(current) > 1:
            current_level += 1
            parents: List[Node] = []
            for start in range(0, len(current), self.max_entries):
                chunk = current[start : start + self.max_entries]
                parent = self._new_node(current_level)
                parent.entries = [Entry(child.mbb(), child.node_id) for child in chunk]
                parents.append(parent)
            # Avoid a final parent below minimum fill: rebalance with its
            # left sibling when possible.
            if len(parents) > 1 and len(parents[-1].entries) < self.min_entries:
                deficit = self.min_entries - len(parents[-1].entries)
                donor = parents[-2]
                moved = donor.entries[-deficit:]
                donor.entries = donor.entries[:-deficit]
                parents[-1].entries = moved + parents[-1].entries
            current = parents
        return current[0]
