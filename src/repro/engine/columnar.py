"""Columnar snapshots of R-trees (the batch engine's data layout).

A :class:`ColumnarIndex` freezes any :class:`~repro.rtree.base.RTreeBase`
variant — optionally wrapped in a
:class:`~repro.rtree.clipped.ClippedRTree` — into contiguous NumPy
arrays:

* per-node: leaf flag, the ``(start, count)`` slice of its entries, and
  the ``(start, count)`` slice of its own clip points (the root's
  included; a directory entry reaches its child's run through
  ``entry_child``);
* per-entry: rectangle lows/highs and the child (a node slot for
  directory entries, an object index for leaf entries);
* per-clip-point: coordinates and the boolean expansion of the corner
  bitmask.

Nodes are laid out in BFS order from the root (slot 0), so a frontier of
node slots can be expanded level by level with pure array operations; the
executor in :mod:`repro.engine.executor` never touches a Python ``Rect``
on its hot path.

**Construction.**  :meth:`ColumnarIndex.from_tree` is the one freeze.
The slots, entry rows and leaf objects are the tree's freeze
(:mod:`repro.rtree.freeze`): the nodes breadth first from the root, so
the layout fixes ``entry_child`` outright (directory rows lead to slots
``1, 2, …`` in order, leaf rows to objects ``0, 1, …``).  A tree keeps
its last freeze, stamped with its ``version``, and this snapshot shares
its arrays: a tree from :func:`~repro.rtree.str_bulk.str_bulk_load`
keeps the layout of its STR tiling, any other the walk its first
freeze or clip pass took, and an insert, a delete or a new structure
makes the kept freeze stale, so the next freeze walks again.  Only the
clip runs are read here, from the :class:`ClipStore`.  When the caller
hands over the previous generation and the node ids a batch of updates
dirtied, every other node's entry rows, leaf objects (with their ids)
and clip run are copied from that generation with slice copies of the
runs the kept nodes form, and the tree keeps the result.  A compaction
(:meth:`SnapshotManager.compact <repro.engine.delta.SnapshotManager.compact>`)
also hands over what its re-clip made of the dirty nodes — their entry
rows, stacked once, and their clip points as arrays
(:class:`~repro.rtree.clipped.Reclipped`) — and the fresh slots take
both with one gather by node id each, so it reads neither those nodes'
entries nor the store a second time; only a plain tree, which has no
re-clip, stacks its dirty nodes' rows here.  A compaction thereby pays
for the nodes its batch touched, not for the tree, and for each of them
once.

**The tree record, and the thaw.**  Every construction also records what
the arrays cannot say about the tree: a :class:`TreeRecord` of its
variant, node capacity and minimum fill, next node id and clipping
parameters.  :meth:`ColumnarIndex.to_tree` is the freeze run backwards:
it rebuilds that tree — node ids, levels, entry order and clip runs as
the snapshot holds them, nothing re-clipped — from a snapshot with no
tree behind it (a loaded one, or the array-native STR packer's), so a
:class:`~repro.engine.delta.SnapshotManager` over such a snapshot
compacts the one way every manager does.

**Derived state.**  The flat arrays above are the canonical form: they
are what :mod:`repro.engine.snapshot_io` persists and fingerprints, and
what the write path reads.  Everything else is derived from them
on first use, cached on the snapshot object and never written to disk:
the per-slot :meth:`ColumnarIndex.node_bounds` and
:meth:`ColumnarIndex.node_levels` of the STT join, and the two
*node-major* forms, one padded row per node, that the range frontier, the
INLJ (which runs on it), batched kNN and the STT join read.
:meth:`ColumnarIndex.node_major` holds every node's entries padded to the
widest fan-out, one ``(n_nodes, max_fanout)`` array per dimension and
bound, so a frontier level is one row gather and one dense compare per
dimension and bound instead of a gather per entry, and a leaf×leaf pair
is one broadcast compare of two rows.
:meth:`ColumnarIndex.node_major_clips` holds every node's clip points
padded to the widest clip count, one ``(n_nodes, max_clips)`` array per
dimension and side of the corner mask, so the dominance probe of a whole
candidate list is the same row gather and one strict compare per
dimension and side.  Results go the other way through
:meth:`ColumnarIndex.take_objects`, which gathers a whole batch's hit
objects with one fancy index of a cached object column.

**Snapshot semantics / invalidation.**  A snapshot is an immutable copy:
it shares the indexed :class:`SpatialObject` instances with the source
tree, and the read-only arrays of the freeze that tree keeps, but none
of its nodes.  Any ``insert``/``delete`` on the source
tree — and, for clipped trees, any re-clipping — leaves the snapshot
answering queries against the *old* state.  The source's
``version`` counter is recorded at freeze time; check :attr:`is_stale`
(or rebuild via :meth:`refresh`) after mutating the source.
``execute_workload`` and ``execute_join`` re-freeze a stale snapshot
before answering from it; the server's degraded path knowingly answers
from the frozen state and stamps the answer stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cbb.clip_point import _unchecked_clip_point
from repro.cbb.clipping import ClippingConfig
from repro.engine.kernels import (
    expand_segments,
    masks_to_bool,
    object_column,
    rects_of_rows,
    stack_rows,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree, Reclipped
from repro.rtree.entry import Entry
from repro.rtree.freeze import TreeFreeze, bfs_nodes, node_rows, tree_freeze
from repro.rtree.hilbert import HilbertRTree
from repro.rtree.node import Node
from repro.rtree.registry import rtree_class


@dataclass(frozen=True)
class TreeRecord:
    """What a snapshot's tree was: everything :meth:`ColumnarIndex.to_tree` needs.

    The variant (``variant_name`` of the tree class), the node capacity
    and minimum fill, the id the tree would give its next node (node ids
    are never reused, so the arrays cannot tell it), the
    :class:`ClippingConfig` of a clipped tree (None for a plain one) and,
    for a Hilbert R-tree only, its mapper's ``bits`` and reference
    ``space`` (None until the tree has derived one).  A fact of the
    snapshot, written into its manifest; not a setting.
    """

    variant: str
    max_entries: int
    min_entries: int
    next_id: int
    clipping: Optional[ClippingConfig] = None
    hilbert_bits: Optional[int] = None
    hilbert_space: Optional[Rect] = None

    @classmethod
    def of(cls, index: Union[RTreeBase, ClippedRTree]) -> "TreeRecord":
        """The record of ``index`` as it is now."""
        clipped = isinstance(index, ClippedRTree)
        tree = index.tree if clipped else index
        bits = space = None
        if isinstance(tree, HilbertRTree):
            bits = tree._bits
            space = tree._mapper.space if tree._mapper is not None else None
        return cls(
            variant=tree.variant_name,
            max_entries=tree.max_entries,
            min_entries=tree.min_entries,
            next_id=tree._next_id,
            clipping=index.config if clipped else None,
            hilbert_bits=bits,
            hilbert_space=space,
        )

    def __str__(self) -> str:
        clip = "no clip" if self.clipping is None else f"{self.clipping.method} clip"
        return f"{self.variant}, fan-out {self.max_entries}, {clip}"


def _no_clips(node_id: int) -> list:
    """The clip points of a plain tree's node: none."""
    return []


def _copy_runs(
    pairs: List[Tuple[np.ndarray, np.ndarray]],
    dst_starts: np.ndarray,
    src_starts: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Copy run ``i`` of ``counts[i]`` rows from ``src_starts[i]`` to ``dst_starts[i]``.

    For every ``(target, source)`` of ``pairs``.  Runs that continue one
    another on both sides are merged first, and each merged run is one
    slice copy per pair: a compaction keeps most nodes in their order, so
    a few long runs cover most rows.
    """
    if not len(counts):
        return
    ends = dst_starts + counts
    joined = (dst_starts[1:] == ends[:-1]) & (src_starts[1:] == src_starts[:-1] + counts[:-1])
    first = np.flatnonzero(np.concatenate(([True], ~joined)))
    last = np.append(first[1:], len(counts)) - 1
    runs = zip(dst_starts[first].tolist(), src_starts[first].tolist(), ends[last].tolist())
    for dst, src, end in runs:
        for target, source in pairs:
            target[dst:end] = source[src : src + end - dst]


def _pinned(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``array`` as a C-contiguous array of exactly ``dtype``.

    Snapshot arrays have one canonical layout — ``int64``/``float64``/
    ``bool_``, C order — so that on-disk round trips
    (:mod:`repro.engine.snapshot_io`) are bit-exact across platforms.  An
    array that already complies (in particular a read-only ``np.memmap``
    view of a snapshot file) passes through untouched; anything else is
    copied into shape here, never silently downstream.
    """
    return np.ascontiguousarray(array, dtype=dtype)


#: Runs of rows per node, as handed over: ``(node_ids, counts, columns)``,
#: node ``node_ids[i]`` holding the next ``counts[i]`` rows of each column.
NodeRuns = Tuple[np.ndarray, np.ndarray, Sequence[np.ndarray]]


def _take_runs(
    handed: Optional[NodeRuns],
    wanted: np.ndarray,
    read: Callable[[np.ndarray], Tuple[np.ndarray, Sequence[np.ndarray]]],
) -> Tuple[np.ndarray, Sequence[np.ndarray]]:
    """The runs of the node ids ``wanted``, in that order, as ``(counts, columns)``.

    Taken from ``handed``, which must hold every one of them, with one
    gather by id; ``read(wanted)`` gives them in the same form when
    nothing is handed.
    """
    if handed is None:
        return read(wanted)
    node_ids, counts, columns = handed
    position = dict(zip(node_ids.tolist(), range(len(node_ids))))
    try:
        at = np.array([position[node_id] for node_id in wanted.tolist()], dtype=np.int64)
    except KeyError as missing:
        raise ValueError(f"node {missing} is fresh but was not handed over") from None
    starts = np.cumsum(counts) - counts
    rows, _ = expand_segments(starts[at], counts[at])
    return counts[at], [column[rows] for column in columns]


def _stored_clips(
    clips_of: Callable[[int], list], dims: int, node_ids: np.ndarray
) -> Tuple[np.ndarray, Sequence[np.ndarray]]:
    """The clip runs of ``node_ids`` read from a store, as ``(counts, (coords, masks))``."""
    runs = [clips_of(node_id) for node_id in node_ids.tolist()]
    clips = [clip for run in runs for clip in run]
    return np.array([len(run) for run in runs], dtype=np.int64), (
        stack_rows([clip.coord for clip in clips], dims, "clip points"),
        np.array([clip.mask for clip in clips], dtype=np.int64),
    )


def _refreeze(
    tree: RTreeBase, previous: "ColumnarIndex", dirty: AbstractSet[int], handed: Optional[NodeRuns]
) -> Tuple[TreeFreeze, np.ndarray, Optional[np.ndarray]]:
    """``tree``'s freeze, copying from ``previous`` every node outside ``dirty``.

    The other nodes' entry rows are taken from ``handed`` (the re-clip's
    rows, see :meth:`ColumnarIndex.from_tree`), or stacked from the tree
    when nothing is handed.  Also returns, per slot, the slot it was copied
    from in ``previous``, or -1 for a node not copied, and the objects'
    oid column (:meth:`ColumnarIndex.object_oids`) assembled the way the
    objects are: the kept leaves' runs copied from ``previous``'s column,
    the fresh leaves' ids read.  None when ``previous`` never built its
    column (no delete asked for it).
    """
    nodes = bfs_nodes(tree)
    n_nodes = len(nodes)
    is_leaf = np.array([node.is_leaf for node in nodes], dtype=bool)
    node_ids = np.array([node.node_id for node in nodes], dtype=np.int64)
    kept_slot = {
        node_id: slot
        for slot, node_id in enumerate(previous.node_ids.tolist())
        if node_id not in dirty
    }
    previous_rows = previous.entry_start.tolist()
    first_leaf_row = len(previous.entry_child) - len(previous.objects)
    previous_slot = np.empty(n_nodes, dtype=np.int64)
    entry_count = np.empty(n_nodes, dtype=np.int64)
    objects: List[SpatialObject] = []
    fresh_objects: List[SpatialObject] = []
    for slot, node in enumerate(nodes):
        entries = node.entries
        slot_before = kept_slot.get(node.node_id, -1)
        previous_slot[slot] = slot_before
        entry_count[slot] = len(entries)
        if slot_before < 0:
            if node.is_leaf:
                children = [entry.child for entry in entries]
                objects.extend(children)
                fresh_objects.extend(children)
        elif node.is_leaf:
            first = previous_rows[slot_before] - first_leaf_row
            objects.extend(previous.objects[first : first + len(entries)])
    fresh = previous_slot < 0
    kept = ~fresh

    def read(ids: np.ndarray) -> Tuple[np.ndarray, Sequence[np.ndarray]]:
        rows = node_rows([tree.node(node_id) for node_id in ids.tolist()], tree.dims)
        return rows.counts, (rows.lows, rows.highs)

    counts, (lows, highs) = _take_runs(handed, node_ids[fresh], read)
    if not np.array_equal(counts, entry_count[fresh]):
        raise ValueError("the handed entry rows are not those of the tree")
    entry_start = np.cumsum(entry_count) - entry_count
    total_entries = int(entry_count.sum())
    entry_lows = np.empty((total_entries, tree.dims), dtype=np.float64)
    entry_highs = np.empty((total_entries, tree.dims), dtype=np.float64)
    rows, _ = expand_segments(entry_start[fresh], entry_count[fresh])
    entry_lows[rows] = lows
    entry_highs[rows] = highs
    if kept.any():
        _copy_runs(
            [(entry_lows, previous.entry_lows), (entry_highs, previous.entry_highs)],
            entry_start[kept],
            previous.entry_start[previous_slot[kept]],
            entry_count[kept],
        )
    oids = None
    if previous._object_oids is not None:
        # Object i is leaf row ``first_leaf + i``, in both generations.
        first_leaf = total_entries - len(objects)
        oids = np.empty(len(objects), dtype=np.int64)
        kept_leaves, fresh_leaves = kept & is_leaf, fresh & is_leaf
        _copy_runs(
            [(oids, previous._object_oids)],
            entry_start[kept_leaves] - first_leaf,
            previous.entry_start[previous_slot[kept_leaves]] - first_leaf_row,
            entry_count[kept_leaves],
        )
        rows, _ = expand_segments(entry_start[fresh_leaves] - first_leaf, entry_count[fresh_leaves])
        oids[rows] = [obj.oid for obj in fresh_objects]
    freeze = tree_freeze(
        is_leaf=is_leaf,
        entry_count=entry_count,
        node_ids=node_ids,
        entry_lows=entry_lows,
        entry_highs=entry_highs,
        objects=objects,
    )
    return freeze, previous_slot, oids


def slot_levels(
    is_leaf: np.ndarray, entry_start: np.ndarray, entry_child: np.ndarray
) -> np.ndarray:
    """Per-slot tree levels (0 = leaf) of a snapshot's node arrays.

    A directory slot sits one level above its first child.  Starting
    from all zeros, every pass applies that rule to all directory slots
    at once and settles one more level from the leaves up, so it reaches
    the fixpoint in ``height`` passes (and a tree has fewer levels than
    directory slots, which bounds the loop).  Every directory slot must
    hold an entry.
    """
    levels = np.zeros(len(is_leaf), dtype=np.int64)
    directory = np.flatnonzero(~is_leaf)
    first_child = entry_child[entry_start[directory]]
    for _ in range(len(directory)):
        above = levels[first_child] + 1
        if np.array_equal(above, levels[directory]):
            break
        levels[directory] = above
    return levels


class ColumnarIndex:
    """An immutable, array-backed snapshot of one R-tree (+ clip points).

    Build with :meth:`from_tree`; query through
    :func:`repro.engine.executor.range_query_batch` /
    :func:`repro.engine.executor.knn_batch` or the convenience methods
    here.  The snapshot keeps a reference to its source only to implement
    :attr:`is_stale` and :meth:`refresh`; its :attr:`tree_record` (None
    only for a snapshot assembled by hand) is what :meth:`to_tree` and
    :func:`~repro.engine.snapshot_io.save_snapshot` read.

    The constructor arguments are the canonical state.  Four members are
    derived from them lazily and cached, the snapshot being immutable,
    and none is ever persisted: :meth:`node_bounds` and
    :meth:`node_levels` (the STT join) and the two padded layouts,
    :meth:`node_major` (entries: range frontier, INLJ, kNN, STT join) and
    :meth:`node_major_clips` (clip points: all of those but kNN).  A
    fifth, :meth:`object_oids`, is cached the same way from ``objects``:
    the column a delete searches for its row and the form in which a
    save writes the objects.

    **Leaf rows are the objects.**  Directory slots precede leaf slots
    (BFS over a balanced tree), so the leaves' entries are the trailing
    ``len(objects)`` rows of ``entry_lows`` / ``entry_highs`` /
    ``entry_child``, and ``entry_child`` counts ``0 .. len(objects) - 1``
    over them: row ``len(entry_child) - len(objects) + i`` *is* the
    rectangle of ``objects[i]``.  Both constructions (:meth:`from_tree`,
    :func:`~repro.engine.builder.build_columnar_str`) lay the arrays out
    this way; ``snapshot_io`` relies on it to store no object rectangle
    a second time.
    """

    ROOT_SLOT = 0

    def __init__(
        self,
        source: Union[RTreeBase, ClippedRTree, None],
        dims: int,
        is_leaf: np.ndarray,
        entry_start: np.ndarray,
        entry_count: np.ndarray,
        node_ids: np.ndarray,
        entry_lows: np.ndarray,
        entry_highs: np.ndarray,
        entry_child: np.ndarray,
        clip_coords: np.ndarray,
        clip_is_high: np.ndarray,
        node_clip_start: np.ndarray,
        node_clip_count: np.ndarray,
        objects: List[SpatialObject],
        source_version: object,
        tree_record: Optional[TreeRecord] = None,
    ):
        self.source = source
        self.dims = dims
        self.is_leaf = _pinned(is_leaf, np.bool_)
        self.entry_start = _pinned(entry_start, np.int64)
        self.entry_count = _pinned(entry_count, np.int64)
        self.node_ids = _pinned(node_ids, np.int64)
        self.entry_lows = _pinned(entry_lows, np.float64)
        self.entry_highs = _pinned(entry_highs, np.float64)
        self.entry_child = _pinned(entry_child, np.int64)
        self.clip_coords = _pinned(clip_coords, np.float64)
        self.clip_is_high = _pinned(clip_is_high, np.bool_)
        self.node_clip_start = _pinned(node_clip_start, np.int64)
        self.node_clip_count = _pinned(node_clip_count, np.int64)
        self.objects = objects
        self.source_version = source_version
        self.tree_record = tree_record
        # Lazily derived per-slot geometry (cached; the snapshot is immutable).
        self._node_lows: Optional[np.ndarray] = None
        self._node_highs: Optional[np.ndarray] = None
        self._node_levels: Optional[np.ndarray] = None
        self._node_major: Optional[tuple] = None
        self._node_major_clips: Optional[tuple] = None
        self._object_oids: Optional[np.ndarray] = None
        self._object_column: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(
        cls,
        index: Union[RTreeBase, ClippedRTree],
        previous: Optional["ColumnarIndex"] = None,
        dirty: AbstractSet[int] = frozenset(),
        reclipped: Optional[Sequence[Reclipped]] = None,
    ) -> "ColumnarIndex":
        """Freeze ``index`` (a plain or clipped R-tree) into arrays.

        Clip points are taken from the :class:`ClipStore` when ``index``
        is a :class:`ClippedRTree`; a plain tree snapshots with empty clip
        arrays and the executor skips the pruning kernel entirely.

        Without ``previous``, the slots, entry rows and objects are the
        tree's freeze (:meth:`RTreeBase.freeze
        <repro.rtree.base.RTreeBase.freeze>`), and only the clip runs are
        read here.  The tree keeps its last freeze, stamped with its
        ``version``, and shares the arrays with this snapshot: a tree from
        :func:`~repro.rtree.str_bulk.str_bulk_load` keeps the layout of
        its STR tiling, a clipped tree the walk its :meth:`ClippedRTree.clip_all
        <repro.rtree.clipped.ClippedRTree.clip_all>` took.  Any insert,
        delete or new structure moves the version, and then the tree is
        walked again and keeps that walk; a thawed tree
        (:meth:`to_tree`) starts without one.

        ``previous``, when given, is an earlier freeze of the same
        ``index`` that was current before the updates that dirtied the
        node ids ``dirty``
        (:func:`~repro.engine.incremental_clip.dirty_node_ids`).  A node
        ``previous`` holds and ``dirty`` does not has the entries and clip
        points it had then, so its entry rows, leaf objects and clip run
        are copied from ``previous`` with array operations (and its
        objects' ids, when ``previous`` built its :meth:`object_oids`);
        every other node is read from the tree.  The tree keeps the result
        as its freeze.  Either way the arrays are those of a walk of every
        node.

        ``reclipped`` is what the re-clip of those updates made
        (:meth:`ClippedRTree.reclip_nodes
        <repro.rtree.clipped.ClippedRTree.reclip_nodes>`, one
        :class:`~repro.rtree.clipped.Reclipped` per chunk): every node not
        copied from ``previous`` takes its entry rows and clip run from
        it, not from the tree and the store, which hold the same values;
        ``ValueError`` if it lacks one.  Without ``previous`` it is not
        read.
        """
        if isinstance(index, ClippedRTree):
            tree: RTreeBase = index.tree
            clips_of = index.store.get
        else:
            tree = index
            clips_of = _no_clips
        if previous is not None and previous.source is not index:
            raise ValueError("previous must be a freeze of the same index")
        dims = tree.dims
        oids = None
        handed_rows = handed_clips = None
        if previous is None:
            freeze = tree.freeze()
            previous_slot = np.full(len(freeze.node_ids), -1, dtype=np.int64)
        else:
            if reclipped:
                node_ids, row_counts, lows, highs = map(
                    np.concatenate, zip(*(part.rows for part in reclipped))
                )
                clip_counts, coords, masks, _ = map(
                    np.concatenate, zip(*(part.clips for part in reclipped))
                )
                handed_rows = (node_ids, row_counts, (lows, highs))
                handed_clips = (node_ids, clip_counts, (coords, masks))
            freeze, previous_slot, oids = _refreeze(tree, previous, dirty, handed_rows)
            tree.keep_freeze(freeze)
        n_nodes = len(previous_slot)
        fresh = previous_slot < 0
        kept = ~fresh

        # Clip runs, one per node: the slots below the root in slot order
        # (the order the directory entries lead to them in), the root's
        # last — no entry leads to it, but the STT join probes it like
        # any other node (the scalar STT consults the ClipStore for any
        # node pair).  A node without clip points has start 0.
        run = np.roll(np.arange(n_nodes, dtype=np.int64), -1)
        node_clip_count = np.zeros(n_nodes, dtype=np.int64)
        if kept.any():
            node_clip_count[kept] = previous.node_clip_count[previous_slot[kept]]
        fresh_run = run[fresh[run]]
        node_clip_count[fresh_run], (coords, masks) = _take_runs(
            handed_clips, freeze.node_ids[fresh_run], partial(_stored_clips, clips_of, dims)
        )
        run_count = node_clip_count[run]
        run_start = np.cumsum(run_count) - run_count
        node_clip_start = np.zeros(n_nodes, dtype=np.int64)
        node_clip_start[run] = np.where(run_count > 0, run_start, 0)
        total_clips = int(run_count.sum())
        clip_coords = np.empty((total_clips, dims), dtype=np.float64)
        clip_is_high = np.empty((total_clips, dims), dtype=bool)
        rows, _ = expand_segments(node_clip_start[fresh_run], node_clip_count[fresh_run])
        clip_coords[rows] = coords
        clip_is_high[rows] = masks_to_bool(masks, dims)
        if kept.any():
            _copy_runs(
                [(clip_coords, previous.clip_coords), (clip_is_high, previous.clip_is_high)],
                node_clip_start[kept],
                previous.node_clip_start[previous_slot[kept]],
                node_clip_count[kept],
            )
        snapshot = cls(
            source=index,
            dims=dims,
            **freeze._asdict(),
            clip_coords=clip_coords,
            clip_is_high=clip_is_high,
            node_clip_start=node_clip_start,
            node_clip_count=node_clip_count,
            source_version=cls._version_of(index),
            tree_record=TreeRecord.of(index),
        )
        snapshot._object_oids = oids
        return snapshot

    def to_tree(self) -> Union[RTreeBase, ClippedRTree]:
        """Thaw the tree this snapshot was frozen from, without re-clipping.

        The tree of :attr:`tree_record`'s class and parameters gets every
        node back under its own id, level and entry order, and the
        recorded next node id; a clipped record wraps it in a
        :class:`ClippedRTree` whose store holds each node's clip run in
        snapshot order (scores are not kept, the order is).  Directory
        rectangles are rebuilt from the entry rows; leaf entries are the
        snapshot's own objects, gathered in one :meth:`take_objects`
        call.  A Hilbert tree's LHVs are recomputed exactly, where the
        tree that was frozen may have kept looser upper bounds.
        ``ColumnarIndex.from_tree(s.to_tree())`` equals ``s`` array for
        array.
        """
        record = self.tree_record
        if record is None:
            raise ValueError(f"{self!r} has no tree record to thaw a tree from")
        kwargs = {"max_entries": record.max_entries, "min_entries": record.min_entries}
        if record.variant == "hilbert":
            kwargs.update(space=record.hilbert_space, bits=record.hilbert_bits)
        tree = rtree_class(record.variant)(self.dims, **kwargs)
        objects = self.take_objects(np.arange(len(self.objects)))
        first_leaf_row = len(self.entry_child) - len(objects)
        node_ids = self.node_ids.tolist()
        child_ids = [node_ids[slot] for slot in self.entry_child[:first_leaf_row].tolist()]
        rects = rects_of_rows(self.entry_lows[:first_leaf_row], self.entry_highs[:first_leaf_row])
        nodes = {}
        for node_id, level, start, count in zip(
            node_ids,
            self.node_levels().tolist(),
            self.entry_start.tolist(),
            self.entry_count.tolist(),
        ):
            if level == 0:
                first = start - first_leaf_row
                entries = [Entry(obj.rect, obj) for obj in objects[first : first + count]]
            else:
                entries = [
                    Entry(rects[row], child_ids[row]) for row in range(start, start + count)
                ]
            nodes[node_id] = Node(node_id, level, entries)
        tree._nodes = nodes
        tree._adopt_structure(node_ids[self.ROOT_SLOT], len(objects))
        tree._next_id = record.next_id
        if isinstance(tree, HilbertRTree) and tree._mapper is not None and objects:
            tree._refresh_lhv_subtree(tree.root)
        if record.clipping is None:
            return tree
        clipped = ClippedRTree(tree, record.clipping)
        masks = (self.clip_is_high << np.arange(self.dims)).sum(axis=1).tolist()
        points = list(map(_unchecked_clip_point, zip(*self.clip_coords.T.tolist()), masks))
        for node_id, start, count in zip(
            node_ids, self.node_clip_start.tolist(), self.node_clip_count.tolist()
        ):
            if count:
                clipped.store.put(node_id, points[start : start + count])
        return clipped

    @staticmethod
    def _version_of(index: Union[RTreeBase, ClippedRTree, None]) -> object:
        return None if index is None else index.version

    # ------------------------------------------------------------------
    # staleness
    # ------------------------------------------------------------------

    @property
    def is_stale(self) -> bool:
        """True when the source tree has mutated since this freeze.

        Inserts and deletes on the source (and re-clipping, for clipped
        sources) bump its ``version``; a stale snapshot still answers
        queries, but against the state at freeze time.  Snapshots built
        without a source tree (``repro.engine.builder``) are never stale.
        """
        if self.source is None:
            return False
        return self._version_of(self.source) != self.source_version

    def refresh(self) -> "ColumnarIndex":
        """A fresh snapshot of the (possibly mutated) source tree.

        A source-free snapshot (array-native bulk load) has nothing to
        re-freeze and returns itself.
        """
        if self.source is None:
            return self
        return ColumnarIndex.from_tree(self.source)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def has_clips(self) -> bool:
        """True when the snapshot carries any clip points."""
        return len(self.clip_coords) > 0

    def node_bounds(self) -> tuple:
        """Per-slot node MBBs as ``(lows, highs)`` arrays (cached).

        Each slot's bounds are the min/max over its own entries — exactly
        ``Node.mbb()`` of the source node, bit for bit.  An entry-less
        slot (the root of an empty tree) gets a degenerate all-zero box;
        callers must not rely on it (the join executor bails out of empty
        trees before looking).
        """
        if self._node_lows is None:
            n_nodes = len(self.is_leaf)
            if len(self.entry_lows) == 0:
                self._node_lows = np.zeros((n_nodes, self.dims), dtype=np.float64)
                self._node_highs = np.zeros((n_nodes, self.dims), dtype=np.float64)
            else:
                self._node_lows = np.minimum.reduceat(self.entry_lows, self.entry_start)
                self._node_highs = np.maximum.reduceat(self.entry_highs, self.entry_start)
        return self._node_lows, self._node_highs

    def object_oids(self) -> np.ndarray:
        """The objects' ids as one int64 column, ``oids[i] == objects[i].oid`` (cached).

        A loaded snapshot already holds the column (``LazyObjectList.oids``,
        typically a memmap) and hands it over as is, so asking for it
        builds no :class:`SpatialObject`.
        """
        if self._object_oids is None:
            oids = getattr(self.objects, "oids", None)
            if oids is None:
                oids = np.fromiter(
                    (obj.oid for obj in self.objects), dtype=np.int64, count=len(self.objects)
                )
            self._object_oids = oids
        return self._object_oids

    def take_objects(self, rows: np.ndarray) -> List[SpatialObject]:
        """``[objects[i] for i in rows]``, the same instances, as one plain list.

        Every result the engine returns is gathered here, once per batch.
        A list-backed snapshot derives an object array from ``objects`` on
        first use (cached; one fancy index per call gathers it); a loaded
        snapshot's :class:`~repro.engine.snapshot_io.LazyObjectList`
        builds the rows not built yet in one pass
        (:meth:`~repro.engine.snapshot_io.LazyObjectList.take`).
        """
        take = getattr(self.objects, "take", None)
        if take is not None:
            return take(rows)
        if self._object_column is None:
            self._object_column = object_column(self.objects)
        return self._object_column[rows].tolist()

    def node_levels(self) -> np.ndarray:
        """Per-slot tree levels (0 = leaf), cached: :func:`slot_levels`.

        The join executor uses levels to replicate the scalar STT's
        descend-the-deeper-tree rule.
        """
        if self._node_levels is None:
            self._node_levels = slot_levels(self.is_leaf, self.entry_start, self.entry_child)
        return self._node_levels

    def node_major(self) -> tuple:
        """Entry bounds with one padded row per node, as ``(lows, highs)`` (cached).

        Both are float64 arrays of shape ``(dims, n_nodes, max_fanout)``:
        ``lows[dim]`` is a C-contiguous ``(n_nodes, max_fanout)`` matrix
        whose cell ``[slot, j]`` is the bound of the slot's ``j``-th entry,
        i.e. of flat entry ``entry_start[slot] + j``.

        Cells past a node's own fan-out are NaN.  Not ±inf: ``Rect``
        accepts infinite bounds and ``inf <= inf`` holds, so an all-space
        query would match ±inf padding, while every ``<=`` against NaN is
        False — no query can select a padded cell, and neither can the
        other side of a join, whose own padding is NaN too.

        Readers: the per-level step :func:`~repro.engine.executor.expand`
        (the range frontier, the INLJ and both passes of the STT join),
        the STT leaf pass's coordinate gather, and both stages of batched
        kNN (:func:`~repro.engine.executor.gather_knn_hits`, whose MinDist²
        of a NaN cell is NaN and fails every bound).

        Derivation only reads the flat arrays (they may be read-only
        memmaps) and costs a few milliseconds per 20k objects; the result
        holds ``n_nodes × max_fanout × 16 d`` bytes.
        """
        if self._node_major is None:
            flat, owners = expand_segments(self.entry_start, self.entry_count)
            cols = flat - self.entry_start[owners]
            shape = (self.dims, len(self.entry_count), int(self.entry_count.max()))
            lows = np.full(shape, np.nan, dtype=np.float64)
            highs = np.full(shape, np.nan, dtype=np.float64)
            lows[:, owners, cols] = self.entry_lows[flat].T
            highs[:, owners, cols] = self.entry_highs[flat].T
            self._node_major = (lows, highs)
        return self._node_major

    def node_major_clips(self) -> tuple:
        """Clip points with one padded row per node, as ``(high_side, low_side)`` (cached).

        Both are float64 arrays of shape ``(dims, n_nodes, max_clips)``.
        Cell ``[dim, slot, j]`` describes the slot's ``j``-th clip point,
        flat clip ``node_clip_start[slot] + j``: ``high_side`` holds its
        coordinate where bit ``dim`` of its corner mask is set (it clips
        towards the MBB's maximum there) and NaN where it is cleared,
        ``low_side`` the mirror image.  The mask is thereby folded into
        *which array carries the coordinate*, and the probe
        (:func:`~repro.engine.kernels.padded_clip_veto`) is ``p_low >
        high_side`` or-ed with ``p_high < low_side`` with no selector.

        Cells past a node's own clip count are NaN in both arrays.  As in
        :meth:`node_major`, NaN is the one padding no probe can select:
        every compare against it is False, strict ``>`` / ``<`` as much as
        ``<=``, whatever ±inf the probe carries — and ``Rect`` rejects NaN
        bounds, so no real coordinate is mistaken for padding.

        The rows come from the per-node view, root included; a descent
        reaches them through ``entry_child``, the STT join's partner veto
        directly.  Readers: :func:`~repro.engine.executor.expand` (the
        child veto of the range frontier, the INLJ and the STT descent),
        the STT descent's partner veto and its root test.  Only call it
        when :attr:`has_clips`.

        Derivation only reads the flat arrays (they may be read-only
        memmaps) and costs a couple of milliseconds per 30k objects; the
        result holds ``n_nodes × max_clips × 16 d`` bytes.
        """
        if self._node_major_clips is None:
            flat, owners = expand_segments(self.node_clip_start, self.node_clip_count)
            cols = flat - self.node_clip_start[owners]
            shape = (self.dims, len(self.node_clip_count), int(self.node_clip_count.max()))
            high_side = np.full(shape, np.nan, dtype=np.float64)
            low_side = np.full(shape, np.nan, dtype=np.float64)
            coords = self.clip_coords[flat].T
            is_high = self.clip_is_high[flat].T
            high_side[:, owners, cols] = np.where(is_high, coords, np.nan)
            low_side[:, owners, cols] = np.where(is_high, np.nan, coords)
            self._node_major_clips = (high_side, low_side)
        return self._node_major_clips

    def node_count(self) -> int:
        """Number of snapshot node slots."""
        return len(self.is_leaf)

    def __len__(self) -> int:
        return len(self.objects)

    # ------------------------------------------------------------------
    # convenience query wrappers
    # ------------------------------------------------------------------

    def range_query_batch(self, rects: Sequence, stats=None, live=None):
        """See :func:`repro.engine.executor.range_query_batch`."""
        from repro.engine.executor import range_query_batch

        return range_query_batch(self, rects, stats=stats, live=live)

    def knn_batch(self, points: Sequence, k: int, stats=None, live=None):
        """See :func:`repro.engine.executor.knn_batch`."""
        from repro.engine.executor import knn_batch

        return knn_batch(self, points, k, stats=stats, live=live)

    def __repr__(self) -> str:
        return (
            f"ColumnarIndex(nodes={self.node_count()}, objects={len(self.objects)}, "
            f"clips={len(self.clip_coords)}, dims={self.dims})"
        )
