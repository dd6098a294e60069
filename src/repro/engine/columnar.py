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
makes the kept freeze stale, so the next freeze walks again.  When the
caller hands over that kept freeze as the previous generation, with the
node ids a batch of updates dirtied, every other node's entry rows,
leaf objects (with their ids) and clip run are copied from it.  The
layout itself is derived from it a level at a time: a kept node's leaf
flag, entry count and children are read off its arrays, only the dirty
nodes are read from the tree, once each, and every column is one gather
from the old generation's array and the fresh rows.  Where the fresh
nodes' entry rows and clip runs come from is the clipped tree's to say
(:meth:`ClippedRTree.clip_pass
<repro.rtree.clipped.ClippedRTree.clip_pass>`): the arrays of its last
clip pass — ``clip_all`` over the build's freeze, a compaction's
re-clip of its dirty nodes — or the nodes and the store once that pass
is stale.  A plain tree stacks the nodes read and has no clip runs.  A
compaction thereby pays Python work for the nodes its batch touched,
once each; what grows with the tree is a few array passes.

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
objects with one fancy index of a cached object column.  A compacted
generation derives these from the one it replaces, in the freeze: its
object column always (the freeze assembles the objects as one), and
each padded layout the replaced generation had built, by copying the
kept slots' rows and filling only the fresh ones; a layout never built
is derived on first use, from scratch.  So the replaced generation is
not referenced once the swap has published the new one.

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
from typing import AbstractSet, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cbb.clip_point import _unchecked_clip_point
from repro.cbb.clipping import ClippingConfig
from repro.engine.kernels import (
    expand_segments,
    masks_to_bool,
    object_column,
    rects_of_rows,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.entry import Entry
from repro.rtree.freeze import TreeFreeze, node_rows, tree_freeze
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


def _assembled(
    counts: np.ndarray,
    kept: np.ndarray,
    kept_starts: np.ndarray,
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> List[np.ndarray]:
    """Runs of rows, one per slot, gathered from an earlier generation's column and fresh rows.

    Slot ``i`` gets ``counts[i]`` rows: a ``kept`` slot the run at its
    ``kept_starts`` entry (one per kept slot, in order) of each column's
    ``before`` array, every other slot the next run of its ``fresh``
    rows, which hold the fresh slots' runs back to back in slot order.
    One ``take`` per ``(before, fresh)`` column pair: a compaction pays a
    few array passes, not a Python step per slot or per run.
    """
    source = np.empty(len(counts), dtype=np.int64)
    fresh_counts = counts[~kept]
    source[kept] = kept_starts
    source[~kept] = len(columns[0][0]) + np.cumsum(fresh_counts) - fresh_counts
    rows, _ = expand_segments(source, counts)
    return [np.concatenate((before, fresh)).take(rows, axis=0) for before, fresh in columns]


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


def _refreeze(
    tree: RTreeBase,
    previous: "ColumnarIndex",
    dirty: AbstractSet[int],
    clipped: Optional[ClippedRTree] = None,
) -> Tuple[TreeFreeze, np.ndarray, Optional[np.ndarray], np.ndarray, Optional[tuple]]:
    """``tree``'s freeze, copying from ``previous`` every node outside ``dirty``.

    The layout is built a level at a time from the root.  A slot whose
    node ``previous`` holds and ``dirty`` does not takes its leaf flag,
    entry count and children (a directory's next-level node ids, a
    leaf's objects) from ``previous``'s arrays, with array operations;
    only the other nodes are read from the tree (``tree.node``, once
    each).  So the height may change between the generations: a split
    root, a root that shrank to one of its children, an emptied tree.
    The fresh nodes' entry rows, and their clip runs when ``clipped`` is
    ``tree``'s wrapper, are what its last clip pass made of them
    (:meth:`ClippedRTree.clip_pass
    <repro.rtree.clipped.ClippedRTree.clip_pass>`); a plain tree stacks
    the nodes read.  The kept nodes' rows, objects and, when
    ``previous`` built them, object ids (:meth:`ColumnarIndex.object_oids`)
    are gathered from ``previous``'s arrays (:func:`_assembled`).  The
    objects are assembled as the object column
    (:meth:`ColumnarIndex.take_objects`) and listed from it.

    Returns the freeze; per slot, the slot it was copied from in
    ``previous`` or -1 for a node read; the oid column (None when
    ``previous`` never built its own); the object column; and the fresh
    nodes' clip runs in slot order (None for a plain tree).
    """
    # The slot of every node of ``previous`` that may be copied, by node id.
    order = np.argsort(previous.node_ids)
    sorted_ids = previous.node_ids[order]
    copyable = ~np.isin(sorted_ids, np.fromiter(dirty, dtype=np.int64, count=len(dirty)))

    def slots_before(ids: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1)
        return np.where((sorted_ids[at] == ids) & copyable[at], order[at], -1)

    levels = []  # per level: node ids, slots in previous, leaf flags, entry counts
    read: List[Node] = []  # the nodes read from the tree, in slot order
    frontier = np.array([tree.root_id], dtype=np.int64)
    while len(frontier):
        before = slots_before(frontier)
        fresh = before < 0
        copied = before[~fresh]
        nodes = [tree.node(node_id) for node_id in frontier[fresh].tolist()]
        read.extend(nodes)
        is_leaf = np.empty(len(frontier), dtype=bool)
        counts = np.empty(len(frontier), dtype=np.int64)
        is_leaf[~fresh] = previous.is_leaf[copied]
        counts[~fresh] = previous.entry_count[copied]
        is_leaf[fresh] = [node.is_leaf for node in nodes]
        counts[fresh] = [len(node.entries) for node in nodes]
        levels.append((frontier, before, is_leaf, counts))
        # The next level: the directory slots' children, in slot order.
        child_counts = np.where(is_leaf, 0, counts)
        child_starts = np.cumsum(child_counts) - child_counts
        frontier = np.empty(int(child_counts.sum()), dtype=np.int64)
        kept_directories = ~fresh & ~is_leaf
        rows, _ = expand_segments(
            previous.entry_start[before[kept_directories]], counts[kept_directories]
        )
        at, _ = expand_segments(child_starts[kept_directories], counts[kept_directories])
        frontier[at] = previous.node_ids[previous.entry_child[rows]]
        read_directories = fresh & ~is_leaf
        at, _ = expand_segments(child_starts[read_directories], counts[read_directories])
        frontier[at] = [
            entry.child for node in nodes if not node.is_leaf for entry in node.entries
        ]
    node_ids, previous_slot, is_leaf, entry_count = map(np.concatenate, zip(*levels))
    fresh = previous_slot < 0
    kept = ~fresh

    if clipped is None:
        rows, clips = node_rows(read, tree.dims), None
    else:
        rows, clips = clipped.clip_pass(node_ids[fresh], read)
    entry_lows, entry_highs = _assembled(
        entry_count,
        kept,
        previous.entry_start[previous_slot[kept]],
        [(previous.entry_lows, rows.lows), (previous.entry_highs, rows.highs)],
    )

    # Object i is leaf row ``first_leaf + i`` in both generations, so a
    # leaf slot's objects (and ids) are a run of the object column.
    fresh_objects = [entry.child for node in read if node.is_leaf for entry in node.entries]
    built = previous._object_column
    columns = [
        (object_column(previous.objects) if built is None else built, object_column(fresh_objects))
    ]
    if previous._object_oids is not None:
        fresh_oids = np.fromiter((obj.oid for obj in fresh_objects), np.int64, len(fresh_objects))
        columns.append((previous._object_oids, fresh_oids))
    first_leaf_before = len(previous.entry_child) - len(previous.objects)
    kept_leaves = kept[is_leaf]
    column, *oids = _assembled(
        entry_count[is_leaf],
        kept_leaves,
        previous.entry_start[previous_slot[is_leaf][kept_leaves]] - first_leaf_before,
        columns,
    )
    objects = column.tolist()
    freeze = tree_freeze(
        is_leaf=is_leaf,
        entry_count=entry_count,
        node_ids=node_ids,
        entry_lows=entry_lows,
        entry_highs=entry_highs,
        objects=objects,
    )
    return freeze, previous_slot, oids[0] if oids else None, column, clips


def _padded(
    starts: np.ndarray,
    counts: np.ndarray,
    dims: int,
    values: Callable[[np.ndarray], Sequence[np.ndarray]],
    reuse: Optional[Tuple[tuple, np.ndarray]] = None,
) -> tuple:
    """Slot ``i``'s run of ``counts[i]`` rows from ``starts[i]``, one padded row per slot.

    ``values(rows)`` gives each layout's ``(len(rows), dims)`` values of
    those flat rows; each layout is a C-contiguous ``(dims, n_slots,
    max(counts))`` array, NaN past a slot's own count.  ``reuse``,
    ``(layouts, previous_slot)``, is the same layouts of an earlier
    generation and, per slot, the slot whose run it holds unchanged there
    (-1 for none): those rows are taken from it with one gather per
    layout, over the columns both widths share, and only the other slots
    are filled from ``values``.
    """
    width = int(counts.max())
    if reuse is None:
        slots = np.arange(len(counts), dtype=np.int64)
    else:
        before, previous_slot = reuse
        slots = np.flatnonzero(previous_slot < 0)
    flat, owners = expand_segments(starts[slots], counts[slots])
    owners = slots[owners]
    cells = flat - starts[owners] + owners * width  # in each (n_slots * width) plane
    layouts = []
    for index, rows in enumerate(values(flat)):
        if reuse is None:
            layout = np.full((dims, len(counts), width), np.nan, dtype=np.float64)
        else:
            # Every slot's row where ``previous_slot`` has it (slot 0's for a fresh one).
            layout = before[index].take(np.maximum(previous_slot, 0), axis=1)
            if layout.shape[2] != width:
                common = min(width, layout.shape[2])
                resized = np.full((dims, len(counts), width), np.nan, dtype=np.float64)
                resized[:, :, :common] = layout[:, :, :common]
                layout = resized
            layout[:, slots] = np.nan
        planes = layout.reshape(dims, -1)
        for dim in range(dims):  # a 1-d scatter per plane: numpy's fast path
            planes[dim][cells] = rows[:, dim]
        layouts.append(layout)
    return tuple(layouts)


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
    save writes the objects.  A compaction's freeze
    (:meth:`from_tree` with ``previous``) fills the caches it can derive
    from the generation it replaces — the padded layouts and the oid
    column where that one had them, the object column always — so the
    first read of the new generation does not rebuild them.

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
    ) -> "ColumnarIndex":
        """Freeze ``index`` (a plain or clipped R-tree) into arrays.

        A plain tree snapshots with empty clip arrays, and the executor
        skips the pruning kernel entirely; a clipped tree's clip runs, and
        the entry rows of the nodes read here, are what its last clip pass
        made of them (:meth:`ClippedRTree.clip_pass
        <repro.rtree.clipped.ClippedRTree.clip_pass>`).

        Without ``previous``, the slots, entry rows and objects are the
        tree's freeze (:meth:`RTreeBase.freeze
        <repro.rtree.base.RTreeBase.freeze>`), and only the clip runs are
        gathered here.  The tree keeps its last freeze, stamped with its
        ``version``, and shares the arrays with this snapshot: a tree from
        :func:`~repro.rtree.str_bulk.str_bulk_load` keeps the layout of
        its STR tiling, a clipped tree the walk its :meth:`ClippedRTree.clip_all
        <repro.rtree.clipped.ClippedRTree.clip_all>` took.  Any insert,
        delete or new structure moves the version, and then the tree is
        walked again and keeps that walk; a thawed tree
        (:meth:`to_tree`) starts without one.

        ``previous``, when given, must be the freeze of ``index`` its tree
        kept last (it shares that freeze's arrays; ``ValueError``
        otherwise), taken before the updates that dirtied the node ids
        ``dirty`` (:func:`~repro.engine.incremental_clip.dirty_node_ids`).
        A node ``previous`` holds and ``dirty`` does not has the entries
        and clip points it had then, so its entry rows, leaf objects and
        clip run are copied from ``previous`` with array operations (and
        its objects' ids, when ``previous`` built its
        :meth:`object_oids`); every other node is read from the tree,
        once.  The slot layout is derived from ``previous`` a level at a
        time, so the freeze calls ``tree.node`` only for those nodes and
        walks nothing: its Python work grows with the dirty set, and each
        array costs one gather over the tree.  The tree keeps the result
        as its freeze.  The new snapshot holds its object column, and
        :meth:`node_major` / :meth:`node_major_clips` when ``previous`` had
        built them, derived from ``previous``'s.  Either way the arrays
        are those of a walk of every node.
        """
        clipped = index if isinstance(index, ClippedRTree) else None
        tree: RTreeBase = index if clipped is None else clipped.tree
        dims = tree.dims
        oids = column = clips = None
        if previous is None:
            freeze = tree.freeze()
            previous_slot = np.full(len(freeze.node_ids), -1, dtype=np.int64)
            if clipped is not None:
                _, clips = clipped.clip_pass(freeze.node_ids)
        else:
            if not previous._is_last_freeze_of(index):
                raise ValueError("previous must be the freeze of the same index its tree kept last")
            freeze, previous_slot, oids, column, clips = _refreeze(tree, previous, dirty, clipped)
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
        before = coords, masks = np.empty((0, dims)), np.empty((0, dims), dtype=bool)
        kept_starts = np.empty(0, dtype=np.int64)
        if clips is not None:  # the fresh slots' runs, in slot order
            node_clip_count[fresh] = clips.counts
            coords, masks = clips.coords, masks_to_bool(clips.masks, dims)
            if fresh[0]:  # the root's run leads the fresh runs and goes last
                coords, masks = (np.roll(a, -clips.counts[0], axis=0) for a in (coords, masks))
        kept_run = kept[run]
        if previous is not None:
            node_clip_count[kept] = previous.node_clip_count[previous_slot[kept]]
            before = (previous.clip_coords, previous.clip_is_high)
            kept_starts = previous.node_clip_start[previous_slot[run[kept_run]]]
        run_count = node_clip_count[run]
        clip_coords, clip_is_high = _assembled(
            run_count,
            kept_run,
            kept_starts,
            list(zip(before, (coords, masks))),
        )
        run_start = np.cumsum(run_count) - run_count
        node_clip_start = np.zeros(n_nodes, dtype=np.int64)
        node_clip_start[run] = np.where(run_count > 0, run_start, 0)
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
        snapshot._object_column = column
        if previous is not None:
            # The padded layouts previous built, derived now: no reference
            # to the replaced generation outlives the swap.
            if previous._node_major is not None:
                snapshot._node_major = snapshot._padded_entries(
                    (previous._node_major, previous_slot)
                )
            if previous._node_major_clips is not None:
                snapshot._node_major_clips = snapshot._padded_clips(
                    (previous._node_major_clips, previous_slot)
                )
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

    def _is_last_freeze_of(self, index: Union[RTreeBase, ClippedRTree]) -> bool:
        """True when this snapshot shares the arrays of the freeze ``index``'s tree kept last."""
        last = getattr(index, "tree", index)._freeze
        return self.source is index and last is not None and last[1].node_ids is self.node_ids

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
        memmaps) and costs ≈ 2 ms per 20k objects (2-d, fan-out 48, on a
        2-core host); the result holds ``n_nodes × max_fanout × 16 d``
        bytes.  A compaction whose replaced generation had built it
        derives it in the freeze instead, with one gather of the kept
        slots' rows and a fill of the fresh ones: ≈ 0.6 ms for a
        ``write_compact`` fold of ≈ 180 fresh slots in 650.
        """
        if self._node_major is None:
            self._node_major = self._padded_entries()
        return self._node_major

    def _padded_entries(self, reuse: Optional[Tuple[tuple, np.ndarray]] = None) -> tuple:
        """:meth:`node_major` derived, copying ``reuse``'s kept rows (:func:`_padded`)."""
        return _padded(
            self.entry_start,
            self.entry_count,
            self.dims,
            lambda rows: (self.entry_lows[rows], self.entry_highs[rows]),
            reuse,
        )

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
        result holds ``n_nodes × max_clips × 16 d`` bytes.  As with
        :meth:`node_major`, a compaction derives it from the replaced
        generation's when that one had built it.
        """
        if self._node_major_clips is None:
            self._node_major_clips = self._padded_clips()
        return self._node_major_clips

    def _padded_clips(self, reuse: Optional[Tuple[tuple, np.ndarray]] = None) -> tuple:
        """:meth:`node_major_clips` derived, copying ``reuse``'s kept rows (:func:`_padded`)."""

        def sides(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            coords, is_high = self.clip_coords[rows], self.clip_is_high[rows]
            return np.where(is_high, coords, np.nan), np.where(is_high, np.nan, coords)

        return _padded(self.node_clip_start, self.node_clip_count, self.dims, sides, reuse)

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
