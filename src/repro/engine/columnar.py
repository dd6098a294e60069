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
dimension and side.

**Snapshot semantics / invalidation.**  A snapshot is an immutable copy:
it shares the indexed :class:`SpatialObject` instances with the source
tree but none of its structure.  Any ``insert``/``delete`` on the source
tree — and, for clipped trees, any re-clipping — leaves the snapshot
answering queries against the *old* state.  The source's
``version`` counter is recorded at freeze time; check :attr:`is_stale`
(or rebuild via :meth:`refresh`) after mutating the source.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.engine.kernels import expand_segments, masks_to_bool
from repro.geometry.objects import SpatialObject
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree

#: Stale-snapshot policies accepted by :func:`resolve_stale` (and by the
#: ``stale=`` parameter of ``execute_workload`` / ``execute_join``).
STALE_POLICIES = ("refresh", "raise", "serve")


class StaleSnapshotError(RuntimeError):
    """A columnar snapshot was queried after its source tree mutated.

    Raised by :func:`resolve_stale` under the ``"raise"`` policy; the
    default policy transparently re-freezes instead.
    """


def resolve_stale(snapshot: "ColumnarIndex", policy: str = "refresh") -> "ColumnarIndex":
    """Apply a staleness policy to ``snapshot`` before serving queries.

    * ``"refresh"`` (default) — re-freeze from the mutated source and
      return the fresh snapshot (a no-op when not stale);
    * ``"raise"`` — raise :class:`StaleSnapshotError` when stale;
    * ``"serve"`` — knowingly serve the frozen state (the pre-guard
      behaviour, for callers that batch-amortise refreezes themselves).
    """
    if policy not in STALE_POLICIES:
        raise ValueError(f"unknown stale policy {policy!r}; known: {STALE_POLICIES}")
    if not snapshot.is_stale:
        return snapshot
    if policy == "refresh":
        return snapshot.refresh()
    if policy == "raise":
        raise StaleSnapshotError(
            f"snapshot of {type(snapshot.source).__name__} is stale "
            f"(source version {snapshot._version_of(snapshot.source)!r} != "
            f"frozen {snapshot.source_version!r}); refresh() it or pass "
            "stale='refresh'"
        )
    return snapshot


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


class ColumnarIndex:
    """An immutable, array-backed snapshot of one R-tree (+ clip points).

    Build with :meth:`from_tree`; query through
    :func:`repro.engine.executor.range_query_batch` /
    :func:`repro.engine.executor.knn_batch` or the convenience methods
    here.  The snapshot keeps a reference to its source only to implement
    :attr:`is_stale` and :meth:`refresh`.

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
        # Lazily derived per-slot geometry (cached; the snapshot is immutable).
        self._node_lows: Optional[np.ndarray] = None
        self._node_highs: Optional[np.ndarray] = None
        self._node_levels: Optional[np.ndarray] = None
        self._node_major: Optional[tuple] = None
        self._node_major_clips: Optional[tuple] = None
        self._object_oids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(cls, index: Union[RTreeBase, ClippedRTree]) -> "ColumnarIndex":
        """Freeze ``index`` (a plain or clipped R-tree) into arrays.

        Clip points are taken from the :class:`ClipStore` when ``index``
        is a :class:`ClippedRTree`; a plain tree snapshots with empty clip
        arrays and the executor skips the pruning kernel entirely.
        """
        if isinstance(index, ClippedRTree):
            tree: RTreeBase = index.tree
            store = index.store
        else:
            tree = index
            store = None

        # Pass 1: assign BFS slots (parents before children).
        order: List[int] = []
        slot_of = {}
        queue = deque([tree.root_id])
        while queue:
            node_id = queue.popleft()
            slot_of[node_id] = len(order)
            order.append(node_id)
            node = tree.node(node_id)
            if not node.is_leaf:
                queue.extend(entry.child for entry in node.entries)

        n_nodes = len(order)
        dims = tree.dims
        is_leaf = np.zeros(n_nodes, dtype=bool)
        entry_start = np.zeros(n_nodes, dtype=np.int64)
        entry_count = np.zeros(n_nodes, dtype=np.int64)
        node_ids = np.array(order, dtype=np.int64)

        total_entries = sum(len(tree.node(nid).entries) for nid in order)
        entry_lows = np.empty((total_entries, dims), dtype=np.float64)
        entry_highs = np.empty((total_entries, dims), dtype=np.float64)
        entry_child = np.empty(total_entries, dtype=np.int64)
        node_clip_start = np.zeros(n_nodes, dtype=np.int64)
        node_clip_count = np.zeros(n_nodes, dtype=np.int64)

        objects: List[SpatialObject] = []
        coords: List[tuple] = []
        masks: List[int] = []

        # Pass 2: fill the flat arrays in slot order.
        cursor = 0
        for slot, node_id in enumerate(order):
            node = tree.node(node_id)
            is_leaf[slot] = node.is_leaf
            entry_start[slot] = cursor
            entry_count[slot] = len(node.entries)
            for entry in node.entries:
                entry_lows[cursor] = entry.rect.low
                entry_highs[cursor] = entry.rect.high
                if node.is_leaf:
                    entry_child[cursor] = len(objects)
                    objects.append(entry.child)
                else:
                    entry_child[cursor] = slot_of[entry.child]
                cursor += 1

        # Clip runs, one per node: the slots below the root in slot order
        # (the order the directory entries lead to them in), the root's
        # last — no entry leads to it, but the STT join probes it like
        # any other node (the scalar STT consults the ClipStore for any
        # node pair).
        if store is not None:
            for slot in [*range(1, n_nodes), cls.ROOT_SLOT]:
                clips = store.get(order[slot])
                if clips:
                    node_clip_start[slot] = len(coords)
                    node_clip_count[slot] = len(clips)
                    coords.extend(clip.coord for clip in clips)
                    masks.extend(clip.mask for clip in clips)

        clip_coords = (
            np.array(coords, dtype=np.float64)
            if coords
            else np.empty((0, dims), dtype=np.float64)
        )
        clip_is_high = (
            masks_to_bool(np.array(masks, dtype=np.int64), dims)
            if masks
            else np.empty((0, dims), dtype=bool)
        )
        return cls(
            source=index,
            dims=dims,
            is_leaf=is_leaf,
            entry_start=entry_start,
            entry_count=entry_count,
            node_ids=node_ids,
            entry_lows=entry_lows,
            entry_highs=entry_highs,
            entry_child=entry_child,
            clip_coords=clip_coords,
            clip_is_high=clip_is_high,
            node_clip_start=node_clip_start,
            node_clip_count=node_clip_count,
            objects=objects,
            source_version=cls._version_of(index),
        )

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

    def node_levels(self) -> np.ndarray:
        """Per-slot tree levels (0 = leaf), cached.

        A directory slot sits one level above its first child.  Starting
        from all zeros, every pass applies that rule to all directory
        slots at once and settles one more level from the leaves up, so
        it reaches the fixpoint in ``height`` passes (and a tree has
        fewer levels than directory slots, which bounds the loop).  The
        join executor uses levels to replicate the scalar STT's
        descend-the-deeper-tree rule.
        """
        if self._node_levels is None:
            levels = np.zeros(len(self.is_leaf), dtype=np.int64)
            directory = np.flatnonzero(~self.is_leaf)
            first_child = self.entry_child[self.entry_start[directory]]
            for _ in range(len(directory)):
                above = levels[first_child] + 1
                if np.array_equal(above, levels[directory]):
                    break
                levels[directory] = above
            self._node_levels = levels
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

        Readers: the range frontier and the INLJ built on it
        (:func:`~repro.engine.executor.gather_range_hits`), both stages of
        batched kNN (:func:`~repro.engine.executor.gather_knn_hits`, whose
        MinDist² of a NaN cell is NaN and fails every bound) and both
        stages of the STT join (:mod:`repro.engine.join_exec`).

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

        The rows come from the per-node view, root included; the range
        frontier reaches them through ``entry_child``, the STT join
        directly.  Readers: the range frontier and the INLJ built on it,
        both veto passes of the STT descent and its root test.  Only call
        it when :attr:`has_clips`.

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

    def range_query_batch(self, rects: Sequence, stats=None, access_hook=None, live=None):
        """See :func:`repro.engine.executor.range_query_batch`."""
        from repro.engine.executor import range_query_batch

        return range_query_batch(self, rects, stats=stats, access_hook=access_hook, live=live)

    def knn_batch(self, points: Sequence, k: int, stats=None, live=None):
        """See :func:`repro.engine.executor.knn_batch`."""
        from repro.engine.executor import knn_batch

        return knn_batch(self, points, k, stats=stats, live=live)

    def __repr__(self) -> str:
        return (
            f"ColumnarIndex(nodes={self.node_count()}, objects={len(self.objects)}, "
            f"clips={len(self.clip_coords)}, dims={self.dims})"
        )
