"""Incremental updates behind a frozen snapshot: an LSM-flavored delta overlay.

The columnar snapshots of :mod:`repro.engine.columnar` are immutable.
Writes are absorbed by a small mutable in-memory layer
(:class:`DeltaOverlay`) sitting on top of the frozen snapshot, queries
merge both layers, and a *compaction* makes the next generation — one
fresh snapshot holding the buffered batch, in which only the nodes the
batch dirtied are read from the source tree and every other node is
copied from the generation it replaces (:meth:`SnapshotManager.compact`
lists the steps) — and atomically swaps it in:
the naive → amortized ladder of the treebuffers line of work, applied to
clipped R-trees.  There is one write path; what a freeze per write costs
is measured by running it with ``compact_every=1``.  There is one
compaction path too: a manager with no tree to fold into thaws one
(:meth:`~repro.engine.columnar.ColumnarIndex.to_tree`).  A server runs a
compaction as bounded steps (:meth:`SnapshotManager.compact_step`) between
its batches; the swap is :meth:`SnapshotManager.compact`'s alone.

Layering, from the reader's point of view:

* *base*: the frozen :class:`~repro.engine.columnar.ColumnarIndex`;
* *delta inserts*: a buffer of the objects inserted since the freeze, in
  arrival order — no index: a read batch answers all of its requests
  against all of them in one dense pass (:class:`PendingInserts`), which
  at the few hundred a compaction threshold lets pile up costs less than
  walking any tree once per request;
* *delta deletes*: tombstones against the base.  **A base object's
  identity is its row** — object ``i`` of the snapshot, whose rectangle is
  leaf row ``i`` of the entry columns — so a tombstone is one bit of a
  boolean column, equal duplicates are different rows and need no
  counting, and every reader drops dead hits by indexing that column with
  the row indices its traversal produced, before any object is built.

Query merging: the base batch runs with the overlay's ``live`` column
(:func:`repro.engine.executor.range_query_batch` and friends take it as
data; with no tombstone pending none is passed and the base path is the
unmanaged one), and each request's pending hits follow its base hits in
arrival order.  :class:`~repro.storage.stats.IOStats` count the base's
node accesses only, exactly those of the batch executor: the pending
inserts sit in no node, so reading them charges none.  While a delta is
pending the *results* equal a scalar ``ClippedRTree`` maintained with
the same operations (``tests/test_delta_overlay.py`` pins this
property); after :meth:`SnapshotManager.compact` the served snapshot is
bit-identical to a fresh freeze, so access counts match the scalar
engine exactly again.

Consistency: :class:`SnapshotManager` publishes ``(snapshot, overlay)``
as one tuple replaced by a single attribute assignment — readers grab
the pair once per query batch and never observe a half-applied
compaction, whether it runs in one call or step by step.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.engine import incremental_clip
from repro.engine.columnar import ColumnarIndex
from repro.engine.incremental_clip import dirty_node_ids, reclip_nodes_for_results
from repro.engine.kernels import (
    mask_cells,
    object_column,
    padded_intersect_mask,
    padded_min_dist_sq,
    stack_bounds,
    stack_points,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import JoinResult, check_join_algorithm
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.storage.stats import IOStats

#: Longest stretch of apply work in one :meth:`SnapshotManager.compact_step`,
#: in seconds.
_SLICE_SECONDS = 0.010

#: Cells (requests × pending inserts) per block of a dense pass over the
#: pending inserts: what bounds its working memory, however large the
#: batch and the buffer.
_PENDING_BLOCK_CELLS = 1 << 16


def _leaf_paths(index: ColumnarIndex, rows: Sequence[int]) -> List[List[int]]:
    """Root-to-leaf node ids of the leaves holding objects ``rows`` of ``index``.

    Read off the BFS layout, one ``searchsorted`` per level for all rows
    at once: object ``row`` is leaf row ``first + row`` and lies in the
    slot whose entry run holds that row, and a slot ``s`` below the root
    is led to by directory row ``s - 1``, which lies in its parent's run.
    A balanced tree's leaves reach the root slot together.
    """
    starts = index.entry_start
    first = len(index.entry_child) - len(index.objects)
    slots = np.searchsorted(starts, np.asarray(rows, dtype=np.int64) + first, side="right") - 1
    levels = [slots]
    while len(slots) and slots[0] != ColumnarIndex.ROOT_SLOT:
        slots = np.searchsorted(starts, slots - 1, side="right") - 1
        levels.append(slots)
    return index.node_ids[np.stack(levels[::-1], axis=1)].tolist()


class CompactionInProgressError(RuntimeError):
    """A ``compact`` or ``compact_step`` met one of the fold's steps executing.

    Retry once that step returns.  Writes are never refused: one made
    during a fold lands in the published overlay and is replayed onto the
    fresh one at the swap (see :class:`SnapshotManager`).
    """


class PendingInserts:
    """One read view of the pending inserts: objects and bounds, in arrival order.

    Never changed once built — a write makes the overlay build a new one
    on the next read — so a reader holding it pairs row ``i`` of
    ``lows``/``highs`` with ``objects[i]`` whatever writes land meanwhile.
    The passes below lay the buffer out as one node of a node-major layout
    holding every pending insert, so they run the kernels a frontier
    level runs, densely over every pending insert, in blocks of at most
    ``_PENDING_BLOCK_CELLS`` (request, insert) cells; they count no node
    access, as the buffer has no nodes.  They cost O(requests × pending),
    still less than a scalar tree walk per request at 20 000 pending
    inserts on a 32-query batch; a compaction threshold keeps the buffer
    at a few hundred.
    """

    __slots__ = ("objects", "column", "lows", "highs", "_node", "version")

    def __init__(self, objects: Tuple[SpatialObject, ...], dims: int, version: int):
        self.objects = objects
        #: the same instances as an object array: one gather per batch
        self.column = object_column(objects)
        self.lows, self.highs = stack_bounds(
            list(map(attrgetter("rect"), objects)), dims, "pending inserts"
        )
        #: ``(lows, highs)`` as one node of ``ColumnarIndex.node_major()``'s layout
        self._node = tuple(np.ascontiguousarray(b.T)[:, None, :] for b in (self.lows, self.highs))
        #: the overlay write count this view reflects
        self.version = version

    def __len__(self) -> int:
        return len(self.objects)

    def _blocks(self, requests: int):
        """``(first request, node per request, request indices)`` per block."""
        step = max(1, _PENDING_BLOCK_CELLS // len(self.objects))
        for start in range(0, requests, step):
            stop = min(start + step, requests)
            yield start, np.zeros(stop - start, dtype=np.intp), np.arange(start, stop)

    def intersecting(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(box, row)`` of every pending insert meeting one of the boxes.

        Box-major, rows in arrival order within a box: the row-major cells
        of one :func:`~repro.engine.kernels.padded_intersect_mask` block
        (boxes × pending inserts) per slice of boxes.
        """
        q_lows_t, q_highs_t = np.ascontiguousarray(q_lows.T), np.ascontiguousarray(q_highs.T)
        boxes, rows = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for start, node, queries in self._blocks(len(q_lows)):
            box, row = mask_cells(
                padded_intersect_mask(*self._node, node, q_lows_t, q_highs_t, queries)
            )
            boxes.append(box + start)
            rows.append(row)
        return np.concatenate(boxes), np.concatenate(rows)

    def nearest(self, points: np.ndarray, k: int) -> List[List[Tuple[float, SpatialObject]]]:
        """Each point's ``k`` nearest pending inserts as ``(squared distance, object)``.

        Nearest first, equal distances in arrival order.  The distances are
        :func:`~repro.engine.kernels.padded_min_dist_sq`'s, bit for bit
        ``Rect.min_distance_sq``.  A partition finds each point's ``k``-th
        distance, and one stable sort orders the cells within it.
        """
        n = len(self.objects)
        points_t = np.ascontiguousarray(points.T)
        out: List[List[Tuple[float, SpatialObject]]] = []
        for _, node, queries in self._blocks(len(points)):
            block = padded_min_dist_sq(*self._node, node, points_t, queries)
            kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k] if k < n else np.inf
            cells = np.flatnonzero(block <= kth)
            point, dist = cells // n, block.ravel().take(cells)
            order = np.lexsort((dist, point))  # stable: ties keep arrival order
            point, dist, row = point.take(order), dist.take(order), cells.take(order) % n
            found = np.bincount(point, minlength=len(queries))
            keep = np.arange(len(point)) - (np.cumsum(found) - found).take(point) < k
            pairs = list(zip(dist[keep].tolist(), self.column[row[keep]].tolist()))
            ends = np.cumsum(np.minimum(found, k)).tolist()
            out.extend(pairs[first:end] for first, end in zip([0] + ends, ends))
        return out


class DeltaOverlay:
    """Buffers inserts and deletes against one frozen snapshot.

    Inserts are appended to a list, in arrival order; readers see them
    through :meth:`pending`, an immutable :class:`PendingInserts` view
    built at most once per write.  A delete of a *base* object clears
    that object's bit in :attr:`live` (and remembers the object, its row
    and whether its id is unique in the base, so compaction can replay the
    delete against the source tree along the row's path); deleting
    a pending insert removes its first equal copy (same id and rectangle)
    in arrival order from the buffer.  Compaction folds the buffered
    inserts in arrival order.

    A base object is identified by its row in the snapshot, nothing else.
    :meth:`delete` is the one place a value — the caller's ``(oid,
    rectangle)`` — is translated into a row: the snapshot's oid column
    (:meth:`ColumnarIndex.object_oids`) narrows it to the rows with that
    id, their leaf rows of ``entry_lows`` / ``entry_highs`` to the ones
    with that rectangle, and the first of them still alive is the victim.
    Arrays only: no :class:`SpatialObject` of the base is built or read,
    which on a memory-mapped snapshot would construct every one of them.
    """

    def __init__(self, base: ColumnarIndex):
        self.base = base
        self.dims = base.dims
        #: pending inserts, in arrival order
        self._inserts: List[SpatialObject] = []
        #: bumped after every change to ``_inserts``; names the view it matches
        self._version = 0
        self._view: Optional[PendingInserts] = None
        #: tombstones: ``live[i]`` is False once base object ``i`` is deleted.
        #: None until the first delete: readers then pass the base no mask.
        self.live: Optional[np.ndarray] = None
        self._deleted_objects: List[SpatialObject] = []
        #: per base deletion, its row and whether no other base row has its id
        self._deleted_rows: List[Tuple[int, bool]] = []
        self.ops = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _check_object(self, obj: SpatialObject) -> None:
        # A Rect has ``dims`` too; buffered, it would fail every later read.
        if not isinstance(obj, SpatialObject):
            raise TypeError(f"the overlay buffers SpatialObjects, got {type(obj).__name__}")
        if obj.dims != self.dims:
            raise ValueError(f"object has {obj.dims} dims, overlay expects {self.dims}")

    def insert(self, obj: SpatialObject) -> None:
        """Buffer one insertion."""
        self._check_object(obj)
        self._inserts.append(obj)
        self._version += 1
        self.ops += 1

    def delete(self, obj: SpatialObject) -> bool:
        """Buffer one deletion; False when no live copy of ``obj`` exists."""
        self._check_object(obj)
        oid, rect = obj.oid, obj.rect
        for index, pending in enumerate(self._inserts):
            if pending.oid == oid and pending.rect == rect:
                del self._inserts[index]
                self._version += 1
                self.ops += 1
                return True
        located = self._live_base_row(obj)
        if located is None:
            return False
        if self.live is None:
            self.live = np.ones(len(self.base.objects), dtype=bool)
        self.live[located[0]] = False
        self._deleted_objects.append(obj)
        self._deleted_rows.append(located)
        self.ops += 1
        return True

    def _live_base_row(self, obj: SpatialObject) -> Optional[Tuple[int, bool]]:
        """The first live base row equal to ``obj`` (id and rectangle), or None.

        Paired with whether it is the only base row with ``obj``'s id.
        """
        base, live = self.base, self.live
        low, high = obj.rect.low, obj.rect.high
        # The leaves' entries are the trailing rows of the entry columns.
        first = len(base.entry_child) - len(base.objects)
        # One compare over the oid column, then the few rows sharing the id.
        rows = np.flatnonzero(base.object_oids() == obj.oid).tolist()
        for row in rows:
            if (
                (live is None or live[row])
                and tuple(base.entry_lows[first + row]) == low
                and tuple(base.entry_highs[first + row]) == high
            ):
                return row, len(rows) == 1
        return None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def pending(self) -> PendingInserts:
        """The read view of the pending inserts (cached until the next write).

        Lock-free against a writer: the count is read before the list is
        copied, and a writer bumps it only after changing the list, so the
        copy holds at least every write the count names; one holding more
        is rebuilt by the next read after the bump.
        """
        version = self._version
        view = self._view
        if view is None or view.version != version:
            view = self._view = PendingInserts(tuple(self._inserts), self.dims, version)
        return view

    @property
    def is_empty(self) -> bool:
        """True when no write has been buffered since the last freeze."""
        return not self._inserts and not self._deleted_objects

    @property
    def deleted_count(self) -> int:
        """Total pending base tombstones (one per deleted row)."""
        return len(self._deleted_objects)

    def live_count(self) -> int:
        """Objects visible through base + delta."""
        return len(self.base.objects) - self.deleted_count + len(self._inserts)

    def deleted_objects(self) -> List[SpatialObject]:
        """The buffered base deletions, in arrival order (for compaction)."""
        return list(self._deleted_objects)

    def deleted_rows(self) -> List[Tuple[int, bool]]:
        """Per buffered base deletion, ``(its row, no other base row has its id)``."""
        return list(self._deleted_rows)

    def inserted_objects(self) -> List[SpatialObject]:
        """The pending inserts, in arrival order (for compaction)."""
        return list(self._inserts)

    def live_base_objects(self) -> List[SpatialObject]:
        """The base objects no tombstone covers, in row order."""
        if self.live is None:
            return list(self.base.objects)
        return self.base.take_objects(np.flatnonzero(self.live))


@dataclass
class CompactionStats:
    """What one :meth:`SnapshotManager.compact` call did."""

    applied_inserts: int = 0
    applied_deletes: int = 0
    reclipped_nodes: int = 0
    seconds: float = 0.0


@dataclass
class _Fold:
    """One compaction in flight: its input, and what its steps have made so far."""

    base: ColumnarIndex
    deletes: List[SpatialObject]
    inserts: List[SpatialObject]
    #: per delete, ``(its row of base, no other row of base has its id)``
    located: List[Tuple[int, bool]] = field(default_factory=list)
    start: float = field(default_factory=time.perf_counter)
    previous: Optional[ColumnarIndex] = None  # the generation the freeze may copy from
    dirty: Set[int] = field(default_factory=set)  # what the apply dirtied, once it is done
    reclipped_nodes: int = 0
    written: bool = False  # a write reached the source tree
    whole: bool = False  # set by compact(): the re-clip left runs in one call
    steps: Iterator[bool] = iter(())
    #: the writes made since its input was copied, in order, as
    #: ``(DeltaOverlay.insert or DeltaOverlay.delete, object)``
    log: List[Tuple[Callable, SpatialObject]] = field(default_factory=list)


class SnapshotManager:
    """Serves a frozen snapshot while absorbing writes, LSM-style.

    Writes buffer in a :class:`DeltaOverlay`; queries merge base and
    delta; :meth:`compact` — called by hand, by a server, or after every
    ``compact_every`` buffered writes — makes the next generation and
    atomically swaps the published state.  ``compact_every=1`` is a
    freeze per write, the baseline the update experiments measure.

    Sources may be a :class:`~repro.rtree.clipped.ClippedRTree`, a plain
    :class:`~repro.rtree.base.RTreeBase`, or a
    :class:`~repro.engine.columnar.ColumnarIndex` (a tree-backed snapshot
    unwraps to its source).  Every generation is made one way: the batch
    is folded into the tree (buffered deletes, then inserts, with no
    per-update re-clipping), the nodes that dirtied are re-clipped once
    (§IV-D) and read into the next freeze, which copies every other node
    from the generation it replaces.  A manager with no tree — given a
    snapshot loaded from disk (a server started on a snapshot directory)
    or STR-packed straight into arrays — thaws one from the published
    snapshot (:meth:`ColumnarIndex.to_tree
    <repro.engine.columnar.ColumnarIndex.to_tree>`) at its first
    compaction, clip points included, and folds into it from then on.

    Concurrency contract (what a compacting server relies on): a *fold*
    is in flight from its first :meth:`compact_step` to the swap of
    :meth:`compact`, and writes may come between two steps or race one
    from another thread.  Every write, insert or delete, then goes to the
    published overlay exactly as it would outside a fold — every read
    sees it from the moment it is acknowledged, and a delete returns the
    same bool — and is appended to the fold's log as well.  The swap
    replays the log in order onto the fresh overlay before publishing it
    (a delete matches by value, so it finds its object whether the fold
    moved it into the base or not); after a failure the old overlay stays
    published and already holds every write.  So a write is never dropped,
    never invisible and never applied twice.  Only a ``compact`` or
    ``compact_step`` while a step is executing raises
    :class:`CompactionInProgressError`.  ``compaction_fault_hook`` (chaos
    testing) is an optional callable invoked once per fold, in its first
    step, *before* the source is mutated; raising from it models a
    rebuild crash.
    Readers are lock-free throughout: they grab the published
    ``(snapshot, overlay)`` tuple once per batch.
    """

    def __init__(
        self,
        source: Union[RTreeBase, ClippedRTree, ColumnarIndex],
        update_engine: str = "delta",  # only "delta": perf/workloads.py passes it (ROADMAP item 1)
        compact_every: Optional[int] = None,
    ):
        if update_engine != "delta":
            raise ValueError(f"unknown update engine {update_engine!r}; the only one is 'delta'")
        if compact_every is not None and compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        snapshot = source if isinstance(source, ColumnarIndex) else ColumnarIndex.from_tree(source)
        #: The tree generations are folded into; None until a compaction
        #: thaws one from the published snapshot.
        self._source = snapshot.source
        self.compact_every = compact_every
        self.epoch = 0
        self.total_compactions = 0
        self.total_reclipped_nodes = 0
        #: chaos hook: called once per compaction, pre-mutation (see class doc).
        self.compaction_fault_hook = None
        self._write_lock = threading.Lock()
        self._fold: Optional[_Fold] = None  # from its first step to its swap or failure
        self._stepping = False  # one of its steps is executing
        self._view: Tuple[ColumnarIndex, DeltaOverlay] = (snapshot, DeltaOverlay(snapshot))

    # ------------------------------------------------------------------
    # published state
    # ------------------------------------------------------------------

    @property
    def view(self) -> Tuple[ColumnarIndex, DeltaOverlay]:
        """The current ``(snapshot, overlay)`` pair (one consistent read)."""
        return self._view

    @property
    def snapshot(self) -> ColumnarIndex:
        """The currently served frozen snapshot."""
        return self._view[0]

    @property
    def overlay(self) -> DeltaOverlay:
        """The overlay buffering writes since the last freeze."""
        return self._view[1]

    @property
    def pending_ops(self) -> int:
        """Writes buffered since the last compaction."""
        return self.overlay.ops

    def __len__(self) -> int:
        return self.overlay.live_count()

    def live_objects(self) -> List[SpatialObject]:
        """Every object currently visible (base minus tombstones, plus delta)."""
        overlay = self.overlay
        return overlay.live_base_objects() + overlay.inserted_objects()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> None:
        """Insert one object; during a fold too (see the class doc).

        Raises ``TypeError`` for anything but a :class:`SpatialObject` and
        ``ValueError`` for one of the wrong dimensionality.
        """
        self._write(DeltaOverlay.insert, obj)

    def delete(self, obj: SpatialObject) -> bool:
        """Delete one object; False when it is not (visibly) indexed.

        Raises ``TypeError`` for anything but a :class:`SpatialObject` and
        ``ValueError`` for one of the wrong dimensionality, like
        :meth:`insert`.  During a fold it answers as it would outside one,
        and the swap keeps what it did (see the class doc).
        """
        return self._write(DeltaOverlay.delete, obj)

    def _write(self, op: Callable, obj: SpatialObject) -> bool:
        """``op`` on the published overlay; logged for the fold in flight, if any."""
        with self._write_lock:
            overlay = self._view[1]
            done = op(overlay, obj) is not False  # an insert returns None
            fold = self._fold
            if fold is not None:
                if done:
                    fold.log.append((op, obj))
                return done
        every = self.compact_every
        if done and every is not None and overlay.ops >= every:
            self.compact()
        return done

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    @property
    def compacting(self) -> bool:
        """True from a fold's first step until its swap or its failure."""
        return self._fold is not None

    def compact_step(self) -> bool:
        """Do the next bounded step of the fold in flight; True while steps remain.

        Starts a fold when none is running.  A step is the thaw, one
        ``_SLICE_SECONDS`` slice of the apply or one ``_RECLIP_CHUNK_NODES``
        chunk of the re-clip; after the last, only :meth:`compact`'s freeze
        and swap are left.  Readers see nothing of a step, and one that
        fails ends the fold like a failed :meth:`compact`.
        """
        fold = self._claim()
        if fold is None:
            return False
        more = None
        try:
            more = next(fold.steps, False)
        finally:
            self._release(fold, ended=more is None)  # a failed step ends the fold
        return more

    def compact(self) -> CompactionStats:
        """Fold the pending delta into the source and swap in a new freeze.

        Four steps, after a thaw when the manager holds no tree
        (:meth:`ColumnarIndex.to_tree
        <repro.engine.columnar.ColumnarIndex.to_tree>` of the published
        snapshot, which the buffered writes were made against):

        1. apply the buffered deletes, then inserts, each in arrival
           order, to the source tree, *without* per-update re-clipping.
           A delete goes down the root-to-leaf path its tombstoned row
           has in the generation being replaced (read off its BFS layout
           once per fold), checked before use; it searches the tree
           (``RTreeBase._find_leaf``) only for an object whose id other
           base rows share, a path an earlier delete's condense-tree broke,
           or a fold over a thawed tree.  Each write refreshes its
           ancestors up to the first parent entry it leaves unchanged;
        2. collect what the applies changed into one dirty set
           (:func:`~repro.engine.incremental_clip.dirty_node_ids`);
        3. re-clip the dirty nodes once
           (:func:`~repro.engine.incremental_clip.reclip_nodes_for_results`,
           in chunks when stepped), which stacks their entry rows once; the
           clipped tree records the rows and clip arrays of every chunk
           as its last clip pass;
        4. freeze: :meth:`ColumnarIndex.from_tree` copies every node the
           batch left alone from the generation being replaced — when that
           generation is the freeze this tree kept last and was current as
           the fold started — and takes the dirty nodes' entry rows and
           clip runs from that record (a plain tree's freeze stacks them
           from the nodes); otherwise (a thawed tree, a source mutated
           from outside) it reads every node and every clip run.

        This call runs what :meth:`compact_step` has left of steps 1–3 (the
        re-clip left in one call), then freezes and swaps: it alone
        publishes, the same snapshot however the fold was stepped.  With
        nothing left to fold — nothing buffered, or writes that cancelled
        out — it publishes nothing and clears the pending count.  A failed
        fold leaves the view as it was; a source tree it wrote to is ahead
        of the view and dropped, so the next fold thaws the published
        snapshot and folds the same delta into it exactly once.
        """
        fold = self._claim()
        if fold is None:
            return CompactionStats()
        fresh: Optional[ColumnarIndex] = None
        try:
            fold.whole = True
            for _ in fold.steps:
                pass
            fresh = ColumnarIndex.from_tree(self._source, fold.previous, fold.dirty)
        finally:
            self._release(fold, True, fresh)
        seconds = time.perf_counter() - fold.start
        return CompactionStats(len(fold.inserts), len(fold.deletes), fold.reclipped_nodes, seconds)

    def _claim(self) -> Optional[_Fold]:
        """The fold in flight or a new one, marked as stepping; None if nothing is left."""
        with self._write_lock:
            if self._stepping:
                raise CompactionInProgressError("a compaction step is already running")
            if self._fold is None:
                overlay = self.overlay
                # The input: what the fold's log starts after.
                fold = _Fold(
                    overlay.base,
                    overlay.deleted_objects(),
                    overlay.inserted_objects(),
                    overlay.deleted_rows(),
                )
                if not fold.deletes and not fold.inserts:
                    # The buffered writes cancelled out (an insert deleted
                    # again): nothing to fold, and nothing is pending either.
                    overlay.ops = 0
                    return None
                fold.steps = self._fold_steps(fold)
                self._fold = fold
            self._stepping = True
            return self._fold

    def _release(self, fold: _Fold, ended: bool, fresh: Optional[ColumnarIndex] = None) -> None:
        """End a step, and the fold if ``ended``: publish ``fresh`` plus its log, or drop both."""
        with self._write_lock:
            self._stepping = False
            if not ended:
                return
            self._fold = None
            if fresh is not None:
                self.total_compactions += 1
                self.total_reclipped_nodes += fold.reclipped_nodes
                overlay = DeltaOverlay(fresh)
                for op, obj in fold.log:
                    op(overlay, obj)
                self._view = (fresh, overlay)  # one assignment: readers see both or neither
                self.epoch += 1
            elif fold.written:
                self._source = None  # ahead of the view: the next fold thaws the view

    def _fold_steps(self, fold: _Fold) -> Iterator[bool]:
        """Steps 1–3 of ``fold`` (see :meth:`compact`), suspended between two."""
        hook = self.compaction_fault_hook
        if hook is not None:
            # Pre-mutation crash point: failing here leaves the source tree
            # untouched, so a retry re-applies the full delta exactly once.
            hook()
        base, source = fold.base, self._source
        if source is None:
            source = self._source = base.to_tree()
            yield True
        # The generation the fold starts from vouches for the nodes the fold
        # leaves alone only if it is the freeze this very tree kept last, not
        # mutated behind the manager's back since.
        fold.previous = base if base._is_last_freeze_of(source) and not base.is_stale else None
        clipped = source if isinstance(source, ClippedRTree) else None
        tree = clipped.tree if clipped is not None else source
        hints: List[Optional[List[int]]] = [None] * len(fold.deletes)
        if fold.previous is not None and fold.located:
            rows, alone = zip(*fold.located)
            paths = _leaf_paths(fold.previous, rows)
            hints = [path if unique else None for path, unique in zip(paths, alone)]
        writes = [partial(tree._delete_at, obj, hint) for obj, hint in zip(fold.deletes, hints)]
        writes += [partial(tree.insert, obj) for obj in fold.inserts]
        results = []
        fold.written = True
        slice_end = time.perf_counter() + _SLICE_SECONDS
        for write in writes:
            if results and time.perf_counter() >= slice_end:
                yield True
                slice_end = time.perf_counter() + _SLICE_SECONDS
            results.append(write())
        yield True
        dirty = fold.dirty = dirty_node_ids(results, tree)
        if clipped is None:
            return
        live = sorted(node_id for node_id in dirty if tree.has_node(node_id))
        chunk = dirty.difference(live)  # the dead ids go with the first chunk
        while True:
            take = len(live) if fold.whole else incremental_clip._RECLIP_CHUNK_NODES
            chunk.update(live[:take])
            live = live[take:]
            fold.reclipped_nodes += reclip_nodes_for_results(clipped, chunk)
            if not live:
                return
            yield True
            chunk = set()

    # ------------------------------------------------------------------
    # queries (base ∪ delta, tombstones filtered)
    # ------------------------------------------------------------------

    def range_query_batch(
        self, rects: Sequence[Rect], stats: Optional[IOStats] = None
    ) -> List[List[SpatialObject]]:
        """Per-query result lists over base + delta (deletes filtered).

        Each list holds the base's hits, then the pending inserts the query
        meets in arrival order, all of them from one dense pass over the
        buffer (:meth:`PendingInserts.intersecting`).
        """
        snapshot, overlay = self._view
        rects = list(rects)
        results = snapshot.range_query_batch(rects, stats=stats, live=overlay.live)
        pending = overlay.pending()
        if len(pending) and rects:
            query, row = pending.intersecting(*stack_bounds(rects, snapshot.dims))
            hits = pending.column[row].tolist()
            counts = np.bincount(query, minlength=len(rects))
            ends = np.cumsum(counts)
            for i in np.flatnonzero(counts).tolist():
                results[i] = results[i] + hits[ends[i] - counts[i] : ends[i]]
        return results

    def range_query(
        self, rect: Rect, stats: Optional[IOStats] = None
    ) -> List[SpatialObject]:
        """Single-query convenience wrapper over :meth:`range_query_batch`."""
        return self.range_query_batch([rect], stats=stats)[0]

    def knn_batch(
        self,
        points: Sequence[Sequence[float]],
        k: int,
        stats: Optional[IOStats] = None,
    ) -> List[List[Tuple[float, SpatialObject]]]:
        """Per-point ``(squared distance, object)`` lists over base + delta.

        The base returns each point's ``k`` nearest live objects (it
        searches past the tombstones, see
        :func:`repro.engine.executor.knn_batch`), one dense pass over the
        buffer each point's ``k`` nearest pending inserts
        (:meth:`PendingInserts.nearest`); a stable sort merges the two,
        base first on equal distance, and keeps ``k``.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        snapshot, overlay = self._view
        points = list(points)
        # Here, not in a layer: an empty base is skipped.
        stacked = stack_points(points, snapshot.dims)
        base_hits = (
            snapshot.knn_batch(points, k, stats=stats, live=overlay.live)
            if len(snapshot.objects)
            else [[] for _ in points]
        )
        pending = overlay.pending()
        if not len(pending) or not points:
            return base_hits
        merged: List[List[Tuple[float, SpatialObject]]] = []
        for hits, near in zip(base_hits, pending.nearest(stacked, k)):
            hits = hits + near
            hits.sort(key=itemgetter(0))
            merged.append(hits[:k])
        return merged


# ----------------------------------------------------------------------
# joins over managed (base + delta) inputs
# ----------------------------------------------------------------------


def _join_side(index) -> Tuple[ColumnarIndex, Optional[np.ndarray], Optional[PendingInserts]]:
    """``(base snapshot, its tombstones if any, its pending inserts if managed)``.

    A tree is frozen here; a snapshot joins as it is, stale or not.
    """
    if isinstance(index, SnapshotManager):
        snapshot, overlay = index.view
        return snapshot, overlay.live, overlay.pending()
    if isinstance(index, ColumnarIndex):
        return index, None, None
    return ColumnarIndex.from_tree(index), None, None


def _probe_pairs(
    probes: Sequence[SpatialObject],
    snapshot: ColumnarIndex,
    live: Optional[np.ndarray],
    pending: Optional[PendingInserts],
    stats: IOStats,
    collect_pairs: bool,
    swap: bool = False,
) -> Tuple[int, List[Tuple[SpatialObject, SpatialObject]]]:
    """INLJ ``probes`` against one side: ``(pair count, pairs)``.

    The base join runs with the side's tombstones ``live``; the probes
    also join its ``pending`` inserts (callers covering delta×delta
    elsewhere pass None), in one dense pass that charges ``stats``
    nothing.  Pairs are built only when ``collect_pairs``; ``swap`` flips
    their orientation (probe second).
    """
    # Looked up per call, like ``stt_batch`` below: a traced run patches
    # the module attributes, and a name bound at import would escape it.
    from repro.engine.join_exec import inlj_batch

    probes = list(probes)
    base = inlj_batch(probes, snapshot, collect_pairs=collect_pairs, live=live)
    stats.merge(base.inner_stats)
    count = base.pair_count
    pairs = [(r, l) for l, r in base.pairs] if swap else base.pairs
    if pending is not None and len(pending) and probes:
        probe, row = pending.intersecting(
            *stack_bounds(list(map(attrgetter("rect"), probes)), snapshot.dims, "probes")
        )
        count += len(probe)
        if collect_pairs and len(probe):
            outer = object_column(probes)[probe].tolist()
            inner = pending.column[row].tolist()
            pairs.extend(zip(inner, outer) if swap else zip(outer, inner))
    return count, pairs


def overlay_join(
    left,
    right,
    algorithm: str = "stt",
    collect_pairs: bool = True,
) -> JoinResult:
    """Spatial join of batched inputs: any mix of trees, snapshots and managers.

    The base×base portion runs through the columnar batch joins with
    each managed side's tombstones, and each side's pending inserts probe
    the opposite side's live view: its base through the INLJ, its
    pending inserts through one dense pass over the buffer.  Pair sets
    equal a scalar join over both sides' live objects; ``outer_stats`` /
    ``inner_stats`` accumulate the node accesses charged to the left and
    right bases respectively — the pending inserts sit in no node and
    charge none.  With no pending delta the result is the batch join's,
    pair for pair and access for access.
    ``collect_pairs=False`` reaches the batch joins, which then build no
    pair objects.  A snapshot joins as it is, stale or not:
    :func:`repro.join.execute_join` re-freezes a stale one before it
    calls here, and the server's degraded path serves its base unchanged.
    """
    from repro.engine.join_exec import stt_batch

    check_join_algorithm(algorithm)
    if algorithm == "inlj":
        if isinstance(left, SnapshotManager):
            probes: Sequence[SpatialObject] = left.live_objects()
        else:
            probes = list(left)
        result = JoinResult()
        result.pair_count, result.pairs = _probe_pairs(
            probes, *_join_side(right), result.inner_stats, collect_pairs
        )
        return result

    l_snap, l_live, l_pending = _join_side(left)
    r_snap, r_live, r_pending = _join_side(right)
    result = stt_batch(
        l_snap, r_snap, collect_pairs=collect_pairs, left_live=l_live, right_live=r_live
    )
    # deltaL × (baseR live + deltaR): probe the full right view.
    if l_pending is not None and len(l_pending):
        count, pairs = _probe_pairs(
            l_pending.objects, r_snap, r_live, r_pending, result.inner_stats, collect_pairs
        )
        result.pair_count += count
        result.pairs.extend(pairs)
    # deltaR × baseL live only — deltaL × deltaR was covered just above.
    if r_pending is not None and len(r_pending):
        count, pairs = _probe_pairs(
            r_pending.objects, l_snap, l_live, None, result.outer_stats, collect_pairs,
            swap=True,
        )
        result.pair_count += count
        result.pairs.extend(pairs)
    return result
