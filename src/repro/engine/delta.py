"""Incremental updates behind a frozen snapshot: an LSM-flavored delta overlay.

The columnar snapshots of :mod:`repro.engine.columnar` are immutable.
Writes are absorbed by a small mutable in-memory layer
(:class:`DeltaOverlay`) sitting on top of the frozen snapshot, queries
merge both layers, and a *compaction* makes the next generation — one
fresh snapshot holding the buffered batch — and atomically swaps it in:
the naive → amortized ladder of the treebuffers line of work, applied to
clipped R-trees.  There is one write path; what a freeze per write costs
is measured by running it with ``compact_every=1``.

Layering, from the reader's point of view:

* *base*: the frozen :class:`~repro.engine.columnar.ColumnarIndex`;
* *delta inserts*: a :class:`~repro.rtree.quadratic.QuadraticRTree`
  holding objects inserted since the freeze;
* *delta deletes*: tombstones against the base.  **A base object's
  identity is its row** — object ``i`` of the snapshot, whose rectangle is
  leaf row ``i`` of the entry columns — so a tombstone is one bit of a
  boolean column, equal duplicates are different rows and need no
  counting, and every reader drops dead hits by indexing that column with
  the row indices its traversal produced, before any object is built.

Query merging: the base batch runs with the overlay's ``live`` column
(:func:`repro.engine.executor.range_query_batch` and friends take it as
data; with no tombstone pending none is passed and the base path is the
unmanaged one), overlay hits are unioned in, and I/O statistics
accumulate into the same :class:`~repro.storage.stats.IOStats` (base
accesses through the batch executor, overlay accesses through the scalar
traversal of the small delta tree).  While a delta is pending the
*results* equal a scalar ``ClippedRTree`` maintained with the same
operations (``tests/test_delta_overlay.py`` pins this property); after
:meth:`SnapshotManager.compact` the served snapshot is bit-identical to
a fresh freeze, so access counts match the scalar engine exactly again.

Consistency: :class:`SnapshotManager` publishes ``(snapshot, overlay)``
as one tuple replaced by a single attribute assignment — readers grab
the pair once per query batch and never observe a half-applied
compaction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.builder import build_columnar_str
from repro.engine.columnar import ColumnarIndex
from repro.engine.incremental_clip import reclip_nodes_for_results
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import JoinResult, check_join_algorithm
from repro.query.knn import knn_query
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.quadratic import QuadraticRTree
from repro.storage.stats import IOStats

#: Longest stretch of apply work :meth:`SnapshotManager.compact` does
#: between two calls of its ``pause`` hook, in seconds.
_SLICE_SECONDS = 0.010

#: Fan-out of the overlay's insert tree.
_OVERLAY_MAX_ENTRIES = 16


class CompactionInProgressError(RuntimeError):
    """A write raced a running :meth:`SnapshotManager.compact`.

    Raised for operations that cannot be staged safely (``delete``, a
    reentrant ``compact``) — the caller should retry after the swap.
    Concurrent *inserts* are never refused: they join the overlay being
    folded and are staged for the fresh one, so a write accepted by the
    manager is readable at once and never silently dropped.
    """


class DeltaOverlay:
    """Buffers inserts and deletes against one frozen snapshot.

    Inserts go into a small mutable R-tree.  A delete of a *base* object
    clears that object's bit in :attr:`live` (and remembers the object so
    compaction can replay the delete against the source tree); deleting
    an object that only lives in the delta tree simply removes it there.

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
        self.tree = QuadraticRTree(base.dims, max_entries=_OVERLAY_MAX_ENTRIES)
        #: tombstones: ``live[i]`` is False once base object ``i`` is deleted.
        #: None until the first delete: readers then pass the base no mask.
        self.live: Optional[np.ndarray] = None
        self._deleted_objects: List[SpatialObject] = []
        self.ops = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _check_dims(self, obj: SpatialObject) -> None:
        if obj.dims != self.dims:
            raise ValueError(f"object has {obj.dims} dims, overlay expects {self.dims}")

    def insert(self, obj: SpatialObject) -> None:
        """Buffer one insertion."""
        self._check_dims(obj)
        self.tree.insert(obj)
        self.ops += 1

    def delete(self, obj: SpatialObject) -> bool:
        """Buffer one deletion; False when no live copy of ``obj`` exists."""
        self._check_dims(obj)
        if self.tree.delete(obj).found:
            self.ops += 1
            return True
        row = self._live_base_row(obj)
        if row is None:
            return False
        if self.live is None:
            self.live = np.ones(len(self.base.objects), dtype=bool)
        self.live[row] = False
        self._deleted_objects.append(obj)
        self.ops += 1
        return True

    def _live_base_row(self, obj: SpatialObject) -> Optional[int]:
        """The first live base row equal to ``obj`` (id and rectangle), or None."""
        base, live = self.base, self.live
        low, high = obj.rect.low, obj.rect.high
        # The leaves' entries are the trailing rows of the entry columns.
        first = len(base.entry_child) - len(base.objects)
        # One compare over the oid column, then the few rows sharing the id.
        for row in np.flatnonzero(base.object_oids() == obj.oid).tolist():
            if (
                (live is None or live[row])
                and tuple(base.entry_lows[first + row]) == low
                and tuple(base.entry_highs[first + row]) == high
            ):
                return row
        return None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when no write has been buffered since the last freeze."""
        return len(self.tree) == 0 and not self._deleted_objects

    @property
    def has_deletes(self) -> bool:
        """True when any base tombstone is pending."""
        return bool(self._deleted_objects)

    @property
    def deleted_count(self) -> int:
        """Total pending base tombstones (one per deleted row)."""
        return len(self._deleted_objects)

    def live_count(self) -> int:
        """Objects visible through base + delta."""
        return len(self.base.objects) - self.deleted_count + len(self.tree)

    def deleted_objects(self) -> List[SpatialObject]:
        """The buffered base deletions, in arrival order (for compaction)."""
        return list(self._deleted_objects)

    def live_base_objects(self) -> List[SpatialObject]:
        """The base objects no tombstone covers, in row order."""
        objects = self.base.objects
        if self.live is None:
            return list(objects)
        return [objects[i] for i in np.flatnonzero(self.live).tolist()]


@dataclass
class CompactionStats:
    """What one :meth:`SnapshotManager.compact` call did."""

    applied_inserts: int = 0
    applied_deletes: int = 0
    reclipped_nodes: int = 0
    seconds: float = 0.0


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
    unwraps to its source).  What the manager was given decides how a
    generation is made; no option does:

    * *a tree* — the batch is folded into it (buffered deletes, then
      inserts, with no per-update re-clipping), the nodes that dirtied
      are re-clipped once (§IV-D) and the tree is frozen again;
    * *no tree* — a snapshot that was loaded from disk (a server started
      on a snapshot directory) or STR-packed straight into arrays has
      nothing to fold into, so the live objects are STR-packed afresh
      (:func:`repro.engine.builder.build_columnar_str`) at the fan-out
      the snapshot came with.

    Concurrency contract (what a compacting server relies on): writes
    and :meth:`compact` may race from different threads.  While a
    compaction is running, an ``insert`` goes into the overlay being
    folded — every read sees it from the moment it is acknowledged —
    and is *staged* as well: on success the fresh overlay receives the
    staged inserts atomically with the snapshot swap, on failure the
    old overlay stays published and already holds them, so an insert is
    never dropped, never invisible and never applied twice.  A
    concurrent ``delete`` or a reentrant ``compact`` raises
    :class:`CompactionInProgressError` instead (a delete staged against
    a base being rebuilt could target either the old or new snapshot,
    so the manager refuses rather than guess).  ``compact(pause=…)``
    calls the hook between slices of bounded work (see
    :meth:`compact`): how a server lets one compaction take turns with
    its query batches instead of running beside them.
    ``compaction_fault_hook`` (chaos testing) is an optional callable
    invoked once after a compaction has started but *before* the source
    is mutated; raising from it models a background-rebuild crash —
    the published view is untouched and keeps the staged inserts.
    Readers are lock-free throughout: they grab the published
    ``(snapshot, overlay)`` tuple once per batch.
    """

    #: duck-typing marker checked by ``execute_workload``/``execute_join``
    is_snapshot_manager = True

    def __init__(
        self,
        source: Union[RTreeBase, ClippedRTree, ColumnarIndex],
        update_engine: str = "delta",  # only "delta": perf/workloads.py passes it (ROADMAP item 3)
        compact_every: Optional[int] = None,
    ):
        if update_engine != "delta":
            raise ValueError(f"unknown update engine {update_engine!r}; the only one is 'delta'")
        if compact_every is not None and compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        snapshot = source if isinstance(source, ColumnarIndex) else ColumnarIndex.from_tree(source)
        #: The tree generations are folded into; None for a source-free snapshot.
        self._source = snapshot.source
        self.compact_every = compact_every
        #: Fan-out of the source-free rebuild: the widest node it was given.
        self._rebuild_fanout = max(2, int(snapshot.entry_count.max()))
        self.epoch = 0
        self.total_compactions = 0
        self.total_reclipped_nodes = 0
        #: chaos hook: called once per compaction, pre-mutation (see class doc).
        self.compaction_fault_hook = None
        self._write_lock = threading.Lock()
        self._compacting = False
        #: True while the source tree holds writes no published snapshot
        #: has: during a fold, and for good if one failed past that point.
        self._source_ahead = False
        self._staged_inserts: List[SpatialObject] = []
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
        return overlay.live_base_objects() + list(overlay.tree.objects())

    def _install(self, snapshot: ColumnarIndex) -> None:
        """Atomically publish a fresh snapshot with an empty overlay."""
        self._view = (snapshot, DeltaOverlay(snapshot))
        self.epoch += 1

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> None:
        """Insert one object.

        Safe against a concurrent :meth:`compact`: a mid-compaction
        insert is readable at once and carried over to the overlay the
        compaction publishes (see the class doc).
        """
        with self._write_lock:
            self.overlay.insert(obj)
            if self._compacting:
                # Readable at once through the overlay being folded; kept
                # for the one that replaces it.
                self._staged_inserts.append(obj)
                return
        self._maybe_compact()

    def delete(self, obj: SpatialObject) -> bool:
        """Delete one object; False when it is not (visibly) indexed.

        Raises ``ValueError`` for an object of the wrong dimensionality,
        like :meth:`insert`, and :class:`CompactionInProgressError` while
        a compaction is running — a delete cannot be staged without
        knowing which base snapshot it will apply to.
        """
        with self._write_lock:
            if self._compacting:
                raise CompactionInProgressError(
                    "delete during compaction; retry after the swap"
                )
            found = self.overlay.delete(obj)
        if found:
            self._maybe_compact()
        return found

    def _maybe_compact(self) -> None:
        if self.compact_every is not None and self.overlay.ops >= self.compact_every:
            self.compact()

    def _rebuild_source_free(self, objects: Sequence[SpatialObject]) -> ColumnarIndex:
        if objects:
            return build_columnar_str(objects, max_entries=self._rebuild_fanout)
        # ``build_columnar_str`` needs at least one object; freeze an empty
        # scalar tree and strip the source so the snapshot stays read-only.
        empty = ColumnarIndex.from_tree(QuadraticRTree(self.snapshot.dims))
        empty.source = None
        empty.source_version = None
        return empty

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self, pause: Optional[Callable[[], None]] = None) -> CompactionStats:
        """Fold the pending delta into the source and swap in a new freeze.

        Tree-backed sources apply the buffered deletes then inserts
        *without* per-update re-clipping, re-clip the dirtied nodes once
        (:func:`~repro.engine.incremental_clip.reclip_nodes_for_results`),
        and freeze.  Source-free snapshots STR-rebuild from the live
        object set.  A no-op (returning zeroed stats) when nothing is
        pending.

        ``pause``, when given, is called between *slices* of the fold: the
        apply loop stops for it every ``_SLICE_SECONDS`` of work, the
        re-clip after every chunk of dirty nodes, and the freeze plus the
        swap are the last slice.  The hook decides what a pause is — a
        server hands the execution lane to the waiting batches and blocks
        until its turn comes round — and the work done and its order do
        not depend on it: what is published is what ``compact()`` would
        have published.  An exception it raises fails the compaction like
        one from any other step.

        Thread-safe against concurrent writes: inserts accepted while
        this runs go into the overlay being folded, so reads see them at
        once, and are staged for the fresh overlay, which receives them
        under the write lock, atomically with the swap; a raced ``delete``
        or reentrant ``compact`` raises :class:`CompactionInProgressError`.
        If the rebuild crashes (e.g. ``compaction_fault_hook``), the
        published view is unchanged and still holds them.  A crash after
        the first write reached the source tree leaves that tree ahead of
        the view; reads stay exact (they never touch it), but folding the
        same delta into it again would apply writes twice, so every later
        ``compact()`` raises ``RuntimeError`` instead.
        """
        with self._write_lock:
            if self._compacting:
                raise CompactionInProgressError(
                    "compact() is already running; concurrent inserts are staged"
                )
            self._compacting = True
            overlay = self.overlay
            # This compaction's input, copied before any insert it stages
            # can join the overlay.
            deletes = overlay.deleted_objects()
            inserts = list(overlay.tree.objects())
        stats = CompactionStats()
        fresh: Optional[ColumnarIndex] = None
        try:
            if deletes or inserts:
                if self._source_ahead:
                    raise RuntimeError(
                        "a failed compaction left the source tree ahead of the "
                        "published view; folding the delta again would apply it twice"
                    )
                start = time.perf_counter()
                hook = self.compaction_fault_hook
                if hook is not None:
                    # Pre-mutation crash point: failing here leaves the
                    # source tree untouched, so a retry re-applies the
                    # full (still-buffered) delta exactly once.
                    hook()
                source = self._source
                if source is None:
                    fresh = self._rebuild_source_free(overlay.live_base_objects() + inserts)
                else:
                    clipped = source if isinstance(source, ClippedRTree) else None
                    tree = clipped.tree if clipped is not None else source
                    results = []
                    self._source_ahead = True
                    slice_end = start + _SLICE_SECONDS
                    for apply, batch in ((tree.delete, deletes), (tree.insert, inserts)):
                        for obj in batch:
                            results.append(apply(obj))
                            if pause is not None and time.perf_counter() >= slice_end:
                                pause()
                                slice_end = time.perf_counter() + _SLICE_SECONDS
                    if pause is not None:
                        pause()
                    if clipped is not None:
                        stats.reclipped_nodes = reclip_nodes_for_results(
                            clipped, results, pause=pause
                        )
                    fresh = ColumnarIndex.from_tree(source)
                    self._source_ahead = False
                stats.applied_inserts = len(inserts)
                stats.applied_deletes = len(deletes)
                stats.seconds = time.perf_counter() - start
        finally:
            with self._write_lock:
                staged, self._staged_inserts = self._staged_inserts, []
                if fresh is not None:
                    self.total_compactions += 1
                    self.total_reclipped_nodes += stats.reclipped_nodes
                    self._install(fresh)
                    # The folded overlay held them; its replacement must.
                    for obj in staged:
                        self._view[1].insert(obj)
                self._compacting = False
        return stats

    # ------------------------------------------------------------------
    # queries (base ∪ delta, tombstones filtered)
    # ------------------------------------------------------------------

    def range_query_batch(
        self, rects: Sequence[Rect], stats: Optional[IOStats] = None
    ) -> List[List[SpatialObject]]:
        """Per-query result lists over base + delta (deletes filtered)."""
        snapshot, overlay = self._view
        rects = list(rects)
        results = snapshot.range_query_batch(rects, stats=stats, live=overlay.live)
        if len(overlay.tree):
            for i, rect in enumerate(rects):
                results[i] = results[i] + overlay.tree.range_query(rect, stats=stats)
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
        :func:`repro.engine.executor.knn_batch`); they are merged with
        the overlay tree's own kNN and truncated to ``k``.
        """
        snapshot, overlay = self._view
        points = list(points)
        # Here, not in a layer: an empty base is skipped and the overlay's
        # scalar search does not check.
        if any(len(point) != snapshot.dims for point in points):
            raise ValueError(f"points must have {snapshot.dims} dims, like the index")
        base_hits = (
            snapshot.knn_batch(points, k, stats=stats, live=overlay.live)
            if len(snapshot.objects)
            else [[] for _ in points]
        )
        if not len(overlay.tree):
            return base_hits
        merged: List[List[Tuple[float, SpatialObject]]] = []
        for point, hits in zip(points, base_hits):
            hits = hits + knn_query(overlay.tree, point, k, stats=stats)
            hits.sort(key=lambda pair: pair[0])
            merged.append(hits[:k])
        return merged


# ----------------------------------------------------------------------
# joins over managed (base + delta) inputs
# ----------------------------------------------------------------------


def _join_side(index) -> Tuple[ColumnarIndex, Optional[np.ndarray], Optional[QuadraticRTree]]:
    """``(base snapshot, its tombstones if any, its delta tree if managed)``."""
    if isinstance(index, SnapshotManager):
        snapshot, overlay = index.view
        return snapshot, overlay.live, overlay.tree
    if isinstance(index, ColumnarIndex):
        return index, None, None
    return ColumnarIndex.from_tree(index), None, None


def _probe_pairs(
    probes: Sequence[SpatialObject],
    snapshot: ColumnarIndex,
    live: Optional[np.ndarray],
    delta: Optional[QuadraticRTree],
    stats: IOStats,
    collect_into: List[Tuple[SpatialObject, SpatialObject]],
    swap: bool = False,
) -> None:
    """INLJ ``probes`` against one managed side, appending to ``collect_into``.

    The base join runs with the side's tombstones ``live``; the probes
    also join its pending ``delta`` tree (callers covering delta×delta
    elsewhere pass None).  ``swap`` flips the emitted pair orientation
    (probe second).
    """
    # Looked up per call, like ``stt_batch`` below: a traced run patches
    # the module attributes, and a name bound at import would escape it.
    from repro.engine.join_exec import inlj_batch

    if len(probes) and len(snapshot.objects):
        sub = inlj_batch(probes, snapshot, collect_pairs=True, live=live)
        stats.merge(sub.inner_stats)
        collect_into.extend((r, l) if swap else (l, r) for l, r in sub.pairs)
    if delta is not None and len(delta):
        for probe in probes:
            for hit in delta.range_query(probe.rect, stats=stats):
                collect_into.append((hit, probe) if swap else (probe, hit))


def overlay_join(
    left,
    right,
    algorithm: str = "stt",
    collect_pairs: bool = True,
) -> JoinResult:
    """Spatial join where either side may be a :class:`SnapshotManager`.

    The base×base portion runs through the columnar batch joins with
    each managed side's tombstones, and the pending delta trees are
    joined against the opposite side's live view.  Pair sets
    equal a scalar join over both sides' live objects; ``outer_stats`` /
    ``inner_stats`` accumulate the accesses charged to the left and
    right inputs respectively (base probes through the batch executor,
    delta probes through the small overlay trees).
    """
    from repro.engine.join_exec import stt_batch

    check_join_algorithm(algorithm)
    if algorithm == "inlj":
        if isinstance(left, SnapshotManager):
            probes: Sequence[SpatialObject] = left.live_objects()
        else:
            probes = list(left)
        result = JoinResult()
        pairs: List[Tuple[SpatialObject, SpatialObject]] = []
        _probe_pairs(probes, *_join_side(right), result.inner_stats, pairs)
        result.pairs = pairs if collect_pairs else []
        result.pair_count = len(pairs)
        return result

    l_snap, l_live, l_delta = _join_side(left)
    r_snap, r_live, r_delta = _join_side(right)
    base = stt_batch(l_snap, r_snap, collect_pairs=True, left_live=l_live, right_live=r_live)
    pairs = base.pairs
    result = JoinResult(outer_stats=base.outer_stats, inner_stats=base.inner_stats)

    # deltaL × (baseR live + deltaR): probe the full right view.
    if l_delta is not None and len(l_delta):
        _probe_pairs(
            list(l_delta.objects()), r_snap, r_live, r_delta, result.inner_stats, pairs
        )
    # deltaR × baseL live only — deltaL × deltaR was covered just above.
    if r_delta is not None and len(r_delta):
        _probe_pairs(
            list(r_delta.objects()),
            l_snap,
            l_live,
            None,
            result.outer_stats,
            pairs,
            swap=True,
        )
    result.pairs = pairs if collect_pairs else []
    result.pair_count = len(pairs)
    return result
