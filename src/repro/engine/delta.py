"""Incremental updates without refreeze: an LSM-flavored delta overlay.

The columnar snapshots of :mod:`repro.engine.columnar` are immutable —
before this module, every insert or delete forced a full re-freeze (and,
for clipped trees, ran the §IV-D per-update re-clipping synchronously).
Here writes are absorbed by a small mutable in-memory R-tree
(:class:`DeltaOverlay`) sitting on top of the frozen snapshot, queries
merge both layers, and a *compaction* folds the buffered batch into the
source tree, re-clips only the dirty nodes
(:func:`repro.engine.incremental_clip.reclip_nodes_for_results`), and
atomically swaps in one fresh snapshot — the naive → amortized ladder of
the treebuffers line of work, applied to clipped R-trees.

Layering, from the reader's point of view:

* *base*: the frozen :class:`~repro.engine.columnar.ColumnarIndex`;
* *delta inserts*: a :class:`~repro.rtree.quadratic.QuadraticRTree`
  holding objects inserted since the freeze;
* *delta deletes*: per-object tombstone counts against the base (an
  object is identified by ``(oid, rect)``; duplicates are tracked by
  count, so deleting one of two identical objects removes exactly one).

Query merging: base hits are filtered through the tombstones, overlay
hits are unioned in, and I/O statistics accumulate into the same
:class:`~repro.storage.stats.IOStats` (base accesses through the batch
executor, overlay accesses through the scalar traversal of the small
delta tree).  While a delta is pending the *results* equal a scalar
``ClippedRTree`` maintained with the same operations
(``tests/test_delta_overlay.py`` pins this property); after
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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

#: ``(oid, low corner, high corner)`` — how the overlay identifies one
#: object across the base/delta boundary.  Rect corners are tuples, so
#: keys are hashable; equal duplicates share a key and are counted.
ObjectKey = Tuple[int, Tuple[float, ...], Tuple[float, ...]]


def object_key(obj: SpatialObject) -> ObjectKey:
    """The overlay's identity key for ``obj`` (id + exact rectangle)."""
    return (obj.oid, obj.rect.low, obj.rect.high)


#: Longest stretch of apply work :meth:`SnapshotManager.compact` does
#: between two calls of its ``pause`` hook, in seconds.
_SLICE_SECONDS = 0.010


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

    Inserts go into a small mutable R-tree; deletes of *base* objects
    become tombstone counts (and remember the object so compaction can
    replay the delete against the source tree); deleting an object that
    only lives in the delta tree simply removes it there.
    """

    def __init__(self, base: ColumnarIndex, max_entries: int = 16):
        self.base = base
        self.dims = base.dims
        self.tree = QuadraticRTree(base.dims, max_entries=max_entries)
        #: tombstones: key -> number of base copies deleted
        self.deleted: Dict[ObjectKey, int] = {}
        self._deleted_objects: List[SpatialObject] = []
        self._base_counts: Optional[Dict[ObjectKey, int]] = None
        self.ops = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> None:
        """Buffer one insertion."""
        if obj.dims != self.dims:
            raise ValueError(f"object has {obj.dims} dims, overlay expects {self.dims}")
        self.tree.insert(obj)
        self.ops += 1

    def delete(self, obj: SpatialObject) -> bool:
        """Buffer one deletion; False when no live copy of ``obj`` exists."""
        if self.tree.delete(obj).found:
            self.ops += 1
            return True
        key = object_key(obj)
        if self.base_count(key) - self.deleted.get(key, 0) <= 0:
            return False
        self.deleted[key] = self.deleted.get(key, 0) + 1
        self._deleted_objects.append(obj)
        self.ops += 1
        return True

    def base_count(self, key: ObjectKey) -> int:
        """Number of copies of ``key`` in the base snapshot."""
        if self._base_counts is None:
            counts: Dict[ObjectKey, int] = {}
            for obj in self.base.objects:
                k = object_key(obj)
                counts[k] = counts.get(k, 0) + 1
            self._base_counts = counts
        return self._base_counts.get(key, 0)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when no write has been buffered since the last freeze."""
        return len(self.tree) == 0 and not self.deleted

    @property
    def has_deletes(self) -> bool:
        """True when any base tombstone is pending."""
        return bool(self.deleted)

    @property
    def deleted_count(self) -> int:
        """Total pending base tombstones (counting duplicates)."""
        return len(self._deleted_objects)

    def live_count(self) -> int:
        """Objects visible through base + delta."""
        return len(self.base.objects) - self.deleted_count + len(self.tree)

    def deleted_objects(self) -> List[SpatialObject]:
        """The buffered base deletions, in arrival order (for compaction)."""
        return list(self._deleted_objects)

    # ------------------------------------------------------------------
    # read-side merging
    # ------------------------------------------------------------------

    def filter_base_hits(self, hits: Iterable[SpatialObject]) -> List[SpatialObject]:
        """Drop tombstoned base hits (one hit per pending tombstone count)."""
        if not self.deleted:
            return list(hits)
        remaining = dict(self.deleted)
        out: List[SpatialObject] = []
        for obj in hits:
            key = object_key(obj)
            pending = remaining.get(key, 0)
            if pending:
                remaining[key] = pending - 1
            else:
                out.append(obj)
        return out

    def filter_base_knn(
        self, hits: Iterable[Tuple[float, SpatialObject]]
    ) -> List[Tuple[float, SpatialObject]]:
        """Tombstone filtering for ``(distance, object)`` kNN hit lists."""
        if not self.deleted:
            return list(hits)
        remaining = dict(self.deleted)
        out: List[Tuple[float, SpatialObject]] = []
        for dist, obj in hits:
            key = object_key(obj)
            pending = remaining.get(key, 0)
            if pending:
                remaining[key] = pending - 1
            else:
                out.append((dist, obj))
        return out


@dataclass
class CompactionStats:
    """What one :meth:`SnapshotManager.compact` call did."""

    applied_inserts: int = 0
    applied_deletes: int = 0
    reclipped_nodes: int = 0
    seconds: float = 0.0


class SnapshotManager:
    """Serves a frozen snapshot while absorbing writes, LSM-style.

    ``update_engine``:

    * ``"refreeze"`` — the baseline: every write is applied to the source
      synchronously (running §IV-D per-update re-clipping for clipped
      sources) and the snapshot is re-frozen immediately;
    * ``"delta"`` — writes buffer in a :class:`DeltaOverlay`; queries
      merge base and delta; :meth:`compact` (or ``compact_every``) folds
      the batch into the source with one dirty-node re-clip pass and one
      freeze, then atomically swaps the published state.

    Sources may be a :class:`~repro.rtree.clipped.ClippedRTree`, a plain
    :class:`~repro.rtree.base.RTreeBase`, or a
    :class:`~repro.engine.columnar.ColumnarIndex` (tree-backed snapshots
    unwrap to their source; source-free STR snapshots compact by
    rebuilding through :func:`repro.engine.builder.build_columnar_str`).

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

    UPDATE_ENGINES = ("refreeze", "delta")

    #: duck-typing marker checked by ``execute_workload``/``execute_join``
    is_snapshot_manager = True

    def __init__(
        self,
        source: Union[RTreeBase, ClippedRTree, ColumnarIndex],
        update_engine: str = "delta",
        compact_every: Optional[int] = None,
        clip_engine: str = "vectorized",
        overlay_max_entries: int = 16,
        rebuild_max_entries: Optional[int] = None,
    ):
        if update_engine not in self.UPDATE_ENGINES:
            raise ValueError(
                f"unknown update engine {update_engine!r}; known: {self.UPDATE_ENGINES}"
            )
        if compact_every is not None and compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        if isinstance(source, ColumnarIndex):
            self._source = source.source
            snapshot = source
        else:
            self._source = source
            snapshot = ColumnarIndex.from_tree(source)
        self.update_engine = update_engine
        self.compact_every = compact_every
        self.clip_engine = clip_engine
        self.overlay_max_entries = overlay_max_entries
        if rebuild_max_entries is None and self._source is None:
            counts = snapshot.entry_count
            rebuild_max_entries = max(2, int(counts.max())) if len(counts) else 16
        self.rebuild_max_entries = rebuild_max_entries
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
        self._view: Tuple[ColumnarIndex, DeltaOverlay] = (
            snapshot,
            DeltaOverlay(snapshot, max_entries=overlay_max_entries),
        )

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
        """Writes buffered since the last compaction (0 for refreeze)."""
        return self.overlay.ops

    def __len__(self) -> int:
        return self.overlay.live_count()

    def live_objects(self) -> List[SpatialObject]:
        """Every object currently visible (base minus tombstones, plus delta)."""
        snapshot, overlay = self._view
        live = overlay.filter_base_hits(snapshot.objects)
        live.extend(overlay.tree.objects())
        return live

    def _install(self, snapshot: ColumnarIndex) -> None:
        """Atomically publish a fresh snapshot with an empty overlay."""
        self._view = (snapshot, DeltaOverlay(snapshot, max_entries=self.overlay_max_entries))
        self.epoch += 1

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject) -> None:
        """Insert one object through the configured update engine.

        Safe against a concurrent :meth:`compact`: a mid-compaction
        insert is readable at once and carried over to the overlay the
        compaction publishes (see the class doc).
        """
        if self.update_engine == "refreeze":
            with self._write_lock:
                if self._compacting:
                    raise CompactionInProgressError(
                        "refreeze write raced a compaction; retry after the swap"
                    )
                self._refreeze_write(obj, delete=False)
            return
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

        Raises :class:`CompactionInProgressError` while a compaction is
        running — a delete cannot be staged without knowing which base
        snapshot it will apply to.
        """
        if self.update_engine == "refreeze":
            with self._write_lock:
                if self._compacting:
                    raise CompactionInProgressError(
                        "refreeze write raced a compaction; retry after the swap"
                    )
                return self._refreeze_write(obj, delete=True)
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

    def _refreeze_write(self, obj: SpatialObject, delete: bool) -> bool:
        source = self._source
        if source is None:
            objects = list(self.snapshot.objects)
            if delete:
                key = object_key(obj)
                for i, existing in enumerate(objects):
                    if object_key(existing) == key:
                        del objects[i]
                        break
                else:
                    return False
            else:
                objects.append(obj)
            self._install(self._rebuild_source_free(objects))
            return True
        if delete:
            if isinstance(source, ClippedRTree):
                before = len(source)
                source.delete(obj)
                found = len(source) < before
            else:
                found = source.delete(obj).found
            if not found:
                return False
        else:
            source.insert(obj)
        self._install(ColumnarIndex.from_tree(source))
        return True

    def _rebuild_source_free(self, objects: Sequence[SpatialObject]) -> ColumnarIndex:
        if objects:
            return build_columnar_str(objects, max_entries=self.rebuild_max_entries)
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
            snapshot, overlay = self._view
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
                    live = overlay.filter_base_hits(snapshot.objects)
                    live.extend(inserts)
                    fresh = self._rebuild_source_free(live)
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
                            clipped, results, engine=self.clip_engine, pause=pause
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
        results = snapshot.range_query_batch(rects, stats=stats)
        if overlay.has_deletes:
            results = [overlay.filter_base_hits(hits) for hits in results]
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

        The base is probed for ``k`` plus the number of pending
        tombstones (any query's k nearest live base objects are within
        that prefix), filtered, merged with the overlay tree's own kNN,
        and truncated to ``k``.
        """
        snapshot, overlay = self._view
        points = list(points)
        base_k = k + overlay.deleted_count
        base_hits = (
            snapshot.knn_batch(points, base_k, stats=stats)
            if len(snapshot.objects)
            else [[] for _ in points]
        )
        merged: List[List[Tuple[float, SpatialObject]]] = []
        for point, hits in zip(points, base_hits):
            live = overlay.filter_base_knn(hits)
            if len(overlay.tree):
                live = live + knn_query(overlay.tree, point, k, stats=stats)
                live.sort(key=lambda pair: pair[0])
            merged.append(live[:k])
        return merged


# ----------------------------------------------------------------------
# joins over managed (base + delta) inputs
# ----------------------------------------------------------------------


def _join_side(index) -> Tuple[ColumnarIndex, Optional[DeltaOverlay]]:
    if isinstance(index, SnapshotManager):
        snapshot, overlay = index.view
        return snapshot, overlay
    if isinstance(index, ColumnarIndex):
        return index, None
    return ColumnarIndex.from_tree(index), None


def _filter_pairs_side(
    pairs: List[Tuple[SpatialObject, SpatialObject]],
    overlay: Optional[DeltaOverlay],
    side: int,
) -> List[Tuple[SpatialObject, SpatialObject]]:
    """Drop pairs whose ``side`` member is tombstoned, duplicate-exactly.

    A base object with ``b`` identical copies and ``d`` tombstones pairs
    with each distinct partner instance ``b`` times; keeping the first
    ``b - d`` occurrences per ``(key, partner instance)`` removes exactly
    the deleted copies' pairs.  Only valid when the *other* side carries
    no tombstones (see :func:`_filter_pairs_two_sided` otherwise).
    """
    if overlay is None or not overlay.has_deletes:
        return pairs
    deleted = overlay.deleted
    out: List[Tuple[SpatialObject, SpatialObject]] = []
    quota: Dict[Tuple[ObjectKey, int], int] = {}
    for pair in pairs:
        key = object_key(pair[side])
        tombstones = deleted.get(key, 0)
        if not tombstones:
            out.append(pair)
            continue
        quota_key = (key, id(pair[1 - side]))
        remaining = quota.get(quota_key)
        if remaining is None:
            remaining = overlay.base_count(key) - tombstones
        if remaining > 0:
            out.append(pair)
            quota[quota_key] = remaining - 1
        else:
            quota[quota_key] = 0
    return out


def _filter_pairs_two_sided(
    pairs: List[Tuple[SpatialObject, SpatialObject]],
    l_overlay: Optional[DeltaOverlay],
    r_overlay: Optional[DeltaOverlay],
) -> List[Tuple[SpatialObject, SpatialObject]]:
    """Tombstone-filter base×base STT pairs on both sides at once.

    Pairs tombstoned on exactly one side use the per-partner-instance
    quota of :func:`_filter_pairs_side`.  Pairs tombstoned on *both*
    sides are all value-identical within their ``(keyL, keyR)`` group
    (both members are exact duplicates), so the group keeps exactly
    ``(bL - dL) * (bR - dR)`` of its ``bL * bR`` pairs — the multiset a
    join over the live copies would produce.
    """
    l_deleted = l_overlay.deleted if l_overlay is not None else {}
    r_deleted = r_overlay.deleted if r_overlay is not None else {}
    if not l_deleted and not r_deleted:
        return pairs
    out: List[Tuple[SpatialObject, SpatialObject]] = []
    side_quota: Dict[Tuple[int, ObjectKey, int], int] = {}
    group_quota: Dict[Tuple[ObjectKey, ObjectKey], int] = {}
    for pair in pairs:
        key_l = object_key(pair[0])
        key_r = object_key(pair[1])
        tomb_l = l_deleted.get(key_l, 0)
        tomb_r = r_deleted.get(key_r, 0)
        if not tomb_l and not tomb_r:
            out.append(pair)
            continue
        if tomb_l and tomb_r:
            group_key = (key_l, key_r)
            remaining = group_quota.get(group_key)
            if remaining is None:
                remaining = (l_overlay.base_count(key_l) - tomb_l) * (
                    r_overlay.base_count(key_r) - tomb_r
                )
        else:
            side = 0 if tomb_l else 1
            overlay = l_overlay if tomb_l else r_overlay
            key = key_l if tomb_l else key_r
            group_key = None
            quota_key = (side, key, id(pair[1 - side]))
            remaining = side_quota.get(quota_key)
            if remaining is None:
                remaining = overlay.base_count(key) - (tomb_l or tomb_r)
        if remaining > 0:
            out.append(pair)
            remaining -= 1
        else:
            remaining = 0
        if group_key is not None:
            group_quota[group_key] = remaining
        else:
            side_quota[quota_key] = remaining
    return out


def _probe_pairs(
    probes: Sequence[SpatialObject],
    snapshot: ColumnarIndex,
    overlay: Optional[DeltaOverlay],
    stats: IOStats,
    collect_into: List[Tuple[SpatialObject, SpatialObject]],
    swap: bool = False,
    include_delta: bool = True,
) -> None:
    """INLJ ``probes`` against one managed side, appending to ``collect_into``.

    Base hits are tombstone-filtered through ``overlay``; with
    ``include_delta`` the probes also join the overlay's pending delta
    tree (callers covering delta×delta elsewhere pass False).  ``swap``
    flips the emitted pair orientation (probe second).
    """
    from repro.engine.join_exec import inlj_batch

    if len(probes) and len(snapshot.objects):
        sub = inlj_batch(probes, snapshot, collect_pairs=True)
        stats.merge(sub.inner_stats)
        pairs = _filter_pairs_side(sub.pairs, overlay, side=1)
        collect_into.extend((r, l) if swap else (l, r) for l, r in pairs)
    if include_delta and overlay is not None and len(overlay.tree):
        for probe in probes:
            for hit in overlay.tree.range_query(probe.rect, stats=stats):
                collect_into.append((hit, probe) if swap else (probe, hit))


def overlay_join(
    left,
    right,
    algorithm: str = "stt",
    collect_pairs: bool = True,
) -> JoinResult:
    """Spatial join where either side may be a :class:`SnapshotManager`.

    The base×base portion runs through the columnar batch joins; pairs
    involving tombstoned objects are filtered out, and the pending delta
    trees are joined against the opposite side's live view.  Pair sets
    equal a scalar join over both sides' live objects; ``outer_stats`` /
    ``inner_stats`` accumulate the accesses charged to the left and
    right inputs respectively (base probes through the batch executor,
    delta probes through the small overlay trees).
    """
    from repro.engine.join_exec import inlj_batch, stt_batch

    check_join_algorithm(algorithm)
    if algorithm == "inlj":
        if isinstance(left, SnapshotManager):
            probes: Sequence[SpatialObject] = left.live_objects()
        else:
            probes = list(left)
        r_snap, r_overlay = _join_side(right)
        result = JoinResult()
        pairs: List[Tuple[SpatialObject, SpatialObject]] = []
        _probe_pairs(probes, r_snap, r_overlay, result.inner_stats, pairs)
        result.pairs = pairs if collect_pairs else []
        result.pair_count = len(pairs)
        return result

    l_snap, l_overlay = _join_side(left)
    r_snap, r_overlay = _join_side(right)
    base = stt_batch(l_snap, r_snap, collect_pairs=True)
    pairs = _filter_pairs_two_sided(base.pairs, l_overlay, r_overlay)
    result = JoinResult(outer_stats=base.outer_stats, inner_stats=base.inner_stats)

    # deltaL × (baseR live + deltaR): probe the full right view.
    if l_overlay is not None and len(l_overlay.tree):
        _probe_pairs(
            list(l_overlay.tree.objects()), r_snap, r_overlay, result.inner_stats, pairs
        )
    # deltaR × baseL live only — deltaL × deltaR was covered just above.
    if r_overlay is not None and len(r_overlay.tree):
        _probe_pairs(
            list(r_overlay.tree.objects()),
            l_snap,
            l_overlay,
            result.outer_stats,
            pairs,
            swap=True,
            include_delta=False,
        )
    result.pairs = pairs if collect_pairs else []
    result.pair_count = len(pairs)
    return result
