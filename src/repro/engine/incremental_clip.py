"""Dirty-node re-clipping: Algorithm 1 restricted to the nodes an update
batch actually touched.

The write path of the delta engine (:mod:`repro.engine.delta`) applies a
buffered batch of inserts/deletes to the source tree *without* the
per-update re-clipping of :meth:`repro.rtree.clipped.ClippedRTree.insert`
— change tracking (:class:`~repro.rtree.base.InsertResult` /
:class:`~repro.rtree.base.DeleteResult`) accumulates what changed, and
:func:`dirty_node_ids` turns it into one set: every node whose entry
list changed, the current parent of every node whose MBB moved, and
every node the batch removed.

That one set has two consumers in a compaction, and the first feeds the
second.  :meth:`~repro.rtree.clipped.ClippedRTree.reclip_nodes` drops the
removed ones from the store, stacks the live nodes' entry rows once and
recomputes exactly their clip points in one batched pass through
:func:`repro.engine.bulk_clip.clip_nodes_batch`; the clipped tree records
those rows and clip arrays, chunk after chunk, as its last clip pass.
:meth:`ColumnarIndex.from_tree <repro.engine.columnar.ColumnarIndex.from_tree>`
then writes the set's nodes from that record
(:meth:`~repro.rtree.clipped.ClippedRTree.clip_pass`), reading neither
the nodes' entries nor the store again, and copies every other node's
entries and clip run from the previous generation.  Both rely on the
same fact: a node outside the set has the entries it had.

Because a node's clip points are a pure function of its own entry
rectangles, re-clipping the dirty set leaves the store identical to a
full :meth:`~repro.rtree.clipped.ClippedRTree.clip_all` recompute —
``tests/test_incremental_clip.py`` pins that equivalence across variants
and update interleavings.
"""

from __future__ import annotations

from typing import Iterable, Set, Union

from repro.rtree.base import DeleteResult, InsertResult, RTreeBase
from repro.rtree.clipped import ClippedRTree

#: Live dirty nodes re-clipped in one step of a stepped compaction
#: (:meth:`SnapshotManager.compact_step
#: <repro.engine.delta.SnapshotManager.compact_step>`).
_RECLIP_CHUNK_NODES = 24


def dirty_node_ids(
    results: Iterable[Union[InsertResult, DeleteResult]],
    tree: RTreeBase,
) -> Set[int]:
    """Every node id whose entries ``results`` may have changed, in ``tree`` after them.

    Union of: the target leaf, split nodes and their new siblings, nodes
    that received entries (``added_rects``), nodes that lost entries in
    place, nodes whose MBB moved — and the *current* parent in ``tree``
    of each of the latter, whose entry rect for that child was
    rewritten — plus every node the batch removed.  Ids no longer in
    ``tree`` are kept: the re-clip drops their clip points, the freeze
    never meets them.  Node ids are never reused, so a node of ``tree``
    outside the set holds exactly the entries it held before the batch.
    """
    dirty: Set[int] = set()
    mbb_changed: Set[int] = set()
    for result in results:
        if result.leaf_id is not None:
            dirty.add(result.leaf_id)
        dirty |= result.split_node_ids
        dirty |= result.new_node_ids
        dirty |= result.entry_removed_node_ids
        dirty.update(result.added_rects)
        mbb_changed |= result.mbb_changed_node_ids
        dirty |= getattr(result, "removed_node_ids", set())
    dirty |= mbb_changed
    if mbb_changed:
        for node in tree.internal_nodes():
            if any(entry.child in mbb_changed for entry in node.entries):
                dirty.add(node.node_id)
    return dirty


def reclip_nodes_for_results(clipped: ClippedRTree, dirty: Iterable[int]) -> int:
    """Re-clip the nodes a batch of tracked updates dirtied; how many were live.

    ``dirty`` is :func:`dirty_node_ids` of the batch's results, or a chunk
    of it (a stepped compaction hands over ``_RECLIP_CHUNK_NODES`` live
    nodes a step, the dead ids with the first).  :meth:`ClippedRTree.reclip_nodes`
    drops the dead ids from the store and re-clips the live nodes, whose
    clip points depend on their own entries only: however the set is cut,
    the store ends up the same.

    This adds nothing to ``reclip_nodes``: it is the seam a tracer patches
    at its import site in :mod:`repro.engine.delta` to time the re-clip of
    a compaction (``perf/tracing.py``'s ``incremental_clip.reclip`` span),
    the stacking of the rows included.
    """
    return clipped.reclip_nodes(dirty)
