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

That one set has two consumers in a compaction.
:func:`reclip_nodes_for_results` hands it to
:meth:`~repro.rtree.clipped.ClippedRTree.reclip_nodes`, which drops the
removed ones from the store and recomputes exactly the live nodes' clip
points — by default in one batched pass through
:func:`repro.engine.bulk_clip.clip_nodes_batch` (:func:`reclip_live_nodes`).
:meth:`ColumnarIndex.from_tree <repro.engine.columnar.ColumnarIndex.from_tree>`
then reads those nodes from the tree and copies every other node's
entries and clip run from the previous generation.  Both rely on the
same fact: a node outside the set has the entries it had.

Because a node's clip points are a pure function of its own entry
rectangles, re-clipping the dirty set leaves the store identical to a
full :meth:`~repro.rtree.clipped.ClippedRTree.clip_all` recompute —
``tests/test_incremental_clip.py`` pins that equivalence across variants
and update interleavings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Set, Union

from repro.engine.bulk_clip import clip_nodes_batch
from repro.rtree.base import DeleteResult, InsertResult, RTreeBase
from repro.rtree.clipped import ClippedRTree

#: Dirty nodes re-clipped between two calls of the ``pause`` hook of
#: :func:`reclip_nodes_for_results`.
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


def reclip_nodes_for_results(
    clipped: ClippedRTree,
    dirty: Set[int],
    engine: str = "vectorized",
    pause: Optional[Callable[[], None]] = None,
) -> int:
    """Re-clip the nodes a batch of tracked updates dirtied.

    ``dirty`` is :func:`dirty_node_ids` of the batch's results, handed to
    :meth:`ClippedRTree.reclip_nodes`, which drops the ids no longer in
    the tree from the store and re-clips the live ones — in one call, or,
    with a ``pause`` hook (see :meth:`SnapshotManager.compact
    <repro.engine.delta.SnapshotManager.compact>`), in chunks of
    ``_RECLIP_CHUNK_NODES`` live nodes with the hook called after each
    (the dead ids go with the first chunk).  A node's clip points depend
    on its own entries only, so the store ends up the same either way.
    Returns the number of live nodes re-clipped.
    """
    if pause is None:
        return clipped.reclip_nodes(dirty, engine=engine)
    tree = clipped.tree
    live = sorted(node_id for node_id in dirty if tree.has_node(node_id))
    first = set(dirty).difference(live[_RECLIP_CHUNK_NODES:])
    count = clipped.reclip_nodes(first, engine=engine)
    if live:
        pause()
    for start in range(_RECLIP_CHUNK_NODES, len(live), _RECLIP_CHUNK_NODES):
        count += clipped.reclip_nodes(live[start : start + _RECLIP_CHUNK_NODES], engine=engine)
        pause()
    return count


def reclip_live_nodes(clipped: ClippedRTree, node_ids: Sequence[int]) -> None:
    """The vectorised half of :meth:`ClippedRTree.reclip_nodes`.

    ``node_ids`` must all exist in ``clipped.tree``; each gets the clip
    points a full ``clip_all`` would assign it, computed in one batched
    pass (nodes left without clip points are dropped from the store).
    """
    tree = clipped.tree
    results = clip_nodes_batch([tree.node(nid) for nid in node_ids], tree.dims, clipped.config)
    for node_id in node_ids:
        clips = results.get(node_id)
        if clips:
            clipped.store.put(node_id, clips)
        else:
            clipped.store.remove(node_id)
