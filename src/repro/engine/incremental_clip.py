"""Dirty-node re-clipping: Algorithm 1 restricted to the nodes an update
batch actually touched.

The write path of the delta engine (:mod:`repro.engine.delta`) applies a
buffered batch of inserts/deletes to the source tree *without* the
per-update re-clipping of :meth:`repro.rtree.clipped.ClippedRTree.insert`
— change tracking (:class:`~repro.rtree.base.InsertResult` /
:class:`~repro.rtree.base.DeleteResult`) accumulates the set of nodes
whose entry lists changed, and :func:`reclip_nodes_for_results` has
:meth:`~repro.rtree.clipped.ClippedRTree.reclip_nodes` recompute exactly
those nodes' clip points — by default in one batched pass through
:func:`repro.engine.bulk_clip.clip_nodes_batch`
(:func:`reclip_live_nodes`).

Because a node's clip points are a pure function of its own entry
rectangles, re-clipping the dirty set leaves the store identical to a
full :meth:`~repro.rtree.clipped.ClippedRTree.clip_all` recompute —
``tests/test_incremental_clip.py`` pins that equivalence across variants
and update interleavings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Set, Union

from repro.engine.bulk_clip import clip_nodes_batch
from repro.rtree.base import DeleteResult, InsertResult
from repro.rtree.clipped import ClippedRTree

#: Dirty nodes re-clipped between two calls of the ``pause`` hook of
#: :func:`reclip_nodes_for_results`.
_RECLIP_CHUNK_NODES = 24


def dirty_node_ids(
    results: Iterable[Union[InsertResult, DeleteResult]],
) -> Set[int]:
    """Every node id whose entry list one of ``results`` may have changed.

    Union of: the target leaf, split nodes and their new siblings, nodes
    that received entries (``added_rects``), nodes that lost entries in
    place, and nodes whose MBB moved.  A moved MBB also means the node's
    *parent* entry rect was rewritten, so callers re-clipping against the
    current tree must add each changed node's present parent — see
    :func:`reclip_nodes_for_results`.
    """
    dirty: Set[int] = set()
    for result in results:
        if result.leaf_id is not None:
            dirty.add(result.leaf_id)
        dirty |= result.split_node_ids
        dirty |= result.new_node_ids
        dirty |= result.mbb_changed_node_ids
        dirty |= result.entry_removed_node_ids
        dirty.update(result.added_rects)
    return dirty


def reclip_nodes_for_results(
    clipped: ClippedRTree,
    results: Iterable[Union[InsertResult, DeleteResult]],
    engine: str = "vectorized",
    pause: Optional[Callable[[], None]] = None,
) -> int:
    """Re-clip everything a batch of tracked updates dirtied.

    Adds the current parent of every MBB-changed node (its entry rect
    for that child was refreshed), drops clip entries of removed nodes,
    then delegates to :meth:`ClippedRTree.reclip_nodes` — in one call,
    or, with a ``pause`` hook (see :meth:`SnapshotManager.compact
    <repro.engine.delta.SnapshotManager.compact>`), in chunks of
    ``_RECLIP_CHUNK_NODES`` with the hook called after each.  A node's
    clip points depend on its own entries only, so the store ends up the
    same either way.  Returns the number of live nodes re-clipped.
    """
    results = list(results)
    dirty = dirty_node_ids(results)
    mbb_changed: Set[int] = set()
    for result in results:
        mbb_changed |= result.mbb_changed_node_ids
        removed = getattr(result, "removed_node_ids", None)
        if removed:
            for node_id in removed:
                clipped.store.remove(node_id)
            dirty -= removed
    if mbb_changed:
        parents = clipped._parent_index()
        for node_id in mbb_changed:
            parent_id = parents.get(node_id)
            if parent_id is not None:
                dirty.add(parent_id)
    if pause is None:
        return clipped.reclip_nodes(dirty, engine=engine)
    ordered = sorted(dirty)
    count = 0
    for start in range(0, len(ordered), _RECLIP_CHUNK_NODES):
        count += clipped.reclip_nodes(ordered[start : start + _RECLIP_CHUNK_NODES], engine=engine)
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
