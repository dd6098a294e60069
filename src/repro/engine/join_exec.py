"""Columnar spatial-join execution over :class:`ColumnarIndex` snapshots.

The two §V join strategies, vectorized:

* :func:`inlj_batch` — Index Nested Loop Join: every outer rectangle
  probes the frozen inner index at once through the level-synchronous
  range frontier (:func:`repro.engine.executor.gather_range_hits`), one
  kernel sweep per tree level instead of one Python traversal per probe.
* :func:`stt_batch` — Synchronised Tree Traversal: the frontier holds
  *pairs* of node slots, one from each snapshot.  Each round splits the
  frontier into leaf×leaf pairs and descending pairs, and both take the
  range frontier's per-level step (:func:`~repro.engine.executor.expand`)
  with the partner node's MBB as the probe box.  A descending pair's
  children thereby pass the MBB test and their own clip points probed
  with the partner's MBB; the one veto added here probes the partner's
  clip points with the child's rectangle — together exactly the scalar
  ``_pair_passes``, which the root pair takes too.  A block of leaf pairs
  keeps each side's entries that meet the partner leaf's MBB — the
  search-space restriction of Brinkhoff, Kriegel & Seeger (SIGMOD 1993,
  §4.1) — and compares only those with each other, one dimension at a
  time: about 7 % of the dense ``(pairs, left fan-out, right fan-out)``
  product on the neurite join.  One constant, :data:`_LEAF_BLOCK_CELLS`
  dense cells per block, bounds its working memory.

Both reproduce the scalar joins (:mod:`repro.join`) exactly: the same
result pairs, the same ``pair_count``, and the same ``IOStats`` — one
access per node pairing, recorded on the side that descended, with a leaf
access *contributing* only when the subtree pairing entered at it emitted
at least one result pair.  The scalar STT learns a leaf's contribution
when its recursion returns; the frontier cannot wait, so every access is
tagged with the pair it created and emissions are propagated up the pair
tree (child pairs always have larger ids than their parents, so one
reverse sweep over the creation rounds settles every count).
``tests/test_backend_conformance.py`` pins the equivalence per backend ×
variant × dataset × clipped/plain.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.executor import expand, gather_range_hits
from repro.engine.kernels import (
    expand_segments,
    intersect_mask,
    object_column,
    padded_clip_veto,
    stack_bounds,
)
from repro.geometry.objects import SpatialObject
from repro.join.result import JoinResult

#: Dense cells (pairs × left fan-out × right fan-out) per leaf×leaf block,
#: of which a block forms only the restricted subset: what bounds the
#: join's working memory, whatever the frontier's length.
_LEAF_BLOCK_CELLS = 1 << 18


def inlj_batch(
    outer_objects: Iterable[SpatialObject],
    inner: ColumnarIndex,
    collect_pairs: bool = True,
    live: Optional[np.ndarray] = None,
) -> JoinResult:
    """Index Nested Loop Join of ``outer_objects`` against a snapshot.

    Equivalent to :func:`repro.join.inlj.index_nested_loop_join` run
    against the snapshot's source index: identical pairs, ``pair_count``
    and ``inner_stats`` (pairs are emitted in per-probe BFS rather than
    DFS order).

    ``live``, when given, is a boolean column over the inner objects (the
    tombstones of :class:`~repro.engine.delta.DeltaOverlay`): pairs with
    a ``False`` row are neither counted nor materialised.  The traversal,
    and so ``inner_stats``, are those of the unfiltered join.
    """
    outer_objects = list(outer_objects)
    result = JoinResult()
    if not outer_objects:
        return result
    q_lows, q_highs = stack_bounds(
        list(map(attrgetter("rect"), outer_objects)), inner.dims, "outer objects"
    )
    all_q, all_obj = gather_range_hits(
        inner, q_lows, q_highs, stats=result.inner_stats
    )
    if live is not None:
        keep = live[all_obj]
        all_q, all_obj = all_q[keep], all_obj[keep]
    if collect_pairs and len(all_q):
        # Stable sort groups the hits per outer object, preserving the
        # BFS discovery order within each probe.
        order = np.argsort(all_q, kind="stable")
        outer = object_column(outer_objects)[all_q[order]].tolist()
        result.pairs.extend(zip(outer, inner.take_objects(all_obj[order])))
    result.pair_count = int(len(all_q))
    return result


class _PairLedger:
    """Bookkeeping of the pair tree the synchronized traversal explores.

    Every explored node pair gets a sequential id; ``parents`` remembers
    which frontier pair spawned it and ``events`` which side's node was
    accessed when it was created.  Emissions recorded against leaf×leaf
    pairs are pushed up the parent chain in :meth:`settle`, which is what
    turns per-pair emission counts into the contributing-leaf metric.
    """

    def __init__(self) -> None:
        self.parent_rounds: List[np.ndarray] = []
        self.events: List[Tuple[bool, np.ndarray, np.ndarray]] = []
        self.emissions: List[Tuple[np.ndarray, np.ndarray]] = []
        self.next_id = 0

    def add_pairs(self, parents: np.ndarray) -> np.ndarray:
        """Register newly created pairs; returns their ids."""
        ids = np.arange(self.next_id, self.next_id + len(parents), dtype=np.int64)
        self.next_id += len(parents)
        self.parent_rounds.append(parents)
        return ids

    def record_accesses(
        self, outer_side: bool, pair_ids: np.ndarray, leaf_flags: np.ndarray
    ) -> None:
        self.events.append((outer_side, pair_ids, leaf_flags))

    def record_emissions(self, pair_ids: np.ndarray, counts: np.ndarray) -> None:
        self.emissions.append((pair_ids, counts))

    def settle(self, result: JoinResult) -> int:
        """Propagate emissions up the pair tree and fill ``IOStats``.

        Returns the root pair's settled count: the number of result pairs.
        """
        emitted = np.zeros(self.next_id, dtype=np.int64)
        for pair_ids, counts in self.emissions:
            np.add.at(emitted, pair_ids, counts)
        # Reverse creation order: each block's parents were created in
        # strictly earlier blocks, and its own descendants (later blocks)
        # have already been folded in.
        id_end = self.next_id
        for parents in reversed(self.parent_rounds):
            ids = np.arange(id_end - len(parents), id_end, dtype=np.int64)
            live = parents >= 0
            if live.any():
                np.add.at(emitted, parents[live], emitted[ids[live]])
            id_end -= len(parents)
        for outer_side, pair_ids, leaf_flags in self.events:
            stats = result.outer_stats if outer_side else result.inner_stats
            n_leaves = int(leaf_flags.sum())
            stats.leaf_accesses += n_leaves
            stats.internal_accesses += len(pair_ids) - n_leaves
            stats.contributing_leaf_accesses += int(
                (leaf_flags & (emitted[pair_ids] > 0)).sum()
            )
        return int(emitted[0])


def _stt_roots_pass(left: ColumnarIndex, right: ColumnarIndex) -> bool:
    """The scalar ``_pair_passes`` test applied to the two root nodes."""
    root = np.array([ColumnarIndex.ROOT_SLOT], dtype=np.int64)
    l_lows, l_highs = left.node_bounds()
    r_lows, r_highs = right.node_bounds()
    if not intersect_mask(l_lows[root], l_highs[root], r_lows[root], r_highs[root])[0]:
        return False
    if left.has_clips and padded_clip_veto(
        *left.node_major_clips(), root, r_lows.T, r_highs.T, root
    )[0]:
        return False
    if right.has_clips and padded_clip_veto(
        *right.node_major_clips(), root, l_lows.T, l_highs.T, root
    )[0]:
        return False
    return True


def _stt_descend(
    ledger: _PairLedger,
    desc: ColumnarIndex,
    other: ColumnarIndex,
    nodes: np.ndarray,
    partners: np.ndarray,
    pids: np.ndarray,
    other_lows_t: np.ndarray,
    other_highs_t: np.ndarray,
    outer_side: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand one side's entries against the partner nodes of the other.

    :func:`~repro.engine.executor.expand` with the partner side's node
    MBBs (``other_lows_t`` / ``other_highs_t``, one row per dimension) as
    the probes, then the partner's clip points against each child.
    """
    rows, flat = expand(desc, nodes, other_lows_t, other_highs_t, partners)
    if other.has_clips:
        # Partner node's clip points vs the candidate child's rectangle.
        keep = ~padded_clip_veto(
            *other.node_major_clips(),
            partners[rows],
            desc.entry_lows.T,
            desc.entry_highs.T,
            flat,
        )
        rows, flat = rows[keep], flat[keep]
    children = desc.entry_child[flat]
    new_pids = ledger.add_pairs(pids[rows])
    ledger.record_accesses(outer_side, new_pids, desc.is_leaf[children])
    return children, partners[rows], new_pids


def _join_leaf_pairs(
    left: ColumnarIndex,
    right: ColumnarIndex,
    leaf_a: np.ndarray,
    leaf_b: np.ndarray,
    collected: Optional[List[Tuple[np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Join leaf pairs entry by entry; returns the emissions per pair.

    The search-space restriction of Brinkhoff, Kriegel & Seeger (SIGMOD
    1993, §4.1): an entry of ``leaf_a[p]`` that misses the MBB of
    ``leaf_b[p]`` meets none of its entries, and vice versa.  Per block of
    pairs:

    1. *Filter* — each leaf's entries are tested against the partner's
       MBB by the descent's step (:func:`~repro.engine.executor.expand`).
    2. *Expand* — only the survivor × survivor cells of each pair are
       formed, in (pair, left entry, right entry) row-major order: the
       scalar loop's left-outer / right-inner order.
    3. *Test* — ``Rect.intersects`` on those cells, dimension by dimension,
       each dimension on the cells the ones before it kept, with the
       survivors' coordinates gathered once.

    The filter drops no hit, since a node's MBB is the min/max of its own
    entries, and every compare is closed, so ±inf, zero-extent and
    face-touching entries meet as they do in the scalar loop.  A leaf
    joined with itself is the worst case: every entry survives and every
    cell of the pair is formed.  ``collected``, when given, receives the
    hits in order as ``(left_obj_idx, right_obj_idx)`` arrays.

    A block holds at most :data:`_LEAF_BLOCK_CELLS` cells of the dense
    ``(pairs, left fan-out, right fan-out)`` product; the restricted cells
    it forms are a subset of them, so that one constant bounds the
    working memory.
    """
    l_box_lows_t, l_box_highs_t = (bounds.T for bounds in left.node_bounds())
    r_box_lows_t, r_box_highs_t = (bounds.T for bounds in right.node_bounds())
    l_lows, l_highs = left.node_major()
    r_lows, r_highs = right.node_major()
    l_fanout, r_fanout = l_lows.shape[2], r_lows.shape[2]
    # One row per dimension, one column per padded entry of every node.
    l_flat = [side.reshape(left.dims, -1) for side in (l_lows, l_highs)]
    r_flat = [side.reshape(right.dims, -1) for side in (r_lows, r_highs)]
    step = max(1, _LEAF_BLOCK_CELLS // (l_fanout * r_fanout))
    counts = np.empty(len(leaf_a), dtype=np.int64)
    for start in range(0, len(leaf_a), step):
        a = leaf_a[start : start + step]
        b = leaf_b[start : start + step]
        pair_a, flat_a = expand(left, a, r_box_lows_t, r_box_highs_t, b)
        pair_b, flat_b = expand(right, b, l_box_lows_t, l_box_highs_t, a)
        # Left survivor s meets the right survivors of its own pair, which
        # are contiguous in ``pair_b`` order.
        n_b = np.bincount(pair_b, minlength=len(b))
        cell_b, cell_a = expand_segments((np.cumsum(n_b) - n_b)[pair_a], n_b[pair_a])
        # Flat entry e of node n is padded cell n·fan-out + e − entry_start[n].
        node_a, node_b = a[pair_a], b[pair_b]
        at_a = node_a * l_fanout + flat_a - left.entry_start[node_a]
        at_b = node_b * r_fanout + flat_b - right.entry_start[node_b]
        a_lows, a_highs = (side.take(at_a, axis=1) for side in l_flat)
        b_lows, b_highs = (side.take(at_b, axis=1) for side in r_flat)
        for dim in range(left.dims):
            hit = a_lows[dim].take(cell_a) <= b_highs[dim].take(cell_b)
            hit &= b_lows[dim].take(cell_b) <= a_highs[dim].take(cell_a)
            keep = np.flatnonzero(hit)
            cell_a, cell_b = cell_a.take(keep), cell_b.take(keep)
        counts[start : start + step] = np.bincount(pair_a.take(cell_a), minlength=len(a))
        if collected is not None and len(cell_a):
            collected.append(
                (left.entry_child[flat_a[cell_a]], right.entry_child[flat_b[cell_b]])
            )
    return counts


def _stt_rounds(
    left: ColumnarIndex,
    right: ColumnarIndex,
    ledger: _PairLedger,
    collected: Optional[List[Tuple[np.ndarray, np.ndarray]]],
) -> None:
    """Run the level-synchronous pair rounds from the root pair to the end.

    Records the root pair's accesses, then each round joins the
    frontier's leaf×leaf pairs and descends the deeper side of the rest.
    ``collected``, when given, receives ``(left_obj_idx, right_obj_idx)``
    arrays per leaf block.
    """
    # One contiguous row per dimension, as the descent's kernels gather them.
    l_lows_t, l_highs_t = (np.ascontiguousarray(b.T) for b in left.node_bounds())
    r_lows_t, r_highs_t = (np.ascontiguousarray(b.T) for b in right.node_bounds())
    l_levels = left.node_levels()
    r_levels = right.node_levels()

    frontier_a = frontier_b = np.array([ColumnarIndex.ROOT_SLOT], dtype=np.int64)
    frontier_pid = ledger.add_pairs(np.array([-1], dtype=np.int64))
    ledger.record_accesses(True, frontier_pid, left.is_leaf[frontier_a])
    ledger.record_accesses(False, frontier_pid, right.is_leaf[frontier_b])
    while True:
        both = left.is_leaf[frontier_a] & right.is_leaf[frontier_b]
        if both.any():
            counts = _join_leaf_pairs(
                left, right, frontier_a[both], frontier_b[both], collected
            )
            ledger.record_emissions(frontier_pid[both], counts)

        rest = ~both
        rest_a = frontier_a[rest]
        rest_b = frontier_b[rest]
        rest_pid = frontier_pid[rest]
        if not len(rest_a):
            return
        go_left = ~left.is_leaf[rest_a] & (
            right.is_leaf[rest_b] | (l_levels[rest_a] >= r_levels[rest_b])
        )

        next_a: List[np.ndarray] = []
        next_b: List[np.ndarray] = []
        next_pid: List[np.ndarray] = []
        if go_left.any():
            children, partner, pids = _stt_descend(
                ledger,
                left,
                right,
                rest_a[go_left],
                rest_b[go_left],
                rest_pid[go_left],
                r_lows_t,
                r_highs_t,
                outer_side=True,
            )
            next_a.append(children)
            next_b.append(partner)
            next_pid.append(pids)
        go_right = ~go_left
        if go_right.any():
            children, partner, pids = _stt_descend(
                ledger,
                right,
                left,
                rest_b[go_right],
                rest_a[go_right],
                rest_pid[go_right],
                l_lows_t,
                l_highs_t,
                outer_side=False,
            )
            next_a.append(partner)
            next_b.append(children)
            next_pid.append(pids)

        # ``rest`` is not empty, so at least one side descended.
        frontier_a = np.concatenate(next_a)
        frontier_b = np.concatenate(next_b)
        frontier_pid = np.concatenate(next_pid)


def stt_batch(
    left: ColumnarIndex,
    right: ColumnarIndex,
    collect_pairs: bool = True,
    left_live: Optional[np.ndarray] = None,
    right_live: Optional[np.ndarray] = None,
) -> JoinResult:
    """Synchronised Tree Traversal join of two snapshots.

    Equivalent to :func:`repro.join.stt.synchronized_tree_traversal_join`
    run on the snapshots' sources: identical pairs, ``pair_count``,
    ``outer_stats`` and ``inner_stats``.

    ``left_live`` / ``right_live``, when given, are boolean columns over
    that side's objects (see :func:`inlj_batch`): pairs with a ``False``
    row on either side are neither counted nor materialised.  The
    traversal, and so both ``IOStats``, are those of the unfiltered join.
    """
    if left.dims != right.dims:
        raise ValueError(f"snapshot dims differ: {left.dims} vs {right.dims}")
    result = JoinResult()
    root = ColumnarIndex.ROOT_SLOT
    # An empty side, or a root pair failing the (clipped) intersection
    # test: as in the scalar STT, nothing is accessed at all.
    if left.entry_count[root] == 0 or right.entry_count[root] == 0:
        return result
    if not _stt_roots_pass(left, right):
        return result
    ledger = _PairLedger()
    masked = left_live is not None or right_live is not None
    # Counting the live pairs takes the hits themselves, not the ledger's sums.
    hits: Optional[List[Tuple[np.ndarray, np.ndarray]]] = (
        [] if collect_pairs or masked else None
    )
    _stt_rounds(left, right, ledger, hits)
    result.pair_count = ledger.settle(result)
    if masked:
        for block, (a, b) in enumerate(hits):
            keep = np.ones(len(a), dtype=bool)
            if left_live is not None:
                keep &= left_live[a]
            if right_live is not None:
                keep &= right_live[b]
            hits[block] = (a[keep], b[keep])
        result.pair_count = sum(len(a) for a, _ in hits)
    if collect_pairs and hits:
        a_idx, b_idx = (np.concatenate(side) for side in zip(*hits))
        result.pairs.extend(zip(left.take_objects(a_idx), right.take_objects(b_idx)))
    return result
