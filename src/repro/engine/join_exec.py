"""Columnar spatial-join execution over :class:`ColumnarIndex` snapshots.

The two §V join strategies, vectorized:

* :func:`inlj_batch` — Index Nested Loop Join: every outer rectangle
  probes the frozen inner index at once through the level-synchronous
  range frontier (:func:`repro.engine.executor.gather_range_hits`), one
  kernel sweep per tree level instead of one Python traversal per probe.
* :func:`stt_batch` — Synchronised Tree Traversal: the frontier holds
  *pairs* of node slots, one from each snapshot.  Each round splits the
  frontier into leaf×leaf pairs and descending pairs.  Both read the
  node-major padded layout (:meth:`ColumnarIndex.node_major`): a block of
  leaf pairs is joined by dense broadcast compares of the two leaves'
  entry rows into one ``(pairs, left fan-out, right fan-out)`` mask, and
  a descending pair tests the deeper side's entry row against the
  partner's MBB as the range frontier tests it against a query.  The
  surviving child pairs then take the paper's clipped dominance pruning —
  the candidate child's clip points probed with the partner's MBB and the
  partner's clip points probed with the candidate's rectangle, exactly
  the two ``node_intersects`` tests of the scalar ``_pair_passes`` — as
  two calls of the range frontier's probe
  (:func:`~repro.engine.kernels.padded_clip_veto` on
  :meth:`ColumnarIndex.node_major_clips`), which the root pair takes too.

Both reproduce the scalar joins (:mod:`repro.join`) exactly: the same
result pairs, the same ``pair_count``, and the same ``IOStats`` — one
access per node pairing, recorded on the side that descended, with a leaf
access *contributing* only when the subtree pairing entered at it emitted
at least one result pair.  The scalar STT learns a leaf's contribution
when its recursion returns; the frontier cannot wait, so every access is
tagged with the pair it created and emissions are propagated up the pair
tree (child pairs always have larger ids than their parents, so one
reverse sweep over the creation rounds settles every count).
``tests/test_join_differential.py`` pins the equivalence per variant ×
dataset × clipped/plain.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.executor import gather_range_hits
from repro.engine.kernels import (
    intersect_mask,
    mask_cells,
    padded_clip_veto,
    padded_intersect_mask,
)
from repro.geometry.objects import SpatialObject
from repro.join.result import JoinResult

#: Mask cells (pairs × left fan-out × right fan-out) per leaf×leaf block:
#: what bounds the join's working memory, whatever the frontier's length.
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
    q_lows = np.array([o.rect.low for o in outer_objects], dtype=np.float64)
    q_highs = np.array([o.rect.high for o in outer_objects], dtype=np.float64)
    if q_lows.shape[1] != inner.dims:
        raise ValueError(
            f"outer objects have {q_lows.shape[1]} dims, snapshot expects {inner.dims}"
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
        get = inner.objects.__getitem__
        result.pairs.extend(
            (outer_objects[q], get(o))
            for q, o in zip(all_q[order].tolist(), all_obj[order].tolist())
        )
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

    def settle(self, result: JoinResult) -> np.ndarray:
        """Propagate emissions up the pair tree and fill ``IOStats``.

        Returns the per-pair settled emission counts; entry 0 (the root
        pair, when pairs exist) is the total number of result pairs, and
        the leading entries of a sharded run (:func:`stt_shard`) are the
        per-shipped-pair subtree totals its parent folds back in.
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
        return emitted


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


class _SttFrontier:
    """One round's pending node pairs: slots, ledger ids, shard-root tags.

    ``roots`` carries, for every pending pair, the index of the starting
    pair it descends from — always 0 for a whole-join run, the shipped
    pair's position for a sharded run (:func:`stt_shard`), where the
    parent process uses it to merge per-shard hits deterministically.
    """

    __slots__ = ("a", "b", "pid", "root")

    def __init__(self, a: np.ndarray, b: np.ndarray, pid: np.ndarray, root: np.ndarray):
        self.a = a
        self.b = b
        self.pid = pid
        self.root = root

    def __len__(self) -> int:
        return len(self.a)


def _stt_descend(
    ledger: _PairLedger,
    desc: ColumnarIndex,
    other: ColumnarIndex,
    nodes: np.ndarray,
    partners: np.ndarray,
    pids: np.ndarray,
    roots: np.ndarray,
    other_lows_t: np.ndarray,
    other_highs_t: np.ndarray,
    outer_side: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand one side's entries against the partner nodes of the other.

    ``other_lows_t`` / ``other_highs_t`` are the partner side's node MBBs,
    one row per dimension.
    """
    lows, highs = desc.node_major()
    match = padded_intersect_mask(
        lows, highs, nodes, other_lows_t, other_highs_t, partners
    )
    rows, cols = mask_cells(match)
    flat = desc.entry_start[nodes[rows]] + cols
    if desc.has_clips:
        # Candidate child's own clip points vs the partner's MBB.
        keep = ~padded_clip_veto(
            *desc.node_major_clips(),
            desc.entry_child[flat],
            other_lows_t,
            other_highs_t,
            partners[rows],
        )
        rows, flat = rows[keep], flat[keep]
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
    return children, partners[rows], new_pids, roots[rows]


def _join_leaf_pairs(
    left: ColumnarIndex,
    right: ColumnarIndex,
    leaf_a: np.ndarray,
    leaf_b: np.ndarray,
    roots: np.ndarray,
    collected: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Join leaf pairs entry by entry; returns the emissions per pair.

    Cell ``[p, i, j]`` of a block's mask is ``Rect.intersects`` of the
    ``i``-th entry of ``leaf_a[p]`` and the ``j``-th of ``leaf_b[p]``
    (NaN padding fails it), so its row-major cells (:func:`mask_cells`) are
    the hits in the scalar loop's left-outer / right-inner order.
    ``collected``, when given, receives them as ``(left_obj_idx,
    right_obj_idx, root_tag)``.
    """
    l_lows, l_highs = left.node_major()
    r_lows, r_highs = right.node_major()
    step = max(1, _LEAF_BLOCK_CELLS // (l_lows.shape[2] * r_lows.shape[2]))
    counts = np.empty(len(leaf_a), dtype=np.int64)
    for start in range(0, len(leaf_a), step):
        a = leaf_a[start : start + step]
        b = leaf_b[start : start + step]
        hit = l_lows[0][a][:, :, None] <= r_highs[0][b][:, None, :]
        hit &= r_lows[0][b][:, None, :] <= l_highs[0][a][:, :, None]
        for dim in range(1, left.dims):
            hit &= l_lows[dim][a][:, :, None] <= r_highs[dim][b][:, None, :]
            hit &= r_lows[dim][b][:, None, :] <= l_highs[dim][a][:, :, None]
        counts[start : start + step] = np.count_nonzero(hit, axis=(1, 2))
        if collected is not None:
            pair, i, j = mask_cells(hit)
            if len(pair):
                collected.append(
                    (
                        left.entry_child[left.entry_start[a[pair]] + i],
                        right.entry_child[right.entry_start[b[pair]] + j],
                        roots[start + pair],
                    )
                )
    return counts


def _stt_rounds(
    left: ColumnarIndex,
    right: ColumnarIndex,
    frontier: _SttFrontier,
    ledger: _PairLedger,
    collected: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    collect_pairs: bool,
    stop_len: Optional[int] = None,
) -> _SttFrontier:
    """Run the level-synchronous pair rounds until done (or big enough).

    Each iteration joins the frontier's leaf×leaf pairs and descends the
    deeper side of the rest, exactly as before the sharding refactor.
    With ``stop_len``, the loop instead returns as soon as the frontier
    holds at least that many pairs — the parent process ships the
    returned frontier to the worker pool.  ``collected`` receives
    ``(left_obj_idx, right_obj_idx, root_tag)`` triples per leaf block.
    """
    # One contiguous row per dimension, as the descent's kernels gather them.
    l_lows_t, l_highs_t = (np.ascontiguousarray(b.T) for b in left.node_bounds())
    r_lows_t, r_highs_t = (np.ascontiguousarray(b.T) for b in right.node_bounds())
    l_levels = left.node_levels()
    r_levels = right.node_levels()

    while len(frontier.a):
        if stop_len is not None and len(frontier.a) >= stop_len:
            break
        frontier_a, frontier_b = frontier.a, frontier.b
        frontier_pid, frontier_root = frontier.pid, frontier.root
        a_leaf = left.is_leaf[frontier_a]
        b_leaf = right.is_leaf[frontier_b]

        both = a_leaf & b_leaf
        if both.any():
            counts = _join_leaf_pairs(
                left,
                right,
                frontier_a[both],
                frontier_b[both],
                frontier_root[both],
                collected if collect_pairs else None,
            )
            ledger.record_emissions(frontier_pid[both], counts)

        rest = ~both
        rest_a = frontier_a[rest]
        rest_b = frontier_b[rest]
        rest_pid = frontier_pid[rest]
        rest_root = frontier_root[rest]
        if not len(rest_a):
            return _SttFrontier(*(np.empty(0, dtype=np.int64) for _ in range(4)))
        go_left = ~left.is_leaf[rest_a] & (
            right.is_leaf[rest_b] | (l_levels[rest_a] >= r_levels[rest_b])
        )

        next_a: List[np.ndarray] = []
        next_b: List[np.ndarray] = []
        next_pid: List[np.ndarray] = []
        next_root: List[np.ndarray] = []
        if go_left.any():
            children, partner, pids, roots = _stt_descend(
                ledger,
                left,
                right,
                rest_a[go_left],
                rest_b[go_left],
                rest_pid[go_left],
                rest_root[go_left],
                r_lows_t,
                r_highs_t,
                outer_side=True,
            )
            next_a.append(children)
            next_b.append(partner)
            next_pid.append(pids)
            next_root.append(roots)
        go_right = ~go_left
        if go_right.any():
            children, partner, pids, roots = _stt_descend(
                ledger,
                right,
                left,
                rest_b[go_right],
                rest_a[go_right],
                rest_pid[go_right],
                rest_root[go_right],
                l_lows_t,
                l_highs_t,
                outer_side=False,
            )
            next_a.append(partner)
            next_b.append(children)
            next_pid.append(pids)
            next_root.append(roots)

        frontier = _SttFrontier(
            np.concatenate(next_a) if next_a else np.empty(0, dtype=np.int64),
            np.concatenate(next_b) if next_b else np.empty(0, dtype=np.int64),
            np.concatenate(next_pid) if next_pid else np.empty(0, dtype=np.int64),
            np.concatenate(next_root) if next_root else np.empty(0, dtype=np.int64),
        )
    return frontier


def stt_root_frontier(
    left: ColumnarIndex, right: ColumnarIndex, ledger: _PairLedger
) -> Optional[_SttFrontier]:
    """The root-pair frontier, with its accesses recorded — or ``None``.

    ``None`` means the join is empty before it starts: one side has no
    entries, or the root pair fails the (clipped) intersection test, in
    which case — matching the scalar STT — nothing is accessed at all.
    """
    if left.dims != right.dims:
        raise ValueError(f"snapshot dims differ: {left.dims} vs {right.dims}")
    root = ColumnarIndex.ROOT_SLOT
    if left.entry_count[root] == 0 or right.entry_count[root] == 0:
        return None
    if not _stt_roots_pass(left, right):
        return None
    root_arr = np.array([root], dtype=np.int64)
    root_pair = ledger.add_pairs(np.array([-1], dtype=np.int64))
    ledger.record_accesses(True, root_pair, left.is_leaf[root_arr])
    ledger.record_accesses(False, root_pair, right.is_leaf[root_arr])
    return _SttFrontier(
        root_arr, root_arr.copy(), root_pair, np.zeros(1, dtype=np.int64)
    )


def materialize_stt_pairs(
    result: JoinResult,
    left: ColumnarIndex,
    right: ColumnarIndex,
    collected: Iterable[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Resolve collected ``(left_idx, right_idx)`` arrays into result pairs."""
    get_l = left.objects.__getitem__
    get_r = right.objects.__getitem__
    for a_idx, b_idx in collected:
        result.pairs.extend(
            (get_l(i), get_r(j)) for i, j in zip(a_idx.tolist(), b_idx.tolist())
        )


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
    result = JoinResult()
    ledger = _PairLedger()
    frontier = stt_root_frontier(left, right, ledger)
    if frontier is None:
        return result
    masked = left_live is not None or right_live is not None
    collected: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    # Counting the live pairs takes the hits themselves, not the ledger's sums.
    _stt_rounds(left, right, frontier, ledger, collected, collect_pairs or masked)
    emitted = ledger.settle(result)
    result.pair_count = int(emitted[0]) if len(emitted) else 0
    hits = [(a, b) for a, b, _ in collected]
    if masked:
        for block, (a, b) in enumerate(hits):
            keep = np.ones(len(a), dtype=bool)
            if left_live is not None:
                keep &= left_live[a]
            if right_live is not None:
                keep &= right_live[b]
            hits[block] = (a[keep], b[keep])
        result.pair_count = sum(len(a) for a, _ in hits)
    if collect_pairs:
        materialize_stt_pairs(result, left, right, hits)
    return result


def stt_shard(
    left: ColumnarIndex,
    right: ColumnarIndex,
    nodes_a: np.ndarray,
    nodes_b: np.ndarray,
    collect_pairs: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[int, int, int], Tuple[int, int, int]]:
    """Finish the traversal for one shard of shipped frontier pairs.

    ``nodes_a[i]``/``nodes_b[i]`` is one pending node pair whose creation
    (and access accounting) already happened in the coordinating process;
    this runs its subtree join to completion.  Returns

    ``(hits_a, hits_b, hit_roots, root_emissions, outer_stats, inner_stats)``

    where ``hits_a``/``hits_b`` are object-index arrays of the result
    pairs found (empty when ``collect_pairs`` is false), ``hit_roots``
    tags each hit with the shipped pair (position in ``nodes_a``) whose
    subtree emitted it, ``root_emissions`` counts emissions per shipped
    pair — the coordinator feeds them back into its own ledger so
    contributing-leaf accounting settles exactly as in a single-process
    run — and the stats triples are ``(leaf, internal, contributing)``
    access counts for pairs created inside the shard.
    """
    n = len(nodes_a)
    ledger = _PairLedger()
    # The shipped pairs are this shard's roots: already accounted for by
    # the coordinator, so registered without access events.
    root_pids = ledger.add_pairs(np.full(n, -1, dtype=np.int64))
    frontier = _SttFrontier(
        np.asarray(nodes_a, dtype=np.int64),
        np.asarray(nodes_b, dtype=np.int64),
        root_pids,
        np.arange(n, dtype=np.int64),
    )
    collected: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    _stt_rounds(left, right, frontier, ledger, collected, collect_pairs)
    scratch = JoinResult()
    emitted = ledger.settle(scratch)
    root_emissions = emitted[:n] if len(emitted) else np.zeros(n, dtype=np.int64)
    if collected:
        hits_a = np.concatenate([a for a, _, _ in collected])
        hits_b = np.concatenate([b for _, b, _ in collected])
        hit_roots = np.concatenate([r for _, _, r in collected])
    else:
        hits_a = hits_b = hit_roots = np.empty(0, dtype=np.int64)
    outer = scratch.outer_stats
    inner = scratch.inner_stats
    return (
        hits_a,
        hits_b,
        hit_roots,
        root_emissions,
        (outer.leaf_accesses, outer.internal_accesses, outer.contributing_leaf_accesses),
        (inner.leaf_accesses, inner.internal_accesses, inner.contributing_leaf_accesses),
    )
