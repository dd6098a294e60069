"""Figure 15: querying large datasets from a cold (simulated) disk.

The paper scales par02/par03 to one billion objects so the index no longer
fits in memory and measures wall-clock query time on a cold 7200 RPM disk.
We reproduce the *shape* of that experiment at a configurable smaller
scale: all nodes live on a simulated disk, a small LRU buffer pool fronts
it, and query cost is the accumulated simulated read latency (see
``repro.storage.disk.DiskModel``).  The quantities compared — HR-tree and
RR*-tree, unclipped vs CSKY vs CSTA — match the figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import ExperimentContext
from repro.engine import ColumnarIndex, range_query_batch
from repro.query.workload import RangeQueryWorkload, STANDARD_PROFILES
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IOStats

DATASETS = ("par02", "par03")
VARIANTS = ("hilbert", "rrstar")


def _replay_scalar_order(snapshot: ColumnarIndex, queries, pool: BufferPool) -> None:
    """Charge ``pool`` with exactly the scalar traversal's access sequence.

    The batch executor reports which nodes each query visits; this walks
    that visited subtree per query with the same stack discipline as
    ``RTreeBase.range_query`` (children pushed in entry order, popped
    LIFO), so the buffer pool and simulated disk see the identical page
    sequence — fig15 numbers match the scalar traversal byte for byte.
    """
    visit_queries: List[np.ndarray] = []
    visit_nodes: List[np.ndarray] = []

    def record(query_indices: np.ndarray, node_ids: np.ndarray) -> None:
        visit_queries.append(query_indices)
        visit_nodes.append(node_ids)

    range_query_batch(snapshot, queries, access_hook=record)
    if not visit_nodes:
        return
    slot_of = {nid: slot for slot, nid in enumerate(snapshot.node_ids.tolist())}
    all_q = np.concatenate(visit_queries)
    all_slots = np.fromiter(
        (slot_of[nid] for nid in np.concatenate(visit_nodes).tolist()),
        dtype=np.int64,
        count=len(all_q),
    )
    order = np.argsort(all_q, kind="stable")
    sorted_q = all_q[order]
    sorted_slots = all_slots[order]
    boundaries = np.nonzero(np.diff(sorted_q))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_q)]))
    node_ids = snapshot.node_ids.tolist()
    for seg_start, seg_end in zip(starts.tolist(), ends.tolist()):
        visited = set(sorted_slots[seg_start:seg_end].tolist())
        stack = [ColumnarIndex.ROOT_SLOT]
        while stack:
            slot = stack.pop()
            pool.access(node_ids[slot])
            if not snapshot.is_leaf[slot]:
                entry_start = int(snapshot.entry_start[slot])
                entry_end = entry_start + int(snapshot.entry_count[slot])
                for child in snapshot.entry_child[entry_start:entry_end].tolist():
                    if child in visited:
                        stack.append(child)


def _simulated_query_time_ms(index, tree: RTreeBase, queries, buffer_fraction: float) -> float:
    """Average simulated query latency in milliseconds.

    ``index`` is a frozen :class:`ColumnarIndex` of ``tree`` (plain or
    clipped) — its node visits come from the batch executor and are
    replayed into the buffer pool in scalar traversal order — or the
    tree / clipped wrapper itself, whose scalar traversal charges the
    pool directly: the reference the replay must match
    (``tests/test_bench_experiments.py::test_fig15_engine_equivalence``).
    """
    disk = SimulatedDisk()
    for node in tree.nodes():
        disk.register_page(node.node_id)
    capacity = max(1, int(tree.node_count() * buffer_fraction))
    pool = BufferPool(capacity, disk=disk, stats=IOStats())

    if isinstance(index, ColumnarIndex):
        _replay_scalar_order(index, queries, pool)
    else:
        def charge(node) -> None:
            pool.access(node.node_id)

        for query in queries:
            index.range_query(query, access_hook=charge)
    return disk.elapsed_ms / len(queries) if queries else 0.0


def run(
    context: ExperimentContext,
    datasets: Sequence[str] = DATASETS,
    size: Optional[int] = None,
    buffer_fraction: float = 0.05,
    queries_per_profile: Optional[int] = None,
) -> List[Dict]:
    """Average simulated query time for HR-/RR*-trees, unclipped and clipped."""
    config = context.config
    size = config.scalability_size if size is None else size
    queries_per_profile = (
        config.queries_per_profile if queries_per_profile is None else queries_per_profile
    )
    rows: List[Dict] = []
    for dataset in datasets:
        objects = context.objects(dataset, size=size)
        for variant in VARIANTS:
            tree = build_rtree(variant, objects, max_entries=config.max_entries)
            # Freeze each index once, not once per profile.
            snapshots = {"unclipped": ColumnarIndex.from_tree(tree)}
            for method, label in (("skyline", "CSKY"), ("stairline", "CSTA")):
                clipped = ClippedRTree.wrap(
                    tree, method=method, k=config.clip_k, tau=config.clip_tau
                )
                snapshots[label] = ColumnarIndex.from_tree(clipped)
            for profile in STANDARD_PROFILES:
                workload = RangeQueryWorkload.from_objects(
                    objects, target_results=profile.target_results, seed=config.seed
                )
                queries = workload.query_list(queries_per_profile)
                row = {
                    "dataset": dataset,
                    "variant": "HR-tree" if variant == "hilbert" else "RR*-tree",
                    "profile": profile.name,
                }
                for label, snapshot in snapshots.items():
                    row[f"{label}_ms"] = round(
                        _simulated_query_time_ms(snapshot, tree, queries, buffer_fraction),
                        3,
                    )
                rows.append(row)
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Clipping never slows a cold query; a clipped HR-tree nears the RR*-tree."""
    rr = {
        (r["dataset"], r["profile"]): r["unclipped_ms"] for r in rows if r["variant"] == "RR*-tree"
    }
    hr = [r for r in rows if r["variant"] == "HR-tree" and (r["dataset"], r["profile"]) in rr]
    return {
        # the tolerance absorbs LRU-eviction noise between separate walks
        "clipping_never_slows_cold_queries": all(
            0.0 <= max(r["CSTA_ms"], r["CSKY_ms"]) <= r["unclipped_ms"] * 1.05 + 1e-9
            for r in rows
        ),
        "clipped_hr_tree_competes_with_rrstar": bool(hr)
        and all(r["CSTA_ms"] <= rr[r["dataset"], r["profile"]] * 1.6 for r in hr),
    }
