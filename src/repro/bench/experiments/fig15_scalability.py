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

from typing import Dict, List, Optional, Sequence, Union

from repro.bench.harness import ExperimentContext
from repro.query.workload import RangeQueryWorkload, STANDARD_PROFILES
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IOStats

DATASETS = ("par02", "par03")
VARIANTS = ("hilbert", "rrstar")


def _simulated_query_time_ms(
    index: Union[RTreeBase, ClippedRTree], tree: RTreeBase, queries, buffer_fraction: float
) -> float:
    """Average simulated query latency in milliseconds.

    ``index`` is ``tree`` or a clipped wrapper of it; its scalar
    traversal charges every visited node to the buffer pool, in the
    order the paper's disk would read them.
    """
    disk = SimulatedDisk()
    for node in tree.nodes():
        disk.register_page(node.node_id)
    capacity = max(1, int(tree.node_count() * buffer_fraction))
    pool = BufferPool(capacity, disk=disk, stats=IOStats())

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
            # Clip each index once, not once per profile.
            indexes = {"unclipped": tree}
            for method, label in (("skyline", "CSKY"), ("stairline", "CSTA")):
                indexes[label] = ClippedRTree.wrap(
                    tree, method=method, k=config.clip_k, tau=config.clip_tau
                )
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
                for label, index in indexes.items():
                    row[f"{label}_ms"] = round(
                        _simulated_query_time_ms(index, tree, queries, buffer_fraction),
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
