"""Dimensionality sweep (d ∈ {2, 4, 6, 8}): where clipping's win shrinks.

The paper evaluates clipped bounding boxes on 2-d and 3-d data only.  This
scenario sweeps uniform-box datasets through d = 2, 4, 6 and 8 and
measures, per dimensionality and clipping method, (a) how much of the
node dead space the clip points remove and (b) the range-query leaf
accesses of the clipped tree relative to its unclipped counterpart.

The expected shape — and the reason the paper stops at d = 3 — is that
both wins shrink as d grows: a node has 2^d corners, so the paper's
default budget of k = 2^(d+1) clip points buys an ever smaller share of
an exponentially growing corner population, while uniform high-d boxes
leave proportionally less *clippable* (corner-aligned) dead space.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import percent
from repro.metrics.dead_space import average_dead_space, clipped_dead_space_summary
from repro.query.range_query import execute_workload
from repro.rtree.clipped import ClippedRTree

#: The sweep's dimensionalities and their registered uniform datasets.
DIMS = (2, 4, 6, 8)


def dataset_for(dims: int) -> str:
    return f"uniform{dims:02d}"


def run(
    context: ExperimentContext,
    dims: Sequence[int] = DIMS,
    methods: Sequence[str] = ("skyline", "stairline"),
    variant: str = "str",
    target_results: int = 10,
    size: Optional[int] = None,
) -> List[Dict]:
    """Clipped dead space and relative query I/O per dimensionality."""
    config = context.config
    rows: List[Dict] = []
    for d in dims:
        dataset = dataset_for(d)
        tree = context.tree(dataset, variant, size=size)
        queries = context.queries(dataset, target_results, size=size)
        base = execute_workload(context.snapshot(tree), queries)
        for method in methods:
            clipped = ClippedRTree.wrap(
                tree, method=method, k=config.clip_k, tau=config.clip_tau
            )
            result = execute_workload(context.snapshot(clipped), queries)
            summary = clipped_dead_space_summary(clipped)
            relative = (
                100.0 * result.avg_leaf_accesses / base.avg_leaf_accesses
                if base.avg_leaf_accesses > 0
                else 100.0
            )
            rows.append(
                {
                    "dims": d,
                    "method": "CSKY" if method == "skyline" else "CSTA",
                    "objects": len(context.objects(dataset, size=size)),
                    "dead_space_pct": percent(average_dead_space(tree)),
                    "clipped_share_pct": percent(summary.clipped_share_of_dead_space),
                    "avg_clip_points": round(clipped.store.average_clip_points(), 2),
                    "unclipped_leaf_acc": round(base.avg_leaf_accesses, 3),
                    "clipped_leaf_acc": round(result.avg_leaf_accesses, 3),
                    "relative_pct": round(relative, 1),
                    "io_reduction_pct": round(100.0 - relative, 1),
                }
            )
    return rows
