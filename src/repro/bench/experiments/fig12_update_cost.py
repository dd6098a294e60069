"""Figure 12: expected number of re-clipped CBBs per insertion."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentContext
from repro.cbb.clipping import ClippingConfig
from repro.datasets.registry import DATASET_NAMES
from repro.rtree.clipped import ClippedRTree, ReclipCause
from repro.rtree.registry import VARIANT_LABELS, build_rtree


def run(
    context: ExperimentContext,
    datasets: Sequence[str] = DATASET_NAMES,
    method: str = "stairline",
    insert_fraction: float = 0.1,
) -> List[Dict]:
    """Build on 90 % of each dataset, insert the remaining 10 %, count re-clips."""
    config = context.config
    rows: List[Dict] = []
    for dataset in datasets:
        objects = context.objects(dataset)
        split_at = int(len(objects) * (1.0 - insert_fraction))
        initial, inserts = objects[:split_at], objects[split_at:]
        if not inserts:
            continue
        for variant in config.variants:
            tree = build_rtree(variant, initial, max_entries=config.max_entries)
            clipped = ClippedRTree(
                tree, ClippingConfig(method=method, k=config.clip_k, tau=config.clip_tau)
            )
            clipped.clip_all()
            cause_counts = {cause: 0 for cause in ReclipCause}
            for obj in inserts:
                report = clipped.insert(obj)
                for cause, count in report.counts_by_cause().items():
                    cause_counts[cause] += count
            denominator = len(inserts)
            rows.append(
                {
                    "dataset": dataset,
                    "variant": VARIANT_LABELS[variant],
                    "reclips_per_insert": round(
                        sum(cause_counts.values()) / denominator, 3
                    ),
                    "node_splits": round(cause_counts[ReclipCause.NODE_SPLIT] / denominator, 3),
                    "mbb_changes": round(cause_counts[ReclipCause.MBB_CHANGE] / denominator, 3),
                    "cbb_changes": round(cause_counts[ReclipCause.CBB_ONLY] / denominator, 3),
                }
            )
    return rows
