"""Figure 1: why MBBs need help — overlap, dead space, and I/O optimality."""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import percent
from repro.metrics.dead_space import average_dead_space
from repro.metrics.io_optimality import io_optimality
from repro.metrics.overlap import average_overlap
from repro.query.workload import STANDARD_PROFILES
from repro.rtree.registry import VARIANT_LABELS

#: the two datasets of Figure 1
DATASETS = ("rea02", "axo03")


def run_overlap(context: ExperimentContext) -> List[Dict]:
    """Figure 1a: average % of a directory node's area covered by >= 2 children."""
    rows = []
    for dataset in DATASETS:
        for variant in context.config.variants:
            tree = context.tree(dataset, variant)
            rows.append(
                {
                    "dataset": dataset,
                    "variant": VARIANT_LABELS[variant],
                    "overlap_pct": percent(average_overlap(tree)),
                }
            )
    return rows


def run_dead_space(context: ExperimentContext) -> List[Dict]:
    """Figure 1b: average % of a node's volume that is dead space."""
    rows = []
    for dataset in DATASETS:
        for variant in context.config.variants:
            tree = context.tree(dataset, variant)
            rows.append(
                {
                    "dataset": dataset,
                    "variant": VARIANT_LABELS[variant],
                    "dead_space_pct": percent(average_dead_space(tree)),
                }
            )
    return rows


def run_io_optimality(context: ExperimentContext) -> List[Dict]:
    """Figure 1c: fraction of RR*-tree leaf accesses that contribute results."""
    rows = []
    for dataset in DATASETS:
        snapshot = context.snapshot(context.tree(dataset, "rrstar"))
        for profile in STANDARD_PROFILES:
            queries = context.queries(dataset, profile.target_results)
            rows.append(
                {
                    "dataset": dataset,
                    "profile": profile.name,
                    "selectivity": {"QR0": "high", "QR1": "medium", "QR2": "low"}[profile.name],
                    "optimal_leaf_access_pct": percent(io_optimality(snapshot, queries)),
                }
            )
    return rows


def run(context: ExperimentContext) -> Dict[str, List[Dict]]:
    """All three panels of Figure 1."""
    return {
        "fig1a_overlap": run_overlap(context),
        "fig1b_dead_space": run_dead_space(context),
        "fig1c_io_optimality": run_io_optimality(context),
    }
