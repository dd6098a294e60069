"""Figure 1: why MBBs need help — overlap, dead space, and I/O optimality."""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import mean, percent
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


def claims(panels: Mapping[str, List[Dict]]) -> Dict[str, bool]:
    """What Figure 1 shows: overlap is small, dead space is most of a node."""
    dead, optimality = panels["fig1b_dead_space"], panels["fig1c_io_optimality"]

    def optimal(dataset: str) -> float:
        return mean(r["optimal_leaf_access_pct"] for r in optimality if r["dataset"] == dataset)

    return {
        # the paper reports 8-30 % overlap: small relative to dead space
        "overlap_is_a_minority": all(0 <= r["overlap_pct"] <= 60 for r in panels["fig1a_overlap"]),
        "dead_space_is_most_of_a_node": all(50 <= r["dead_space_pct"] <= 100 for r in dead),
        "axo03_nodes_almost_all_dead": min(
            (r["dead_space_pct"] for r in dead if r["dataset"] == "axo03"), default=0.0
        ) >= 85.0,
        "optimality_is_a_share": all(0 < r["optimal_leaf_access_pct"] <= 100 for r in optimality),
        # dead space wastes leaf accesses, at least as many on the 3d dataset
        "axo03_wastes_accesses": optimal("axo03") < 100.0,
        "axo03_wastes_at_least_rea02": optimal("axo03") <= optimal("rea02") + 2.0,
    }
