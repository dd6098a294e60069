"""Figure 13: storage overhead of clipped RR*-trees."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentContext
from repro.datasets.registry import DATASET_NAMES
from repro.metrics.storage_breakdown import storage_breakdown_percent


def run(
    context: ExperimentContext,
    datasets: Sequence[str] = DATASET_NAMES,
    variant: str = "rrstar",
) -> List[Dict]:
    """Byte share of directory nodes / leaf nodes / clip points per dataset."""
    rows: List[Dict] = []
    for dataset in datasets:
        for method, label in (("skyline", "CSKY"), ("stairline", "CSTA")):
            clipped = context.clipped(dataset, variant, method=method)
            breakdown = storage_breakdown_percent(clipped)
            rows.append(
                {
                    "dataset": dataset,
                    "method": label,
                    "dir_nodes_pct": round(breakdown["dir_nodes"], 2),
                    "leaf_nodes_pct": round(breakdown["leaf_nodes"], 2),
                    "clip_points_pct": round(breakdown["clip_points"], 2),
                    "avg_clip_points": round(breakdown["avg_clip_points"], 2),
                }
            )
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Leaves dominate storage; clip points are a small add-on, CSKY's smaller."""
    csky, csta = ({r["dataset"]: r for r in rows if r["method"] == m} for m in ("CSKY", "CSTA"))
    return {
        "storage_shares_add_up": all(
            abs(r["dir_nodes_pct"] + r["leaf_nodes_pct"] + r["clip_points_pct"] - 100.0) < 0.1
            for r in rows
        ),
        "leaf_nodes_dominate_storage": all(r["leaf_nodes_pct"] > 50.0 for r in rows),
        # the paper: <= 2 % in 2d, <= 9 % in 3d; looser here, our nodes are smaller
        "clip_points_are_a_small_add_on": all(r["clip_points_pct"] < 25.0 for r in rows),
        "skyline_stores_fewer_clip_points": all(
            csky[d][key] <= csta[d][key] + 1e-9
            for d in csky
            for key in ("avg_clip_points", "clip_points_pct")
        ),
    }
