"""Figure 10: how much dead space the clip points remove, varying k."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import mean, percent
from repro.metrics.dead_space import clipped_dead_space_summary
from repro.rtree.registry import VARIANT_LABELS

DATASETS = ("par02", "par03", "rea02", "axo03")

#: k values of the figure: 1..2**(d+1) for 2d and 3d datasets.
K_VALUES_2D = (1, 2, 4, 6, 8)
K_VALUES_3D = (1, 4, 8, 12, 16)


def k_values_for(dataset: str) -> Sequence[int]:
    """The k sweep used by the figure for the given dataset."""
    return K_VALUES_3D if dataset.endswith("03") else K_VALUES_2D


def run(
    context: ExperimentContext,
    methods: Sequence[str] = ("skyline", "stairline"),
    datasets: Sequence[str] = DATASETS,
    k_values: Optional[Sequence[int]] = None,
) -> List[Dict]:
    """Dead space per node, split into clipped and remaining, for each k."""
    rows: List[Dict] = []
    for method in methods:
        for dataset in datasets:
            sweep = k_values if k_values is not None else k_values_for(dataset)
            for variant in context.config.variants:
                for k in sweep:
                    clipped = context.clipped(dataset, variant, method=method, k=k)
                    summary = clipped_dead_space_summary(clipped)
                    rows.append(
                        {
                            "method": method,
                            "dataset": dataset,
                            "variant": VARIANT_LABELS[variant],
                            "k": k,
                            "dead_space_pct": percent(summary.dead_space),
                            "clipped_pct": percent(summary.clipped),
                            "remaining_pct": percent(summary.remaining),
                            "clipped_share_pct": percent(summary.clipped_share_of_dead_space),
                        }
                    )
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Clipping is bounded by dead space, grows with k, and CSTA ≥ CSKY."""
    series = defaultdict(list)
    for row in sorted(rows, key=lambda r: r["k"]):
        series[row["method"], row["dataset"], row["variant"]].append(row["clipped_pct"])
    sky, sta = (
        {(r["dataset"], r["variant"], r["k"]): r["clipped_pct"] for r in rows if r["method"] == m}
        for m in ("skyline", "stairline")
    )
    common = set(sky) & set(sta)
    return {
        "clipping_within_dead_space": all(
            r["clipped_pct"] <= r["dead_space_pct"] + 1e-6 for r in rows
        ),
        "more_clip_points_clip_more": all(
            later >= earlier - 0.5 for s in series.values() for earlier, later in zip(s, s[1:])
        ),
        # averaged over the same (dataset, variant, k)
        "stairline_clips_at_least_skyline": mean(sta[key] for key in common)
        >= mean(sky[key] for key in common),
    }
