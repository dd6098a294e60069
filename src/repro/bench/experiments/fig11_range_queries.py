"""Figure 11 and Table I: range-query I/O of clipped vs unclipped R-trees.

Figure 11 reports, per dataset / variant / query profile, the number of
leaf accesses of the stairline-clipped tree relative to its unclipped
counterpart (100 %).  Table I averages the I/O *reduction* over datasets
for both clipping methods.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import mean
from repro.datasets.registry import DATASET_NAMES
from repro.query.range_query import execute_workload
from repro.query.workload import STANDARD_PROFILES
from repro.rtree.registry import VARIANT_LABELS


def run(
    context: ExperimentContext,
    datasets: Sequence[str] = DATASET_NAMES,
    methods: Sequence[str] = ("skyline", "stairline"),
) -> List[Dict]:
    """Average leaf accesses per query for unclipped and clipped trees.

    Every index is frozen once (``context.snapshot``) and answers whole
    batches through the columnar kernels, which report the same
    leaf-access counts as the scalar traversal.
    """
    rows: List[Dict] = []
    for dataset in datasets:
        for profile in STANDARD_PROFILES:
            queries = context.queries(dataset, profile.target_results)
            for variant in context.config.variants:
                tree = context.tree(dataset, variant)
                base = execute_workload(context.snapshot(tree), queries)
                row = {
                    "dataset": dataset,
                    "profile": profile.name,
                    "variant": VARIANT_LABELS[variant],
                    "unclipped_leaf_acc": round(base.avg_leaf_accesses, 3),
                    "avg_results": round(base.avg_results, 2),
                }
                for method in methods:
                    clipped = context.clipped(dataset, variant, method=method)
                    result = execute_workload(context.snapshot(clipped), queries)
                    relative = (
                        100.0 * result.avg_leaf_accesses / base.avg_leaf_accesses
                        if base.avg_leaf_accesses > 0
                        else 100.0
                    )
                    key = "csky" if method == "skyline" else "csta"
                    row[f"{key}_leaf_acc"] = round(result.avg_leaf_accesses, 3)
                    row[f"{key}_relative_pct"] = round(relative, 1)
                rows.append(row)
    return rows


def table1(rows: List[Dict]) -> List[Dict]:
    """Aggregate Figure 11 rows into the paper's Table I.

    Each cell is the average % I/O reduction (``100 - relative``) for the
    skyline / stairline clipping, per R-tree variant and query profile,
    plus ``Total`` rows/columns averaging across profiles and variants.
    """
    profiles = [p.name for p in STANDARD_PROFILES]
    variants = sorted({row["variant"] for row in rows}, key=lambda v: list(VARIANT_LABELS.values()).index(v))

    def cell(variant: str, profile: str) -> str:
        selected = [
            row
            for row in rows
            if row["variant"] == variant and (profile == "Total" or row["profile"] == profile)
        ]
        if not selected:
            return "-"
        sky = sum(100.0 - r.get("csky_relative_pct", 100.0) for r in selected) / len(selected)
        sta = sum(100.0 - r.get("csta_relative_pct", 100.0) for r in selected) / len(selected)
        return f"{sky:.0f}/{sta:.0f}"

    table: List[Dict] = []
    for variant in variants:
        entry = {"variant": variant}
        for profile in profiles + ["Total"]:
            entry[profile] = cell(variant, profile)
        table.append(entry)

    totals = {"variant": "Total"}
    for profile in profiles + ["Total"]:
        selected = [r for r in rows if profile == "Total" or r["profile"] == profile]
        sky = sum(100.0 - r.get("csky_relative_pct", 100.0) for r in selected) / len(selected)
        sta = sum(100.0 - r.get("csta_relative_pct", 100.0) for r in selected) / len(selected)
        totals[profile] = f"{sky:.0f}/{sta:.0f}"
    table.append(totals)
    return table


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Clipping never adds I/O, CSTA saves more than CSKY, most on QR0."""
    sta, sky = (mean(r[key] for r in rows) for key in ("csta_relative_pct", "csky_relative_pct"))
    qr0, qr2 = (
        mean(r["csta_relative_pct"] for r in rows if r["profile"] == p) for p in ("QR0", "QR2")
    )
    return {
        "clipping_never_adds_io": all(
            max(r["csta_relative_pct"], r["csky_relative_pct"]) <= 100.0 + 1e-6 for r in rows
        ),
        # the paper's Table I: ~26 % (stairline) vs ~14 % (skyline) saved
        "stairline_saves_io": sta < 97.0,
        "stairline_saves_at_least_skyline": sta <= sky + 1.0,
        "selective_queries_gain_most": qr0 <= qr2 + 5.0,
    }
