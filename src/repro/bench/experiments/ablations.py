"""Ablation studies for the design choices called out in DESIGN.md.

* ``run_tau_sweep`` — effect of the τ storage threshold (the paper fixes
  τ = 2.5 % and notes "we lack space to also vary τ").
* ``run_scoring_comparison`` — the paper's additive score approximation
  (Figure 5) versus the exact union volume of the selected clip points.
* ``run_k_sweep_io`` — query I/O as a function of k (Figure 10 varies k
  only for dead space; this measures its effect on leaf accesses).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import percent
from repro.cbb.clipping import ClippingConfig, compute_clip_points
from repro.cbb.scoring import clipped_union_volume
from repro.metrics.dead_space import clipped_dead_space_summary
from repro.query.range_query import execute_workload


def run_tau_sweep(
    context: ExperimentContext,
    dataset: str = "axo03",
    variant: str = "rrstar",
    taus: Sequence[float] = (0.0, 0.01, 0.025, 0.05, 0.1),
) -> List[Dict]:
    """Storage (clip points per node) and clipped dead space as τ varies."""
    rows: List[Dict] = []
    for tau in taus:
        clipped = context.clipped(dataset, variant, method="stairline", tau=tau)
        summary = clipped_dead_space_summary(clipped)
        rows.append(
            {
                "tau": tau,
                # averaged over *all* nodes (unclipped nodes count as zero),
                # so the value is monotone in tau
                "avg_clip_points": round(clipped.average_clip_points(), 2),
                "clipped_dead_space_pct": percent(summary.clipped),
                "remaining_dead_space_pct": percent(summary.remaining),
            }
        )
    return rows


def run_scoring_comparison(
    context: ExperimentContext, dataset: str = "par02", variant: str = "rstar"
) -> List[Dict]:
    """Additive score vs exact union volume of the selected clip points."""
    tree = context.tree(dataset, variant)
    config = ClippingConfig(method="stairline", k=context.config.clip_k, tau=context.config.clip_tau)
    rows: List[Dict] = []
    total_score = 0.0
    total_exact = 0.0
    nodes = 0
    for node in tree.nodes():
        if not node.entries:
            continue
        mbb = node.mbb()
        if mbb.volume() <= 0:
            continue
        clips = compute_clip_points(mbb, node.child_rects(), config)
        if not clips:
            continue
        score_sum = sum(c.score for c in clips)
        exact = clipped_union_volume(clips, mbb)
        total_score += score_sum
        total_exact += exact
        nodes += 1
    overcount = (total_score - total_exact) / total_exact if total_exact > 0 else 0.0
    rows.append(
        {
            "dataset": dataset,
            "variant": variant,
            "nodes": nodes,
            "additive_score_volume": round(total_score, 2),
            "exact_clipped_volume": round(total_exact, 2),
            "approximation_overcount_pct": percent(overcount),
        }
    )
    return rows


def run_k_sweep_io(
    context: ExperimentContext,
    dataset: str = "axo03",
    variant: str = "rstar",
    target_results: int = 10,
    k_values: Sequence[int] = (1, 2, 4, 8, 16),
) -> List[Dict]:
    """Relative query I/O as the number of clip points per node grows."""
    tree = context.tree(dataset, variant)
    queries = context.queries(dataset, target_results)
    base = execute_workload(context.snapshot(tree), queries)
    rows: List[Dict] = []
    for k in k_values:
        clipped = context.clipped(dataset, variant, method="stairline", k=k)
        result = execute_workload(context.snapshot(clipped), queries)
        relative = (
            100.0 * result.avg_leaf_accesses / base.avg_leaf_accesses
            if base.avg_leaf_accesses
            else 100.0
        )
        rows.append(
            {
                "k": k,
                "avg_leaf_acc": round(result.avg_leaf_accesses, 3),
                "relative_to_unclipped_pct": round(relative, 1),
            }
        )
    return rows
