"""Figure 9: dead space vs representation cost of eight bounding methods.

For every node of an RR*-tree built over the 2d datasets (par02, rea02),
each bounding method replaces the node's MBB; the figure reports (a) the
average percentage of the shape's area that is empty and (b) the average
number of points needed to represent the shape.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import percent
from repro.bounding.base import SHAPE_NAMES, bounding_shape, dead_space_of_shape
from repro.cbb.clipping import ClippingConfig, compute_clip_points
from repro.cbb.scoring import clipped_union_volume
from repro.geometry.union_volume import union_volume

DATASETS = ("par02", "rea02")
ALL_METHODS = SHAPE_NAMES + ("CBBSKY", "CBBSTA")


def _node_rows(node, config_by_method) -> Dict[str, Dict[str, float]]:
    rects = node.child_rects()
    mbb = node.mbb()
    results: Dict[str, Dict[str, float]] = {}
    for name in SHAPE_NAMES:
        shape = bounding_shape(name, rects)
        results[name] = {
            "dead": dead_space_of_shape(shape, rects),
            "points": float(shape.num_points()),
        }
    covered = union_volume(rects, within=mbb)
    for label, config in config_by_method.items():
        clips = compute_clip_points(mbb, rects, config)
        shape_area = mbb.volume() - clipped_union_volume(clips, mbb)
        dead = 0.0 if shape_area <= 0 else max(0.0, 1.0 - covered / shape_area)
        results[label] = {"dead": dead, "points": float(2 + len(clips))}
    return results


def run(context: ExperimentContext, leaves_only: bool = True) -> List[Dict]:
    """Average dead space and #points per bounding method and dataset."""
    config = context.config
    config_by_method = {
        "CBBSKY": ClippingConfig(method="skyline", k=config.clip_k, tau=config.clip_tau),
        "CBBSTA": ClippingConfig(method="stairline", k=config.clip_k, tau=config.clip_tau),
    }
    rows: List[Dict] = []
    for dataset in DATASETS:
        tree = context.tree(dataset, "rrstar")
        nodes = list(tree.leaves()) if leaves_only else list(tree.nodes())
        sums = {name: {"dead": 0.0, "points": 0.0} for name in ALL_METHODS}
        count = 0
        for node in nodes:
            if not node.entries:
                continue
            per_node = _node_rows(node, config_by_method)
            for name in ALL_METHODS:
                sums[name]["dead"] += per_node[name]["dead"]
                sums[name]["points"] += per_node[name]["points"]
            count += 1
        for name in ALL_METHODS:
            rows.append(
                {
                    "dataset": dataset,
                    "method": name,
                    "avg_dead_space_pct": percent(sums[name]["dead"] / count) if count else 0.0,
                    "avg_points": round(sums[name]["points"] / count, 2) if count else 0.0,
                }
            )
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Cost and tightness orderings that hold on every dataset of the figure."""
    dead = {(r["dataset"], r["method"]): r["avg_dead_space_pct"] for r in rows}
    points = {(r["dataset"], r["method"]): r["avg_points"] for r in rows}
    datasets = {r["dataset"] for r in rows}

    def everywhere(check) -> bool:
        return bool(datasets) and all(check(d) for d in datasets)

    return {
        "mbb_costs_two_points": everywhere(lambda d: points[d, "MBB"] == 2)
        and all(r["avg_points"] >= 2 for r in rows),
        "hull_costs_most_points": everywhere(
            lambda d: points[d, "CH"] >= points[d, "5-C"] >= points[d, "4-C"]
        ),
        # CBBSKY stays cheap (the paper: one or two clip points on average)
        "skyline_no_more_points_than_stairline": everywhere(
            lambda d: points[d, "CBBSKY"] <= points[d, "CBBSTA"]
        ),
        "hull_tighter_than_mbb": everywhere(lambda d: dead[d, "CH"] <= dead[d, "MBB"] + 1e-9),
        "stairline_tighter_than_mbb": everywhere(lambda d: dead[d, "CBBSTA"] < dead[d, "MBB"]),
    }
