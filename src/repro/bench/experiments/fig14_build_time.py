"""Figure 14: index-building time and the share spent computing CBBs.

All trees are built memory-resident and timed with ``perf_counter``; the
figure normalises everything against the unclipped RR*-tree (100 %).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentContext
from repro.cbb.clipping import ClippingConfig
from repro.datasets.registry import DATASET_NAMES
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree


def _timed_build(variant: str, objects, max_entries: int) -> float:
    start = time.perf_counter()
    build_rtree(variant, objects, max_entries=max_entries)
    return time.perf_counter() - start


def run(context: ExperimentContext, datasets: Sequence[str] = DATASET_NAMES) -> List[Dict]:
    """Build times relative to the unclipped RR*-tree, plus the CBB share."""
    config = context.config
    rows: List[Dict] = []
    for dataset in datasets:
        objects = context.objects(dataset)
        start = time.perf_counter()
        rrstar_tree = build_rtree("rrstar", objects, max_entries=config.max_entries)
        rrstar_time = time.perf_counter() - start
        hr_time = _timed_build("hilbert", objects, config.max_entries)
        rstar_time = _timed_build("rstar", objects, config.max_entries)

        # Clipping reads the tree but never mutates it, so both methods
        # can time their clip pass against the one RR*-tree built above.
        clip_times = {}
        for method in ("skyline", "stairline"):
            start = time.perf_counter()
            clipped = ClippedRTree(
                rrstar_tree,
                ClippingConfig(method=method, k=config.clip_k, tau=config.clip_tau),
            )
            clipped.clip_all()
            clip_times[method] = time.perf_counter() - start

        def relative(value: float) -> float:
            return round(100.0 * value / rrstar_time, 1) if rrstar_time > 0 else 0.0

        rows.append(
            {
                "dataset": dataset,
                "hr_tree_pct": relative(hr_time),
                "rstar_pct": relative(rstar_time),
                "rrstar_pct": 100.0,
                "csky_rrstar_pct": relative(rrstar_time + clip_times["skyline"]),
                "csky_clip_share_pct": relative(clip_times["skyline"]),
                "csta_rrstar_pct": relative(rrstar_time + clip_times["stairline"]),
                "csta_clip_share_pct": relative(clip_times["stairline"]),
            }
        )
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Only the normalisation: every other cell is a wall-clock ratio."""
    return {"normalised_to_rrstar": bool(rows) and all(r["rrstar_pct"] == 100.0 for r in rows)}
