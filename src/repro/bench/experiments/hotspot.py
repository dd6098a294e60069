"""Skewed-hotspot query profile: clipping and caching under concentration.

The paper's workloads query dithered object centres chosen uniformly, so
every region is visited in proportion to its density.  Real serving
traffic concentrates: a few hot regions absorb most queries.  This
scenario compares the paper's uniform profile against a hotspot profile
where ``skew`` of the queries cluster around a handful of hot centres,
and reports, per profile:

* range-query leaf accesses of the unclipped vs stairline-clipped tree
  (clipping keeps helping under skew — the reduction is per query);
* the hit rate of a small LRU buffer pool replaying the scalar
  traversal's page accesses — hotspot traffic re-reads the same subtree
  and caches dramatically better, which is what makes a hot shard cheap
  to serve.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentContext
from repro.bench.reporting import percent
from repro.geometry.rect import Rect
from repro.query.range_query import execute_workload
from repro.storage.buffer_pool import BufferPool


def hotspot_queries(
    context: ExperimentContext,
    dataset: str,
    count: int,
    target_results: int = 10,
    hotspot_count: int = 4,
    skew: float = 0.9,
    size: Optional[int] = None,
) -> List[Rect]:
    """``count`` calibrated queries, ``skew`` of them around hot centres."""
    config = context.config
    objects = context.objects(dataset, size=size)
    workload = context.workload(dataset, target_results, size=size)
    rng = random.Random(config.seed + 23)
    hotspots = [rng.choice(objects).rect.center for _ in range(hotspot_count)]
    queries: List[Rect] = []
    for _ in range(count):
        if rng.random() < skew:
            base = rng.choice(hotspots)
        else:
            base = rng.choice(objects).rect.center
        center = [c + rng.uniform(-workload.dither, workload.dither) for c in base]
        queries.append(workload.query_at(center))
    return queries


def _buffer_hit_rate(tree, queries, buffer_fraction: float) -> float:
    """Hit rate of an LRU pool replaying the scalar traversal's accesses.

    The pool holds ``buffer_fraction`` of the tree's nodes but never fewer
    than 8 pages — below that even the root and the top internal level
    thrash, and every profile degenerates to a 0 % hit rate.
    """
    pool = BufferPool(max(8, int(tree.node_count() * buffer_fraction)))

    def charge(node) -> None:
        pool.access(node.node_id)

    for query in queries:
        tree.range_query(query, access_hook=charge)
    stats = pool.stats
    total = stats.buffer_hits + stats.buffer_misses
    return stats.buffer_hits / total if total else 0.0


def run(
    context: ExperimentContext,
    dataset: str = "par02",
    variant: str = "str",
    method: str = "stairline",
    hotspot_count: int = 4,
    skew: float = 0.9,
    target_results: int = 10,
    buffer_fraction: float = 0.2,
) -> List[Dict]:
    """Leaf accesses and buffer hit rate, uniform vs hotspot profile."""
    config = context.config
    count = config.queries_per_profile
    tree = context.tree(dataset, variant)
    clipped = context.clipped(dataset, variant, method=method)
    profiles = {
        "uniform": context.queries(dataset, target_results),
        "hotspot": hotspot_queries(
            context, dataset, count, target_results=target_results,
            hotspot_count=hotspot_count, skew=skew,
        ),
    }
    rows: List[Dict] = []
    for profile, queries in profiles.items():
        base = execute_workload(context.snapshot(tree), queries)
        clip = execute_workload(context.snapshot(clipped), queries)
        relative = (
            100.0 * clip.avg_leaf_accesses / base.avg_leaf_accesses
            if base.avg_leaf_accesses > 0
            else 100.0
        )
        rows.append(
            {
                "dataset": dataset,
                "profile": profile,
                "queries": len(queries),
                "unclipped_leaf_acc": round(base.avg_leaf_accesses, 3),
                "clipped_leaf_acc": round(clip.avg_leaf_accesses, 3),
                "io_reduction_pct": round(100.0 - relative, 1),
                "buffer_hit_rate_pct": percent(
                    _buffer_hit_rate(tree, queries, buffer_fraction)
                ),
                "avg_results": round(base.avg_results, 2),
            }
        )
    return rows
