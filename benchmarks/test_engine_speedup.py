"""Smoke benchmark: scalar vs columnar batch range-query throughput.

Builds an STR-packed tree over a uniform dataset, runs the same
calibrated workload through both engines, asserts the acceptance floor
(batch ≥ 5× scalar queries/second), and records the measurement in
``benchmarks/BENCH_engine.json`` so throughput regressions show up in
review diffs.

The default scale (`REPRO_ENGINE_BENCH_SCALE=1`) uses 25 000 objects and
250 queries to keep the tier-1 suite fast; `REPRO_ENGINE_BENCH_SCALE=4`
reproduces the ISSUE's 100k-object / 1k-query setting.
"""

import os
import time
from pathlib import Path

from repro.bench.archive import Floor
from repro.datasets import generate
from repro.engine import ColumnarIndex
from repro.query.range_query import execute_workload
from repro.query.workload import RangeQueryWorkload
from repro.rtree.registry import build_rtree

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"
#: Acceptance floor from the issue: batch ≥ 5× scalar throughput.
MIN_SPEEDUP = 5.0


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_ENGINE_BENCH_SCALE", "1"))
    except ValueError:
        return 1.0


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_engine_speedup_smoke(bench_recorder):
    scale = _scale()
    n_objects = int(25_000 * scale)
    n_queries = int(250 * scale)

    objects = generate("uniform02", n_objects, seed=7)
    tree = build_rtree("str", objects, max_entries=48)
    workload = RangeQueryWorkload.from_objects(objects, target_results=10, seed=1)
    queries = workload.query_list(n_queries)

    freeze_start = time.perf_counter()
    snapshot = ColumnarIndex.from_tree(tree)
    freeze_seconds = time.perf_counter() - freeze_start

    scalar_result = execute_workload(tree, queries)
    batch_result = execute_workload(snapshot, queries)
    # The two engines must agree before their timing is comparable.
    assert batch_result.total_results == scalar_result.total_results
    assert batch_result.stats.leaf_accesses == scalar_result.stats.leaf_accesses
    assert (
        batch_result.stats.contributing_leaf_accesses
        == scalar_result.stats.contributing_leaf_accesses
    )

    scalar_seconds = _best_of(lambda: execute_workload(tree, queries))
    batch_seconds = _best_of(
        lambda: execute_workload(snapshot, queries)
    )
    speedup = scalar_seconds / batch_seconds

    record = {
        "objects": n_objects,
        "queries": n_queries,
        "scale": scale,
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "freeze_seconds": round(freeze_seconds, 4),
        "scalar_qps": round(n_queries / scalar_seconds, 1),
        "batch_qps": round(n_queries / batch_seconds, 1),
        "speedup": round(speedup, 2),
        "avg_results_per_query": round(scalar_result.avg_results, 2),
        "leaf_accesses": scalar_result.stats.leaf_accesses,
    }
    bench_recorder(
        BENCH_PATH,
        record,
        floors=[
            Floor("speedup", MIN_SPEEDUP, label="columnar engine speedup over scalar"),
        ],
    )
