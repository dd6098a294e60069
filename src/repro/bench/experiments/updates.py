"""Incremental-update experiment: batched compaction vs a freeze per write.

The paper's §IV-D measures how many nodes an insertion re-clips; this
experiment measures what that costs end-to-end for a *served* columnar
snapshot.  Two :class:`~repro.engine.delta.SnapshotManager` instances
absorb the same mixed insert/delete stream over identical clipped trees,
through the one write path:

* ``refreeze`` (``compact_every=1``) folds every write into the source
  and re-freezes the snapshot at once — the naive baseline;
* ``delta`` buffers writes in the overlay and folds them in through
  periodic compactions with dirty-node-only re-clipping.

Both managers answer an identical query workload at the end and must
agree exactly — the speedup column is only meaningful because the two
serve the same results.
"""

from __future__ import annotations

import copy
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import ExperimentContext
from repro.engine.delta import SnapshotManager
from repro.geometry.objects import SpatialObject
from repro.rtree.registry import VARIANT_LABELS


def _update_stream(
    context: ExperimentContext, dataset: str, update_fraction: float
) -> List[Tuple[str, SpatialObject]]:
    """A shuffled insert/delete stream: half fresh objects, half victims."""
    config = context.config
    objects = context.objects(dataset)
    updates = max(8, min(120, int(len(objects) * update_fraction)))
    rng = random.Random(config.seed + 17)
    victims = rng.sample(objects, min(updates // 2, len(objects)))
    fresh = context.objects(dataset, size=updates - len(victims), seed=config.seed + 101)
    ops = [("delete", obj) for obj in victims] + [("insert", obj) for obj in fresh]
    rng.shuffle(ops)
    return ops


def _apply(manager: SnapshotManager, ops: Sequence[Tuple[str, SpatialObject]]) -> float:
    """Apply every op (plus a final compaction) and return elapsed seconds."""
    start = time.perf_counter()
    for kind, obj in ops:
        if kind == "insert":
            manager.insert(obj)
        else:
            manager.delete(obj)
    # The final fold belongs to the amortized cost, so time it too.
    manager.compact()
    return time.perf_counter() - start


def _result_keys(batches: List[List[SpatialObject]]) -> List[List[Tuple]]:
    return [sorted((o.oid, o.rect.low, o.rect.high) for o in hits) for hits in batches]


def run(
    context: ExperimentContext,
    datasets: Sequence[str] = ("par02", "rea02", "axo03"),
    method: str = "stairline",
    update_fraction: float = 0.1,
    compact_every: int = 32,
) -> List[Dict]:
    """Amortized per-write cost at both compaction periods, with a differential check."""
    config = context.config
    rows: List[Dict] = []
    for dataset in datasets:
        ops = _update_stream(context, dataset, update_fraction)
        queries = context.queries(dataset, target_results=20)
        for variant in config.variants:
            # The context's clipped tree is cached and must never mutate;
            # each manager owns a deep copy it is free to write to.
            reference = context.clipped(dataset, variant, method=method)
            refreeze = SnapshotManager(copy.deepcopy(reference), compact_every=1)
            delta = SnapshotManager(copy.deepcopy(reference), compact_every=compact_every)
            refreeze_seconds = _apply(refreeze, ops)
            delta_seconds = _apply(delta, ops)

            # Both managers must serve identical live states.
            assert _result_keys(delta.range_query_batch(queries)) == _result_keys(
                refreeze.range_query_batch(queries)
            )

            per_update = 1000.0 / len(ops)
            rows.append(
                {
                    "dataset": dataset,
                    "variant": VARIANT_LABELS[variant],
                    "updates": len(ops),
                    "refreeze_ms_per_update": round(refreeze_seconds * per_update, 3),
                    "delta_ms_per_update": round(delta_seconds * per_update, 3),
                    "speedup": round(refreeze_seconds / delta_seconds, 1)
                    if delta_seconds > 0
                    else float("inf"),
                    "compactions": delta.total_compactions,
                    "reclipped_nodes": delta.total_reclipped_nodes,
                }
            )
    return rows
