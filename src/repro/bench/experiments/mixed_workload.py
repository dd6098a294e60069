"""Mixed read/write workload over :class:`~repro.engine.delta.SnapshotManager`.

The paper's update experiment (Figure 12) counts re-clips per insertion
in isolation; real serving interleaves queries with writes.  This
scenario replays one shuffled stream of range queries, inserts, and
deletes — at several write fractions — through two managers on the one
write path:

* ``refreeze`` (``compact_every=1``) re-clips and re-freezes the snapshot
  on every write, so reads always hit a fresh snapshot but writes are
  brutally expensive;
* ``delta`` buffers writes in the overlay (queries merge base + delta)
  and folds them in through periodic compactions.

Both must answer every read in the stream identically — the throughput
comparison is only meaningful over equal answers.  Reported per write
fraction: end-to-end operations/second for both and the ``delta``
manager's compaction counters.
"""

from __future__ import annotations

import copy
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentContext
from repro.engine.delta import SnapshotManager
from repro.geometry.rect import Rect


def _build_stream(
    context: ExperimentContext,
    dataset: str,
    total_ops: int,
    write_fraction: float,
    target_results: int,
) -> List[Tuple[str, object]]:
    """A shuffled list of ``("query", rect)`` / ``("insert"|"delete", obj)`` ops."""
    config = context.config
    objects = context.objects(dataset)
    writes = int(round(total_ops * write_fraction))
    reads = total_ops - writes
    deletes = writes // 2
    inserts = writes - deletes
    rng = random.Random(config.seed + 31)
    victims = rng.sample(objects, min(deletes, len(objects)))
    fresh = context.objects(dataset, size=inserts, seed=config.seed + 101)
    workload = context.workload(dataset, target_results)
    queries = workload.query_list(reads, seed=config.seed + 5)
    ops: List[Tuple[str, object]] = (
        [("query", q) for q in queries]
        + [("delete", obj) for obj in victims]
        + [("insert", obj) for obj in fresh[:inserts]]
    )
    rng.shuffle(ops)
    return ops


def _replay(manager: SnapshotManager, ops: Sequence[Tuple[str, object]]):
    """Run the stream; returns (elapsed seconds, per-read result keys)."""
    answers: List[List[Tuple]] = []
    start = time.perf_counter()
    for kind, payload in ops:
        if kind == "query":
            hits = manager.range_query(payload)  # type: ignore[arg-type]
            answers.append(sorted((o.oid, o.rect.low, o.rect.high) for o in hits))
        elif kind == "insert":
            manager.insert(payload)
        else:
            manager.delete(payload)
    manager.compact()
    return time.perf_counter() - start, answers


def run(
    context: ExperimentContext,
    dataset: str = "par02",
    variant: str = "str",
    method: str = "stairline",
    write_fractions: Sequence[float] = (0.05, 0.2, 0.5),
    total_ops: Optional[int] = None,
    compact_every: int = 32,
    target_results: int = 10,
) -> List[Dict]:
    """Mixed-stream throughput at both compaction periods, with equal answers."""
    if total_ops is None:
        total_ops = max(40, min(240, len(context.objects(dataset)) // 10))
    reference = context.clipped(dataset, variant, method=method)
    rows: List[Dict] = []
    for write_fraction in write_fractions:
        ops = _build_stream(context, dataset, total_ops, write_fraction, target_results)
        # The cached clipped tree must never mutate; each manager owns a copy.
        delta = SnapshotManager(copy.deepcopy(reference), compact_every=compact_every)
        refreeze = SnapshotManager(copy.deepcopy(reference), compact_every=1)
        delta_seconds, delta_answers = _replay(delta, ops)
        refreeze_seconds, refreeze_answers = _replay(refreeze, ops)
        # Interleaved reads must agree op for op, whatever the period.
        assert delta_answers == refreeze_answers
        reads = sum(1 for kind, _ in ops if kind == "query")
        rows.append(
            {
                "dataset": dataset,
                "write_pct": round(100.0 * write_fraction, 1),
                "ops": len(ops),
                "reads": reads,
                "writes": len(ops) - reads,
                "delta_ops_per_second": round(len(ops) / delta_seconds, 1)
                if delta_seconds > 0
                else None,
                "refreeze_ops_per_second": round(len(ops) / refreeze_seconds, 1)
                if refreeze_seconds > 0
                else None,
                "speedup": round(refreeze_seconds / delta_seconds, 2)
                if delta_seconds > 0
                else None,
                "compactions": delta.total_compactions,
                "reclipped_nodes": delta.total_reclipped_nodes,
            }
        )
    return rows
