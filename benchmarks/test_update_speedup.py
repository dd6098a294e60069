"""Smoke benchmark: amortized update cost, batched compaction vs a freeze per write.

Builds a clipped STR-packed index over ``par02``, then pushes the same
mixed insert/delete stream through two ``SnapshotManager`` instances:
``refreeze`` (``compact_every=1``: every write is folded in, re-clipped
and re-frozen at once) and ``delta`` (writes buffer in the overlay and
fold in through periodic compactions with dirty-node-only re-clipping).
Before timing, both must serve identical query results — checked against
each other *and* against a brute-force scan of the expected live set —
and the ``delta`` manager's post-compaction clip store must equal a fresh
``clip_all`` over its own tree.  The measurements land in
``benchmarks/BENCH_updates.json`` and the amortized delta write must be
at least ``MIN_SPEEDUP``× cheaper than refreeze-per-write.

The default scale (``REPRO_UPDATE_BENCH_SCALE=1``) uses 6 000 base
objects and 300 updates to keep the suite fast; raise it to stress
larger snapshots.
"""

import copy
import os
import random
import time
from pathlib import Path

from repro.bench.archive import Floor
from repro.datasets.registry import dataset_info
from repro.engine.delta import SnapshotManager
from repro.query.range_query import brute_force_range
from repro.query.workload import RangeQueryWorkload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_updates.json"
#: Acceptance floor from the issue: amortized delta write ≥ 5× cheaper.
MIN_SPEEDUP = 5.0
MAX_ENTRIES = 32
COMPACT_EVERY = 150


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_UPDATE_BENCH_SCALE", "1"))
    except ValueError:
        return 1.0


def _build_clipped(objects):
    return ClippedRTree.wrap(
        build_rtree("str", objects, max_entries=MAX_ENTRIES),
        method="stairline",
        engine="vectorized",
    )


def _apply(manager, ops):
    for kind, obj in ops:
        if kind == "insert":
            manager.insert(obj)
        else:
            assert manager.delete(obj)
    manager.compact()


def _timed_apply(clipped, ops, repeats, **manager_kwargs):
    """Best-of-``repeats`` seconds to apply ``ops`` to a fresh manager."""
    times = []
    for _ in range(repeats):
        manager = SnapshotManager(copy.deepcopy(clipped), **manager_kwargs)
        start = time.perf_counter()
        _apply(manager, ops)
        times.append(time.perf_counter() - start)
    return min(times), manager


def _keys(hits):
    return sorted((obj.oid, obj.rect.low, obj.rect.high) for obj in hits)


def test_update_speedup_smoke(bench_recorder):
    scale = _scale()
    n_objects = int(6_000 * scale)
    n_updates = int(300 * scale)

    generator = dataset_info("par02")
    base = generator.generate(n_objects, seed=7)
    fresh = generator.generate(n_updates - n_updates // 2, seed=8)
    rng = random.Random(9)
    victims = rng.sample(base, n_updates // 2)
    ops = [("delete", obj) for obj in victims] + [("insert", obj) for obj in fresh]
    rng.shuffle(ops)

    clipped = _build_clipped(base)
    queries = RangeQueryWorkload.from_objects(
        base, target_results=20, seed=7
    ).query_list(24)

    # The two must agree — with each other and with brute force over the
    # expected live set — before their timing is comparable.
    refreeze = SnapshotManager(copy.deepcopy(clipped), compact_every=1)
    delta = SnapshotManager(copy.deepcopy(clipped), compact_every=COMPACT_EVERY)
    _apply(refreeze, ops)
    _apply(delta, ops)
    victim_set = set(id(obj) for obj in victims)
    live = [obj for obj in base if id(obj) not in victim_set] + fresh
    for query in queries:
        expected = _keys(brute_force_range(live, query))
        assert _keys(refreeze.range_query(query)) == expected
        assert _keys(delta.range_query(query)) == expected

    # After compaction the delta manager's clip store must match a fresh
    # full clipping pass over its own (mutated) tree.
    source = delta._source
    reference = ClippedRTree(copy.deepcopy(source.tree), source.config)
    reference.clip_all(engine="vectorized")
    assert dict(source.store.items()) == dict(reference.store.items())

    refreeze_seconds, _ = _timed_apply(clipped, ops, 2, compact_every=1)
    delta_seconds, delta_manager = _timed_apply(clipped, ops, 3, compact_every=COMPACT_EVERY)
    speedup = refreeze_seconds / delta_seconds

    record = {
        "objects": n_objects,
        "updates": n_updates,
        "scale": scale,
        "max_entries": MAX_ENTRIES,
        "compact_every": COMPACT_EVERY,
        "refreeze_seconds": round(refreeze_seconds, 4),
        "refreeze_ms_per_update": round(1000 * refreeze_seconds / n_updates, 4),
        "delta_seconds": round(delta_seconds, 4),
        "delta_ms_per_update": round(1000 * delta_seconds / n_updates, 4),
        "speedup": round(speedup, 2),
        "compactions": delta_manager.total_compactions,
        "reclipped_nodes": delta_manager.total_reclipped_nodes,
    }
    bench_recorder(
        BENCH_PATH,
        record,
        floors=[
            Floor(
                "speedup",
                MIN_SPEEDUP,
                label="amortized delta write speedup over refreeze-per-write",
            ),
        ],
    )
