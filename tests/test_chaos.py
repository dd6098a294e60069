"""Chaos suite: seeded fault injection against the executor and the server.

Two layers, in increasing integration order:

1. **Self-healing ParallelExecutor** — a seeded plan kills a pool worker
   mid-batch (``os._exit`` inside the submitted task).  The executor
   must detect the broken pool, rebuild it (bounded retries), re-run
   *only* the unfinished shards, and return results — hit lists *and*
   ``IOStats`` — bit-identical to a serial run.  With rebuilds
   exhausted, it must fall back to in-process serial execution instead
   of failing.
2. **End-to-end chaos serving** — a seeded plan (batch-fault burst +
   latency spike) under a query-only closed loop: every admitted request
   must complete with the correct answer or be explicitly
   shed/stale-stamped; nothing hangs, nothing is silently wrong.
"""

import asyncio

import pytest

from repro.engine import (
    ColumnarIndex,
    ParallelExecutor,
    knn_batch,
    range_query_batch,
)
from repro.engine.delta import SnapshotManager
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve.faults import (
    BATCH_FAULT,
    REQUEST_LATENCY,
    WORKER_KILL,
    FaultPlan,
    FaultSpec,
)
from repro.serve.loadgen import generate_requests, run_closed_loop
from repro.serve.resilience import LogicalClock
from repro.serve.server import CoalescingServer, ServeConfig
from repro.storage.stats import IOStats
from tests.conftest import make_random_objects


@pytest.fixture(scope="module")
def frozen():
    objects = make_random_objects(240, dims=3, seed=11)
    tree = build_rtree("rstar", objects, max_entries=8)
    clipped = ClippedRTree.wrap(tree, method="stairline")
    return objects, ColumnarIndex.from_tree(clipped)


@pytest.fixture(scope="module")
def queries(frozen):
    objects, _ = frozen
    step = max(1, len(objects) // 20)
    result = []
    for obj in objects[::step][:20]:
        low = [c - 2.0 for c in obj.rect.low]
        high = [c + 2.0 for c in obj.rect.high]
        result.append(Rect(low, high))
    return result


def _oid_lists(results):
    return [[obj.oid for obj in batch] for batch in results]


# ----------------------------------------------------------------------
# 1. self-healing ParallelExecutor
# ----------------------------------------------------------------------


def test_worker_kill_recovery_bit_identical(frozen, queries):
    _, snapshot = frozen
    serial_stats = IOStats()
    serial = _oid_lists(range_query_batch(snapshot, queries, stats=serial_stats))

    plan = FaultPlan([FaultSpec(WORKER_KILL, at=2, message="killed mid-batch")])
    stats = IOStats()
    with ParallelExecutor(snapshot, workers=2, fault_plan=plan) as executor:
        results = executor.range_query_batch(queries, stats=stats)
        assert executor.pool_rebuilds >= 1
        assert executor.serial_fallbacks == 0
    assert plan.fired(WORKER_KILL) == 1
    assert _oid_lists(results) == serial
    assert stats == serial_stats


def test_worker_kill_recovery_knn(frozen, queries):
    _, snapshot = frozen
    points = [q.low for q in queries[:8]]
    serial_stats = IOStats()
    serial = [
        [(d, o.oid) for d, o in r]
        for r in knn_batch(snapshot, points, k=4, stats=serial_stats)
    ]
    plan = FaultPlan([FaultSpec(WORKER_KILL, at=1)])
    stats = IOStats()
    with ParallelExecutor(snapshot, workers=2, fault_plan=plan) as executor:
        results = executor.knn_batch(points, k=4, stats=stats)
        assert executor.pool_rebuilds >= 1
    assert [[(d, o.oid) for d, o in r] for r in results] == serial
    assert stats == serial_stats


def test_rebuilds_exhausted_fall_back_to_serial(frozen, queries):
    _, snapshot = frozen
    serial = _oid_lists(range_query_batch(snapshot, queries))
    # every submission is killed: the pool can never make progress
    plan = FaultPlan([FaultSpec(WORKER_KILL, at=1, times=10_000)])
    with ParallelExecutor(
        snapshot, workers=2, fault_plan=plan, pool_rebuild_retries=1
    ) as executor:
        results = executor.range_query_batch(queries)
        assert executor.pool_rebuilds == 1
        assert executor.serial_fallbacks == 1
    assert _oid_lists(results) == serial


def test_partial_batch_survives_kill(frozen, queries):
    """Shards finished before the pool broke keep their results."""
    _, snapshot = frozen
    serial_stats = IOStats()
    serial = _oid_lists(range_query_batch(snapshot, queries, stats=serial_stats))
    # kill a late shard so earlier shards complete first
    plan = FaultPlan([FaultSpec(WORKER_KILL, at=4)])
    stats = IOStats()
    with ParallelExecutor(snapshot, workers=2, fault_plan=plan) as executor:
        results = executor.range_query_batch(queries, stats=stats)
    # re-running only unfinished shards must not double-count I/O
    assert stats == serial_stats
    assert _oid_lists(results) == serial


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# 2. end-to-end chaos serving
# ----------------------------------------------------------------------


def test_end_to_end_chaos_every_request_accounted_for(frozen):
    """Transient burst + latency spike under load (a query-only stream
    keeps the overlay empty).  Every admitted request completes correctly
    or is explicitly shed; degraded answers are stale-stamped; recovery
    counters are nonzero.
    """
    objects, snapshot = frozen
    manager = SnapshotManager(snapshot)
    plan = FaultPlan(
        [
            FaultSpec(BATCH_FAULT, at=4, times=3, message="transient burst"),
            FaultSpec(REQUEST_LATENCY, at=2, delay=0.005, message="latency spike"),
        ],
        seed=17,
    )
    config = ServeConfig(
        admission_rate=200.0,
        admission_burst=32,
        breaker_failure_threshold=3,
        breaker_cooldown=0.3,
        retry_max_attempts=5,
        retry_base_delay=0.001,
        retry_max_delay=0.002,
        default_deadline=60.0,
    )
    requests = generate_requests(
        120, seed=17, dims=3, write_fraction=0.0, knn_fraction=0.25
    )
    clock = LogicalClock()

    async def main():
        async with CoalescingServer(
            manager, config, fault_plan=plan, clock=clock
        ) as server:
            responses = await run_closed_loop(
                server, requests, concurrency=24, pace=0.01, clock=clock
            )
            return responses, server.report()

    responses, report = _run(main())
    assert len(responses) == len(requests)
    assert all(r.status in ("ok", "shed") for r in responses)
    assert report["completed"] == report["admitted"]
    assert report["errors"] == 0

    # recovery machinery engaged: the burst tripped the breaker
    assert report["faults_injected"] == plan.total_fired() >= 4
    assert report["retries"] >= 1
    assert report["breaker_opens"] >= 1

    # every ok answer is correct: fresh answers equal the live view; the
    # overlay is empty throughout, so stale-stamped degraded answers
    # coincide with it too
    for request, response in zip(requests, responses):
        if not response.ok:
            continue
        if request.kind == "range":
            expected = sorted(o.oid for o in manager.range_query(request.payload))
            assert sorted(o.oid for o in response.value) == expected
        elif request.kind == "knn":
            point, k = request.payload
            expected_knn = [
                (d, o.oid) for d, o in manager.knn_batch([point], k)[0]
            ]
            assert [(d, o.oid) for d, o in response.value] == expected_knn
