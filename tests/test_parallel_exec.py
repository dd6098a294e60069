"""Regression tests for the multi-process sharded executor.

The invariant under test: for every worker count, a range batch through
:class:`ParallelExecutor` returns *exactly* what the single-process
columnar engine returns — same hit lists, in the same order, and the
same ``IOStats``.  The pool runs no other kind of task.

Worker counts {1, 2, 4} run even on a single-core machine; the pool is
merely oversubscribed, determinism must not depend on scheduling.
"""

import os

import pytest

from repro.engine import (
    ColumnarIndex,
    ParallelExecutor,
    default_workers,
    range_query_batch,
    save_snapshot,
)
from repro.engine.parallel import CHUNKS_PER_WORKER
from repro.geometry.rect import Rect
from repro.query.range_query import execute_workload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.storage.stats import IOStats
from tests.conftest import make_random_objects

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def frozen():
    objects = make_random_objects(320, dims=3, seed=11)
    tree = build_rtree("rstar", objects, max_entries=8)
    clipped = ClippedRTree.wrap(tree, method="stairline")
    return objects, ColumnarIndex.from_tree(clipped)


@pytest.fixture(scope="module")
def queries(frozen):
    objects, _ = frozen
    step = max(1, len(objects) // 24)
    result = []
    for obj in objects[::step][:24]:
        low = [c - 2.0 for c in obj.rect.low]
        high = [c + 2.0 for c in obj.rect.high]
        result.append(Rect(low, high))
    return result


def _oid_lists(results):
    return [[obj.oid for obj in batch] for batch in results]


def test_range_identical_across_worker_counts(frozen, queries):
    _, snapshot = frozen
    serial_stats = IOStats()
    serial = _oid_lists(range_query_batch(snapshot, queries, stats=serial_stats))
    for workers in WORKER_COUNTS:
        stats = IOStats()
        with ParallelExecutor(snapshot, workers=workers) as executor:
            results = executor.range_query_batch(queries, stats=stats)
        assert _oid_lists(results) == serial
        assert stats == serial_stats


def test_executor_accepts_snapshot_path(tmp_path, frozen, queries):
    _, snapshot = frozen
    save_snapshot(snapshot, tmp_path / "snap")
    serial = _oid_lists(range_query_batch(snapshot, queries))
    with ParallelExecutor(str(tmp_path / "snap"), workers=2) as executor:
        assert _oid_lists(executor.range_query_batch(queries)) == serial
    # A caller-provided directory is not owned: close() must keep it.
    assert (tmp_path / "snap" / "manifest.json").is_file()


def test_executor_cleans_owned_temp_dir(frozen):
    _, snapshot = frozen
    executor = ParallelExecutor(snapshot, workers=2)
    owned = executor.path
    assert owned.is_dir()
    executor.close()
    assert not owned.exists()


def test_empty_batches(frozen):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=2) as executor:
        assert executor.range_query_batch([]) == []


def test_range_rejects_wrong_dims_before_forking(frozen):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=2) as executor:
        with pytest.raises(ValueError, match="snapshot expects"):
            executor.range_query_batch([Rect([0.0, 0.0], [1.0, 1.0])])
        assert executor._pool is None


@pytest.mark.parametrize("n_items, workers", [(1, 4), (3, 2), (8, 2), (100, 4)])
def test_chunk_bounds_partition_the_batch(tmp_path, frozen, n_items, workers):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=workers, snapshot_dir=tmp_path / "snap") as executor:
        bounds = executor._chunk_bounds(n_items)
        assert executor._pool is None
    assert len(bounds) == min(n_items, workers * CHUNKS_PER_WORKER)
    assert bounds[0][0] == 0 and bounds[-1][1] == n_items
    assert all(start < end for start, end in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_range_batch_smaller_than_the_pool(frozen, queries):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=4) as executor:
        for batch in (queries[:1], queries[:3]):
            serial_stats, stats = IOStats(), IOStats()
            serial = _oid_lists(range_query_batch(snapshot, batch, stats=serial_stats))
            assert _oid_lists(executor.range_query_batch(batch, stats=stats)) == serial
            assert stats == serial_stats


def test_range_batch_without_hits(frozen):
    objects, snapshot = frozen
    far = max(c for obj in objects for c in obj.rect.high) + 100.0
    misses = [Rect([far + i] * 3, [far + i + 1.0] * 3) for i in range(6)]
    serial_stats, stats = IOStats(), IOStats()
    range_query_batch(snapshot, misses, stats=serial_stats)
    with ParallelExecutor(snapshot, workers=2) as executor:
        assert executor.range_query_batch(misses, stats=stats) == [[] for _ in misses]
    assert stats == serial_stats


def test_range_hits_are_the_coordinators_objects(frozen, queries):
    # Workers ship hit indices only; the objects come from the coordinator.
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=2) as executor:
        results = executor.range_query_batch(queries)
    ids = {id(obj) for obj in snapshot.objects}
    assert any(results) and all(id(obj) in ids for batch in results for obj in batch)


def test_range_stats_accumulate_across_batches(frozen, queries):
    _, snapshot = frozen
    serial_stats, stats = IOStats(), IOStats()
    halves = (queries[: len(queries) // 2], queries[len(queries) // 2 :])
    with ParallelExecutor(snapshot, workers=2) as executor:
        for half in halves:
            range_query_batch(snapshot, half, stats=serial_stats)
            executor.range_query_batch(half, stats=stats)
            assert stats == serial_stats
    assert stats.leaf_accesses > 0


def test_pool_is_lazy_and_reused(frozen, queries):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=2) as executor:
        assert executor._pool is None
        first = _oid_lists(executor.range_query_batch(queries))
        pool = executor._pool
        assert pool is not None
        assert _oid_lists(executor.range_query_batch(queries)) == first
        assert executor._pool is pool


def test_caller_snapshot_dir_is_kept(tmp_path, frozen, queries):
    _, snapshot = frozen
    target = tmp_path / "pool"
    with ParallelExecutor(snapshot, workers=2, snapshot_dir=target) as executor:
        assert executor.path == target
        assert _oid_lists(executor.range_query_batch(queries)) == _oid_lists(
            range_query_batch(snapshot, queries)
        )
    assert (target / "manifest.json").is_file()


def test_close_is_idempotent(frozen, queries):
    _, snapshot = frozen
    executor = ParallelExecutor(snapshot, workers=2)
    executor.range_query_batch(queries[:4])
    owned = executor.path
    executor.close()
    executor.close()
    assert executor._pool is None and not owned.exists()


def test_default_workers_positive():
    assert default_workers() >= 1
    assert default_workers() <= len(os.sched_getaffinity(0)) or default_workers() == 1


def test_execute_workload_executor_parity(frozen, queries):
    objects, _ = frozen
    snapshot = ColumnarIndex.from_tree(build_rtree("rstar", objects, max_entries=8))
    serial = execute_workload(snapshot, queries)
    with ParallelExecutor(snapshot, workers=2) as pool:
        parallel = execute_workload(pool, queries)
    assert parallel.queries == serial.queries
    assert parallel.total_results == serial.total_results
    assert parallel.stats == serial.stats
