"""Regression tests for the multi-process sharded executor.

The invariant under test: for every entry point — range batches, kNN
batches, INLJ, STT — and every worker count, :class:`ParallelExecutor`
returns *exactly* what the single-process columnar engine returns: same
hit lists, same pairs, same ``pair_count``, same ``IOStats`` on both
sides.  STT's collected pairs are additionally pinned to be
order-identical across worker counts (the parallel order is
deterministic, though different from the serial round-major order — vs
serial they are compared as multisets).

Worker counts {1, 2, 4} run even on a single-core machine; the pool is
merely oversubscribed, determinism must not depend on scheduling.
"""

import os

import pytest

from repro.engine import (
    ColumnarIndex,
    ParallelExecutor,
    default_workers,
    inlj_batch,
    knn_batch,
    range_query_batch,
    save_snapshot,
    stt_batch,
)
from repro.geometry.rect import Rect
from repro.join import execute_join
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


def test_knn_identical_across_worker_counts(frozen, queries):
    _, snapshot = frozen
    points = [q.low for q in queries[:10]]
    serial_stats = IOStats()
    serial = [
        [(d, o.oid) for d, o in r]
        for r in knn_batch(snapshot, points, k=4, stats=serial_stats)
    ]
    for workers in WORKER_COUNTS:
        stats = IOStats()
        with ParallelExecutor(snapshot, workers=workers) as executor:
            results = executor.knn_batch(points, k=4, stats=stats)
        assert [[(d, o.oid) for d, o in r] for r in results] == serial
        assert stats == serial_stats


def test_inlj_identical_across_worker_counts(frozen):
    _, snapshot = frozen
    outer = make_random_objects(150, dims=3, seed=12)
    serial = inlj_batch(outer, snapshot)
    serial_pairs = [(a.oid, b.oid) for a, b in serial.pairs]
    for workers in WORKER_COUNTS:
        with ParallelExecutor(snapshot, workers=workers) as executor:
            result = executor.inlj_batch(outer)
        # INLJ's merge is order-identical to the serial batch join.
        assert [(a.oid, b.oid) for a, b in result.pairs] == serial_pairs
        assert result.pair_count == serial.pair_count
        assert result.inner_stats == serial.inner_stats
        assert result.outer_stats == serial.outer_stats


def test_stt_identical_across_worker_counts(frozen):
    _, left = frozen
    right_objects = make_random_objects(280, dims=3, seed=13)
    right = ColumnarIndex.from_tree(build_rtree("rstar", right_objects, max_entries=8))
    serial = stt_batch(left, right)
    serial_pairs = sorted((a.oid, b.oid) for a, b in serial.pairs)
    parallel_orders = []
    for workers in WORKER_COUNTS:
        with ParallelExecutor(left, workers=workers) as executor:
            result = executor.stt_batch(right)
        assert result.pair_count == serial.pair_count
        assert result.outer_stats == serial.outer_stats
        assert result.inner_stats == serial.inner_stats
        # Same pair multiset as serial; the parallel order (shipped-pair-
        # major) differs from the serial round-major order...
        pairs = [(a.oid, b.oid) for a, b in result.pairs]
        assert sorted(pairs) == serial_pairs
        parallel_orders.append(pairs)
    # ...but is itself invariant across worker counts.
    assert parallel_orders[0] == parallel_orders[1] == parallel_orders[2]


def test_stt_uncollected_counts_match(frozen):
    _, left = frozen
    right_objects = make_random_objects(200, dims=3, seed=14)
    right = ColumnarIndex.from_tree(build_rtree("hilbert", right_objects, max_entries=8))
    serial = stt_batch(left, right, collect_pairs=False)
    with ParallelExecutor(left, workers=3) as executor:
        result = executor.stt_batch(right, collect_pairs=False)
    assert result.pairs == []
    assert result.pair_count == serial.pair_count
    assert result.outer_stats == serial.outer_stats
    assert result.inner_stats == serial.inner_stats


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
        assert executor.knn_batch([], k=3) == []
        result = executor.inlj_batch([])
        assert result.pair_count == 0 and result.pairs == []


def test_knn_validates_inputs(frozen):
    _, snapshot = frozen
    with ParallelExecutor(snapshot, workers=2) as executor:
        with pytest.raises(ValueError, match="k must be"):
            executor.knn_batch([[0.0, 0.0, 0.0]], k=0)
        with pytest.raises(ValueError, match="expects"):
            executor.knn_batch([[0.0, 0.0]], k=2)


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


def test_execute_join_executor_parity(frozen):
    objects, left = frozen
    right_objects = make_random_objects(180, dims=3, seed=15)
    right_tree = ColumnarIndex.from_tree(build_rtree("rstar", right_objects, max_entries=8))

    serial = execute_join(objects, right_tree, algorithm="inlj")
    with ParallelExecutor(right_tree, workers=2) as pool:
        parallel = execute_join(objects, pool, algorithm="inlj")
    assert parallel.pair_count == serial.pair_count
    assert parallel.inner_stats == serial.inner_stats
    assert [(a.oid, b.oid) for a, b in parallel.pairs] == [
        (a.oid, b.oid) for a, b in serial.pairs
    ]

    serial = execute_join(left, right_tree, algorithm="stt")
    with ParallelExecutor(left, workers=2) as pool:
        parallel = execute_join(pool, right_tree, algorithm="stt")
    assert parallel.pair_count == serial.pair_count
    assert parallel.outer_stats == serial.outer_stats
    assert parallel.inner_stats == serial.inner_stats
    assert sorted((a.oid, b.oid) for a, b in parallel.pairs) == sorted(
        (a.oid, b.oid) for a, b in serial.pairs
    )


def test_stt_saves_a_right_hand_index_once(frozen):
    """Repeated joins against one index reuse its temp snapshot."""
    _, left = frozen
    right = ColumnarIndex.from_tree(
        build_rtree("rstar", make_random_objects(180, dims=3, seed=15), max_entries=8)
    )
    executor = ParallelExecutor(left, workers=2)
    results = [executor.stt_batch(right) for _ in range(3)]
    owned = list(executor._owned_dirs)
    assert len(owned) == 2  # the executor's own snapshot + one for ``right``
    assert all(directory.is_dir() for directory in owned)
    first = [(a.oid, b.oid) for a, b in results[0].pairs]
    assert first
    for result in results[1:]:
        assert [(a.oid, b.oid) for a, b in result.pairs] == first
        assert result.outer_stats == results[0].outer_stats
        assert result.inner_stats == results[0].inner_stats
    executor.close()
    assert not any(directory.exists() for directory in owned)
