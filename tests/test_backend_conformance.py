"""One workload, every backend: the object handed in picks the path.

``execute_workload`` and ``execute_join`` take no engine argument; they
run the scalar reference for a tree, the batch kernels for a
``ColumnarIndex``, the base + delta merge for a ``SnapshotManager`` and,
for range workloads only, the worker pool for a ``ParallelExecutor``.
Whatever runs must answer like a brute-force scan of the live objects,
and the backends that serve nothing but the frozen base must also charge
identical ``IOStats``.
"""

import dataclasses
import inspect

import pytest

from repro.bench import BenchConfig
from repro.bench.runner import run_experiment
from repro.cli import main
from repro.engine import ColumnarIndex, ParallelExecutor, SnapshotManager
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.query.knn import knn_query
from repro.query.range_query import brute_force_range, execute_workload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve.server import ServeConfig
from tests.conftest import make_random_objects

BACKENDS = ("tree", "columnar", "manager", "manager_pending", "pool")
#: backends whose every access lands on the one frozen base
BASE_ONLY = ("tree", "columnar", "manager", "pool")
#: backends that answer kNN and joins: all but the pool
SERIAL = ("tree", "columnar", "manager", "manager_pending")


@pytest.fixture(scope="module")
def world():
    objects = make_random_objects(260, dims=2, seed=71)
    other_objects = make_random_objects(140, dims=2, seed=72)
    other_tree = ClippedRTree.wrap(build_rtree("rstar", other_objects, max_entries=8))
    queries = [
        Rect([c - 3.0 for c in o.rect.low], [c + 3.0 for c in o.rect.high])
        for o in objects[::13]
    ]
    return objects, other_objects, other_tree, queries


@pytest.fixture(scope="module")
def backends(world):
    """``name -> (backend, live objects)``, all over the same clipped tree."""
    objects = world[0]

    def clipped_tree():
        return ClippedRTree.wrap(build_rtree("rstar", objects, max_entries=8))

    tree = clipped_tree()
    snapshot = ColumnarIndex.from_tree(tree)
    pending = SnapshotManager(clipped_tree())
    inserted = [
        SpatialObject(10**6 + i, Rect([10.0 * i, 10.0 * i], [10.0 * i + 4.0, 10.0 * i + 4.0]))
        for i in range(8)
    ]
    deleted = objects[::37]
    for obj in inserted:
        pending.insert(obj)
    for obj in deleted:
        assert pending.delete(obj)
    assert pending.pending_ops == len(inserted) + len(deleted)
    live_pending = [o for o in objects if o not in deleted] + inserted
    with ParallelExecutor(snapshot, workers=2) as pool:
        yield {
            "tree": (tree, objects),
            "columnar": (snapshot, objects),
            "manager": (SnapshotManager(clipped_tree()), objects),
            "manager_pending": (pending, live_pending),
            "pool": (pool, objects),
        }


def _pair_ids(pairs):
    return sorted((a.oid, b.oid) for a, b in pairs)


def _brute_force_pairs(left, right):
    return sorted((a.oid, b.oid) for a in left for b in right if a.rect.intersects(b.rect))


@pytest.mark.parametrize("name", BACKENDS)
def test_workload_matches_brute_force(name, backends, world):
    backend, live = backends[name]
    queries = world[3]
    result = execute_workload(backend, queries)
    assert result.queries == len(queries)
    assert result.total_results == sum(len(brute_force_range(live, q)) for q in queries)
    assert result.total_results > 0


@pytest.mark.parametrize("name", SERIAL)
def test_knn_matches_brute_force(name, backends, world):
    backend, live = backends[name]
    points = [query.center for query in world[3][:8]]
    if name == "tree":
        results = [knn_query(backend, point, 6) for point in points]
    else:
        results = backend.knn_batch(points, 6)
    for point, hits in zip(points, results):
        assert [d for d, _ in hits] == sorted(o.rect.min_distance_sq(point) for o in live)[:6]
        assert all(o.rect.min_distance_sq(point) == d for d, o in hits)


def test_workload_iostats_equal_across_base_only_backends(backends, world):
    queries = world[3]
    reference = execute_workload(backends["tree"][0], queries).stats
    assert reference.leaf_accesses > 0
    for name in BASE_ONLY[1:]:
        assert execute_workload(backends[name][0], queries).stats == reference, name


@pytest.mark.parametrize("name", SERIAL)
def test_inlj_matches_brute_force(name, backends, world):
    backend, live = backends[name]
    probes = world[1]
    expected = _brute_force_pairs(probes, live)
    collected = execute_join(probes, backend, algorithm="inlj")
    counted = execute_join(probes, backend, algorithm="inlj", collect_pairs=False)
    assert _pair_ids(collected.pairs) == expected and expected
    assert collected.pair_count == counted.pair_count == len(expected)
    assert counted.pairs == []


@pytest.mark.parametrize("name", SERIAL)
@pytest.mark.parametrize("other_frozen", [False, True], ids=["other-tree", "other-frozen"])
def test_stt_matches_brute_force(name, other_frozen, backends, world):
    backend, live = backends[name]
    _, other_objects, other_tree, _ = world
    other = ColumnarIndex.from_tree(other_tree) if other_frozen else other_tree
    expected = _brute_force_pairs(live, other_objects)
    collected = execute_join(backend, other, algorithm="stt")
    counted = execute_join(backend, other, algorithm="stt", collect_pairs=False)
    assert _pair_ids(collected.pairs) == expected and expected
    assert collected.pair_count == counted.pair_count == len(expected)


def test_join_iostats_equal_across_base_only_backends(backends, world):
    _, probes, other_tree, _ = world
    tree = backends["tree"][0]
    inlj = execute_join(probes, tree, algorithm="inlj")
    stt = execute_join(tree, other_tree, algorithm="stt")
    assert inlj.inner_stats.leaf_accesses > 0 and stt.total_leaf_accesses > 0
    for name in ("columnar", "manager"):
        backend = backends[name][0]
        got = execute_join(probes, backend, algorithm="inlj")
        assert (got.outer_stats, got.inner_stats) == (inlj.outer_stats, inlj.inner_stats), name
        got = execute_join(backend, ColumnarIndex.from_tree(other_tree), algorithm="stt")
        assert (got.outer_stats, got.inner_stats) == (stt.outer_stats, stt.inner_stats), name


def test_executor_handed_in_equals_the_serial_snapshot(backends, world):
    queries = world[3]
    assert execute_workload(backends["pool"][0], queries) == execute_workload(
        backends["columnar"][0], queries
    )


def test_execute_join_refuses_a_pool_on_an_indexed_side(backends, world):
    _, probes, other_tree, _ = world
    pool, manager = backends["pool"][0], backends["manager"][0]
    for left, right, algorithm in (
        (probes, pool, "inlj"),
        (pool, other_tree, "inlj"),  # INLJ's probes are checked too
        (pool, other_tree, "stt"),
        (other_tree, pool, "stt"),
        (pool, manager, "stt"),
    ):
        with pytest.raises(TypeError, match="a ParallelExecutor answers range batches only"):
            execute_join(left, right, algorithm=algorithm)


def test_no_entry_point_builds_a_pool_from_a_workers_option(capsys):
    for entry_point in (execute_workload, execute_join, run_experiment):
        assert "workers" not in inspect.signature(entry_point).parameters
    assert "workers" not in {fld.name for fld in dataclasses.fields(BenchConfig)}
    with pytest.raises(SystemExit) as usage:
        main(["bench", "run", "fig11", "--workers", "2"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert ServeConfig(workers=1).workers == 1
    with pytest.raises(ValueError, match="ParallelExecutor"):
        ServeConfig(workers=2)
