"""One contract, every backend: the conformance matrix.

``execute_workload`` and ``execute_join`` take no engine argument; the
index handed in picks the path.  Every path must answer like Algorithm 2's
scalar traversal, so one matrix holds each of them to one oracle
(``tests/conftest.py``): range, kNN, INLJ and STT × backend × tree variant
× {plain, stairline-clipped} × dataset, one case per configuration,
backend and check.  The backends:

* ``tree`` — the scalar reference itself;
* ``columnar`` — ``ColumnarIndex.from_tree``;
* ``str-builder`` — ``build_columnar_str`` (STR, unclipped only);
* ``mmap`` — the columnar index saved and loaded with ``mmap=True``;
* ``manager`` — a ``SnapshotManager`` with nothing pending;
* ``manager-pending`` — one over the mmap-loaded snapshot holding pending
  inserts (duplicates, zero-extent and ±inf-bounded ones among them) and
  tombstones (one and both copies of duplicated objects among them);
* ``manager-mid-fold`` — one with pending writes, one ``compact_step``
  into its fold, and a write on each side of that step;
* ``pool`` — a ``ParallelExecutor`` (range only, on a few configurations).

Every answer equals brute force over the backend's live objects, as a
multiset.  Every backend whose reads land on the frozen base alone
charges the scalar tree's ``IOStats``; a managed read charges its base's
traversal and nothing for the pending inserts, which it returns after the
base's hits in arrival order.
"""

import copy
import dataclasses
import inspect
import math

import pytest

from repro.bench import BenchConfig
from repro.bench.runner import run_experiment
from repro.cli import main
from repro.datasets.registry import generate
from repro.engine import (
    ColumnarIndex,
    ParallelExecutor,
    SnapshotManager,
    build_columnar_str,
    load_snapshot,
    reclip_nodes_for_results,
    save_snapshot,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.join.inlj import index_nested_loop_join
from repro.join.stt import synchronized_tree_traversal_join
from repro.query.range_query import BatchedBackend, WorkloadResult, execute_workload
from repro.query.knn import knn_query
from repro.query.workload import RangeQueryWorkload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve.server import ServeConfig
from repro.storage.stats import IOStats
from tests.conftest import (
    ALL_VARIANTS,
    assert_join_contract,
    assert_knn_contract,
    assert_knn_distances,
    assert_range_contract,
    brute_force_answers,
    brute_force_pairs,
    knn_reference,
    object_key,
    scalar_range_stats,
    workload_queries,
)

DATASETS = ("par02", "axo03")
CLIPS = ("plain", "stairline")
CONFIGS = [(v, c, d) for d in DATASETS for v in ALL_VARIANTS for c in CLIPS]
MANAGED = ("manager", "manager-pending", "manager-mid-fold")
#: backends whose every read lands on the frozen base alone
BASE_ONLY = ("tree", "columnar", "str-builder", "mmap", "manager", "pool")
BACKENDS = ("tree", "columnar", "str-builder", "mmap") + MANAGED + ("pool",)
CHECKS = ("range", "knn", "inlj", "stt")
INF = math.inf


def _applies(config, backend, check):
    variant, clip, _ = config
    if backend == "str-builder":
        return variant == "str" and clip == "plain"
    if backend == "pool":  # a process pool per case: a few range cases only
        return variant == "rstar" and check == "range"
    return True


CASES = [
    pytest.param(config, backend, check, id="-".join((*config, backend, check)))
    for config in CONFIGS
    for backend in BACKENDS
    for check in CHECKS
    if _applies(config, backend, check)
]


def _special_objects(dims, first_oid, near):
    """Zero-extent twins, half-spaces and all of space, around ``near``'s centre."""
    centre = list(near.rect.center)
    rects = [
        Rect.from_point(centre),
        Rect.from_point(centre),
        Rect([-INF] + centre[1:], [centre[0]] + [c + 1.0 for c in centre[1:]]),
        Rect([INF] + centre[1:], [INF] + [c + 1.0 for c in centre[1:]]),
        Rect([-INF] * dims, [INF] * dims),
        Rect([centre[0]] + [-INF] * (dims - 1), [centre[0] + 1.0] + [INF] * (dims - 1)),
    ]
    return [SpatialObject(first_oid + i, rect) for i, rect in enumerate(rects)]


def _boxes(objects, count, seed):
    workload = RangeQueryWorkload.from_objects(objects, target_results=3, seed=seed)
    return [SpatialObject(-1 - i, rect) for i, rect in enumerate(workload.query_list(count))]


class World:
    """One configuration's inputs and backends, built once per module."""

    SIZE = 80

    def __init__(self, config, directory):
        variant, clip, dataset = config
        objects = generate(dataset, self.SIZE, seed=11)
        # Equal copies are different rows of every backend.
        self.objects = objects + [SpatialObject(o.oid, o.rect) for o in objects[:3]]
        self.dims = objects[0].dims
        self.rtree = build_rtree(variant, self.objects, max_entries=8)
        self.tree = self.rtree
        if clip == "stairline":
            self.tree = ClippedRTree.wrap(self.rtree, method="stairline")
            self.tree.check_clip_invariants()
        # Boxes calibrated to meet a few objects each: the joins' other inputs.
        self.probes = _boxes(self.objects, 60, seed=12)
        self.other_objects = _boxes(self.objects, 90, seed=13)
        # Wider nodes and fewer objects: a shorter tree than ``self.tree``.
        self.other_tree = build_rtree(variant, self.other_objects, max_entries=16)
        assert self.other_tree.height < self.rtree.height
        self.other_frozen = ColumnarIndex.from_tree(self.other_tree)
        centre = list(self.objects[30].rect.center)
        self.queries = workload_queries(self.objects, seed=13) + [
            Rect([-INF] * self.dims, [INF] * self.dims),
            Rect(centre, [INF] + centre[1:]),
        ]
        self.directory = directory
        self.backends = {}
        self._answers = {}

    def backend(self, name):
        """``(backend, live objects)``; the pool is the caller's to close."""
        if name == "pool":
            return ParallelExecutor(self.backend("columnar")[0], workers=2), self.objects
        if name not in self.backends:
            self.backends[name] = getattr(self, "_" + name.replace("-", "_"))()
        return self.backends[name]

    def _tree(self):
        return self.tree, self.objects

    def _columnar(self):
        return ColumnarIndex.from_tree(self.tree), self.objects

    def _str_builder(self):
        return build_columnar_str(self.objects, max_entries=8), self.objects

    def _mmap(self):
        save_snapshot(self.backend("columnar")[0], self.directory)
        return load_snapshot(self.directory, mmap=True), self.objects

    def _manager(self):
        return SnapshotManager(copy.deepcopy(self.tree)), self.objects

    def _writes(self, manager, first_oid):
        """Pending twins under new ids and an equal copy of a base object;
        tombstones, among them one copy of a duplicated object and both of another."""
        live = list(self.objects)
        for i, obj in enumerate(self.objects[5::37]):
            twin = SpatialObject(first_oid + i, obj.rect)
            manager.insert(twin)
            live.append(twin)
        equal = SpatialObject(self.objects[7].oid, self.objects[7].rect)
        manager.insert(equal)
        live.append(equal)
        for victim in self.objects[:2] + self.objects[1:2] + self.objects[9::41]:
            assert manager.delete(victim)
            live.remove(next(o for o in live if object_key(o) == object_key(victim)))
        assert not manager.delete(self.objects[1])  # no copy is left
        return live

    def _manager_pending(self):
        self.backend("mmap")  # saved, and loaded afresh: its objects are not built yet
        manager = SnapshotManager(load_snapshot(self.directory, mmap=True))
        live = self._writes(manager, 10**6)
        for obj in _special_objects(self.dims, 2 * 10**6, self.objects[20]):
            manager.insert(obj)
            live.append(obj)
        # A pending insert deleted again: one of the two zero-extent twins.
        assert manager.delete(live.pop(-5))
        # Finding the rows read the columns: no base object was built.
        assert len(manager.snapshot.objects._cache) == 0
        assert len(manager) == len(live)
        return manager, live

    def _manager_mid_fold(self):
        manager = SnapshotManager(copy.deepcopy(self.tree))
        live = self._writes(manager, 3 * 10**6)
        manager.compact_step()
        assert manager.compacting
        late = SpatialObject(3 * 10**6 + 99, self.objects[50].rect)
        manager.insert(late)
        assert manager.delete(self.objects[60])
        live.append(late)
        live.remove(self.objects[60])
        return manager, live

    def once(self, key, compute):
        """``compute()`` the first time ``key`` is asked for: the scalar
        references and brute-force answers many backends share."""
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]

    def oracle(self, function, *inputs):
        """``function(*inputs)``, once per set of inputs (the live lists are the world's)."""
        return self.once((function, *map(id, inputs)), lambda: function(*inputs))


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    cache = {}

    def world(config):
        if config not in cache:
            cache[config] = World(config, tmp_path_factory.mktemp("snapshot"))
        return cache[config]

    yield world
    cache.clear()


def _objects_built(backend):
    """How many objects a loaded snapshot has built so far."""
    return len(getattr(backend, "snapshot", backend).objects._cache)


def _assert_pending_last_in_arrival_order(backend, results, knn=False):
    """A managed read's answer: base hits first, then the pending inserts in
    arrival order (for kNN, among equal distances)."""
    if not isinstance(backend, SnapshotManager):
        return
    arrival = {id(obj): i for i, obj in enumerate(backend.overlay.inserted_objects())}
    for hits in results:
        if knn:
            ranks = [(d, arrival.get(id(obj), -1)) for d, obj in hits]
        else:
            ranks = [arrival.get(id(obj), -1) for obj in hits]
        assert ranks == sorted(ranks)


def _range(world, name, backend, live):
    """Range answers, ``IOStats``, the protocol and ``execute_workload``."""
    queries = world.queries
    assert isinstance(backend, BatchedBackend) == (name != "tree")
    stats = IOStats()
    loaded = name in ("mmap", "manager-pending")
    built = _objects_built(backend) if loaded else 0
    if name == "tree":
        results = [backend.range_query(query, stats=stats) for query in queries]
    else:
        results = backend.range_query_batch(queries, stats=stats)
    assert_range_contract(world.oracle(brute_force_answers, live, queries), results)
    _assert_pending_last_in_arrival_order(backend, results)
    total = sum(map(len, results))
    if loaded:  # a loaded base builds the objects it returns, and no other
        assert _objects_built(backend) - built <= total
    # Base-only backends charge the scalar walk; so does a managed read,
    # whose tombstones filter hits, not the traversal.
    expected = world.once("range", lambda: scalar_range_stats(world.tree, queries))
    assert stats == expected and expected.leaf_accesses > 0
    assert execute_workload(backend, queries) == WorkloadResult(len(queries), total, stats)
    assert execute_workload(backend, []) == WorkloadResult(0, 0, IOStats())


def _knn_points(world, live):
    """Deleted objects' centres, pending inserts' centres, query centres, ±inf."""
    kept = set(map(object_key, live))
    gone = [o for o in world.objects if object_key(o) not in kept]
    new = [o for o in live if o.oid >= 10**6][:3]
    points = [o.rect.center for o in world.objects[:1] + gone[:3] + new]
    half = (0.5,) * (world.dims - 1)
    infinite = [(INF,) + half, half + (-INF,), (INF,) * world.dims, (-INF,) * world.dims]
    return points + [q.center for q in world.queries[:4]] + infinite


def _knn(world, name, backend, live):
    """kNN distances at k = 1, 6 and past the object count, and ``IOStats``."""
    points = _knn_points(world, live)
    tree = world.rtree
    answers = {}
    for k in (1, 6, len(world.objects) + 5):
        stats = IOStats()
        if name == "tree":
            results = [knn_query(backend, point, k, stats=stats) for point in points]
        else:
            results = backend.knn_batch(points, k, stats=stats)
        answers[k] = results
        _assert_pending_last_in_arrival_order(backend, results, knn=True)
        if name == "tree":
            continue
        # A managed base searches past its tombstones and charges that
        # search; the pending inserts charge nothing.
        wide = k + (backend.overlay.deleted_count if name in MANAGED else 0)
        scalar = world.once(
            ("knn", id(live), wide), lambda: [knn_reference(tree, point, wide) for point in points]
        )
        if name in BASE_ONLY:
            assert_knn_contract(tree, points, k, results, stats, scalar)
        else:
            closed = [reference[3] for reference in scalar]
            assert (stats.leaf_accesses, stats.internal_accesses) == tuple(map(sum, zip(*closed)))
    assert_knn_distances(live, points, answers)


def _inlj(world, name, backend, live, orientation):
    """``inner``: fixed probes against the backend; ``outer``: a manager's
    live objects probe a tree; ``self``: they probe the manager itself."""
    probes = backend if isinstance(backend, SnapshotManager) else live
    probes, outer_live, inner, inner_live, inner_tree = {
        "inner": (world.probes, world.probes, backend, live, world.tree),
        "outer": (probes, live, world.other_tree, world.other_objects, world.other_tree),
        "self": (probes, live, backend, live, world.tree),
    }[orientation]
    expected = world.oracle(brute_force_pairs, outer_live, inner_live)
    assert expected
    reference = None
    if name in BASE_ONLY:
        reference = world.once(
            "inlj-" + orientation, lambda: index_nested_loop_join(list(outer_live), inner_tree)
        )
    assert_join_contract(
        lambda collect: execute_join(probes, inner, algorithm="inlj", collect_pairs=collect),
        expected,
        reference,
    )


def _stt(world, name, backend, live, orientation):
    """``left``: the backend joins a shorter plain tree; ``right``: a frozen
    one joins the backend; ``self``: the backend joins itself."""
    left, left_live, left_tree, right, right_live, right_tree = {
        "left": (
            backend, live, world.tree, world.other_tree, world.other_objects, world.other_tree,
        ),
        "right": (
            world.other_frozen, world.other_objects, world.other_tree, backend, live, world.tree,
        ),
        "self": (backend, live, world.tree, backend, live, world.tree),
    }[orientation]
    expected = world.oracle(brute_force_pairs, left_live, right_live)
    assert expected
    reference = None
    if name in BASE_ONLY:
        reference = world.once(
            "stt-" + orientation, lambda: synchronized_tree_traversal_join(left_tree, right_tree)
        )
    assert_join_contract(
        lambda collect: execute_join(left, right, algorithm="stt", collect_pairs=collect),
        expected,
        reference,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config, name, check", CASES)
def test_backend_conforms(config, name, check, worlds):
    """One check on one backend of one configuration.

    The pool answers range batches only.  A manager also probes (INLJ
    ``outer`` and ``self``); the tree's self-join is the scalar reference
    the others' are held to, so it joins only the shorter tree.
    """
    world = worlds(config)
    backend, live = world.backend(name)
    if name == "pool":
        with backend:
            _range(world, name, backend, live)
    elif check == "range":
        _range(world, name, backend, live)
    elif check == "knn":
        _knn(world, name, backend, live)
    elif check == "inlj":
        for orientation in ("inner", "outer", "self") if name in MANAGED else ("inner",):
            _inlj(world, name, backend, live, orientation)
    else:
        for orientation in ("left", "right") + (() if name == "tree" else ("self",)):
            _stt(world, name, backend, live, orientation)


def test_execute_join_refuses_a_pool_on_an_indexed_side(worlds):
    world = worlds(CONFIGS[0])
    manager, other_tree, probes = world.backend("manager")[0], world.other_tree, world.probes
    with world.backend("pool")[0] as pool:
        for left, right, algorithm in (
            (probes, pool, "inlj"),
            (pool, other_tree, "inlj"),  # INLJ's probes are checked too
            (pool, other_tree, "stt"),
            (other_tree, pool, "stt"),
            (pool, manager, "stt"),
        ):
            with pytest.raises(TypeError, match="a ParallelExecutor answers range batches only"):
                execute_join(left, right, algorithm=algorithm)


def test_no_entry_point_takes_an_engine_or_builds_a_pool_from_a_workers_option(capsys):
    for entry_point in (execute_workload, execute_join, run_experiment):
        assert "workers" not in inspect.signature(entry_point).parameters
        assert "engine" not in inspect.signature(entry_point).parameters
    # Clip points have one construction path; wrap's keyword takes only its name.
    for entry_point in (ClippedRTree.clip_all, ClippedRTree.reclip_nodes, reclip_nodes_for_results):
        assert "engine" not in inspect.signature(entry_point).parameters
    tree = build_rtree("str", generate("uniform02", 40, seed=1), max_entries=8)
    with pytest.raises(ValueError, match="unknown clip engine"):
        ClippedRTree.wrap(tree, engine="scalar")
    assert "workers" not in {fld.name for fld in dataclasses.fields(BenchConfig)}
    with pytest.raises(SystemExit) as usage:
        main(["bench", "run", "fig11", "--workers", "2"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert ServeConfig(workers=1).workers == 1
    with pytest.raises(ValueError, match="ParallelExecutor"):
        ServeConfig(workers=2)
