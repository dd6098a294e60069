"""What the judged benchmark (``perf/``) needs of ``src/``, checked in tier-1.

``perf`` is not in the project's ``testpaths``, so a change that deletes a
name ``perf/tracing.py`` patches, or a keyword ``perf/workloads.py``
passes, passes tier-1 and dies in the benchmark run.  This reads ``perf/``
and changes nothing in it.
"""

import importlib.util
import random
from pathlib import Path

from repro.engine import (
    ColumnarIndex,
    ParallelExecutor,
    SnapshotManager,
    default_workers,
    overlay_join,
)
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve import ServeConfig

PERF = Path(__file__).resolve().parent.parent / "perf"


def _tracing():
    # ``perf`` is a script directory, not a package; the tracer imports
    # nothing from beside itself.
    spec = importlib.util.spec_from_file_location("perf_tracing", PERF / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clipped(rng, first_oid, count=60):
    objects = []
    for i in range(count):
        low = (rng.uniform(0, 50), rng.uniform(0, 50))
        objects.append(SpatialObject(first_oid + i, Rect(low, (low[0] + 4, low[1] + 4))))
    return objects, ClippedRTree.wrap(build_rtree("str", objects, max_entries=6))


def test_constructor_spellings_of_the_workloads(tmp_path):
    """``perf/workloads.py`` spells these constructors; the first three keywords
    have one value each, and ``pool_range`` reads the pool's recovery counters."""
    source = (PERF / "workloads.py").read_text()
    assert 'update_engine="delta"' in source and "workers=1" in source
    assert 'engine="vectorized"' in source
    objects, tree = _clipped(random.Random(1), 0)
    assert ClippedRTree.wrap(tree.tree, method="stairline", engine="vectorized").store
    assert SnapshotManager(tree, update_engine="delta", compact_every=250).compact_every == 250
    assert ServeConfig(workers=1).workers == 1
    assert "workers=min(2, default_workers())" in source
    executor = ParallelExecutor(
        ColumnarIndex.from_tree(tree),
        workers=min(2, default_workers()),
        snapshot_dir=tmp_path / "pool",
    )
    with executor:
        hits = executor.range_query_batch([obj.rect for obj in objects[:8]])
        assert all(obj.oid in {o.oid for o in batch} for obj, batch in zip(objects, hits))
        assert (executor.pool_rebuilds, executor.serial_fallbacks) == (0, 0)


def test_every_patched_name_resolves_and_is_what_the_manager_calls():
    tracing = _tracing()
    rng = random.Random(2)
    left_objects, left_tree = _clipped(rng, 0)
    right_objects, right_tree = _clipped(rng, 1000)
    tracer = tracing.Tracer()
    tracer.install()  # ``getattr_static`` raises on a missing row
    try:
        left, right = SnapshotManager(left_tree), SnapshotManager(right_tree)
        for manager, objects in ((left, left_objects), (right, right_objects)):
            assert manager.delete(objects[0])
            manager.insert(SpatialObject(objects[0].oid + 500, objects[1].rect))
        left.range_query_batch([left_objects[1].rect])
        left.knn_batch([left_objects[1].rect.center], 3)
        overlay_join(left, right, algorithm="stt")
        overlay_join(left, right, algorithm="inlj")
        assert left.compact().applied_deletes == 1
    finally:
        tracer.uninstall()
    assert not tracer._restore
    by_id = {span["id"]: span["name"] for span in tracer.spans}
    parents = {(by_id.get(span["parent"]), span["name"]) for span in tracer.spans}
    # The managed reads pass through the traced base calls (``delta.base_query_s``),
    # the base calls through the traced cores, the fold through the traced steps.
    assert {
        ("delta.range_batch", "executor.range_batch"),
        ("delta.knn_batch", "executor.knn_batch"),
        ("executor.range_batch", "executor.gather"),
        ("executor.range_batch", "executor.materialize"),
        ("join_exec.inlj", "executor.gather"),
        ("delta.compact", "incremental_clip.reclip"),
        ("delta.compact", "columnar.freeze"),
        (None, "join_exec.stt"),
        (None, "delta.delete"),
        (None, "delta.insert"),
    } <= parents
