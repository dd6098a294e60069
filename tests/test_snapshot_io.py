"""Round-trip tests for the zero-copy snapshot persistence layer.

A snapshot saved with :func:`save_snapshot` and reopened with
:func:`load_snapshot` — mmap'd or copied — must be *differentially
identical* to the in-RAM original: every batch entry point returns the
same results with the same ``IOStats``.  The suite also pins the
manifest's integrity checks (missing/corrupt manifest, format-version
mismatch, missing or tampered array files), the lazy object
materialisation, and the dtype/contiguity pinning that makes the arrays
mmap-stable in the first place.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.engine import (
    FORMAT_VERSION,
    ColumnarIndex,
    SnapshotFormatError,
    SnapshotManager,
    inlj_batch,
    knn_batch,
    load_snapshot,
    range_query_batch,
    save_snapshot,
    stt_batch,
)
from repro.cbb.clipping import ClippingConfig
from repro.engine.columnar import TreeRecord
from repro.engine.snapshot_io import LazyObjectList, MANIFEST_NAME, read_manifest
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.stats import IOStats
from tests.conftest import make_random_objects


def _frozen(dims=3, count=120, clip=None, seed=0, variant="rstar"):
    objects = make_random_objects(count, dims=dims, seed=seed)
    tree = build_rtree(variant, objects, max_entries=8)
    index = ClippedRTree.wrap(tree, method=clip) if clip else tree
    return objects, ColumnarIndex.from_tree(index)


def _queries(objects, count=12, pad=1.5):
    """Inflated object rectangles: selective but never all-empty."""
    step = max(1, len(objects) // count)
    queries = []
    for obj in objects[::step][:count]:
        low = [c - pad for c in obj.rect.low]
        high = [c + pad for c in obj.rect.high]
        queries.append(Rect(low, high))
    return queries


def _oid_lists(results):
    return [[obj.oid for obj in batch] for batch in results]


def _assert_differentially_identical(reference, loaded, queries):
    stats_ref, stats_load = IOStats(), IOStats()
    res_ref = range_query_batch(reference, queries, stats=stats_ref)
    res_load = range_query_batch(loaded, queries, stats=stats_load)
    assert _oid_lists(res_ref) == _oid_lists(res_load)
    assert stats_ref == stats_load

    points = [q.low for q in queries[:4]]
    stats_ref, stats_load = IOStats(), IOStats()
    knn_ref = knn_batch(reference, points, k=3, stats=stats_ref)
    knn_load = knn_batch(loaded, points, k=3, stats=stats_load)
    assert [[(d, o.oid) for d, o in r] for r in knn_ref] == [
        [(d, o.oid) for d, o in r] for r in knn_load
    ]
    assert stats_ref == stats_load


@pytest.mark.parametrize("dims", range(2, 9))
@pytest.mark.parametrize("clip", [None, "stairline"])
def test_round_trip_identical(tmp_path, dims, clip):
    objects, reference = _frozen(dims=dims, clip=clip)
    queries = _queries(objects)
    save_snapshot(reference, tmp_path / "snap")
    for mmap in (True, False):
        loaded = load_snapshot(tmp_path / "snap", mmap=mmap)
        assert loaded.dims == reference.dims
        assert len(loaded.objects) == len(objects)
        _assert_differentially_identical(reference, loaded, queries)


def test_round_trip_joins_identical(tmp_path):
    left_objects, left = _frozen(dims=3, count=150, clip="stairline", seed=1)
    right_objects, right = _frozen(dims=3, count=150, seed=2)
    save_snapshot(left, tmp_path / "left")
    save_snapshot(right, tmp_path / "right")
    loaded_left = load_snapshot(tmp_path / "left")
    loaded_right = load_snapshot(tmp_path / "right")

    ref = stt_batch(left, right)
    got = stt_batch(loaded_left, loaded_right)
    assert got.pair_count == ref.pair_count
    assert got.outer_stats == ref.outer_stats
    assert got.inner_stats == ref.inner_stats
    assert {(a.oid, b.oid) for a, b in got.pairs} == {
        (a.oid, b.oid) for a, b in ref.pairs
    }

    ref = inlj_batch(left_objects, right)
    got = inlj_batch(left_objects, loaded_right)
    assert got.pair_count == ref.pair_count
    assert got.inner_stats == ref.inner_stats
    assert [(a.oid, b.oid) for a, b in got.pairs] == [
        (a.oid, b.oid) for a, b in ref.pairs
    ]


def test_round_trip_is_bit_exact(tmp_path):
    _, reference = _frozen(clip="skyline")
    save_snapshot(reference, tmp_path / "first")
    first = read_manifest(tmp_path / "first")

    # Saving the same snapshot again reproduces the fingerprint...
    save_snapshot(reference, tmp_path / "again")
    assert read_manifest(tmp_path / "again")["fingerprint"] == first["fingerprint"]

    # ...and so does saving a *loaded* snapshot: load → save is lossless.
    loaded = load_snapshot(tmp_path / "first")
    save_snapshot(loaded, tmp_path / "second")
    second = read_manifest(tmp_path / "second")
    assert second["fingerprint"] == first["fingerprint"]
    assert second["arrays"] == first["arrays"]


def _directory_bytes(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_loaded_snapshot_has_derived_caches(tmp_path):
    # Derived on first use, equal to the in-RAM index's, never stored.
    _, reference = _frozen()
    save_snapshot(reference, tmp_path / "snap")
    assert reference._node_lows is None and reference._node_levels is None
    before = _directory_bytes(tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap")
    assert loaded._node_lows is None and loaded._node_levels is None
    lows, highs = loaded.node_bounds()
    ref_lows, ref_highs = reference.node_bounds()
    np.testing.assert_array_equal(lows, ref_lows)
    np.testing.assert_array_equal(highs, ref_highs)
    np.testing.assert_array_equal(loaded.node_levels(), reference.node_levels())
    assert loaded.node_bounds()[0] is lows and loaded.node_levels() is loaded._node_levels
    assert _directory_bytes(tmp_path / "snap") == before


#: Format 4's files (format 3's, with the tree record in the manifest),
#: spelled out here on purpose: a thirteenth file fails this list.
FORMAT_4_FILES = {
    "is_leaf", "entry_start", "entry_count", "node_ids", "entry_lows",
    "entry_highs", "entry_child", "clip_coords", "clip_is_high",
    "node_clip_start", "node_clip_count", "object_oids",
}


def _assert_directory_is_format_4(directory):
    manifest = read_manifest(directory)
    assert manifest["format_version"] == FORMAT_VERSION == 4
    assert set(manifest["arrays"]) == FORMAT_4_FILES
    assert {path.name for path in directory.iterdir()} == {MANIFEST_NAME, manifest["data_dir"]}
    generation = directory / manifest["data_dir"]
    assert {path.name for path in generation.iterdir()} == {
        f"{name}.npy" for name in FORMAT_4_FILES
    }


def _assert_objects_are_the_leaf_rows(reference, loaded):
    """Loaded ``objects[i]`` is the in-RAM one, read straight off the entry columns."""
    lazy = loaded.objects
    assert len(lazy) == len(reference.objects)
    for i, expected in enumerate(reference.objects):
        assert lazy[i] == expected  # oid and rectangle
    for column, entries in ((lazy.lows, loaded.entry_lows), (lazy.highs, loaded.entry_highs)):
        assert len(column) == len(lazy)
        if len(lazy):
            assert np.shares_memory(column, entries)
            assert np.shares_memory(column[-1], entries[-1])


@pytest.mark.parametrize("clip", [None, "stairline"])
@pytest.mark.parametrize("dims", [2, 3, 8])
@pytest.mark.parametrize("variant", VARIANT_NAMES + ("str",))
def test_directory_holds_each_fact_once(tmp_path, variant, dims, clip):
    _, reference = _frozen(dims=dims, clip=clip, variant=variant)
    save_snapshot(reference, tmp_path)
    _assert_directory_is_format_4(tmp_path)
    for mmap in (True, False):
        _assert_objects_are_the_leaf_rows(reference, load_snapshot(tmp_path, mmap=mmap))


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_compacted_snapshot_saves_the_same_file_set(tmp_path, variant):
    # An insertion-built tree, condensed by deletes: not a bulk load's shape.
    objects = make_random_objects(160, dims=2, seed=5)
    tree = build_rtree(variant, objects[:100], max_entries=4)
    manager = SnapshotManager(ClippedRTree.wrap(tree, method="stairline"))
    for round_, start in enumerate(range(0, 60, 20)):
        for obj in objects[start : start + 20]:
            assert manager.delete(obj)
        for obj in objects[100 + start : 120 + start]:
            manager.insert(obj)
        manager.compact()
        published = manager.snapshot
        target = tmp_path / f"round{round_}"
        save_snapshot(published, target)
        _assert_directory_is_format_4(target)
        _assert_objects_are_the_leaf_rows(published, load_snapshot(target))
    # ...and down to the empty tree.
    for obj in manager.live_objects():
        manager.delete(obj)
    manager.compact()
    assert len(manager.snapshot.objects) == 0
    save_snapshot(manager.snapshot, tmp_path / "empty")
    _assert_directory_is_format_4(tmp_path / "empty")
    _assert_objects_are_the_leaf_rows(manager.snapshot, load_snapshot(tmp_path / "empty"))


def test_node_major_layout_is_never_persisted(tmp_path):
    objects, reference = _frozen(clip="stairline")
    queries = _queries(objects)
    save_snapshot(reference, tmp_path / "before")
    # Saving derives neither layout...
    assert reference._node_major is None and reference._node_major_clips is None
    range_query_batch(reference, queries)
    # ...the first clipped batch derives both...
    assert reference._node_major is not None and reference._node_major_clips is not None
    save_snapshot(reference, tmp_path / "after")
    # ...and a save after it writes the same files, byte for byte.
    before = _directory_bytes(tmp_path / "before")
    assert _directory_bytes(tmp_path / "after") == before
    assert not any("major" in name for name in before)

    # Deriving the layouts of a read-only mmap view must not write through.
    loaded = load_snapshot(tmp_path / "before", mmap=True)
    assert not loaded.entry_lows.flags.writeable
    assert not loaded.clip_coords.flags.writeable
    _assert_differentially_identical(reference, loaded, queries)
    assert loaded._node_major is not None and loaded._node_major_clips is not None
    assert _directory_bytes(tmp_path / "before") == before


def test_read_only_mmap_snapshots_serve_a_clipped_stt(tmp_path):
    # Both sides clipped: the descent's two veto passes and the root test
    # each derive a clip layout from a read-only view.
    _, left = _frozen(dims=2, count=200, clip="stairline", seed=1)
    _, right = _frozen(dims=2, count=200, clip="stairline", seed=2)
    save_snapshot(left, tmp_path / "left")
    save_snapshot(right, tmp_path / "right")
    before = _directory_bytes(tmp_path)
    loaded_left = load_snapshot(tmp_path / "left", mmap=True)
    loaded_right = load_snapshot(tmp_path / "right", mmap=True)
    assert not loaded_left.node_clip_start.flags.writeable

    ref = stt_batch(left, right)
    got = stt_batch(loaded_left, loaded_right)
    assert loaded_left._node_major_clips is not None
    assert loaded_right._node_major_clips is not None
    assert got.pair_count == ref.pair_count > 0
    assert got.outer_stats == ref.outer_stats
    assert got.inner_stats == ref.inner_stats
    assert [(a.oid, b.oid) for a, b in got.pairs] == [(a.oid, b.oid) for a, b in ref.pairs]
    assert _directory_bytes(tmp_path) == before


def test_worker_derives_layout_once_per_process(tmp_path, monkeypatch):
    from repro.engine import parallel

    objects, reference = _frozen(clip="stairline")
    save_snapshot(reference, tmp_path)
    queries = _queries(objects)
    q_lows = np.array([q.low for q in queries])
    q_highs = np.array([q.high for q in queries])
    # What a pool worker runs per shard, in this process on a fresh cache.
    monkeypatch.setattr(parallel, "_WORKER_SNAPSHOTS", {})
    first = parallel._range_task(str(tmp_path), q_lows, q_highs)
    cached = parallel._WORKER_SNAPSHOTS[str(tmp_path)]
    layouts = (cached._node_major, cached._node_major_clips)
    assert layouts[0] is not None and layouts[1] is not None
    second = parallel._range_task(str(tmp_path), q_lows, q_highs)
    assert parallel._WORKER_SNAPSHOTS[str(tmp_path)] is cached
    # The later shards reused both layouts.
    assert cached._node_major is layouts[0] and cached._node_major_clips is layouts[1]
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
    assert first[2] == second[2]


def test_no_mmap_load_survives_directory_removal(tmp_path):
    objects, reference = _frozen()
    queries = _queries(objects)
    save_snapshot(reference, tmp_path / "snap")
    loaded = load_snapshot(tmp_path / "snap", mmap=False)
    shutil.rmtree(tmp_path / "snap")
    _assert_differentially_identical(reference, loaded, queries)


def test_missing_manifest(tmp_path):
    with pytest.raises(SnapshotFormatError, match="no snapshot manifest"):
        load_snapshot(tmp_path / "nowhere")


def test_corrupt_manifest(tmp_path):
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    (tmp_path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(SnapshotFormatError, match="unreadable"):
        load_snapshot(tmp_path)


def test_future_format_version_rejected(tmp_path):
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="not supported"):
        load_snapshot(tmp_path)


def test_missing_array_file(tmp_path):
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    data_dir = read_manifest(tmp_path)["data_dir"]
    (tmp_path / data_dir / "entry_lows.npy").unlink()
    with pytest.raises(SnapshotFormatError, match="missing"):
        load_snapshot(tmp_path)


@pytest.mark.parametrize("mmap", [True, False])
def test_torn_array_file_is_refused(tmp_path, mmap):
    """A committed array file cut short fails the load with the typed error
    naming it, mapped or read."""
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    path = tmp_path / read_manifest(tmp_path)["data_dir"] / "entry_lows.npy"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SnapshotFormatError, match="unreadable snapshot array .*entry_lows"):
        load_snapshot(tmp_path, mmap=mmap)


def test_resaving_repairs_a_torn_array_file(tmp_path):
    """Regression: a re-save of the same index skipped the write because the
    committed generation's files merely existed, so a torn one stayed torn.
    It is written again, into the generation the manifest names."""
    objects, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    generation = read_manifest(tmp_path)["data_dir"]
    path = tmp_path / generation / "entry_lows.npy"
    path.write_bytes(path.read_bytes()[:-8])
    save_snapshot(reference, tmp_path)
    assert read_manifest(tmp_path)["data_dir"] == generation
    loaded = load_snapshot(tmp_path, mmap=False)
    _assert_differentially_identical(reference, loaded, _queries(objects))


def test_manifest_array_entry_missing(tmp_path):
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    del manifest["arrays"]["object_oids"]
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="lacks arrays"):
        load_snapshot(tmp_path)


@pytest.mark.parametrize("field,value", [("dtype", "float32"), ("shape", [1, 1])])
def test_tampered_array_spec_rejected(tmp_path, field, value):
    _, reference = _frozen(count=60)
    save_snapshot(reference, tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    manifest["arrays"]["entry_lows"][field] = value
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="manifest"):
        load_snapshot(tmp_path)


def _rewrite_manifest(directory, edit):
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    manifest = edit(manifest)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


def _set(key, value):
    return lambda manifest: {**manifest, key: value}


def _elsewhere(manifest):
    # A sibling directory holding the same files under the same generation name.
    return {**manifest, "data_dir": f"../other/{manifest['data_dir']}"}


def _tree(**fields):
    return lambda manifest: {**manifest, "tree": {**manifest["tree"], **fields}}


def _clip(**fields):
    return _tree(clipping={"method": "stairline", "k": None, "tau": 0.025, **fields})


def _hilbert(**fields):
    return _tree(**{"variant": "hilbert", "hilbert_bits": 16, "hilbert_space": None, **fields})


#: Hostile tree records: (the field whose rule refuses it, what the file
#: says, the edit), at least one row per field of the tree record (format 4).
HOSTILE_TREE_FIELDS = [
    ("tree.variant", "tree variant 'btree'", _tree(variant="btree")),
    ("tree.max_entries", "tree max_entries 1", _tree(max_entries=1)),
    ("tree.min_entries", "tree min_entries over half of max_entries", _tree(min_entries=5)),
    ("tree.next_id", "tree next_id 0", _tree(next_id=0)),
    ("tree.clipping.method", "tree clipping method 'hull'", _clip(method="hull")),
    ("tree.clipping.k", "tree clipping k -1", _clip(k=-1)),
    ("tree.clipping.tau", "tree clipping tau 1.0", _clip(tau=1.0)),
    ("tree.hilbert_bits", "tree hilbert_bits 0", _hilbert(hilbert_bits=0)),
    ("tree.hilbert_space", "tree hilbert_space with a NaN bound",
     _hilbert(hilbert_space=[[0.0, float("nan")], [1.0, 1.0]])),
    ("tree.hilbert_space", "tree hilbert_space of 3 dims",
     _hilbert(hilbert_space=[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])),
    ("tree.hilbert_bits", "hilbert_bits on an rstar tree", _tree(hilbert_bits=16)),
]

#: Hostile manifests: (what the file says, the edit).  Every row of the
#: first block raised an untyped error, or loaded, before the checks were
#: gathered into ``read_manifest``; ``load_snapshot`` already refused the
#: last row of that block, which is the control.  The tree records follow.
HOSTILE_MANIFESTS = [
    ("a list", lambda manifest: []),
    ("null", lambda manifest: None),
    ("a string for one array's spec", lambda m: {**m, "arrays": {**m["arrays"], "is_leaf": "x"}}),
    ("dims 'x'", _set("dims", "x")),
    ("data_dir 3", _set("data_dir", 3)),
    ("a data_dir outside the directory", _elsewhere),
    ("dims 3 over 2-d arrays", _set("dims", 3)),
    ("arrays as a list", _set("arrays", [])),
    ("no tree", lambda m: {k: v for k, v in m.items() if k != "tree"}),
    ("tree as a list", _set("tree", [])),
] + [(what, edit) for _, what, edit in HOSTILE_TREE_FIELDS]

_INF = float("inf")

#: ``(field, accepted value, the edit)``: the edge of each tree-record
#: field's rule, the value a rule one step stricter would refuse (a field
#: whose rule is membership takes another member).  ``read_manifest``
#: checks the record alone; the arrays may still contradict it at load.
BOUNDARY_TREE_FIELDS = [
    ("tree.variant", "rrstar", _tree(variant="rrstar")),
    ("tree.max_entries", 2, _tree(max_entries=2, min_entries=1)),
    ("tree.min_entries", 4, _tree(max_entries=8, min_entries=8 // 2)),
    ("tree.next_id", 1, _tree(next_id=1)),
    ("tree.clipping.method", "skyline", _clip(method="skyline")),
    ("tree.clipping.k", 0, _clip(k=0)),
    ("tree.clipping.tau", 0.0, _clip(tau=0.0)),
    ("tree.hilbert_bits", 1, _hilbert(hilbert_bits=1)),
    ("tree.hilbert_space", Rect((-_INF, 0.0), (_INF, 1.0)),
     _hilbert(hilbert_space=[[-_INF, 0.0], [_INF, 1.0]])),
]


def _record_field(record, field):
    """The value at ``field`` (``tree.<name>`` or ``tree.clipping.<name>``) of ``record``."""
    value = record
    for name in field.split(".")[1:]:
        value = getattr(value, name)
    return value


@pytest.mark.parametrize("field,value,edit", BOUNDARY_TREE_FIELDS,
                         ids=[f"{row[0]}={row[1]!r}" for row in BOUNDARY_TREE_FIELDS])
def test_manifest_accepts_the_edge_of_each_tree_field(tmp_path, field, value, edit):
    _, reference = _frozen(dims=2, count=60)
    save_snapshot(reference, tmp_path)
    _rewrite_manifest(tmp_path, edit)
    assert _record_field(read_manifest(tmp_path)["tree"], field) == value


def test_every_tree_field_has_a_refused_and_an_accepted_row():
    fields = {f"tree.{f.name}" for f in dataclasses.fields(TreeRecord) if f.name != "clipping"}
    fields |= {f"tree.clipping.{f.name}" for f in dataclasses.fields(ClippingConfig)}
    assert {field for field, _, _ in HOSTILE_TREE_FIELDS} == fields
    assert {field for field, _, _ in BOUNDARY_TREE_FIELDS} == fields


@pytest.mark.parametrize("edit", [row[1] for row in HOSTILE_MANIFESTS],
                         ids=[row[0] for row in HOSTILE_MANIFESTS])
def test_hostile_manifest_raises_the_typed_error(tmp_path, edit):
    _, reference = _frozen(dims=2, count=60)
    save_snapshot(reference, tmp_path / "snap")
    shutil.copytree(tmp_path / "snap", tmp_path / "other")
    _rewrite_manifest(tmp_path / "snap", edit)
    with pytest.raises(SnapshotFormatError):
        read_manifest(tmp_path / "snap")
    for mmap in (True, False):
        with pytest.raises(SnapshotFormatError):
            load_snapshot(tmp_path / "snap", mmap=mmap)


def test_hilbert_space_may_be_unbounded(tmp_path):
    objects, reference = _frozen(dims=2, count=60, variant="hilbert")
    save_snapshot(reference, tmp_path)
    inf = float("inf")
    _rewrite_manifest(tmp_path, _hilbert(hilbert_space=[[-inf, 0.0], [inf, 1.0]]))
    record = load_snapshot(tmp_path).tree_record
    assert record.hilbert_space == Rect((-inf, 0.0), (inf, 1.0))


def test_a_tree_record_the_arrays_contradict_is_refused_at_load(tmp_path):
    _, reference = _frozen(dims=2, count=60, clip="stairline")
    assert reference.has_clips
    largest = int(reference.node_ids.max())
    save_snapshot(reference, tmp_path)
    _rewrite_manifest(tmp_path, _tree(next_id=largest))
    read_manifest(tmp_path)  # a well-formed record: only the arrays refute it
    with pytest.raises(SnapshotFormatError, match=f"next node id {largest} is not above"):
        load_snapshot(tmp_path)
    _rewrite_manifest(tmp_path, _tree(next_id=largest + 1, clipping=None))
    with pytest.raises(SnapshotFormatError, match="clip points but records no clip method"):
        load_snapshot(tmp_path)


def test_resaving_the_same_arrays_under_another_record_rewrites_the_manifest(tmp_path):
    objects = make_random_objects(60, dims=2, seed=0)
    tree = build_rtree("rstar", objects, max_entries=8)
    plain = ColumnarIndex.from_tree(tree)
    unclipped = ColumnarIndex.from_tree(ClippedRTree(tree))  # a config, no clip point yet
    assert plain.tree_record != unclipped.tree_record
    save_snapshot(plain, tmp_path)
    save_snapshot(unclipped, tmp_path)
    assert read_manifest(tmp_path)["tree"] == unclipped.tree_record
    assert load_snapshot(tmp_path).tree_record == unclipped.tree_record


def _overwrite_array(directory, name, array):
    """Replace one array file, keeping the manifest's description of it true."""
    np.save(directory / read_manifest(directory)["data_dir"] / f"{name}.npy", array)
    spec = {"dtype": str(array.dtype), "shape": list(array.shape)}
    _rewrite_manifest(directory, lambda m: {**m, "arrays": {**m["arrays"], name: spec}})


def test_arrays_whose_leaf_rows_are_not_the_objects_are_refused(tmp_path):
    _, reference = _frozen(dims=2, count=60)
    assert not reference.is_leaf[0] and reference.is_leaf[-1]

    # A leaf slot ahead of a directory slot: the leaves' entries no longer trail.
    save_snapshot(reference, tmp_path / "order")
    shuffled = reference.is_leaf.copy()
    shuffled[[0, -1]] = shuffled[[-1, 0]]
    _overwrite_array(tmp_path / "order", "is_leaf", shuffled)
    with pytest.raises(SnapshotFormatError, match="directory slot follows a leaf slot"):
        load_snapshot(tmp_path / "order")

    # One oid short: the offset of the first object's row would be off by one.
    save_snapshot(reference, tmp_path / "count")
    oids = load_snapshot(tmp_path / "count", mmap=False).objects.oids
    _overwrite_array(tmp_path / "count", "object_oids", oids[:-1])
    with pytest.raises(SnapshotFormatError, match="60 entries for 59 objects"):
        load_snapshot(tmp_path / "count")

    # The writer refuses the same two shapes, and leaves nothing behind.
    columns = {
        name: getattr(reference, name)
        for name in FORMAT_4_FILES - {"object_oids"}
    }
    columns.update(source=None, dims=2, source_version=None)
    short = ColumnarIndex(**columns, objects=reference.objects[:-1])
    with pytest.raises(ValueError, match="60 entries for 59 objects"):
        save_snapshot(short, tmp_path / "refused")
    columns["is_leaf"] = shuffled
    with pytest.raises(ValueError, match="directory slot follows a leaf slot"):
        save_snapshot(ColumnarIndex(**columns, objects=reference.objects), tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


def _swap_row(row):
    def edit(lows, highs, first_leaf_row):
        at = first_leaf_row if row == "leaf" else row
        lows[at], highs[at] = highs[at].copy(), lows[at].copy()
    return edit


def _nan_in_row_0(lows, highs, first_leaf_row):
    lows[0, 1] = np.nan


def _shrink_row_1(lows, highs, first_leaf_row):
    # Still low <= high, but no longer around the child's entries.
    highs[1] = (lows[1] + highs[1]) / 2


#: Hostile entry rows: (what the files say, the edit, what the error names).
#: Same shapes and dtypes as the writer's; each of these loaded before the
#: entry rows were checked, and answered wrong or raised at the first query.
HOSTILE_ENTRY_ROWS = [
    ("the root's first directory row inverted", _swap_row(0), "entry row 0 is not low <= high"),
    ("a NaN in the root's first directory row", _nan_in_row_0, "entry row 0 is not low <= high"),
    ("a directory row shrunk inside its child", _shrink_row_1,
     "directory row 1 does not contain the bounds of node slot"),
    ("a leaf row inverted", _swap_row("leaf"), "is not low <= high"),
]


@pytest.mark.parametrize("edit,message", [row[1:] for row in HOSTILE_ENTRY_ROWS],
                         ids=[row[0] for row in HOSTILE_ENTRY_ROWS])
def test_hostile_entry_rows_are_refused_at_load(tmp_path, edit, message):
    objects, reference = _frozen(dims=2, count=300, clip="stairline", variant="str")
    assert not reference.is_leaf[reference.entry_child[1]]
    save_snapshot(reference, tmp_path)
    lows, highs = reference.entry_lows.copy(), reference.entry_highs.copy()
    edit(lows, highs, len(lows) - len(objects))
    assert lows.shape == reference.entry_lows.shape and lows.dtype == reference.entry_lows.dtype
    _overwrite_array(tmp_path, "entry_lows", lows)
    _overwrite_array(tmp_path, "entry_highs", highs)
    for mmap in (True, False):
        with pytest.raises(SnapshotFormatError, match=message):
            load_snapshot(tmp_path, mmap=mmap)


def _root_row_to_a_grandchild(reference, lows, highs, child):
    # Row 0 already contains the first leaf below its own child.
    child[0] = child[reference.entry_start[child[0]]]


def _root_row_to_the_root(reference, lows, highs, child):
    root = slice(0, reference.entry_count[0])
    lows[0], highs[0] = lows[root].min(axis=0), highs[root].max(axis=0)
    child[0] = 0


def _leaf_and_directory_swapped(reference, lows, highs, child):
    # The root's last row takes slot 1's first leaf and slot 1's first row
    # the root's last child: one parent each, every child a later slot and
    # inside its row, but leaves on two levels.
    last, first = reference.entry_count[0] - 1, reference.entry_start[1]
    hull = lows[: last + 1].min(axis=0), highs[: last + 1].max(axis=0)
    lows[first], highs[first] = lows[last].copy(), highs[last].copy()
    lows[0], highs[0] = hull
    lows[last], highs[last] = hull
    child[first], child[last] = child[last], child[first]


#: Node slots that are not one balanced tree: (what the files say, the edit
#: of the entry rows and children, what the error names).  Each loaded
#: before the tree's shape was checked; the first answered an all-space
#: query with 249 of 300 objects, the second never finished one.
HOSTILE_TREE_SHAPES = [
    ("a root row pointing at a leaf two levels down", _root_row_to_a_grandchild,
     "node slot 1 is the child of 0 directory rows"),
    ("a root row pointing back at the root", _root_row_to_the_root,
     "directory row 0 points back at node slot 0"),
    ("a leaf and a directory node swapped across levels", _leaf_and_directory_swapped,
     "is not one level below its parent, node slot 0"),
]


@pytest.mark.parametrize("edit,message", [row[1:] for row in HOSTILE_TREE_SHAPES],
                         ids=[row[0] for row in HOSTILE_TREE_SHAPES])
def test_node_slots_that_are_not_one_balanced_tree_are_refused_at_load(tmp_path, edit, message):
    objects, reference = _frozen(dims=2, count=300, clip="stairline", variant="str")
    assert reference.node_levels()[0] == 2 and reference.entry_count[0] > 1
    save_snapshot(reference, tmp_path)
    lows, highs = reference.entry_lows.copy(), reference.entry_highs.copy()
    child = reference.entry_child.copy()
    edit(reference, lows, highs, child)
    for name, array in (("entry_lows", lows), ("entry_highs", highs), ("entry_child", child)):
        _overwrite_array(tmp_path, name, array)
    for mmap in (True, False):
        with pytest.raises(SnapshotFormatError, match=message):
            load_snapshot(tmp_path, mmap=mmap)


def test_lazy_object_list(tmp_path):
    objects, reference = _frozen(count=40)
    save_snapshot(reference, tmp_path)
    loaded = load_snapshot(tmp_path)
    lazy = loaded.objects
    assert isinstance(lazy, LazyObjectList)
    assert len(lazy) == len(objects)
    # The column order is the snapshot's leaf order, not insertion order;
    # materialised objects equal the originals (oid + rect; payloads are
    # not persisted) and are cached, so repeated access is identity-stable.
    by_oid = {obj.oid: obj for obj in objects}
    assert lazy[5] == by_oid[lazy[5].oid]
    assert lazy[5] is lazy[5]
    assert lazy[-1] is lazy[len(objects) - 1]
    assert sorted(obj.oid for obj in lazy) == sorted(by_oid)
    assert all(obj == by_oid[obj.oid] for obj in lazy)
    with pytest.raises(IndexError):
        lazy[len(objects)]


def _rect_error(low, high):
    with pytest.raises(ValueError) as excinfo:
        Rect(low, high)
    return str(excinfo.value)


def test_lazy_take_refuses_a_bad_row_with_rects_own_error():
    lows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    highs = lows + 1.0
    highs[1] = [0.5, 2.0]  # inverted in dimension 0
    lows[2, 1] = np.nan
    lazy = LazyObjectList(np.arange(4), lows, highs)
    # The error names the first bad row of those not built yet, in row order.
    for rows, bad in (([1], 1), ([2], 2), ([3, 2, 1, 0], 1), ([0, 2, 3], 2)):
        with pytest.raises(ValueError) as excinfo:
            lazy.take(np.array(rows))
        assert str(excinfo.value) == _rect_error(lows[bad].tolist(), highs[bad].tolist())
        assert lazy._cache == {}, "a refused batch caches nothing"
    with pytest.raises(ValueError, match="NaN bound"):
        lazy[2]
    assert lazy._cache == {}
    good = lazy.take(np.array([3, 0]))
    assert [obj.rect for obj in good] == [Rect(lows[3], highs[3]), Rect(lows[0], highs[0])]
    assert sorted(lazy._cache) == [0, 3]


def test_lazy_take_builds_what_rect_builds():
    inf = float("inf")
    lows = np.array([[-0.0, 0.0], [-inf, 1.0], [2.0, -inf], [5.0, 5.0], [-inf, inf]])
    highs = np.array([[0.0, -0.0], [inf, 1.0], [2.0, inf], [5.0, 5.0], [inf, inf]])
    got = LazyObjectList(np.arange(5), lows, highs).take(np.arange(5))
    for obj, low, high in zip(got, lows.tolist(), highs.tolist()):
        expected = Rect(low, high)
        assert obj.rect == expected and hash(obj.rect) == hash(expected)
        for mine, theirs in ((obj.rect.low, expected.low), (obj.rect.high, expected.high)):
            assert type(mine) is tuple and all(type(x) is float for x in mine)
            assert np.signbit(mine).tolist() == np.signbit(theirs).tolist()
    # Integer columns come back as the floats Rect would make of them.
    (obj,) = LazyObjectList(np.arange(1), np.array([[1, 2]]), np.array([[3, 4]])).take([0])
    assert obj.rect.low == (1.0, 2.0) and all(type(x) is float for x in obj.rect.low)


_EXPECTED_DTYPES = {
    "is_leaf": np.bool_,
    "clip_is_high": np.bool_,
    "entry_lows": np.float64,
    "entry_highs": np.float64,
    "clip_coords": np.float64,
    "entry_start": np.int64,
    "entry_count": np.int64,
    "node_ids": np.int64,
    "entry_child": np.int64,
    "node_clip_start": np.int64,
    "node_clip_count": np.int64,
}


def test_frozen_arrays_are_pinned_and_contiguous():
    _, snapshot = _frozen(clip="stairline")
    for attr, dtype in _EXPECTED_DTYPES.items():
        array = getattr(snapshot, attr)
        assert array.dtype == np.dtype(dtype), attr
        assert array.flags["C_CONTIGUOUS"], attr


def test_loaded_arrays_keep_pinned_dtypes(tmp_path):
    _, reference = _frozen(clip="stairline")
    save_snapshot(reference, tmp_path)
    for mmap in (True, False):
        loaded = load_snapshot(tmp_path, mmap=mmap)
        for attr, dtype in _EXPECTED_DTYPES.items():
            assert getattr(loaded, attr).dtype == np.dtype(dtype), attr


def test_loaded_snapshot_is_never_stale(tmp_path):
    _, reference = _frozen()
    save_snapshot(reference, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert loaded.source is None
    assert not loaded.is_stale
