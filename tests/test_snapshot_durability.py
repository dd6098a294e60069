"""Crash-durability tests for the snapshot persistence layer.

:func:`save_snapshot` claims a precise contract: the manifest
``os.replace`` is the *single commit point* — a process killed at any
byte offset of the write sequence leaves the directory loading the
previous snapshot, and the first moment it loads the new one is the
rename.  ``test_kill_at_every_byte_offset`` proves that literally: it
replays a save's byte stream (every generation array file, then the
manifest temp file, in the order the saver writes them) one byte at a
time into a directory holding an older committed snapshot, and asserts
a full :func:`load_snapshot` succeeds — and still yields the *old*
snapshot — after every single byte, flipping to the new snapshot only
after the final rename.

The rest pins the supporting machinery: old generations are
garbage-collected only after a commit, an interrupted save is cleanly
resumable, re-saving identical content is a no-op, format-version-1
layouts (arrays at top level, no ``data_dir``) and format-version-2
directories (nineteen arrays, caches and object columns included) are
refused with the typed error — and a save over a committed format-2
directory replaces it under the same commit rule — and the load fault
hook used by the chaos suite installs and restores correctly.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.engine import (
    FORMAT_VERSION,
    ColumnarIndex,
    SnapshotFormatError,
    load_snapshot,
    range_query_batch,
    save_snapshot,
    set_load_fault_hook,
)
from repro.engine import snapshot_io
from repro.engine.snapshot_io import MANIFEST_NAME, read_manifest
from repro.geometry.rect import Rect
from repro.rtree.registry import build_rtree
from tests.conftest import make_random_objects


def _tiny_snapshot(seed, count=10):
    objects = make_random_objects(count, dims=2, seed=seed)
    return ColumnarIndex.from_tree(build_rtree("rstar", objects, max_entries=4))


def _save_plan(snapshot, scratch):
    """The exact byte stream a save writes: ordered files + manifest."""
    save_snapshot(snapshot, scratch)
    manifest = read_manifest(scratch)
    generation = manifest["data_dir"]
    # json preserves insertion order, which is the order the arrays were
    # written in — replay must match the saver's sequence.
    files = [
        (f"{generation}/{name}.npy", (scratch / generation / f"{name}.npy").read_bytes())
        for name in manifest["arrays"]
    ]
    manifest_bytes = (scratch / MANIFEST_NAME).read_bytes()
    return generation, files, manifest_bytes


def test_kill_at_every_byte_offset(tmp_path):
    old = _tiny_snapshot(seed=1)
    new = _tiny_snapshot(seed=2, count=12)
    target = tmp_path / "snap"
    save_snapshot(old, target)
    old_fingerprint = read_manifest(target)["fingerprint"]
    old_len = len(old.objects)

    generation, files, manifest_bytes = _save_plan(new, tmp_path / "scratch")
    new_fingerprint = json.loads(manifest_bytes)["fingerprint"]
    assert new_fingerprint != old_fingerprint

    def assert_loads_old():
        # mmap load: full manifest + array validation without copying
        loaded = load_snapshot(target, mmap=True)
        assert len(loaded.objects) == old_len
        assert read_manifest(target)["fingerprint"] == old_fingerprint

    # crash during any array write: old snapshot stays fully loadable
    (target / generation).mkdir()
    for rel_path, payload in files:
        with open(target / rel_path, "ab") as handle:
            for offset in range(len(payload)):
                handle.write(payload[offset : offset + 1])
                handle.flush()
                assert_loads_old()

    # crash during the manifest temp write: still the old snapshot
    tmp_manifest = target / (MANIFEST_NAME + ".tmp")
    with open(tmp_manifest, "ab") as handle:
        for offset in range(len(manifest_bytes)):
            handle.write(manifest_bytes[offset : offset + 1])
            handle.flush()
            assert_loads_old()

    # the commit point: after the rename the new snapshot is served
    os.replace(tmp_manifest, target / MANIFEST_NAME)
    loaded = load_snapshot(target)
    assert read_manifest(target)["fingerprint"] == new_fingerprint
    assert len(loaded.objects) == len(new.objects)
    probe = [Rect([0.0, 0.0], [100.0, 100.0])]
    assert {o.oid for o in range_query_batch(loaded, probe)[0]} == {
        o.oid for o in range_query_batch(new, probe)[0]
    }


def test_interrupted_save_is_resumable(tmp_path):
    """A half-written generation does not block a later successful save."""
    old = _tiny_snapshot(seed=1)
    new = _tiny_snapshot(seed=2, count=12)
    target = tmp_path / "snap"
    save_snapshot(old, target)

    generation, files, _manifest = _save_plan(new, tmp_path / "scratch")
    (target / generation).mkdir()
    rel_path, payload = files[0]
    (target / rel_path).write_bytes(payload[: len(payload) // 2])  # torn file

    save_snapshot(new, target)  # the retry overwrites and commits
    loaded = load_snapshot(target)
    assert len(loaded.objects) == len(new.objects)


def test_old_generations_gc_after_commit(tmp_path):
    old = _tiny_snapshot(seed=1)
    new = _tiny_snapshot(seed=2, count=12)
    save_snapshot(old, tmp_path)
    old_generation = read_manifest(tmp_path)["data_dir"]
    assert (tmp_path / old_generation).is_dir()

    save_snapshot(new, tmp_path)
    new_generation = read_manifest(tmp_path)["data_dir"]
    assert new_generation != old_generation
    assert (tmp_path / new_generation).is_dir()
    assert not (tmp_path / old_generation).exists()
    assert len(load_snapshot(tmp_path).objects) == len(new.objects)


def test_identical_resave_is_a_noop(tmp_path):
    snapshot = _tiny_snapshot(seed=1)
    save_snapshot(snapshot, tmp_path)
    generation = read_manifest(tmp_path)["data_dir"]
    before = {
        path.name: path.stat().st_mtime_ns
        for path in (tmp_path / generation).iterdir()
    }
    manifest_before = (tmp_path / MANIFEST_NAME).read_bytes()

    save_snapshot(snapshot, tmp_path)
    after = {
        path.name: path.stat().st_mtime_ns
        for path in (tmp_path / generation).iterdir()
    }
    assert after == before  # no byte of the committed generation rewritten
    assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest_before


def test_format_version_1_layout_is_rejected(tmp_path):
    """v1 snapshots (top-level arrays, no data_dir) raise the typed error."""
    snapshot = _tiny_snapshot(seed=1)
    save_snapshot(snapshot, tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    generation = manifest.pop("data_dir")
    manifest["format_version"] = 1
    for path in (tmp_path / generation).iterdir():
        shutil.move(str(path), str(tmp_path / path.name))
    (tmp_path / generation).rmdir()
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))

    with pytest.raises(SnapshotFormatError, match="format version 1"):
        load_snapshot(tmp_path)
    # A current-version manifest that lost its data_dir is malformed too,
    # not silently read from the top level.
    manifest["format_version"] = FORMAT_VERSION
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="data_dir"):
        load_snapshot(tmp_path)


def _write_format_2(snapshot, directory):
    """Commit ``snapshot`` the way format 2 laid it out; returns the generation.

    Nineteen arrays: today's twelve, the per-entry clip slices, the
    ``node_bounds`` / ``node_levels`` caches and a second copy of every
    object rectangle.
    """
    directory_rows = np.repeat(~snapshot.is_leaf, snapshot.entry_count)
    children = np.where(directory_rows, snapshot.entry_child, 0)
    node_lows, node_highs = snapshot.node_bounds()
    arrays = {name: getattr(snapshot, name) for name in snapshot_io._INDEX_ARRAYS}
    arrays.update(
        clip_start=np.where(directory_rows, snapshot.node_clip_start[children], 0),
        clip_count=np.where(directory_rows, snapshot.node_clip_count[children], 0),
        node_lows=node_lows,
        node_highs=node_highs,
        node_levels=snapshot.node_levels(),
        object_oids=np.array([obj.oid for obj in snapshot.objects], dtype=np.int64),
    )
    for bound in ("low", "high"):
        arrays[f"object_{bound}s"] = np.array(
            [getattr(obj.rect, bound) for obj in snapshot.objects]
        )
    assert len(arrays) == 19
    fingerprint = snapshot_io._fingerprint(arrays)
    generation = f"g{fingerprint[:12]}"
    (directory / generation).mkdir(parents=True)
    for name, array in arrays.items():
        np.save(directory / generation / f"{name}.npy", array)
    manifest = {
        "format_version": 2,
        "dims": snapshot.dims,
        "arrays": {
            name: {"dtype": str(array.dtype), "shape": list(array.shape)}
            for name, array in arrays.items()
        },
        "data_dir": generation,
        "fingerprint": fingerprint,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
    return generation


def test_format_version_2_directory_is_rejected(tmp_path):
    _write_format_2(_tiny_snapshot(seed=1), tmp_path)
    for reader in (read_manifest, load_snapshot):
        with pytest.raises(SnapshotFormatError, match="format version 2"):
            reader(tmp_path)


def test_save_over_a_format_2_directory_commits_format_3(tmp_path, monkeypatch):
    old_generation = _write_format_2(_tiny_snapshot(seed=1), tmp_path)
    new = _tiny_snapshot(seed=2, count=12)

    # The old generation outlives every step up to and including the commit.
    seen_at_commit = []
    replace = os.replace

    def committing_replace(src, dst):
        seen_at_commit.append((tmp_path / old_generation / "node_levels.npy").is_file())
        replace(src, dst)
        seen_at_commit.append((tmp_path / old_generation / "node_levels.npy").is_file())

    monkeypatch.setattr(os, "replace", committing_replace)
    save_snapshot(new, tmp_path)
    assert seen_at_commit == [True, True]

    manifest = read_manifest(tmp_path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert len(manifest["arrays"]) == 12
    assert not (tmp_path / old_generation).exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [MANIFEST_NAME, manifest["data_dir"]]
    )
    assert len(load_snapshot(tmp_path).objects) == len(new.objects)


def test_load_fault_hook_install_and_restore(tmp_path):
    snapshot = _tiny_snapshot(seed=1)
    save_snapshot(snapshot, tmp_path)
    seen = []

    def hook(path):
        seen.append(path)
        raise OSError("injected torn read")

    previous = set_load_fault_hook(hook)
    try:
        with pytest.raises(OSError, match="torn read"):
            load_snapshot(tmp_path)
        assert seen == [str(tmp_path)]
    finally:
        restored = set_load_fault_hook(previous)
        assert restored is hook
    load_snapshot(tmp_path)  # hook gone: loads normally
    assert seen == [str(tmp_path)]


def test_unknown_generation_dirs_are_preserved(tmp_path):
    """GC removes only content-addressed generation dirs it owns."""
    old = _tiny_snapshot(seed=1)
    new = _tiny_snapshot(seed=2, count=12)
    save_snapshot(old, tmp_path)
    keep = tmp_path / "user-data"
    keep.mkdir()
    (keep / "notes.txt").write_text("not a generation")
    save_snapshot(new, tmp_path)
    assert (keep / "notes.txt").read_text() == "not a generation"
