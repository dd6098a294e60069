"""Zero-copy persistence for :class:`~repro.engine.columnar.ColumnarIndex`.

:func:`save_snapshot` writes the canonical snapshot arrays as individual
``.npy`` files next to a JSON manifest recording the format version,
dimensionality, per-array dtypes/shapes, and a content fingerprint.
:func:`load_snapshot` reads the directory back; with ``mmap=True`` (the
default) every array is an ``mmap_mode="r"`` view of its file, so loading
a multi-hundred-megabyte index costs milliseconds, touches no heap, and
any number of processes opening the same directory share one page-cache
copy of the data — the transport underneath
:class:`~repro.engine.parallel.ParallelExecutor`'s worker pool.

**What is stored (format version 3): every fact once.**  Twelve arrays —
the eleven canonical ``ColumnarIndex`` arrays (node flags and entry
slices, entry rectangles and children, clip points and the per-node clip
slices) plus ``object_oids``.  Not stored, because the directory already
says it:

* object rectangles — they are the trailing ``len(object_oids)`` rows of
  ``entry_lows`` / ``entry_highs`` (the leaf-rows invariant documented on
  :class:`ColumnarIndex`), so a loaded snapshot's objects are zero-copy
  views of those rows.  The two conditions that put the rows there —
  leaf slots after directory slots, as many leaf entries as objects — are
  checked on save (``ValueError``) and on load
  (:class:`SnapshotFormatError`);
* anything derived — ``node_bounds`` / ``node_levels`` / the node-major
  layouts are derived per process on first use: opening one more file
  costs about what deriving the bounds and levels of 30 000 objects does,
  and only the STT join reads them.

A loaded snapshot is *differentially identical* to the in-RAM original:
``range_query_batch``/``knn_batch``/``inlj_batch``/``stt_batch`` return
the same results with the same ``IOStats`` (``tests/test_snapshot_io.py``
pins this per variant × dims).  Two deliberate deviations from a
round-tripped Python object:

* ``source`` is ``None`` — a loaded snapshot has no tree to re-freeze,
  so it is never stale (like ``build_columnar_str`` output);
* object payloads are dropped — only ``(oid, rect)`` is persisted, and
  :class:`SpatialObject` equality is defined on exactly that pair.
  Objects are materialised lazily on first access, so a worker that
  only counts hits never builds a single Python object.

Durability (format version 3): a save is *crash-atomic at every byte*.
Array files land in a content-addressed generation directory
(``g<fingerprint[:12]>/``) so an in-flight save never touches the bytes
a committed manifest points at; every array file, the manifest, and the
enclosing directories are fsynced; and the ``os.replace`` of the
manifest is the single commit point — a process killed at any offset of
the write sequence leaves the directory loading either the old snapshot
or the new one, never garbage (``tests/test_snapshot_durability.py``
kills a simulated save at every byte offset to prove it).  Superseded
generations are garbage-collected strictly *after* the commit.  Older
formats are refused with :class:`SnapshotFormatError`; there is no
second reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect

#: On-disk format version; bump on any incompatible layout change.
FORMAT_VERSION = 3

#: Manifest file name inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

#: Generation-directory names this module owns (and may GC).
_GENERATION_RE = re.compile(r"^g[0-9a-f]{12}$")

#: The ``ColumnarIndex`` arrays a snapshot persists, each under its
#: attribute (and constructor parameter) name.
_INDEX_ARRAYS = (
    "is_leaf",
    "entry_start",
    "entry_count",
    "node_ids",
    "entry_lows",
    "entry_highs",
    "entry_child",
    "clip_coords",
    "clip_is_high",
    "node_clip_start",
    "node_clip_count",
)

#: Every array file of a snapshot directory, in the order they are written.
_ARRAYS = _INDEX_ARRAYS + ("object_oids",)


class SnapshotFormatError(RuntimeError):
    """A snapshot directory is missing, corrupt, or of an unknown format."""


class LazyObjectList:
    """A read-only sequence materialising :class:`SpatialObject` on demand.

    Backed by the ``object_oids`` column and the leaf rows of
    ``entry_lows`` / ``entry_highs`` (typically mmap views); an object is
    built — and cached — only when indexed, so result-materialising code
    pays for exactly the objects it returns.  Payloads are not persisted
    and come back as ``None``.
    """

    __slots__ = ("oids", "lows", "highs", "_cache")

    def __init__(self, oids: np.ndarray, lows: np.ndarray, highs: np.ndarray):
        self.oids = oids
        self.lows = lows
        self.highs = highs
        self._cache: Dict[int, SpatialObject] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def __getitem__(self, index: int) -> SpatialObject:
        index = int(index)
        if index < 0:
            index += len(self.oids)
        if not 0 <= index < len(self.oids):
            raise IndexError(index)
        obj = self._cache.get(index)
        if obj is None:
            obj = SpatialObject(
                int(self.oids[index]),
                Rect(self.lows[index].tolist(), self.highs[index].tolist()),
            )
            self._cache[index] = obj
        return obj

    def __iter__(self) -> Iterator[SpatialObject]:
        for i in range(len(self.oids)):
            yield self[i]

    def __repr__(self) -> str:
        return f"LazyObjectList(n={len(self.oids)})"


def _fingerprint(arrays: Dict[str, np.ndarray]) -> str:
    """A sha256 over every array's bytes, in fixed name order."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _fsync_path(path: Union[str, Path]) -> None:
    """fsync one file (or directory) so its bytes survive a crash."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _gc_stale_generations(directory: Path, keep: str) -> None:
    """Remove superseded generation dirs.

    Only called after the new manifest is committed, so nothing a
    loadable manifest references is ever deleted.
    """
    for child in directory.iterdir():
        if child.is_dir() and _GENERATION_RE.match(child.name) and child.name != keep:
            shutil.rmtree(child, ignore_errors=True)


def _leaf_rows_fault(index: ColumnarIndex, n_objects: int) -> Optional[str]:
    """Why ``index``'s trailing ``n_objects`` entry rows are not its objects, or None.

    The leaf-rows invariant of :class:`ColumnarIndex`, as far as it can be
    checked in O(nodes): leaf slots come after directory slots, and the
    leaves hold exactly one entry per object.
    """
    if np.any(index.is_leaf[:-1] & ~index.is_leaf[1:]):
        return "a directory slot follows a leaf slot"
    leaf_entries = int(index.entry_count[index.is_leaf].sum())
    if leaf_entries != n_objects:
        return f"the leaves hold {leaf_entries} entries for {n_objects} objects"
    return None


def save_snapshot(index: ColumnarIndex, directory: Union[str, Path]) -> Path:
    """Persist ``index`` into ``directory`` (created if needed).

    Every array lands in its own ``.npy`` file inside a content-addressed
    generation subdirectory; ``manifest.json`` records the format
    version, dims, per-array dtype/shape, the generation (``data_dir``),
    and a content fingerprint.  Object rectangles are not written a
    second time: they are the leaf rows of ``entry_lows`` /
    ``entry_highs``, and an index laid out otherwise
    (:func:`_leaf_rows_fault`) raises ``ValueError`` here rather than
    :class:`SnapshotFormatError` at every later load.

    The save is crash-atomic: array files are written into a fresh
    generation directory (never the one a committed manifest points at)
    and fsynced, the manifest is fsynced and ``os.replace``\\ d into
    place as the single commit point, and the parent directory is
    fsynced so the rename itself is durable.  A kill at any byte offset
    of this sequence leaves the directory loading the previous snapshot;
    after the rename it loads the new one.  Old generations are removed
    only after the commit.  Re-saving a snapshot whose fingerprint
    already matches the committed manifest is a no-op (the bytes on disk
    are already the requested state).  Returns the directory path.
    """
    object_oids = np.ascontiguousarray(index.object_oids(), dtype=np.int64)
    fault = _leaf_rows_fault(index, len(object_oids))
    if fault is not None:
        raise ValueError(f"cannot save {index!r}: {fault}")

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {name: getattr(index, name) for name in _INDEX_ARRAYS}
    arrays["object_oids"] = object_oids

    fingerprint = _fingerprint(arrays)
    generation = f"g{fingerprint[:12]}"

    # Idempotent re-save: when the committed manifest already records this
    # exact content (and its generation files exist), writing again would
    # overwrite the very bytes a committed manifest points at — skip.
    try:
        committed = read_manifest(directory)
    except SnapshotFormatError:
        committed = {}  # nothing committed, or nothing this format can keep
    if (
        committed.get("fingerprint") == fingerprint
        and committed.get("data_dir") == generation
        and all((directory / generation / f"{name}.npy").is_file() for name in arrays)
    ):
        return directory

    data_path = directory / generation
    data_path.mkdir(exist_ok=True)
    for name, array in arrays.items():
        target = data_path / f"{name}.npy"
        np.save(target, array, allow_pickle=False)
        _fsync_path(target)
    _fsync_path(data_path)

    manifest = {
        "format_version": FORMAT_VERSION,
        "dims": index.dims,
        "arrays": {
            name: {"dtype": str(array.dtype), "shape": list(array.shape)}
            for name, array in arrays.items()
        },
        "source": {
            "type": type(index.source).__name__ if index.source is not None else None,
            "version": index.source_version,
        },
        "data_dir": generation,
        "fingerprint": fingerprint,
    }
    # fsync-then-rename: the manifest replace is the commit point — a
    # directory serves a snapshot exactly when its manifest parses, and
    # the manifest only ever points at a fully written, fsynced
    # generation.
    tmp_path = directory / (MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w") as handle:
        handle.write(json.dumps(manifest, indent=2) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, directory / MANIFEST_NAME)
    _fsync_path(directory)
    _gc_stale_generations(directory, generation)
    return directory


def read_manifest(directory: Union[str, Path]) -> dict:
    """Parse and check a snapshot directory's manifest.

    The one place manifest content is trusted from: everything
    :func:`load_snapshot` later indexes, converts or joins onto a path is
    type- and range-checked here, and every failure is a
    :class:`SnapshotFormatError`.
    """
    path = Path(directory) / MANIFEST_NAME

    def malformed(why: str) -> SnapshotFormatError:
        return SnapshotFormatError(f"snapshot manifest {path} {why}")

    if not path.is_file():
        raise SnapshotFormatError(f"no snapshot manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(f"unreadable snapshot manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        raise malformed("is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot format version {version!r} at {directory} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    for key in ("dims", "arrays", "data_dir"):
        if key not in manifest:
            raise malformed(f"lacks {key!r}")
    specs = manifest["arrays"]
    if not isinstance(specs, dict):
        raise malformed("lists its arrays as something other than an object")
    missing = set(_ARRAYS) - set(specs)
    if missing:
        raise malformed(f"lacks arrays: {sorted(missing)}")
    for name in _ARRAYS:
        if not isinstance(specs[name], dict):
            raise malformed(f"describes array {name!r} as {specs[name]!r}, not an object")
    dims = manifest["dims"]
    if isinstance(dims, bool) or not isinstance(dims, int) or dims < 1:
        raise malformed(f"has dims {dims!r}, not a positive integer")
    shape = specs["entry_lows"].get("shape")
    if not isinstance(shape, list) or len(shape) != 2 or shape[1] != dims:
        raise malformed(f"says dims {dims} over entry_lows of shape {shape!r}")
    # The generation is joined onto the directory: a name of the saver's
    # own shape cannot point outside it.
    data_dir = manifest["data_dir"]
    if not isinstance(data_dir, str) or not _GENERATION_RE.match(data_dir):
        raise malformed(f"names data_dir {data_dir!r}, not a generation of this directory")
    return manifest


#: Test/chaos hook consulted at the top of :func:`load_snapshot` — a
#: callable receiving the directory path; raising simulates a load-time
#: I/O failure.  Installed via :func:`set_load_fault_hook` (e.g. by
#: ``repro.serve.faults.FaultPlan.install``); this module never imports
#: the serving layer.
_LOAD_FAULT_HOOK: Optional[Callable[[str], None]] = None


def set_load_fault_hook(
    hook: Optional[Callable[[str], None]],
) -> Optional[Callable[[str], None]]:
    """Install (or clear, with None) the load fault hook; returns the old one."""
    global _LOAD_FAULT_HOOK
    previous = _LOAD_FAULT_HOOK
    _LOAD_FAULT_HOOK = hook
    return previous


def _load_array(
    directory: Path, name: str, spec: dict, mmap: bool
) -> np.ndarray:
    path = directory / f"{name}.npy"
    if not path.is_file():
        raise SnapshotFormatError(f"snapshot array file missing: {path}")
    try:
        array = np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(f"unreadable snapshot array {path}: {exc}")
    if str(array.dtype) != spec.get("dtype") or list(array.shape) != spec.get("shape"):
        raise SnapshotFormatError(
            f"snapshot array {path} is {array.dtype}{list(array.shape)}, manifest "
            f"says {spec.get('dtype')}{spec.get('shape')}"
        )
    return array


def load_snapshot(directory: Union[str, Path], mmap: bool = True) -> ColumnarIndex:
    """Open the snapshot saved in ``directory``.

    ``mmap=True`` maps every array read-only straight off disk — loading
    is O(metadata), the OS pages data in on first touch, and concurrent
    processes share one physical copy.  ``mmap=False`` reads the arrays
    into RAM (useful when the snapshot directory is about to disappear,
    e.g. tests using temp dirs that outlive the view).

    Raises :class:`SnapshotFormatError` on a missing/corrupt manifest, a
    format-version mismatch, any array whose dtype/shape disagrees with
    the manifest, or arrays whose leaf rows are not the objects'
    (:func:`_leaf_rows_fault`).
    """
    directory = Path(directory)
    hook = _LOAD_FAULT_HOOK
    if hook is not None:
        hook(str(directory))
    manifest = read_manifest(directory)
    data_path = directory / manifest["data_dir"]
    arrays = {
        name: _load_array(data_path, name, manifest["arrays"][name], mmap)
        for name in _ARRAYS
    }
    oids = arrays.pop("object_oids")
    # The objects' rectangles are the trailing rows of the entry columns.
    first = len(arrays["entry_lows"]) - len(oids)
    snapshot = ColumnarIndex(
        source=None,
        dims=manifest["dims"],
        objects=LazyObjectList(
            oids, arrays["entry_lows"][first:], arrays["entry_highs"][first:]
        ),
        source_version=None,
        **arrays,
    )
    fault = _leaf_rows_fault(snapshot, len(oids))
    if fault is not None:
        raise SnapshotFormatError(f"snapshot at {directory} is inconsistent: {fault}")
    return snapshot
