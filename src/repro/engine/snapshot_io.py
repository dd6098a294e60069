"""Zero-copy persistence for :class:`~repro.engine.columnar.ColumnarIndex`.

:func:`save_snapshot` writes the canonical snapshot arrays as individual
``.npy`` files next to a JSON manifest recording the format version,
dimensionality, per-array dtypes/shapes, the tree record and a content
fingerprint.
:func:`load_snapshot` reads the directory back; with ``mmap=True`` (the
default) every array is an ``mmap_mode="r"`` view of its file, so the
loaded arrays stay in the page cache, and any number of processes opening
the same directory share one copy of the data — the transport underneath
:class:`~repro.engine.parallel.ParallelExecutor`'s worker pool.  Loading
reads every entry row once, to check it, and refuses node slots that are
not one balanced tree.

**What is stored (format version 4): every fact once.**  Twelve arrays —
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

The manifest also records what the arrays cannot say about the tree they
were frozen from — its :class:`~repro.engine.columnar.TreeRecord`:
variant, node capacity and minimum fill, next node id, clipping
parameters and, for a Hilbert R-tree, the curve's bits and reference
space.  :meth:`ColumnarIndex.to_tree
<repro.engine.columnar.ColumnarIndex.to_tree>` thaws that tree from a
loaded snapshot, which is how a
:class:`~repro.engine.delta.SnapshotManager` over one compacts.
:func:`read_manifest` checks every field of the record; the next node id
is checked against the node ids at load.

A loaded snapshot is *differentially identical* to the in-RAM original:
``range_query_batch``/``knn_batch``/``inlj_batch``/``stt_batch`` return
the same results with the same ``IOStats`` (``tests/test_snapshot_io.py``
pins this per variant × dims).  Two deliberate deviations from a
round-tripped Python object:

* ``source`` is ``None`` — a loaded snapshot has no tree to re-freeze,
  so it is never stale (like ``build_columnar_str`` output); its tree
  record says how to thaw one;
* object payloads are dropped — only ``(oid, rect)`` is persisted, and
  :class:`SpatialObject` equality is defined on exactly that pair.
  Objects are materialised lazily on first access, so a worker that
  only counts hits never builds a single Python object.

Durability: a save is *crash-atomic at every byte*.
Array files land in a content-addressed generation directory
(``g<fingerprint[:12]>/``) so an in-flight save never touches the bytes
a committed manifest points at; every array file, the manifest, and the
enclosing directories are fsynced; and the ``os.replace`` of the
manifest is the single commit point — a process killed at any offset of
the write sequence leaves the directory loading either the old snapshot
or the new one, never garbage (``tests/test_snapshot_durability.py``
kills a simulated save at every byte offset to prove it).  Superseded
generations are garbage-collected strictly *after* the commit.  Older
formats — format 3 too, which had the same arrays but no tree record —
are refused with :class:`SnapshotFormatError`; there is no second reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.cbb.clipping import VALID_METHODS, ClippingConfig
from repro.engine.columnar import ColumnarIndex, TreeRecord, slot_levels
from repro.engine.kernels import expand_segments, rects_of_rows
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.registry import VARIANT_NAMES

#: On-disk format version; bump on any incompatible layout change.
FORMAT_VERSION = 4

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
    built — and cached — only when asked for, so result-materialising
    code pays for exactly the objects it returns.  :meth:`take` builds
    every row a batch needs in one pass; an integer index, a slice and
    iteration all go through the same cache, so each row is built once
    and handed out as one instance.  Payloads are not persisted and come
    back as ``None``.
    """

    __slots__ = ("oids", "lows", "highs", "_cache")

    def __init__(self, oids: np.ndarray, lows: np.ndarray, highs: np.ndarray):
        self.oids = oids
        self.lows = lows
        self.highs = highs
        self._cache: Dict[int, SpatialObject] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def take(self, rows: np.ndarray) -> List[SpatialObject]:
        """``[self[i] for i in rows]`` for non-negative ``rows``, built in one pass.

        The rows not built yet are read with one gather per column and
        checked with one array compare (:func:`~repro.engine.kernels.rects_of_rows`:
        a failing row raises ``Rect``'s own ``ValueError`` and nothing is
        cached); the rest come from the cache.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and not (0 <= rows.min() and rows.max() < len(self.oids)):
            raise IndexError(f"rows outside 0..{len(self.oids) - 1}")
        keys = rows.tolist()
        cache = self._cache
        missing = sorted(set(keys).difference(cache))
        if missing:
            at = np.array(missing, dtype=np.int64)
            rects = rects_of_rows(self.lows[at], self.highs[at])
            cache.update(zip(missing, map(SpatialObject, self.oids[at].tolist(), rects)))
        return list(map(cache.__getitem__, keys))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self.oids))[index])
        index = int(index)
        if index < 0:
            index += len(self.oids)
        if not 0 <= index < len(self.oids):
            raise IndexError(index)
        return self.take(np.array([index]))[0]

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self.take(np.arange(len(self.oids))))

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


def _entry_rows_fault(index: ColumnarIndex) -> Optional[str]:
    """Why ``index``'s entry rectangles cannot be a tree's, or None.

    Two vectorised checks over every entry row, as ``Rect`` and the tree
    guarantee them for a frozen index: each row has ``low <= high`` in
    every dimension (NaN fails it, ±inf is legal), and each directory row
    points at a node slot and contains that slot's bounds — the min/max
    of its own entries, as
    :meth:`~repro.engine.columnar.ColumnarIndex.node_bounds` derives them
    (computed here without filling its cache).
    """
    lows, highs = index.entry_lows, index.entry_highs
    bad = np.flatnonzero(~(lows <= highs).all(axis=1))
    if len(bad):
        row = bad[0]
        return f"entry row {row} is not low <= high: {lows[row].tolist()} / {highs[row].tolist()}"
    directory = np.flatnonzero(~index.is_leaf)
    rows, _ = expand_segments(index.entry_start[directory], index.entry_count[directory])
    if not len(rows):
        return None
    children = index.entry_child[rows]
    stray = np.flatnonzero((children < 0) | (children >= len(index.is_leaf)))
    if len(stray):
        return f"directory row {rows[stray[0]]} points at node slot {children[stray[0]]}"
    child_lows = np.minimum.reduceat(lows, index.entry_start)[children]
    child_highs = np.maximum.reduceat(highs, index.entry_start)[children]
    outside = np.flatnonzero(
        ~((lows[rows] <= child_lows) & (child_highs <= highs[rows])).all(axis=1)
    )
    if len(outside):
        row = rows[outside[0]]
        return (
            f"directory row {row} does not contain the bounds of node slot "
            f"{index.entry_child[row]}"
        )
    return None


def _tree_shape_fault(index: ColumnarIndex) -> Optional[str]:
    """Why ``index``'s node slots are not one balanced tree, or None.

    The frontiers expand one tree level at a time
    (:func:`~repro.engine.executor.expand`), so a loaded snapshot must have
    the shape every freeze lays out: each directory row leads to a later
    slot, every slot but the root is the child of exactly one directory
    row, no directory slot is empty, and every child sits one level below
    its parent (:func:`~repro.engine.columnar.slot_levels`, computed here
    without filling the index's cache).  Vectorised over the directory
    rows; runs after :func:`_entry_rows_fault`, which has checked that
    each of them points at a slot.
    """
    directory = np.flatnonzero(~index.is_leaf)
    rows, owners = expand_segments(index.entry_start[directory], index.entry_count[directory])
    parents, children = directory[owners], index.entry_child[rows]
    back = np.flatnonzero(children <= parents)
    if len(back):
        at = back[0]
        return f"directory row {rows[at]} points back at node slot {children[at]}"
    parent_rows = np.bincount(children, minlength=len(index.is_leaf))
    stray = np.flatnonzero(parent_rows[1:] != 1) + 1
    if len(stray):
        at = stray[0]
        return f"node slot {at} is the child of {parent_rows[at]} directory rows, not one"
    empty = directory[index.entry_count[directory] == 0]
    if len(empty):
        return f"directory slot {empty[0]} is empty"
    levels = slot_levels(index.is_leaf, index.entry_start, index.entry_child)
    uneven = np.flatnonzero(levels[children] != levels[parents] - 1)
    if len(uneven):
        at = uneven[0]
        return (
            f"node slot {children[at]} (level {levels[children[at]]}) is not one level "
            f"below its parent, node slot {parents[at]} (level {levels[parents[at]]})"
        )
    return None


def save_snapshot(index: ColumnarIndex, directory: Union[str, Path]) -> Path:
    """Persist ``index`` into ``directory`` (created if needed).

    Every array lands in its own ``.npy`` file inside a content-addressed
    generation subdirectory; ``manifest.json`` records the format
    version, dims, per-array dtype/shape, the tree record, the
    generation (``data_dir``), and a content fingerprint.  Object
    rectangles are not written a second time: they are the leaf rows of
    ``entry_lows`` / ``entry_highs``, and an index laid out otherwise
    (:func:`_leaf_rows_fault`) raises ``ValueError`` here rather than
    :class:`SnapshotFormatError` at every later load.

    The save is crash-atomic: array files are written into a fresh
    generation directory (never the one a loadable committed manifest
    points at) and fsynced, the manifest is fsynced and
    ``os.replace``\\ d into place as the single commit point, and the
    parent directory is fsynced so the rename itself is durable.  A kill
    at any byte offset of this sequence leaves the directory loading the
    previous snapshot; after the rename it loads the new one.  Old
    generations are removed only after the commit.  Re-saving a snapshot
    whose fingerprint and tree record already match the committed
    manifest is a no-op when every array file of that generation opens
    as the manifest describes it (the bytes on disk are already the
    requested state); a torn or missing one is written again, into the
    generation the manifest names, which did not load before.  A
    snapshot without a tree record (one assembled by hand) raises
    ``ValueError``.
    Returns the directory path.
    """
    object_oids = np.ascontiguousarray(index.object_oids(), dtype=np.int64)
    fault = _leaf_rows_fault(index, len(object_oids))
    if fault is None and index.tree_record is None:
        fault = "it has no tree record"
    if fault is not None:
        raise ValueError(f"cannot save {index!r}: {fault}")

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {name: getattr(index, name) for name in _INDEX_ARRAYS}
    arrays["object_oids"] = object_oids

    fingerprint = _fingerprint(arrays)
    generation = f"g{fingerprint[:12]}"

    # Idempotent re-save: when the committed manifest already records this
    # exact content (and its generation's files open as it says), writing
    # again would overwrite the very bytes a committed manifest points at — skip.
    try:
        committed = read_manifest(directory)
    except SnapshotFormatError:
        committed = {}  # nothing committed, or nothing this format can keep
    if (
        committed.get("fingerprint") == fingerprint
        and committed.get("data_dir") == generation
        and committed.get("tree") == index.tree_record
        and _generation_opens(directory / generation, committed["arrays"])
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
        "tree": _tree_json(index.tree_record),
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


def _tree_json(record: TreeRecord) -> dict:
    """``record`` as the manifest's ``tree`` object: its fields by name."""
    fields = dataclasses.asdict(record)
    space = record.hilbert_space
    fields["hilbert_space"] = None if space is None else [list(space.low), list(space.high)]
    return fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_tree(
    spec, dims: int, malformed: Callable[[str], SnapshotFormatError]
) -> TreeRecord:
    """The manifest's ``tree`` object as a :class:`TreeRecord`, every field checked."""

    def field(block, where: str, name: str, ok: Callable[[object], bool], what: str):
        if not isinstance(block, dict):
            raise malformed(f"records {where} as {block!r}, not an object")
        value = block.get(name)
        if not ok(value):
            raise malformed(f"records {where}.{name} {value!r}, not {what}")
        return value

    def at_least(least: int) -> Callable[[object], bool]:
        return lambda value: _is_int(value) and value >= least

    def bounds(value) -> bool:
        return (
            isinstance(value, list)
            and len(value) == 2
            and all(
                isinstance(bound, list) and len(bound) == dims and all(map(_is_number, bound))
                for bound in value
            )
        )

    variant = field(spec, "tree", "variant", VARIANT_NAMES.__contains__, f"one of {VARIANT_NAMES}")
    max_entries = field(spec, "tree", "max_entries", at_least(2), "an integer of at least 2")
    half = max_entries // 2
    min_entries = field(
        spec, "tree", "min_entries",
        lambda value: at_least(1)(value) and value <= half, f"an integer in [1, {half}]",
    )
    next_id = field(spec, "tree", "next_id", at_least(1), "a positive integer")
    clipping = spec.get("clipping")
    if clipping is not None:
        clipping = ClippingConfig(
            method=field(
                clipping, "tree.clipping", "method",
                VALID_METHODS.__contains__, f"one of {VALID_METHODS}",
            ),
            k=field(
                clipping, "tree.clipping", "k",
                lambda value: value is None or at_least(0)(value),
                "null or an integer of at least 0",
            ),
            tau=float(field(
                clipping, "tree.clipping", "tau",
                lambda value: _is_number(value) and 0.0 <= value < 1.0, "a number in [0, 1)",
            )),
        )
    is_hilbert = variant == "hilbert"
    bits = field(
        spec, "tree", "hilbert_bits",
        lambda value: at_least(1)(value) if is_hilbert else value is None,
        "a positive integer" if is_hilbert else f"null for a {variant} tree",
    )
    space = field(
        spec, "tree", "hilbert_space",
        lambda value: value is None or (is_hilbert and bounds(value)),
        f"null or two lists of {dims} numbers" if is_hilbert else f"null for a {variant} tree",
    )
    if space is not None:
        try:
            space = Rect(*space)
        except ValueError as exc:
            raise malformed(f"records tree.hilbert_space {space!r}: {exc}")
    return TreeRecord(variant, max_entries, min_entries, next_id, clipping, bits, space)


def read_manifest(directory: Union[str, Path]) -> dict:
    """Parse and check a snapshot directory's manifest.

    The one place manifest content is trusted from: everything
    :func:`load_snapshot` later indexes, converts or joins onto a path is
    type- and range-checked here, and every failure is a
    :class:`SnapshotFormatError`.  The ``tree`` object comes back as the
    :class:`~repro.engine.columnar.TreeRecord` it describes.
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
    for key in ("dims", "arrays", "data_dir", "tree"):
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
    manifest["tree"] = _parse_tree(manifest["tree"], dims, malformed)
    return manifest


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


def _generation_opens(data_path: Path, specs: Dict[str, dict]) -> bool:
    """True when every array file in ``data_path`` opens with its manifest dtype and shape."""
    try:
        for name in _ARRAYS:
            _load_array(data_path, name, specs[name], mmap=True)
    except SnapshotFormatError:
        return False
    return True


def load_snapshot(directory: Union[str, Path], mmap: bool = True) -> ColumnarIndex:
    """Open the snapshot saved in ``directory``.

    ``mmap=True`` maps every array read-only straight off disk — the OS
    pages data in on first touch, and concurrent processes share one
    physical copy.  Loading itself reads every entry row once, to check
    it (:func:`_entry_rows_fault`), and every directory row once more for
    the tree's shape (:func:`_tree_shape_fault`): linear in the entries,
    not in the metadata.  ``mmap=False`` reads the arrays
    into RAM (useful when the snapshot directory is about to disappear,
    e.g. tests using temp dirs that outlive the view).

    Raises :class:`SnapshotFormatError` on a missing/corrupt manifest, a
    format-version mismatch, any array whose dtype/shape disagrees with
    the manifest, arrays whose leaf rows are not the objects'
    (:func:`_leaf_rows_fault`), an entry row that is not ``low <= high``
    or a directory row that does not contain its child's bounds
    (:func:`_entry_rows_fault`), node slots that are not one balanced tree
    (:func:`_tree_shape_fault`), or a tree record the arrays contradict:
    a next node id not above every node id, clip points without a clip
    method.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    data_path = directory / manifest["data_dir"]
    arrays = {
        name: _load_array(data_path, name, manifest["arrays"][name], mmap)
        for name in _ARRAYS
    }
    oids = arrays.pop("object_oids")
    # The objects' rectangles are the trailing rows of the entry columns.
    first = len(arrays["entry_lows"]) - len(oids)
    record = manifest["tree"]
    snapshot = ColumnarIndex(
        source=None,
        dims=manifest["dims"],
        objects=LazyObjectList(
            oids, arrays["entry_lows"][first:], arrays["entry_highs"][first:]
        ),
        source_version=None,
        tree_record=record,
        **arrays,
    )
    fault = (
        _leaf_rows_fault(snapshot, len(oids))
        or _entry_rows_fault(snapshot)
        or _tree_shape_fault(snapshot)
    )
    largest_id = int(snapshot.node_ids.max(initial=-1))
    if fault is None and record.next_id <= largest_id:
        fault = f"its next node id {record.next_id} is not above node id {largest_id}"
    if fault is None and record.clipping is None and snapshot.has_clips:
        fault = "it holds clip points but records no clip method"
    if fault is not None:
        raise SnapshotFormatError(f"snapshot at {directory} is inconsistent: {fault}")
    return snapshot
