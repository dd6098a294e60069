"""Columnar batch engine: vectorized querying *and* construction.

Querying: freeze any R-tree variant (plain or clipped) into contiguous
NumPy arrays (:class:`ColumnarIndex`) and answer whole query batches
through vectorized kernels — what ``execute_workload`` runs when it is
handed a ``ColumnarIndex``, and what every experiment runs after
``context.snapshot(...)``.

Construction: :func:`build_columnar_str` STR-packs objects straight into
a :class:`ColumnarIndex` with no intermediate Python nodes, and
:func:`clip_nodes_batch` computes the paper's Algorithm 1 for a batch of
nodes given as entry-row arrays — the one path by which
``ClippedRTree.wrap`` / ``clip_all`` (the rows of the tree's freeze) and
``reclip_nodes`` (the dirty nodes' rows, stacked) build clip points.

Updates: :class:`SnapshotManager` + :class:`DeltaOverlay` absorb
inserts/deletes on top of a frozen snapshot and fold them in via
compaction with dirty-node-only re-clipping
(:func:`reclip_nodes_for_results`) and a freeze that takes the same
dirty nodes' rows and clip points from the re-clip and copies the rest.

Joins: :func:`inlj_batch` and :func:`stt_batch` run both spatial-join
strategies over snapshots with scalar-identical pairs and I/O
accounting; :func:`overlay_join` runs them over any batched input —
a ``ColumnarIndex``, or a ``SnapshotManager`` with its pending deltas —
and is what ``execute_join`` hands every batched join to.

Persistence + parallelism: :func:`save_snapshot`/:func:`load_snapshot`
persist a snapshot as memory-mappable ``.npy`` files (near-instant
zero-copy loads shared across processes) and :class:`ParallelExecutor`
shards range-query batches across a worker pool over such a shared
snapshot — constructed by the caller, kept alive across batches, and
handed to ``execute_workload`` like any other backend.  kNN and both
joins run in one process.

See :mod:`repro.engine.columnar` for the snapshot layout,
:mod:`repro.engine.kernels` / :mod:`repro.engine.clip_kernels` for the
scalar↔array predicate correspondences, and
``tests/test_backend_conformance.py`` / ``tests/test_build_differential.py``
for the harnesses pinning batch ≡ scalar.
"""

from repro.engine.builder import build_columnar_str
from repro.engine.bulk_clip import clip_nodes_batch
from repro.engine.columnar import ColumnarIndex
from repro.engine.delta import (
    CompactionInProgressError,
    DeltaOverlay,
    SnapshotManager,
    overlay_join,
)
from repro.engine.executor import knn_batch, range_query_batch
from repro.engine.incremental_clip import reclip_nodes_for_results
from repro.engine.join_exec import inlj_batch, stt_batch
from repro.engine.parallel import ParallelExecutor, default_workers
from repro.engine.snapshot_io import (
    FORMAT_VERSION,
    SnapshotFormatError,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "FORMAT_VERSION",
    "ColumnarIndex",
    "CompactionInProgressError",
    "DeltaOverlay",
    "ParallelExecutor",
    "SnapshotManager",
    "SnapshotFormatError",
    "build_columnar_str",
    "clip_nodes_batch",
    "default_workers",
    "inlj_batch",
    "knn_batch",
    "load_snapshot",
    "overlay_join",
    "range_query_batch",
    "reclip_nodes_for_results",
    "save_snapshot",
    "stt_batch",
]
