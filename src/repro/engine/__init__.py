"""Columnar batch engine: vectorized querying *and* construction.

Querying: freeze any R-tree variant (plain or clipped) into contiguous
NumPy arrays (:class:`ColumnarIndex`) and answer whole query batches
through vectorized kernels — what ``execute_workload`` runs when it is
handed a ``ColumnarIndex``, and what every experiment runs after
``context.snapshot(...)``.

Construction: :func:`build_columnar_str` STR-packs objects straight into
a :class:`ColumnarIndex` with no intermediate Python nodes, and
:func:`bulk_clip` computes the paper's Algorithm 1 for whole tree levels
at once — the default path of ``ClippedRTree.clip_all`` / ``wrap``.

Updates: :class:`SnapshotManager` + :class:`DeltaOverlay` absorb
inserts/deletes on top of a frozen snapshot and fold them in via
compaction with dirty-node-only re-clipping
(:func:`reclip_nodes_for_results`).

Joins: :func:`inlj_batch` and :func:`stt_batch` run both spatial-join
strategies over snapshots with scalar-identical pairs and I/O
accounting — what ``execute_join`` runs on ``ColumnarIndex`` inputs;
:func:`overlay_join` adds the pending deltas of managed inputs.

Persistence + parallelism: :func:`save_snapshot`/:func:`load_snapshot`
persist a snapshot as memory-mappable ``.npy`` files (near-instant
zero-copy loads shared across processes) and :class:`ParallelExecutor`
shards batch queries and joins across a worker pool over such a shared
snapshot — constructed by the caller, kept alive across batches, and
handed to ``execute_workload`` / ``execute_join`` like any other backend.

See :mod:`repro.engine.columnar` for the snapshot layout,
:mod:`repro.engine.kernels` / :mod:`repro.engine.clip_kernels` for the
scalar↔array predicate correspondences, and
``tests/test_engine_differential.py`` / ``tests/test_build_differential.py``
for the harnesses pinning batch ≡ scalar.
"""

from repro.engine.builder import build_columnar_str
from repro.engine.bulk_clip import bulk_clip, clip_nodes_batch
from repro.engine.columnar import (
    STALE_POLICIES,
    ColumnarIndex,
    StaleSnapshotError,
    resolve_stale,
)
from repro.engine.delta import (
    CompactionInProgressError,
    DeltaOverlay,
    SnapshotManager,
    overlay_join,
)
from repro.engine.executor import knn_batch, range_query_batch
from repro.engine.incremental_clip import reclip_live_nodes, reclip_nodes_for_results
from repro.engine.join_exec import inlj_batch, stt_batch
from repro.engine.parallel import ParallelExecutor, default_workers
from repro.engine.snapshot_io import (
    FORMAT_VERSION,
    SnapshotFormatError,
    load_snapshot,
    save_snapshot,
    set_load_fault_hook,
)

__all__ = [
    "FORMAT_VERSION",
    "STALE_POLICIES",
    "ColumnarIndex",
    "CompactionInProgressError",
    "DeltaOverlay",
    "ParallelExecutor",
    "SnapshotManager",
    "SnapshotFormatError",
    "StaleSnapshotError",
    "build_columnar_str",
    "bulk_clip",
    "clip_nodes_batch",
    "default_workers",
    "inlj_batch",
    "knn_batch",
    "load_snapshot",
    "overlay_join",
    "range_query_batch",
    "reclip_live_nodes",
    "reclip_nodes_for_results",
    "resolve_stale",
    "save_snapshot",
    "set_load_fault_hook",
    "stt_batch",
]
