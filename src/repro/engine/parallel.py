"""Multi-process sharded batch execution over shared mmap snapshots.

:class:`ParallelExecutor` fans the batch kernels out across a
``ProcessPoolExecutor``: range/kNN batches are sharded by query
partition, INLJ by outer-object partition, and STT by partitioning the
pair frontier once it is wide enough.  Workers never receive an index —
they open the snapshot *by path* (:func:`repro.engine.snapshot_io.
load_snapshot` with ``mmap=True``) and cache it per process, so the only
things crossing the process boundary are small query arrays going out
and flat hit-index arrays coming back; the snapshot itself is shared
copy-free through the page cache.

Merging is deterministic and worker-count independent:

* shards are contiguous partitions, merged back in shard order and then
  stably grouped by global query (or shipped-pair) index, so result
  lists are *identical* — element for element — whatever the worker
  count or shard size;
* ``IOStats`` are per-query (per-subtree, for STT) sums, so the merged
  counters equal the single-process engine's exactly.  For STT, workers
  report per-shipped-pair emission totals which the coordinator feeds
  back into its own pair ledger, settling contributing-leaf accounting
  exactly as a single-process run would.

``tests/test_parallel_exec.py`` pins parallel ≡ columnar ≡ scalar across
workers ∈ {1, 2, 4}.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.executor import (
    _point_array,
    _query_arrays,
    gather_knn_hits,
    gather_range_hits,
    materialize_knn_hits,
    materialize_range_hits,
)
from repro.engine.join_exec import (
    _PairLedger,
    _stt_rounds,
    materialize_stt_pairs,
    stt_root_frontier,
    stt_shard,
)
from repro.engine.snapshot_io import load_snapshot, save_snapshot
from repro.geometry.objects import SpatialObject
from repro.join.result import JoinResult
from repro.storage.stats import IOStats

#: STT ships its frontier to the pool once it holds this many pairs.  A
#: fixed constant (never derived from the worker count) so the shipped
#: frontier — and therefore merged ordering and accounting — is identical
#: for every pool size.
STT_SHIP_THRESHOLD = 64

#: Shards per worker: more chunks than workers, so an expensive shard does
#: not leave the rest of the pool idle.
CHUNKS_PER_WORKER = 4

#: Fault-injection site consulted once per shard submission when a
#: ``fault_plan`` is attached (a literal, not an import: the engine never
#: depends on :mod:`repro.serve`; any object with ``fires(site)`` works).
WORKER_KILL_SITE = "parallel.worker_kill"

_StatsTriple = Tuple[int, int, int]

#: Per-process cache of snapshots opened by path (populated in workers).
_WORKER_SNAPSHOTS = {}


def _open_worker_snapshot(path: str) -> ColumnarIndex:
    snapshot = _WORKER_SNAPSHOTS.get(path)
    if snapshot is None:
        snapshot = load_snapshot(path, mmap=True)
        _WORKER_SNAPSHOTS[path] = snapshot
    return snapshot


def _stats_triple(stats: IOStats) -> _StatsTriple:
    return (
        stats.leaf_accesses,
        stats.internal_accesses,
        stats.contributing_leaf_accesses,
    )


def _add_stats_triple(stats: Optional[IOStats], triple: _StatsTriple) -> None:
    if stats is not None:
        stats.leaf_accesses += triple[0]
        stats.internal_accesses += triple[1]
        stats.contributing_leaf_accesses += triple[2]


def _range_task(
    path: str, q_lows: np.ndarray, q_highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, _StatsTriple]:
    """One range shard: shard-local query rows against the whole snapshot."""
    snapshot = _open_worker_snapshot(path)
    stats = IOStats()
    hit_q, hit_obj = gather_range_hits(snapshot, q_lows, q_highs, stats=stats)
    return hit_q, hit_obj, _stats_triple(stats)


def _knn_task(
    path: str, points: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _StatsTriple]:
    """One kNN shard: the batched search, results as flat index arrays."""
    snapshot = _open_worker_snapshot(path)
    stats = IOStats()
    counts, dists, objects = gather_knn_hits(snapshot, points, k, stats)
    return counts, dists, objects, _stats_triple(stats)


def _stt_task(
    left_path: str,
    right_path: str,
    nodes_a: np.ndarray,
    nodes_b: np.ndarray,
    collect_pairs: bool,
):
    """One STT shard: finish the join under the shipped frontier pairs."""
    left = _open_worker_snapshot(left_path)
    right = _open_worker_snapshot(right_path)
    return stt_shard(left, right, nodes_a, nodes_b, collect_pairs)


def _kill_worker_task() -> None:  # pragma: no cover - dies by design
    """Chaos task: hard-kill the worker process mid-batch.

    ``os._exit`` (not ``sys.exit``) so no cleanup runs — exactly what a
    SIGKILLed or OOM-killed worker looks like to the coordinator: the
    pool breaks with :class:`BrokenProcessPool`.
    """
    os._exit(17)


def default_workers() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ParallelExecutor:
    """Shard batch queries and joins across a pool of snapshot workers.

    ``snapshot`` is either an in-RAM :class:`ColumnarIndex` — saved once
    into ``snapshot_dir`` (a temp directory by default, removed on
    :meth:`close`) so workers can mmap it — or the path of a directory
    produced by :func:`~repro.engine.snapshot_io.save_snapshot`, opened
    zero-copy in the coordinator too.

    The pool is lazy (created on first use), forked where the platform
    allows so workers inherit the loaded interpreter state, and every
    task wait is bounded by ``task_timeout`` seconds — a hung worker
    surfaces as a ``TimeoutError`` instead of a stalled job.  Use as a
    context manager, or call :meth:`close` when done.

    Self-healing: a worker death (OOM kill, segfault, chaos injection)
    surfaces as :class:`BrokenProcessPool`; the executor discards the
    broken pool, rebuilds it up to ``pool_rebuild_retries`` times, and
    re-runs *only the unfinished shards* — shards that completed before
    the break keep their results, so the merged output stays bit-identical
    to a serial run.  When rebuilds are exhausted the pending shards run
    serially in the coordinator (same task functions, same snapshot
    path), degrading throughput but never correctness.
    ``pool_rebuilds``/``serial_fallbacks`` count the recoveries.

    ``fault_plan`` (chaos testing) is any object with a
    ``fires(site) -> Optional[spec]`` method; it is consulted once per
    shard submission at :data:`WORKER_KILL_SITE`, and a firing spec
    replaces that shard's task with a worker-killing one.
    """

    def __init__(
        self,
        snapshot: Union[ColumnarIndex, str, Path],
        workers: Optional[int] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
        task_timeout: Optional[float] = 600.0,
        pool_rebuild_retries: int = 2,
        fault_plan=None,
    ):
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.task_timeout = task_timeout
        self.pool_rebuild_retries = max(0, int(pool_rebuild_retries))
        self.fault_plan = fault_plan
        self.pool_rebuilds = 0
        self.serial_fallbacks = 0
        self._owned_dirs: List[Path] = []
        self._temp_snapshots: Dict[int, Tuple[ColumnarIndex, Path]] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self.snapshot, self.path = self._resolve(snapshot, snapshot_dir)

    def _resolve(
        self,
        snapshot: Union[ColumnarIndex, str, Path],
        snapshot_dir: Optional[Union[str, Path]],
    ) -> Tuple[ColumnarIndex, Path]:
        if isinstance(snapshot, ColumnarIndex):
            if snapshot_dir is None:
                return snapshot, self._temp_snapshot(snapshot)
            directory = Path(snapshot_dir)
            save_snapshot(snapshot, directory)
            return snapshot, directory
        directory = Path(snapshot)
        return load_snapshot(directory, mmap=True), directory

    def _temp_snapshot(self, index: ColumnarIndex) -> Path:
        """The temp directory ``index`` is saved in, written on first sight.

        Keyed by object identity (snapshots are immutable); the entry
        keeps ``index`` alive so its ``id`` cannot be reused before
        :meth:`close` removes the directory.
        """
        held = self._temp_snapshots.get(id(index))
        if held is None:
            directory = Path(tempfile.mkdtemp(prefix="repro-snapshot-"))
            self._owned_dirs.append(directory)
            save_snapshot(index, directory)
            held = self._temp_snapshots[id(index)] = (index, directory)
        return held[1]

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def _chunk_bounds(self, n_items: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, end)`` shards covering ``range(n_items)``."""
        n_chunks = min(n_items, self.workers * CHUNKS_PER_WORKER)
        if n_chunks <= 0:
            return []
        edges = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
        return [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(n_chunks)
            if edges[i] < edges[i + 1]
        ]

    def _discard_pool(self) -> None:
        """Drop a (presumed broken) pool without waiting on its corpses."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit(self, pool: ProcessPoolExecutor, fn, args):
        plan = self.fault_plan
        if plan is not None and plan.fires(WORKER_KILL_SITE) is not None:
            return pool.submit(_kill_worker_task)
        return pool.submit(fn, *args)

    def _run_shards(self, fn, args_per_shard) -> List:
        """Run one task per shard; results in shard order, self-healing.

        On :class:`BrokenProcessPool` the broken pool is discarded and
        only the shards without a result are resubmitted (results
        completed before the break are kept — recovery output is
        bit-identical to an undisturbed run).  After
        ``pool_rebuild_retries`` rebuilds, the remaining shards run
        serially in this process via the same task functions.
        """
        shard_args = list(args_per_shard)
        results: List = [None] * len(shard_args)
        done = [False] * len(shard_args)
        pending = list(range(len(shard_args)))
        rebuilds_left = self.pool_rebuild_retries
        while pending:
            futures: List[Tuple[int, object]] = []
            broken = False
            try:
                pool = self._ensure_pool()
                for index in pending:
                    futures.append((index, self._submit(pool, fn, shard_args[index])))
            except BrokenProcessPool:
                broken = True
            for index, future in futures:
                try:
                    results[index] = future.result(timeout=self.task_timeout)
                    done[index] = True
                except BrokenProcessPool:
                    broken = True
            pending = [index for index in pending if not done[index]]
            if not pending:
                break
            if not broken:  # pragma: no cover - future.result raised non-pool error
                raise RuntimeError("shards pending without a broken pool")
            self._discard_pool()
            if rebuilds_left > 0:
                rebuilds_left -= 1
                self.pool_rebuilds += 1
                continue
            # Rebuild budget exhausted: finish the unfinished shards
            # in-process.  The task functions only need the snapshot
            # path, which the coordinator can open like any worker.
            self.serial_fallbacks += 1
            for index in pending:
                results[index] = fn(*shard_args[index])
                done[index] = True
            pending = []
        return results

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query_batch(
        self, rects: Sequence, stats: Optional[IOStats] = None
    ) -> List[List[SpatialObject]]:
        """Sharded :func:`repro.engine.executor.range_query_batch`.

        Identical result lists and ``IOStats`` to the single-process
        engine, for any worker count.
        """
        rects = list(rects)
        if not rects:
            return []
        q_lows, q_highs = _query_arrays(self.snapshot, rects)
        all_q, all_obj = self._sharded_range_hits(q_lows, q_highs, stats)
        return materialize_range_hits(self.snapshot, len(rects), all_q, all_obj)

    def _sharded_range_hits(
        self, q_lows: np.ndarray, q_highs: np.ndarray, stats: Optional[IOStats]
    ) -> Tuple[np.ndarray, np.ndarray]:
        bounds = self._chunk_bounds(len(q_lows))
        path = str(self.path)
        q_parts: List[np.ndarray] = []
        obj_parts: List[np.ndarray] = []
        shard_args = [(path, q_lows[s:e], q_highs[s:e]) for s, e in bounds]
        for (start, _), (hit_q, hit_obj, triple) in zip(
            bounds, self._run_shards(_range_task, shard_args)
        ):
            q_parts.append(hit_q + start)
            obj_parts.append(hit_obj)
            _add_stats_triple(stats, triple)
        if not q_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(q_parts), np.concatenate(obj_parts)

    def knn_batch(
        self, points: Sequence, k: int, stats: Optional[IOStats] = None
    ) -> List[List[Tuple[float, SpatialObject]]]:
        """Sharded :func:`repro.engine.executor.knn_batch` (same contract)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        points = list(points)
        if not points:
            return []
        points = _point_array(self.snapshot, points)
        path = str(self.path)
        shard_args = [(path, points[s:e], k) for s, e in self._chunk_bounds(len(points))]
        counts, dists, objects, triples = zip(*self._run_shards(_knn_task, shard_args))
        for triple in triples:
            _add_stats_triple(stats, triple)
        return materialize_knn_hits(
            self.snapshot, np.concatenate(counts), np.concatenate(dists), np.concatenate(objects)
        )

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def inlj_batch(self, outer_objects, collect_pairs: bool = True) -> JoinResult:
        """Sharded :func:`repro.engine.join_exec.inlj_batch` over this snapshot.

        The outer side is partitioned; every worker probes the whole
        frozen inner snapshot.  Pairs, ``pair_count`` and ``inner_stats``
        match the single-process batch join exactly.
        """
        outer_objects = list(outer_objects)
        result = JoinResult()
        if not outer_objects:
            return result
        q_lows = np.array([o.rect.low for o in outer_objects], dtype=np.float64)
        q_highs = np.array([o.rect.high for o in outer_objects], dtype=np.float64)
        if q_lows.shape[1] != self.snapshot.dims:
            raise ValueError(
                f"outer objects have {q_lows.shape[1]} dims, snapshot expects "
                f"{self.snapshot.dims}"
            )
        all_q, all_obj = self._sharded_range_hits(q_lows, q_highs, result.inner_stats)
        if collect_pairs and len(all_q):
            order = np.argsort(all_q, kind="stable")
            get = self.snapshot.objects.__getitem__
            result.pairs.extend(
                (outer_objects[q], get(o))
                for q, o in zip(all_q[order].tolist(), all_obj[order].tolist())
            )
        result.pair_count = int(len(all_q))
        return result

    def stt_batch(
        self,
        other: Union["ParallelExecutor", ColumnarIndex, str, Path],
        collect_pairs: bool = True,
    ) -> JoinResult:
        """Sharded :func:`repro.engine.join_exec.stt_batch` against ``other``.

        The coordinator runs the first rounds itself until the pair
        frontier holds :data:`STT_SHIP_THRESHOLD` pairs, then partitions
        the frontier across the pool; each worker finishes the join under
        its shipped pairs and reports hits (tagged by shipped pair),
        per-pair emission totals, and access counts.  Emissions are fed
        back into the coordinator's ledger, so ``pair_count`` and both
        sides' ``IOStats`` equal the single-process join; result pairs
        are merged shipped-pair-major (deterministic and worker-count
        independent, though ordered differently from the single-process
        round-major stream — compare as multisets against it).
        """
        if isinstance(other, ParallelExecutor):
            right, right_path = other.snapshot, other.path
        elif isinstance(other, ColumnarIndex):
            right, right_path = other, self._temp_snapshot(other)
        else:
            right_path = Path(other)
            right = load_snapshot(right_path, mmap=True)

        left = self.snapshot
        result = JoinResult()
        ledger = _PairLedger()
        frontier = stt_root_frontier(left, right, ledger)
        if frontier is None:
            return result

        collected: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        frontier = _stt_rounds(
            left,
            right,
            frontier,
            ledger,
            collected,
            collect_pairs,
            stop_len=STT_SHIP_THRESHOLD,
        )

        shipped_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if len(frontier):
            bounds = self._chunk_bounds(len(frontier))
            shard_args = [
                (
                    str(self.path),
                    str(right_path),
                    frontier.a[s:e],
                    frontier.b[s:e],
                    collect_pairs,
                )
                for s, e in bounds
            ]
            emissions = np.zeros(len(frontier), dtype=np.int64)
            pos_parts: List[np.ndarray] = []
            ha_parts: List[np.ndarray] = []
            hb_parts: List[np.ndarray] = []
            for (start, end), shard in zip(
                bounds, self._run_shards(_stt_task, shard_args)
            ):
                hits_a, hits_b, hit_roots, root_emissions, outer_t, inner_t = shard
                emissions[start:end] = root_emissions
                _add_stats_triple(result.outer_stats, outer_t)
                _add_stats_triple(result.inner_stats, inner_t)
                if len(hits_a):
                    pos_parts.append(hit_roots + start)
                    ha_parts.append(hits_a)
                    hb_parts.append(hits_b)
            ledger.record_emissions(frontier.pid, emissions)
            if pos_parts:
                pos = np.concatenate(pos_parts)
                order = np.argsort(pos, kind="stable")
                shipped_pairs = (
                    np.concatenate(ha_parts)[order],
                    np.concatenate(hb_parts)[order],
                )

        emitted = ledger.settle(result)
        result.pair_count = int(emitted[0]) if len(emitted) else 0
        if collect_pairs:
            chunks = [(a, b) for a, b, _ in collected]
            if shipped_pairs is not None:
                chunks.append(shipped_pairs)
            materialize_stt_pairs(result, left, right, chunks)
        return result

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and remove any temp snapshot directories.

        Idempotent, and safe on a half-constructed executor (``__init__``
        may raise before ``_pool``/``_owned_dirs`` exist) and during
        interpreter shutdown (module globals such as :mod:`shutil` may
        already be ``None``'d by the time ``__del__`` runs).
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        dirs = getattr(self, "_owned_dirs", None) or []
        self._owned_dirs = []
        self._temp_snapshots = {}
        rmtree = getattr(shutil, "rmtree", None) if shutil is not None else None
        if rmtree is not None:
            for directory in dirs:
                rmtree(directory, ignore_errors=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        # BaseException: at interpreter shutdown, arbitrarily torn-down
        # state can surface as anything (including SystemExit-ish
        # errors); a destructor must never propagate.
        try:
            self.close()
        except BaseException:
            pass

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, path={str(self.path)!r}, "
            f"objects={len(self.snapshot.objects)})"
        )
