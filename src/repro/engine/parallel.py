"""Multi-process sharded range batches over a shared mmap snapshot.

:class:`ParallelExecutor` fans range-query batches out across a
``ProcessPoolExecutor``, one contiguous query partition per task.
Workers never receive an index — they open the snapshot *by path*
(:func:`repro.engine.snapshot_io.load_snapshot` with ``mmap=True``) and
cache it per process, so the only things crossing the process boundary
are small query arrays going out and flat hit-index arrays coming back;
the snapshot itself is shared copy-free through the page cache.

Merging is deterministic and worker-count independent:

* shards are contiguous partitions, merged back in shard order and then
  stably grouped by global query index, so result lists are *identical*
  — element for element — whatever the worker count or shard size;
* ``IOStats`` are per-query sums, so the merged counters equal the
  single-process engine's exactly.

The pool answers range batches only.  kNN, INLJ and STT ran slower
pooled than serial at every size measured on a 2-core host, and had no
caller outside the tests, so they run in one process
(:mod:`repro.engine.executor`, :mod:`repro.engine.join_exec`).
``tests/test_parallel_exec.py`` pins parallel ≡ columnar across
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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.columnar import ColumnarIndex
from repro.engine.executor import gather_range_hits, materialize_range_hits
from repro.engine.kernels import stack_bounds
from repro.engine.snapshot_io import load_snapshot, save_snapshot
from repro.geometry.objects import SpatialObject
from repro.storage.stats import IOStats

#: Shards per worker: more chunks than workers, so an expensive shard does
#: not leave the rest of the pool idle.
CHUNKS_PER_WORKER = 4

#: Fault-injection site consulted once per shard submission when a
#: ``fault_plan`` is attached (a literal, not an import: the engine never
#: depends on :mod:`repro.serve`; any object with ``fires(site)`` works).
WORKER_KILL_SITE = "parallel.worker_kill"

#: Per-process cache of snapshots opened by path (populated in workers).
_WORKER_SNAPSHOTS = {}


def _open_worker_snapshot(path: str) -> ColumnarIndex:
    snapshot = _WORKER_SNAPSHOTS.get(path)
    if snapshot is None:
        snapshot = load_snapshot(path, mmap=True)
        _WORKER_SNAPSHOTS[path] = snapshot
    return snapshot


def _range_task(
    path: str, q_lows: np.ndarray, q_highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, IOStats]:
    """One range shard: shard-local query rows against the whole snapshot."""
    snapshot = _open_worker_snapshot(path)
    stats = IOStats()
    hit_q, hit_obj = gather_range_hits(snapshot, q_lows, q_highs, stats=stats)
    return hit_q, hit_obj, stats


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
    """Shard range-query batches across a pool of snapshot workers.

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
    serially in the coordinator (same task function, same snapshot
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
        self._owned_dir: Optional[Path] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        if isinstance(snapshot, ColumnarIndex):
            if snapshot_dir is None:
                snapshot_dir = self._owned_dir = Path(tempfile.mkdtemp(prefix="repro-snapshot-"))
            self.snapshot, self.path = snapshot, Path(snapshot_dir)
            save_snapshot(snapshot, self.path)
        else:
            self.path = Path(snapshot)
            self.snapshot = load_snapshot(self.path, mmap=True)

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
        serially in this process via the same task function.
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
            # in-process.  The task function only needs the snapshot
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
        engine, for any worker count.  Queries are checked against the
        snapshot's dimensionality before any worker is forked.
        """
        rects = list(rects)
        if not rects:
            return []
        q_lows, q_highs = stack_bounds(rects, self.snapshot.dims)
        bounds = self._chunk_bounds(len(rects))
        path = str(self.path)
        shards = self._run_shards(
            _range_task, [(path, q_lows[s:e], q_highs[s:e]) for s, e in bounds]
        )
        q_parts: List[np.ndarray] = []
        obj_parts: List[np.ndarray] = []
        for (start, _), (hit_q, hit_obj, shard_stats) in zip(bounds, shards):
            q_parts.append(hit_q + start)
            obj_parts.append(hit_obj)
            if stats is not None:
                stats.merge(shard_stats)
        return materialize_range_hits(
            self.snapshot, len(rects), np.concatenate(q_parts), np.concatenate(obj_parts)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and remove the temp snapshot directory.

        Idempotent, and safe on a half-constructed executor (``__init__``
        may raise before ``_pool``/``_owned_dir`` exist) and during
        interpreter shutdown (module globals such as :mod:`shutil` may
        already be ``None``'d by the time ``__del__`` runs).
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        owned = getattr(self, "_owned_dir", None)
        self._owned_dir = None
        rmtree = getattr(shutil, "rmtree", None) if shutil is not None else None
        if owned is not None and rmtree is not None:
            rmtree(owned, ignore_errors=True)

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
