"""Span recorder for the traced run, applied from outside the program.

Nothing under ``src/`` knows about tracing.  :data:`PATCH_TABLE` lists the
public callables at the layer boundaries; :meth:`Tracer.install` wraps
each of them for the duration of a traced run and :meth:`Tracer.uninstall`
restores the originals.  A span is ``{name, start, end, parent, trace_id,
phase, n, tag}``: parentage follows a ``contextvars`` stack (it survives
``asyncio.to_thread``, which copies the context), a span without a parent
opens a new trace id and its children inherit it, and spans accumulate in
memory until the run ends.

The span name is ``<layer>.<what>`` with ``layer`` the module name under
``src/repro`` that does the work, so a per-layer metric is a sum over the
spans of one name.  Self time is the span's duration minus the part of
that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=None)


def _first_len(args, kwargs, result) -> int:
    """Batch size: length of the first argument after ``self``/the index."""
    return len(args[1])


def _pending_ops(args, kwargs, result) -> int:
    """Writes buffered in the overlay when a managed read returns."""
    return int(args[0].pending_ops)


def _int_result(args, kwargs, result) -> int:
    return int(result)


#: ``(module, attribute path, span name, count fn)``.  An attribute
#: path with a dot names a method of a class in that module.  A callable
#: imported by name into a second module is listed once per import site,
#: because the importing module keeps its own reference.
PATCH_TABLE: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.datasets.base", "DatasetGenerator.generate", "datasets.generate", None),
    ("repro.rtree.str_bulk", "str_bulk_load", "rtree.str_build", None),
    ("repro.rtree.clipped", "ClippedRTree.wrap", "bulk_clip.clip", None),
    ("repro.engine.columnar", "ColumnarIndex.from_tree", "columnar.freeze", None),
    ("repro.engine.columnar", "ColumnarIndex.range_query_batch", "executor.range_batch", _first_len),
    ("repro.engine.columnar", "ColumnarIndex.knn_batch", "executor.knn_batch", _first_len),
    ("repro.engine.executor", "gather_range_hits", "executor.gather", None),
    ("repro.engine.join_exec", "gather_range_hits", "executor.gather", None),
    ("repro.engine.executor", "materialize_range_hits", "executor.materialize", None),
    ("repro.engine.parallel", "materialize_range_hits", "executor.materialize", None),
    ("repro.engine.builder", "build_columnar_str", "builder.str_pack", None),
    ("repro.engine.snapshot_io", "save_snapshot", "snapshot_io.save", None),
    ("repro.engine.snapshot_io", "load_snapshot", "snapshot_io.load", None),
    ("repro.engine.join_exec", "inlj_batch", "join_exec.inlj", None),
    ("repro.engine.join_exec", "stt_batch", "join_exec.stt", None),
    ("repro.engine.delta", "SnapshotManager.range_query_batch", "delta.range_batch", _pending_ops),
    ("repro.engine.delta", "SnapshotManager.knn_batch", "delta.knn_batch", _pending_ops),
    ("repro.engine.delta", "SnapshotManager.insert", "delta.insert", None),
    ("repro.engine.delta", "SnapshotManager.delete", "delta.delete", None),
    ("repro.engine.delta", "SnapshotManager.compact", "delta.compact", None),
    ("repro.engine.delta", "reclip_nodes_for_results", "incremental_clip.reclip", _int_result),
    ("repro.engine.parallel", "ParallelExecutor.range_query_batch", "parallel.range_batch", _first_len),
)

#: ``CoalescingServer.submit_nowait`` returns a future; its span ends when
#: the future resolves, so it is wrapped separately from the table above.
SERVER_MODULE, SERVER_METHOD, SERVER_SPAN = (
    "repro.serve.server",
    "CoalescingServer.submit_nowait",
    "server.request",
)


class Tracer:
    """Wraps the table's callables and collects their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> Dict[str, Any]:
        parent = _current.get()
        span_id = next(self._ids)
        return {
            "id": span_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "trace_id": span_id if parent is None else parent["trace_id"],
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "n": None,
            "tag": None,
        }

    def _wrap(self, fn: Callable, name: str, count) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                _current.reset(token)
                # list.append is atomic; spans arrive from the event-loop
                # thread, its to_thread workers and the compaction thread.
                self.spans.append(span)
            if count is not None:
                span["n"] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_submit(self, fn: Callable) -> Callable:
        def traced(server, request):
            span = self._open(SERVER_SPAN)
            span["tag"] = request.kind
            future = fn(server, request)

            def done(_future) -> None:
                span["end"] = time.perf_counter()
                self.spans.append(span)

            future.add_done_callback(done)
            return future

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        if self._restore:
            return
        for module_name, path, name, count in PATCH_TABLE:
            self._patch(
                module_name, path, lambda fn, name=name, count=count: self._wrap(fn, name, count)
            )
        self._patch(SERVER_MODULE, SERVER_METHOD, self._wrap_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id → duration minus the interval its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        duration = span["end"] - span["start"]
        kids = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
        ]
        out[span["id"]] = duration - covered([k for k in kids if k[1] > k[0]])
    return out
