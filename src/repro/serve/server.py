"""The coalescing async serving loop over a live :class:`SnapshotManager`.

Concurrent range/kNN/join/write requests are admitted synchronously
(token bucket — over-capacity requests get an explicit ``shed`` response
instead of joining an unbounded queue), coalesced per kind into
micro-batches inside a small time window, and answered by one function,
:meth:`CoalescingServer._answer`, through whichever *backend* the
server's state selects:

* normally the live :class:`~repro.engine.delta.SnapshotManager` (base
  snapshot merged with the pending overlay);
* degraded, the frozen base :class:`~repro.engine.columnar.
  ColumnarIndex` alone, under the ``resolve_stale(..., "serve")``
  policy, with ``stale=True`` stamped on every answer that may miss
  pending writes.

Both expose the same ``range_query_batch`` / ``knn_batch`` calls and are
accepted by :func:`~repro.engine.delta.overlay_join`, so the answering
code does not know which one it holds.

The robustness kernel wraps every batch execution:

* **deadlines** — each request carries a :class:`~repro.serve.resilience.
  Deadline`; expired requests are answered ``deadline`` (never silently
  served late), checked both before execution and before delivery;
* **retries** — transient faults (injected chaos, an I/O error, a raced
  compaction) are absorbed by :class:`~repro.serve.resilience.
  RetryPolicy` with exponential backoff and deterministic seeded jitter;
* **circuit breaker** — consecutive failures trip it open, and open
  batches are served degraded instead of failing hard: batch windows
  shrink (``degraded_batch_window``), queries go to the frozen base,
  writes keep landing in the overlay, compaction is refused.

One execution lane: every batch execution — normal or degraded — and
every slice of the background compaction takes the same ``asyncio.Lock``
(``_execute_gate``), so at any moment one thread at most is doing engine
work.  The compaction is cut into slices by the manager's ``pause`` hook
and gives the lane up between them (:meth:`CoalescingServer.
_run_compaction`); the lock wakes its waiters first-in first-out, so no
request waits on more than one slice plus one round of the other queues'
batches.  A compaction thread running *beside* the batches would hold the
interpreter for a whole switch interval each time a batch's NumPy call
gave it up.  A ``delete`` or ``compact`` request that meets the
compaction lets it finish within its own turn, then applies.

Determinism: admission is decided *synchronously at submit time* in
issue order, so with a :class:`~repro.serve.resilience.LogicalClock`
advanced only by the load generator, shed counts are a pure function of
the request sequence — likewise retry and breaker-trip counts under a
seeded plan (batch executions are single-flighted through one gate, so
a fault burst is absorbed by one batch's retry loop).  That is what lets
``repro bench compare serve`` gate exact counters while p50/p99/QPS
(measured on the wall clock) merely report.
"""

from __future__ import annotations

import asyncio
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import CompactionInProgressError, SnapshotManager, resolve_stale
from repro.engine.delta import overlay_join
from repro.join import check_join_algorithm
from repro.serve.faults import BATCH_FAULT, REQUEST_LATENCY, InjectedFault, TransientFault
from repro.serve.metrics import ServerMetrics
from repro.serve.resilience import (
    CircuitBreaker,
    Clock,
    Deadline,
    MonotonicClock,
    RetryPolicy,
    TokenBucket,
)

#: Exceptions the retry policy absorbs (everything else is a hard error).
RETRYABLE_EXCEPTIONS = (TransientFault, CompactionInProgressError, TimeoutError, OSError)

#: Request kinds the server understands.
KINDS = ("range", "knn", "join", "insert", "delete", "compact")

#: Kinds that answer from the index (eligible for stale/degraded serving).
QUERY_KINDS = ("range", "knn", "join")


@dataclass
class Request:
    """One client request.

    ``payload`` by kind: ``range`` → a :class:`~repro.geometry.rect.Rect`;
    ``knn`` → ``(point, k)``; ``join`` → a dict with ``algorithm`` plus
    ``probes`` (INLJ) or ``other`` (STT); ``insert``/``delete`` → a
    :class:`~repro.geometry.objects.SpatialObject`; ``compact`` → None.
    An unknown kind, a kNN ``k`` that is not an integer ≥ 1, an unknown
    join algorithm, or a join missing the input its algorithm needs is a
    ``ValueError`` here, at construction, never a queued request.
    ``deadline_s`` overrides the server's default deadline (None → use
    the default; ``float("inf")`` effectively disables it).
    """

    kind: str
    payload: Any = None
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; known: {KINDS}")
        if self.kind == "knn":
            _, k = self.payload
            if not isinstance(k, numbers.Integral) or k < 1:
                raise ValueError(f"a kNN request needs an integer k >= 1, got {k!r}")
        if self.kind == "join":
            if not isinstance(self.payload, dict):
                raise ValueError("a join request's payload is a dict; see Request.join")
            algorithm = self.payload.get("algorithm")
            check_join_algorithm(algorithm)
            side = "probes" if algorithm == "inlj" else "other"
            if self.payload.get(side) is None:
                raise ValueError(f"{algorithm.upper()} join request needs `{side}`")

    # convenience constructors --------------------------------------------
    @classmethod
    def range(cls, rect, deadline_s: Optional[float] = None) -> "Request":
        return cls("range", rect, deadline_s)

    @classmethod
    def knn(cls, point, k: int, deadline_s: Optional[float] = None) -> "Request":
        return cls("knn", (tuple(point), k), deadline_s)

    @classmethod
    def join(
        cls,
        probes=None,
        other=None,
        algorithm: str = "inlj",
        deadline_s: Optional[float] = None,
    ) -> "Request":
        return cls(
            "join",
            {"probes": probes, "other": other, "algorithm": algorithm},
            deadline_s,
        )

    @classmethod
    def insert(cls, obj, deadline_s: Optional[float] = None) -> "Request":
        return cls("insert", obj, deadline_s)

    @classmethod
    def delete(cls, obj, deadline_s: Optional[float] = None) -> "Request":
        return cls("delete", obj, deadline_s)

    @classmethod
    def compact(cls, deadline_s: Optional[float] = None) -> "Request":
        return cls("compact", None, deadline_s)


@dataclass
class Response:
    """What every request resolves to — success, shed, expiry, or error.

    ``stale=True`` marks an answer served from the frozen base under the
    breaker's serve-stale policy when pending writes may be missing from
    it; ``degraded`` marks any answer produced on the degraded path.
    """

    status: str  # "ok" | "shed" | "deadline" | "error"
    value: Any = None
    stale: bool = False
    degraded: bool = False
    retries: int = 0
    error: Optional[str] = None
    latency_s: Optional[float] = None
    epoch: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServeConfig:
    """Tunables for :class:`CoalescingServer` (defaults favour tests)."""

    batch_window: float = 0.002  # seconds to linger collecting a batch
    degraded_batch_window: float = 0.0005  # shrunk window while the breaker is open
    max_batch: int = 64
    default_deadline: float = 5.0
    admission_rate: Optional[float] = None  # requests/second; None = admit all
    admission_burst: int = 64
    retry_max_attempts: int = 5
    retry_base_delay: float = 0.002
    retry_max_delay: float = 0.05
    retry_jitter: float = 0.5
    retry_seed: int = 0
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 0.05
    compact_threshold: Optional[int] = None  # pending ops before background compact
    workers: int = 1  # only 1: perf/workloads.py still passes it (see ROADMAP item 3)

    def __post_init__(self):
        if self.workers != 1:
            raise ValueError(
                "the server builds no worker pool; for batches large enough to "
                "win, construct a repro.engine.ParallelExecutor and query it directly"
            )


class _Pending:
    """An admitted request waiting for (or undergoing) execution."""

    __slots__ = ("request", "future", "deadline", "issued_wall", "outcome")

    def __init__(self, request: Request, future, deadline: Deadline, issued_wall: float):
        self.request = request
        self.future = future
        self.deadline = deadline
        self.issued_wall = issued_wall
        #: ``(status, value, stale)`` once a join or write has been answered:
        #: a retried turn runs the items still without one, no write twice.
        self.outcome: Optional[Tuple[str, Any, bool]] = None


_STOP = object()

#: queue routing: range and kNN coalesce inside a window; joins and writes
#: share one queue that takes whatever is already waiting into one turn.
_QUEUE_FOR_KIND = {
    "range": "range",
    "knn": "knn",
    "join": "other",
    "insert": "other",
    "delete": "other",
    "compact": "other",
}


class CoalescingServer:
    """Coalesce concurrent requests into batches over a snapshot manager.

    ``source`` may be a :class:`~repro.engine.delta.SnapshotManager` (used
    live — writes through the server and writes from outside both work) or
    any index/tree a manager can wrap.  ``clock`` drives admission,
    deadlines, and the breaker (inject a
    :class:`~repro.serve.resilience.LogicalClock` for determinism);
    latencies are always measured on the wall clock.  ``fault_plan`` is
    installed on :meth:`start` (snapshot-load hook, compaction hook,
    batch faults, latency spikes) and uninstalled on :meth:`stop`.

    Lifecycle::

        server = CoalescingServer(manager, config)
        await server.start()
        response = await server.submit_nowait(Request.range(rect))
        await server.stop()
    """

    def __init__(
        self,
        source,
        config: Optional[ServeConfig] = None,
        *,
        fault_plan=None,
        clock: Optional[Clock] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else MonotonicClock()
        if getattr(source, "is_snapshot_manager", False):
            self.manager: SnapshotManager = source
        else:
            self.manager = SnapshotManager(source)
        self.fault_plan = fault_plan
        self.metrics = ServerMetrics()
        self.admission = TokenBucket(
            self.config.admission_rate, self.config.admission_burst, clock=self.clock
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_failure_threshold,
            self.config.breaker_cooldown,
            clock=self.clock,
        )
        self.retry = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay=self.config.retry_base_delay,
            max_delay=self.config.retry_max_delay,
            jitter=self.config.retry_jitter,
            seed=self.config.retry_seed,
        )
        self._queues: Dict[str, asyncio.Queue] = {}
        self._batchers: List[asyncio.Task] = []
        self._compaction_task: Optional[asyncio.Task] = None
        #: The one execution lane: whoever holds it — a batch, or one slice
        #: of the background compaction — is the only engine work running.
        self._execute_gate: Optional[asyncio.Lock] = None
        #: True from the background compaction's first slice to its last.
        self._compacting = False
        #: Set by a turn that needs that compaction over: it stops pausing.
        self._drain_compaction = False
        self._last_epoch = self.manager.epoch
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "CoalescingServer":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._execute_gate = asyncio.Lock()
        self._queues = {name: asyncio.Queue() for name in ("range", "knn", "other")}
        plan = self.fault_plan
        if plan is not None:
            plan.install()
            self.manager.compaction_fault_hook = plan.hook("delta.compaction")
        self._running = True
        self._batchers = [
            asyncio.ensure_future(self._batcher(name)) for name in self._queues
        ]
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for queue in self._queues.values():
            queue.put_nowait(_STOP)
        await asyncio.gather(*self._batchers, return_exceptions=True)
        self._batchers = []
        if self._compaction_task is not None:
            await asyncio.gather(self._compaction_task, return_exceptions=True)
            self._compaction_task = None
        plan = self.fault_plan
        if plan is not None:
            plan.uninstall()
            self.manager.compaction_fault_hook = None
        # Anything still queued gets an explicit error, never silence.
        for queue in self._queues.values():
            while not queue.empty():
                item = queue.get_nowait()
                if item is not _STOP:
                    self._resolve(item, Response(status="error", error="server stopped"))

    async def __aenter__(self) -> "CoalescingServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission (synchronous admission — deterministic in issue order)
    # ------------------------------------------------------------------

    def submit_nowait(self, request: Request) -> "asyncio.Future[Response]":
        """Admit-or-shed ``request`` immediately; resolve later.

        Must be called from the event-loop thread.  Admission control
        runs synchronously here, so with a logical clock the shed/admit
        decision depends only on the submission sequence.
        """
        if self._loop is None:
            raise RuntimeError("server not started")
        future: asyncio.Future = self._loop.create_future()
        self.metrics.incr("offered")
        if not self._running:
            future.set_result(Response(status="error", error="server not running"))
            return future
        if not self.admission.try_acquire():
            self.metrics.incr("shed")
            future.set_result(
                Response(status="shed", error="overloaded: admission bucket empty")
            )
            return future
        self.metrics.incr("admitted")
        # Bad input is the caller's error, not a backend failure: answer it
        # here, so it can neither fail its batch-mates nor trip the breaker.
        mismatch = self._dims_mismatch(request)
        if mismatch is not None:
            self.metrics.incr("errors")
            future.set_result(Response(status="error", error=mismatch))
            return future
        seconds = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline
        )
        item = _Pending(
            request,
            future,
            Deadline(seconds, self.clock),
            issued_wall=time.perf_counter(),
        )
        self._queues[_QUEUE_FOR_KIND[request.kind]].put_nowait(item)
        return future

    def _dims_mismatch(self, request: Request) -> Optional[str]:
        """Why a range/kNN/write payload does not fit the index, or None."""
        kind, payload = request.kind, request.payload
        if kind == "knn":
            got = len(payload[0])
        elif kind in ("range", "insert", "delete"):
            got = getattr(payload, "dims", None)
        else:
            return None
        expected = self.manager.snapshot.dims
        if got == expected:
            return None
        return f"{kind} payload has {got} dims, the index expects {expected}"

    async def submit(self, request: Request) -> Response:
        """Submit and await the response."""
        return await self.submit_nowait(request)

    # async conveniences ------------------------------------------------
    async def range_query(self, rect, **kwargs) -> Response:
        return await self.submit(Request.range(rect, **kwargs))

    async def knn(self, point, k: int, **kwargs) -> Response:
        return await self.submit(Request.knn(point, k, **kwargs))

    async def join(self, **kwargs) -> Response:
        return await self.submit(Request.join(**kwargs))

    async def insert(self, obj, **kwargs) -> Response:
        return await self.submit(Request.insert(obj, **kwargs))

    async def delete(self, obj, **kwargs) -> Response:
        return await self.submit(Request.delete(obj, **kwargs))

    async def compact(self, **kwargs) -> Response:
        return await self.submit(Request.compact(**kwargs))

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    async def _batcher(self, name: str) -> None:
        queue = self._queues[name]
        coalesce = name in ("range", "knn")
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _STOP:
                return
            batch = [item]
            if coalesce:
                window = (
                    self.config.batch_window
                    if self.breaker.allow()
                    else self.config.degraded_batch_window
                )
                while len(batch) < self.config.max_batch:
                    try:
                        nxt = await asyncio.wait_for(queue.get(), timeout=window)
                    except asyncio.TimeoutError:
                        break
                    if nxt is _STOP:
                        stopping = True
                        break
                    batch.append(nxt)
            else:
                # Whatever is waiting already shares this turn: served one
                # item a turn, a write queues behind a compaction slice and
                # a round of read batches per item ahead of it.
                while len(batch) < self.config.max_batch and not queue.empty():
                    nxt = queue.get_nowait()
                    if nxt is _STOP:
                        stopping = True
                        break
                    batch.append(nxt)
            try:
                await self._dispatch(name, batch)
            except Exception as exc:  # pragma: no cover - defensive backstop
                for pending in batch:
                    self._resolve(
                        pending, Response(status="error", error=f"dispatch failed: {exc!r}")
                    )

    async def _dispatch(self, kind: str, batch: List[_Pending]) -> None:
        self.metrics.incr("batches")
        if len(batch) > 1:
            self.metrics.incr("coalesced", len(batch) - 1)

        # Injected latency spike: stall the whole batch (slow-request chaos).
        plan = self.fault_plan
        if plan is not None:
            spec = plan.fires(REQUEST_LATENCY)
            if spec is not None and spec.delay > 0:
                await asyncio.sleep(spec.delay)

        live: List[_Pending] = []
        for item in batch:
            if item.future.cancelled():
                continue
            if item.deadline.expired():
                self.metrics.incr("deadline_exceeded")
                self._resolve(
                    item,
                    Response(
                        status="deadline", error="deadline exceeded before execution"
                    ),
                )
            else:
                live.append(item)
        if not live:
            return

        assert self._execute_gate is not None
        async with self._execute_gate:
            if kind == "other" and any(
                item.request.kind in ("delete", "compact") for item in live
            ):
                await self._finish_compaction()
            await self._dispatch_locked(kind, live)

    async def _dispatch_locked(self, kind: str, live: List[_Pending]) -> None:
        attempts = 0
        delays = self.retry.delays()
        degraded_reason: Optional[str] = None
        values: Optional[List[Tuple[str, Any, bool]]] = None
        while True:
            if not self.breaker.allow():
                degraded_reason = "circuit breaker open"
                break
            try:
                values = await self._execute(kind, live)
            except RETRYABLE_EXCEPTIONS as exc:
                before = self.breaker.opened_count
                self.breaker.record_failure()
                if self.breaker.opened_count > before:
                    self.metrics.incr("breaker_opens")
                attempts += 1
                if attempts >= self.retry.max_attempts:
                    degraded_reason = f"retries exhausted: {exc!r}"
                    break
                self.metrics.incr("retries")
                await asyncio.sleep(delays[attempts - 1])
            except Exception as exc:
                before = self.breaker.opened_count
                self.breaker.record_failure()
                if self.breaker.opened_count > before:
                    self.metrics.incr("breaker_opens")
                self.metrics.incr("errors", len(live))
                for item in live:
                    self._resolve(
                        item,
                        Response(status="error", error=repr(exc), retries=attempts),
                    )
                return
            else:
                self.breaker.record_success()
                break

        degraded = degraded_reason is not None
        if degraded:
            self.metrics.incr("degraded_batches")
            try:
                values = await asyncio.to_thread(self._execute_degraded, kind, live)
            except Exception as exc:
                self.metrics.incr("errors", len(live))
                for item in live:
                    self._resolve(
                        item,
                        Response(
                            status="error",
                            error=f"degraded path failed: {exc!r}",
                            retries=attempts,
                            degraded=True,
                        ),
                    )
                return

        if kind == "other" and not degraded:
            self._maybe_background_compact()
        epoch = self.manager.epoch
        assert values is not None
        for item, (status, value, stale) in zip(live, values):
            if stale:
                self.metrics.incr("stale_served")
            error = None
            if status == "error":
                self.metrics.incr("errors")
                error = value if isinstance(value, str) else degraded_reason
                value = None
            self._resolve(
                item,
                Response(
                    status=status,
                    value=value,
                    stale=stale,
                    degraded=degraded,
                    retries=attempts,
                    error=error,
                    epoch=epoch,
                ),
            )

    def _resolve(self, item: _Pending, response: Response) -> None:
        if item.future.done():
            return
        if response.status == "ok" and item.deadline.expired():
            self.metrics.incr("deadline_exceeded")
            response = Response(
                status="deadline",
                error="deadline exceeded before delivery",
                retries=response.retries,
                degraded=response.degraded,
            )
        response.latency_s = time.perf_counter() - item.issued_wall
        if response.status == "ok":
            self.metrics.incr("completed")
            self.metrics.observe_latency(response.latency_s)
        item.future.set_result(response)

    # ------------------------------------------------------------------
    # execution: pick a backend, answer through it
    # ------------------------------------------------------------------

    async def _execute(self, kind: str, items: List[_Pending]):
        """Normal service: the live manager."""
        plan = self.fault_plan
        if plan is not None:
            # One consultation per execution attempt, in the event loop
            # (single-flighted), so a seeded burst maps to exact retry
            # and breaker counts.
            plan.raise_if_fires(BATCH_FAULT)

        def work():
            epoch = self.manager.epoch
            if epoch != self._last_epoch:
                self.metrics.incr("snapshot_swaps", epoch - self._last_epoch)
                self._last_epoch = epoch
            return self._answer(kind, items, self.manager, stale=False)

        return await asyncio.to_thread(work)

    def _execute_degraded(self, kind: str, items: List[_Pending]):
        """Degraded service: the frozen base alone, staleness stamped.

        The breaker is open (or retries ran dry): bypass the overlay merge
        and answer straight off the base snapshot under the ``"serve"``
        stale policy; every answer that may be missing pending writes
        carries ``stale=True``.
        """
        snapshot, overlay = self.manager.view
        stale = bool(snapshot.is_stale or not overlay.is_empty)
        return self._answer(kind, items, resolve_stale(snapshot, "serve"), stale=stale)

    def _answer(
        self, kind: str, items: List[_Pending], backend, stale: bool
    ) -> List[Tuple[str, Any, bool]]:
        """``(status, value, stale)`` per item, queries through ``backend``.

        ``backend`` is the live manager or the frozen base; queries are
        stamped ``stale`` as given.  A range or kNN batch is one engine
        call.  Joins and writes (the ``other`` queue) are answered item by
        item and each keeps its own outcome: an exception is that item's
        error, except that a retryable one from the live manager
        propagates so the turn is retried — and the retry, or the degraded
        path after it, runs only the items not answered yet.
        """
        if kind == "range":
            results = backend.range_query_batch([item.request.payload for item in items])
            return [("ok", hits, stale) for hits in results]
        if kind == "knn":
            ks = [item.request.payload[1] for item in items]
            results = backend.knn_batch(
                [item.request.payload[0] for item in items], max(ks)
            )
            return [("ok", hits[:k], stale) for hits, k in zip(results, ks)]
        live = backend is self.manager
        for item in items:
            if item.outcome is None:
                try:
                    item.outcome = self._answer_one(item.request, backend, stale)
                except Exception as exc:
                    if live and isinstance(exc, RETRYABLE_EXCEPTIONS):
                        raise
                    item.outcome = ("error", repr(exc), False)
        return [item.outcome for item in items]

    def _answer_one(self, request: Request, backend, stale: bool) -> Tuple[str, Any, bool]:
        """One join or write.

        Writes always go to the live manager's overlay (it is cheap and
        never the failing component) and are never stale.  Only the live
        manager compacts: behind the frozen base a ``compact`` is refused
        and a delete that races a compaction run from outside the server
        is answered with an error instead of a retry.
        """
        manager = self.manager
        live = backend is manager
        if request.kind == "join":
            spec = request.payload
            algorithm = spec["algorithm"]
            left = spec["probes"] if algorithm == "inlj" else spec["other"]
            return ("ok", overlay_join(left, backend, algorithm=algorithm), stale)
        if request.kind == "insert":
            manager.insert(request.payload)
            return ("ok", True, False)
        if request.kind == "delete":
            try:
                return ("ok", manager.delete(request.payload), False)
            except CompactionInProgressError:
                if live:
                    raise  # the retry loop waits out the swap
                return ("error", "delete raced a compaction; retry", False)
        if not live:
            return ("error", "compaction refused while degraded", False)
        try:
            stats = manager.compact()
        except BaseException:
            self.metrics.incr("compaction_failures")
            raise
        self.metrics.incr("compactions")
        return ("ok", stats, False)

    # ------------------------------------------------------------------
    # background compaction plumbing
    # ------------------------------------------------------------------

    def _maybe_background_compact(self) -> None:
        threshold = self.config.compact_threshold
        if threshold is None or self.manager.pending_ops < threshold:
            return
        if self._compaction_task is not None and not self._compaction_task.done():
            return
        self._compaction_task = asyncio.ensure_future(self._run_compaction())

    async def _run_compaction(self) -> None:
        """Background compaction, one slice a turn on the execution lane.

        Holds the gate while ``compact`` works in its thread; between
        slices the thread's ``pause`` hook (:meth:`_compaction_pause`)
        releases the gate and queues for it again, behind every batch
        already waiting — ``asyncio.Lock`` wakes waiters first-in
        first-out.  So an idle server compacts at full speed, a busy one
        runs one slice per round of batches, no request waits on more than
        one slice plus one round, and the fold never shares the
        interpreter with a batch: a thread blocked in ``pause`` does not
        contend for the GIL.  Batches between slices read the old view;
        the swap is the last slice's.  It is one ``compact()`` call in one
        thread, so whatever follows that call through ``contextvars``
        sees one compaction.

        A crash — injected or real — counts as a breaker failure and a
        ``compaction_failures`` tick; the delta stays buffered, so the
        next trigger retries the whole fold.
        """
        assert self._execute_gate is not None
        async with self._execute_gate:
            before = self.manager.epoch
            self._compacting = True
            try:
                await asyncio.to_thread(self.manager.compact, pause=self._compaction_pause)
            except CompactionInProgressError:
                return  # a compaction run from outside the server beat us to it
            except Exception:
                self.metrics.incr("compaction_failures")
                opened = self.breaker.opened_count
                self.breaker.record_failure()
                if self.breaker.opened_count > opened:
                    self.metrics.incr("breaker_opens")
                return
            finally:
                self._compacting = False
                self._drain_compaction = False
            self.metrics.incr("compactions")
            swapped = self.manager.epoch - before
            if swapped > 0:
                self.metrics.incr("snapshot_swaps", swapped)
                self._last_epoch = self.manager.epoch

    def _compaction_pause(self) -> None:
        """``compact``'s pause hook: called on its thread, between slices."""
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(self._yield_lane(), self._loop).result()

    async def _yield_lane(self) -> None:
        if not self._drain_compaction:
            self._execute_gate.release()
            await self._execute_gate.acquire()

    async def _finish_compaction(self) -> None:
        """Let the background compaction run to its end; called holding the gate.

        For a turn that cannot run beside it (a ``delete`` or ``compact``
        the manager would refuse): the compaction, paused between two
        slices, gets the gate back, stops pausing and swaps; the turn
        then takes the gate again and applies.
        """
        while self._compacting:
            self._drain_compaction = True
            self._execute_gate.release()
            try:
                await asyncio.wait([self._compaction_task])
            finally:
                await self._execute_gate.acquire()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Metrics snapshot, with fault-plan accounting folded in."""
        snap = self.metrics.snapshot()
        plan = self.fault_plan
        snap["faults_injected"] = plan.total_fired() if plan is not None else 0
        snap["breaker_state"] = self.breaker.state
        snap["epoch"] = self.manager.epoch
        return snap
