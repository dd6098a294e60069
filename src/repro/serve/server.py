"""The coalescing async serving loop over a live :class:`SnapshotManager`.

Concurrent range/kNN/join/write requests are admitted synchronously
(token bucket — over-capacity requests get an explicit ``shed`` response
instead of joining an unbounded queue), coalesced per kind into
micro-batches behind the execution lane, and answered by one function,
:meth:`CoalescingServer._answer`, through whichever *backend* the
server's state selects:

* normally the live :class:`~repro.engine.delta.SnapshotManager` (base
  snapshot merged with the pending overlay);
* degraded, the frozen base :class:`~repro.engine.columnar.
  ColumnarIndex` alone, as it is, with ``stale=True`` stamped on every
  answer that may miss pending writes.

Both expose the same ``range_query_batch`` / ``knn_batch`` calls and are
accepted by :func:`~repro.engine.delta.overlay_join`, so the answering
code does not know which one it holds.

The robustness kernel wraps every batch execution:

* **deadlines** — each request carries a :class:`~repro.serve.resilience.
  Deadline`; expired requests are answered ``deadline`` (never silently
  served late), checked both once the batch holds the lane and before
  delivery;
* **retries** — transient faults (injected chaos, an I/O error, a raced
  compaction) are absorbed by :class:`~repro.serve.resilience.
  RetryPolicy` with exponential backoff and deterministic seeded jitter;
* **circuit breaker** — consecutive failures trip it open, and open
  batches are served degraded instead of failing hard: queries go to the
  frozen base, writes keep landing in the overlay, compaction is refused.

One execution lane: every batch execution — normal or degraded — and
every step of the background compaction takes the same ``asyncio.Lock``
(``_execute_gate``), so at any moment one thread at most is doing engine
work.  The lane is also the only clock batches form by: a queue's
batcher takes its first request and queues for the lane; once it holds
the lane it takes whatever else of its kind is already waiting, up to
``max_batch``.  A request that finds the lane idle runs at once, and
every request that arrived while the lane was busy shares the next turn
— none waits out an idle window.  The compaction takes the lane one
:meth:`~repro.engine.delta.SnapshotManager.compact_step` per turn and
one last turn for the swap (:meth:`CoalescingServer._run_compaction`);
the lock wakes its waiters first-in first-out, so no request waits on
more than one step plus one round of the other queues' batches.  A
compaction thread running *beside* the batches would hold the
interpreter for a whole switch interval each time a batch's NumPy call
gave it up.  A write that meets the fold in flight applies at once and
the manager keeps it across the swap; a ``compact`` request runs the
fold to its swap within its own turn, then folds what came after.

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import CompactionInProgressError, SnapshotManager
from repro.engine.delta import overlay_join
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import check_join_algorithm
from repro.serve.faults import BATCH_FAULT, COMPACTION, REQUEST_LATENCY, TransientFault
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

#: The payload type of each kind that takes one object.
_PAYLOAD_TYPES = {"range": Rect, "insert": SpatialObject, "delete": SpatialObject}


def _knn_payload(payload) -> Tuple[Tuple[float, ...], int]:
    """A kNN request's ``(point, k)`` with the point as a tuple, or ``ValueError``."""
    try:
        point, k = payload
        point = tuple(point)
    except (TypeError, ValueError):
        raise ValueError(f"a kNN request's payload is a (point, k) pair, got {payload!r}") from None
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"a kNN request needs an integer k >= 1, got {k!r}")
    if not all(isinstance(c, numbers.Real) for c in point):
        raise ValueError(f"a kNN point is a sequence of real numbers, got {point!r}")
    if any(c != c for c in point):
        raise ValueError(f"NaN coordinate in kNN point {point}")
    return point, k


@dataclass
class Request:
    """One client request.

    ``payload`` by kind: ``range`` → a :class:`~repro.geometry.rect.Rect`;
    ``knn`` → ``(point, k)``; ``join`` → a dict with ``algorithm`` plus
    ``probes`` (INLJ) or ``other`` (STT); ``insert``/``delete`` → a
    :class:`~repro.geometry.objects.SpatialObject`; ``compact`` → None.
    An unknown kind, a range or write payload of another type, a kNN
    payload that is not a ``(point, k)`` pair, a kNN point that is not a
    sequence of real numbers or has a NaN coordinate (±inf is fine), a
    ``k`` that is not an integer ≥ 1, an unknown join algorithm, a join
    missing the input its algorithm needs, or a NaN ``deadline_s`` is a
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
        deadline = self.deadline_s
        if deadline is not None and not (isinstance(deadline, numbers.Real) and deadline == deadline):
            raise ValueError(f"deadline_s is a number of seconds or None, got {deadline!r}")
        expected = _PAYLOAD_TYPES.get(self.kind)
        if expected is not None and not isinstance(self.payload, expected):
            raise ValueError(
                f"{self.kind} request payload must be a {expected.__name__}, "
                f"got {type(self.payload).__name__}"
            )
        if self.kind == "knn":
            self.payload = _knn_payload(self.payload)
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
        return cls("knn", (point, k), deadline_s)

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
    ``queue_s`` is the wall time from submission until the request's
    batch took the execution lane (None if it never did), so
    ``latency_s - queue_s`` is the time its turn took.
    """

    status: str  # "ok" | "shed" | "deadline" | "error"
    value: Any = None
    stale: bool = False
    degraded: bool = False
    retries: int = 0
    error: Optional[str] = None
    latency_s: Optional[float] = None
    epoch: Optional[int] = None
    queue_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServeConfig:
    """Tunables for :class:`CoalescingServer` (defaults favour tests).

    No batching window: a batch is whatever of its kind waits when it
    takes the execution lane, at most ``max_batch``.  A value that would
    silently misbehave (see ``_CONFIG_RULES``) is a ``ValueError``.
    """

    # No effect: batches form behind the lane.  perf/workloads.py still
    # passes it; it goes once ROADMAP item 1 drops it there.
    batch_window: float = 0.0
    max_batch: int = 64
    default_deadline: float = 5.0
    admission_rate: Optional[float] = None  # requests/second; None = admit all
    admission_burst: int = 64
    retry_max_attempts: int = 5
    retry_base_delay: float = 0.002
    retry_max_delay: float = 0.05
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 0.05
    compact_threshold: Optional[int] = None  # pending ops before background compact
    workers: int = 1  # only 1: perf/workloads.py still passes it (ROADMAP items 1 and 7)

    def __post_init__(self):
        if self.workers != 1:
            raise ValueError(
                "the server builds no worker pool; for batches large enough to "
                "win, construct a repro.engine.ParallelExecutor and query it directly"
            )
        for name, rule, holds in _CONFIG_RULES:  # NaN fails every rule
            value = getattr(self, name)
            if not holds(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 1


#: ``(field, rule, check)`` per checked :class:`ServeConfig` field.
_CONFIG_RULES = (
    ("max_batch", "an integer >= 1", _is_count),
    ("default_deadline", "> 0 seconds (inf allowed)", lambda v: v > 0),
    ("admission_rate", "> 0 requests/s or None", lambda v: v is None or v > 0),
    ("admission_burst", "an integer >= 1", _is_count),
    ("retry_max_attempts", "an integer >= 1", _is_count),
    ("breaker_failure_threshold", "an integer >= 1", _is_count),
    ("retry_base_delay", ">= 0 seconds", lambda v: v >= 0),
    ("retry_max_delay", "finite and >= 0 seconds", lambda v: 0 <= v < float("inf")),
    ("breaker_cooldown", ">= 0 seconds", lambda v: v >= 0),
    ("compact_threshold", ">= 1 or None", lambda v: v is None or v >= 1),
    ("batch_window", "finite and >= 0", lambda v: 0 <= v < float("inf")),
)


class _Pending:
    """An admitted request waiting for (or undergoing) execution."""

    __slots__ = ("request", "future", "deadline", "issued_wall", "lane_wall", "outcome")

    def __init__(self, request: Request, future, deadline: Deadline, issued_wall: float):
        self.request = request
        #: The caller's future; None once :meth:`CoalescingServer._resolve` counted it.
        self.future = future
        self.deadline = deadline
        self.issued_wall = issued_wall
        #: When its batch took the execution lane (``time.perf_counter``).
        self.lane_wall: Optional[float] = None
        #: ``(status, value, stale)`` once a join or write has been answered:
        #: a retried turn runs the items still without one, no write twice.
        self.outcome: Optional[Tuple[str, Any, bool]] = None


_STOP = object()

#: The counter of each status an admitted request can end with (a shed
#: request is counted at admission and never admitted).
_OUTCOME_COUNTERS = {"ok": "completed", "deadline": "deadline_exceeded", "error": "errors"}

#: queue routing: range and kNN batch per kind; joins and writes share one
#: queue whose turns answer item by item.
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
    latencies are always measured on the wall clock.  ``fault_plan``
    drives batch faults and latency spikes, and is the manager's
    compaction hook from :meth:`start` to :meth:`stop`.

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
        if isinstance(source, SnapshotManager):
            self.manager = source
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
        )
        self._queues: Dict[str, asyncio.Queue] = {}
        self._batchers: List[asyncio.Task] = []
        self._compaction_task: Optional[asyncio.Task] = None
        #: The one execution lane: whoever holds it — a batch, or one step
        #: of the background compaction — is the only engine work running.
        self._execute_gate: Optional[asyncio.Lock] = None
        #: ``report()["snapshot_swaps"]`` counts the manager's swaps from here.
        self._first_epoch = self.manager.epoch
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
        if self.fault_plan is not None:
            self.manager.compaction_fault_hook = self.fault_plan.hook(COMPACTION)
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
        if self.fault_plan is not None:
            self.manager.compaction_fault_hook = None
        # Anything still queued gets an explicit error, never silence.
        for queue in self._queues.values():
            left = [queue.get_nowait() for _ in range(queue.qsize())]
            self._fail([item for item in left if item is not _STOP], "server stopped")

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
        seconds = self.config.default_deadline if request.deadline_s is None else request.deadline_s
        item = _Pending(request, future, Deadline(seconds, self.clock), time.perf_counter())
        # Bad input is the caller's error, not a backend failure: answer it
        # here, so it can neither fail its batch-mates nor trip the breaker.
        mismatch = self._dims_mismatch(request)
        if mismatch is not None:
            self._fail([item], mismatch)
        else:
            self._queues[_QUEUE_FOR_KIND[request.kind]].put_nowait(item)
        return future

    def _dims_mismatch(self, request: Request) -> Optional[str]:
        """Why a range/kNN/write payload does not fit the index, or None."""
        kind, payload = request.kind, request.payload
        if kind == "knn":
            got = len(payload[0])
        elif kind in _PAYLOAD_TYPES:
            got = payload.dims
        else:
            return None
        expected = self.manager.snapshot.dims
        if got == expected:
            return None
        return f"{kind} payload has {got} dims, the index expects {expected}"

    async def submit(self, request: Request) -> Response:
        """Submit and await the response."""
        return await self.submit_nowait(request)

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    async def _batcher(self, name: str) -> None:
        """Take a request, queue for the lane, then batch what waits behind it.

        Whatever of this kind arrived while the lane was busy — up to
        ``max_batch`` — shares the turn; nothing waits for more to come.
        A request cancelled or expired while it queued is never executed.
        """
        queue = self._queues[name]
        while True:
            item = await queue.get()
            if item is _STOP:
                return
            # Injected latency spike: the batch stalls before it queues.
            plan = self.fault_plan
            spec = plan.fires(REQUEST_LATENCY) if plan is not None else None
            if spec is not None and spec.delay > 0:
                await asyncio.sleep(spec.delay)
            assert self._execute_gate is not None
            async with self._execute_gate:
                batch = [item]
                while len(batch) < self.config.max_batch and not queue.empty():
                    batch.append(queue.get_nowait())
                # Nothing is queued after _STOP: it can only come last.
                stopping = batch[-1] is _STOP
                if stopping:
                    batch.pop()
                self.metrics.incr("batches")
                self.metrics.incr("coalesced", len(batch) - 1)
                now = time.perf_counter()
                live: List[_Pending] = []
                for item in batch:
                    item.lane_wall = now
                    if item.future.cancelled():
                        self._fail([item], "cancelled before execution")
                    elif item.deadline.expired():
                        self._fail([item], "deadline exceeded before execution", "deadline")
                    else:
                        live.append(item)
                if live:
                    try:
                        await self._dispatch(name, live)
                    except Exception as exc:  # pragma: no cover - defensive backstop
                        self._fail(live, f"dispatch failed: {exc!r}")
            if stopping:
                return

    async def _dispatch(self, kind: str, live: List[_Pending]) -> None:
        """One turn: retries, the breaker, the degraded path; holds the lane."""
        if self.manager.compacting and any(item.request.kind == "compact" for item in live):
            await self._swap()  # a compact folds what follows the fold in flight
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
                self.breaker.record_failure()
                attempts += 1
                if attempts >= self.retry.max_attempts:
                    degraded_reason = f"retries exhausted: {exc!r}"
                    break
                self.metrics.incr("retries")
                await asyncio.sleep(next(delays))
            except Exception as exc:
                self.breaker.record_failure()
                self._fail(live, repr(exc), retries=attempts)
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
                self._fail(live, f"degraded path failed: {exc!r}", retries=attempts, degraded=True)
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
                error = value if isinstance(value, str) else degraded_reason
                value = None
            fields = dict(stale=stale, degraded=degraded, retries=attempts, error=error, epoch=epoch)
            self._resolve(item, Response(status=status, value=value, **fields))

    def _fail(self, items: List[_Pending], error: str, status: str = "error", **fields) -> None:
        for item in items:
            self._resolve(item, Response(status=status, error=error, **fields))

    def _resolve(self, item: _Pending, response: Response) -> None:
        """Deliver an admitted request's response: the one place its outcome is counted.

        Each request is counted once; one its caller cancelled counts
        ``cancelled`` and gets no response.
        """
        future, item.future = item.future, None
        if future is None:
            return  # counted already
        if future.cancelled():
            self.metrics.incr("cancelled")
            return
        if response.status == "ok" and item.deadline.expired():
            response = Response(
                status="deadline",
                error="deadline exceeded before delivery",
                retries=response.retries,
                degraded=response.degraded,
            )
        response.latency_s = time.perf_counter() - item.issued_wall
        if item.lane_wall is not None:
            response.queue_s = item.lane_wall - item.issued_wall
        self.metrics.incr(_OUTCOME_COUNTERS[response.status])
        if response.status == "ok":
            self.metrics.observe_latency(response.latency_s, response.queue_s)
        future.set_result(response)

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
        return await asyncio.to_thread(self._answer, kind, items, self.manager, stale=False)

    def _execute_degraded(self, kind: str, items: List[_Pending]):
        """Degraded service: the frozen base alone, staleness stamped.

        The breaker is open (or retries ran dry): bypass the overlay merge
        and answer straight off the base snapshot as it is, never
        re-frozen; every answer that may be missing pending writes
        carries ``stale=True``.
        """
        snapshot, overlay = self.manager.view
        stale = bool(snapshot.is_stale or not overlay.is_empty)
        return self._answer(kind, items, snapshot, stale=stale)

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
            results = backend.knn_batch([item.request.payload[0] for item in items], max(ks))
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
        never the failing component), during a fold too, and are never
        stale.  Only the live manager compacts: behind the frozen base a
        ``compact`` is refused.
        """
        manager = self.manager
        if request.kind == "join":
            spec = request.payload
            algorithm = spec["algorithm"]
            left = spec["probes"] if algorithm == "inlj" else spec["other"]
            return ("ok", overlay_join(left, backend, algorithm=algorithm), stale)
        if request.kind == "insert":
            manager.insert(request.payload)
            return ("ok", True, False)
        if request.kind == "delete":
            return ("ok", manager.delete(request.payload), False)
        if backend is not manager:
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
        """Background compaction: one ``compact_step`` a turn, then ``compact()``.

        Each turn queues for the gate behind the batches already waiting,
        so a busy server runs one step per round of batches, which read
        the old view meanwhile.  A ``compact`` turn that runs the swap first
        ends the task.  A crash counts as a breaker failure
        and a ``compaction_failures`` tick; the delta stays buffered, so
        the next trigger retries the whole fold.
        """
        assert self._execute_gate is not None
        manager, started, more = self.manager, False, True
        while more is not None:
            async with self._execute_gate:
                if started and not manager.compacting:
                    return  # a compact turn ran the swap
                if not more:
                    return await self._swap()
                more = await self._compaction_call(manager.compact_step)
                started = manager.compacting

    async def _swap(self) -> None:
        """Run the fold in flight, or a new one, to its swap; called holding the gate."""
        if await self._compaction_call(self.manager.compact) is not None:
            self.metrics.incr("compactions")

    async def _compaction_call(self, call) -> Any:
        """``call()`` in a thread; None when it failed (counted) or met another compaction."""
        try:
            return await asyncio.to_thread(call)
        except CompactionInProgressError:
            return None  # a compaction run from outside the server holds the manager
        except Exception:
            self.metrics.incr("compaction_failures")
            self.breaker.record_failure()
            return None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Metrics snapshot, plus the counts their owners keep.

        ``breaker_opens`` is the breaker's own count of trips,
        ``snapshot_swaps`` the manager's epochs since this server was
        built (a compaction run beside the server included) and
        ``faults_injected`` the fault plan's fired total.
        """
        snap = self.metrics.snapshot()
        plan = self.fault_plan
        snap["breaker_opens"] = self.breaker.opened_count
        snap["snapshot_swaps"] = self.manager.epoch - self._first_epoch
        snap["faults_injected"] = plan.total_fired() if plan is not None else 0
        snap["breaker_state"] = self.breaker.state
        snap["epoch"] = self.manager.epoch
        return snap
