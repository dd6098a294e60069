"""Fault-tolerant online serving layer (ROADMAP item 1).

The package has four parts, composable but separately testable:

* :mod:`repro.serve.resilience` — the robustness kernel: injectable
  clocks, deadlines, retry-with-backoff-and-jitter, token-bucket
  admission control, and a circuit breaker;
* :mod:`repro.serve.faults` — deterministic seeded fault injection
  (:class:`FaultPlan`) threading through the worker pool, snapshot
  loads, compaction, and the serving loop itself;
* :mod:`repro.serve.server` — :class:`CoalescingServer`, the asyncio
  micro-batching loop over a live :class:`~repro.engine.delta.
  SnapshotManager`, wrapped in the kernel (shed → explicit ``shed``
  responses, breaker-open → serve-stale degraded mode);
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.bench` — the
  closed-loop hotspot load generator and the chaos scenario behind the
  ``serve`` experiment (pinned under ``archive/``) and ``repro serve``.
"""

from repro.serve.faults import (
    BATCH_FAULT,
    COMPACTION,
    KNOWN_SITES,
    REQUEST_LATENCY,
    SNAPSHOT_LOAD,
    WORKER_KILL,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientFault,
)
from repro.serve.loadgen import generate_requests, run_closed_loop
from repro.serve.metrics import ServerMetrics, percentile
from repro.serve.resilience import (
    CircuitBreaker,
    Clock,
    Deadline,
    LogicalClock,
    MonotonicClock,
    RetryPolicy,
    TokenBucket,
)
from repro.serve.server import CoalescingServer, Request, Response, ServeConfig
from repro.serve.bench import run_serve_scenario

__all__ = [
    "BATCH_FAULT",
    "COMPACTION",
    "KNOWN_SITES",
    "REQUEST_LATENCY",
    "SNAPSHOT_LOAD",
    "WORKER_KILL",
    "CircuitBreaker",
    "Clock",
    "CoalescingServer",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LogicalClock",
    "MonotonicClock",
    "Request",
    "Response",
    "RetryPolicy",
    "ServeConfig",
    "ServerMetrics",
    "TokenBucket",
    "TransientFault",
    "generate_requests",
    "percentile",
    "run_closed_loop",
    "run_serve_scenario",
]
