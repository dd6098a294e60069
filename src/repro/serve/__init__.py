"""Fault-tolerant online serving layer.

The package has four parts, composable but separately testable:

* :mod:`repro.serve.resilience` — the robustness kernel: injectable
  clocks, deadlines, retry-with-backoff-and-jitter, token-bucket
  admission control, and a circuit breaker;
* :mod:`repro.serve.faults` — deterministic seeded fault injection
  (:class:`FaultPlan`) threading through the worker pool, compaction,
  and the serving loop itself;
* :mod:`repro.serve.server` — :class:`CoalescingServer`, the asyncio
  micro-batching loop over a live :class:`~repro.engine.delta.
  SnapshotManager`, wrapped in the kernel (shed → explicit ``shed``
  responses, breaker-open → serve-stale degraded mode);
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.bench` — the
  closed-loop hotspot load generator and the chaos scenario behind the
  ``serve`` experiment (pinned under ``archive/``) and ``repro serve``.

The package exports what a caller needs to run a server: the server,
its request and response types, its config, the two things it can be
handed (a :class:`FaultPlan`, a :class:`LogicalClock`) and the scenario.
The kernel's parts are reached through their modules.
"""

from repro.serve.faults import FaultPlan
from repro.serve.resilience import LogicalClock
from repro.serve.server import CoalescingServer, Request, Response, ServeConfig
from repro.serve.bench import run_serve_scenario

__all__ = [
    "CoalescingServer",
    "FaultPlan",
    "LogicalClock",
    "Request",
    "Response",
    "ServeConfig",
    "run_serve_scenario",
]
