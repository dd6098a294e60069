"""The chaos-serving scenario behind ``repro bench run serve``.

:func:`run_serve_scenario` is the one shared driver: it wires a
:class:`~repro.serve.server.CoalescingServer` (logical clock, admission
control, seeded :meth:`FaultPlan.chaos <repro.serve.faults.FaultPlan.
chaos>`) to the closed-loop hotspot load generator, runs a fixed request
sequence, and returns the metrics report plus every response.  Both the
``serve`` registry experiment (gated by ``repro bench compare``) and the
``benchmarks/test_serve_bench.py`` recorder call it, so the gated
counters and the archived ``BENCH_serve.json`` always describe the same
scenario.

Determinism contract (what makes the counters gateable):

* the logical clock advances **only** in the load generator, ``pace``
  seconds before each submission, and admission is decided synchronously
  at submit time → ``offered``/``admitted``/``shed`` depend only on the
  request sequence;
* batch executions are single-flighted, so the seeded fault burst is
  absorbed by one victim batch's retry loop → ``retries`` equals the
  burst length and ``breaker_opens`` equals 1;
* deadlines are generous on the logical clock (nothing expires) and the
  request mix contains no deletes/compactions → every admitted request
  completes → ``completed == admitted`` and ``errors == 0``;
* ``faults_injected`` is the plan's total fired count — a pure function
  of the seed and the (ample) number of executions.

Wall-clock quantities (p50/p99 latency, QPS) ride along in the report
but are classified as timing metrics and never gated.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.serve.faults import FaultPlan
from repro.serve.loadgen import generate_requests, run_closed_loop
from repro.serve.resilience import LogicalClock
from repro.serve.server import CoalescingServer, Request, Response, ServeConfig

#: oid for the sentinel insert that precedes the generated stream (keeps
#: the overlay non-empty, so degraded answers are visibly stale-stamped).
SENTINEL_OID = 10**6 - 1


def scenario_config(
    *,
    admission_rate: float = 80.0,
    admission_burst: int = 24,
    breaker_threshold: int = 3,
) -> ServeConfig:
    """The :class:`ServeConfig` the scenario runs under.

    Retry backoff is real (tiny) sleeps; the deadline, admission bucket,
    and breaker cooldown all run on the scenario's logical clock.
    """
    return ServeConfig(
        batch_window=0.001,
        degraded_batch_window=0.0002,
        max_batch=32,
        default_deadline=60.0,  # logical seconds — generous, never expires
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        retry_max_attempts=breaker_threshold + 2,
        retry_base_delay=0.001,
        retry_max_delay=0.01,
        breaker_failure_threshold=breaker_threshold,
        breaker_cooldown=0.5,  # logical seconds; recovers mid-run
    )


def scenario_requests(
    n: int,
    *,
    seed: int,
    dims: int,
    extent: float = 100.0,
    knn_fraction: float = 0.2,
    write_fraction: float = 0.05,
) -> List[Request]:
    """The sentinel insert plus ``n`` generated hotspot-skewed requests."""
    side = [1.0] * dims
    sentinel = Request.insert(
        SpatialObject(SENTINEL_OID, Rect([0.0] * dims, side))
    )
    return [sentinel] + generate_requests(
        n,
        seed=seed,
        dims=dims,
        extent=extent,
        knn_fraction=knn_fraction,
        write_fraction=write_fraction,
    )


def run_serve_scenario(
    source,
    *,
    n_requests: int = 400,
    seed: int = 11,
    concurrency: int = 32,
    pace: float = 0.01,
    admission_rate: float = 80.0,
    admission_burst: int = 24,
    breaker_threshold: int = 3,
    latency_delay: float = 0.005,
    extent: float = 100.0,
    force_degraded_probe: bool = False,
) -> Tuple[Dict[str, Any], List[Response]]:
    """Run the chaos-serving scenario; return ``(report, responses)``.

    ``source`` is a :class:`~repro.engine.delta.SnapshotManager` or
    anything one can wrap.  ``force_degraded_probe`` appends one range
    query served with the breaker forced open — the deterministic way
    for the benchmark recorder to pin a nonzero ``stale_served`` floor
    without relying on where the fault burst lands.
    """
    clock = LogicalClock()
    plan = FaultPlan.chaos(
        seed, breaker_threshold=breaker_threshold, latency_delay=latency_delay
    )
    config = scenario_config(
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        breaker_threshold=breaker_threshold,
    )

    async def main() -> Tuple[Dict[str, Any], List[Response]]:
        server = CoalescingServer(source, config, fault_plan=plan, clock=clock)
        dims = server.manager.snapshot.dims
        requests = scenario_requests(n_requests, seed=seed, dims=dims, extent=extent)
        await server.start()
        try:
            responses = await run_closed_loop(
                server, requests, concurrency=concurrency, pace=pace, clock=clock
            )
            if force_degraded_probe:
                server.breaker.force_open()
                probe = await server.range_query(
                    Rect([0.0] * dims, [extent] * dims)
                )
                responses.append(probe)
            report = server.report()
        finally:
            await server.stop()
        return report, responses

    return asyncio.run(main())


#: the report keys ``repro bench compare`` gates (count metrics; exact).
GATED_COUNTERS = (
    "offered",
    "admitted",
    "shed",
    "completed",
    "errors",
    "retries",
    "breaker_opens",
    "faults_injected",
)

#: wall-clock report keys that ride along but are never gated.
TIMING_KEYS = ("p50_ms", "p99_ms", "qps")


def report_row(report: Dict[str, Any], **extra) -> Dict[str, Any]:
    """One table row: gated counters + timing columns (+ ``extra``)."""
    row: Dict[str, Any] = dict(extra)
    for key in GATED_COUNTERS:
        row[key] = report.get(key, 0)
    for key in TIMING_KEYS:
        row[key] = report.get(key)
    return row
