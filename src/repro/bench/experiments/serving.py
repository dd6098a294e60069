"""The ``serve`` experiment: online serving under seeded chaos.

Runs the shared :func:`~repro.serve.bench.run_serve_scenario` — a
closed-loop hotspot-skewed request stream through a
:class:`~repro.serve.server.CoalescingServer` with admission control and
a seeded fault plan — over a clipped tree built from the configured
dataset, and reports one row of counters.

Every count column is deterministic under the seed (see the determinism
contract in :mod:`repro.serve.bench`), so ``repro bench compare serve``
gates them exactly; p50/p99/QPS are wall-clock and never gated.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from repro.bench.harness import ExperimentContext
from repro.engine.delta import SnapshotManager
from repro.serve.bench import report_row, run_serve_scenario


def run(
    context: ExperimentContext,
    dataset: str = "par02",
    variant: str = "rstar",
    method: str = "stairline",
    requests: Optional[int] = None,
    concurrency: Optional[int] = None,
    admission_rate: float = 80.0,
    admission_burst: int = 24,
    pace: float = 0.01,
    breaker_threshold: int = 3,
    chaos_seed: int = 11,
) -> List[Dict]:
    """One chaos-serving run; returns a single-row ``serve`` table."""
    config = context.config
    if requests is None:
        requests = config.serve_requests
    if concurrency is None:
        concurrency = config.serve_concurrency
    reference = context.clipped(dataset, variant, method=method)
    # The cached clipped tree must never mutate; the manager owns a copy.
    manager = SnapshotManager(copy.deepcopy(reference))
    report, responses = run_serve_scenario(
        manager,
        n_requests=requests,
        seed=chaos_seed,
        concurrency=concurrency,
        pace=pace,
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        breaker_threshold=breaker_threshold,
    )
    # Every admitted request must resolve explicitly — ok, shed, or a
    # stamped degraded answer; silence would be a serving-layer bug.
    assert len(responses) == report["offered"]
    assert all(r.status in ("ok", "shed") for r in responses)
    return [report_row(report, dataset=dataset)]
