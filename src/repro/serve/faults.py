"""Deterministic fault injection for the serving stack.

Chaos testing only proves something when the chaos is *reproducible*: a
:class:`FaultPlan` is a fully deterministic schedule of faults keyed by
*site* — a short string naming one instrumented code location.
Each site keeps an invocation counter; a :class:`FaultSpec` fires on a
contiguous ordinal window ``[at, at + times)`` of that counter, so the
same plan driven by the same workload injects exactly the same faults,
and ``tests/test_chaos.py`` can assert exact recovery invariants
(retry counts, breaker transitions, rebuilt pools) instead of "it
usually survives".

Instrumented sites:

* :data:`WORKER_KILL` — consulted by
  :class:`~repro.engine.parallel.ParallelExecutor` once per shard
  submission, in the coordinating process; a firing spec replaces that
  shard's task with one that ``os._exit``\\ s the worker, breaking the
  process pool mid-batch;
* :data:`COMPACTION` — consulted through the manager's
  ``compaction_fault_hook`` at the start of a fold's first step
  (:meth:`repro.engine.delta.SnapshotManager.compact_step`, which
  ``compact`` runs too), before the source tree is touched: a firing
  spec crashes the fold with the delta still buffered;
* :data:`BATCH_FAULT` — consulted by the server once per batch execution
  attempt; fires a transient error into the request path (what the
  retry policy and circuit breaker exist for);
* :data:`REQUEST_LATENCY` — consulted once per dispatched batch; a
  firing spec stalls the batch by ``spec.delay`` seconds (a slow-request
  latency spike).

:meth:`FaultPlan.chaos` derives a pseudo-random — but seed-deterministic
— set of specs for load-generator runs.

Layering note: the engine modules never import this package.  They
accept any object with the small ``fires(site)`` protocol (or a plain
callable hook), so ``repro.serve`` stays strictly above
``repro.engine``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Site names (kept in sync with the literals used at the injection
#: points — the engine cannot import them from here).
WORKER_KILL = "parallel.worker_kill"
COMPACTION = "delta.compaction"
BATCH_FAULT = "serve.batch"
REQUEST_LATENCY = "serve.latency"

KNOWN_SITES = (WORKER_KILL, COMPACTION, BATCH_FAULT, REQUEST_LATENCY)


class TransientFault(RuntimeError):
    """Base class for faults a retry policy is allowed to absorb."""


class InjectedFault(TransientFault):
    """A fault raised by a firing :class:`FaultSpec` (always transient)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire at calls ``at .. at + times - 1`` of a site."""

    site: str
    at: int = 1
    times: int = 1
    delay: float = 0.0
    message: str = "injected fault"

    def __post_init__(self):
        if self.site not in KNOWN_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {KNOWN_SITES}")
        if self.at < 1:
            raise ValueError("FaultSpec.at is 1-based and must be >= 1")
        if self.times < 1:
            raise ValueError("FaultSpec.times must be >= 1")

    def covers(self, ordinal: int) -> bool:
        """True when the ``ordinal``-th call of the site should fault."""
        return self.at <= ordinal < self.at + self.times


class FaultPlan:
    """A deterministic, thread-safe schedule of :class:`FaultSpec` firings.

    Counters are per-site and advance on every :meth:`fires` call, so the
    N-th consultation of a site always sees the same verdict.  Every site
    is consulted in the process that holds the plan, pool workers never.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs: List[FaultSpec] = list(specs)
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._calls: Dict[str, int] = {}
        self._fired = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # firing protocol (what the instrumented sites call)
    # ------------------------------------------------------------------

    def fires(self, site: str) -> Optional[FaultSpec]:
        """Advance ``site``'s counter; the spec covering this call, if any."""
        with self._lock:
            ordinal = self._calls.get(site, 0) + 1
            self._calls[site] = ordinal
            for spec in self._by_site.get(site, ()):
                if spec.covers(ordinal):
                    self._fired += 1
                    return spec
        return None

    def raise_if_fires(self, site: str) -> None:
        """Raise :class:`InjectedFault` when the site's next call faults."""
        spec = self.fires(site)
        if spec is not None:
            raise InjectedFault(f"{site}: {spec.message}")

    def hook(self, site: str):
        """A ``callable(*args, **kwargs)`` adapter over :meth:`raise_if_fires`.

        Engine modules expose plain callable hooks (so they need not know
        about plans); this builds one bound to ``site``.
        """

        def _hook(*_args, **_kwargs):
            self.raise_if_fires(site)

        return _hook

    def total_fired(self) -> int:
        """Faults fired across every site."""
        with self._lock:
            return self._fired

    # ------------------------------------------------------------------
    # canned schedules
    # ------------------------------------------------------------------

    @classmethod
    def chaos(
        cls,
        seed: int = 0,
        *,
        breaker_threshold: int = 3,
        latency_delay: float = 0.02,
    ) -> "FaultPlan":
        """A seed-deterministic chaos schedule for load-generator runs.

        One burst of ``breaker_threshold`` consecutive transient batch
        faults (enough to trip a breaker with that threshold) and one
        slow-request stall of ``latency_delay`` seconds.  All ordinals are
        drawn from ``seed``, so two plans built with the same arguments
        fire identically.
        """
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                BATCH_FAULT,
                at=rng.randint(2, 4),
                times=breaker_threshold,
                message="transient batch failure burst",
            ),
            FaultSpec(
                REQUEST_LATENCY,
                at=rng.randint(1, 3),
                delay=latency_delay,
                message="latency spike",
            ),
        ]
        return cls(specs)

    def __repr__(self) -> str:
        sites = {spec.site for spec in self.specs}
        fired = self.total_fired()
        return f"FaultPlan(specs={len(self.specs)}, sites={sorted(sites)}, fired={fired})"
