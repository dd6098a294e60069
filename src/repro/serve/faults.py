"""Deterministic fault injection for the serving stack.

Chaos testing only proves something when the chaos is *reproducible*: a
:class:`FaultPlan` is a seeded, fully deterministic schedule of faults
keyed by *site* — a short string naming one instrumented code location.
Each site keeps an invocation counter; a :class:`FaultSpec` fires on a
contiguous ordinal window ``[at, at + times)`` of that counter, so the
same plan driven by the same workload injects exactly the same faults,
and ``tests/test_chaos.py`` can assert exact recovery invariants
(retry counts, breaker transitions, rebuilt pools) instead of "it
usually survives".

Instrumented sites:

* :data:`WORKER_KILL` — consulted by
  :class:`~repro.engine.parallel.ParallelExecutor` once per shard
  submission; a firing spec replaces that shard's task with one that
  ``os._exit``\\ s the worker, breaking the process pool mid-batch;
* :data:`SNAPSHOT_LOAD` — consulted by
  :func:`repro.engine.snapshot_io.load_snapshot` through the module's
  fault hook (see :meth:`FaultPlan.install`); a firing spec raises an
  :class:`InjectedFault` in place of the load, simulating a truncated or
  unreadable snapshot file;
* :data:`COMPACTION` — consulted by
  :meth:`repro.engine.delta.SnapshotManager.compact` through its
  ``compaction_fault_hook`` *after* the compaction has started, crashing
  the background rebuild mid-fold;
* :data:`BATCH_FAULT` — consulted by the server once per batch execution
  attempt; fires a transient error into the request path (what the
  retry policy and circuit breaker exist for);
* :data:`REQUEST_LATENCY` — consulted once per dispatched batch; a
  firing spec stalls the batch by ``spec.delay`` seconds (a slow-request
  latency spike).

The plan's ``seed`` makes randomized schedules reproducible:
:meth:`FaultPlan.chaos` derives a pseudo-random — but seed-deterministic
— set of specs for load-generator runs.

Layering note: the engine modules never import this package.  They
accept any object with the small ``fires(site)`` protocol (or a plain
callable hook), so ``repro.serve`` stays strictly above
``repro.engine``.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Site names (kept in sync with the literals used at the injection
#: points — the engine cannot import them from here).
WORKER_KILL = "parallel.worker_kill"
SNAPSHOT_LOAD = "snapshot_io.load"
COMPACTION = "delta.compaction"
BATCH_FAULT = "serve.batch"
REQUEST_LATENCY = "serve.latency"

KNOWN_SITES = (WORKER_KILL, SNAPSHOT_LOAD, COMPACTION, BATCH_FAULT, REQUEST_LATENCY)


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
    N-th consultation of a site always sees the same verdict.  The plan
    only fires in the process that created it (checked by pid): a forked
    pool worker inheriting an installed plan never double-fires faults
    that the coordinator's schedule owns.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.seed = seed
        self.specs: List[FaultSpec] = list(specs)
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._installed_previous = None
        self._installed = False

    # ------------------------------------------------------------------
    # firing protocol (what the instrumented sites call)
    # ------------------------------------------------------------------

    def fires(self, site: str) -> Optional[FaultSpec]:
        """Advance ``site``'s counter; the spec covering this call, if any."""
        if os.getpid() != self._pid:
            return None
        with self._lock:
            ordinal = self._calls.get(site, 0) + 1
            self._calls[site] = ordinal
            for spec in self._by_site.get(site, ()):
                if spec.covers(ordinal):
                    self._fired[site] = self._fired.get(site, 0) + 1
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

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def calls(self, site: str) -> int:
        """How many times ``site`` has been consulted."""
        with self._lock:
            return self._calls.get(site, 0)

    def fired(self, site: str) -> int:
        """How many faults have fired at ``site``."""
        with self._lock:
            return self._fired.get(site, 0)

    def total_fired(self) -> int:
        """Faults fired across every site."""
        with self._lock:
            return sum(self._fired.values())

    def fired_by_site(self) -> Dict[str, int]:
        """``{site: faults fired}`` snapshot."""
        with self._lock:
            return dict(self._fired)

    def reset(self) -> None:
        """Zero every counter (the schedule itself is immutable)."""
        with self._lock:
            self._calls.clear()
            self._fired.clear()

    # ------------------------------------------------------------------
    # global hook installation (snapshot_io.load_snapshot)
    # ------------------------------------------------------------------

    def install(self) -> "FaultPlan":
        """Route :func:`repro.engine.snapshot_io.load_snapshot` through this plan."""
        from repro.engine import snapshot_io

        if not self._installed:
            self._installed_previous = snapshot_io.set_load_fault_hook(
                self.hook(SNAPSHOT_LOAD)
            )
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the previous :mod:`snapshot_io` fault hook."""
        from repro.engine import snapshot_io

        if self._installed:
            snapshot_io.set_load_fault_hook(self._installed_previous)
            self._installed_previous = None
            self._installed = False

    def __enter__(self) -> "FaultPlan":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # canned schedules
    # ------------------------------------------------------------------

    @classmethod
    def chaos(
        cls,
        seed: int = 0,
        *,
        breaker_threshold: int = 3,
        latency_spikes: int = 1,
        latency_delay: float = 0.02,
    ) -> "FaultPlan":
        """A seed-deterministic chaos schedule for load-generator runs.

        One burst of ``breaker_threshold`` consecutive transient batch
        faults (enough to trip a breaker with that threshold) and
        ``latency_spikes`` slow-request stalls.  All ordinals are drawn
        from ``seed``, so two plans built with the same arguments fire
        identically.
        """
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                BATCH_FAULT,
                at=rng.randint(2, 4),
                times=breaker_threshold,
                message="transient batch failure burst",
            )
        ]
        for _ in range(latency_spikes):
            specs.append(
                FaultSpec(
                    REQUEST_LATENCY,
                    at=rng.randint(1, 3),
                    delay=latency_delay,
                    message="latency spike",
                )
            )
        return cls(specs, seed=seed)

    def __repr__(self) -> str:
        sites = {spec.site for spec in self.specs}
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
            f"sites={sorted(sites)}, fired={self.total_fired()})"
        )
