"""Per-request serving metrics: counters, latency percentiles, QPS.

The counter set mirrors the request lifecycle (offered → shed |
admitted, and each admitted request ends completed | deadline_exceeded |
errors | cancelled) plus the robustness machinery
(retries, stale serves, degraded batches, compactions).  Counts another
object already keeps — breaker trips, snapshot swaps, injected faults —
are not counted here a second time; ``CoalescingServer.report()`` reads
them from their owners.  Counters that depend only on the request
sequence and the seeded fault plan — ``offered``/``admitted``/``shed``/
``retries``/``deadline_exceeded`` — are deterministic and gate in
``repro bench compare serve``; latency-derived numbers (p50/p99, QPS)
are timing metrics and are reported but never gated.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional, Sequence

#: Latency samples a :class:`ServerMetrics` keeps: the most recent this
#: many, so a long-lived server's memory does not grow with its traffic.
LATENCY_WINDOW = 65_536


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Returns ``None`` for an empty sample (no latencies recorded yet).
    """
    if not values:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ServerMetrics:
    """Thread-safe counters + latency sample for one server instance.

    The latency sample is a sliding window of the most recent
    :data:`LATENCY_WINDOW` observations; one observation is made per
    ``completed`` request, so that counter is the all-time count.
    :meth:`snapshot` is the one read view.
    """

    COUNTERS = (
        "offered",
        "admitted",
        "shed",
        "completed",
        "deadline_exceeded",
        "errors",
        "cancelled",
        "retries",
        "stale_served",
        "degraded_batches",
        "batches",
        "coalesced",
        "compactions",
        "compaction_failures",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in self.COUNTERS}
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._queue_waits: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._elapsed: float = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            if name not in self._counters:
                raise KeyError(f"unknown counter {name!r}")
            self._counters[name] += amount

    def observe_latency(self, seconds: float, queue_seconds: Optional[float] = None) -> None:
        """One answered request: its latency and, if known, the part of it
        spent before its batch took the execution lane."""
        with self._lock:
            self._latencies.append(float(seconds))
            if queue_seconds is not None:
                self._queue_waits.append(float(queue_seconds))

    def set_elapsed(self, seconds: float) -> None:
        """Record the wall-clock span of the measured run (for QPS)."""
        with self._lock:
            self._elapsed = float(seconds)

    # ------------------------------------------------------------------
    # derived
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view: every counter plus the derived numbers.

        ``p50_ms``/``p99_ms`` describe the most recent
        :data:`LATENCY_WINDOW` latency samples and ``queue_p50_ms`` their
        wait for the execution lane, the counters the whole run.
        """
        with self._lock:
            out: Dict[str, object] = dict(self._counters)
            latencies = list(self._latencies)
            queue_waits = list(self._queue_waits)
            elapsed = self._elapsed
        for key, sample, q in (
            ("p50_ms", latencies, 50.0),
            ("p99_ms", latencies, 99.0),
            ("queue_p50_ms", queue_waits, 50.0),
        ):
            p = percentile(sample, q)
            out[key] = None if p is None else p * 1000.0
        out["qps"] = (
            None if elapsed <= 0.0 else out["completed"] / elapsed  # type: ignore[operator]
        )
        out["elapsed_seconds"] = elapsed
        return out

    def __repr__(self) -> str:
        snap = self.snapshot()
        keys = ("offered", "admitted", "completed", "shed", "retries")
        inner = ", ".join(f"{k}={snap[k]}" for k in keys)
        return f"ServerMetrics({inner})"
