"""Per-request serving metrics: counters, latency percentiles, QPS.

The counter set mirrors the request lifecycle (offered → admitted →
completed | shed | deadline | error) plus the robustness machinery
(retries, breaker trips, stale serves, degraded batches).  Counters that
depend only on the request sequence and the seeded fault plan —
``offered``/``admitted``/``shed``/``retries``/``breaker_opens``/
``deadline_exceeded``/``faults_injected`` — are deterministic and gate
in ``repro bench compare serve``; latency-derived numbers (p50/p99,
QPS) are timing metrics and are reported but never gated.
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
    :data:`LATENCY_WINDOW` observations; :meth:`latency_count` still
    counts every observation ever made.
    """

    COUNTERS = (
        "offered",
        "admitted",
        "shed",
        "completed",
        "deadline_exceeded",
        "errors",
        "retries",
        "breaker_opens",
        "stale_served",
        "degraded_batches",
        "batches",
        "coalesced",
        "compactions",
        "compaction_failures",
        "snapshot_swaps",
        "faults_injected",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in self.COUNTERS}
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._latency_total = 0
        self._elapsed: float = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            if name not in self._counters:
                raise KeyError(f"unknown counter {name!r}")
            self._counters[name] += amount

    def __getattr__(self, name: str) -> int:
        # Counter reads look like plain attributes: metrics.shed etc.
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            with self.__dict__["_lock"]:
                return counters[name]
        raise AttributeError(name)

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(float(seconds))
            self._latency_total += 1

    def set_elapsed(self, seconds: float) -> None:
        """Record the wall-clock span of the measured run (for QPS)."""
        with self._lock:
            self._elapsed = float(seconds)

    # ------------------------------------------------------------------
    # derived
    # ------------------------------------------------------------------

    def latency_count(self) -> int:
        """Latencies observed in total, including those the window dropped."""
        with self._lock:
            return self._latency_total

    def p50_ms(self) -> Optional[float]:
        """Median latency over the most recent :data:`LATENCY_WINDOW` samples."""
        with self._lock:
            p = percentile(self._latencies, 50.0)
        return None if p is None else p * 1000.0

    def p99_ms(self) -> Optional[float]:
        """99th-percentile latency over the most recent :data:`LATENCY_WINDOW` samples."""
        with self._lock:
            p = percentile(self._latencies, 99.0)
        return None if p is None else p * 1000.0

    def qps(self) -> Optional[float]:
        """Completed requests per wall-clock second of the measured run."""
        with self._lock:
            if self._elapsed <= 0.0:
                return None
            return self._counters["completed"] / self._elapsed

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view: every counter plus the derived numbers.

        ``p50_ms``/``p99_ms`` describe the most recent
        :data:`LATENCY_WINDOW` latency samples, the counters the whole run.
        """
        with self._lock:
            out: Dict[str, object] = dict(self._counters)
            latencies = list(self._latencies)
            elapsed = self._elapsed
        p50 = percentile(latencies, 50.0)
        p99 = percentile(latencies, 99.0)
        out["p50_ms"] = None if p50 is None else p50 * 1000.0
        out["p99_ms"] = None if p99 is None else p99 * 1000.0
        out["qps"] = (
            None if elapsed <= 0.0 else out["completed"] / elapsed  # type: ignore[operator]
        )
        out["elapsed_seconds"] = elapsed
        return out

    def __repr__(self) -> str:
        snap = self.snapshot()
        keys = ("offered", "admitted", "completed", "shed", "retries", "breaker_opens")
        inner = ", ".join(f"{k}={snap[k]}" for k in keys)
        return f"ServerMetrics({inner})"
