"""Robustness primitives: deadlines, retries, admission, circuit breaking.

Everything here is *clock-injectable*: each primitive reads time through
a :class:`Clock`, so production code uses the monotonic wall clock while
tests and the deterministic load generator drive a :class:`LogicalClock`
by hand — admission and breaker decisions then depend only on the
request sequence, never on scheduler jitter, which is what lets
``repro bench compare serve`` gate on exact shed/retry counts.

* :class:`Deadline` — an absolute expiry; requests carry one from
  admission to delivery and are cancelled (never silently served late)
  once it passes.
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter; the jitter sequence is a pure function of
  the seed, so two runs retry at identical offsets.
* :class:`TokenBucket` — admission control: a bucket of ``burst`` tokens
  refilled at ``rate`` per second; a request that finds the bucket empty
  is *shed* — the server answers it ``Response(status="shed")`` — instead
  of joining an unbounded queue (load shedding beats queue collapse).
* :class:`CircuitBreaker` — trips open after ``failure_threshold``
  consecutive failures, serves degraded for ``cooldown`` seconds, then
  half-opens to probe; a probe success closes it, a probe failure
  re-opens it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------


class Clock:
    """Time source protocol: ``now()`` in seconds, monotonic."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real monotonic clock (production default)."""

    def now(self) -> float:
        return time.monotonic()


class LogicalClock(Clock):
    """A manually advanced clock for deterministic tests and load runs."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward (never backward); returns the new now."""
        if seconds < 0:
            raise ValueError("logical time cannot move backward")
        self._now += seconds
        return self._now


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class Deadline:
    """An absolute expiry measured on an injectable clock.

    ``seconds=None`` builds a deadline that never expires.
    """

    __slots__ = ("clock", "expires_at")

    def __init__(self, seconds: Optional[float], clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.expires_at = None if seconds is None else self.clock.now() + float(seconds)

    def expired(self) -> bool:
        return self.expires_at is not None and self.clock.now() >= self.expires_at

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0), or ``None`` for no deadline."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self.clock.now())

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining()})"


# ----------------------------------------------------------------------
# retries
# ----------------------------------------------------------------------


@dataclass
class RetryPolicy:
    """Exponential backoff with seeded jitter: ``base * multiplier**n``.

    ``max_attempts`` counts the first try too — a policy with
    ``max_attempts=4`` retries at most 3 times.  Each delay is capped at
    ``max_delay`` and then shrunk by up to ``jitter`` (a fraction of the
    delay) using a RNG seeded per policy instance: :meth:`delays` yields
    the identical sequence for identical seeds, making retry timing —
    and therefore every downstream counter — reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff delays between attempts, drawn lazily."""
        rng = random.Random(self.seed)
        delay = 0.0
        for attempt in range(self.max_attempts - 1):
            # Once at the cap (or with no base) the delay stays put: the
            # power would overflow a float after about a thousand attempts.
            if self.base_delay > 0 and delay < self.max_delay:
                delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
            yield delay * (1.0 - self.jitter * rng.random())


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TokenBucket:
    """Classic token-bucket admission: ``rate`` tokens/s, depth ``burst``.

    ``rate=None`` admits everything (the bucket is disabled).  The
    bucket refills lazily on each :meth:`try_acquire`, reading time from
    the injected clock — with a :class:`LogicalClock`, admission
    decisions are a pure function of the request/advance sequence.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: int = 1,
        clock: Optional[Clock] = None,
    ):
        if rate is not None and not rate > 0:  # NaN too: it would never refill
            raise ValueError("rate must be positive (or None for unlimited)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = int(burst)
        self.clock = clock if clock is not None else MonotonicClock()
        self._tokens = float(burst)
        self._last = self.clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        if self.rate is not None and now > self._last:
            self._tokens = min(float(self.burst), self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False (= shed) otherwise."""
        if self.rate is None:
            return True
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (after a lazy refill)."""
        if self.rate is None:
            return float("inf")
        self._refill()
        return self._tokens


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Trip after consecutive failures; cool down; probe; recover.

    States: ``closed`` (normal), ``open`` (every caller should take its
    degraded path), ``half_open`` (cooldown elapsed — let traffic probe;
    one success closes, one failure re-opens).  ``opened_count`` counts
    closed/half-open → open transitions, which is the deterministic
    counter the serve benchmark gates on.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 0.25,
        clock: Optional[Clock] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self.clock = clock if clock is not None else MonotonicClock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.opened_count = 0

    @property
    def state(self) -> str:
        """Current state; an elapsed cooldown surfaces as ``half_open``."""
        if (
            self._state == self.OPEN
            and self.clock.now() - self._opened_at >= self.cooldown
        ):
            self._state = self.HALF_OPEN
        return self._state

    @property
    def closed(self) -> bool:
        return self.state == self.CLOSED

    def allow(self) -> bool:
        """True when callers should take the normal (non-degraded) path."""
        return self.state != self.OPEN

    def _open(self) -> None:
        self._state = self.OPEN
        self._opened_at = self.clock.now()
        self.opened_count += 1

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self._state = self.CLOSED

    def record_failure(self) -> None:
        state = self.state
        self._consecutive_failures += 1
        if state == self.HALF_OPEN:
            self._open()
        elif state == self.CLOSED and self._consecutive_failures >= self.failure_threshold:
            self._open()

    def force_open(self) -> None:
        """Trip the breaker unconditionally (tests, manual degrade)."""
        self._open()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state}, failures="
            f"{self._consecutive_failures}/{self.failure_threshold}, "
            f"opened={self.opened_count})"
        )
