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
  deterministic seeded jitter; the jitter sequence is fixed, so two runs
  retry at identical offsets.
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
    """An absolute expiry ``seconds`` from now on an injectable clock."""

    __slots__ = ("clock", "expires_at")

    def __init__(self, seconds: float, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.expires_at = self.clock.now() + float(seconds)

    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at

    def __repr__(self) -> str:
        return f"Deadline(expires_at={self.expires_at})"


# ----------------------------------------------------------------------
# retries
# ----------------------------------------------------------------------


#: Growth of the backoff delay per attempt.
BACKOFF_MULTIPLIER = 2.0
#: The largest share of a delay the jitter takes off it.
JITTER = 0.5
#: Seed of the jitter's RNG: every policy draws the same sequence.
JITTER_SEED = 0


@dataclass
class RetryPolicy:
    """Exponential backoff with seeded jitter: ``base * BACKOFF_MULTIPLIER**n``.

    ``max_attempts`` counts the first try too — a policy with
    ``max_attempts=4`` retries at most 3 times.  Each delay is capped at
    ``max_delay`` and then shrunk by up to :data:`JITTER` of itself using
    an RNG seeded with :data:`JITTER_SEED`: :meth:`delays` yields the
    identical sequence every time, making retry timing — and therefore
    every downstream counter — reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.005
    max_delay: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff delays between attempts, drawn lazily."""
        rng = random.Random(JITTER_SEED)
        delay = 0.0
        for attempt in range(self.max_attempts - 1):
            # Once at the cap (or with no base) the delay stays put: the
            # power would overflow a float after about a thousand attempts.
            if self.base_delay > 0 and delay < self.max_delay:
                delay = min(self.max_delay, self.base_delay * BACKOFF_MULTIPLIER**attempt)
            yield delay * (1.0 - JITTER * rng.random())


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

    def try_acquire(self) -> bool:
        """Take one token if available; False (= shed) otherwise."""
        if self.rate is None:
            return True
        now = self.clock.now()
        if now > self._last:
            self._tokens = min(float(self.burst), self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


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
