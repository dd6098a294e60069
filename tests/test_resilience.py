"""Unit tests for the robustness kernel and the fault-injection layer.

Everything in :mod:`repro.serve.resilience` is clock-injectable and
everything in :mod:`repro.serve.faults` is seed-deterministic; these
tests pin both properties, because the chaos suite and the gated
``serve`` benchmark counters rest on them.
"""

import pytest

from repro.serve.faults import (
    BATCH_FAULT,
    KNOWN_SITES,
    SNAPSHOT_LOAD,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientFault,
)
from repro.serve.metrics import LATENCY_WINDOW, ServerMetrics, percentile
from repro.serve.resilience import (
    CircuitBreaker,
    Deadline,
    LogicalClock,
    MonotonicClock,
    Overloaded,
    RetryPolicy,
    TokenBucket,
)

# ----------------------------------------------------------------------
# clocks and deadlines
# ----------------------------------------------------------------------


def test_logical_clock_advances_monotonically():
    clock = LogicalClock(10.0)
    assert clock.now() == 10.0
    assert clock.advance(2.5) == 12.5
    with pytest.raises(ValueError, match="backward"):
        clock.advance(-1.0)


def test_deadline_on_logical_clock():
    clock = LogicalClock()
    deadline = Deadline(5.0, clock)
    assert not deadline.expired()
    assert deadline.remaining() == 5.0
    clock.advance(4.999)
    assert not deadline.expired()
    clock.advance(0.001)
    assert deadline.expired()
    assert deadline.remaining() == 0.0


def test_deadline_none_never_expires():
    clock = LogicalClock()
    deadline = Deadline(None, clock)
    clock.advance(1e9)
    assert not deadline.expired()
    assert deadline.remaining() is None


def test_monotonic_clock_is_monotonic():
    clock = MonotonicClock()
    assert clock.now() <= clock.now()


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------


def test_retry_delays_are_seed_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.04, seed=3)
    delays = policy.delays()
    assert delays == RetryPolicy(
        max_attempts=5, base_delay=0.01, max_delay=0.04, seed=3
    ).delays()
    assert len(delays) == 4  # max_attempts counts the first try
    # exponential growth capped at max_delay, shrunk by jitter
    undithered = [0.01, 0.02, 0.04, 0.04]
    for delay, cap in zip(delays, undithered):
        assert 0.0 < delay <= cap
    assert delays != RetryPolicy(max_attempts=5, seed=4).delays()


def test_retry_run_retries_then_succeeds():
    calls = []
    slept = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TransientFault("boom")
        return "ok"

    policy = RetryPolicy(max_attempts=4, seed=0)
    result = policy.run(flaky, (TransientFault,), sleep=slept.append)
    assert result == "ok"
    assert len(calls) == 3
    assert slept == policy.delays()[:2]


def test_retry_run_exhausts_and_reraises():
    policy = RetryPolicy(max_attempts=3, seed=0)
    attempts = []
    with pytest.raises(TransientFault):
        policy.run(
            lambda: (_ for _ in ()).throw(TransientFault("always")),
            (TransientFault,),
            on_retry=lambda exc, n: attempts.append(n),
            sleep=lambda _s: None,
        )
    assert attempts == [1, 2]


def test_retry_does_not_absorb_unlisted_errors():
    policy = RetryPolicy(max_attempts=5, seed=0)
    calls = []

    def bad():
        calls.append(1)
        raise ValueError("not transient")

    with pytest.raises(ValueError):
        policy.run(bad, (TransientFault,), sleep=lambda _s: None)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------


def test_token_bucket_sheds_and_refills_on_logical_clock():
    clock = LogicalClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
    assert (bucket.admitted, bucket.shed) == (3, 1)
    clock.advance(1.0)  # +2 tokens
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.advance(100.0)  # refill caps at burst
    assert bucket.available == 3.0


def test_token_bucket_disabled_admits_everything():
    bucket = TokenBucket(rate=None, clock=LogicalClock())
    assert all(bucket.try_acquire() for _ in range(1000))
    assert bucket.shed == 0
    assert bucket.available == float("inf")


def test_token_bucket_acquire_or_raise():
    bucket = TokenBucket(rate=1.0, burst=1, clock=LogicalClock())
    bucket.acquire_or_raise()
    with pytest.raises(Overloaded, match="bucket empty"):
        bucket.acquire_or_raise()


def test_token_bucket_validates_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


def test_breaker_opens_after_consecutive_failures_only():
    clock = LogicalClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the consecutive streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.opened_count == 1


def test_breaker_half_open_probe_success_closes():
    clock = LogicalClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock.advance(2.0)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.opened_count == 1


def test_breaker_half_open_probe_failure_reopens():
    clock = LogicalClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opened_count == 2


def test_breaker_force_open():
    breaker = CircuitBreaker(clock=LogicalClock())
    breaker.force_open()
    assert not breaker.allow()
    assert breaker.opened_count == 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile([], 50) is None


def test_server_metrics_counters_and_latency():
    metrics = ServerMetrics()
    metrics.incr("offered", 3)
    metrics.incr("shed")
    assert metrics.offered == 3
    assert metrics.shed == 1
    with pytest.raises(KeyError):
        metrics.incr("not_a_counter")
    for ms in (1.0, 2.0, 3.0, 4.0):
        metrics.observe_latency(ms / 1000.0)
    metrics.set_elapsed(2.0)
    snap = metrics.snapshot()
    assert snap["offered"] == 3
    assert snap["p50_ms"] == pytest.approx(2.5)
    assert metrics.latency_count() == 4


def test_server_metrics_latency_sample_is_a_bounded_window():
    # A run shorter than the window reports what the unbounded list did.
    short = [((i * 7919) % 1000) / 1000.0 for i in range(1000)]
    metrics = ServerMetrics()
    for seconds in short:
        metrics.observe_latency(seconds)
    assert metrics.p50_ms() == percentile(short, 50.0) * 1000.0
    assert metrics.p99_ms() == percentile(short, 99.0) * 1000.0
    assert metrics.snapshot()["p99_ms"] == metrics.p99_ms()

    metrics = ServerMetrics()
    for i in range(100_000):
        metrics.observe_latency(i / 1000.0)
    assert len(metrics._latencies) == LATENCY_WINDOW
    assert metrics.latency_count() == 100_000
    # The window is the most recent samples: i in [34_464, 100_000).
    first = 100_000 - LATENCY_WINDOW
    assert metrics.p50_ms() == pytest.approx((first + 99_999) / 2.0)
    assert metrics.snapshot()["p99_ms"] == pytest.approx(
        first + 0.99 * (LATENCY_WINDOW - 1)
    )


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


def test_fault_spec_window():
    spec = FaultSpec("site", at=3, times=2)
    assert [spec.covers(n) for n in range(1, 7)] == [
        False, False, True, True, False, False,
    ]
    with pytest.raises(ValueError):
        FaultSpec("site", at=0)
    with pytest.raises(ValueError):
        FaultSpec("site", times=0)


def test_fault_plan_fires_on_exact_ordinals():
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=2, times=2, message="kaboom")])
    assert plan.fires(BATCH_FAULT) is None
    assert plan.fires(BATCH_FAULT) is not None
    with pytest.raises(InjectedFault, match="kaboom"):
        plan.raise_if_fires(BATCH_FAULT)
    assert plan.fires(BATCH_FAULT) is None
    assert plan.calls(BATCH_FAULT) == 4
    assert plan.fired(BATCH_FAULT) == 2
    assert plan.total_fired() == 2
    assert plan.fired_by_site() == {BATCH_FAULT: 2}
    plan.reset()
    assert plan.calls(BATCH_FAULT) == 0


def test_fault_plan_sites_are_independent():
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=1)])
    assert plan.fires(SNAPSHOT_LOAD) is None  # separate counter
    assert plan.fires(BATCH_FAULT) is not None


def test_fault_plan_hook_adapter():
    plan = FaultPlan([FaultSpec(SNAPSHOT_LOAD, at=1)])
    hook = plan.hook(SNAPSHOT_LOAD)
    with pytest.raises(InjectedFault):
        hook("/some/path", anything=True)
    hook("/some/path")  # second call is past the window


def test_fault_plan_install_routes_snapshot_loads(tmp_path):
    from repro.engine import ColumnarIndex, load_snapshot, save_snapshot
    from repro.rtree.registry import build_rtree
    from tests.conftest import make_random_objects

    objects = make_random_objects(60, dims=2, seed=1)
    snapshot = ColumnarIndex.from_tree(build_rtree("rstar", objects, max_entries=8))
    save_snapshot(snapshot, tmp_path)
    plan = FaultPlan([FaultSpec(SNAPSHOT_LOAD, at=1, message="torn file")])
    with plan:
        with pytest.raises(InjectedFault, match="torn file"):
            load_snapshot(tmp_path)
        loaded = load_snapshot(tmp_path)  # past the window: loads fine
        assert loaded.dims == snapshot.dims
    # uninstalled: loads never consult the plan again
    load_snapshot(tmp_path)
    assert plan.calls(SNAPSHOT_LOAD) == 2


def test_chaos_plan_is_seed_deterministic():
    a = FaultPlan.chaos(42)
    b = FaultPlan.chaos(42)
    assert a.specs == b.specs
    assert {spec.site for spec in a.specs} <= set(KNOWN_SITES)
    c = FaultPlan.chaos(43)
    assert a.specs != c.specs
    burst = [s for s in a.specs if s.site == BATCH_FAULT]
    assert len(burst) == 1 and burst[0].times == 3
