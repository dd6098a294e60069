"""Behavioural tests for :class:`repro.serve.server.CoalescingServer`.

The server is an *online* layer over the engine, so the contract under
test is twofold: answers must equal what the engine returns directly
(coalescing and parallelism are invisible), and every robustness feature
— admission shedding, deadlines, retries, the breaker's serve-stale
degraded mode — must surface *explicitly* in the response metadata,
never as silence or a wrong answer.
"""

import asyncio
import threading
from types import SimpleNamespace

import pytest

from repro.engine import ColumnarIndex, SnapshotManager
from repro.engine.delta import overlay_join
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.registry import build_rtree
from repro.serve.faults import BATCH_FAULT, COMPACTION, FaultPlan, FaultSpec
from repro.serve.resilience import LogicalClock
from repro.serve.server import CoalescingServer, Request, Response, ServeConfig
from tests.conftest import make_random_objects

#: Every server a test starts ends it with each admitted request accounted for.
pytestmark = pytest.mark.usefixtures("requests_accounted")


def _manager(count=150, dims=2, seed=3, **kwargs):
    objects = make_random_objects(count, dims=dims, seed=seed)
    tree = build_rtree("rstar", objects, max_entries=8)
    return objects, SnapshotManager(tree, **kwargs)


def _rects(objects, n=10, pad=1.5):
    step = max(1, len(objects) // n)
    return [
        Rect([c - pad for c in o.rect.low], [c + pad for c in o.rect.high])
        for o in objects[::step][:n]
    ]


def _oids(hits):
    return sorted(obj.oid for obj in hits)


def _run(coro):
    return asyncio.run(coro)


def test_request_validation():
    with pytest.raises(ValueError, match="unknown request kind"):
        Request("frobnicate")
    assert Request.range(Rect([0, 0], [1, 1])).kind == "range"
    assert Request.knn((0, 0), 3).payload == ((0.0, 0.0), 3)
    for k in (0, -2, 2.5, None):
        with pytest.raises(ValueError, match="integer k >= 1"):
            Request.knn((0.0, 0.0), k)


def test_join_request_validation():
    """A join the server cannot run never becomes a queued request.

    Regression: ``algorithm="hash"`` used to be answered ``ok`` with the
    STT result, because only ``execute_join`` validated the name.
    """
    _, manager = _manager(count=30)
    probes = make_random_objects(5, dims=2, seed=9)
    with pytest.raises(ValueError, match="inlj.*stt"):
        Request.join(other=manager, algorithm="hash")
    with pytest.raises(ValueError, match="inlj.*stt"):
        overlay_join(manager, manager, algorithm="hash")
    with pytest.raises(ValueError, match="probes"):
        Request.join(other=manager, algorithm="inlj")
    with pytest.raises(ValueError, match="other"):
        Request.join(probes=probes, algorithm="stt")
    with pytest.raises(ValueError, match="dict"):
        Request("join", None)
    assert Request.join(probes=[], algorithm="inlj").payload["probes"] == []
    assert Request.join(other=manager, algorithm="stt").payload["other"] is manager


def test_answers_match_direct_engine():
    objects, manager = _manager()
    rects = _rects(objects, 12)
    points = [o.rect.low for o in objects[:6]]
    expected_ranges = [_oids(hits) for hits in manager.range_query_batch(rects)]
    expected_knn = [
        [(d, o.oid) for d, o in hits[:3]] for hits in manager.knn_batch(points, 3)
    ]

    async def main():
        async with CoalescingServer(manager) as server:
            range_futs = [server.submit_nowait(Request.range(r)) for r in rects]
            knn_futs = [server.submit_nowait(Request.knn(p, 3)) for p in points]
            ranges = await asyncio.gather(*range_futs)
            knns = await asyncio.gather(*knn_futs)
        return ranges, knns

    ranges, knns = _run(main())
    assert all(r.ok and not r.stale and not r.degraded for r in ranges + knns)
    assert [_oids(r.value) for r in ranges] == expected_ranges
    assert [[(d, o.oid) for d, o in r.value] for r in knns] == expected_knn
    # concurrent submissions of the same kind coalesced into shared batches
    assert manager is not None


def test_coalescing_batches_concurrent_requests():
    objects, manager = _manager()
    rects = _rects(objects, 16)

    async def main():
        async with CoalescingServer(manager) as server:
            futures = [server.submit_nowait(Request.range(r)) for r in rects]
            await asyncio.gather(*futures)
            return server.metrics.batches, server.metrics.coalesced

    batches, coalesced = _run(main())
    assert batches < len(rects)
    assert coalesced >= len(rects) - batches


def test_wrong_dimensionality_fails_alone_and_spares_the_breaker():
    """Bad input is the caller's error, not a backend failure.

    Regression: one 3-d rect coalesced with ten valid 2-d ones turned all
    eleven answers into errors, and a few malformed requests in a row
    opened the breaker, degrading the valid request that followed.
    """
    objects, manager = _manager()
    rects = _rects(objects, 10)
    box = Rect([0.0] * 3, [1.0] * 3)
    stray = SpatialObject(10**6, box)
    malformed = [
        Request.range(box),
        Request.knn((0.0, 0.0, 0.0), 2),
        Request.insert(stray),
        Request.delete(stray),
    ]

    async def main():
        async with CoalescingServer(manager) as server:
            futures = [server.submit_nowait(Request.range(r)) for r in rects]
            futures.insert(5, server.submit_nowait(Request.range(box)))
            mixed = await asyncio.gather(*futures)
            alone = await asyncio.gather(*map(server.submit_nowait, malformed))
            state = server.breaker.state
            after = await server.range_query(rects[0])
            return mixed, alone, state, after, server.report()

    mixed, alone, state, after, report = _run(main())
    assert [r.status for r in mixed] == ["ok"] * 5 + ["error"] + ["ok"] * 5
    for rect, response in zip(rects, mixed[:5] + mixed[6:]):
        assert _oids(response.value) == _oids(manager.range_query(rect))
    assert all(r.status == "error" and "dims" in r.error for r in alone)
    assert state == "closed" and report["breaker_opens"] == 0
    assert after.ok and not after.degraded
    assert manager.pending_ops == 0
    assert report["errors"] == 1 + len(malformed)


def test_nan_rectangle_fails_where_it_is_built():
    """A NaN bound never becomes a request, an indexed object or a batch-mate.

    Regression: ``Rect((nan, 0), (1, 1))`` used to construct (``nan > x``
    is False), was indexed by an insert, and was then returned by no query
    — not even an all-space one.  It now fails in the caller's own frame,
    before ``Request.range`` / ``Request.insert`` or the batcher see it.
    """
    nan, inf = float("nan"), float("inf")
    objects, manager = _manager()
    rects = _rects(objects, 6)
    bad_bounds = [((nan, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, nan)), ((nan, nan), (nan, nan))]

    async def main():
        async with CoalescingServer(manager) as server:
            futures = [server.submit_nowait(Request.range(r)) for r in rects[:3]]
            for low, high in bad_bounds:
                with pytest.raises(ValueError, match="NaN bound"):
                    futures.append(server.submit_nowait(Request.range(Rect(low, high))))
                with pytest.raises(ValueError, match="NaN bound"):
                    futures.append(
                        server.submit_nowait(Request.insert(SpatialObject(10**6, Rect(low, high))))
                    )
            futures += [server.submit_nowait(Request.range(r)) for r in rects[3:]]
            everything = await server.range_query(Rect((-inf, -inf), (inf, inf)))
            return await asyncio.gather(*futures), everything, server.report()

    answers, everything, report = _run(main())
    assert [r.status for r in answers] == ["ok"] * len(rects)
    for rect, response in zip(rects, answers):
        assert _oids(response.value) == _oids(manager.range_query(rect))
    # Nothing was written, and the all-space query still returns every object.
    assert manager.pending_ops == 0
    assert _oids(everything.value) == sorted(o.oid for o in objects)
    assert report["admitted"] == report["completed"] == len(rects) + 1
    assert report["errors"] == 0


def test_a_payload_of_the_wrong_type_fails_where_it_is_built():
    """A range payload that is not a ``Rect``, or a write payload that is
    not a ``SpatialObject``, never becomes a request.

    Regression: ``Request.range(obj)`` with a ``SpatialObject`` of the
    index's dims failed every range request batched with it with an
    ``AttributeError`` and counted a breaker failure; ``Request.insert(rect)``
    was acknowledged ``ok``, after which every managed read failed and the
    breaker opened.  Both now fail in the caller's own frame.
    """
    objects, manager = _manager()
    rects = _rects(objects, 6)
    stray = SpatialObject(10**6, rects[0])
    wrong_type = [
        lambda: Request.range(stray),
        lambda: Request.range(None),
        lambda: Request.insert(rects[0]),
        lambda: Request.delete(rects[0]),
        lambda: Request("insert", None),
    ]

    async def main():
        async with CoalescingServer(manager) as server:
            futures = [server.submit_nowait(Request.range(r)) for r in rects[:3]]
            for build in wrong_type:
                with pytest.raises(ValueError, match="payload must be a (Rect|SpatialObject)"):
                    futures.append(server.submit_nowait(build()))
            futures += [server.submit_nowait(Request.range(r)) for r in rects[3:]]
            answers = await asyncio.gather(*futures)
            after = await server.range_query(rects[0])
            return answers, after, server.breaker.state, server.report()

    answers, after, state, report = _run(main())
    assert [r.status for r in answers] == ["ok"] * len(rects)
    for rect, response in zip(rects, answers):
        assert _oids(response.value) == _oids(manager.range_query(rect))
    assert after.ok and not after.degraded
    assert state == "closed" and report["breaker_opens"] == 0
    assert manager.pending_ops == 0
    assert report["admitted"] == report["completed"] == len(rects) + 1
    assert report["errors"] == 0


def test_nan_knn_point_fails_where_it_is_built():
    """A NaN kNN point never becomes a request or a batch-mate.

    Regression: ``Request.knn((nan, 0), 3)`` used to construct, and the
    engine raised ``IndexError`` on the batch it rode in, so every valid
    kNN request coalesced with it came back ``error``; three in a row
    opened the breaker and the next valid request was served degraded.
    A string point failed its batch the same way.  Both now fail in the
    caller's own frame; ±inf coordinates still answer.
    """
    nan, inf = float("nan"), float("inf")
    objects, manager = _manager()
    points = [o.rect.low for o in objects[:10]]
    expected = [[(d, o.oid) for d, o in hits] for hits in manager.knn_batch(points, 3)]
    for index in (manager.snapshot, manager):
        with pytest.raises(ValueError, match="NaN coordinate"):
            index.knn_batch([(0.5, 0.5), (nan, 0.0)], 3)
    for bad in (lambda: Request.knn((nan, 0.0), 3), lambda: Request.knn(("a", "b"), 3),
                lambda: Request("knn", None), lambda: Request("knn", ((0.0, 0.0),))):
        with pytest.raises(ValueError, match="NaN coordinate|real numbers|pair"):
            bad()

    async def main():
        async with CoalescingServer(manager) as server:
            futures = [server.submit_nowait(Request.knn(p, 3)) for p in points[:5]]
            for _ in range(3):
                with pytest.raises(ValueError, match="NaN coordinate"):
                    futures.append(server.submit_nowait(Request.knn((nan, 0.0), 3)))
            # Wrong dims still reaches submit: the one bad request admitted.
            wrong = server.submit_nowait(Request.knn((0.0, 0.0, 0.0), 3))
            futures += [server.submit_nowait(Request.knn(p, 3)) for p in points[5:]]
            far = server.submit_nowait(Request.knn((inf, 0.0), 3))
            answers = await asyncio.gather(*futures)
            return answers, await wrong, await far, server.breaker.state, server.report()

    answers, wrong, far, state, report = _run(main())
    assert all(r.ok and not r.degraded for r in answers)
    assert [[(d, o.oid) for d, o in r.value] for r in answers] == expected
    assert wrong.status == "error" and "dims" in wrong.error
    assert far.ok and len(far.value) == 3
    assert state == "closed" and report["breaker_opens"] == 0
    assert report["errors"] == 1


#: ``(field, bad value)``: one row per checked ServeConfig field.
BAD_CONFIG_VALUES = [
    ("max_batch", 0),
    ("max_batch", -3),
    ("max_batch", 2.5),
    ("default_deadline", float("nan")),
    ("default_deadline", 0.0),
    ("default_deadline", -1.0),
    ("admission_rate", float("nan")),
    ("admission_rate", 0.0),
    ("admission_rate", -5.0),
    ("admission_burst", 0),
    ("admission_burst", 1.5),
    ("retry_max_attempts", 0),
    ("retry_max_attempts", 2.5),
    ("breaker_failure_threshold", 0),
    ("breaker_failure_threshold", 1.5),
    ("retry_base_delay", -0.001),
    ("retry_base_delay", float("nan")),
    ("retry_max_delay", -1.0),
    ("retry_max_delay", float("nan")),
    ("retry_max_delay", float("inf")),
    ("retry_jitter", -0.1),
    ("retry_jitter", float("nan")),
    ("retry_jitter", 1.5),
    ("breaker_cooldown", float("nan")),
    ("compact_threshold", 0),
    ("batch_window", float("nan")),
    ("batch_window", -0.001),
    ("batch_window", float("inf")),
]


@pytest.mark.parametrize("field, value", BAD_CONFIG_VALUES)
def test_config_rejects_values_that_would_silently_misbehave(field, value):
    with pytest.raises(ValueError, match=field):
        ServeConfig(**{field: value})


def test_a_server_allowed_thousands_of_attempts_still_answers():
    """Regression: ``retry_max_attempts=2000`` made ``RetryPolicy.delays()``
    raise ``2.0**1024``'s OverflowError, and every request answered error."""
    objects, manager = _manager()

    async def main():
        async with CoalescingServer(manager, ServeConfig(retry_max_attempts=2000)) as server:
            return await server.range_query(_rects(objects, 1)[0]), list(server.retry.delays())

    response, delays = _run(main())
    assert response.ok and response.retries == 0
    assert len(delays) == 1999 and max(delays) <= ServeConfig().retry_max_delay


def test_config_and_request_boundaries_that_stay_legal():
    inf = float("inf")
    assert ServeConfig(default_deadline=inf).default_deadline == inf
    assert ServeConfig(max_batch=1, compact_threshold=1, batch_window=0.0).max_batch == 1
    assert Request.range(Rect([0, 0], [1, 1]), deadline_s=inf).deadline_s == inf
    assert Request.knn((-inf, inf), 1).payload == ((-inf, inf), 1)
    with pytest.raises(ValueError, match="deadline_s"):
        Request.range(Rect([0, 0], [1, 1]), deadline_s=float("nan"))


def _recording(manager):
    """Record the payload lists the manager's range batches receive."""
    calls = []
    batch = manager.range_query_batch

    def recorded(rects, *args, **kwargs):
        calls.append(list(rects))
        return batch(rects, *args, **kwargs)

    manager.range_query_batch = recorded
    return calls


async def _held_lane(server, requests, while_held=None):
    """Submit ``requests`` while the lane is held, then release it."""
    async with server._execute_gate:
        futures = [server.submit_nowait(request) for request in requests]
        await asyncio.sleep(0.01)  # the batcher has its first item and queues
        if while_held is not None:
            while_held()
    return await asyncio.gather(*futures)


def test_requests_queued_behind_the_lane_share_one_batch():
    objects, manager = _manager()
    rects = _rects(objects, 10)
    calls = _recording(manager)

    async def main():
        async with CoalescingServer(manager, ServeConfig(max_batch=16)) as server:
            responses = await _held_lane(server, [Request.range(r) for r in rects])
            return responses, server.report()

    responses, report = _run(main())
    assert all(r.ok for r in responses)
    assert [_oids(r.value) for r in responses] == [_oids(manager.range_query(r)) for r in rects]
    assert calls[0] == rects and report["batches"] == 1 and report["coalesced"] == 9
    # Every one of them waited for the lane, and that wait is part of its latency.
    assert all(0 < r.queue_s <= r.latency_s for r in responses)
    assert report["queue_p50_ms"] > 0


def test_a_long_queue_is_cut_into_max_batch_turns_in_fifo_order():
    objects, manager = _manager()
    rects = _rects(objects, 9)
    calls = _recording(manager)

    async def main():
        async with CoalescingServer(manager, ServeConfig(max_batch=4)) as server:
            responses = await _held_lane(server, [Request.range(r) for r in rects])
            return responses, server.report()

    responses, report = _run(main())
    assert all(r.ok for r in responses)
    assert [len(call) for call in calls[:3]] == [4, 4, 1]
    assert [rect for call in calls[:3] for rect in call] == rects
    assert report["batches"] == 3


def test_a_deadline_that_passes_while_queued_for_the_lane_is_never_executed():
    objects, manager = _manager()
    short, long = _rects(objects, 2)
    calls = _recording(manager)
    clock = LogicalClock()

    async def main():
        async with CoalescingServer(manager, clock=clock) as server:
            requests = [Request.range(short, deadline_s=1.0), Request.range(long, deadline_s=5.0)]
            responses = await _held_lane(server, requests, lambda: clock.advance(2.0))
            return responses, server.report()

    (expired, served), report = _run(main())
    assert expired.status == "deadline" and "before execution" in expired.error
    assert served.ok and _oids(served.value) == _oids(manager.range_query(long))
    assert calls[0] == [long] and all(short not in call for call in calls)
    assert report["deadline_exceeded"] == 1 and report["batches"] == 1


def test_a_lone_request_on_an_idle_server_waits_for_no_window():
    """Regression: the batcher lingered ``batch_window`` seconds for a
    second request; the window is gone, a set value changes nothing."""
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]

    async def main():
        async with CoalescingServer(manager, ServeConfig(batch_window=10.0)) as server:
            return await asyncio.wait_for(server.range_query(rect), 1.0)

    response = _run(main())
    assert response.ok and _oids(response.value) == _oids(manager.range_query(rect))


def test_admission_shed_is_deterministic_on_logical_clock():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]
    config = ServeConfig(admission_rate=10.0, admission_burst=4)

    async def main():
        clock = LogicalClock()
        async with CoalescingServer(manager, config, clock=clock) as server:
            statuses = []
            for _ in range(8):  # no clock advance: only the burst admits
                statuses.append((await server.submit_nowait(Request.range(rect))).status)
            clock.advance(0.2)  # 2 tokens at 10/s
            for _ in range(3):
                statuses.append((await server.submit_nowait(Request.range(rect))).status)
            return statuses, server.metrics.shed

    statuses, shed = _run(main())
    assert statuses == ["ok"] * 4 + ["shed"] * 4 + ["ok", "ok", "shed"]
    assert shed == 5


def test_shed_response_is_explicit():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]
    config = ServeConfig(admission_rate=1.0, admission_burst=1)

    async def main():
        clock = LogicalClock()
        async with CoalescingServer(manager, config, clock=clock) as server:
            first = await server.submit_nowait(Request.range(rect))
            second = await server.submit_nowait(Request.range(rect))
            return first, second

    first, second = _run(main())
    assert first.ok
    assert second.status == "shed" and "overloaded" in second.error


def test_expired_deadline_is_never_served():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]

    async def main():
        clock = LogicalClock()
        async with CoalescingServer(manager, clock=clock) as server:
            future = server.submit_nowait(Request.range(rect, deadline_s=0.0))
            return await future

    response = _run(main())
    assert response.status == "deadline"
    assert response.value is None
    assert "deadline exceeded" in response.error


def test_transient_faults_are_retried_to_success():
    objects, manager = _manager()
    rects = _rects(objects, 6)
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=1, times=2, message="flaky")])
    config = ServeConfig(retry_base_delay=0.001, retry_max_delay=0.002)
    expected = [_oids(hits) for hits in manager.range_query_batch(rects)]

    async def main():
        async with CoalescingServer(manager, config, fault_plan=plan) as server:
            futures = [server.submit_nowait(Request.range(r)) for r in rects]
            responses = await asyncio.gather(*futures)
            return responses, server.report()

    responses, report = _run(main())
    assert all(r.ok and not r.degraded for r in responses)
    assert [_oids(r.value) for r in responses] == expected
    assert report["retries"] == 2
    assert report["faults_injected"] == 2
    assert report["breaker_opens"] == 0  # 2 failures < threshold 3


def test_retry_loop_backs_off_by_the_policys_delays(monkeypatch):
    """The server's one retry loop sleeps ``RetryPolicy.delays()`` in order."""
    objects, manager = _manager()
    # Two failures: one short of the breaker's threshold of three.
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=1, times=2)])
    config = ServeConfig(retry_seed=5, retry_base_delay=0.001, retry_max_delay=0.004)
    slept = []
    real_sleep = asyncio.sleep

    async def recording_sleep(seconds, *args, **kwargs):
        slept.append(seconds)
        await real_sleep(0)

    async def main():
        async with CoalescingServer(manager, config, fault_plan=plan) as server:
            monkeypatch.setattr(asyncio, "sleep", recording_sleep)
            response = await server.range_query(_rects(objects, 1)[0])
            monkeypatch.undo()
            return response, list(server.retry.delays())

    response, delays = _run(main())
    assert response.ok and not response.degraded and response.retries == 2
    assert slept == delays[:2] and slept[0] != slept[1]


def test_fault_burst_trips_breaker_and_degrades():
    objects, manager = _manager()
    rects = _rects(objects, 8)
    # burst longer than max_attempts: the victim batch exhausts retries
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=1, times=3)])
    config = ServeConfig(
        breaker_failure_threshold=3,
        breaker_cooldown=60.0,  # stays open for the whole test
        retry_max_attempts=5,
        retry_base_delay=0.001,
        retry_max_delay=0.002,
    )
    fresh = SpatialObject(10**6, Rect([0.0, 0.0], [1.0, 1.0]))
    base_snapshot = manager.view[0]

    async def main():
        clock = LogicalClock()
        async with CoalescingServer(manager, config, fault_plan=plan, clock=clock) as server:
            assert (await server.insert(fresh)).ok  # overlay now non-empty
            responses = await asyncio.gather(
                *[server.submit_nowait(Request.range(r)) for r in rects]
            )
            return responses, server.report()

    responses, report = _run(main())
    assert report["breaker_opens"] == 1
    assert report["retries"] == 3
    assert report["degraded_batches"] >= 1
    assert report["stale_served"] >= 1
    degraded = [r for r in responses if r.degraded]
    assert degraded, "breaker never engaged the degraded path"
    from repro.engine.executor import range_query_batch

    for response, rect in zip(responses, rects):
        assert response.ok
        if response.degraded:
            # stale-stamped: served from the frozen base, missing the
            # pending insert by design, and saying so
            assert response.stale
            assert _oids(response.value) == _oids(
                range_query_batch(base_snapshot, [rect])[0]
            )
        else:
            assert _oids(response.value) == _oids(manager.range_query(rect))


def test_breaker_recovers_after_cooldown():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]
    plan = FaultPlan([FaultSpec(BATCH_FAULT, at=1, times=3)])
    config = ServeConfig(
        breaker_failure_threshold=3,
        breaker_cooldown=0.5,
        retry_max_attempts=5,
        retry_base_delay=0.001,
        retry_max_delay=0.002,
    )

    async def main():
        clock = LogicalClock()
        async with CoalescingServer(manager, config, fault_plan=plan, clock=clock) as server:
            first = await server.submit_nowait(Request.range(rect))
            clock.advance(1.0)  # past the cooldown: half-open probe
            second = await server.submit_nowait(Request.range(rect))
            return first, second, server.breaker.state

    first, second, state = _run(main())
    assert first.ok and first.degraded
    assert second.ok and not second.degraded and not second.stale
    assert state == "closed"


def test_writes_and_reads_interleave():
    objects, manager = _manager()
    fresh = SpatialObject(10**6, Rect([50.0, 50.0], [51.0, 51.0]))
    probe = Rect([49.0, 49.0], [52.0, 52.0])

    async def main():
        async with CoalescingServer(manager) as server:
            before = await server.range_query(probe)
            assert (await server.insert(fresh)).ok
            after = await server.range_query(probe)
            deleted = await server.delete(fresh)
            gone = await server.range_query(probe)
            return before, after, deleted, gone

    before, after, deleted, gone = _run(main())
    assert 10**6 not in _oids(before.value)
    assert 10**6 in _oids(after.value)
    assert deleted.ok and deleted.value is True
    assert 10**6 not in _oids(gone.value)


def test_join_requests_match_overlay_join():
    objects, manager = _manager()
    probes = make_random_objects(40, dims=2, seed=9)
    expected = overlay_join(probes, manager, algorithm="inlj")

    async def main():
        async with CoalescingServer(manager) as server:
            return await server.join(probes=probes, algorithm="inlj")

    response = _run(main())
    assert response.ok
    assert response.value.pair_count == expected.pair_count
    assert [(a.oid, b.oid) for a, b in response.value.pairs] == [
        (a.oid, b.oid) for a, b in expected.pairs
    ]


def test_compaction_request_and_epoch_tracking():
    objects, manager = _manager()
    fresh = SpatialObject(10**6, Rect([1.0, 1.0], [2.0, 2.0]))

    async def main():
        async with CoalescingServer(manager) as server:
            assert (await server.insert(fresh)).ok
            compacted = await server.compact()
            probe = await server.range_query(Rect([0.0, 0.0], [3.0, 3.0]))
            return compacted, probe, server.report()

    compacted, probe, report = _run(main())
    assert compacted.ok
    assert report["compactions"] == 1
    assert report["epoch"] == 1
    assert 10**6 in _oids(probe.value)
    assert manager.pending_ops == 0


def test_injected_compaction_crash_is_retried():
    objects, manager = _manager()
    fresh = SpatialObject(10**6, Rect([1.0, 1.0], [2.0, 2.0]))
    plan = FaultPlan([FaultSpec(COMPACTION, at=1, message="compaction crash")])
    config = ServeConfig(retry_base_delay=0.001, retry_max_delay=0.002)

    async def main():
        async with CoalescingServer(manager, config, fault_plan=plan) as server:
            assert (await server.insert(fresh)).ok
            compacted = await server.compact()
            probe = await server.range_query(Rect([0.0, 0.0], [3.0, 3.0]))
            return compacted, probe, server.report()

    compacted, probe, report = _run(main())
    assert compacted.ok and compacted.retries == 1
    assert report["compaction_failures"] == 1
    assert report["compactions"] == 1
    assert report["retries"] == 1
    assert 10**6 in _oids(probe.value)


def test_background_compaction_trigger():
    objects, manager = _manager()
    config = ServeConfig(compact_threshold=3)

    async def main():
        async with CoalescingServer(manager, config) as server:
            for i in range(4):
                oid = 10**6 + i
                rect = Rect([float(i), 0.0], [float(i) + 1.0, 1.0])
                assert (await server.insert(SpatialObject(oid, rect))).ok
            for _ in range(200):
                if server.metrics.compactions:
                    break
                await asyncio.sleep(0.01)
            return server.report()

    report = _run(main())
    assert report["compactions"] >= 1
    assert report["snapshot_swaps"] >= 1
    assert manager.pending_ops < 4


def test_writes_that_cancel_out_schedule_one_background_compaction():
    """Regression: an insert deleted again left two ops pending with nothing
    buffered; the background compaction kept them, so every later write
    scheduled, and counted, another compaction."""
    _, manager = _manager()
    ghost = SpatialObject(10**6, Rect([0.0, 0.0], [1.0, 1.0]))
    other = SpatialObject(10**6 + 1, Rect([2.0, 0.0], [3.0, 1.0]))

    async def settle(server):
        while server._compaction_task is not None and not server._compaction_task.done():
            await asyncio.sleep(0.01)

    async def main():
        async with CoalescingServer(manager, ServeConfig(compact_threshold=2)) as server:
            assert (await server.insert(ghost)).ok
            assert (await server.delete(ghost)).value is True
            await settle(server)
            assert (await server.insert(other)).ok
            await settle(server)
            return server.report()

    report = _run(main())
    assert report["compactions"] == 1
    assert manager.pending_ops == 1


def test_stop_resolves_queued_requests_and_rejects_new_ones():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]

    async def main():
        server = CoalescingServer(manager)
        await server.start()
        ok = await server.submit_nowait(Request.range(rect))
        await server.stop()
        rejected = await server.submit_nowait(Request.range(rect))
        return ok, rejected

    ok, rejected = _run(main())
    assert ok.ok
    assert rejected.status == "error" and "not running" in rejected.error


def test_a_request_failed_by_stop_is_counted():
    """Regression: stop() answers what is left in a queue with no batcher
    to take it ``server stopped``, and counted those errors nowhere, so
    ``admitted`` outran completed + deadline_exceeded + errors."""
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]

    async def main():
        server = CoalescingServer(manager)
        await server.start()
        server._batchers[0].cancel()  # the range queue's
        await asyncio.sleep(0)
        pending = server.submit_nowait(Request.range(rect))
        await server.stop()
        return await pending, server.report()

    response, report = _run(main())
    assert response.status == "error" and "server stopped" in response.error
    assert report["admitted"] == report["errors"] == 1


def test_report_shape():
    objects, manager = _manager()
    rect = _rects(objects, 1)[0]

    async def main():
        async with CoalescingServer(manager) as server:
            await server.range_query(rect)
            return server.report()

    report = _run(main())
    for key in ("offered", "admitted", "shed", "completed", "retries",
                "breaker_opens", "faults_injected", "p50_ms", "p99_ms",
                "qps", "breaker_state", "epoch"):
        assert key in report
    assert report["offered"] == report["admitted"] == report["completed"] == 1
    assert report["breaker_state"] == "closed"
    assert isinstance(Response(status="ok").ok, bool)


def test_report_counts_a_compaction_run_beside_an_idle_server():
    """``snapshot_swaps`` is the manager's epochs since the server was built."""
    objects, manager = _manager()
    manager.insert(SpatialObject(10**6, Rect([1.0, 1.0], [2.0, 2.0])))
    manager.compact()  # before the server: not its swap

    async def main():
        async with CoalescingServer(manager) as server:
            before = server.report()
            manager.insert(SpatialObject(10**6 + 1, Rect([3.0, 3.0], [4.0, 4.0])))
            await asyncio.to_thread(manager.compact)
            return before, server.report()

    before, after = _run(main())
    assert before["snapshot_swaps"] == 0 and before["epoch"] == 1
    assert after["snapshot_swaps"] == 1 and after["epoch"] == 2
    assert after["batches"] == 0 and after["compactions"] == 0


def test_report_counts_every_breaker_trip():
    """``breaker_opens`` is the breaker's own count, a forced trip included."""
    objects, manager = _manager()

    async def main():
        async with CoalescingServer(manager) as server:
            server.breaker.force_open()
            degraded = await server.range_query(_rects(objects, 1)[0])
            return degraded, server.report()

    degraded, report = _run(main())
    assert degraded.ok and degraded.degraded
    assert report["breaker_opens"] == 1 and report["degraded_batches"] == 1
    assert report["breaker_state"] == "open"


# ----------------------------------------------------------------------
# one answering function, two backends
# ----------------------------------------------------------------------


def _answer_values(server, kind, requests, backend, stale):
    """``server._answer`` output reduced to comparable ``(status, ids, stale)``."""
    items = [SimpleNamespace(request=request, outcome=None) for request in requests]
    out = []
    for status, value, stamped in server._answer(kind, items, backend, stale):
        if kind == "range":
            ids = _oids(value)
        elif kind == "knn":
            ids = [(d, o.oid) for d, o in value]
        else:
            ids = sorted((a.oid, b.oid) for a, b in value.pairs)
            assert value.pair_count == len(ids)
        out.append((status, ids, stamped))
    return out


def _query_batches(objects, other):
    probes = make_random_objects(25, dims=2, seed=9)
    return [
        ("range", [Request.range(r) for r in _rects(objects, 8)]),
        ("knn", [Request.knn(o.rect.low, k) for k, o in enumerate(objects[:5], start=1)]),
        ("join", [Request.join(probes=probes, algorithm="inlj")]),
        ("join", [Request.join(other=other, algorithm="stt")]),
    ]


def test_fresh_and_frozen_backends_answer_alike_on_a_clean_overlay():
    objects, manager = _manager()
    other = ColumnarIndex.from_tree(
        build_rtree("rstar", make_random_objects(60, dims=2, seed=21), max_entries=8)
    )
    server = CoalescingServer(manager)
    frozen = manager.snapshot
    for kind, requests in _query_batches(objects, other):
        fresh = _answer_values(server, kind, requests, manager, stale=False)
        base = _answer_values(server, kind, requests, frozen, stale=False)
        assert fresh == base
        assert all(status == "ok" and not stamped for status, _, stamped in fresh)
        assert any(ids for _, ids, _ in fresh), "vacuous batch"


def test_frozen_backend_serves_the_base_and_stamps_it_when_writes_are_pending():
    objects, manager = _manager()
    other = ColumnarIndex.from_tree(
        build_rtree("rstar", make_random_objects(60, dims=2, seed=21), max_entries=8)
    )
    server = CoalescingServer(manager)
    batches = _query_batches(objects, other)
    clean = [
        _answer_values(server, kind, requests, manager, stale=False)
        for kind, requests in batches
    ]
    # One pending insert inside the first query window, one pending delete.
    window = _rects(objects, 8)[0]
    manager.insert(SpatialObject(10**6, Rect(window.low, window.high)))
    assert manager.delete(objects[0])
    frozen = manager.snapshot
    for (kind, requests), before in zip(batches, clean):
        base = _answer_values(server, kind, requests, frozen, stale=True)
        # base-only values: exactly what the clean index answered ...
        assert [(status, ids) for status, ids, _ in base] == [
            (status, ids) for status, ids, _ in before
        ]
        # ... and every one of them says it may be missing writes.
        assert all(stamped for _, _, stamped in base)
        live = _answer_values(server, kind, requests, manager, stale=False)
        assert not any(stamped for _, _, stamped in live)
    live_ranges = _answer_values(server, "range", batches[0][1], manager, stale=False)
    assert 10**6 in live_ranges[0][1] and objects[0].oid not in live_ranges[0][1]


def test_degraded_mode_keeps_its_write_rules():
    """Refuses ``compact`` and never compacts; writes still land, mid-fold too."""
    objects, manager = _manager()
    config = ServeConfig(compact_threshold=1, breaker_cooldown=60.0)
    in_hook, release = threading.Event(), threading.Event()
    late = SpatialObject(10**6 + 9, Rect([9.0, 9.0], [9.5, 9.5]))

    def stall_compaction():
        in_hook.set()
        assert release.wait(timeout=10)

    async def main():
        async with CoalescingServer(manager, config) as server:
            server.breaker.force_open()
            inserts = [
                await server.insert(
                    SpatialObject(10**6 + i, Rect([float(i), 0.0], [i + 1.0, 1.0]))
                )
                for i in range(3)
            ]
            background = server._compaction_task
            refused = await server.compact()
            # An outside compaction is mid-flight while a degraded delete arrives:
            # it applies at once, and the outside fold's swap keeps it.
            manager.compaction_fault_hook = stall_compaction
            outside = asyncio.create_task(asyncio.to_thread(manager.compact))
            assert await asyncio.to_thread(in_hook.wait, 10)
            raced, neighbour = await asyncio.gather(
                server.delete(objects[0]), server.insert(late)
            )
            release.set()
            await outside
            manager.compaction_fault_hook = None
            return inserts, background, refused, raced, neighbour, server.report()

    inserts, background, refused, raced, neighbour, report = _run(main())
    assert all(r.ok and r.degraded and not r.stale for r in inserts)
    assert background is None and report["compactions"] == 0
    assert refused.status == "error" and refused.degraded
    assert "refused while degraded" in refused.error
    assert raced.ok and raced.value is True and raced.degraded and raced.retries == 0
    assert neighbour.ok and neighbour.degraded
    assert manager.epoch == 1 and manager.pending_ops == 2  # both replayed after the swap
    assert objects[0].oid not in _oids(manager.range_query(objects[0].rect))
    assert late.oid in _oids(manager.range_query(late.rect))


def test_degraded_join_with_an_empty_probe_list():
    """Regression: ``probes=[]`` fell through ``probes or other`` to
    ``list(None)`` and failed the whole degraded batch."""
    _, manager = _manager(count=60)

    async def main():
        async with CoalescingServer(manager) as server:
            server.breaker.force_open()
            return await server.join(probes=[], algorithm="inlj")

    response = _run(main())
    assert response.ok and response.degraded
    assert response.value.pair_count == 0 and response.value.pairs == []
