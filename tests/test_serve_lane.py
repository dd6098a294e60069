"""The server's one execution lane, and the compaction that takes turns on it.

Every batch execution and every *slice* of the background compaction
holds ``CoalescingServer._execute_gate``; ``SnapshotManager.compact(pause=…)``
gives the lane up between slices.  Pinned here: nothing ever runs beside
anything else, batches do get their turns while a compaction is under way
and read the old view until the swap, a failed or interrupted compaction
leaves an exact view behind, and the write queue's turns are per item.
"""

import asyncio
import random
import threading

import pytest

from repro.engine import SnapshotManager, delta
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree
from repro.serve.server import CoalescingServer, Request, ServeConfig
from tests.conftest import make_random_objects


def _manager(count=300, seed=3):
    objects = make_random_objects(count, dims=2, seed=seed)
    tree = ClippedRTree.wrap(build_rtree("rstar", objects, max_entries=8), method="stairline")
    return objects, SnapshotManager(tree)


def _fresh(i, rng):
    x, y = rng.uniform(0, 95), rng.uniform(0, 95)
    return SpatialObject(10**6 + i, Rect([x, y], [x + 1.0, y + 1.0]))


def _oids(hits):
    return sorted(obj.oid for obj in hits)


def _window(obj, pad=1.5):
    return Rect([c - pad for c in obj.rect.low], [c + pad for c in obj.rect.high])


@pytest.fixture
def thin_slices(monkeypatch):
    """A zero budget: the fold pauses after every applied write."""
    monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)


class _InFlight:
    """Counts the threads inside the manager's entry points, pauses excluded."""

    ENTRY_POINTS = ("range_query_batch", "knn_batch", "insert", "delete")

    def __init__(self, manager):
        self.lock = threading.Lock()
        self.now = self.peak = self.calls = self.pauses = 0
        for name in self.ENTRY_POINTS:
            setattr(manager, name, self._counted(getattr(manager, name)))
        compact = manager.compact

        def counted_compact(pause=None):
            def counted_pause():
                self.pauses += 1
                self._move(-1)
                try:
                    pause()
                finally:
                    self._move(+1)

            return self._counted(compact)(pause=counted_pause if pause else None)

        manager.compact = counted_compact

    def _move(self, step):
        with self.lock:
            self.now += step
            self.peak = max(self.peak, self.now)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            self._move(+1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._move(-1)

        return counted


def test_nothing_ever_runs_beside_anything_else(thin_slices):
    """A seeded mixed stream over several background compactions: at most
    one thread is inside the manager at any moment, compaction slices
    included."""
    objects, manager = _manager()
    inflight = _InFlight(manager)
    rng = random.Random(41)
    requests = []
    for i in range(400):
        roll = rng.random()
        if roll < 0.35:
            requests.append(Request.insert(_fresh(i, rng)))
        elif roll < 0.40:
            requests.append(Request.delete(objects[i % len(objects)]))
        elif roll < 0.41:
            requests.append(Request.compact())
        elif roll < 0.75:
            requests.append(Request.range(_window(rng.choice(objects))))
        else:
            requests.append(Request.knn(rng.choice(objects).rect.center, 3))
    config = ServeConfig(compact_threshold=15)

    async def main():
        async with CoalescingServer(manager, config) as server:
            stream = iter(requests)

            async def caller():
                return [await server.submit_nowait(request) for request in stream]

            answers = await asyncio.gather(*(caller() for _ in range(12)))
            return [r for part in answers for r in part], server.report()

    responses, report = asyncio.run(main())
    assert all(r.ok and r.retries == 0 for r in responses)
    assert report["compactions"] >= 3 and report["compaction_failures"] == 0
    assert inflight.pauses > 50 and inflight.calls > 100
    assert inflight.peak == 1


def test_batches_take_turns_with_the_compaction_and_read_the_old_view(monkeypatch):
    monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0005)
    objects, manager = _manager(count=600)
    rng = random.Random(7)
    inserts = [_fresh(i, rng) for i in range(100)]
    probe = _window(objects[0], pad=20.0)
    expected = _oids(obj for obj in objects + inserts if obj.rect.intersects(probe))
    config = ServeConfig(compact_threshold=100)

    async def main():
        async with CoalescingServer(manager, config) as server:
            reads = []
            reads_at_pause = []
            pause = server._compaction_pause

            def counted_pause():
                reads_at_pause.append(len(reads))
                pause()

            server._compaction_pause = counted_pause
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            assert server._compaction_task is not None
            while not server._compaction_task.done():
                reads.append(await server.range_query(probe))
            after = await server.range_query(probe)
            return reads, reads_at_pause, after

    reads, reads_at_pause, after = asyncio.run(main())
    assert len(reads_at_pause) >= 3
    # Reads were answered between its pauses: the old snapshot, every insert.
    during = reads[: reads_at_pause[-1]]
    assert len(during) >= 3 and reads_at_pause[-1] > reads_at_pause[0]
    assert all(r.ok and r.epoch == 0 and _oids(r.value) == expected for r in during)
    assert after.epoch == 1 and _oids(after.value) == expected
    assert manager.pending_ops == 0


def test_a_failure_in_a_late_slice_leaves_an_exact_view(thin_slices):
    objects, manager = _manager()
    rng = random.Random(11)
    inserts = [_fresh(i, rng) for i in range(20)]
    late = _fresh(500, rng)
    config = ServeConfig(compact_threshold=20, breaker_failure_threshold=100)

    async def main():
        async with CoalescingServer(manager, config) as server:
            pause = server._compaction_pause
            calls = []

            def failing_pause():
                calls.append(None)
                if len(calls) == 12:  # well past the first write to the source tree
                    raise OSError("lane lost")
                pause()

            server._compaction_pause = failing_pause
            before = manager.view[0]
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            # Lands between two slices: staged by the manager.
            staged = await server.insert(late)
            await asyncio.wait([server._compaction_task])
            seen = await asyncio.gather(
                *(server.range_query(_window(obj)) for obj in inserts + [late])
            )
            return before, staged, seen, server.report()

    before, staged, seen, report = asyncio.run(main())
    assert report["compaction_failures"] == 1 and report["compactions"] == 0
    assert manager.epoch == 0 and manager.view[0] is before
    assert staged.ok and manager.pending_ops == len(inserts) + 1
    for obj, response in zip(inserts + [late], seen):
        assert response.ok and _oids(response.value).count(obj.oid) == 1
    # The source tree was ahead of the view: the manager dropped it, and the
    # next compaction thaws the published snapshot and folds each write once.
    stats = manager.compact()
    assert manager.epoch == 1 and manager.pending_ops == 0
    assert stats.applied_inserts == len(inserts) + 1
    live = objects + inserts + [late]
    assert len(manager) == len(live)
    for obj in inserts + [late]:
        assert _oids(manager.range_query(_window(obj))) == _oids(
            other for other in live if other.rect.intersects(_window(obj))
        )


def test_stop_during_a_compaction_returns_with_it_complete(thin_slices):
    objects, manager = _manager()
    rng = random.Random(13)
    inserts = [_fresh(i, rng) for i in range(40)]

    async def main():
        server = CoalescingServer(manager, ServeConfig(compact_threshold=40))
        await server.start()
        await asyncio.gather(*(server.insert(obj) for obj in inserts))
        task = server._compaction_task
        assert task is not None and not task.done()
        await server.stop()
        return task, server.report()

    task, report = asyncio.run(main())
    assert task.done() and task.exception() is None
    assert report["compactions"] == 1 and manager.epoch == 1 and manager.pending_ops == 0
    for obj in inserts:
        assert obj.oid in _oids(manager.range_query(obj.rect))


def test_a_delete_that_meets_the_compaction_finishes_it_and_applies(thin_slices):
    """Regression: it used to sleep through its retry back-off holding the
    gate — with the compaction itself waiting on that gate, until the
    retries ran out."""
    objects, manager = _manager()
    rng = random.Random(17)
    inserts = [_fresh(i, rng) for i in range(30)]
    victim = objects[5]
    started, release = threading.Event(), threading.Event()

    def stall():
        started.set()
        assert release.wait(timeout=10)

    async def main():
        async with CoalescingServer(manager, ServeConfig(compact_threshold=30)) as server:
            manager.compaction_fault_hook = stall
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            assert await asyncio.to_thread(started.wait, 10)
            # The compaction is under way; both requests queue behind its slice.
            deleted = server.submit_nowait(Request.delete(victim))
            compacted = server.submit_nowait(Request.compact())
            release.set()
            deleted, compacted = await asyncio.gather(deleted, compacted)
            manager.compaction_fault_hook = None
            return deleted, compacted, await server.range_query(_window(victim)), server.report()

    deleted, compacted, probe, report = asyncio.run(main())
    assert deleted.ok and deleted.value is True and deleted.retries == 0
    assert compacted.ok and compacted.retries == 0
    assert deleted.epoch >= 1  # applied after the background compaction's swap
    assert victim.oid not in _oids(probe.value)
    assert report["retries"] == 0 and report["errors"] == 0
    assert victim.oid not in _oids(manager.range_query(victim.rect))


def test_a_bad_insert_in_a_coalesced_write_turn_errors_alone():
    objects, manager = _manager(count=60)
    rng = random.Random(19)
    good = [_fresh(i, rng) for i in range(4)]
    bad = SpatialObject(10**6 + 99, Rect([0.0] * 3, [1.0] * 3))
    batch = good[:2] + [bad] + good[2:]

    async def main():
        async with CoalescingServer(manager) as server:
            server._dims_mismatch = lambda request: None  # let it reach the batch
            responses = await asyncio.gather(*(server.insert(obj) for obj in batch))
            return responses, server.report(), server.breaker.state

    responses, report, state = asyncio.run(main())
    assert [r.status for r in responses] == ["ok", "ok", "error", "ok", "ok"]
    assert "dims" in responses[2].error
    assert report["batches"] == 1 and report["coalesced"] == 4
    assert report["errors"] == 1 and report["retries"] == 0 and state == "closed"
    assert manager.pending_ops == 4
    for obj in good:
        assert _oids(manager.range_query(obj.rect)).count(obj.oid) == 1
