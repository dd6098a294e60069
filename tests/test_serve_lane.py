"""The server's one execution lane, and the compaction that takes turns on it.

Every batch execution and every *step* of the background compaction
(``SnapshotManager.compact_step``, then ``compact`` for the swap) holds
``CoalescingServer._execute_gate`` for one turn.  Pinned here: nothing
ever runs beside anything else, batches do get their turns while a
compaction is under way and read the old view until the swap, a failed or
interrupted compaction leaves an exact view behind, a write that meets the
compaction is answered beside it while a ``compact`` finishes it, and the
write queue's turns are per item.
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
from tests.conftest import fail_after_write, make_random_objects

#: Every server a test starts ends it with each admitted request accounted for.
pytestmark = pytest.mark.usefixtures("requests_accounted")


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
    """A zero budget: one applied write per step."""
    monkeypatch.setattr(delta, "_SLICE_SECONDS", 0.0)


class _InFlight:
    """Counts the threads inside the manager's entry points, and the fold's steps.

    A step is counted wherever it runs: in a ``compact_step`` turn, or
    inside the ``compact()`` of a turn that runs the fold to its swap.
    """

    ENTRY_POINTS = ("range_query_batch", "knn_batch", "insert", "delete", "compact_step", "compact")

    def __init__(self, manager):
        self.lock = threading.Lock()
        self.now = self.peak = self.calls = self.steps = 0
        for name in self.ENTRY_POINTS:
            setattr(manager, name, self._counted(getattr(manager, name)))
        fold_steps = manager._fold_steps

        def counted_steps(fold):
            for more in fold_steps(fold):
                self.steps += 1
                yield more

        manager._fold_steps = counted_steps

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
    assert inflight.steps > 50 and inflight.calls > 100
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
            reads_at_step = []
            step = manager.compact_step

            def counted_step():
                reads_at_step.append(len(reads))
                return step()

            manager.compact_step = counted_step
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            assert server._compaction_task is not None
            while not server._compaction_task.done():
                reads.append(await server.range_query(probe))
            after = await server.range_query(probe)
            return reads, reads_at_step, after

    reads, reads_at_step, after = asyncio.run(main())
    assert len(reads_at_step) >= 3
    # Reads were answered between its steps: the old snapshot, every insert.
    during = reads[: reads_at_step[-1]]
    assert len(during) >= 3 and reads_at_step[-1] > reads_at_step[0]
    assert all(r.ok and r.epoch == 0 and _oids(r.value) == expected for r in during)
    assert after.epoch == 1 and _oids(after.value) == expected
    assert manager.pending_ops == 0


def test_a_failure_in_a_late_step_leaves_an_exact_view(thin_slices):
    objects, manager = _manager()
    rng = random.Random(11)
    inserts = [_fresh(i, rng) for i in range(20)]
    late = _fresh(500, rng)
    config = ServeConfig(compact_threshold=20, breaker_failure_threshold=100)

    async def main():
        async with CoalescingServer(manager, config) as server:
            # Well past the first write to the source tree.
            fail_after_write(manager, 12, OSError("lane lost"))
            before = manager.view[0]
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            # Lands between two steps: staged by the manager.
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


def _stalled_compaction(manager):
    """A fault hook that holds the fold's first step until released."""
    started, release = threading.Event(), threading.Event()

    def stall():
        started.set()
        assert release.wait(timeout=10)

    manager.compaction_fault_hook = stall
    return started, release


def test_a_delete_that_meets_the_compaction_is_answered_beside_it(thin_slices):
    """It applies in its own turn, with no retry and no swap: the fold is
    still in flight when it is answered, and the swap keeps the delete."""
    objects, manager = _manager()
    rng = random.Random(17)
    inserts = [_fresh(i, rng) for i in range(30)]
    victim = objects[5]

    async def main():
        async with CoalescingServer(manager, ServeConfig(compact_threshold=30)) as server:
            started, release = _stalled_compaction(manager)
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            assert await asyncio.to_thread(started.wait, 10)
            # The compaction's first step holds the lane; the delete queues behind it.
            deleted = server.submit_nowait(Request.delete(victim))
            release.set()
            deleted = await deleted
            in_flight = manager.compacting
            manager.compaction_fault_hook = None
            await server._compaction_task
            return deleted, in_flight, await server.range_query(_window(victim)), server.report()

    deleted, in_flight, probe, report = asyncio.run(main())
    assert deleted.ok and deleted.value is True and deleted.retries == 0
    assert in_flight and deleted.epoch == 0
    assert probe.ok and probe.epoch == 1 and victim.oid not in _oids(probe.value)
    assert report["retries"] == 0 and report["errors"] == 0 and report["compactions"] == 1
    assert manager.pending_ops == 1  # the delete, replayed onto the fresh overlay


def test_a_compact_that_meets_the_compaction_finishes_it_and_folds_what_came_before(
    thin_slices,
):
    """Regression: it used to sleep through its retry back-off holding the
    gate — with the compaction itself waiting on that gate, until the
    retries ran out."""
    objects, manager = _manager()
    rng = random.Random(17)
    inserts = [_fresh(i, rng) for i in range(30)]
    victim, late = objects[5], _fresh(99, rng)

    async def main():
        async with CoalescingServer(manager, ServeConfig(compact_threshold=30)) as server:
            started, release = _stalled_compaction(manager)
            await asyncio.gather(*(server.insert(obj) for obj in inserts))
            assert await asyncio.to_thread(started.wait, 10)
            # The compaction is under way; all three queue behind its step.
            queued = [
                server.submit_nowait(Request.delete(victim)),
                server.submit_nowait(Request.insert(late)),
                server.submit_nowait(Request.compact()),
            ]
            release.set()
            answers = await asyncio.gather(*queued)
            manager.compaction_fault_hook = None
            return answers, await server.range_query(_window(victim)), server.report()

    (deleted, inserted, compacted), probe, report = asyncio.run(main())
    assert all(r.ok and r.retries == 0 for r in (deleted, inserted, compacted))
    assert deleted.value is True
    # The background fold swapped first; the compact folded the two writes.
    stats = compacted.value
    assert (stats.applied_inserts, stats.applied_deletes) == (1, 1)
    assert compacted.epoch == 2 and manager.epoch == 2 and not manager.compacting
    assert manager.pending_ops == 0 and report["compactions"] == 2
    assert victim.oid not in _oids(probe.value)
    assert report["retries"] == 0 and report["errors"] == 0
    assert _oids(manager.range_query(late.rect)).count(late.oid) == 1


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
