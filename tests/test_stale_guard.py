"""Stale-snapshot detection: frozen indexes must not silently lie.

A ``ColumnarIndex`` freezes one structure version of its source; once
the source mutates, serving the freeze silently returns pre-mutation
results.  ``execute_workload`` and ``execute_join`` now resolve such
snapshots through an explicit policy: refresh (default), raise, or
knowingly serve the frozen state.
"""

import pytest

from repro.engine import ColumnarIndex, StaleSnapshotError, resolve_stale
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.join.stt import synchronized_tree_traversal_join
from repro.query.range_query import brute_force_range, execute_workload
from repro.rtree.registry import build_rtree
from tests.conftest import make_random_objects


@pytest.fixture
def mutated_setup():
    """A snapshot frozen before 30 extra objects landed in its source."""
    objects = make_random_objects(60, seed=31)
    tree = build_rtree("quadratic", objects, max_entries=8)
    snapshot = ColumnarIndex.from_tree(tree)
    extra = make_random_objects(30, seed=32)
    extra = [SpatialObject(1000 + i, o.rect) for i, o in enumerate(extra)]
    for obj in extra:
        tree.insert(obj)
    return tree, snapshot, objects + extra


class TestResolveStale:
    def test_fresh_snapshot_passes_through(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        fresh = ColumnarIndex.from_tree(tree)
        assert resolve_stale(fresh, "raise") is fresh

    def test_refresh_returns_current_freeze(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        assert snapshot.is_stale
        refreshed = resolve_stale(snapshot, "refresh")
        assert not refreshed.is_stale
        assert len(refreshed.objects) == len(tree)

    def test_raise_policy(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        with pytest.raises(StaleSnapshotError):
            resolve_stale(snapshot, "raise")

    def test_serve_policy_keeps_frozen_state(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        assert resolve_stale(snapshot, "serve") is snapshot

    def test_unknown_policy_rejected(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        with pytest.raises(ValueError):
            resolve_stale(snapshot, "panic")


class TestWorkloadStaleGuard:
    def test_default_refresh_serves_current_data(self, mutated_setup):
        _, snapshot, live = mutated_setup
        query = Rect((0, 0), (100, 100))
        result = execute_workload(snapshot, [query])
        assert result.total_results == len(brute_force_range(live, query))

    def test_raise_policy_surfaces_staleness(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        with pytest.raises(StaleSnapshotError):
            execute_workload(snapshot, [Rect((0, 0), (100, 100))], stale="raise")

    def test_serve_policy_answers_from_the_freeze(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        query = Rect((0, 0), (100, 100))
        served = execute_workload(snapshot, [query], stale="serve")
        # The frozen state predates the 30 extra objects.
        assert served.total_results == len(
            brute_force_range(list(snapshot.objects), query)
        )


class TestJoinStaleGuard:
    def test_default_refresh_matches_scalar_join(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        other = build_rtree("quadratic", make_random_objects(40, seed=33), max_entries=8)
        managed = execute_join(snapshot, other, algorithm="stt")
        scalar = synchronized_tree_traversal_join(tree, other)
        assert managed.pair_count == scalar.pair_count

    def test_raise_policy(self, mutated_setup):
        _, snapshot, _ = mutated_setup
        other = build_rtree("quadratic", make_random_objects(40, seed=33), max_entries=8)
        with pytest.raises(StaleSnapshotError):
            execute_join(snapshot, other, algorithm="stt", stale="raise")

    def test_serve_policy_joins_the_freeze(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        other = build_rtree("quadratic", make_random_objects(40, seed=33), max_entries=8)
        served = execute_join(snapshot, other, algorithm="stt", stale="serve")
        fresh = execute_join(tree, other, algorithm="stt")
        # The frozen side misses the post-freeze inserts, so it can only
        # produce a subset of the fresh join's pairs.
        assert served.pair_count <= fresh.pair_count
        served_keys = {
            ((l.oid, l.rect.low, l.rect.high), (r.oid, r.rect.low, r.rect.high))
            for l, r in served.pairs
        }
        fresh_keys = {
            ((l.oid, l.rect.low, l.rect.high), (r.oid, r.rect.low, r.rect.high))
            for l, r in fresh.pairs
        }
        assert served_keys <= fresh_keys


class TestServeStaleUnderBreaker:
    """The server's breaker-degraded path is the ``"serve"`` policy online.

    When the circuit breaker opens, :class:`CoalescingServer` answers
    queries from the frozen base snapshot via ``resolve_stale(snapshot,
    "serve")`` — exactly the policy pinned above, but the staleness that
    ``execute_workload(stale="serve")`` leaves implicit must surface in
    the response metadata: ``stale=True`` whenever the answer can be
    missing pending writes, ``stale=False`` when the frozen base happens
    to be the complete truth.
    """

    @staticmethod
    def _server_setup(count=120, seed=41):
        import asyncio

        from repro.engine import SnapshotManager
        from repro.serve.server import CoalescingServer, Request

        objects = make_random_objects(count, seed=seed)
        tree = build_rtree("rstar", objects, max_entries=8)
        manager = SnapshotManager(tree)
        return asyncio, CoalescingServer, Request, objects, manager

    def test_degraded_answer_with_pending_writes_is_stale_stamped(self):
        asyncio, CoalescingServer, Request, objects, manager = self._server_setup()
        base_snapshot = manager.snapshot
        probe = Rect((0, 0), (100, 100))
        extra = SpatialObject(9_999, Rect((1.0, 1.0), (2.0, 2.0)))

        async def main():
            async with CoalescingServer(manager) as server:
                await server.insert(extra)  # lands in the overlay
                server.breaker.force_open()
                return await server.range_query(probe)

        response = asyncio.run(main())
        assert response.ok and response.degraded
        # the overlay holds a pending insert the frozen base cannot see:
        # the answer MUST be stamped stale
        assert response.stale
        served_oids = {o.oid for o in response.value}
        assert extra.oid not in served_oids
        # and it is exactly the "serve" policy's answer over the base
        frozen = resolve_stale(base_snapshot, "serve")
        expected = {
            o.oid for o in brute_force_range(list(frozen.objects), probe)
        }
        assert served_oids == expected

    def test_degraded_answer_without_pending_writes_is_not_stale(self):
        asyncio, CoalescingServer, Request, objects, manager = self._server_setup()
        probe = Rect((0, 0), (100, 100))

        async def main():
            async with CoalescingServer(manager) as server:
                server.breaker.force_open()
                return await server.range_query(probe)

        response = asyncio.run(main())
        assert response.ok and response.degraded
        # empty overlay + fresh base: the frozen answer is complete truth
        assert not response.stale
        assert {o.oid for o in response.value} == {
            o.oid for o in brute_force_range(objects, probe)
        }

    def test_degraded_knn_is_stale_stamped(self):
        asyncio, CoalescingServer, Request, objects, manager = self._server_setup()
        extra = SpatialObject(9_998, Rect((50.0, 50.0), (51.0, 51.0)))

        async def main():
            async with CoalescingServer(manager) as server:
                await server.insert(extra)
                server.breaker.force_open()
                return await server.knn((50.0, 50.0), 4)

        response = asyncio.run(main())
        assert response.ok and response.degraded and response.stale
        assert all(hit.oid != extra.oid for _d, hit in response.value)

    def test_recovered_server_serves_fresh_unstamped(self):
        """After the cooldown's half-open probe succeeds, answers include
        the overlay again and drop the stale stamp."""
        asyncio, CoalescingServer, Request, objects, manager = self._server_setup()
        from repro.serve.server import ServeConfig

        probe = Rect((0, 0), (100, 100))
        extra = SpatialObject(9_997, Rect((3.0, 3.0), (4.0, 4.0)))
        config = ServeConfig(breaker_cooldown=0.01)

        async def main():
            async with CoalescingServer(manager, config) as server:
                await server.insert(extra)
                server.breaker.force_open()
                degraded = await server.range_query(probe)
                await asyncio.sleep(0.03)  # past the cooldown: half-open
                fresh = await server.range_query(probe)
                return degraded, fresh

        degraded, fresh = asyncio.run(main())
        assert degraded.stale and degraded.degraded
        assert fresh.ok and not fresh.stale and not fresh.degraded
        assert extra.oid in {o.oid for o in fresh.value}
        assert extra.oid not in {o.oid for o in degraded.value}
