"""Stale-snapshot detection: frozen indexes must not silently lie.

A ``ColumnarIndex`` freezes one structure version of its source; once
the source mutates, serving the freeze silently returns pre-mutation
results.  ``execute_workload`` and ``execute_join`` re-freeze such a
snapshot before answering from it — on every batched side of a join, a
``SnapshotManager``'s neighbour included.  The one place a frozen state
is knowingly served is the server's degraded path, which says so.
"""

import pytest

from repro.engine import ColumnarIndex, SnapshotManager
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.join import execute_join
from repro.join.stt import synchronized_tree_traversal_join
from repro.query.range_query import brute_force_range, execute_workload
from repro.rtree.registry import build_rtree
from tests.conftest import brute_force_pairs, fail_after_write, make_random_objects, pair_keys


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


class TestWorkloadStaleGuard:
    def test_default_refresh_serves_current_data(self, mutated_setup):
        _, snapshot, live = mutated_setup
        query = Rect((0, 0), (100, 100))
        result = execute_workload(snapshot, [query])
        assert result.total_results == len(brute_force_range(live, query))

    def test_refresh_reports_the_fresh_freezes_accesses(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        queries = [Rect((x, x), (x + 20.0, x + 20.0)) for x in (0.0, 30.0, 60.0)]
        assert execute_workload(snapshot, queries) == execute_workload(tree, queries)


class TestJoinStaleGuard:
    def test_default_refresh_matches_scalar_join(self, mutated_setup):
        tree, snapshot, _ = mutated_setup
        other = build_rtree("quadratic", make_random_objects(40, seed=33), max_entries=8)
        managed = execute_join(snapshot, other, algorithm="stt")
        scalar = synchronized_tree_traversal_join(tree, other)
        assert managed.pair_count == scalar.pair_count

    def test_inlj_refreshes_a_stale_inner_snapshot(self, mutated_setup):
        tree, snapshot, live = mutated_setup
        probes = make_random_objects(40, seed=34, max_side=12.0)
        joined = execute_join(probes, snapshot, algorithm="inlj")
        assert pair_keys(joined.pairs) == brute_force_pairs(probes, live)
        assert joined.inner_stats == execute_join(probes, tree, algorithm="inlj").inner_stats

    @pytest.mark.parametrize("algorithm", ["inlj", "stt"])
    def test_a_stale_snapshot_beside_a_manager_is_refrozen(self, mutated_setup, algorithm):
        """One rule for every batched side: a manager's neighbour is re-frozen too."""
        _, snapshot, live = mutated_setup
        # A copy of every live object under its own oid: each one, the 30
        # the freeze missed included, meets at least its twin.
        twins = [SpatialObject(5000 + i, o.rect) for i, o in enumerate(live)]
        manager = SnapshotManager(build_rtree("quadratic", twins, max_entries=8))
        if algorithm == "inlj":
            joined = execute_join(manager, snapshot, algorithm="inlj")
            expected = brute_force_pairs(twins, live)
        else:
            joined = execute_join(snapshot, manager, algorithm="stt")
            expected = brute_force_pairs(live, twins)
        assert any(1000 <= key[0] < 5000 for pair in expected for key in pair)
        assert pair_keys(joined.pairs) == expected
        assert joined.pair_count == sum(expected.values())


class TestServeStaleUnderBreaker:
    """The server's breaker-degraded path serves the frozen base as it is.

    When the circuit breaker opens, :class:`CoalescingServer` answers
    queries from the manager's base snapshot directly, never re-frozen,
    and the staleness must surface in the response metadata:
    ``stale=True`` whenever the answer can be missing pending writes,
    ``stale=False`` when the frozen base happens to be the complete truth.
    """

    @staticmethod
    def _server_setup(count=120, seed=41):
        import asyncio

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
        # and it is exactly the base snapshot's answer
        expected = {
            o.oid for o in brute_force_range(list(base_snapshot.objects), probe)
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

    @pytest.mark.parametrize("compaction", ["paused", "crashed"])
    def test_degraded_join_answers_from_a_stale_base_as_it_is(self, compaction):
        """A compaction that has written to the source tree leaves the base
        stale, between two of its steps and for good once it crashes.
        A degraded join answers from that base, never from a re-freeze of
        the half-applied tree, and says so."""
        asyncio, CoalescingServer, Request, objects, manager = self._server_setup()
        base = manager.snapshot
        others = make_random_objects(40, seed=42)
        other = ColumnarIndex.from_tree(build_rtree("rstar", others, max_entries=8))
        probes = make_random_objects(40, seed=43, max_side=12.0)
        # Meets every object: a re-freeze would pair it with all of them.
        manager.insert(SpatialObject(9_996, Rect((0.0, 0.0), (100.0, 100.0))))
        if compaction == "paused":
            # The first step applies the one pending write; the swap waits.
            assert manager.compact_step() and manager.compacting
        else:
            crash = RuntimeError("compaction crashed after writing to the source")
            fail_after_write(manager, 1, crash)
            with pytest.raises(RuntimeError, match="crashed"):
                manager.compact()

        async def main():
            async with CoalescingServer(manager) as server:
                server.breaker.force_open()
                assert manager.snapshot is base and base.is_stale
                return (
                    await server.join(other=other, algorithm="stt"),
                    await server.join(probes=probes, algorithm="inlj"),
                )

        stt, inlj = asyncio.run(main())
        if compaction == "paused":
            manager.compact()
            assert manager.epoch == 1 and not manager.snapshot.is_stale
        for response, expected in (
            (stt, brute_force_pairs(others, objects)),
            (inlj, brute_force_pairs(probes, objects)),
        ):
            assert response.ok and response.degraded and response.stale
            assert pair_keys(response.value.pairs) == expected
            assert response.value.pair_count == sum(expected.values())

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
