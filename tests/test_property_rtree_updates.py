"""Property-based stress test: random update sequences keep every invariant."""

import random

from hypothesis import given, settings, strategies as st

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from tests.conftest import UPDATES_EXAMPLES, UPDATES_PROFILE

#: The CI chaos job runs this file under ``UPDATES_PROFILE``, whose example
#: count must not be overridden here.
_scaled = settings.get_current_profile_name() == UPDATES_PROFILE


def _random_object(rng, oid):
    low = (rng.uniform(0, 100), rng.uniform(0, 100))
    high = (low[0] + rng.uniform(0, 4), low[1] + rng.uniform(0, 4))
    return SpatialObject(oid, Rect(low, high))


class TestRandomUpdateSequences:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(VARIANT_NAMES),
        st.integers(min_value=4, max_value=10),
    )
    @settings(
        settings.default if _scaled else settings(max_examples=UPDATES_EXAMPLES), deadline=None
    )
    def test_mixed_insert_delete_workload(self, seed, variant, max_entries):
        rng = random.Random(seed)
        live = [_random_object(rng, i) for i in range(60)]
        tree = build_rtree(variant, live, max_entries=max_entries)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        next_oid = len(live)

        for step in range(80):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                clipped.delete(victim)
            else:
                obj = _random_object(rng, next_oid)
                next_oid += 1
                live.append(obj)
                clipped.insert(obj)
            if step % 20 == 19:
                tree.check_invariants()
                clipped.check_clip_invariants()

        tree.check_invariants()
        clipped.check_clip_invariants()
        assert len(tree) == len(live)

        for _ in range(10):
            cx, cy = rng.uniform(0, 100), rng.uniform(0, 100)
            size = rng.uniform(1, 25)
            query = Rect((cx, cy), (cx + size, cy + size))
            expected = {o.oid for o in live if o.rect.intersects(query)}
            assert {o.oid for o in clipped.range_query(query)} == expected
