"""Result materialisation: one object gather per batch, and the boundary rows.

Every engine result — range and kNN lists, INLJ and STT pairs — is
gathered through ``ColumnarIndex.take_objects``.  The per-hit loops the
engine used before are kept here as oracles: the new path must hand out
the very instances ``objects[row]`` does, in the same order, in plain
lists of which no two are the same list object, on list-backed and on
mmap-loaded snapshots alike.

The other direction is ``kernels.stack_rows``: coordinate tuples become
one float64 matrix, and a tuple of another width raises ``ValueError``
naming the dims instead of shifting every later row.  The bulk loaders
refuse mixed dimensionality the way ``insert`` does.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate
from repro.engine import (
    ColumnarIndex,
    SnapshotManager,
    build_columnar_str,
    inlj_batch,
    load_snapshot,
    save_snapshot,
    stt_batch,
)
from repro.engine import snapshot_io
from repro.engine.executor import gather_knn_hits, gather_range_hits, materialize_range_hits
from repro.engine.join_exec import _PairLedger, _stt_roots_pass, _stt_rounds
from repro.engine.kernels import stack_rows
from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.rtree.clipped import ClippedRTree
from repro.rtree.entry import Entry
from repro.rtree.hilbert import HilbertRTree
from repro.rtree.registry import build_rtree
from repro.rtree.str_bulk import str_bulk_load
from tests.conftest import make_random_objects

INF = math.inf


def _clipped_snapshot(objects, variant="rstar", max_entries=8):
    tree = build_rtree(variant, objects, max_entries=max_entries)
    return ColumnarIndex.from_tree(ClippedRTree.wrap(tree, method="stairline"))


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """``{"memory": ..., "loaded": ...}`` over the same 2-d objects."""
    objects = make_random_objects(160, dims=2, seed=41, extent=40.0, max_side=4.0)
    memory = _clipped_snapshot(objects)
    directory = tmp_path_factory.mktemp("materialize")
    save_snapshot(memory, directory)
    return {"memory": memory, "loaded": load_snapshot(directory, mmap=True)}


def _queries(rng, count, extent=40.0, side=6.0):
    queries = []
    for _ in range(count):
        low = [rng.uniform(-2.0, extent) for _ in range(2)]
        queries.append(Rect(low, [c + rng.uniform(0.0, side) for c in low]))
    return queries


# ----------------------------------------------------------------------
# the per-hit loops the engine used to run, kept as oracles
# ----------------------------------------------------------------------


def _oracle_range(index, n_queries, all_q, all_obj):
    results = [[] for _ in range(n_queries)]
    if len(all_q):
        order = np.argsort(all_q, kind="stable")
        sorted_q = all_q[order]
        sorted_obj = all_obj[order]
        boundaries = np.nonzero(np.diff(sorted_q))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_q)]))
        get = index.objects.__getitem__
        for q, start, end in zip(sorted_q[starts].tolist(), starts.tolist(), ends.tolist()):
            results[q] = [get(i) for i in sorted_obj[start:end].tolist()]
    return results


def _oracle_knn(index, points, k):
    counts, dists, objects = gather_knn_hits(index, np.asarray(points, dtype=np.float64), k)
    get = index.objects.__getitem__
    pairs = list(zip(dists.tolist(), [get(i) for i in objects.tolist()]))
    ends = np.cumsum(counts).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends, ends)]


def _oracle_inlj(outer_objects, inner):
    rects = [o.rect for o in outer_objects]
    q_lows = np.array([r.low for r in rects], dtype=np.float64)
    q_highs = np.array([r.high for r in rects], dtype=np.float64)
    all_q, all_obj = gather_range_hits(inner, q_lows, q_highs)
    order = np.argsort(all_q, kind="stable")
    get = inner.objects.__getitem__
    return [
        (outer_objects[q], get(o)) for q, o in zip(all_q[order].tolist(), all_obj[order].tolist())
    ]


def _oracle_stt(left, right):
    if not _stt_roots_pass(left, right):
        return []
    hits = []
    _stt_rounds(left, right, _PairLedger(), hits)
    get_l = left.objects.__getitem__
    get_r = right.objects.__getitem__
    return [
        (get_l(i), get_r(j)) for a, b in hits for i, j in zip(a.tolist(), b.tolist())
    ]


def _assert_same_instances(got, expected):
    assert type(got) is list
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g is e


def _assert_same_lists(got, expected):
    assert type(got) is list
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        _assert_same_instances(g, e)
    # Every query owns its list: a caller appending to one changes no other.
    assert len({id(r) for r in got}) == len(got)


# ----------------------------------------------------------------------
# the engine against its old per-hit loops
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "loaded"])
class TestAgainstPerHitOracles:
    def test_range(self, snapshots, kind):
        index = snapshots[kind]
        queries = _queries(random.Random(1), 40)
        got = index.range_query_batch(queries)
        lows = np.array([q.low for q in queries])
        highs = np.array([q.high for q in queries])
        all_q, all_obj = gather_range_hits(index, lows, highs)
        _assert_same_lists(got, _oracle_range(index, len(queries), all_q, all_obj))
        assert sum(map(len, got)) > len(queries)

    def test_range_with_tombstones(self, snapshots, kind):
        index = snapshots[kind]
        queries = _queries(random.Random(2), 30)
        live = np.random.default_rng(2).random(len(index.objects)) < 0.6
        got = index.range_query_batch(queries, live=live)
        lows = np.array([q.low for q in queries])
        highs = np.array([q.high for q in queries])
        all_q, all_obj = gather_range_hits(index, lows, highs)
        keep = live[all_obj]
        expected = _oracle_range(index, len(queries), all_q[keep], all_obj[keep])
        _assert_same_lists(got, expected)

    def test_knn(self, snapshots, kind):
        index = snapshots[kind]
        rng = random.Random(3)
        points = [(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(25)]
        got = index.knn_batch(points, 7)
        expected = _oracle_knn(index, points, 7)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert [d for d, _ in g] == [d for d, _ in e]
            _assert_same_instances([o for _, o in g], [o for _, o in e])
        assert len({id(r) for r in got}) == len(got)

    def test_inlj_pairs(self, snapshots, kind):
        inner = snapshots[kind]
        outer = make_random_objects(50, dims=2, seed=4, extent=40.0, max_side=5.0)
        result = inlj_batch(outer, inner)
        expected = _oracle_inlj(outer, inner)
        assert result.pair_count == len(expected) > 0
        assert len(result.pairs) == len(expected)
        for (a, b), (c, d) in zip(result.pairs, expected):
            assert a is c and b is d

    def test_stt_pairs(self, snapshots, kind):
        left = snapshots[kind]
        right = _clipped_snapshot(
            make_random_objects(90, dims=2, seed=5, extent=40.0, max_side=4.0), "quadratic"
        )
        for a_side, b_side in ((left, right), (right, left)):
            result = stt_batch(a_side, b_side)
            expected = _oracle_stt(a_side, b_side)
            assert result.pair_count == len(expected) > 0
            assert len(result.pairs) == len(expected)
            for (a, b), (c, d) in zip(result.pairs, expected):
                assert a is c and b is d


@pytest.mark.parametrize("kind", ["memory", "loaded"])
def test_live_base_objects_are_the_rows_instances(snapshots, kind, tmp_path):
    index = snapshots[kind]
    manager = SnapshotManager(index)
    rows = [3, 17, 18, 90]
    for row in rows:
        assert manager.delete(index.objects[row])
    dead = set(rows)
    expected = [index.objects[i] for i in range(len(index.objects)) if i not in dead]
    _assert_same_instances(manager.overlay.live_base_objects(), expected)


# ----------------------------------------------------------------------
# materialize_range_hits over arbitrary hit arrays
# ----------------------------------------------------------------------


@st.composite
def hit_arrays(draw):
    n_queries = draw(st.integers(min_value=0, max_value=7))
    if n_queries == 0:
        hits = []
    else:
        hits = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_queries - 1),
                    # Repeated rows on purpose: a small row range.
                    st.integers(min_value=0, max_value=11),
                ),
                max_size=40,
            )
        )
    all_q = np.array([q for q, _ in hits], dtype=np.int64)
    all_obj = np.array([o for _, o in hits], dtype=np.int64)
    return n_queries, all_q, all_obj


@pytest.mark.parametrize("kind", ["memory", "loaded"])
@settings(max_examples=80, deadline=None)
@given(case=hit_arrays())
def test_materialize_any_hit_arrays(snapshots, kind, case):
    index = snapshots[kind]
    n_queries, all_q, all_obj = case
    got = materialize_range_hits(index, n_queries, all_q, all_obj)
    _assert_same_lists(got, _oracle_range(index, n_queries, all_q, all_obj))
    for q, result in enumerate(got):
        rows = all_obj[all_q == q].tolist()
        assert [obj for obj in result] == [index.objects[row] for row in rows]


# ----------------------------------------------------------------------
# a loaded snapshot's objects: one instance per row, built once
# ----------------------------------------------------------------------


@pytest.fixture
def counted_loaded(tmp_path, monkeypatch):
    """A loaded snapshot, its source objects and a per-row build counter."""
    objects = make_random_objects(70, dims=3, seed=6)
    save_snapshot(_clipped_snapshot(objects), tmp_path)
    built = []

    class Counted(SpatialObject):
        __slots__ = ()

        def __init__(self, oid, rect, payload=None):
            built.append(oid)
            super().__init__(oid, rect, payload)

    monkeypatch.setattr(snapshot_io, "SpatialObject", Counted)
    return load_snapshot(tmp_path, mmap=True), objects, built


class TestLoadedObjects:
    def test_take_then_getitem_is_one_instance(self, counted_loaded):
        loaded, _, built = counted_loaded
        lazy = loaded.objects
        taken = lazy.take(np.array([5, 9, 5, 0]))
        assert taken[0] is taken[2] is lazy[5]
        assert taken[1] is lazy[9] and taken[3] is lazy[0]
        assert lazy[-len(lazy)] is lazy[0]
        assert len(built) == 3

    def test_getitem_then_take_is_one_instance(self, counted_loaded):
        loaded, _, built = counted_loaded
        lazy = loaded.objects
        first = lazy[12]
        again = lazy.take(np.array([12, 13, 12]))
        assert again[0] is first and again[2] is first
        assert built.count(int(lazy.oids[12])) == 1
        assert len(built) == 2

    def test_every_row_is_built_once_across_batches(self, counted_loaded):
        loaded, objects, built = counted_loaded
        queries = [obj.rect for obj in objects[::5]]
        first = loaded.range_query_batch(queries)
        second = loaded.range_query_batch(queries)
        assert len(built) == len(set(built)) == len({o.oid for r in first for o in r})
        _assert_same_lists(second, first)
        assert len(loaded.objects._cache) == len(built)

    def test_slices_and_iteration(self, counted_loaded):
        loaded, objects, built = counted_loaded
        lazy = loaded.objects
        head = lazy[0:2]
        assert type(head) is list and len(head) == 2
        assert head[0] is lazy[0] and head[1] is lazy[1]
        assert lazy[::-7] == [lazy[i] for i in range(len(lazy) - 1, -1, -7)]
        assert lazy[5:3] == []
        everything = list(lazy)
        assert len(built) == len(lazy)
        _assert_same_instances(everything, [lazy[i] for i in range(len(lazy))])
        by_oid = {obj.oid: obj for obj in objects}
        assert all(obj == by_oid[obj.oid] for obj in everything)

    def test_take_rejects_rows_out_of_range(self, counted_loaded):
        loaded, _, built = counted_loaded
        for rows in ([len(loaded.objects)], [-1], [0, 10**6]):
            with pytest.raises(IndexError):
                loaded.objects.take(np.array(rows))
        assert loaded.objects.take(np.empty(0, dtype=np.int64)) == []
        assert built == []

    def test_take_objects_of_a_list_backed_snapshot(self):
        objects = make_random_objects(30, dims=2, seed=7)
        index = ColumnarIndex.from_tree(build_rtree("str", objects, max_entries=6))
        rows = np.array([4, 4, 29, 0], dtype=np.int64)
        _assert_same_instances(index.take_objects(rows), [index.objects[i] for i in rows])
        assert index.take_objects(np.empty(0, dtype=np.int64)) == []


# ----------------------------------------------------------------------
# the boundary: mixed dimensionality is refused at every entry point
# ----------------------------------------------------------------------


def _mixed_objects():
    objects = generate("uniform02", 50, seed=8)
    return objects, SpatialObject(999, Rect((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))


def test_stack_rows_refuses_another_width():
    assert stack_rows([(1, 2), (3, 4)], 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert stack_rows([], 3).shape == (0, 3)
    # One row too wide and one too narrow add up to the right count.
    for rows in ([(1, 2), (1, 2, 3)], [(1, 2, 3), (1,)], [(1,), (1, 2, 3)]):
        with pytest.raises(ValueError, match="dims, snapshot expects 2"):
            stack_rows(rows, 2)
    with pytest.raises(ValueError, match="queries have 3 dims, tree expects 2"):
        stack_rows([(1, 2), (1, 2, 3)], 2, "queries", "tree")
    with pytest.raises(ValueError, match="sequences of 2"):
        stack_rows([0.0, 0.0], 2)


@pytest.mark.parametrize("variant", ["str", "hilbert"])
@pytest.mark.parametrize("position", ["last", "first"])
def test_bulk_loads_refuse_mixed_dims(variant, position):
    """Used to build silently (``str``, 3-d last: 50 of 51 leaf rows held
    another object's rectangle) or fail later and elsewhere."""
    objects, bad = _mixed_objects()
    mixed = objects + [bad] if position == "last" else [bad] + objects
    expected = "object has 3 dims, tree expects 2" if position == "last" else (
        "object has 2 dims, tree expects 3"
    )
    with pytest.raises(ValueError, match=expected):
        build_rtree(variant, mixed, max_entries=8)
    loader = str_bulk_load if variant == "str" else HilbertRTree.bulk_load
    with pytest.raises(ValueError, match=expected):
        loader(mixed, max_entries=8)


@pytest.mark.parametrize("position", ["last", "first"])
def test_build_columnar_str_refuses_mixed_dims(position):
    objects, bad = _mixed_objects()
    mixed = objects + [bad] if position == "last" else [bad] + objects
    with pytest.raises(ValueError, match="object has [23] dims, tree expects [23]"):
        build_columnar_str(mixed, max_entries=8)


def test_from_tree_refuses_an_entry_of_another_width():
    objects, bad = _mixed_objects()
    tree = build_rtree("quadratic", objects, max_entries=8)
    leaf = next(tree.leaves())
    leaf.entries[0] = Entry(bad.rect, bad)
    with pytest.raises(ValueError, match="entries have 3 dims, snapshot expects 2"):
        ColumnarIndex.from_tree(tree)


@pytest.mark.parametrize("kind", ["memory", "loaded"])
class TestMixedBatchesAreRefused:
    def test_range(self, snapshots, kind):
        index = snapshots[kind]
        batch = [Rect((0, 0), (1, 1)), Rect((0, 0, 0), (1, 1, 1))]
        with pytest.raises(ValueError, match="queries have 3 dims, snapshot expects 2"):
            index.range_query_batch(batch)

    def test_knn(self, snapshots, kind):
        index = snapshots[kind]
        for batch in ([(0, 0), (0, 0, 0)], [(0, 0, 0), (0,), (1, 1)]):
            with pytest.raises(ValueError, match="points have [13] dims, snapshot expects 2"):
                index.knn_batch(batch, 2)

    def test_inlj(self, snapshots, kind):
        objects, bad = _mixed_objects()
        with pytest.raises(ValueError, match="outer objects have 3 dims, snapshot expects 2"):
            inlj_batch(objects[:5] + [bad], snapshots[kind])

    def test_stt(self, snapshots, kind):
        other = _clipped_snapshot(make_random_objects(30, dims=3, seed=9))
        for left, right in ((snapshots[kind], other), (other, snapshots[kind])):
            with pytest.raises(ValueError, match="snapshot dims differ: [23] vs [23]"):
                stt_batch(left, right)

    def test_manager_reads(self, snapshots, kind):
        manager = SnapshotManager(snapshots[kind])
        manager.insert(SpatialObject(5000, Rect((1, 1), (2, 2))))
        with pytest.raises(ValueError, match="queries have 3 dims, snapshot expects 2"):
            manager.range_query_batch([Rect((0, 0), (1, 1)), Rect((0, 0, 0), (1, 1, 1))])
        with pytest.raises(ValueError, match="points have 3 dims, snapshot expects 2"):
            manager.knn_batch([(0, 0), (0, 0, 0)], 1)
        assert len(manager.knn_batch([(0, 0)], 1)[0]) == 1


# ----------------------------------------------------------------------
# the boundary: degenerate objects answer like brute force
# ----------------------------------------------------------------------


def _degenerate_objects():
    """Random boxes plus points, duplicates (same rectangle, and same oid
    and rectangle) and boxes reaching to ±inf."""
    rng = random.Random(10)
    objects = make_random_objects(60, dims=2, seed=10, extent=30.0, max_side=3.0)
    oid = 1000
    for _ in range(20):
        point = (rng.uniform(0, 30), rng.uniform(0, 30))
        objects.append(SpatialObject(oid, Rect(point, point)))
        oid += 1
    for source in objects[:6] + objects[60:63]:
        objects.append(SpatialObject(oid, source.rect))
        objects.append(SpatialObject(source.oid, source.rect))
        oid += 1
    for low, high in (
        ((-INF, 5.0), (INF, 6.0)),
        ((10.0, -INF), (11.0, INF)),
        ((-INF, -INF), (INF, INF)),
        ((20.0, 20.0), (INF, INF)),
        ((-INF, -INF), (-INF, 0.0)),
    ):
        objects.append(SpatialObject(oid, Rect(low, high)))
        oid += 1
    return objects


@pytest.fixture(scope="module")
def degenerate(tmp_path_factory):
    objects = _degenerate_objects()
    memory = _clipped_snapshot(objects, max_entries=6)
    directory = tmp_path_factory.mktemp("degenerate")
    save_snapshot(memory, directory)
    return objects, {"memory": memory, "loaded": load_snapshot(directory, mmap=True)}


def _keys(objects):
    return sorted((o.oid, o.rect.low, o.rect.high) for o in objects)


@pytest.mark.parametrize("kind", ["memory", "loaded"])
class TestDegenerateObjectsMatchBruteForce:
    def test_range(self, degenerate, kind):
        objects, indexes = degenerate
        index = indexes[kind]
        queries = _queries(random.Random(11), 30, extent=30.0) + [
            Rect((-INF, -INF), (INF, INF)),
            Rect((5.5, 5.5), (5.5, 5.5)),
            Rect((-INF, -1.0), (-5.0, 1.0)),
            objects[60].rect,
            objects[-1].rect,
        ]
        for query, hits in zip(queries, index.range_query_batch(queries)):
            assert _keys(hits) == _keys(o for o in objects if o.rect.intersects(query))

    def test_knn(self, degenerate, kind):
        objects, indexes = degenerate
        index = indexes[kind]
        rng = random.Random(12)
        points = [(rng.uniform(-5, 35), rng.uniform(-5, 35)) for _ in range(20)]
        points += [objects[60].rect.low, (1e6, -1e6)]
        for point, hits in zip(points, index.knn_batch(points, 9)):
            brute = sorted(o.rect.min_distance_sq(point) for o in objects)[:9]
            assert [d for d, _ in hits] == brute
            assert all(o.rect.min_distance_sq(point) == d for d, o in hits)

    def test_joins(self, degenerate, kind):
        objects, indexes = degenerate
        index = indexes[kind]
        brute = sorted(
            (a.oid, b.oid) for a in objects for b in objects if a.rect.intersects(b.rect)
        )
        inlj = inlj_batch(objects, index)
        stt = stt_batch(index, index)
        assert sorted((a.oid, b.oid) for a, b in inlj.pairs) == brute
        assert sorted((a.oid, b.oid) for a, b in stt.pairs) == brute
        assert inlj.pair_count == stt.pair_count == len(brute)
