"""Quickstart: build an R-tree, clip it, and compare query I/O.

Run with ``python examples/quickstart.py``.
"""

from repro.datasets import generate
from repro.metrics import average_dead_space, clipped_dead_space_summary
from repro.query import RangeQueryWorkload, execute_workload
from repro.rtree import ClippedRTree, build_rtree


def main() -> None:
    # 1. Generate a synthetic stand-in for the paper's par02 dataset.
    objects = generate("par02", size=3000, seed=7)
    print(f"generated {len(objects)} objects in {objects[0].dims}d")

    # 2. Build a classic R*-tree over them.
    tree = build_rtree("rstar", objects, max_entries=32)
    print(f"R*-tree: {tree.node_count()} nodes, height {tree.height}")
    print(f"average dead space per node: {100 * average_dead_space(tree):.1f}%")

    # 3. Clip it: stairline clip points, the paper's default k and tau.
    clipped = ClippedRTree.wrap(tree, method="stairline")
    summary = clipped_dead_space_summary(clipped)
    print(
        f"clipping removes {100 * summary.clipped_share_of_dead_space:.1f}% of the dead space "
        f"using {clipped.store.average_clip_points():.1f} clip points per node"
    )

    # 4. Compare range-query I/O (leaf accesses) with and without clipping.
    workload = RangeQueryWorkload.from_objects(objects, target_results=10, seed=1)
    queries = workload.query_list(100)
    plain = execute_workload(tree, queries)
    fast = execute_workload(clipped, queries)
    print(f"unclipped: {plain.avg_leaf_accesses:.2f} leaf accesses/query")
    print(f"clipped:   {fast.avg_leaf_accesses:.2f} leaf accesses/query")
    saved = 100.0 * (1.0 - fast.avg_leaf_accesses / plain.avg_leaf_accesses)
    print(f"I/O saved by clipping: {saved:.1f}%")

    # 5. Results are identical — clipping only skips dead space.
    for query in queries[:20]:
        assert {o.oid for o in tree.range_query(query)} == {
            o.oid for o in clipped.range_query(query)
        }
    print("query results verified identical with and without clipping")

    # 6. Freeze the tree and hand the snapshot to the same call: the
    #    whole workload is answered by vectorized kernels, with the same
    #    results and the same I/O counts.  (Re-freeze with
    #    ColumnarIndex.from_tree after inserts/deletes — a snapshot is
    #    immutable; check snapshot.is_stale.)
    import time

    from repro.engine import ColumnarIndex

    snapshot = ColumnarIndex.from_tree(clipped)
    start = time.perf_counter()
    batch = execute_workload(snapshot, queries)
    batch_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar = execute_workload(clipped, queries)
    scalar_s = time.perf_counter() - start
    assert batch.stats.leaf_accesses == scalar.stats.leaf_accesses
    print(
        f"columnar engine: {batch.total_results} results in {1000 * batch_s:.1f} ms "
        f"(scalar: {1000 * scalar_s:.1f} ms, same leaf accesses)"
    )


if __name__ == "__main__":
    main()
