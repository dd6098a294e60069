"""Integration tests: every experiment module runs end-to-end at tiny scale.

These do not assert the paper's quantitative findings (the benchmark suite
under ``benchmarks/`` does that at a larger scale); they verify that each
``run`` function produces structurally sound rows so the benches cannot
silently bit-rot.
"""

import pytest

from repro.bench import BenchConfig, ExperimentContext, format_table
from repro.bench.config import _scale
from repro.bench.experiments import (
    ablations,
    fig01_motivation,
    fig08_bounding_example,
    fig09_bounding_comparison,
    fig10_clipped_dead_space,
    fig11_range_queries,
    fig12_update_cost,
    fig13_storage,
    fig14_build_time,
    fig15_scalability,
    joins,
    updates,
)
from repro.engine import ColumnarIndex
from repro.query.workload import RangeQueryWorkload
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree


@pytest.fixture(scope="module")
def tiny_context():
    return ExperimentContext(BenchConfig.tiny())


class TestConfig:
    def test_default_config_has_all_paper_datasets(self):
        config = BenchConfig()
        for name in ("par02", "par03", "rea02", "rea03", "axo03", "den03", "neu03"):
            assert config.size_of(name) >= 200
        assert config.size_of("unknown") > 0

    def test_tiny_config_is_small(self):
        config = BenchConfig.tiny()
        assert all(size <= 500 for size in config.dataset_sizes.values())

    def test_scale_parsing_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-number")
        assert _scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert _scale() == 2.5


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="X")


class TestExperimentsRun:
    def test_fig01(self, tiny_context):
        panels = fig01_motivation.run(tiny_context)
        assert set(panels) == {"fig1a_overlap", "fig1b_dead_space", "fig1c_io_optimality"}
        assert len(panels["fig1a_overlap"]) == 2 * 4
        assert all(0 <= row["dead_space_pct"] <= 100 for row in panels["fig1b_dead_space"])

    def test_fig08(self):
        rows = fig08_bounding_example.run()
        assert {row["method"] for row in rows} == {"MBC", "MBB", "RMBB", "4-C", "5-C", "CH", "CBBSKY", "CBBSTA"}

    def test_fig09(self, tiny_context):
        rows = fig09_bounding_comparison.run(tiny_context)
        assert len(rows) == 2 * 8
        assert all(row["avg_points"] >= 2 for row in rows)

    def test_fig10(self, tiny_context):
        rows = fig10_clipped_dead_space.run(
            tiny_context, methods=("stairline",), datasets=("par02",), k_values=(1, 4)
        )
        assert len(rows) == 1 * 1 * 4 * 2
        assert all(row["remaining_pct"] >= -1e-6 for row in rows)

    def test_fig11_and_table1(self, tiny_context):
        rows = fig11_range_queries.run(tiny_context, datasets=("par02",), methods=("stairline",))
        assert len(rows) == 3 * 4
        table = fig11_range_queries.table1(rows)
        assert table[-1]["variant"] == "Total"
        assert "QR0" in table[0]

    def test_fig12(self, tiny_context):
        rows = fig12_update_cost.run(tiny_context, datasets=("par02",))
        assert len(rows) == 4
        for row in rows:
            assert row["reclips_per_insert"] >= 0.0

    def test_fig13(self, tiny_context):
        rows = fig13_storage.run(tiny_context, datasets=("par02", "axo03"))
        assert len(rows) == 4
        for row in rows:
            assert abs(row["dir_nodes_pct"] + row["leaf_nodes_pct"] + row["clip_points_pct"] - 100.0) < 0.5

    def test_fig14(self, tiny_context):
        rows = fig14_build_time.run(tiny_context, datasets=("par02",))
        assert len(rows) == 1
        assert rows[0]["rrstar_pct"] == 100.0

    def test_joins(self, tiny_context):
        rows = joins.run(tiny_context, variants=("quadratic",))
        assert len(rows) == 1
        assert rows[0]["inlj_clipped_leaf_acc"] <= rows[0]["inlj_leaf_acc"]

    def test_updates(self, tiny_context):
        rows = updates.run(tiny_context, datasets=("par02",))
        assert len(rows) == len(tiny_context.config.variants)
        for row in rows:
            assert row["updates"] > 0
            assert row["refreeze_ms_per_update"] > 0.0
            assert row["delta_ms_per_update"] > 0.0
            assert row["compactions"] >= 1

    def test_fig15(self, tiny_context):
        rows = fig15_scalability.run(
            tiny_context, datasets=("par02",), size=600, queries_per_profile=5
        )
        assert len(rows) == 2 * 3
        for row in rows:
            assert row["unclipped_ms"] >= 0.0

    def test_fig15_engine_equivalence(self, tiny_context):
        """The columnar replay charges the disk exactly like the scalar walk."""
        objects = tiny_context.objects("par02", size=500)
        queries = RangeQueryWorkload.from_objects(
            objects, target_results=10, seed=7
        ).query_list(12)
        for variant in fig15_scalability.VARIANTS:
            tree = build_rtree(variant, objects, max_entries=16)
            for index in (tree, ClippedRTree.wrap(tree, method="skyline"), ClippedRTree.wrap(tree)):
                scalar_ms, replay_ms = (
                    fig15_scalability._simulated_query_time_ms(backend, tree, queries, 0.05)
                    for backend in (index, ColumnarIndex.from_tree(index))
                )
                assert replay_ms == scalar_ms > 0.0

    def test_ablation_tau(self, tiny_context):
        rows = ablations.run_tau_sweep(tiny_context, dataset="par02", taus=(0.0, 0.1))
        assert len(rows) == 2
        assert rows[0]["avg_clip_points"] >= rows[1]["avg_clip_points"]

    def test_ablation_scoring(self, tiny_context):
        rows = ablations.run_scoring_comparison(tiny_context, dataset="par02", variant="quadratic")
        assert rows[0]["additive_score_volume"] >= rows[0]["exact_clipped_volume"] * 0.999

    def test_ablation_k_sweep(self, tiny_context):
        rows = ablations.run_k_sweep_io(tiny_context, dataset="par02", k_values=(1, 4))
        assert len(rows) == 2


class TestHarnessCaching:
    def test_objects_cached(self, tiny_context):
        a = tiny_context.objects("par02")
        b = tiny_context.objects("par02")
        assert a is b

    def test_trees_cached(self, tiny_context):
        a = tiny_context.tree("par02", "quadratic")
        b = tiny_context.tree("par02", "quadratic")
        assert a is b

    def test_clipped_cached_per_parameters(self, tiny_context):
        a = tiny_context.clipped("par02", "quadratic", method="skyline")
        b = tiny_context.clipped("par02", "quadratic", method="skyline")
        c = tiny_context.clipped("par02", "quadratic", method="stairline")
        assert a is b
        assert a is not c

    def test_workload_cached(self, tiny_context):
        a = tiny_context.workload("par02", 10)
        b = tiny_context.workload("par02", 10)
        assert a is b
