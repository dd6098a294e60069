"""The benchmark configuration, table rendering, the harness's caches, and
fig15's disk replay.

Running every experiment, and checking the paper's claims on its tables,
is ``tests/test_bench_archive.py::test_smoke_run_completes``; the claims
themselves live beside the experiments in :mod:`repro.bench.experiments`.
"""

import pytest

from repro.bench import BenchConfig, ExperimentContext, format_table
from repro.bench.config import _scale
from repro.bench.experiments import fig15_scalability
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


def test_fig15_engine_equivalence(tiny_context):
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
