"""Tests for the command-line interface, ``repro snapshot save`` / ``load`` included."""

import contextlib
import io
import shutil

import pytest

from repro.bench.registry import experiment_ids
from repro.cli import build_parser, main
from repro.engine.snapshot_io import MANIFEST_NAME, read_manifest


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        for name in experiment_ids():
            assert name in output

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "axo03" in output and "rea02" in output
        assert "Datasets (synthetic stand-ins for the paper's)" in output
        assert "DESIGN.md" not in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig08"],
            ["build-info", "par02", "rstar", "--queries", "5"],
            ["snapshot", "save", "{tmp}", "--queries", "5"],
            ["serve", "--queries", "5"],
        ],
        ids=["run", "build-info-queries", "snapshot-save-queries", "serve-queries"],
    )
    def test_removed_entry_points_are_usage_errors(self, argv, tmp_path, capsys):
        """``bench run`` is the one way to run an experiment; ``--queries``
        only ever sized ``run`` (``snapshot load --queries`` is its own flag)."""
        with pytest.raises(SystemExit) as usage:
            main([arg.format(tmp=tmp_path / "snap") for arg in argv])
        assert usage.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_bench_run_prints_the_table(self, tmp_path, capsys):
        assert main(["bench", "run", "fig08", "--archive-root", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "CBBSTA" in output and "archived fig08 run" in output

    def test_bench_run_with_overrides(self, tmp_path, capsys):
        assert main([
            "bench", "run", "fig13", "--archive-root", str(tmp_path),
            "--set", "size=300", "--set", "max_entries=16", "--set", "queries_per_profile=5",
        ]) == 0
        output = capsys.readouterr().out
        assert "CSKY" in output and "CSTA" in output

    def test_bench_run_updates_is_unknown(self, tmp_path, capsys):
        assert main(["bench", "run", "updates", "--smoke", "--archive-root", str(tmp_path)]) == 2
        assert "unknown experiment 'updates'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_build_info(self, capsys):
        assert main(["build-info", "par02", "rstar", "--size", "300", "--max-entries", "16"]) == 0
        output = capsys.readouterr().out
        assert "dead space" in output
        assert "stairline" in output

    def test_build_info_rejects_unknown_names(self, capsys):
        assert main(["build-info", "nope", "rstar"]) == 2
        assert main(["build-info", "par02", "kd-tree"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--engine", "--build-engine", "--join-engine", "--update-engine"]
    )
    def test_engine_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "run", "mixed", flag, "scalar"])

    def test_serve_command_runs_chaos_scenario(self, capsys):
        assert main([
            "serve", "--size", "500", "--requests", "60",
            "--max-entries", "16", "--chaos-seed", "11",
        ]) == 0
        output = capsys.readouterr().out
        # the robustness report surfaces the gated counters and the
        # explicit-response accounting line
        assert "chaos serving over rstar/par02" in output
        assert "breaker_opens" in output and "faults_injected" in output
        assert "explicit (ok/shed), 0 errors" in output

    def test_serve_command_rejects_unknown_dataset(self, capsys):
        assert main(["serve", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestVariantNames:
    """The subcommands that build a tree take every name ``build_rtree`` takes
    (``registry.canonical_variant``) and refuse only what it refuses."""

    NAMES = [("r*", "rstar"), ("str", "str")]
    MISSPELT = "rstr"

    @staticmethod
    def _runs(command, name, tmp_path):
        if command == "build-info":
            return ["build-info", "par02", name, "--size", "200", "--max-entries", "16"]
        if command == "snapshot save":
            return [
                "snapshot", "save", str(tmp_path / "snap"), "--dataset", "par02",
                "--variant", name, "--size", "200", "--max-entries", "16",
            ]
        return [
            "serve", "--variant", name, "--size", "200", "--requests", "20",
            "--max-entries", "16",
        ]

    @pytest.mark.parametrize("name,canonical", NAMES)
    @pytest.mark.parametrize("command", ["build-info", "snapshot save", "serve"])
    def test_alias_and_str_are_built(self, command, name, canonical, tmp_path, capsys):
        assert main(self._runs(command, name, tmp_path)) == 0
        title = {
            "build-info": f"{canonical} over par02",
            "snapshot save": f"saved {canonical}/par02",
            "serve": f"chaos serving over {canonical}/par02",
        }[command]
        assert title in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["build-info", "snapshot save", "serve"])
    def test_a_misspelt_name_exits_2(self, command, tmp_path, capsys):
        assert main(self._runs(command, self.MISSPELT, tmp_path)) == 2
        assert f"unknown R-tree variant {self.MISSPELT!r}" in capsys.readouterr().err
        assert not (tmp_path / "snap").exists()


class TestSnapshotCli:
    """``repro snapshot save`` then ``load``: the writer and the reader end to end."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli") / "snap"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([
                "snapshot", "save", str(directory), "--dataset", "axo03",
                "--variant", "rstar", "--clip", "stairline", "--size", "2000",
            ])
        assert code == 0
        return directory, printed.getvalue()

    def test_round_trip(self, saved, capsys):
        directory, printed = saved
        assert "2000 objects" in printed and "12 arrays (format v4)" in printed
        assert main(["snapshot", "load", str(directory), "--queries", "20"]) == 0
        output = capsys.readouterr().out
        assert "2000 objects" in output and "format v4" in output
        assert "tree: rstar, fan-out 24, stairline clip" in output
        assert "20 sanity queries" in output

    @pytest.mark.parametrize("damage", ["list manifest", "deleted array"])
    def test_load_reports_a_damaged_directory(self, saved, tmp_path, capsys, damage):
        broken = tmp_path / "broken"
        shutil.copytree(saved[0], broken)
        if damage == "list manifest":
            (broken / MANIFEST_NAME).write_text("[]")
        else:
            (broken / read_manifest(broken)["data_dir"] / "clip_coords.npy").unlink()
        assert main(["snapshot", "load", str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("not a snapshot: ")
        assert "Traceback" not in captured.err and captured.out == ""
