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

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig08(self, capsys):
        assert main(["run", "fig08"]) == 0
        output = capsys.readouterr().out
        assert "CBBSTA" in output

    def test_run_small_experiment_with_overrides(self, capsys):
        assert main(["run", "fig13", "--size", "300", "--max-entries", "16", "--queries", "5"]) == 0
        output = capsys.readouterr().out
        assert "CSKY" in output and "CSTA" in output

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
            build_parser().parse_args(["run", "updates", flag, "scalar"])

    def test_run_updates_experiment(self, capsys):
        assert main([
            "run", "updates", "--size", "150", "--queries", "4",
            "--max-entries", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "refreeze_ms_per_update" in output
        assert "delta_ms_per_update" in output

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
        assert "2000 objects" in printed and "12 arrays (format v3)" in printed
        assert main(["snapshot", "load", str(directory), "--queries", "20"]) == 0
        output = capsys.readouterr().out
        assert "2000 objects" in output and "format v3" in output
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
