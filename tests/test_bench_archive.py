"""Tests for the archived-experiment harness.

Covers the four layers the harness introduced: the registry contract,
the runner's archive folders, the compare gate's regression semantics,
and the shared table/record serializers — plus the dataset cache that
keeps back-to-back runs from regenerating identical datasets.
"""

import json

import pytest

from repro.bench.archive import (
    ArchiveError,
    Floor,
    check_floors,
    classify_metric,
    compare_metrics,
    list_runs,
    load_run,
    resolve_run,
    write_legacy_bench,
    write_run,
)
from repro.bench.config import BenchConfig, ParameterError
from repro.bench.harness import DatasetCache, ExperimentContext
from repro.bench.registry import derive_metrics, experiment_ids, get_experiment
from repro.bench.reporting import display_width, format_table, to_markdown
from repro.bench.runner import (
    compare_experiment,
    parse_set_overrides,
    run_experiment,
)
from repro.cli import main


# ----------------------------------------------------------------------
# reporting: None cells, display widths, markdown
# ----------------------------------------------------------------------


def test_format_table_renders_none_cells_as_dash():
    text = format_table([{"a": 1, "b": None}, {"a": None, "b": 2.5}])
    lines = text.splitlines()
    assert [cell.strip() for cell in lines[0].split(" | ")] == ["a", "b"]
    assert "-" in lines[2]
    assert "2.50" in lines[3]


def test_format_table_handles_missing_keys():
    text = format_table([{"a": 1, "b": 2}, {"a": 3}])
    assert text.splitlines()[-1].rstrip() == "3 | -"


def test_format_table_empty_rows():
    assert format_table([]) == "(no rows)"
    assert format_table([], title="t") == "t\n(no rows)"


def test_display_width_wide_and_combining_characters():
    assert display_width("abc") == 3
    assert display_width("数据") == 4  # east-asian wide: 2 columns each
    assert display_width("é") == 1  # combining acute adds no width


def test_format_table_aligns_wide_characters():
    text = format_table([{"name": "数据", "v": 1}, {"name": "ab", "v": 2}])
    header, _, row1, row2 = text.splitlines()
    # Every row must end at the same terminal column.
    assert display_width(row1) == display_width(row2) == display_width(header)


def test_to_markdown_escapes_pipes_and_adds_heading():
    md = to_markdown([{"a": "x|y"}], title="T")
    assert md.startswith("### T\n")
    assert "x\\|y" in md
    assert to_markdown([], title="T") == "### T\n\n(no rows)"


# ----------------------------------------------------------------------
# archive: round-trip, resolution
# ----------------------------------------------------------------------


def _write_sample_run(root, metrics=None):
    tables = {"t": [{"x": 1, "label": "a"}, {"x": 3, "label": "b"}]}
    return write_run(
        root,
        "sample",
        tables,
        metrics if metrics is not None else derive_metrics(tables),
        {"seed": 7},
        {"note": "test"},
    )


def test_archive_round_trip(tmp_path):
    run = _write_sample_run(tmp_path)
    for name in ("config.json", "meta.json", "result.json", "table.txt", "table.md"):
        assert (run.path / name).is_file()
    loaded = load_run(run.path)
    assert loaded.experiment == "sample"
    assert loaded.run_id == run.run_id
    assert loaded.tables == run.tables
    assert loaded.metrics == run.metrics
    assert loaded.config == {"seed": 7}


def test_resolve_latest_and_list_runs(tmp_path):
    first = _write_sample_run(tmp_path)
    second = _write_sample_run(tmp_path)
    assert list_runs(tmp_path, "sample") == sorted([first.run_id, second.run_id])
    assert resolve_run(tmp_path, "sample").run_id == second.run_id
    assert resolve_run(tmp_path, "sample", first.run_id).run_id == first.run_id


def test_resolve_missing_experiment_raises(tmp_path):
    with pytest.raises(ArchiveError):
        resolve_run(tmp_path, "nope")


def test_derive_metrics_means_and_row_counts():
    metrics = derive_metrics({"t": [{"x": 1, "s": "a"}, {"x": 3, "s": "b"}]})
    assert metrics == {"t.rows": 2.0, "t.x": 2.0}


# ----------------------------------------------------------------------
# compare: self no-op, doctored regression, direction/timing semantics
# ----------------------------------------------------------------------


def test_compare_against_self_is_noop(tmp_path):
    run = _write_sample_run(tmp_path)
    report = compare_metrics(run.metrics, run.metrics)
    assert report.ok
    assert all(delta.delta_pct == 0.0 for delta in report.deltas)


def test_compare_flags_doctored_gated_metric():
    baseline = {"t.leaf_accesses": 10.0}
    report = compare_metrics(baseline, {"t.leaf_accesses": 13.0})  # +30%
    assert not report.ok
    assert report.regressions[0].metric == "t.leaf_accesses"
    # An *improvement* on a lower-is-better metric does not regress.
    assert compare_metrics(baseline, {"t.leaf_accesses": 5.0}).ok


def test_compare_direction_higher_is_better():
    baseline = {"t.io_reduction_pct": 40.0}
    assert not compare_metrics(baseline, {"t.io_reduction_pct": 20.0}).ok
    assert compare_metrics(baseline, {"t.io_reduction_pct": 60.0}).ok


def test_compare_timing_metrics_never_gate_by_default():
    baseline = {"wall_seconds": 1.0, "t.qps": 100.0}
    current = {"wall_seconds": 10.0, "t.qps": 10.0}
    assert compare_metrics(baseline, current).ok
    assert not compare_metrics(baseline, current, include_timing=True).ok


def test_compare_missing_gated_metric_regresses():
    report = compare_metrics({"t.rows": 2.0}, {})
    assert not report.ok


def test_classify_metric():
    assert classify_metric("fig11.relative_pct")[1] is True  # gating
    assert classify_metric("wall_seconds") == ("lower", False)
    assert classify_metric("updates.speedup")[1] is False
    assert classify_metric("t.io_reduction_pct")[0] == "higher"
    assert classify_metric("t.leaf_accesses")[0] == "lower"
    assert classify_metric("t.rows")[0] == "neutral"


# ----------------------------------------------------------------------
# legacy BENCH records + floors
# ----------------------------------------------------------------------


def test_write_legacy_bench_is_byte_compatible(tmp_path):
    record = {"objects": 100, "speedup": 7.5, "nested": {"a": 1}}
    path = tmp_path / "BENCH_x.json"
    write_legacy_bench(record, path)
    assert path.read_bytes() == (json.dumps(record, indent=2) + "\n").encode()


def test_check_floors_dotted_paths_and_enforcement():
    record = {"speedup": 4.0, "clip": {"speedup": 9.0}}
    assert check_floors(record, [Floor("clip.speedup", 5.0)]) == []
    failures = check_floors(record, [Floor("speedup", 5.0, label="engine speedup")])
    assert failures and "engine speedup" in failures[0]
    # Unenforced floors never fail; missing keys report clearly.
    assert check_floors(record, [Floor("speedup", 5.0, enforce=False)]) == []
    assert "missing" in check_floors(record, [Floor("missing", 1.0)])[0]


# ----------------------------------------------------------------------
# config schema + overrides
# ----------------------------------------------------------------------


def test_apply_overrides_unknown_key_lists_alternatives():
    with pytest.raises(ParameterError) as excinfo:
        BenchConfig.tiny().apply_overrides({"bogus": "1"})
    message = str(excinfo.value)
    assert "bogus" in message and "seed" in message


def test_apply_overrides_parses_types():
    config = BenchConfig.tiny().apply_overrides(
        {
            "size": "123",
            "clip_tau": "0.1",
            "clip_k": "none",
            "variants": "rstar, hilbert",
            "max_entries": "12",
        }
    )
    assert set(config.dataset_sizes.values()) == {123}
    assert config.clip_tau == 0.1
    assert config.clip_k is None
    assert config.variants == ("rstar", "hilbert")
    assert config.max_entries == 12


def test_apply_overrides_bad_value():
    with pytest.raises(ParameterError):
        BenchConfig.tiny().apply_overrides({"seed": "not-a-number"})


def test_config_dict_round_trip():
    config = BenchConfig.tiny()
    config.apply_overrides({"variants": "str,rstar", "seed": "11"})
    recorded = json.loads(json.dumps(config.as_dict()))
    assert BenchConfig.from_dict(recorded) == config
    # The pinned archives predate the retirement of the engine fields and
    # still record them; replaying such a config must not fail.
    recorded.update(engine="scalar", build_engine="scalar", join_engine="scalar",
                    update_engine="delta")
    assert BenchConfig.from_dict(recorded) == config
    for retired in ("engine", "build_engine", "join_engine", "update_engine"):
        assert retired not in BenchConfig.param_schema()
        with pytest.raises(ParameterError):
            BenchConfig.tiny().apply_overrides({retired: "scalar"})


def test_parse_set_overrides():
    assert parse_set_overrides(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
    with pytest.raises(ParameterError):
        parse_set_overrides(["novalue"])


# ----------------------------------------------------------------------
# dataset cache
# ----------------------------------------------------------------------


def test_dataset_cache_shared_across_contexts():
    cache = DatasetCache()
    config = BenchConfig.tiny()
    first = ExperimentContext(config, dataset_cache=cache)
    objects = first.objects("par02")
    assert cache.misses == 1 and cache.hits == 0
    # A *different* context with the same cache must hit, not regenerate.
    second = ExperimentContext(BenchConfig.tiny(), dataset_cache=cache)
    assert second.objects("par02") is objects
    assert cache.hits == 1 and cache.misses == 1


def test_dataset_cache_workload_hits():
    cache = DatasetCache()
    context = ExperimentContext(BenchConfig.tiny(), dataset_cache=cache)
    workload = context.workload("par02", 10)
    hits = cache.hits
    assert context.workload("par02", 10) is workload
    assert cache.hits == hits + 1
    # A different target_results is a different calibration: a second
    # workload entry appears (the shared objects lookup itself hits).
    assert context.workload("par02", 20) is not workload
    assert len(cache.workloads) == 2


def test_dataset_cache_keys_include_seed():
    cache = DatasetCache()
    context = ExperimentContext(BenchConfig.tiny(), dataset_cache=cache)
    a = context.objects("par02", seed=1)
    b = context.objects("par02", seed=2)
    assert a is not b


# ----------------------------------------------------------------------
# runner: archived smoke runs + the compare gate
# ----------------------------------------------------------------------


def test_run_experiment_archives_provenance(tmp_path):
    run = run_experiment("fig08", smoke=True, archive_root=tmp_path)
    assert run.experiment == "fig08"
    assert run.meta["smoke"] is True
    assert run.meta["seed"] == run.config["seed"]
    assert "wall_seconds" in run.metrics and "cpu_seconds" in run.metrics
    assert set(run.meta["dataset_cache"]) == {"hits", "misses"}
    assert run.tables["fig08"], "fig08 must produce rows"
    loaded = resolve_run(tmp_path, "fig08")
    assert loaded.metrics == run.metrics


def test_run_experiment_rejects_unknown_override(tmp_path):
    with pytest.raises(ParameterError):
        run_experiment("fig08", {"bogus": "1"}, smoke=True, archive_root=tmp_path)


def test_compare_experiment_reruns_baseline_config(tmp_path):
    run_experiment("fig08", smoke=True, archive_root=tmp_path)
    report, current = compare_experiment("fig08", archive_root=tmp_path)
    assert report.ok, report.render()
    # The re-run was archived as a new run under the same experiment.
    assert len(list_runs(tmp_path, "fig08")) == 2
    assert current.run_id == list_runs(tmp_path, "fig08")[-1]


def test_compare_experiment_detects_doctored_baseline(tmp_path):
    baseline = run_experiment("fig08", smoke=True, archive_root=tmp_path)
    result_file = baseline.path / "result.json"
    doctored = json.loads(result_file.read_text())
    name, value = next(
        (k, v) for k, v in doctored["metrics"].items()
        if classify_metric(k)[1] and v
    )
    doctored["metrics"][name] = value * 2.0  # inject a ≥20% drift
    result_file.write_text(json.dumps(doctored))
    report, _ = compare_experiment("fig08", archive_root=tmp_path)
    assert not report.ok
    assert any(delta.metric == name for delta in report.regressions)


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------


def test_cli_bench_run_and_compare(tmp_path, capsys):
    root = str(tmp_path)
    assert main(["bench", "run", "fig08", "--smoke", "--archive-root", root, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "archived fig08 run" in out
    assert main(["bench", "compare", "fig08", "--archive-root", root]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_bench_run_unknown_experiment(tmp_path, capsys):
    assert main(["bench", "run", "nope", "--archive-root", str(tmp_path)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_bench_run_unknown_set_key(tmp_path, capsys):
    code = main([
        "bench", "run", "fig08", "--smoke",
        "--archive-root", str(tmp_path), "--set", "bogus=1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "settable parameters" in err


def test_cli_bench_compare_missing_baseline(tmp_path, capsys):
    assert main(["bench", "compare", "fig08", "--archive-root", str(tmp_path)]) == 2
    assert "no archived runs" in capsys.readouterr().err


def test_cli_bench_compare_regression_exit_code(tmp_path, capsys):
    root = str(tmp_path)
    baseline = run_experiment("fig08", smoke=True, archive_root=root)
    doctored = json.loads((baseline.path / "result.json").read_text())
    doctored["metrics"]["fig08.rows"] = doctored["metrics"]["fig08.rows"] * 3
    (baseline.path / "result.json").write_text(json.dumps(doctored))
    assert main(["bench", "compare", "fig08", "--archive-root", root]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_bench_archive_listing(tmp_path, capsys):
    root = str(tmp_path)
    run_experiment("fig08", smoke=True, archive_root=root)
    assert main(["bench", "archive", "--archive-root", root]) == 0
    assert "fig08" in capsys.readouterr().out
    assert main(["bench", "archive", "fig08", "--archive-root", root]) == 0
    assert "fig08" in capsys.readouterr().out


# ----------------------------------------------------------------------
# every registered experiment completes in smoke mode
# ----------------------------------------------------------------------


def test_registry_covers_cli_experiments():
    ids = experiment_ids()
    assert {"fig01", "fig11", "joins", "updates", "ablations"} <= set(ids)
    assert {"dims", "mixed", "hotspot"} <= set(ids)
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        assert experiment.description


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_smoke_run_completes(experiment_id, tmp_path):
    """``repro bench run <exp> --smoke`` finishes and archives rows."""
    run = run_experiment(experiment_id, smoke=True, archive_root=tmp_path)
    assert run.tables, f"{experiment_id} produced no tables"
    assert any(rows for rows in run.tables.values()), (
        f"{experiment_id} produced only empty tables"
    )
    assert run.metrics["wall_seconds"] >= 0.0
