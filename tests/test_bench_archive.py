"""Tests for the archived-experiment harness.

Covers the four layers the harness introduced: the registry contract,
the runner's archive folders, the compare gate's regression semantics
(paper claims included), and the table serializers — plus the dataset
cache that keeps back-to-back runs from regenerating identical datasets.
The smoke test at the end is tier-1's one run of every experiment, and
where the paper's claims are asserted on smoke-size tables.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.bench.archive import (
    ArchiveError,
    classify_metric,
    compare_metrics,
    debug_root,
    list_runs,
    load_run,
    resolve_run,
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
    assert classify_metric("mixed.speedup")[1] is False
    assert classify_metric("t.io_reduction_pct")[0] == "higher"
    assert classify_metric("t.leaf_accesses")[0] == "lower"
    assert classify_metric("t.rows")[0] == "neutral"


def test_classify_metric_claims_gate_higher_is_better():
    assert classify_metric("claims.x") == ("higher", True)
    # Words that would mark a timing or a lower-is-better metric do not.
    assert classify_metric("claims.speedup_ms_leaf_acc") == ("higher", True)
    assert not compare_metrics({"claims.x": 1.0}, {"claims.x": 0.0}).ok
    assert compare_metrics({"claims.x": 0.0}, {"claims.x": 1.0}).ok


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


#: ``(--set key, bad value, field it breaks, words of the rule)``: one row
#: per field of ``BenchConfig``'s rules table.
_BAD_SETTINGS = [
    ("max_entries", "1", "max_entries", ">= 2"),
    ("clip_k", "-1", "clip_k", ">= 0"),
    ("clip_tau", "nan", "clip_tau", "[0, 1)"),
    ("clip_tau", "1", "clip_tau", "[0, 1)"),
    ("size", "0", "dataset_sizes", ">= 1"),
    ("queries_per_profile", "0", "queries_per_profile", ">= 1"),
    ("serve_requests", "0", "serve_requests", ">= 1"),
    ("serve_concurrency", "-2", "serve_concurrency", ">= 1"),
    ("scalability_size", "0", "scalability_size", ">= 1"),
    ("join_size", "0", "join_size", ">= 1"),
    ("variants", "bogus", "variants", "variant names"),
    ("variants", ",", "variants", "variant names"),
]


@pytest.mark.parametrize("key, raw, field_name, rule", _BAD_SETTINGS)
def test_bad_setting_exits_2_before_anything_runs(tmp_path, capsys, key, raw, field_name, rule):
    root = tmp_path / "archive"
    code = main(["bench", "run", "fig13", "--smoke", "--set", f"{key}={raw}",
                 "--archive-root", str(root)])
    err = capsys.readouterr().err
    assert code == 2
    assert field_name in err and rule in err
    assert not root.exists()
    with pytest.raises(ParameterError, match=field_name):
        BenchConfig.tiny().apply_overrides({key: raw})
    # The constructor holds the same rules.
    if field_name == "dataset_sizes":
        bad = {"par02": int(raw)}
    elif field_name == "variants":
        bad = tuple(part for part in raw.split(",") if part)
    else:
        bad = type(getattr(BenchConfig(), field_name) or 0)(float(raw))
    with pytest.raises(ParameterError, match=field_name):
        BenchConfig(**{field_name: bad})


def test_every_pinned_config_still_loads():
    pins = sorted(Path(__file__).resolve().parents[1].glob("archive/*/*/config.json"))
    assert len(pins) >= 14
    for pin in pins:
        BenchConfig.from_dict(json.loads(pin.read_text()))


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
    pin = run_experiment("fig08", smoke=True, archive_root=tmp_path)
    report, current = compare_experiment("fig08", archive_root=tmp_path)
    assert report.ok, report.render()
    # The re-run went to the scratch archive, not beside the pin.
    assert list_runs(tmp_path, "fig08") == [pin.run_id]
    assert current.path.parent == debug_root(tmp_path) / "fig08"
    assert current.config == pin.config
    assert current.meta["run_kwargs"] == pin.meta["run_kwargs"]


def test_compare_twice_leaves_the_pinned_root_alone(tmp_path):
    pin = run_experiment("fig08", smoke=True, archive_root=tmp_path)
    first, _ = compare_experiment("fig08", archive_root=tmp_path)
    second, second_run = compare_experiment("fig08", archive_root=tmp_path)
    assert list_runs(tmp_path, "fig08") == [pin.run_id]
    # Both compared against the pin, never against the other's re-run.
    assert first.baseline_run == second.baseline_run == pin.run_id
    assert first.ok and second.ok
    # One scratch folder, reused: the second re-run replaced the first.
    assert list_runs(debug_root(tmp_path), "fig08") == [second_run.run_id]


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


def test_cli_bench_compare_fails_on_a_broken_claim(tmp_path, capsys):
    root = tmp_path / "archive"
    pin = run_experiment("fig08", smoke=True, archive_root=root)
    claim = next(name for name in pin.metrics if name.startswith("claims."))
    assert pin.metrics[claim] == 1.0
    current = run_experiment("fig08", smoke=True, archive_root=tmp_path / "other")
    doctored = json.loads((current.path / "result.json").read_text())
    doctored["metrics"][claim] = 0.0
    (current.path / "result.json").write_text(json.dumps(doctored))
    code = main([
        "bench", "compare", "fig08", "--archive-root", str(root),
        "--current", str(current.path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    regressed = [line for line in out.splitlines() if "REGRESSION" in line]
    assert len(regressed) == 1 and claim in regressed[0]


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


#: every experiment that reproduces a finding of the paper
PAPER_EXPERIMENTS = (
    "fig01", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig15",
    "joins", "ablations",
)


def test_registry_covers_cli_experiments():
    ids = experiment_ids()
    assert {"fig01", "fig11", "joins", "ablations"} <= set(ids)
    assert {"dims", "mixed", "hotspot"} <= set(ids)
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        assert experiment.description


#: the pins CI's ``repro bench compare`` gates against
PINNED_ROOT = Path(__file__).resolve().parents[1] / "archive"


def _pinned_claims():
    """``(experiment, claim)`` for every claim a pinned archive records."""
    return [
        (experiment_id, name[len("claims."):])
        for experiment_id in PAPER_EXPERIMENTS
        if list_runs(PINNED_ROOT, experiment_id)
        for name in sorted(resolve_run(PINNED_ROOT, experiment_id).metrics)
        if name.startswith("claims.")
    ]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Each experiment's smoke run, executed once and shared by the tests
    below, so tier-1 runs every experiment exactly once."""
    root = tmp_path_factory.mktemp("smoke")
    return functools.lru_cache(maxsize=None)(
        lambda experiment_id: run_experiment(experiment_id, smoke=True, archive_root=root)
    )


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_smoke_run_completes(experiment_id, smoke_run):
    """``repro bench run <exp> --smoke`` finishes, archives rows, and every
    paper claim it records holds on the smoke-size tables."""
    run = smoke_run(experiment_id)
    assert run.tables, f"{experiment_id} produced no tables"
    assert any(rows for rows in run.tables.values()), (
        f"{experiment_id} produced only empty tables"
    )
    assert run.metrics["wall_seconds"] >= 0.0
    archived = load_run(run.path).metrics
    claims = {name: value for name, value in archived.items() if name.startswith("claims.")}
    assert all(value == 1.0 for value in claims.values()), claims
    if experiment_id in PAPER_EXPERIMENTS:
        assert claims, f"{experiment_id} archives no claim"


@pytest.mark.parametrize(
    "experiment_id, claim", _pinned_claims(), ids=lambda value: value
)
def test_pinned_claim_holds_at_smoke_size(experiment_id, claim, smoke_run):
    """Every claim CI gates at default size holds in its pin, and the
    smoke run still records it — under the same name — and holds it too.
    A claim renamed or dropped without a re-pin would otherwise surface
    only as a missing metric in CI's compare."""
    name = f"claims.{claim}"
    assert resolve_run(PINNED_ROOT, experiment_id).metrics[name] == 1.0
    archived = load_run(smoke_run(experiment_id).path).metrics
    assert archived.get(name) == 1.0, (name, archived.get(name))
