"""Execution layer of the archived-experiment harness.

``run_experiment`` executes one registered experiment through an
:class:`~repro.bench.harness.ExperimentContext`, checks the paper's
claims on its tables, captures wall/CPU time and provenance, and writes a
timestamped archive folder.  ``compare_experiment`` re-runs an experiment
under a baseline archive's exact configuration (or loads a second
archive) and diffs the metrics, returning a report whose regressions
drive the CI gate's exit code.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.archive import (
    ArchivedRun,
    ComparisonReport,
    collect_meta,
    compare_metrics,
    debug_root,
    default_archive_root,
    load_run,
    resolve_run,
    write_run,
)
from repro.bench.config import BenchConfig, ParameterError
from repro.bench.harness import ExperimentContext
from repro.bench.registry import derive_metrics, get_experiment


def parse_set_overrides(pairs: Sequence[str]) -> Dict[str, str]:
    """``["key=value", ...]`` → dict, rejecting malformed items."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ParameterError(
                f"malformed --set {pair!r}; expected key=value"
            )
        overrides[key.strip()] = value.strip()
    return overrides


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def run_experiment(
    experiment_id: str,
    overrides: Optional[Mapping[str, str]] = None,
    *,
    smoke: bool = False,
    archive_root: Optional[Union[str, Path]] = None,
    config: Optional[BenchConfig] = None,
    run_kwargs: Optional[Mapping] = None,
) -> ArchivedRun:
    """Run one registered experiment and archive the result.

    ``--smoke`` runs use :meth:`BenchConfig.tiny` plus the experiment's
    ``smoke_kwargs`` so every experiment finishes in seconds.  ``config``
    and ``run_kwargs`` override that resolution entirely — that is how
    ``compare`` replays a baseline's recorded configuration.
    """
    experiment = get_experiment(experiment_id)
    if config is None:
        config = BenchConfig.tiny() if smoke else BenchConfig()
    config.apply_overrides(dict(overrides or {}))
    if run_kwargs is None:
        run_kwargs = dict(experiment.smoke_kwargs) if smoke else {}
    else:
        run_kwargs = dict(run_kwargs)
    # JSON round-trips list-ify tuples; experiment kwargs accept sequences.
    context = ExperimentContext(config)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    tables = experiment.build(context, **run_kwargs)
    wall_seconds = time.perf_counter() - wall_start
    cpu_seconds = time.process_time() - cpu_start

    metrics = derive_metrics(tables)
    for name, holds in experiment.claims(tables).items():
        metrics[f"claims.{name}"] = 1.0 if holds else 0.0
    metrics["wall_seconds"] = round(wall_seconds, 4)
    metrics["cpu_seconds"] = round(cpu_seconds, 4)
    meta = collect_meta(seed=config.seed)
    meta.update(
        {
            "experiment": experiment_id,
            "smoke": smoke,
            "run_kwargs": _jsonable(run_kwargs),
            "overrides": dict(overrides or {}),
            "wall_seconds": round(wall_seconds, 4),
            "cpu_seconds": round(cpu_seconds, 4),
            "dataset_cache": {
                "hits": context.datasets.hits,
                "misses": context.datasets.misses,
            },
        }
    )
    return write_run(
        archive_root if archive_root is not None else default_archive_root(),
        experiment_id,
        tables,
        metrics,
        config.as_dict(),
        meta,
        titles=experiment.titles,
    )


def compare_experiment(
    experiment_id: str,
    against: str = "latest",
    *,
    archive_root: Optional[Union[str, Path]] = None,
    threshold: float = 0.2,
    include_timing: bool = False,
    current: Optional[Union[str, Path, ArchivedRun]] = None,
) -> Tuple[ComparisonReport, ArchivedRun]:
    """Diff a current run against an archived baseline.

    Without ``current``, the experiment is *re-run* under the baseline's
    recorded config and run kwargs, into :func:`debug_root` (replacing
    the previous re-run), never ``archive_root`` — one command gives CI a
    self-contained regression gate.  With
    ``current`` (a run folder or an :class:`ArchivedRun`), two archives
    are diffed without executing anything.
    """
    root = archive_root if archive_root is not None else default_archive_root()
    baseline = resolve_run(root, experiment_id, against)
    if current is None:
        config = BenchConfig.from_dict(baseline.config)
        run_kwargs = baseline.meta.get("run_kwargs") or {}
        scratch = debug_root(root)
        shutil.rmtree(scratch / experiment_id, ignore_errors=True)
        current_run = run_experiment(
            experiment_id,
            archive_root=scratch,
            config=config,
            run_kwargs=run_kwargs,
            smoke=bool(baseline.meta.get("smoke")),
        )
    elif isinstance(current, ArchivedRun):
        current_run = current
    else:
        current_run = load_run(current)
    report = compare_metrics(
        baseline.metrics,
        current_run.metrics,
        experiment=experiment_id,
        baseline_run=baseline.run_id,
        current_run=current_run.run_id,
        threshold=threshold,
        include_timing=include_timing,
    )
    return report, current_run
