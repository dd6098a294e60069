"""Timestamped, parameter-stamped archives of experiment runs.

Every ``repro bench run`` lands in ``<archive-root>/<experiment>/<run-id>/``:

* ``config.json`` — the full :class:`~repro.bench.config.BenchConfig` plus
  any experiment-specific keyword overrides;
* ``meta.json``  — wall/CPU time, git revision, host info, RNG seed,
  harness version and timestamps;
* ``result.json`` — the experiment's tables (rows, exactly what the paper
  plots), the scalar metrics derived from them, and one ``claims.<name>``
  metric (1.0 holds, 0.0 fails) per paper finding the experiment checks;
* ``table.txt`` / ``table.md`` — the rendered tables, for humans and for
  pasting into reports.

The archive is the one store of the paper's numbers; the time a code
path takes is measured by ``perf/``, not here.  The module also owns the
*comparison* rules (`compare_metrics`): metric deltas against a prior
archive, with regression gating on deterministic metrics (I/O counts,
dead-space shares, pair counts, claims) and informational reporting for
timing metrics, whose noise would make a CI gate flaky.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.bench.reporting import format_table, to_markdown

#: Environment override for the archive root (CLI: ``--archive-root``).
ARCHIVE_ROOT_ENV = "REPRO_ARCHIVE_ROOT"

#: Bumped when the on-disk layout of a run folder changes.
ARCHIVE_FORMAT_VERSION = 1

_RUN_FILES = ("config.json", "meta.json", "result.json")


class ArchiveError(ValueError):
    """A missing, unreadable, or malformed archive folder."""


def default_archive_root() -> Path:
    """``$REPRO_ARCHIVE_ROOT`` or ``./archive``."""
    return Path(os.environ.get(ARCHIVE_ROOT_ENV, "archive"))


def debug_root(archive_root: Union[str, Path]) -> Path:
    """``<parent>/__DEBUG__``: where a re-run that only exists to be
    compared lands (pycomex's debug folder), so the compared archive and
    its ``latest`` never change underneath a pinned baseline."""
    return Path(archive_root).parent / "__DEBUG__"


def new_run_id(parent: Optional[Path] = None) -> str:
    """A sortable timestamped run id, unique within ``parent``."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    if parent is None or not (parent / stamp).exists():
        return stamp
    counter = 2
    while (parent / f"{stamp}-{counter}").exists():
        counter += 1
    return f"{stamp}-{counter}"


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def collect_meta(seed: Optional[int] = None) -> Dict:
    """Provenance recorded alongside every run (host, git rev, versions)."""
    return {
        "archive_format_version": ARCHIVE_FORMAT_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "hostname": platform.node(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


@dataclass
class ArchivedRun:
    """One run folder, loaded back into memory."""

    path: Path
    experiment: str
    run_id: str
    config: Dict
    meta: Dict
    result: Dict

    @property
    def tables(self) -> Dict[str, List[Dict]]:
        return self.result.get("tables", {})

    @property
    def metrics(self) -> Dict[str, float]:
        return self.result.get("metrics", {})


def write_run(
    archive_root: Union[str, Path],
    experiment: str,
    tables: Mapping[str, List[Dict]],
    metrics: Mapping[str, float],
    config: Mapping,
    meta: Mapping,
    titles: Optional[Mapping[str, str]] = None,
) -> ArchivedRun:
    """Write one run folder and return it as an :class:`ArchivedRun`."""
    exp_dir = Path(archive_root) / experiment
    exp_dir.mkdir(parents=True, exist_ok=True)
    run_id = new_run_id(exp_dir)
    run_dir = exp_dir / run_id
    run_dir.mkdir()

    result = {"tables": {name: list(rows) for name, rows in tables.items()},
              "metrics": dict(metrics)}
    (run_dir / "config.json").write_text(json.dumps(dict(config), indent=2, sort_keys=True) + "\n")
    (run_dir / "meta.json").write_text(json.dumps(dict(meta), indent=2, sort_keys=True) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    titles = titles or {}
    text_parts, md_parts = [], []
    for name, rows in result["tables"].items():
        title = titles.get(name, f"{experiment} — {name}")
        text_parts.append(format_table(rows, title=title))
        md_parts.append(to_markdown(rows, title=title))
    if result["metrics"]:
        metric_rows = [
            {"metric": key, "value": value} for key, value in sorted(result["metrics"].items())
        ]
        text_parts.append(format_table(metric_rows, title="metrics"))
        md_parts.append(to_markdown(metric_rows, title="metrics"))
    (run_dir / "table.txt").write_text("\n\n".join(text_parts) + "\n")
    (run_dir / "table.md").write_text("\n\n".join(md_parts) + "\n")

    return ArchivedRun(
        path=run_dir, experiment=experiment, run_id=run_id,
        config=dict(config), meta=dict(meta), result=result,
    )


def load_run(path: Union[str, Path]) -> ArchivedRun:
    """Load one run folder (``archive/<exp>/<run-id>``)."""
    run_dir = Path(path)
    if not run_dir.is_dir():
        raise ArchiveError(f"{run_dir} is not an archived run directory")
    payload = {}
    for name in _RUN_FILES:
        file = run_dir / name
        if not file.is_file():
            raise ArchiveError(f"{run_dir} is missing {name}")
        try:
            payload[name] = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"{file} is not valid JSON: {exc}") from None
    return ArchivedRun(
        path=run_dir,
        experiment=run_dir.parent.name,
        run_id=run_dir.name,
        config=payload["config.json"],
        meta=payload["meta.json"],
        result=payload["result.json"],
    )


def list_runs(archive_root: Union[str, Path], experiment: str) -> List[str]:
    """Run ids archived for ``experiment``, oldest first."""
    exp_dir = Path(archive_root) / experiment
    if not exp_dir.is_dir():
        return []
    return sorted(
        entry.name for entry in exp_dir.iterdir()
        if entry.is_dir() and (entry / "result.json").is_file()
    )


def resolve_run(
    archive_root: Union[str, Path], experiment: str, run_id: str = "latest"
) -> ArchivedRun:
    """Load ``run_id`` (or the newest run) of ``experiment``."""
    if run_id == "latest":
        runs = list_runs(archive_root, experiment)
        if not runs:
            raise ArchiveError(
                f"no archived runs for {experiment!r} under {archive_root}"
            )
        run_id = runs[-1]
    return load_run(Path(archive_root) / experiment / run_id)


# ----------------------------------------------------------------------
# metric comparison
# ----------------------------------------------------------------------

_TIMING_TOKENS = (
    "seconds", "_ms", "ms_per", "qps", "per_second", "speedup", "ops_per",
    "wall", "cpu",
)
_HIGHER_TOKENS = (
    "speedup", "qps", "per_second", "ops_per", "reduction", "optimality",
    "share", "hit_rate", "results",
)
_LOWER_TOKENS = (
    "leaf_acc", "accesses", "dead", "reclip", "remaining", "bytes",
    "points", "_ms", "seconds", "misses",
)


def classify_metric(name: str):
    """``(direction, gating)`` for a metric name.

    ``direction`` is ``"higher"`` (bigger is better), ``"lower"``, or
    ``"neutral"`` (any drift beyond the threshold is suspicious —
    deterministic counts should not move at all under a fixed config).
    Timing metrics are never *gating*: they are reported but cannot fail
    a compare, because wall-clock noise across machines would make the
    CI gate flaky.  Deterministic metrics (I/O counts, dead-space
    percentages, pair counts) gate.  A ``claims.`` metric (a paper finding:
    1.0 holds) always gates, whatever its name says: only 1 → 0 regresses.
    """
    if name.startswith("claims."):
        return "higher", True
    lname = name.lower()
    gating = not any(token in lname for token in _TIMING_TOKENS)
    if any(token in lname for token in _HIGHER_TOKENS):
        direction = "higher"
    elif any(token in lname for token in _LOWER_TOKENS):
        direction = "lower"
    else:
        direction = "neutral"
    return direction, gating


@dataclass
class MetricDelta:
    """One metric compared between a baseline and a current run."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    delta_pct: Optional[float]
    direction: str
    gating: bool
    regressed: bool

    def as_row(self) -> Dict:
        status = "REGRESSION" if self.regressed else ("ok" if self.gating else "info")
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta_pct": self.delta_pct,
            "direction": self.direction,
            "status": status,
        }


@dataclass
class ComparisonReport:
    """Every metric delta of one ``repro bench compare`` invocation."""

    experiment: str
    baseline_run: str
    current_run: str
    threshold: float
    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        rows = [d.as_row() for d in self.deltas]
        title = (
            f"{self.experiment}: current {self.current_run} vs baseline "
            f"{self.baseline_run} (threshold {self.threshold * 100:.0f}%)"
        )
        verdict = (
            "OK — no regressions"
            if self.ok
            else f"FAIL — {len(self.regressions)} regressed metric(s)"
        )
        return format_table(rows, title=title) + f"\n{verdict}"


def compare_metrics(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    *,
    experiment: str = "",
    baseline_run: str = "baseline",
    current_run: str = "current",
    threshold: float = 0.2,
    include_timing: bool = False,
) -> ComparisonReport:
    """Diff two metric dicts; a gated drift beyond ``threshold`` regresses.

    ``include_timing=True`` additionally gates timing metrics — useful on
    a quiet dedicated box, too noisy for shared CI runners.
    """
    report = ComparisonReport(
        experiment=experiment, baseline_run=baseline_run,
        current_run=current_run, threshold=threshold,
    )
    for name in sorted(set(baseline) | set(current)):
        base, cur = baseline.get(name), current.get(name)
        direction, gating = classify_metric(name)
        if include_timing:
            gating = True
        if base is None or cur is None:
            # A gated metric that appears or disappears is a drift too.
            report.deltas.append(MetricDelta(name, base, cur, None, direction, gating, gating))
            continue
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
            continue
        if base == 0:
            delta = 0.0 if cur == 0 else float("inf") * (1 if cur > 0 else -1)
        else:
            delta = (cur - base) / abs(base)
        regressed = False
        if gating:
            if direction == "higher":
                regressed = delta < -threshold
            elif direction == "lower":
                regressed = delta > threshold
            else:
                regressed = abs(delta) > threshold
        report.deltas.append(
            MetricDelta(
                name, float(base), float(cur),
                round(100.0 * delta, 2) if delta not in (float("inf"), float("-inf")) else None,
                direction, gating, regressed,
            )
        )
    return report
