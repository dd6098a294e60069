"""Command-line interface: ``python -m repro <command>``.

Gives quick access to the reproduction without writing any code:

* ``list-experiments`` — show every registered experiment and its id;
* ``run <experiment>`` — run one experiment and print its table(s);
* ``bench run <experiment>|all`` — run experiments through the archived
  harness (``--set key=value`` overrides, ``--smoke``, timestamped
  archive folders with config + meta + result + rendered tables);
* ``bench compare <experiment>`` — re-run under a baseline archive's
  config and diff the metrics; exits non-zero on a regression;
* ``bench archive [<experiment>]`` — list archived runs / show one;
* ``datasets`` — list the available dataset generators;
* ``build-info <dataset> <variant>`` — build one index and print tree
  statistics, dead space, and clipping summaries;
* ``snapshot save <dir>`` / ``snapshot load <dir>`` — persist a frozen
  columnar snapshot as mmap-able ``.npy`` files and open it back;
* ``serve`` — build an index and drive the fault-tolerant serving layer
  through the seeded chaos scenario, printing the robustness report.

Examples::

    python -m repro list-experiments
    python -m repro run fig11 --queries 20 --size 1000
    python -m repro bench run dims --set size=1600 --set clip_tau=0.05
    python -m repro bench run all --smoke --archive-root /tmp/archive
    python -m repro bench compare hotspot --against latest
    python -m repro build-info axo03 rstar --size 2000
    python -m repro snapshot save /tmp/snap --dataset axo03 --variant rstar --clip stairline
    python -m repro snapshot load /tmp/snap --queries 50
    python -m repro serve --dataset par02 --requests 200 --chaos-seed 11
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import BenchConfig, ExperimentContext, ParameterError, format_table
from repro.bench.archive import (
    ArchiveError,
    default_archive_root,
    list_runs,
    resolve_run,
)
from repro.bench.registry import (
    REGISTRY,
    UnknownExperimentError,
    experiment_ids,
    get_experiment,
)
from repro.bench.runner import (
    compare_experiment,
    parse_set_overrides,
    render_tables,
    run_experiment,
)
from repro.datasets.registry import DATASET_NAMES, dataset_info
from repro.metrics.dead_space import average_dead_space, clipped_dead_space_summary
from repro.metrics.node_stats import tree_stats
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree


def _make_config(args: argparse.Namespace) -> BenchConfig:
    config = BenchConfig()
    if args.size is not None:
        config.dataset_sizes = {name: args.size for name in config.dataset_sizes}
    if args.queries is not None:
        config.queries_per_profile = args.queries
    if args.max_entries is not None:
        config.max_entries = args.max_entries
    return config


def _cmd_list_experiments(_: argparse.Namespace) -> int:
    rows = [
        {"experiment": experiment.id, "description": experiment.description}
        for experiment in REGISTRY.values()
    ]
    print(format_table(rows, title="Available experiments"))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        generator = dataset_info(name)
        rows.append({"dataset": name, "dims": generator.dims, "description": generator.description})
    print(format_table(rows, title="Datasets (synthetic stand-ins, see DESIGN.md)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except UnknownExperimentError:
        print(f"unknown experiment {args.experiment!r}; try 'list-experiments'", file=sys.stderr)
        return 2
    context = ExperimentContext(_make_config(args))
    print(render_tables(experiment, experiment.build(context)))
    return 0


def _bench_root(args: argparse.Namespace):
    return args.archive_root if args.archive_root else default_archive_root()


def _cmd_bench_run(args: argparse.Namespace) -> int:
    targets = (
        list(experiment_ids())
        if "all" in args.experiment
        else list(args.experiment)
    )
    try:
        overrides = parse_set_overrides(args.set or [])
        for target in targets:
            get_experiment(target)  # fail fast before running anything
        for target in targets:
            run = run_experiment(
                target,
                overrides,
                smoke=args.smoke,
                archive_root=_bench_root(args),
            )
            if not args.quiet:
                print((run.path / "table.txt").read_text().rstrip())
            print(
                f"archived {target} run {run.run_id} -> {run.path} "
                f"(wall {run.metrics['wall_seconds']:.2f}s)"
            )
    except (UnknownExperimentError, ParameterError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    try:
        report, _ = compare_experiment(
            args.experiment,
            against=args.against,
            archive_root=_bench_root(args),
            threshold=args.threshold / 100.0,
            include_timing=args.include_timing,
            current=args.current,
        )
    except (UnknownExperimentError, ArchiveError, ParameterError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.render())
    return 1 if report.regressions else 0


def _cmd_bench_archive(args: argparse.Namespace) -> int:
    root = _bench_root(args)
    if args.experiment is None:
        rows = []
        for experiment_id in experiment_ids():
            runs = list_runs(root, experiment_id)
            rows.append(
                {
                    "experiment": experiment_id,
                    "runs": len(runs),
                    "latest": runs[-1] if runs else None,
                }
            )
        print(format_table(rows, title=f"Archive at {root}"))
        return 0
    try:
        run = resolve_run(root, args.experiment, args.run)
    except ArchiveError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    meta = run.meta
    print(
        f"{run.experiment} run {run.run_id} — {meta.get('timestamp')} "
        f"git {str(meta.get('git_revision'))[:12]} "
        f"wall {meta.get('wall_seconds')}s smoke={meta.get('smoke')}"
    )
    print((run.path / "table.txt").read_text().rstrip())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_bench_run,
        "compare": _cmd_bench_compare,
        "archive": _cmd_bench_archive,
    }
    return handlers[args.bench_command](args)


def _cmd_build_info(args: argparse.Namespace) -> int:
    if args.dataset not in DATASET_NAMES:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    if args.variant not in VARIANT_NAMES:
        print(f"unknown variant {args.variant!r}; known: {VARIANT_NAMES}", file=sys.stderr)
        return 2
    config = _make_config(args)
    objects = dataset_info(args.dataset).generate(config.size_of(args.dataset), seed=config.seed)
    tree = build_rtree(args.variant, objects, max_entries=config.max_entries)
    stats = tree_stats(tree)
    print(format_table([stats.as_row()], title=f"{args.variant} over {args.dataset}"))
    print(f"average dead space per node: {100 * average_dead_space(tree):.1f}%")
    for method in ("skyline", "stairline"):
        clipped = ClippedRTree.wrap(tree, method=method)
        summary = clipped_dead_space_summary(clipped)
        print(
            f"{method:10s}: {100 * summary.clipped_share_of_dead_space:5.1f}% of dead space clipped, "
            f"{clipped.store.average_clip_points():.1f} clip points/node"
        )
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    if args.dataset not in DATASET_NAMES:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    if args.variant not in VARIANT_NAMES:
        print(f"unknown variant {args.variant!r}; known: {VARIANT_NAMES}", file=sys.stderr)
        return 2
    import time

    from repro.engine import ColumnarIndex, save_snapshot

    config = _make_config(args)
    objects = dataset_info(args.dataset).generate(config.size_of(args.dataset), seed=config.seed)
    index = build_rtree(args.variant, objects, max_entries=config.max_entries)
    if args.clip != "none":
        index = ClippedRTree.wrap(index, method=args.clip)
    start = time.perf_counter()
    snapshot = ColumnarIndex.from_tree(index)
    freeze_s = time.perf_counter() - start
    start = time.perf_counter()
    save_snapshot(snapshot, args.directory)
    save_s = time.perf_counter() - start
    from repro.engine.snapshot_io import read_manifest

    manifest = read_manifest(args.directory)
    print(
        f"saved {args.variant}/{args.dataset} ({args.clip} clip) to {args.directory}: "
        f"{len(snapshot.objects)} objects, {len(snapshot.is_leaf)} nodes, d={snapshot.dims}"
    )
    print(f"freeze {freeze_s * 1000:.1f} ms, save {save_s * 1000:.1f} ms, "
          f"{len(manifest['arrays'])} arrays (format v{manifest['format_version']})")
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    import time

    from repro.engine import FORMAT_VERSION, SnapshotFormatError, load_snapshot

    start = time.perf_counter()
    try:
        snapshot = load_snapshot(args.directory, mmap=not args.no_mmap)
    except SnapshotFormatError as exc:
        print(f"not a snapshot: {exc}", file=sys.stderr)
        return 2
    load_s = time.perf_counter() - start
    mode = "copied into RAM" if args.no_mmap else "zero-copy mmap"
    print(
        f"loaded {args.directory} ({mode}) in {load_s * 1000:.2f} ms: "
        f"{len(snapshot.objects)} objects, {len(snapshot.is_leaf)} nodes, "
        f"d={snapshot.dims}, format v{FORMAT_VERSION}"
    )
    if args.queries:
        from repro.query.range_query import execute_workload
        from repro.query.workload import RangeQueryWorkload

        workload = RangeQueryWorkload.from_objects(
            list(snapshot.objects), target_results=10, seed=7
        )
        queries = workload.query_list(args.queries, seed=7)
        start = time.perf_counter()
        result = execute_workload(snapshot, queries)
        query_s = time.perf_counter() - start
        print(
            f"{result.queries} sanity queries in "
            f"{query_s * 1000:.1f} ms: {result.avg_results:.1f} results/query, "
            f"{result.avg_leaf_accesses:.1f} leaf accesses/query"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.dataset not in DATASET_NAMES:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    if args.variant not in VARIANT_NAMES:
        print(f"unknown variant {args.variant!r}; known: {VARIANT_NAMES}", file=sys.stderr)
        return 2
    from repro.engine import SnapshotManager
    from repro.serve.bench import report_row, run_serve_scenario

    config = _make_config(args)
    objects = dataset_info(args.dataset).generate(config.size_of(args.dataset), seed=config.seed)
    index = build_rtree(args.variant, objects, max_entries=config.max_entries)
    if args.clip != "none":
        index = ClippedRTree.wrap(index, method=args.clip)
    manager = SnapshotManager(index)
    report, responses = run_serve_scenario(
        manager,
        n_requests=args.requests,
        seed=args.chaos_seed,
        concurrency=args.concurrency,
        admission_rate=args.admission_rate,
    )
    row = report_row(report, dataset=args.dataset, variant=args.variant)
    print(
        format_table(
            [row],
            title=f"chaos serving over {args.variant}/{args.dataset} "
            f"({len(objects)} objects, seed {args.chaos_seed})",
        )
    )
    print(
        f"robustness: {report['stale_served']} stale-stamped answers, "
        f"{report['degraded_batches']} degraded batches, "
        f"{report['deadline_exceeded']} deadline misses, "
        f"breaker {report['breaker_state']}"
    )
    explicit = sum(1 for r in responses if r.status in ("ok", "shed"))
    print(
        f"accounting: {len(responses)} responses, {explicit} explicit "
        f"(ok/shed), {report['errors']} errors, wall {report['elapsed_seconds']:.2f}s"
    )
    return 0 if report["errors"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Clipped-bounding-box reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-experiments", help="list available experiments")
    subparsers.add_parser("datasets", help="list dataset generators")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its tables")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig11")

    bench_parser = subparsers.add_parser(
        "bench", help="archived-experiment harness: run / compare / archive"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run experiment(s) and write timestamped archive folders"
    )
    bench_run.add_argument(
        "experiment",
        nargs="+",
        help="experiment id(s) (see list-experiments) or 'all'",
    )
    bench_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a BenchConfig parameter (repeatable); unknown keys fail",
    )
    bench_run.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration + per-experiment smoke kwargs (seconds per experiment)",
    )
    bench_run.add_argument(
        "--quiet", action="store_true", help="print only the archive location, not the tables"
    )

    bench_compare = bench_sub.add_parser(
        "compare",
        help="re-run under a baseline archive's config and diff metrics "
        "(exit 1 on regression)",
    )
    bench_compare.add_argument("experiment", help="experiment id")
    bench_compare.add_argument(
        "--against",
        default="latest",
        metavar="RUN-ID",
        help="baseline run id (default: latest archived run)",
    )
    bench_compare.add_argument(
        "--current",
        default=None,
        metavar="RUN-DIR",
        help="compare this existing run folder instead of re-running",
    )
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        help="regression threshold in percent (default 20)",
    )
    bench_compare.add_argument(
        "--include-timing",
        action="store_true",
        help="also gate on timing metrics (noisy on shared runners)",
    )

    bench_archive = bench_sub.add_parser(
        "archive", help="list archived runs, or show one run's tables"
    )
    bench_archive.add_argument(
        "experiment", nargs="?", default=None, help="experiment id (omit for an overview)"
    )
    bench_archive.add_argument(
        "--run", default="latest", metavar="RUN-ID", help="run id (default: latest)"
    )

    for sub in (bench_run, bench_compare, bench_archive):
        sub.add_argument(
            "--archive-root",
            default=None,
            help="archive directory (default: $REPRO_ARCHIVE_ROOT or ./archive)",
        )

    info_parser = subparsers.add_parser("build-info", help="build one index and summarise it")
    info_parser.add_argument("dataset", help="dataset name, e.g. axo03")
    info_parser.add_argument("variant", help="R-tree variant, e.g. rstar")

    snap_parser = subparsers.add_parser(
        "snapshot", help="persist / open frozen columnar snapshots"
    )
    snap_sub = snap_parser.add_subparsers(dest="snapshot_command", required=True)
    save_parser = snap_sub.add_parser(
        "save", help="build one index, freeze it, and save it as .npy files"
    )
    save_parser.add_argument("directory", help="target directory for the snapshot files")
    save_parser.add_argument("--dataset", default="axo03", help="dataset name (default axo03)")
    save_parser.add_argument("--variant", default="rstar", help="R-tree variant (default rstar)")
    save_parser.add_argument(
        "--clip",
        choices=("none", "skyline", "stairline"),
        default="none",
        help="clip the tree before freezing (default: unclipped)",
    )
    load_parser = snap_sub.add_parser(
        "load", help="open a saved snapshot and print a summary"
    )
    load_parser.add_argument("directory", help="directory holding the snapshot files")
    load_parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="copy arrays into RAM instead of the default zero-copy mmap",
    )
    load_parser.add_argument(
        "--queries",
        type=int,
        default=0,
        help="run N calibrated sanity range queries against the loaded snapshot",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="drive the coalescing server through the seeded chaos scenario",
    )
    serve_parser.add_argument("--dataset", default="par02", help="dataset name (default par02)")
    serve_parser.add_argument("--variant", default="rstar", help="R-tree variant (default rstar)")
    serve_parser.add_argument(
        "--clip",
        choices=("none", "skyline", "stairline"),
        default="stairline",
        help="clip the tree before serving (default stairline)",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=200, help="requests in the closed-loop stream"
    )
    serve_parser.add_argument(
        "--concurrency", type=int, default=32, help="closed-loop in-flight cap"
    )
    serve_parser.add_argument(
        "--admission-rate",
        type=float,
        default=80.0,
        help="token-bucket refill rate in requests per logical second",
    )
    serve_parser.add_argument(
        "--chaos-seed", type=int, default=11, help="seed for the deterministic fault plan"
    )

    for sub in (run_parser, info_parser, save_parser, serve_parser):
        sub.add_argument("--size", type=int, default=None, help="objects per dataset")
        sub.add_argument("--queries", type=int, default=None, help="queries per profile")
        sub.add_argument("--max-entries", type=int, default=None, help="node capacity")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list-experiments": _cmd_list_experiments,
        "datasets": _cmd_datasets,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "build-info": _cmd_build_info,
        "snapshot": lambda a: (
            _cmd_snapshot_save(a) if a.snapshot_command == "save" else _cmd_snapshot_load(a)
        ),
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
