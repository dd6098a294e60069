"""Benchmark driver: one workload per invocation, one JSON result line.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                        [--scale F] [--out DIR]
    python3 perf/run.py --compare DIR_A DIR_B

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` repeats the workload with the span recorders of
``tracing.py`` installed and reports the per-layer metrics.  Either way
every answer the run relies on is checked against the brute-force oracle,
one line per metric is printed (``workload metric value unit n=samples``)
and the last line of standard output is the JSON object the driver reads.
The exit code is non-zero when a check fails.

``--out DIR`` also writes ``DIR/<workload>.seed<N>.trace<T>.json`` (and
the spans of a traced run); ``--compare`` reads two such directories and
applies the bounds of ``BENCHMARK.json`` to their medians.
"""

from __future__ import annotations

import sys

# The checkout must stay as git left it: no bytecode beside the sources.
sys.dont_write_bytecode = True

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: reference-kernel passes before and after each set-up (``hostref``)
SETUP_REF_PASSES = 6
#: a traced run alternates this many untraced and traced slices of ``--seconds``
TRACE_SLICES = 6
#: glibc allocator settings the benchmark runs under: freed memory stays
#: mapped, as in a long-running process.  With the defaults a repetition's
#: time depended on the heap's history (big NumPy temporaries were unmapped
#: and faulted in again every repetition, or not, according to what earlier
#: set-ups had freed), which no change to the program explains.
MALLOC_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the program under test on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def timed_setup(workload) -> float:
    """Seconds of one set-up, in units of the reference kernel (``hostref``)."""
    workload.teardown()
    workload.clock.sample(SETUP_REF_PASSES)
    start = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    workload.clock.sample(SETUP_REF_PASSES)
    return (end - start) / workload.clock.factor(start, end)


def peak_rss_mb() -> float:
    """Peak resident set: this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def end_to_end(workload, setups, reps, stored) -> dict:
    """The end-to-end metrics and the sample count behind each."""
    from workloads import quantile

    q = workload.tail_q
    if reps[0].latencies is not None:
        # The caller sees single operations: percentiles per repetition,
        # then the median over repetitions.
        p50 = statistics.median(quantile(rep.latencies, 0.5) / rep.host for rep in reps)
        tail = statistics.median(quantile(rep.latencies, q) / rep.host for rep in reps)
    else:
        # The caller sees whole batches: one sample per repetition.
        p50 = statistics.median(rep.normal_seconds for rep in reps)
        tail = quantile([rep.normal_seconds for rep in reps], q)
    stored_bytes, user_bytes = stored
    n = len(reps)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (statistics.median(rep.ops / rep.normal_seconds for rep in reps), n),
        "p50_ms": (p50 * 1000.0, n),
        "tail_ms": (tail * 1000.0, n),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "stored_bytes_per_user_byte": (stored_bytes / user_bytes, 1),
    }


def run_workload(args, spec) -> int:
    import_program()
    from hostref import HostClock
    from layers import per_layer
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perf/run.py: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    scratch = ROOT / ".perf_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, scratch, HostClock())
    tracer = Tracer()
    try:
        if args.trace:
            tracer.install()
            setups = [timed_setup(workload)]
        else:
            setups = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
        workload.prepare()
        attempted, failed = workload.check()
        # Before the loop changes anything, so that the figure is exact for a seed.
        stored = workload.stored_bytes()

        tracer.uninstall()
        gc.collect()
        workload.facts["run.warmup_rep_s"] = workload.warm()
        untraced, reps = [], []
        if args.trace:
            # Untraced and traced slices alternate, so that the host's slow
            # drift lands on both sides of the tracer's overhead figure.
            share = args.seconds / TRACE_SLICES
            least = -(-workload.min_reps // (TRACE_SLICES // 2))
            for i in range(TRACE_SLICES):
                if i % 2 == 0:
                    tracer.uninstall()
                    untraced += workload.measure(share, least)
                else:
                    tracer.install()
                    tracer.phase = "measure"
                    reps += workload.measure(share, least)
            tracer.phase = "extra"
        else:
            reps = workload.measure(args.seconds, workload.min_reps)
        for rep in untraced + reps:
            attempted, failed = attempted + rep.ops + rep.failed, failed + rep.failed

        a, f = workload.verify()
        attempted, failed = attempted + a, failed + f
        if args.trace:
            workload.probe()
            workload.facts["snapshot_io.bytes"] = stored[0]
            values = {
                name: (value, len(reps))
                for name, value in per_layer(workload, tracer.spans, reps, untraced).items()
            }
            declared = spec["per_layer"]
        else:
            workload.teardown()  # reap pool workers so their memory is counted
            values = end_to_end(workload, setups, reps, stored)
            declared = spec["end_to_end"]
    finally:
        tracer.uninstall()
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        sys.exit(
            "perf/run.py: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}"
        )
    for name in units:
        value, n = values[name]
        print(f"{workload.name} {name} {value:.6g} {units[name]} n={n}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name][0], "unit": units[name]} for name in units},
    }
    if args.out:
        write_result(args, workload, result, reps, untraced, tracer)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def host_fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_result(args, workload, result, reps, untraced, tracer) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}.seed{args.seed}.trace{args.trace}"
    record = dict(result)
    record.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=args.trace,
        host=host_fingerprint(),
        rep_seconds=[rep.seconds for rep in reps],
        rep_host_factors=[rep.host for rep in reps],
        untraced_rep_seconds=[rep.seconds for rep in untraced],
    )
    with open(out / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(out / f"{stem}.spans.json", "w") as handle:
            json.dump(tracer.spans, handle)


# ----------------------------------------------------------------------
# comparing two result sets
# ----------------------------------------------------------------------


def read_set(directory: str) -> dict:
    """``(workload, metric) → values`` over every untraced run in ``directory``."""
    values: dict = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        with open(path) as handle:
            record = json.load(handle)
        if not record["correct"]:
            sys.exit(f"perf/run.py: {path} records a failed run")
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(entry["value"])
    if not values:
        sys.exit(f"perf/run.py: no *.trace0.json results in {directory}")
    return values


def summary(values) -> tuple:
    """``(median, q1, q3, spread)``; spread is (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def compare(dir_a: str, dir_b: str, spec) -> int:
    """B against A: a bounded metric may not be worse by more than its bound."""
    set_a, set_b = read_set(dir_a), read_set(dir_b)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    print(
        "workload metric | A median [q1 q3] spread n | B median [q1 q3] spread n "
        "| worse_by bound verdict"
    )
    for key in sorted(set_a):
        workload, metric = key
        if key not in set_b or metric not in bounds:
            continue
        a, b = summary(set_a[key]), summary(set_b[key])
        lower_is_better = bounds[metric]["better"] == "lower"
        worse_by = (b[0] - a[0]) / a[0] if lower_is_better else (a[0] - b[0]) / a[0]
        bound = bounds[metric]["bound"]
        verdict = "ok"
        if worse_by > bound:
            verdict = "REGRESSED"
            worst = 1
        elif max(a[3], b[3]) > bound and metric != "setup_s":
            verdict = "unresolved (spread > bound)"
        sides = " | ".join(
            f"{s[0]:.6g} [{s[1]:.6g} {s[2]:.6g}] {s[3]:.3f} n={len(v)}"
            for s, v in ((a, set_a[key]), (b, set_b[key]))
        )
        print(f"{workload} {metric} | {sides} | {worse_by:+.3f} {bound} {verdict}")
    return worst


# ----------------------------------------------------------------------


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink inputs (smoke test)")
    parser.add_argument("--out", help="directory for result and span files")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not args.workload:
        parser.error("--workload is required")
    if any(os.environ.get(key) != value for key, value in MALLOC_ENV.items()):
        # The allocator reads its settings at start-up: replace this process
        # (same pid, nothing left behind) with one that has them.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
