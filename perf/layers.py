"""Per-layer metrics of the traced run, computed from spans and counters.

One metric is ``<layer>.<what>`` with ``layer`` the module under
``src/repro`` that does the work.  Every workload reports every metric; a
layer the workload never enters reads 0, which is the written prediction
for a workload that bypasses it (``README.md`` has the interaction table).

Times named ``*_s`` are seconds **per repetition** of the workload (one
batch, one join under both strategies, one write cycle, one build
pipeline; on the serve workloads 1 000 answered requests), so that they
compare across runs that fitted different numbers of repetitions into
``--seconds``.  ``mean`` times (``columnar.freeze_s``, ``bulk_clip.clip_s``
…) are per call of that boundary, in whatever phase it was called.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

from tracing import covered, self_times

#: name → unit, in report order.  ``run.py`` checks this against BENCHMARK.json.
PER_LAYER: Dict[str, str] = {
    "executor.gather_s": "s",
    "executor.materialize_s": "s",
    "executor.range_self_s": "s",
    "executor.knn_ms_per_point": "ms",
    "executor.leaf_accesses_per_query": "count",
    "executor.internal_accesses_per_query": "count",
    "executor.contributing_leaf_share": "ratio",
    "executor.clip_io_reduction": "ratio",
    "executor.results_per_query": "count",
    "parallel.startup_s": "s",
    "parallel.range_batch_s": "s",
    "parallel.speedup_vs_serial": "ratio",
    "parallel.pool_rebuilds": "count",
    "parallel.serial_fallbacks": "count",
    "join_exec.inlj_s": "s",
    "join_exec.stt_s": "s",
    "join_exec.stt_collect_extra_s": "s",
    "join_exec.pairs": "count",
    "join_exec.inlj_leaf_accesses": "count",
    "join_exec.stt_leaf_accesses": "count",
    "join_exec.stt_contributing_leaf_share": "ratio",
    "server.engine_busy_share": "ratio",
    "server.self_ms_per_request": "ms",
    "server.mean_batch_size": "count",
    "server.batches": "count",
    "server.range_ms_p50": "ms",
    "server.knn_ms_p50": "ms",
    "server.insert_ms_p50": "ms",
    "server.retries": "count",
    "server.errors": "count",
    "server.shed": "count",
    "server.deadline_exceeded": "count",
    "server.degraded_batches": "count",
    "server.compactions": "count",
    "server.compaction_failures": "count",
    "delta.base_query_s": "s",
    "delta.overlay_merge_s": "s",
    "delta.overlay_read_qps": "1/s",
    "delta.pending_ops_at_read_mean": "count",
    "delta.insert_us_p50": "us",
    "delta.delete_us_p50": "us",
    "delta.compactions": "count",
    "delta.compact_s_p50": "s",
    "delta.compact_s_max": "s",
    "delta.compact_share": "ratio",
    "incremental_clip.reclip_s": "s",
    "incremental_clip.reclipped_nodes": "count",
    "incremental_clip.reclipped_nodes_per_op": "count",
    "columnar.freeze_s": "s",
    "rtree.apply_s": "s",
    "rtree.str_build_s": "s",
    "bulk_clip.clip_s": "s",
    "bulk_clip.clip_points": "count",
    "bulk_clip.clip_us_per_node": "us",
    "builder.str_pack_s": "s",
    "snapshot_io.save_s": "s",
    "snapshot_io.load_ms": "ms",
    "snapshot_io.bytes": "bytes",
    "snapshot_io.first_batch_ms": "ms",
    "datasets.generate_s": "s",
    "run.warmup_rep_s": "s",
    "run.host_factor": "ratio",
    "trace.overhead_share": "ratio",
    "trace.covered_share": "ratio",
}

_MANAGED_READS = ("delta.range_batch", "delta.knn_batch")
_BASE_READS = ("executor.range_batch", "executor.knn_batch")
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(workload, spans: List[Dict[str, Any]], reps, untraced_reps) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run of ``workload``."""
    facts = workload.facts
    out = {name: 0.0 for name in PER_LAYER}
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    serving = "admitted" in reps[0].extra  # the server's counters ride on serve repetitions

    wall = sum(rep.seconds for rep in reps)
    ops = sum(rep.ops for rep in reps)
    # The repetition unit the ``*_s`` times are divided by.
    units = ops / 1000.0 if serving else float(len(reps))

    measured: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    anywhere: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        anywhere[span["name"]].append(span)
        if span["phase"] == "measure":
            measured[span["name"]].append(span)

    def dur(span) -> float:
        return span["end"] - span["start"]

    def total(name: str) -> float:
        return sum(dur(s) for s in measured[name])

    def total_self(name: str) -> float:
        return sum(selfs[s["id"]] for s in measured[name])

    def mean_call(name: str) -> float:
        return _mean([dur(s) for s in anywhere[name]])

    def parent_name(span) -> str:
        parent = by_id.get(span["parent"])
        return parent["name"] if parent else ""

    # -- executor -------------------------------------------------------
    out["executor.gather_s"] = total_self("executor.gather") / units
    out["executor.materialize_s"] = total_self("executor.materialize") / units
    out["executor.range_self_s"] = total_self("executor.range_batch") / units
    knn_points = sum(s["n"] for s in measured["executor.knn_batch"])
    if knn_points:
        out["executor.knn_ms_per_point"] = total("executor.knn_batch") / knn_points * 1000.0
    io = facts.get("io")
    if io:
        out["executor.leaf_accesses_per_query"] = io["leaf"] / io["queries"]
        out["executor.internal_accesses_per_query"] = io["internal"] / io["queries"]
        out["executor.contributing_leaf_share"] = io["contributing"] / max(1, io["leaf"])
        out["executor.results_per_query"] = io["results"] / io["queries"]
    out["executor.clip_io_reduction"] = facts.get("clip_io_reduction", 0.0)

    # -- parallel, join_exec ---------------------------------------------
    out["parallel.range_batch_s"] = total("parallel.range_batch") / units
    out["join_exec.inlj_s"] = total("join_exec.inlj") / units
    out["join_exec.stt_s"] = total("join_exec.stt") / units
    for name in PER_LAYER:
        if name in facts:  # counters and one-off timings a workload measured itself
            out[name] = float(facts[name])

    # -- server ----------------------------------------------------------
    if serving:
        report = {name: sum(rep.extra[name] for rep in reps) for name in reps[0].extra}
        # Manager calls made by the server's batch executions; the
        # background compaction runs beside them and is accounted under delta.
        busy = sum(
            dur(s)
            for name in _MANAGED_READS + ("delta.insert", "delta.delete")
            for s in measured[name]
        )
        requests = len(measured["server.request"])
        out["server.engine_busy_share"] = busy / wall
        out["server.self_ms_per_request"] = (wall - busy) / max(1, requests) * 1000.0
        out["server.mean_batch_size"] = report["admitted"] / max(1, report["batches"])
        for counter, moved in report.items():
            if counter != "admitted":
                out[f"server.{counter}"] = float(moved)
        for kind in ("range", "knn", "insert"):
            out[f"server.{kind}_ms_p50"] = 1000.0 * _median(
                [dur(s) for s in measured["server.request"] if s["tag"] == kind]
            )

    # -- delta -----------------------------------------------------------
    reads = [s for name in _MANAGED_READS for s in measured[name]]
    base = [
        s for name in _BASE_READS for s in measured[name] if parent_name(s) in _MANAGED_READS
    ]
    out["delta.base_query_s"] = sum(dur(s) for s in base) / units
    out["delta.overlay_merge_s"] = sum(selfs[s["id"]] for s in reads) / units
    out["delta.pending_ops_at_read_mean"] = _mean([float(s["n"]) for s in reads])
    dirty_reads = {s["id"]: s for s in measured["delta.range_batch"] if s["n"]}
    dirty_seconds = sum(dur(s) for s in dirty_reads.values())
    if dirty_seconds:
        answered = sum(s["n"] for s in base if s["parent"] in dirty_reads)
        out["delta.overlay_read_qps"] = answered / dirty_seconds
    out["delta.insert_us_p50"] = 1e6 * _median([dur(s) for s in measured["delta.insert"]])
    out["delta.delete_us_p50"] = 1e6 * _median([dur(s) for s in measured["delta.delete"]])
    folding = {s["parent"] for s in measured["columnar.freeze"] + measured["builder.str_pack"]}
    compactions = [s for s in measured["delta.compact"] if s["id"] in folding]
    if compactions:
        seconds = [dur(s) for s in compactions]
        out["delta.compactions"] = float(len(compactions))
        out["delta.compact_s_p50"] = _median(seconds)
        out["delta.compact_s_max"] = max(seconds)
        out["delta.compact_share"] = sum(seconds) / wall
        out["rtree.apply_s"] = sum(selfs[s["id"]] for s in compactions) / units

    # -- incremental_clip, columnar, rtree, bulk_clip, builder, snapshot_io
    reclips = measured["incremental_clip.reclip"]
    out["incremental_clip.reclip_s"] = sum(dur(s) for s in reclips) / units
    out["incremental_clip.reclipped_nodes"] = float(sum(s["n"] for s in reclips))
    writes = len(measured["delta.insert"]) + len(measured["delta.delete"])
    if writes:
        out["incremental_clip.reclipped_nodes_per_op"] = sum(s["n"] for s in reclips) / writes
    out["columnar.freeze_s"] = mean_call("columnar.freeze")
    out["rtree.str_build_s"] = mean_call("rtree.str_build")
    out["bulk_clip.clip_s"] = mean_call("bulk_clip.clip")
    indexes = workload.indexes()
    nodes = sum(index.node_count() for index in indexes)
    out["bulk_clip.clip_points"] = float(sum(len(index.clip_coords) for index in indexes))
    out["bulk_clip.clip_us_per_node"] = out["bulk_clip.clip_s"] * len(indexes) / max(1, nodes) * 1e6
    out["builder.str_pack_s"] = mean_call("builder.str_pack")
    out["snapshot_io.save_s"] = mean_call("snapshot_io.save")
    out["snapshot_io.load_ms"] = mean_call("snapshot_io.load") * 1000.0
    first = [rep.extra["first_batch_s"] for rep in reps if "first_batch_s" in rep.extra]
    out["snapshot_io.first_batch_ms"] = _median(first) * 1000.0
    out["datasets.generate_s"] = mean_call("datasets.generate")

    # -- the tracer itself -------------------------------------------------
    plain = _median([rep.normal_seconds for rep in untraced_reps])
    out["trace.overhead_share"] = (_median([rep.normal_seconds for rep in reps]) - plain) / plain
    roots = [
        (s["start"], s["end"])
        for s in spans
        if s["phase"] == "measure" and s["parent"] is None and s["name"] != "server.request"
    ]
    out["trace.covered_share"] = covered(roots) / wall

    # Times and rates in units of the reference kernel, like the end-to-end
    # metrics; one factor for the run, since spans straddle repetitions.
    host = _median([rep.host for rep in reps])
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms", "us"):
            out[name] /= host
        elif unit == "1/s":
            out[name] *= host
    out["run.host_factor"] = host
    return out
