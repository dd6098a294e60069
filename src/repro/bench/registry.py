"""Declarative registry of every experiment in the reproduction.

Each entry wraps one module from :mod:`repro.bench.experiments` behind a
uniform contract: ``build(context, **kwargs) -> {table name: rows}``, and
``claims(tables) -> {name: holds}``: the paper's findings those tables
must reproduce, archived as ``claims.<name>`` metrics.
The CLI's ``list-experiments`` and the whole
``repro bench run/compare/archive`` harness dispatch through this
registry, and the parameter schema every experiment accepts via
``--set key=value`` is the :class:`~repro.bench.config.BenchConfig`
field schema (see :meth:`BenchConfig.param_schema`).

``smoke_kwargs`` are the per-experiment keyword overrides used by
``repro bench run --smoke`` — small enough that *every* registered
experiment finishes in seconds on the tiny config, which is what the
tier-1 tests and the CI smoke step execute, yet with rows for every claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.bench.experiments import (
    ablations,
    dims_sweep,
    fig01_motivation,
    fig08_bounding_example,
    fig09_bounding_comparison,
    fig10_clipped_dead_space,
    fig11_range_queries,
    fig12_update_cost,
    fig13_storage,
    fig14_build_time,
    fig15_scalability,
    hotspot,
    joins,
    mixed_workload,
    serving,
)
from repro.bench.harness import ExperimentContext

Tables = Dict[str, List[Dict]]


class UnknownExperimentError(ValueError):
    """An experiment id that is not in the registry."""


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: id, docs, and its run contract."""

    id: str
    description: str
    build: Callable[..., Tables]
    titles: Mapping[str, str] = field(default_factory=dict)
    smoke_kwargs: Mapping[str, object] = field(default_factory=dict)
    claims: Callable[[Tables], Mapping[str, bool]] = lambda tables: {}


REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    REGISTRY[experiment.id] = experiment
    return experiment


def experiment_ids() -> Tuple[str, ...]:
    return tuple(REGISTRY)


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(REGISTRY)}"
        ) from None


def derive_metrics(tables: Tables) -> Dict[str, float]:
    """Scalar metrics from tables: per-column means plus row counts.

    Every numeric column of every table becomes ``<table>.<column>``
    (its mean over non-null rows) and every table contributes
    ``<table>.rows``; these are what ``repro bench compare`` diffs.
    """
    metrics: Dict[str, float] = {}
    for name, rows in tables.items():
        metrics[f"{name}.rows"] = float(len(rows))
        if not rows:
            continue
        columns: Dict[str, List[float]] = {}
        for row in rows:
            for column, value in row.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                columns.setdefault(column, []).append(float(value))
        for column, values in columns.items():
            metrics[f"{name}.{column}"] = round(sum(values) / len(values), 6)
    return metrics


# ----------------------------------------------------------------------
# registrations — one per table/figure of the paper, plus the scenarios
# ----------------------------------------------------------------------


def _build_fig11(context: ExperimentContext, **kwargs) -> Tables:
    rows = fig11_range_queries.run(context, **kwargs)
    return {"fig11": rows, "table1": fig11_range_queries.table1(rows)}


def _single_table(name: str, run: Callable[..., List[Dict]], needs_context: bool = True):
    if needs_context:
        return lambda context, **kwargs: {name: run(context, **kwargs)}
    return lambda context, **kwargs: {name: run(**kwargs)}


def _claims_of(name: str, claims: Callable[[List[Dict]], Mapping[str, bool]]):
    return lambda tables: claims(tables[name])


register(Experiment(
    id="fig01",
    description="overlap, dead space, and I/O optimality of unclipped R-trees",
    build=fig01_motivation.run,
    claims=fig01_motivation.claims,
    titles={
        "fig1a_overlap": "Figure 1a — overlap (%)",
        "fig1b_dead_space": "Figure 1b — dead space (%)",
        "fig1c_io_optimality": "Figure 1c — I/O optimality (%)",
    },
))
register(Experiment(
    id="fig08",
    description="bounding methods on the paper's running example",
    build=_single_table("fig08", fig08_bounding_example.run, needs_context=False),
    titles={"fig08": "Figure 8"},
    claims=_claims_of("fig08", fig08_bounding_example.claims),
))
register(Experiment(
    id="fig09",
    description="dead space vs representation cost of 8 bounding methods",
    build=_single_table("fig09", fig09_bounding_comparison.run),
    titles={"fig09": "Figure 9"},
    claims=_claims_of("fig09", fig09_bounding_comparison.claims),
))
register(Experiment(
    id="fig10",
    description="dead space clipped away as k varies (CSKY and CSTA)",
    build=_single_table("fig10", fig10_clipped_dead_space.run),
    titles={"fig10": "Figure 10"},
    smoke_kwargs={"datasets": ("par02",), "k_values": (1, 4)},
    claims=_claims_of("fig10", fig10_clipped_dead_space.claims),
))
register(Experiment(
    id="fig11",
    description="range-query I/O of clipped vs unclipped trees + Table I",
    build=_build_fig11,
    titles={
        "fig11": "Figure 11 — relative leaf accesses (%)",
        "table1": "Table I — avg. % I/O reduction (skyline/stairline)",
    },
    smoke_kwargs={"datasets": ("par02",)},
    claims=_claims_of("fig11", fig11_range_queries.claims),
))
register(Experiment(
    id="fig12",
    description="expected re-clips per insertion",
    build=_single_table("fig12", fig12_update_cost.run),
    titles={"fig12": "Figure 12"},
    smoke_kwargs={"datasets": ("par02",)},
    claims=_claims_of("fig12", fig12_update_cost.claims),
))
register(Experiment(
    id="fig13",
    description="storage overhead of clip points",
    build=_single_table("fig13", fig13_storage.run),
    titles={"fig13": "Figure 13"},
    smoke_kwargs={"datasets": ("par02", "axo03")},
    claims=_claims_of("fig13", fig13_storage.claims),
))
register(Experiment(
    id="fig14",
    description="build-time overhead of clipping",
    build=_single_table("fig14", fig14_build_time.run),
    titles={"fig14": "Figure 14"},
    smoke_kwargs={"datasets": ("par02",)},
    claims=_claims_of("fig14", fig14_build_time.claims),
))
register(Experiment(
    id="joins",
    description="INLJ and STT spatial joins with and without clipping",
    build=_single_table("joins", joins.run),
    titles={"joins": "Spatial joins (§V)"},
    smoke_kwargs={"variants": ("quadratic",)},
    claims=_claims_of("joins", joins.claims),
))
register(Experiment(
    id="fig15",
    description="cold-disk scalability experiment",
    build=_single_table("fig15", fig15_scalability.run),
    titles={"fig15": "Figure 15"},
    smoke_kwargs={"datasets": ("par02",), "size": 600, "queries_per_profile": 5},
    claims=_claims_of("fig15", fig15_scalability.claims),
))
register(Experiment(
    id="ablations",
    description="τ sweep, scoring approximation error, k sweep",
    build=ablations.run,
    titles={
        "tau_sweep": "τ sweep",
        "scoring": "scoring approximation",
        "k_sweep": "k sweep (query I/O)",
    },
    smoke_kwargs={"taus": (0.0, 0.025, 0.1), "k_values": (1, 4)},
    claims=ablations.claims,
))

# -- scenarios the paper never ran ------------------------------------

register(Experiment(
    id="dims",
    description="d ∈ {2,4,6,8} sweep: clipping's win as dimensionality grows",
    build=_single_table("dims", dims_sweep.run),
    titles={"dims": "Dimensionality sweep — clipped win vs d"},
    smoke_kwargs={"dims": (2, 4, 6, 8)},
))
register(Experiment(
    id="mixed",
    description="mixed read/write stream over SnapshotManager (delta vs refreeze)",
    build=_single_table("mixed", mixed_workload.run),
    titles={"mixed": "Mixed read/write workload — ops/s by write fraction"},
    smoke_kwargs={"write_fractions": (0.2,), "total_ops": 40},
))
register(Experiment(
    id="serve",
    description="online serving under seeded chaos: shed/retry/breaker counters",
    build=_single_table("serve", serving.run),
    titles={"serve": "Online serving under chaos (deterministic counters)"},
    smoke_kwargs={"requests": 120},
))
register(Experiment(
    id="hotspot",
    description="skewed hotspot query profile: I/O reduction and cache hit rate",
    build=_single_table("hotspot", hotspot.run),
    titles={"hotspot": "Skewed hotspot profile — clipping and caching under skew"},
))
