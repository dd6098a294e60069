"""Benchmark configuration.

The paper's datasets hold 1–12 million objects; re-running every
experiment at that scale in pure Python would take days, and all reported
quantities are ratios that stabilise at much smaller sizes.
``BenchConfig`` therefore defaults to a few thousand objects per dataset;
``repro bench run <exp> --set size=N`` sets every dataset to ``N``
objects and records it in the run's archived config.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.rtree.registry import canonical_variant


class ParameterError(ValueError):
    """An unknown parameter name, or a value that cannot be parsed or breaks a rule."""


_DEFAULT_SIZES = {
    "par02": 3200,
    "par03": 2200,
    "rea02": 3200,
    "rea03": 3200,
    "axo03": 2200,
    "den03": 2200,
    "neu03": 2200,
    # uniform stand-ins for the d ∈ {2,...,8} scenario sweep
    "uniform02": 1600,
    "uniform03": 1600,
    "uniform04": 1600,
    "uniform06": 1600,
    "uniform08": 1600,
}


def _count(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 1


def _known_variants(names) -> bool:
    try:
        for name in names:
            canonical_variant(name)
    except (AttributeError, TypeError, ValueError):
        return False
    return bool(names)


#: ``(field, rule, check)`` per checked :class:`BenchConfig` field: a value
#: that would fail an experiment midway, or record a run no build can
#: replay.  NaN fails every rule.
_CONFIG_RULES = (
    ("max_entries", "an integer >= 2", lambda v: isinstance(v, numbers.Integral) and v >= 2),
    ("clip_k", "None or an integer >= 0",
     lambda v: v is None or (isinstance(v, numbers.Integral) and v >= 0)),
    ("clip_tau", "within [0, 1)", lambda v: 0 <= v < 1),
    ("dataset_sizes", "an integer >= 1 per dataset (--set size)",
     lambda v: all(map(_count, v.values()))),
    ("queries_per_profile", "an integer >= 1", _count),
    ("serve_requests", "an integer >= 1", _count),
    ("serve_concurrency", "an integer >= 1", _count),
    ("scalability_size", "an integer >= 1", _count),
    ("join_size", "an integer >= 1", _count),
    ("variants", "one or more R-tree variant names", _known_variants),
)


@dataclass
class BenchConfig:
    """Parameters shared by every experiment.

    A value breaking one of ``_CONFIG_RULES`` is a :class:`ParameterError`
    naming the field and its rule, at construction and after
    :meth:`apply_overrides`: before an experiment runs or is archived.
    """

    #: objects per dataset
    dataset_sizes: Dict[str, int] = field(default_factory=dict)
    #: queries evaluated per (dataset, profile)
    queries_per_profile: int = 36
    #: node capacity used when building trees (kept moderate so that pure-
    #: Python insertion-built variants stay fast; the paper derives it from
    #: a 4 KiB page instead, see repro.storage.page)
    max_entries: int = 24
    #: maximum clip points per node: ``None`` means the paper's 2**(d+1)
    clip_k: int | None = None
    #: minimum clipped volume as a fraction of node volume (paper: 2.5 %)
    clip_tau: float = 0.025
    #: base RNG seed
    seed: int = 7
    #: requests driven through the ``serve`` experiment's closed loop
    serve_requests: int = 400
    #: maximum in-flight requests in the ``serve`` experiment
    serve_concurrency: int = 32
    #: dataset size used by the Figure 15 scalability experiment
    scalability_size: int = 5000
    #: objects per side of the spatial-join experiment
    join_size: int = 1200
    #: the R-tree variants, in the paper's order
    variants: Tuple[str, ...] = ("quadratic", "hilbert", "rstar", "rrstar")

    def __post_init__(self):
        if not self.dataset_sizes:
            self.dataset_sizes = dict(_DEFAULT_SIZES)
        self.check()

    def check(self) -> None:
        """Raise :class:`ParameterError` for the first field breaking its rule."""
        for name, rule, holds in _CONFIG_RULES:
            value = getattr(self, name)
            if not holds(value):
                raise ParameterError(f"{name} must be {rule}, got {value!r}")

    def size_of(self, dataset: str) -> int:
        """Number of objects to generate for ``dataset``."""
        return self.dataset_sizes.get(dataset, 2000)

    @classmethod
    def tiny(cls) -> "BenchConfig":
        """A very small configuration used by the test-suite."""
        # join_size stays at its default: below ~800 objects a side the two
        # neurite sets no longer meet and the join emits no pair at all.
        return cls(
            dataset_sizes={name: 400 for name in _DEFAULT_SIZES},
            queries_per_profile=10,
            max_entries=16,
            scalability_size=1200,
        )

    # ------------------------------------------------------------------
    # declarative parameter schema (used by ``repro bench run --set``)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict:
        """A JSON-serialisable snapshot of every parameter."""
        data = dataclasses.asdict(self)
        data["variants"] = list(self.variants)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchConfig":
        """Rebuild a config from :meth:`as_dict` output (extra keys ignored).

        Used by ``repro bench compare`` to re-run an experiment under the
        configuration recorded in a baseline archive (an archive may
        record keys this build has no field for; they do not fail it).
        """
        names = {fld.name for fld in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in names}
        if "variants" in kwargs:
            kwargs["variants"] = tuple(kwargs["variants"])
        if "dataset_sizes" in kwargs:
            kwargs["dataset_sizes"] = {
                str(name): int(size) for name, size in kwargs["dataset_sizes"].items()
            }
        return cls(**kwargs)

    @classmethod
    def param_schema(cls) -> Dict[str, str]:
        """Settable parameter names mapped to a human-readable type.

        Derived from the dataclass fields; ``size`` is a convenience
        pseudo-parameter that sets every entry of ``dataset_sizes`` at
        once (mirroring the CLI's ``--size``).
        """
        schema: Dict[str, str] = {}
        for fld in dataclasses.fields(cls):
            if fld.name == "dataset_sizes":
                continue
            if fld.name == "variants":
                schema[fld.name] = "comma-separated variant names"
            elif fld.name == "clip_k":
                schema[fld.name] = "int or 'none'"
            elif fld.type in ("int", int):
                schema[fld.name] = "int"
            elif fld.type in ("float", float):
                schema[fld.name] = "float"
            else:
                schema[fld.name] = "str"
        schema["size"] = "int (sets every dataset size)"
        return schema

    def apply_overrides(self, overrides: Mapping[str, str]) -> "BenchConfig":
        """Apply ``key=value`` overrides in place and return ``self``.

        Every key must appear in :meth:`param_schema`; unknown keys,
        unparsable values and values breaking a rule (:meth:`check`) raise
        :class:`ParameterError` naming the offending key and the valid
        alternatives or the rule.
        """
        schema = self.param_schema()
        for key, raw in overrides.items():
            if key not in schema:
                raise ParameterError(
                    f"unknown parameter {key!r}; settable parameters: "
                    + ", ".join(sorted(schema))
                )
            try:
                if key == "size":
                    self.dataset_sizes = {
                        name: int(raw) for name in self.dataset_sizes
                    }
                elif key == "variants":
                    self.variants = tuple(
                        part.strip() for part in str(raw).split(",") if part.strip()
                    )
                elif key == "clip_k":
                    self.clip_k = None if str(raw).lower() == "none" else int(raw)
                else:
                    current = getattr(self, key)
                    if isinstance(current, bool):
                        self.__dict__[key] = str(raw).lower() in ("1", "true", "yes")
                    elif isinstance(current, int):
                        self.__dict__[key] = int(raw)
                    elif isinstance(current, float):
                        self.__dict__[key] = float(raw)
                    else:
                        self.__dict__[key] = type(current)(raw) if current is not None else raw
            except ParameterError:
                raise
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"cannot parse {key}={raw!r} as {schema[key]}: {exc}"
                ) from None
        self.check()
        return self
