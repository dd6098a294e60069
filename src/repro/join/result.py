"""Join result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.geometry.objects import SpatialObject
from repro.storage.stats import IOStats


@dataclass
class JoinResult:
    """Output of a spatial join: result pairs plus I/O accounting.

    ``pair_count`` is maintained by every join algorithm in both modes:
    with ``collect_pairs=True`` it equals ``len(pairs)``, with
    ``collect_pairs=False`` the pairs are counted without being
    materialised.

    ``outer_stats`` / ``inner_stats`` separate the leaf accesses incurred
    in each input index (for INLJ only the inner side is indexed, so
    ``outer_stats`` stays empty).
    """

    pairs: List[Tuple[SpatialObject, SpatialObject]] = field(default_factory=list)
    pair_count: int = 0
    outer_stats: IOStats = field(default_factory=IOStats)
    inner_stats: IOStats = field(default_factory=IOStats)

    @property
    def total_leaf_accesses(self) -> int:
        """Leaf accesses summed over both inputs — the paper's join metric."""
        return self.outer_stats.leaf_accesses + self.inner_stats.leaf_accesses
