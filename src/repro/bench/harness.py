"""Shared builders with caching so experiments reuse datasets and trees."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.config import BenchConfig
from repro.cbb.clipping import ClippingConfig
from repro.datasets import generate
from repro.engine import ColumnarIndex
from repro.geometry.objects import SpatialObject
from repro.query.workload import RangeQueryWorkload
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import build_rtree


class DatasetCache:
    """Process-wide cache of generated datasets and calibrated workloads.

    Generating objects and calibrating workloads is deterministic in
    ``(dataset, size, seed)`` — so when the runner executes several
    experiments back to back (each with its own :class:`ExperimentContext`),
    every context shares this cache instead of regenerating identical
    datasets.  ``hits``/``misses`` make the sharing observable in tests.
    """

    def __init__(self):
        self.objects: Dict[Tuple[str, int, int], List[SpatialObject]] = {}
        self.workloads: Dict[Tuple[str, int, int, int], RangeQueryWorkload] = {}
        self.hits = 0
        self.misses = 0

    def get_objects(self, dataset: str, size: int, seed: int) -> List[SpatialObject]:
        key = (dataset, size, seed)
        if key in self.objects:
            self.hits += 1
        else:
            self.misses += 1
            self.objects[key] = generate(dataset, size, seed=seed)
        return self.objects[key]

    def get_workload(
        self, dataset: str, target_results: int, size: int, seed: int
    ) -> RangeQueryWorkload:
        key = (dataset, target_results, size, seed)
        if key in self.workloads:
            self.hits += 1
        else:
            self.misses += 1
            objects = self.get_objects(dataset, size, seed)
            self.workloads[key] = RangeQueryWorkload.from_objects(
                objects, target_results=target_results, seed=seed
            )
        return self.workloads[key]

    def clear(self) -> None:
        self.objects.clear()
        self.workloads.clear()
        self.hits = 0
        self.misses = 0


#: The default process-wide cache shared by every ExperimentContext.
GLOBAL_DATASET_CACHE = DatasetCache()


class ExperimentContext:
    """Builds and caches datasets, trees, clipped trees, and workloads.

    Building an insertion-based R-tree is by far the most expensive step of
    the benchmark suite, so every experiment shares one context (module
    scope in the pytest-benchmark suite) and looks objects/trees up here.
    Datasets and calibrated workloads additionally live in a process-wide
    :class:`DatasetCache` keyed by ``(dataset, size, seed)``, so even
    *separate* contexts (one per archived run) never regenerate an
    identical dataset.
    """

    def __init__(
        self,
        config: Optional[BenchConfig] = None,
        dataset_cache: Optional[DatasetCache] = None,
    ):
        self.config = config if config is not None else BenchConfig()
        self.datasets = dataset_cache if dataset_cache is not None else GLOBAL_DATASET_CACHE
        self._trees: Dict[Tuple[str, str, int, int], RTreeBase] = {}
        self._clipped: Dict[Tuple[int, str, Optional[int], float], ClippedRTree] = {}
        self._snapshots: Dict[Tuple[int, object], ColumnarIndex] = {}

    # ------------------------------------------------------------------

    def objects(self, dataset: str, size: Optional[int] = None, seed: Optional[int] = None) -> List[SpatialObject]:
        """Objects of ``dataset`` at the configured size (cached)."""
        size = self.config.size_of(dataset) if size is None else size
        seed = self.config.seed if seed is None else seed
        return self.datasets.get_objects(dataset, size, seed)

    def tree(
        self,
        dataset: str,
        variant: str,
        size: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> RTreeBase:
        """An R-tree of ``variant`` over ``dataset`` (cached)."""
        size = self.config.size_of(dataset) if size is None else size
        max_entries = self.config.max_entries if max_entries is None else max_entries
        key = (dataset, variant, size, max_entries)
        if key not in self._trees:
            objects = self.objects(dataset, size)
            self._trees[key] = build_rtree(variant, objects, max_entries=max_entries)
        return self._trees[key]

    def clipped(
        self,
        dataset: str,
        variant: str,
        method: str = "stairline",
        k: Optional[int] = None,
        tau: Optional[float] = None,
        size: Optional[int] = None,
    ) -> ClippedRTree:
        """A clipped wrapper around the cached tree (cached per parameters)."""
        tree = self.tree(dataset, variant, size=size)
        k = self.config.clip_k if k is None else k
        tau = self.config.clip_tau if tau is None else tau
        key = (id(tree), method, k, tau)
        if key not in self._clipped:
            clipped = ClippedRTree(tree, ClippingConfig(method=method, k=k, tau=tau))
            clipped.clip_all()
            self._clipped[key] = clipped
        return self._clipped[key]

    def snapshot(self, index) -> ColumnarIndex:
        """A columnar snapshot of ``index`` (cached per structure version).

        The cache key includes the source's ``version`` counter, so a
        snapshot is rebuilt automatically after the underlying tree (or
        its clip store) mutates.
        """
        key = (id(index), index.version)
        if key not in self._snapshots:
            self._snapshots[key] = ColumnarIndex.from_tree(index)
        return self._snapshots[key]

    def workload(self, dataset: str, target_results: int, size: Optional[int] = None) -> RangeQueryWorkload:
        """A calibrated range-query workload over ``dataset`` (cached).

        Cached process-wide by ``(dataset, target_results, size, seed)`` —
        the seed is part of the key, so contexts with different configured
        seeds never alias each other's calibrations.
        """
        size = self.config.size_of(dataset) if size is None else size
        return self.datasets.get_workload(dataset, target_results, size, self.config.seed)

    def queries(self, dataset: str, target_results: int, size: Optional[int] = None):
        """A materialised list of queries for the given profile."""
        workload = self.workload(dataset, target_results, size=size)
        return workload.query_list(self.config.queries_per_profile)
