"""Synthetic stand-ins for the paper's seven benchmark datasets.

The original evaluation uses two real datasets from the Beckmann/Seeger
benchmark (``rea02``, ``rea03``), two synthetic ones (``par02``,
``par03``), and three Human-Brain-Project neuroscience datasets
(``axo03``, ``den03``, ``neu03``).  None of those files can be shipped
here, so each is replaced by a deterministic generator that reproduces the
geometric character the paper's analysis relies on.

Use :func:`generate` with a dataset name, or the generator classes
directly for custom parameters.
"""

from repro.datasets.base import DatasetGenerator
from repro.datasets.neurites import NeuriteGenerator
from repro.datasets.parcels import ParcelGenerator
from repro.datasets.points import PointCloudGenerator
from repro.datasets.registry import DATASET_NAMES, dataset_info, generate
from repro.datasets.streets import StreetSegmentGenerator
from repro.datasets.uniform import GaussianClusterGenerator, UniformBoxGenerator

__all__ = [
    "DatasetGenerator",
    "ParcelGenerator",
    "StreetSegmentGenerator",
    "PointCloudGenerator",
    "NeuriteGenerator",
    "UniformBoxGenerator",
    "GaussianClusterGenerator",
    "generate",
    "dataset_info",
    "DATASET_NAMES",
]
