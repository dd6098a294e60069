"""Disk/page model and I/O accounting.

The paper's experiments measure *logical I/O*: the number of leaf-level
node accesses during queries (internal nodes are assumed memory-resident),
plus, for the scalability experiment, cold reads through a buffer pool.
This package provides the counters and a small simulated disk so those
measurements are explicit and reproducible.
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.page import PageLayout
from repro.storage.stats import IOStats

# This package models storage cost; it persists nothing.  The one on-disk
# form of an index is the snapshot directory of ``repro.engine.snapshot_io``.
__all__ = ["IOStats", "PageLayout", "DiskModel", "SimulatedDisk", "BufferPool"]
