"""I/O statistics counters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Counts node accesses by category.

    ``leaf_accesses`` is the paper's primary I/O metric; the buffer
    counters support the buffer-pool experiments.
    """

    leaf_accesses: int = 0
    internal_accesses: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    #: leaf accesses that produced at least one query result
    contributing_leaf_accesses: int = 0

    @property
    def total_accesses(self) -> int:
        """All node reads, regardless of level."""
        return self.leaf_accesses + self.internal_accesses

    def record_leaf(self, contributed: bool = False) -> None:
        """Record one leaf-node access (``contributed``: it held a result)."""
        self.leaf_accesses += 1
        if contributed:
            self.contributing_leaf_accesses += 1

    def record_internal(self) -> None:
        """Record one directory-node access."""
        self.internal_accesses += 1

    def merge(self, other: "IOStats") -> "IOStats":
        """Add ``other``'s counters into this instance and return ``self``."""
        self.leaf_accesses += other.leaf_accesses
        self.internal_accesses += other.internal_accesses
        self.buffer_hits += other.buffer_hits
        self.buffer_misses += other.buffer_misses
        self.contributing_leaf_accesses += other.contributing_leaf_accesses
        return self

    def reset(self) -> None:
        """Zero every counter."""
        self.leaf_accesses = 0
        self.internal_accesses = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.contributing_leaf_accesses = 0
