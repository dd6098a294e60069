"""Guttman's original R-tree with the quadratic split algorithm (QR-tree)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.entry import Entry
from repro.rtree.node import Node


def _volumes(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row volumes of ``(n, d)`` bounds, multiplied in :meth:`Rect.volume`'s order."""
    volume = np.ones(len(lows))
    for dim in range(lows.shape[1]):
        volume = volume * (highs[:, dim] - lows[:, dim])
    return volume


def _enlargements(rect: Rect, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """``rect.enlargement(row)`` for every row of ``(n, d)`` bounds, to the bit."""
    union = _volumes(np.minimum(rect.low, lows), np.maximum(rect.high, highs))
    return union - rect.volume()


class QuadraticRTree(RTreeBase):
    """The classic R-tree (Guttman, SIGMOD 1984), quadratic split variant.

    * ChooseLeaf descends into the child needing the least area enlargement
      (ties broken by smaller area).
    * Node splits use PickSeeds / PickNext with the usual minimum-fill
      safeguard.
    """

    variant_name = "quadratic"

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        """The first entry of least ``enlargement(rect)``, then least volume.

        :meth:`Rect.enlargement` and :meth:`Rect.volume` inlined, products
        in the same dimension order, so the floats are theirs to the bit; a
        NaN enlargement (``inf - inf``) never wins.  A plain loop: on a node
        of 2–48 entries NumPy's per-call overhead costs more than it saves.
        """
        low, high = rect.low, rect.high
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        for i, entry in enumerate(node.entries):
            bounds = entry.rect
            area = union = 1.0
            for lo, hi, other_lo, other_hi in zip(bounds.low, bounds.high, low, high):
                area *= hi - lo
                union *= (other_hi if other_hi > hi else hi) - (other_lo if other_lo < lo else lo)
            enlargement = union - area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_index = i
                best_enlargement = enlargement
                best_area = area
        return best_index

    def _split(self, node: Node) -> Tuple[List[Entry], List[Entry]]:
        entries = list(node.entries)
        lows = np.array([entry.rect.low for entry in entries], dtype=np.float64)
        highs = np.array([entry.rect.high for entry in entries], dtype=np.float64)
        seed1, seed2 = self._pick_seeds(lows, highs)
        group1 = [entries[seed1]]
        group2 = [entries[seed2]]
        rect1 = group1[0].rect
        rect2 = group2[0].rect
        # Positions into ``entries`` (and the bound arrays) still unassigned.
        remaining = [i for i in range(len(entries)) if i not in (seed1, seed2)]

        while remaining:
            # Minimum-fill safeguard: if one group must take everything left.
            if len(group1) + len(remaining) == self.min_entries:
                group1.extend(entries[i] for i in remaining)
                break
            if len(group2) + len(remaining) == self.min_entries:
                group2.extend(entries[i] for i in remaining)
                break

            index = self._pick_next(lows[remaining], highs[remaining], rect1, rect2)
            entry = entries[remaining.pop(index)]
            d1 = rect1.enlargement(entry.rect)
            d2 = rect2.enlargement(entry.rect)
            if d1 < d2 or (
                d1 == d2
                and (
                    rect1.volume() < rect2.volume()
                    or (rect1.volume() == rect2.volume() and len(group1) <= len(group2))
                )
            ):
                group1.append(entry)
                rect1 = rect1.union(entry.rect)
            else:
                group2.append(entry)
                rect2 = rect2.union(entry.rect)
        return group1, group2

    @staticmethod
    def _pick_seeds(lows: np.ndarray, highs: np.ndarray) -> Tuple[int, int]:
        """The pair of entries wasting the most area if grouped together.

        ``lows`` / ``highs`` are the entries' ``(n, d)`` bounds.  The waste
        of pair ``(i, j)`` is ``union.volume() - volume(i) - volume(j)``
        in that order of operations, the pairs are ranked in ``i``-major
        order and the first maximum wins; a NaN waste (``inf - inf`` from
        infinite bounds) never wins, and with no finite winner the answer
        is ``(0, 1)``.
        """
        first, second = np.triu_indices(len(lows), 1)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for the floats
            union = _volumes(
                np.minimum(lows[first], lows[second]), np.maximum(highs[first], highs[second])
            )
            volume = _volumes(lows, highs)
            waste = union - volume[first] - volume[second]
        best = int(np.argmax(np.where(np.isnan(waste), -np.inf, waste)))
        return int(first[best]), int(second[best])

    @staticmethod
    def _pick_next(lows: np.ndarray, highs: np.ndarray, rect1: Rect, rect2: Rect) -> int:
        """The entry with the strongest preference for one of the groups.

        Over the remaining entries' ``(n, d)`` bounds: the first row
        maximising ``|rect1.enlargement(row) - rect2.enlargement(row)|``;
        a NaN difference never wins, and row 0 does when all are NaN.
        """
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for the floats
            difference = np.abs(
                _enlargements(rect1, lows, highs) - _enlargements(rect2, lows, highs)
            )
        return int(np.argmax(np.where(np.isnan(difference), -1.0, difference)))
