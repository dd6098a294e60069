"""Guttman's original R-tree with the quadratic split algorithm (QR-tree).

The split is Guttman's PickSeeds / PickNext (SIGMOD 1984) over a node's
entry bounds as arrays.  PickSeeds is one pass over all pairs.  PickNext
keeps, for each group, its enlargement by every entry in one array and,
after each assignment, recomputes only the array of the group that took
the entry, and only when its box grew: at most one array pass per step.
Every value is :meth:`Rect.enlargement`'s and :meth:`Rect.volume`'s to
the bit, products in the same dimension order, so the groups are those
of the scalar loops entry for entry
(``tests/test_quadratic_split_kernels.py`` keeps the loops as the
oracle).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.entry import Entry
from repro.rtree.node import Node


def _volumes(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row volumes of ``(n, d)`` bounds, multiplied in :meth:`Rect.volume`'s order.

    ``Rect.volume`` starts from ``1.0``; ``1.0 * x`` is ``x`` to the bit,
    so the product starts from the first side.
    """
    volume = highs[:, 0] - lows[:, 0]
    for dim in range(1, lows.shape[1]):
        volume = volume * (highs[:, dim] - lows[:, dim])
    return volume


def _volume(low: Sequence[float], high: Sequence[float]) -> float:
    """:meth:`Rect.volume` of the box ``low``–``high``, to the bit."""
    volume = 1.0
    for lo, hi in zip(low, high):
        volume *= hi - lo
    return volume


def _enlargements(
    low: Sequence[float], high: Sequence[float], volume: float, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """``Rect(low, high).enlargement(row)`` for every row of ``(n, d)`` bounds, to the bit.

    ``volume`` is the box's own (:func:`_volume`).  A row the box cannot
    cover finitely (``inf - inf``) gives NaN; the caller silences that
    warning.
    """
    return _volumes(np.minimum(low, lows), np.maximum(high, highs)) - volume


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
        """Guttman's PickSeeds, then PickNext until the entries run out or a group must fill.

        PickNext takes the first remaining entry maximising ``|growth1 -
        growth2|`` (a NaN difference never wins; the first remaining
        entry does when all are NaN); the entry joins the group it
        enlarges less, then the one of smaller volume, then the one with
        fewer entries, the first on a full tie.
        """
        entries = list(node.entries)
        lows = np.array([entry.rect.low for entry in entries], dtype=np.float64)
        highs = np.array([entry.rect.high for entry in entries], dtype=np.float64)
        seeds = self._pick_seeds(lows, highs)
        groups: Tuple[List[Entry], List[Entry]] = ([entries[seeds[0]]], [entries[seeds[1]]])
        # Per group: its box as ``low``, ``high`` tuples and its volume.
        boxes = [(entries[seed].rect.low, entries[seed].rect.high) for seed in seeds]
        volumes = [_volume(*box) for box in boxes]
        taken = np.zeros(len(entries), dtype=bool)
        taken[list(seeds)] = True
        left = len(entries) - 2
        with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf: as for the floats
            growth = [
                _enlargements(*box, volume, lows, highs) for box, volume in zip(boxes, volumes)
            ]
            while left:
                # Minimum-fill safeguard: if one group must take everything left.
                for group in groups:
                    if len(group) + left == self.min_entries:
                        group.extend(entries[i] for i in np.flatnonzero(~taken).tolist())
                        return groups
                # A NaN difference ranks -1, below every other; a taken row -2.
                preference = np.fmax(np.abs(growth[0] - growth[1]), -1.0)
                index = int(np.argmax(np.where(taken, -2.0, preference)))
                taken[index] = True
                left -= 1
                d1, d2 = growth[0][index], growth[1][index]
                first = d1 < d2 or (
                    d1 == d2
                    and (
                        volumes[0] < volumes[1]
                        or (volumes[0] == volumes[1] and len(groups[0]) <= len(groups[1]))
                    )
                )
                side = 0 if first else 1
                entry = entries[index]
                groups[side].append(entry)
                low, high = boxes[side]
                # Rect.union's min / max, argument order included.
                grown = (
                    tuple(map(min, low, entry.rect.low)),
                    tuple(map(max, high, entry.rect.high)),
                )
                if grown != boxes[side]:
                    boxes[side] = grown
                    volumes[side] = _volume(*grown)
                    growth[side] = _enlargements(*grown, volumes[side], lows, highs)
        return groups

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
        with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf: as for the floats
            union = _volumes(  # ``take``: a row gather without fancy indexing's overhead
                np.minimum(lows.take(first, axis=0), lows.take(second, axis=0)),
                np.maximum(highs.take(first, axis=0), highs.take(second, axis=0)),
            )
            volume = _volumes(lows, highs)
            waste = union - volume[first] - volume[second]
        best = int(np.argmax(np.where(np.isnan(waste), -np.inf, waste)))
        return int(first[best]), int(second[best])
