"""The revised R*-tree (RR*-tree; Beckmann & Seeger, SIGMOD 2009).

This is a faithful re-implementation of the *structure* of the published
algorithm rather than a port of the authors' C code:

* ChooseSubtree first prefers children that cover the new rectangle
  outright (picking the smallest such child); otherwise candidates are
  ordered by perimeter (margin) enlargement and the one whose insertion
  adds the least overlap — measured by margin when every candidate has
  zero-volume overlap, as the original does for degenerate boxes — wins.
* The split picks the axis by minimum margin sum (as the R*-tree does) and
  the distribution by minimal overlap, using a perimeter-based overlap
  measure when volumes degenerate, with a balance-favouring tie-break.
* There is no forced reinsertion.

These are the components the paper credits for the RR*-tree's strong query
performance.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry.rect import Rect, mbb_of_rects
from repro.rtree.base import RTreeBase
from repro.rtree.entry import Entry
from repro.rtree.node import Node


def _overlap_margin(a: Rect, b: Rect) -> float:
    """Margin of the intersection of two rectangles (0 when disjoint)."""
    inter = a.intersection(b)
    return inter.margin() if inter is not None else 0.0


class RRStarTree(RTreeBase):
    """Revised R*-tree (see module docstring for fidelity notes)."""

    variant_name = "rrstar"

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        covering = [
            (entry.rect.volume(), i)
            for i, entry in enumerate(node.entries)
            if entry.rect.contains(rect)
        ]
        if covering:
            return min(covering)[1]

        order = sorted(
            range(len(node.entries)),
            key=lambda i: (
                node.entries[i].rect.union(rect).margin() - node.entries[i].rect.margin(),
                node.entries[i].rect.enlargement(rect),
            ),
        )
        rects = [entry.rect for entry in node.entries]
        use_margin = all(r.volume() == 0.0 for r in rects)

        best_index = order[0]
        best_delta = float("inf")
        for i in order:
            enlarged = rects[i].union(rect)
            delta = 0.0
            for j, other in enumerate(rects):
                if i == j:
                    continue
                if use_margin:
                    delta += _overlap_margin(enlarged, other) - _overlap_margin(rects[i], other)
                else:
                    delta += enlarged.intersection_volume(other) - rects[i].intersection_volume(other)
            if delta < best_delta:
                best_delta = delta
                best_index = i
            if delta == 0.0:
                break
        return best_index

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def _distributions(self, ordered: List[Entry]):
        total = len(ordered)
        for split_at in range(self.min_entries, total - self.min_entries + 1):
            yield split_at, ordered[:split_at], ordered[split_at:]

    def _split(self, node: Node) -> Tuple[List[Entry], List[Entry]]:
        entries = list(node.entries)
        axis = self._choose_split_axis(entries)
        return self._choose_split_index(entries, axis)

    def _choose_split_axis(self, entries: List[Entry]) -> int:
        best_axis = 0
        best_margin = float("inf")
        for axis in range(self.dims):
            margin_sum = 0.0
            ordered = sorted(entries, key=lambda e: (e.rect.low[axis], e.rect.high[axis]))
            for _, group1, group2 in self._distributions(ordered):
                margin_sum += mbb_of_rects([e.rect for e in group1]).margin()
                margin_sum += mbb_of_rects([e.rect for e in group2]).margin()
            if margin_sum < best_margin:
                best_margin = margin_sum
                best_axis = axis
        return best_axis

    def _choose_split_index(
        self, entries: List[Entry], axis: int
    ) -> Tuple[List[Entry], List[Entry]]:
        ordered = sorted(entries, key=lambda e: (e.rect.low[axis], e.rect.high[axis]))
        half = len(ordered) / 2.0

        best: Tuple[List[Entry], List[Entry]] = (
            ordered[: self.min_entries],
            ordered[self.min_entries :],
        )
        best_key = (float("inf"), float("inf"), float("inf"))
        for split_at, group1, group2 in self._distributions(ordered):
            mbb1 = mbb_of_rects([e.rect for e in group1])
            mbb2 = mbb_of_rects([e.rect for e in group2])
            overlap_volume = mbb1.intersection_volume(mbb2)
            overlap_perimeter = _overlap_margin(mbb1, mbb2)
            balance_penalty = abs(split_at - half)
            key = (overlap_volume, overlap_perimeter, balance_penalty)
            if key < best_key:
                best_key = key
                best = (list(group1), list(group2))
        return best
