"""Figure 8: the eight bounding methods on the paper's running example.

The paper's Figure 3a indexes seven objects into two leaves; Figure 8 then
draws, for each bounding method, the two leaf shapes and reports their
dead space.  We reconstruct a geometrically equivalent example (five
scattered objects with empty corners in one leaf, two elongated objects in
the other) and report the same per-leaf dead-space percentages.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bounding.base import SHAPE_NAMES, bounding_shape, dead_space_of_shape
from repro.bench.reporting import percent
from repro.cbb.clipping import ClippingConfig, compute_clip_points
from repro.cbb.scoring import clipped_union_volume
from repro.geometry.rect import Rect, mbb_of_rects
from repro.geometry.union_volume import union_volume

#: Leaf 1 — the five objects of Figure 2 (scattered, corners mostly empty).
LEAF_ONE = (
    Rect((1.0, 6.5), (2.5, 8.0)),   # o1: upper-left blob
    Rect((0.5, 3.0), (1.5, 4.5)),   # o2: left blob
    Rect((3.0, 3.5), (4.5, 5.0)),   # o3: central blob
    Rect((5.5, 1.0), (7.5, 2.5)),   # o4: lower-right blob
    Rect((8.0, 2.0), (9.0, 3.0)),   # o5: right blob
)

#: Leaf 2 — two elongated objects (o6, o7 of Figure 3a).
LEAF_TWO = (
    Rect((10.5, 5.0), (14.5, 6.0)),  # o6: long horizontal object
    Rect((11.0, 7.0), (12.0, 9.5)),  # o7: tall vertical object
)


def _cbb_dead_space(rects: Sequence[Rect], method: str) -> Dict[str, float]:
    """Dead space and point count of a clipped bounding box over ``rects``."""
    mbb = mbb_of_rects(rects)
    config = ClippingConfig(method=method, k=None, tau=0.0)
    clips = compute_clip_points(mbb, list(rects), config)
    clipped_volume = clipped_union_volume(clips, mbb)
    shape_area = mbb.volume() - clipped_volume
    covered = union_volume(rects, within=mbb)
    dead = 0.0 if shape_area <= 0 else max(0.0, 1.0 - covered / shape_area)
    return {"dead_pct": percent(dead), "points": 2 + len(clips)}


def run(leaf_one: Sequence[Rect] = LEAF_ONE, leaf_two: Sequence[Rect] = LEAF_TWO) -> List[Dict]:
    """Dead space of each bounding method for both example leaves."""
    rows: List[Dict] = []
    for name in SHAPE_NAMES:
        row = {"method": name}
        for label, rects in (("leaf1", leaf_one), ("leaf2", leaf_two)):
            shape = bounding_shape(name, list(rects))
            row[f"{label}_dead_pct"] = percent(dead_space_of_shape(shape, list(rects)))
            row[f"{label}_points"] = shape.num_points()
        rows.append(row)
    for method, label in (("skyline", "CBBSKY"), ("stairline", "CBBSTA")):
        row = {"method": label}
        for leaf_label, rects in (("leaf1", leaf_one), ("leaf2", leaf_two)):
            summary = _cbb_dead_space(rects, method)
            row[f"{leaf_label}_dead_pct"] = summary["dead_pct"]
            row[f"{leaf_label}_points"] = summary["points"]
        rows.append(row)
    return rows


def claims(rows: List[Dict]) -> Dict[str, bool]:
    """Leaf 1 of the running example, method by method."""
    dead = {row["method"]: row["leaf1_dead_pct"] for row in rows}
    points = {row["method"]: row["leaf1_points"] for row in rows}
    return {
        # convex shapes tighten with their corner count: MBC coarsest, CH tightest
        "convex_shapes_tighten_with_corners": (
            dead["MBC"] >= dead["MBB"] >= dead["4-C"] >= dead["CH"] - 1e-9
        ),
        # the headline: stairline clipping beats the hull with fewer points
        "stairline_tighter_than_hull": dead["CBBSTA"] < dead["CH"],
        "stairline_no_more_points_than_hull": points["CBBSTA"] <= points["CH"],
        "skyline_between_stairline_and_mbb": dead["CBBSTA"] <= dead["CBBSKY"] <= dead["MBB"],
    }
