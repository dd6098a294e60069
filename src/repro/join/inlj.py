"""Index Nested Loop Join (INLJ).

Used when only one input is indexed: every object of the probing (outer)
input issues one range query against the indexed (inner) input, exactly as
described in §V ("essentially one range query per den03 object").  The
inner index may be a plain R-tree or a :class:`ClippedRTree`; clipping
reduces the leaf accesses of the probes.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.geometry.objects import SpatialObject
from repro.join.result import JoinResult
from repro.rtree.base import RTreeBase
from repro.rtree.clipped import ClippedRTree

Index = Union[RTreeBase, ClippedRTree]


def index_nested_loop_join(
    outer_objects: Iterable[SpatialObject],
    inner_index: Index,
    collect_pairs: bool = True,
) -> JoinResult:
    """Join ``outer_objects`` with the objects indexed by ``inner_index``.

    ``collect_pairs=False`` skips materialising the (potentially large)
    pair list; ``result.pair_count`` reports the count in both modes.
    """
    result = JoinResult()
    pair_count = 0
    for outer in outer_objects:
        matches = inner_index.range_query(outer.rect, stats=result.inner_stats)
        pair_count += len(matches)
        if collect_pairs:
            result.pairs.extend((outer, inner) for inner in matches)
    result.pair_count = pair_count
    return result
