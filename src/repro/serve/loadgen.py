"""Closed-loop load generator with hotspot skew for the serving layer.

Produces a deterministic request sequence (seeded RNG, hotspot-skewed
query centres, a small write mix) and drives a
:class:`~repro.serve.server.CoalescingServer` in a closed loop: at most
``concurrency`` requests in flight, new submissions issued in sequence
order the moment a slot frees up.  When the server runs on a
:class:`~repro.serve.resilience.LogicalClock`, the generator is the only
thing advancing it (``pace`` seconds per submission), which pins the
token-bucket refill sequence — and therefore the shed count — to the
request sequence alone.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import List, Optional, Sequence

from repro.geometry.objects import SpatialObject
from repro.geometry.rect import Rect
from repro.serve.server import Request, Response

#: Share of query centres in the hotspot, the ``[0, HOTSPOT_EXTENT]`` corner.
HOTSPOT_SHARE = 0.9
HOTSPOT_EXTENT = 8.0
#: ``k`` of every kNN probe, and the side of every range query.
KNN_K = 5
QUERY_SIDE = 2.0
#: First oid of the generated inserts: above every dataset's oids.
OID_BASE = 10**6


def generate_requests(
    n: int,
    *,
    seed: int = 0,
    dims: int = 2,
    extent: float = 100.0,
    knn_fraction: float = 0.2,
    write_fraction: float = 0.05,
) -> List[Request]:
    """A deterministic skewed request mix.

    :data:`HOTSPOT_SHARE` of query centres land in the
    ``[0, HOTSPOT_EXTENT]`` corner of the ``[0, extent]`` space (the
    classic skew that makes coalescing pay off); the rest are uniform.
    ``write_fraction`` of requests are inserts of fresh objects (oids from
    :data:`OID_BASE` up, so they never collide with a dataset built by
    ``make_random_objects``), ``knn_fraction`` are kNN probes, and the
    remainder are range queries.
    """
    rng = random.Random(seed)

    def center() -> List[float]:
        if rng.random() < HOTSPOT_SHARE:
            return [rng.uniform(0.0, HOTSPOT_EXTENT) for _ in range(dims)]
        return [rng.uniform(0.0, extent) for _ in range(dims)]

    requests: List[Request] = []
    for i in range(n):
        u = rng.random()
        if u < write_fraction:
            c = center()
            side = rng.uniform(0.1, 1.0)
            rect = Rect([x for x in c], [x + side for x in c])
            requests.append(Request.insert(SpatialObject(OID_BASE + i, rect)))
        elif u < write_fraction + knn_fraction:
            requests.append(Request.knn(center(), KNN_K))
        else:
            c = center()
            rect = Rect(c, [x + QUERY_SIDE for x in c])
            requests.append(Request.range(rect))
    return requests


async def run_closed_loop(
    server,
    requests: Sequence[Request],
    *,
    concurrency: int = 64,
    pace: Optional[float] = None,
    clock=None,
) -> List[Response]:
    """Drive ``requests`` through ``server``; return responses in order.

    ``pace`` (with a ``clock`` exposing ``advance``) moves the server's
    logical clock by that many seconds immediately before each
    submission — the deterministic stand-in for inter-arrival time.
    The wall-clock elapsed time is recorded into the server's metrics
    for QPS/latency reporting.
    """
    started = time.perf_counter()
    in_flight = set()
    futures = []
    for request in requests:
        while len(in_flight) >= concurrency:
            done, in_flight = await asyncio.wait(
                in_flight, return_when=asyncio.FIRST_COMPLETED
            )
        if pace is not None and clock is not None:
            clock.advance(pace)
        future = server.submit_nowait(request)
        futures.append(future)
        in_flight.add(future)
    responses = await asyncio.gather(*futures)
    server.metrics.set_elapsed(time.perf_counter() - started)
    return list(responses)
