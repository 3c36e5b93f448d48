"""FCC-sized geometric instance generator for the ``mc-fcc`` workload.

``generate_synthetic`` draws interference pairs uniformly, which gives no
realistic clique structure at n=1,700. This generator instead clusters
stations by DMA in a plane and derives CO/ADJ constraints from distance, so
dense markets form large co-channel cliques as real ones do. The instance is
built only through the package's public constructors.
"""

from __future__ import annotations

import math
import random

from repacker import (
    NETWORKS,
    US_UNIVERSE,
    Affiliation,
    ConstraintKind,
    Instance,
    InterferenceConstraint,
    Station,
)

STATIONS = 1700
DMAS = 210
PLANE = (100.0, 60.0)
SIGMA = 1.0
CO_DISTANCE = 2.5
ADJ_DISTANCE = 1.0
AFFILIATE_FRACTION = 0.4
SIZE_EXPONENT = 0.5


def dma_sizes(stations: int = STATIONS, dmas: int = DMAS) -> list[int]:
    """Market sizes proportional to 1/k^0.5 for rank k, at least one each."""
    weights = [k ** -SIZE_EXPONENT for k in range(1, dmas + 1)]
    total = sum(weights)
    return [max(1, round(stations * w / total)) for w in weights]


def generate_geometric(seed: int = 0) -> Instance:
    """Build the clustered instance; identical for identical seeds."""
    rng = random.Random(seed)
    dmas = {d: f"GDMA-{d:03d}" for d in range(1, DMAS + 1)}
    stations: list[Station] = []
    points: list[tuple[float, float]] = []
    for dma_id, size in enumerate(dma_sizes(), start=1):
        cx, cy = rng.uniform(0.0, PLANE[0]), rng.uniform(0.0, PLANE[1])
        for _ in range(size):
            sid = f"g{len(stations):04d}"
            points.append((rng.gauss(cx, SIGMA), rng.gauss(cy, SIGMA)))
            affiliation = (
                rng.choice(NETWORKS) if rng.random() < AFFILIATE_FRACTION else Affiliation.NONE
            )
            revenue = round(rng.uniform(0.0, 1000.0), 2)
            stations.append(Station(id=sid, dma_id=dma_id, affiliation=affiliation, revenue=revenue))

    # Bucket points into CO_DISTANCE cells so only neighbouring cells are compared.
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((math.floor(x / CO_DISTANCE), math.floor(y / CO_DISTANCE)), []).append(i)
    interference: list[InterferenceConstraint] = []
    for i, (x, y) in enumerate(points):
        cx, cy = math.floor(x / CO_DISTANCE), math.floor(y / CO_DISTANCE)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    if j <= i:
                        continue
                    d = math.dist(points[i], points[j])
                    a, b = stations[i].id, stations[j].id
                    if d < CO_DISTANCE:
                        interference.append(InterferenceConstraint(ConstraintKind.CO, a, b))
                    if d < ADJ_DISTANCE:
                        kind = ConstraintKind.ADJ_UP if rng.random() < 0.5 else ConstraintKind.ADJ_DOWN
                        if rng.random() < 0.5:
                            a, b = b, a
                        interference.append(InterferenceConstraint(kind, a, b))

    return Instance(
        stations=tuple(stations),
        universe=US_UNIVERSE,
        interference=frozenset(interference),
        dmas=dmas,
    )
