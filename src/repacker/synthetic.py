"""Synthetic instance generator for desk-scale experiments and tests."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .instance import (
    NETWORKS,
    Affiliation,
    ChannelUniverse,
    ConstraintKind,
    DomainConstraint,
    Instance,
    InterferenceConstraint,
    Station,
)


def planted_clique_ids(size: int) -> tuple[str, ...]:
    """Ids of the stations carrying the planted co-channel clique."""
    return tuple(f"s{i:04d}" for i in range(size))


def generate_synthetic(
    n: int,
    channel_count: int = 8,
    *,
    co_density: float = 0.1,
    adj_density: float = 0.0,
    domain_density: float = 0.0,
    n_dmas: Optional[int] = None,
    affiliate_fraction: float = 0.4,
    planted_clique: int = 0,
    planted_clique_dma: Optional[int] = None,
    forbidden_channels: Sequence[int] = (),
    first_channel: int = 14,
    seed: int = 0,
) -> Instance:
    """Build a random instance, identical for identical arguments.

    Densities are per-pair (interference) and per-station-channel (domain)
    probabilities. A planted clique of the requested size is placed on the
    first ``planted_clique`` stations (see :func:`planted_clique_ids`), all in
    ``planted_clique_dma`` when given, and made pairwise co-channel
    conflicting on top of whatever the background density draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if channel_count < 1:
        raise ValueError("channel_count must be at least 1")
    for name, value in (
        ("co_density", co_density),
        ("adj_density", adj_density),
        ("domain_density", domain_density),
        ("affiliate_fraction", affiliate_fraction),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if planted_clique > n:
        raise ValueError(f"planted clique of {planted_clique} does not fit in {n} stations")
    if n_dmas is None:
        n_dmas = max(1, n // 4)
    elif n_dmas < 1:
        raise ValueError("n_dmas must be at least 1")

    rng = random.Random(seed)
    channels = tuple(range(first_channel, first_channel + channel_count))
    universe = ChannelUniverse(channels=channels, forbidden=frozenset(forbidden_channels))

    dmas = {d: f"DMA-{d:03d}" for d in range(1, n_dmas + 1)}
    clique_dma = planted_clique_dma if planted_clique_dma is not None else 1
    if planted_clique and clique_dma not in dmas:
        raise ValueError(f"planted_clique_dma {clique_dma} outside 1..{n_dmas}")

    ids = [f"s{i:04d}" for i in range(n)]
    stations = []
    for i, sid in enumerate(ids):
        dma_id = clique_dma if i < planted_clique else rng.randint(1, n_dmas)
        affiliation = rng.choice(NETWORKS) if rng.random() < affiliate_fraction else Affiliation.NONE
        revenue = round(rng.uniform(0.0, 1000.0), 2)
        stations.append(Station(id=sid, dma_id=dma_id, affiliation=affiliation, revenue=revenue))

    interference: set[InterferenceConstraint] = set()
    for i in range(planted_clique):
        for j in range(i + 1, planted_clique):
            interference.add(InterferenceConstraint(ConstraintKind.CO, ids[i], ids[j]))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < co_density:
                interference.add(InterferenceConstraint(ConstraintKind.CO, ids[i], ids[j]))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < adj_density:
                kind = ConstraintKind.ADJ_UP if rng.random() < 0.5 else ConstraintKind.ADJ_DOWN
                a, b = (ids[i], ids[j]) if rng.random() < 0.5 else (ids[j], ids[i])
                interference.add(InterferenceConstraint(kind, a, b))

    domain: set[DomainConstraint] = set()
    if domain_density > 0:
        for sid in ids:
            for ch in channels:
                if rng.random() < domain_density:
                    domain.add(DomainConstraint(station=sid, channel=ch))

    return Instance(
        stations=tuple(stations),
        universe=universe,
        interference=frozenset(interference),
        domain=frozenset(domain),
        dmas=dmas,
    )
