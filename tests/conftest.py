"""Shared fixtures and fixture factories."""

from __future__ import annotations

import gc
import os
import random
from pathlib import Path

import pytest

import repacker
from repacker.driver import Sample, SampleSet
from repacker.instance import (
    Affiliation,
    ChannelAssignment,
    ChannelUniverse,
    ConstraintKind,
    DomainConstraint,
    Instance,
    InterferenceConstraint,
    RepackProblem,
    Station,
)
from repacker.synthetic import generate_synthetic

# Tests that start ``python -m repacker.cli`` in a subprocess need the package
# on that interpreter's path as well, also in a checkout that is not installed.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(repacker.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
)


def build_instance(
    n: int = 4,
    *,
    channels: tuple[int, ...] = (1, 2, 3, 4),
    forbidden: frozenset[int] = frozenset(),
    co_pairs: tuple[tuple[str, str], ...] = (),
    adj_up: tuple[tuple[str, str], ...] = (),
    adj_down: tuple[tuple[str, str], ...] = (),
    domain: tuple[tuple[str, int], ...] = (),
    dma_of: dict[str, int] | None = None,
    affiliations: dict[str, Affiliation] | None = None,
    revenues: dict[str, float] | None = None,
    n_dmas: int = 2,
) -> Instance:
    """Hand-built instance with stations a, b, c, ... for exact-value tests."""
    ids = [chr(ord("a") + i) for i in range(n)]
    dma_of = dma_of or {}
    affiliations = affiliations or {}
    revenues = revenues or {}
    stations = tuple(
        Station(
            id=sid,
            dma_id=dma_of.get(sid, (i % n_dmas) + 1),
            affiliation=affiliations.get(sid, Affiliation.NONE),
            revenue=revenues.get(sid, 0.0),
        )
        for i, sid in enumerate(ids)
    )
    dmas = {d: f"DMA-{d}" for d in range(1, n_dmas + 1)}
    for s in stations:
        dmas.setdefault(s.dma_id, f"DMA-{s.dma_id}")
    interference = frozenset(
        [InterferenceConstraint(ConstraintKind.CO, a, b) for a, b in co_pairs]
        + [InterferenceConstraint(ConstraintKind.ADJ_UP, a, b) for a, b in adj_up]
        + [InterferenceConstraint(ConstraintKind.ADJ_DOWN, a, b) for a, b in adj_down]
    )
    return Instance(
        stations=stations,
        universe=ChannelUniverse(channels=channels, forbidden=forbidden),
        interference=interference,
        domain=frozenset(DomainConstraint(s, ch) for s, ch in domain),
        dmas=dmas,
    )


def make_sample_set(
    instance: Instance,
    assignments: list[ChannelAssignment],
    *,
    target_mhz: int = 6,
    use_domain: bool = True,
    cap: int | None = None,
    buffer: int = 0,
) -> SampleSet:
    """Wrap hand-built assignments as a sample set for analytics tests."""
    problem = RepackProblem(
        instance=instance,
        clearing_target_mhz=target_mhz,
        use_domain_constraints=use_domain,
        max_cleared_nationwide=cap,
    )
    samples = [Sample(seed=i, assignment=a) for i, a in enumerate(assignments)]
    return SampleSet(problem=problem, samples=samples, buffer=buffer, requested=len(samples))


def assignment_with_cleared(
    instance: Instance, cleared: set[str], channel: int | None = None
) -> ChannelAssignment:
    """Assignment clearing the given stations; everyone else on one channel.

    Interference-valid only for constraint-free fixtures, which is all the
    analytics tests need.
    """
    if channel is None:
        channel = instance.universe.channels[0]
    return ChannelAssignment(
        channels={sid: (None if sid in cleared else channel) for sid in instance.station_ids}
    )


def random_problem(
    rng: random.Random,
    *,
    max_n: int = 12,
    max_c: int = 5,
    allow_caps: bool = True,
) -> RepackProblem:
    """Random desk-scale problem mixing all constraint families and caps.

    The retained channel count never exceeds ``max_c``, whether or not a
    reserved channel lands inside the retained band or the cleared block.
    """
    n = rng.randint(3, max_n)
    slots = rng.randint(1, 3)  # usable channels cleared off the top
    use_forbidden = rng.random() < 0.25
    usable_kept = rng.randint(1, max_c - 1) if use_forbidden else rng.randint(1, max_c)
    channel_count = usable_kept + slots + (1 if use_forbidden else 0)
    forbidden = (14 + rng.randrange(channel_count),) if use_forbidden else ()
    inst = generate_synthetic(
        n,
        channel_count=channel_count,
        co_density=rng.uniform(0.0, 0.45),
        adj_density=rng.uniform(0.0, 0.25),
        domain_density=rng.uniform(0.0, 0.2),
        forbidden_channels=forbidden,
        seed=rng.randrange(2**31),
    )
    target = 6 * slots
    must_repack = frozenset(sid for sid in inst.station_ids if rng.random() < 0.3)
    caps: dict = {}
    if allow_caps:
        if rng.random() < 0.4:
            caps["max_cleared_nationwide"] = rng.randint(0, n)
        if rng.random() < 0.25:
            dma = rng.choice(sorted(inst.dmas))
            caps["dma_caps"] = {dma: rng.randint(0, 3)}
        if rng.random() < 0.25:
            caps["max_dmas_with_clearing"] = rng.randint(0, len(inst.dmas))
    return RepackProblem(
        instance=inst,
        clearing_target_mhz=target,
        use_domain_constraints=rng.random() < 0.5,
        must_repack=must_repack,
        **caps,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture(autouse=True)
def cyclic_gc_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()  # so the tests after this one run as usual
        pytest.fail("test left the cyclic garbage collector disabled")
