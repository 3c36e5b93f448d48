"""Core domain model for broadcast-spectrum repacking instances.

An :class:`Instance` bundles the stations, the channel universe, and the
pairwise interference / per-station domain constraints. A
:class:`RepackProblem` adds a clearing target and the optional cardinality
caps, and a :class:`ChannelAssignment` is a candidate solution that can be
checked against a problem with :func:`validate_assignment`.

Instances are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping, Optional


def _fields_state(self) -> dict:
    """Pickle state holding only the dataclass fields: ``cached_property``
    values are derived, so the receiver recomputes them instead of loading them."""
    return {name: self.__dict__[name] for name in self.__dataclass_fields__}


class InstanceError(ValueError):
    """Structurally invalid instance data (bad references, duplicates, ...)."""


class Affiliation(str, Enum):
    """Network affiliation of a station; NONE marks independents."""

    ABC = "ABC"
    CBS = "CBS"
    FOX = "FOX"
    NBC = "NBC"
    PBS = "PBS"
    NONE = "NONE"


#: The affiliate groups treated as correlated units by the participation models.
NETWORKS: tuple[Affiliation, ...] = (
    Affiliation.ABC,
    Affiliation.CBS,
    Affiliation.FOX,
    Affiliation.NBC,
    Affiliation.PBS,
)


@dataclass(frozen=True)
class Station:
    id: str
    dma_id: int
    affiliation: Affiliation = Affiliation.NONE
    revenue: float = 0.0

    def __post_init__(self) -> None:
        if not self.id:
            raise InstanceError("station id must be non-empty")
        if not math.isfinite(self.revenue):
            raise InstanceError(f"station {self.id}: revenue must be finite")
        if self.revenue < 0:
            raise InstanceError(f"station {self.id}: revenue must be non-negative")

    @property
    def is_affiliate(self) -> bool:
        return self.affiliation is not Affiliation.NONE


@dataclass(frozen=True)
class ChannelUniverse:
    """Ordered channel numbers plus the subset that is never assignable."""

    channels: tuple[int, ...]
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        chans = tuple(sorted(self.channels))
        if not chans:
            raise InstanceError("channel universe must be non-empty")
        if len(set(chans)) != len(chans):
            raise InstanceError("duplicate channels in universe")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if not self.forbidden <= set(chans):
            raise InstanceError("forbidden channels must belong to the universe")


#: UHF band 14..51 with channel 37 reserved (never assignable).
US_UNIVERSE = ChannelUniverse(channels=tuple(range(14, 52)), forbidden=frozenset({37}))


class ConstraintKind(str, Enum):
    CO = "CO"
    ADJ_UP = "ADJ_UP"
    ADJ_DOWN = "ADJ_DOWN"


@dataclass(frozen=True)
class InterferenceConstraint:
    """Pairwise interference rule between stations ``a`` and ``b``.

    CO forbids a shared channel and is stored with ``a < b``. ADJ_UP forbids
    ``channel(a) == channel(b) + 1`` and ADJ_DOWN forbids
    ``channel(a) == channel(b) - 1``; both are directional.
    """

    kind: ConstraintKind
    a: str
    b: str

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise InstanceError(f"self-interference on station {self.a}")
        if self.kind is ConstraintKind.CO and self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind.value, self.a, self.b)


@dataclass(frozen=True)
class DomainConstraint:
    """Station-specific prohibition of one channel."""

    station: str
    channel: int

    def sort_key(self) -> tuple[str, int]:
        return (self.station, self.channel)


@dataclass(frozen=True)
class Instance:
    stations: tuple[Station, ...]
    universe: ChannelUniverse
    interference: frozenset[InterferenceConstraint] = frozenset()
    domain: frozenset[DomainConstraint] = frozenset()
    dmas: Mapping[int, str] = field(default_factory=dict)

    __getstate__ = _fields_state

    def __post_init__(self) -> None:
        stations = tuple(sorted(self.stations, key=lambda s: s.id))
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "interference", frozenset(self.interference))
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "dmas", dict(self.dmas))
        if not stations:
            raise InstanceError("instance needs at least one station")
        ids = [s.id for s in stations]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InstanceError(f"duplicate station ids: {dupes}")
        known = set(ids)
        for s in stations:
            if s.dma_id not in self.dmas:
                raise InstanceError(f"station {s.id} references unknown DMA {s.dma_id}")
        for ic in self.interference:
            for end in (ic.a, ic.b):
                if end not in known:
                    raise InstanceError(f"interference constraint references unknown station {end}")
        chans = set(self.universe.channels)
        for dc in self.domain:
            if dc.station not in known:
                raise InstanceError(f"domain constraint references unknown station {dc.station}")
            if dc.channel not in chans:
                raise InstanceError(
                    f"domain constraint on {dc.station} names channel {dc.channel} outside the universe"
                )

    @property
    def n(self) -> int:
        return len(self.stations)

    @cached_property
    def station_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.stations)

    @cached_property
    def by_id(self) -> dict[str, Station]:
        return {s.id: s for s in self.stations}

    @cached_property
    def dma_members(self) -> dict[int, tuple[str, ...]]:
        """Station ids per DMA, sorted; every DMA in ``dmas`` gets an entry."""
        members: dict[int, list[str]] = {d: [] for d in self.dmas}
        for s in self.stations:
            members[s.dma_id].append(s.id)
        return {d: tuple(sorted(v)) for d, v in members.items()}

    @cached_property
    def station_index(self) -> dict[str, int]:
        """Each station's position in ``station_ids``, so index order is id order."""
        return {sid: i for i, sid in enumerate(self.station_ids)}

    @cached_property
    def co_masks(self) -> tuple[int, ...]:
        """Co-channel conflict graph on the station index: bit ``j`` of
        ``co_masks[i]`` is set when stations ``i`` and ``j`` conflict."""
        index = self.station_index
        masks = [0] * self.n
        for ic in self.interference:
            if ic.kind is ConstraintKind.CO:
                a, b = index[ic.a], index[ic.b]
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def sorted_interference(self) -> tuple[InterferenceConstraint, ...]:
        return tuple(sorted(self.interference, key=InterferenceConstraint.sort_key))

    @cached_property
    def sorted_domain(self) -> tuple[DomainConstraint, ...]:
        return tuple(sorted(self.domain, key=DomainConstraint.sort_key))


@dataclass(frozen=True)
class ChannelPlan:
    """Channels left for repacking after clearing the top of the band.

    ``channels`` is the retained (lowest) slice of the universe. Reserved
    channels may still appear in it and are listed in ``flagged``; the
    encoder blocks them for every station. ``assignable`` is the rest, and
    its length is the channel count ``c`` that a blocking clique must exceed.
    """

    channels: tuple[int, ...]
    flagged: frozenset[int]

    __getstate__ = _fields_state

    @cached_property
    def assignable(self) -> tuple[int, ...]:
        return tuple(ch for ch in self.channels if ch not in self.flagged)


def derive_available_channels(target_mhz: int, universe: ChannelUniverse) -> ChannelPlan:
    """Compute the channels available for repacking at a MHz clearing target.

    Each channel is 6 MHz, so the target removes ``target_mhz // 6`` usable
    channels from the top of the band. Reserved channels cannot provide
    cleared spectrum: when one falls inside the cleared block, an extra top
    channel is removed to compensate (on the 14..51 band with channel 37
    reserved this is the ``+1`` that kicks in above 84 MHz).
    """
    if target_mhz <= 0 or target_mhz % 6 != 0:
        raise ValueError(f"clearing target must be a positive multiple of 6 MHz, got {target_mhz}")
    slots = target_mhz // 6
    chans = universe.channels
    usable = [i for i, ch in enumerate(chans) if ch not in universe.forbidden]
    if slots > len(usable):
        raise ValueError(
            f"clearing target {target_mhz} MHz needs {slots} usable channels, "
            f"universe only has {len(usable)}"
        )
    # The cleared block runs from the slots-th usable channel from the top.
    remaining = chans[: usable[-slots]]
    flagged = frozenset(ch for ch in remaining if ch in universe.forbidden)
    return ChannelPlan(channels=remaining, flagged=flagged)


@dataclass(frozen=True)
class RepackProblem:
    """A repacking feasibility question over an instance.

    ``must_repack`` stations may not be cleared. The optional caps bound the
    nationwide cleared count, per-DMA cleared counts, and the number of DMAs
    in which any clearing occurs.
    """

    instance: Instance
    clearing_target_mhz: int
    use_domain_constraints: bool = True
    must_repack: frozenset[str] = frozenset()
    max_cleared_nationwide: Optional[int] = None
    dma_caps: Mapping[int, int] = field(default_factory=dict)
    max_dmas_with_clearing: Optional[int] = None

    __getstate__ = _fields_state

    def __post_init__(self) -> None:
        object.__setattr__(self, "must_repack", frozenset(self.must_repack))
        object.__setattr__(self, "dma_caps", dict(self.dma_caps))
        self.channel_plan  # validates the target
        known = self.instance.by_id
        unknown = {sid for sid in self.must_repack if sid not in known}
        if unknown:
            raise InstanceError(f"must_repack references unknown stations: {sorted(unknown)}")
        if self.max_cleared_nationwide is not None and self.max_cleared_nationwide < 0:
            raise ValueError("nationwide cap must be non-negative")
        if self.max_dmas_with_clearing is not None and self.max_dmas_with_clearing < 0:
            raise ValueError("DMA-count cap must be non-negative")
        for dma, cap in self.dma_caps.items():
            if dma not in self.instance.dmas:
                raise InstanceError(f"dma_caps references unknown DMA {dma}")
            if cap < 0:
                raise ValueError(f"cap for DMA {dma} must be non-negative")

    @cached_property
    def channel_plan(self) -> ChannelPlan:
        return derive_available_channels(self.clearing_target_mhz, self.instance.universe)


@dataclass(frozen=True)
class ChannelAssignment:
    """Map from station id to its channel, with ``None`` meaning cleared."""

    channels: Mapping[str, Optional[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", dict(self.channels))

    def cleared_set(self) -> frozenset[str]:
        return frozenset(sid for sid, ch in self.channels.items() if ch is None)

    def canonical_key(self, identity: str = "assignment") -> tuple:
        """Hashable identity of this solution.

        ``assignment`` distinguishes full channel maps; ``cleared-set`` only
        the set of cleared stations.
        """
        if identity == "assignment":
            return tuple(sorted(self.channels.items(), key=lambda kv: kv[0]))
        if identity == "cleared-set":
            return tuple(sorted(self.cleared_set()))
        raise ValueError(f"unknown solution identity mode: {identity}")

    def to_json_dict(self) -> dict[str, Optional[int]]:
        return {sid: self.channels[sid] for sid in sorted(self.channels)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Optional[int]]) -> "ChannelAssignment":
        return cls(channels={k: (None if v is None else int(v)) for k, v in data.items()})


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    stations: tuple[str, ...] = ()


def validate_assignment(problem: RepackProblem, assignment: ChannelAssignment) -> list[Violation]:
    """Check an assignment against every constraint of the problem.

    Returns the (possibly empty) list of violations. Raises
    :class:`InstanceError` if the assignment does not cover exactly the
    instance's stations.
    """
    inst = problem.instance
    ids = set(inst.station_ids)
    got = set(assignment.channels)
    if got != ids:
        unknown = sorted(got - ids)
        missing = sorted(ids - got)
        raise InstanceError(
            f"assignment does not cover the instance: unknown={unknown} missing={missing}"
        )

    plan = problem.channel_plan
    available = set(plan.channels)
    violations: list[Violation] = []

    for sid in sorted(problem.must_repack):
        if assignment.channels[sid] is None:
            violations.append(
                Violation("must-repack-cleared", f"station {sid} must be repacked but is cleared", (sid,))
            )

    domain_pairs = (
        {(dc.station, dc.channel) for dc in inst.domain} if problem.use_domain_constraints else set()
    )
    for sid in inst.station_ids:
        ch = assignment.channels[sid]
        if ch is None:
            continue
        if ch not in available:
            violations.append(
                Violation("unavailable-channel", f"station {sid} uses channel {ch} outside the plan", (sid,))
            )
            continue
        if ch in inst.universe.forbidden:
            violations.append(
                Violation("forbidden-channel", f"station {sid} uses reserved channel {ch}", (sid,))
            )
        elif (sid, ch) in domain_pairs:
            violations.append(
                Violation("domain-excluded", f"station {sid} uses domain-excluded channel {ch}", (sid,))
            )

    for ic in inst.sorted_interference:
        ca = assignment.channels[ic.a]
        cb = assignment.channels[ic.b]
        if ca is None or cb is None:
            continue
        if ic.kind is ConstraintKind.CO and ca == cb:
            violations.append(
                Violation("co-channel", f"{ic.a} and {ic.b} share channel {ca}", (ic.a, ic.b))
            )
        elif ic.kind is ConstraintKind.ADJ_UP and ca == cb + 1:
            violations.append(
                Violation("adjacent-up", f"{ic.a} on {ca} sits one above {ic.b} on {cb}", (ic.a, ic.b))
            )
        elif ic.kind is ConstraintKind.ADJ_DOWN and ca == cb - 1:
            violations.append(
                Violation("adjacent-down", f"{ic.a} on {ca} sits one below {ic.b} on {cb}", (ic.a, ic.b))
            )

    cleared = assignment.cleared_set()
    b = problem.max_cleared_nationwide
    if b is not None and len(cleared) > b:
        violations.append(
            Violation("nationwide-cap", f"{len(cleared)} stations cleared, cap is {b}")
        )
    if problem.dma_caps:
        for dma, cap in sorted(problem.dma_caps.items()):
            count = sum(1 for sid in inst.dma_members.get(dma, ()) if sid in cleared)
            if count > cap:
                violations.append(
                    Violation("dma-cap", f"DMA {dma} clears {count} stations, cap is {cap}")
                )
    d = problem.max_dmas_with_clearing
    if d is not None:
        dmas_hit = {inst.by_id[sid].dma_id for sid in cleared}
        if len(dmas_hit) > d:
            violations.append(
                Violation("dma-count-cap", f"clearing occurs in {len(dmas_hit)} DMAs, cap is {d}")
            )
    return violations
