"""Probabilistic models of broadcaster participation decisions.

Each model is a joint distribution over one binary variable per station,
where bit 1 means the station stays on the air and must be repacked. The
affiliate models introduce hidden variables (one per network, plus one
top-level switch for the correlated variant) whose values propagate to every
member, so the per-station marginal stays at the headline rate while strong
within-group correlation appears.

Sampling is ancestral: a uniform variate is drawn for every node of the
network in a fixed order, then thresholded by that node's conditional
probability, for every model in the same single pass over the stations
(:func:`sample_from_variates`). Keeping the variates explicit lets sweeps
reuse one draw across a grid of rates, producing nested non-participant sets.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .instance import NETWORKS, Affiliation, Instance
from .util import json_field


class ModelKind(str, Enum):
    RANDOM_BROADCASTERS = "random-broadcasters"
    RANDOM_AFFILIATES = "random-affiliates"
    CORRELATED_AFFILIATES = "correlated-affiliates"
    REVENUE = "revenue"


ALPHA_MODEL_KINDS = (
    ModelKind.RANDOM_BROADCASTERS,
    ModelKind.RANDOM_AFFILIATES,
    ModelKind.CORRELATED_AFFILIATES,
)

DEFAULT_TOP_PROB = 0.9


def _check_revenue_params(beta: Optional[float], gamma: Optional[float]) -> None:
    """Raise ``ValueError`` unless ``beta`` lies in [0, 1] and ``gamma`` is
    finite and non-negative; NaN passes neither."""
    if beta is None or not 0.0 <= beta <= 1.0:
        raise ValueError("revenue model: beta must lie in [0, 1]")
    if gamma is None or not 0.0 <= gamma < math.inf:
        raise ValueError("revenue model: gamma must be finite and non-negative")


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    alpha: Optional[float] = None
    top_prob: float = DEFAULT_TOP_PROB
    beta: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self) -> None:
        # top_prob has a default for every kind, so only the others are refused.
        unread = ("beta", "gamma") if self.kind in ALPHA_MODEL_KINDS else ("alpha",)
        for name in unread:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind.value}: the model does not read {name}")
        if self.kind in ALPHA_MODEL_KINDS:
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"{self.kind.value}: alpha must lie in [0, 1]")
            if self.kind is ModelKind.CORRELATED_AFFILIATES:
                if not 0.0 < self.top_prob <= 1.0:
                    raise ValueError("top_prob must lie in (0, 1]")
                if self.alpha > self.top_prob:
                    raise ValueError(
                        f"alpha={self.alpha} exceeds top_prob={self.top_prob}; "
                        "the conditional rate alpha/top_prob would exceed 1"
                    )
        else:
            _check_revenue_params(self.beta, self.gamma)

    @classmethod
    def random_broadcasters(cls, alpha: float) -> "ModelSpec":
        return cls(kind=ModelKind.RANDOM_BROADCASTERS, alpha=alpha)

    @classmethod
    def random_affiliates(cls, alpha: float) -> "ModelSpec":
        return cls(kind=ModelKind.RANDOM_AFFILIATES, alpha=alpha)

    @classmethod
    def correlated_affiliates(cls, alpha: float, top_prob: float = DEFAULT_TOP_PROB) -> "ModelSpec":
        return cls(kind=ModelKind.CORRELATED_AFFILIATES, alpha=alpha, top_prob=top_prob)

    @classmethod
    def revenue(cls, beta: float, gamma: float) -> "ModelSpec":
        return cls(kind=ModelKind.REVENUE, beta=beta, gamma=gamma)

    def with_alpha(self, alpha: float) -> "ModelSpec":
        if self.kind not in ALPHA_MODEL_KINDS:
            raise ValueError(f"{self.kind.value} has no alpha parameter")
        return ModelSpec(kind=self.kind, alpha=alpha, top_prob=self.top_prob)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.kind in ALPHA_MODEL_KINDS:
            out["alpha"] = self.alpha
            if self.kind is ModelKind.CORRELATED_AFFILIATES:
                out["top_prob"] = self.top_prob
        else:
            out["beta"] = self.beta
            out["gamma"] = self.gamma
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        """The model :meth:`to_dict` wrote. Each parameter must be a number
        (an int or a float, never a bool); all but ``top_prob`` may be null."""
        data = json_field(data, dict, "model")
        return cls(
            kind=ModelKind(json_field(data["kind"], str, "kind", one_of=tuple(ModelKind))),
            alpha=json_field(data.get("alpha"), float, "alpha", nullable=True),
            top_prob=json_field(data.get("top_prob", DEFAULT_TOP_PROB), float, "top_prob"),
            beta=json_field(data.get("beta"), float, "beta", nullable=True),
            gamma=json_field(data.get("gamma"), float, "gamma", nullable=True),
        )


@dataclass(frozen=True)
class ParticipationVector:
    """Bit per station: 1 = does not participate, so it must be repacked."""

    bits: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", dict(self.bits))
        for sid, bit in self.bits.items():
            if bit not in (0, 1):
                raise ValueError(f"bit for {sid} must be 0 or 1")

    def non_participants(self) -> frozenset[str]:
        return frozenset(sid for sid, bit in self.bits.items() if bit == 1)

    def digest(self) -> str:
        payload = ",".join(sorted(self.non_participants())).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class Variates:
    """The uniform draws behind one joint sample, one per network node."""

    station_u: Mapping[str, float]
    group_u: Mapping[Affiliation, float]
    top_u: float


def draw_variates(instance: Instance, seed: int) -> Variates:
    """Draw every node's uniform variate in a fixed, documented order:

    stations in canonical order, then the five networks, then the top switch.
    """
    rng = random.Random(seed)
    station_u = {sid: rng.random() for sid in instance.station_ids}
    group_u = {net: rng.random() for net in NETWORKS}
    return Variates(station_u=station_u, group_u=group_u, top_u=rng.random())


def sample_from_variates(
    model: ModelSpec, instance: Instance, variates: Variates
) -> ParticipationVector:
    """Threshold a fixed set of variates by the model's conditional tables.

    One pass over the stations: the revenue model compares each station's
    variate with its own probability, the affiliate models give an affiliate
    its network's bit, and every other station compares with ``alpha``.
    """
    probs: Optional[dict[str, float]] = None
    group_bit: Optional[dict[Affiliation, bool]] = None
    if model.kind is ModelKind.REVENUE:
        probs = revenue_probabilities(instance, model.beta, model.gamma)
    elif model.kind is ModelKind.RANDOM_AFFILIATES:
        group_bit = {net: variates.group_u[net] < model.alpha for net in NETWORKS}
    elif model.kind is ModelKind.CORRELATED_AFFILIATES:
        top = variates.top_u < model.top_prob
        conditional = model.alpha / model.top_prob
        group_bit = {net: top and variates.group_u[net] < conditional for net in NETWORKS}
    station_u = variates.station_u
    bits: dict[str, int] = {}
    for s in instance.stations:
        if probs is not None:
            bits[s.id] = int(station_u[s.id] < probs[s.id])
        elif group_bit is not None and s.is_affiliate:
            bits[s.id] = int(group_bit[s.affiliation])
        else:
            bits[s.id] = int(station_u[s.id] < model.alpha)
    return ParticipationVector(bits)


def sample(model: ModelSpec, instance: Instance, seed: int) -> ParticipationVector:
    """Draw one participation vector; identical for identical seeds."""
    return sample_from_variates(model, instance, draw_variates(instance, seed))


def revenue_probabilities(
    instance: Instance, beta: float, gamma: float
) -> dict[str, float]:
    """Per-station non-participation probabilities from the revenue pipeline.

    Revenues are pivoted so a ``beta`` fraction sits above zero, rescaled into
    [-4, 4], squashed through a sigmoid, and affiliates are then multiplied by
    ``gamma``. Missing revenues enter as 0; results are clamped to [0, 1]
    since the gamma amplification is unbounded above.
    """
    _check_revenue_params(beta, gamma)
    stations = instance.stations
    n = len(stations)
    revenues = [s.revenue for s in stations]
    # 1-based index into sorted revenues, exact in beta's decimal value:
    # float ceil((1 - 0.41) * 100) would give 60.
    pivot_rank = max(1, math.ceil((1 - Fraction(str(beta))) * n))
    pivot = sorted(revenues)[pivot_rank - 1]
    shifted = [r - pivot for r in revenues]
    scale = max(abs(v) for v in shifted) / 4.0
    if scale > 0.0:
        shifted = [v / scale for v in shifted]
    probs: dict[str, float] = {}
    for s, v in zip(stations, shifted):
        p = 1.0 / (1.0 + math.exp(-v))
        if s.is_affiliate:
            p *= gamma
        probs[s.id] = min(1.0, max(0.0, p))
    return probs
