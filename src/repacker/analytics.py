"""Statistics over sampled solution sets.

Everything here is a pure function of a :class:`~repacker.driver.SampleSet`
(or two, for cross-configuration deltas). Clearing counts are aggregated per
DMA; solution identity and diversity work on cleared-station sets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .driver import SampleSet
from .instance import ChannelAssignment


@dataclass(frozen=True)
class DmaStats:
    dma_id: int
    name: str
    size: int
    mean: float
    std: float
    observed_min: int
    sample_count: int


@dataclass
class DmaClearingStats:
    """Per-DMA clearing statistics over one sample set."""

    per_dma: dict[int, DmaStats]
    sample_count: int
    nationwide_mean: float

    def rows_by_mean(self) -> list[DmaStats]:
        return sorted(self.per_dma.values(), key=lambda r: (-r.mean, r.dma_id))

    def sum_of_means(self) -> float:
        return float(sum(r.mean for r in self.per_dma.values()))


def _counts_matrix(sample_set: SampleSet) -> tuple[list[int], np.ndarray]:
    """Cleared-station counts, one row per sample and one column per DMA."""
    inst = sample_set.problem.instance
    dma_ids = sorted(inst.dmas)
    col = {dma: i for i, dma in enumerate(dma_ids)}
    matrix = np.zeros((len(sample_set.samples), len(dma_ids)), dtype=np.int64)
    for row, sample in enumerate(sample_set.samples):
        for sid in sample.assignment.cleared_set():
            matrix[row, col[inst.by_id[sid].dma_id]] += 1
    return dma_ids, matrix


def dma_stats(sample_set: SampleSet) -> DmaClearingStats:
    """Mean, spread, and observed minimum of per-DMA clearing counts."""
    if not sample_set.samples:
        raise ValueError("sample set is empty")
    inst = sample_set.problem.instance
    dma_ids, matrix = _counts_matrix(sample_set)
    per_dma: dict[int, DmaStats] = {}
    for i, dma in enumerate(dma_ids):
        column = matrix[:, i]
        per_dma[dma] = DmaStats(
            dma_id=dma,
            name=inst.dmas[dma],
            size=len(inst.dma_members.get(dma, ())),
            mean=float(column.mean()),
            std=float(column.std()),
            observed_min=int(column.min()),
            sample_count=len(sample_set.samples),
        )
    return DmaClearingStats(
        per_dma=per_dma,
        sample_count=len(sample_set.samples),
        nationwide_mean=float(matrix.sum(axis=1).mean()),
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz);
    converges quickly for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student-t p-value P(|T| >= |t|) with ``df`` degrees of freedom.

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2). The tail is computed directly, never as one minus
    the central mass, so tiny p-values keep their relative precision, and
    1 - x is formed as t^2 / (df + t^2) so that p near 1 does too.
    """
    if t == 0.0:
        return 1.0
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    a, b = df / 2.0, 0.5
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b


@dataclass(frozen=True)
class DmaCorrelation:
    dma_a: int
    name_a: str
    mean_a: float
    dma_b: int
    name_b: str
    mean_b: float
    r: float
    p_value: float


def dma_correlations(
    sample_set: SampleSet,
    min_mean: float = 2.0,
    p_threshold: float = 0.01,
    r_threshold: Optional[float] = None,
) -> list[DmaCorrelation]:
    """Significant pairwise correlations of per-DMA clearing counts.

    Only DMAs with at least ``min_mean`` average clearings enter; pairs are
    kept when the two-sided t-test on r (n-2 degrees of freedom) meets
    ``p_threshold``, then sorted most-negative first. Zero-variance DMAs are
    skipped. ``r_threshold`` optionally keeps only |r| at or above a floor.
    """
    if len(sample_set.samples) < 3:
        raise ValueError("need at least 3 samples for correlations")
    inst = sample_set.problem.instance
    dma_ids, matrix = _counts_matrix(sample_set)
    n = matrix.shape[0]
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    eligible = [
        i for i in range(len(dma_ids)) if means[i] >= min_mean and stds[i] > 0.0
    ]
    out: list[DmaCorrelation] = []
    for a_pos in range(len(eligible)):
        for b_pos in range(a_pos + 1, len(eligible)):
            i, j = eligible[a_pos], eligible[b_pos]
            r = float(np.corrcoef(matrix[:, i], matrix[:, j])[0, 1])
            denom = 1.0 - r * r
            if denom <= 0.0:
                p = 0.0
            else:
                p = t_two_sided_p(abs(r) * math.sqrt((n - 2) / denom), n - 2)
            if p > p_threshold:
                continue
            if r_threshold is not None and abs(r) < r_threshold:
                continue
            out.append(
                DmaCorrelation(
                    dma_a=dma_ids[i],
                    name_a=inst.dmas[dma_ids[i]],
                    mean_a=float(means[i]),
                    dma_b=dma_ids[j],
                    name_b=inst.dmas[dma_ids[j]],
                    mean_b=float(means[j]),
                    r=r,
                    p_value=p,
                )
            )
    out.sort(key=lambda c: (c.r, c.dma_a, c.dma_b))
    return out


def solution_distance(a: ChannelAssignment, b: ChannelAssignment) -> float:
    """Jaccard distance between the cleared-station sets of two solutions.

    Two solutions clearing nothing are at distance 0 by convention.
    """
    return _restricted_distance(a.cleared_set(), b.cleared_set()) or 0.0


def _restricted_distance(sa: frozenset[str], sb: frozenset[str]) -> Optional[float]:
    """Jaccard distance of two cleared sets; None when both are empty."""
    union = sa | sb
    if not union:
        return None
    return len(sa ^ sb) / len(union)


@dataclass(frozen=True)
class DmaDiversity:
    dma_id: int
    name: str
    diversity: float
    pairs_counted: int


@dataclass
class DiversityReport:
    overall: float
    per_dma: list[DmaDiversity]  # sorted by diversity, highest first


def diversity_report(sample_set: SampleSet) -> DiversityReport:
    """Mean pairwise solution distance, overall and restricted to each DMA.

    For the per-DMA table the cleared sets are intersected with the DMA's
    stations; pairs whose restricted union is empty say nothing about that
    DMA and are skipped.
    """
    samples = sample_set.samples
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for diversity")
    inst = sample_set.problem.instance
    cleared = [s.assignment.cleared_set() for s in samples]

    total = 0.0
    pairs = 0
    for i in range(len(cleared)):
        for j in range(i + 1, len(cleared)):
            total += _restricted_distance(cleared[i], cleared[j]) or 0.0
            pairs += 1
    overall = total / pairs

    per_dma: list[DmaDiversity] = []
    for dma in sorted(inst.dmas):
        members = frozenset(inst.dma_members.get(dma, ()))
        if not members:
            continue
        restricted = [c & members for c in cleared]
        total_d = 0.0
        counted = 0
        for i in range(len(restricted)):
            for j in range(i + 1, len(restricted)):
                d = _restricted_distance(restricted[i], restricted[j])
                if d is not None:
                    total_d += d
                    counted += 1
        if counted:
            per_dma.append(
                DmaDiversity(
                    dma_id=dma, name=inst.dmas[dma],
                    diversity=total_d / counted, pairs_counted=counted,
                )
            )
    per_dma.sort(key=lambda d: (-d.diversity, d.dma_id))
    return DiversityReport(overall=overall, per_dma=per_dma)


@dataclass(frozen=True)
class MissingMass:
    """Good-Turing view of how much of the solution space went unseen."""

    draws: int
    unique: int
    singletons: int

    @property
    def estimate(self) -> float:
        return self.singletons / self.draws


def missing_mass(sample_set: SampleSet, identity: str = "assignment") -> MissingMass:
    """Good-Turing missing-mass estimate: singleton solutions over draws.

    ``identity`` selects what counts as "the same solution": the full channel
    assignment (default) or just the cleared-station set.
    """
    if not sample_set.samples:
        raise ValueError("sample set is empty")
    keys = Counter(s.assignment.canonical_key(identity) for s in sample_set.samples)
    singletons = sum(1 for count in keys.values() if count == 1)
    return MissingMass(draws=len(sample_set.samples), unique=len(keys), singletons=singletons)


def broadcaster_frequencies(sample_set: SampleSet) -> list[tuple[str, float]]:
    """Fraction of samples clearing each station, highest first."""
    samples = sample_set.samples
    if not samples:
        raise ValueError("sample set is empty")
    inst = sample_set.problem.instance
    counts = Counter()
    for s in samples:
        counts.update(s.assignment.cleared_set())
    rows = [(sid, counts.get(sid, 0) / len(samples)) for sid in inst.station_ids]
    rows.sort(key=lambda kv: (-kv[1], kv[0]))
    return rows


@dataclass(frozen=True)
class DmaDelta:
    dma_id: int
    name: str
    mean_a: float
    mean_b: float
    delta: float

    @property
    def negative(self) -> bool:
        return self.delta < 0


def config_delta(stats_a: DmaClearingStats, stats_b: DmaClearingStats) -> list[DmaDelta]:
    """Per-DMA difference of mean clearings, configuration B minus A.

    Sorted largest increase first. Negative entries are retained — with
    modest sample counts a DMA can appear to need less clearing under the
    harder configuration purely through sampling error.
    """
    if set(stats_a.per_dma) != set(stats_b.per_dma):
        raise ValueError("the two statistics cover different DMA sets")
    out = [
        DmaDelta(
            dma_id=dma,
            name=stats_a.per_dma[dma].name,
            mean_a=stats_a.per_dma[dma].mean,
            mean_b=stats_b.per_dma[dma].mean,
            delta=stats_b.per_dma[dma].mean - stats_a.per_dma[dma].mean,
        )
        for dma in sorted(stats_a.per_dma)
    ]
    out.sort(key=lambda d: (-d.delta, d.dma_id))
    return out
