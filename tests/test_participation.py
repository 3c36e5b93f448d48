"""Participation models: marginals, group coupling, and the revenue pipeline."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repacker.instance import NETWORKS, US_UNIVERSE, Affiliation, Instance, Station
from repacker.participation import (
    ModelSpec,
    draw_variates,
    revenue_probabilities,
    sample,
    sample_from_variates,
)

from repacker.synthetic import generate_synthetic

from conftest import build_instance
from reference_paths import reference_sample_from_variates


def affiliate_instance():
    """Nine stations: two ABC, two NBC, one of each other network, two independents."""
    affiliations = {
        "a": Affiliation.ABC,
        "b": Affiliation.ABC,
        "c": Affiliation.NBC,
        "d": Affiliation.NBC,
        "e": Affiliation.CBS,
        "f": Affiliation.FOX,
        "g": Affiliation.PBS,
    }
    return build_instance(9, channels=(1, 2, 3), affiliations=affiliations)


class TestModelSpecValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ModelSpec.random_broadcasters(1.5)
        with pytest.raises(ValueError):
            ModelSpec.random_affiliates(-0.1)

    def test_correlated_alpha_bounded_by_top_prob(self):
        ModelSpec.correlated_affiliates(0.9)  # boundary is fine
        with pytest.raises(ValueError, match="top_prob"):
            ModelSpec.correlated_affiliates(0.95)
        ModelSpec.correlated_affiliates(0.95, top_prob=0.97)

    def test_revenue_params(self):
        with pytest.raises(ValueError):
            ModelSpec.revenue(beta=2.0, gamma=1.0)
        with pytest.raises(ValueError):
            ModelSpec.revenue(beta=0.5, gamma=-1.0)

    def test_dict_round_trip(self):
        for spec in (
            ModelSpec.random_broadcasters(0.4),
            ModelSpec.correlated_affiliates(0.6, top_prob=0.8),
            ModelSpec.revenue(0.3, 1.2),
        ):
            assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestSampleStructure:
    def test_alpha_zero_all_participate(self):
        inst = affiliate_instance()
        for spec in (
            ModelSpec.random_broadcasters(0.0),
            ModelSpec.random_affiliates(0.0),
            ModelSpec.correlated_affiliates(0.0),
        ):
            assert not sample(spec, inst, seed=7).non_participants()

    def test_alpha_one_nobody_participates(self):
        inst = affiliate_instance()
        for spec in (
            ModelSpec.random_broadcasters(1.0),
            ModelSpec.random_affiliates(1.0),
        ):
            assert sample(spec, inst, seed=7).non_participants() == set(inst.station_ids)

    def test_within_group_bits_equal_every_draw(self):
        inst = affiliate_instance()
        groups: dict[Affiliation, list[str]] = {}
        for s in inst.stations:
            if s.is_affiliate:
                groups.setdefault(s.affiliation, []).append(s.id)
        for spec in (ModelSpec.random_affiliates(0.5), ModelSpec.correlated_affiliates(0.5)):
            for draw in range(300):
                pv = sample(spec, inst, seed=draw)
                for members in groups.values():
                    values = {pv.bits[sid] for sid in members}
                    assert len(values) == 1

    def test_deterministic_for_seed(self):
        inst = affiliate_instance()
        spec = ModelSpec.correlated_affiliates(0.6)
        assert sample(spec, inst, seed=11).bits == sample(spec, inst, seed=11).bits
        assert sample(spec, inst, seed=11).digest() == sample(spec, inst, seed=11).digest()

    def test_marginals_quick(self):
        # The acceptance suite runs the full-depth version of this check.
        inst = affiliate_instance()
        draws = 3000
        for spec in (
            ModelSpec.random_broadcasters(0.6),
            ModelSpec.random_affiliates(0.6),
            ModelSpec.correlated_affiliates(0.6),
        ):
            counts = {sid: 0 for sid in inst.station_ids}
            for i in range(draws):
                for sid in sample(spec, inst, seed=i).non_participants():
                    counts[sid] += 1
            for sid, hit in counts.items():
                assert abs(hit / draws - 0.6) < 0.04, (spec.kind, sid)

    def test_correlated_law_of_total_probability(self):
        # P(group all-1) = P(top=1) * alpha/top_prob must equal alpha exactly.
        alpha, top = Fraction(6, 10), Fraction(9, 10)
        assert top * (alpha / top) == alpha
        # And the float pipeline stays within an ulp of alpha.
        spec = ModelSpec.correlated_affiliates(0.6)
        p_group = spec.top_prob * (spec.alpha / spec.top_prob)
        assert math.isclose(p_group, 0.6, rel_tol=0, abs_tol=1e-15)

    def test_sweep_nesting_at_hidden_level(self):
        inst = affiliate_instance()
        variates = draw_variates(inst, seed=99)
        for kind_builder in (
            ModelSpec.random_broadcasters,
            ModelSpec.random_affiliates,
            ModelSpec.correlated_affiliates,
        ):
            previous: frozenset[str] = frozenset()
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
                spec = kind_builder(alpha)
                current = sample_from_variates(spec, inst, variates).non_participants()
                assert previous <= current
                previous = current


class TestRevenueModel:
    def test_pivot_station_is_half(self):
        # Five stations, symmetric revenues around the pivot at beta=0.5.
        inst = build_instance(5, revenues={"a": 0, "b": 1, "c": 2, "d": 3, "e": 4})
        probs = revenue_probabilities(inst, beta=0.5, gamma=1.0)
        assert probs["c"] == 0.5

    def test_extremes_hit_plus_minus_four(self):
        inst = build_instance(5, revenues={"a": 0, "b": 1, "c": 2, "d": 3, "e": 4})
        probs = revenue_probabilities(inst, beta=0.5, gamma=1.0)
        assert abs(probs["e"] - 1.0 / (1.0 + math.exp(-4.0))) < 1e-12
        assert abs(probs["a"] - 1.0 / (1.0 + math.exp(4.0))) < 1e-12

    def test_gamma_zero_zeroes_affiliates(self):
        inst = build_instance(
            4,
            affiliations={"a": Affiliation.ABC, "c": Affiliation.PBS},
            revenues={"a": 10, "b": 20, "c": 30, "d": 40},
        )
        probs = revenue_probabilities(inst, beta=0.5, gamma=0.0)
        assert probs["a"] == 0.0 and probs["c"] == 0.0
        assert probs["b"] > 0.0 and probs["d"] > 0.0

    def test_gamma_amplifies_and_clamps(self):
        inst = build_instance(
            2, affiliations={"a": Affiliation.NBC}, revenues={"a": 100, "b": 1}
        )
        probs = revenue_probabilities(inst, beta=0.5, gamma=10.0)
        assert probs["a"] == 1.0  # clamped

    def test_all_zero_revenues_degenerate_to_half(self):
        inst = build_instance(4)
        probs = revenue_probabilities(inst, beta=0.5, gamma=1.0)
        assert all(p == 0.5 for p in probs.values())

    def test_beta_controls_fraction_above_half(self):
        inst = build_instance(10, revenues={chr(ord("a") + i): float(i) for i in range(10)})
        for beta in (0.2, 0.5, 0.8):
            probs = revenue_probabilities(inst, beta=beta, gamma=1.0)
            above = sum(1 for p in probs.values() if p > 0.5)
            assert above == round(beta * 10)

    def test_pivot_rank_is_exact_in_beta(self):
        # The pivot is the revenue of rank max(1, ceil((1 - beta) * n)); with
        # distinct revenues 0..n-1 it sits at exactly 0.5 and the stations
        # above it are the top n - rank. Float (1.0 - 0.41) * 100 exceeds 59.
        for n in (10, 20, 30, 100, 1700):
            inst = Instance(
                stations=tuple(Station(f"s{i:04d}", 1, revenue=float(i)) for i in range(n)),
                universe=US_UNIVERSE, dmas={1: "one"},
            )
            for k in range(101):
                rank = max(1, -(-(100 - k) * n // 100))
                probs = revenue_probabilities(inst, beta=k / 100, gamma=1.0)
                assert probs[f"s{rank - 1:04d}"] == 0.5, (k, n)
                assert sum(p > 0.5 for p in probs.values()) == n - rank, (k, n)

    def test_sampling_uses_revenue_probabilities(self):
        inst = build_instance(3, revenues={"a": 0.0, "b": 5.0, "c": 10.0})
        spec = ModelSpec.revenue(beta=1.0, gamma=1.0)  # everyone at or above pivot
        draws = 2000
        freq = {sid: 0 for sid in inst.station_ids}
        for i in range(draws):
            for sid in sample(spec, inst, seed=i).non_participants():
                freq[sid] += 1
        probs = revenue_probabilities(inst, beta=1.0, gamma=1.0)
        for sid in inst.station_ids:
            assert abs(freq[sid] / draws - probs[sid]) < 0.05


class TestSampleMatchesReference:
    def test_same_bits_as_per_model_loops(self):
        # The single station pass thresholds exactly as the per-model loops did,
        # also at rates equal to a drawn variate.
        inst = generate_synthetic(40, channel_count=4, affiliate_fraction=0.5, seed=8)
        for seed in range(60):
            variates = draw_variates(inst, seed)
            station_u = variates.station_u[inst.station_ids[seed % inst.n]]
            group_u = variates.group_u[NETWORKS[seed % len(NETWORKS)]]
            specs = [
                builder(alpha)
                for builder in (
                    ModelSpec.random_broadcasters,
                    ModelSpec.random_affiliates,
                    ModelSpec.correlated_affiliates,
                )
                for alpha in (0.0, 0.3, 0.9)
            ] + [
                ModelSpec.random_broadcasters(station_u),
                ModelSpec.random_affiliates(group_u),
                ModelSpec.correlated_affiliates(0.5, top_prob=max(0.5, variates.top_u)),
                ModelSpec.revenue(0.5, 1.0),
                ModelSpec.revenue(0.2, 3.0),
            ]
            for spec in specs:
                assert (
                    sample_from_variates(spec, inst, variates).bits
                    == reference_sample_from_variates(spec, inst, variates).bits
                ), (seed, spec)
