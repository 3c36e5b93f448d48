"""Monte Carlo success estimation, backends, z statistics, and sweeps."""

from __future__ import annotations

import math

import pytest

from repacker.cliques import enumerate_cliques_greedy
from repacker.montecarlo import (
    BACKEND_CLIQUE_ONLY,
    BACKEND_CLIQUE_THEN_SAT,
    BACKEND_SAT,
    TrialReport,
    estimate_success,
    load_trial_set,
    mean_z,
    shared_randomness_sweep,
)
from repacker.participation import ModelSpec
from repacker.synthetic import generate_synthetic

from conftest import build_instance


def congested_instance():
    """Planted 5-clique in DMA 1 on top of light background conflicts."""
    return generate_synthetic(
        12, channel_count=5, co_density=0.08, planted_clique=5,
        planted_clique_dma=1, seed=17,
    )


TARGET = 12  # clears 2 channels, leaving c = 3; blocking threshold 4


class TestEstimateSuccess:
    def test_alpha_zero_always_succeeds(self):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.0), inst, TARGET, trials=10, seed=1
        )
        assert est.p == 1.0
        assert est.stderr == 0.0
        assert est.infeasible_count == 0

    def test_alpha_one_with_blocking_clique_always_fails(self):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(1.0), inst, TARGET, trials=10, seed=1,
            backend=BACKEND_CLIQUE_THEN_SAT,
        )
        assert est.p == 0.0
        # Every failure carries the planted clique.
        assert all(t.blocked for t in est.trials)
        assert est.mean_z_value >= 5

    def test_backend_agreement_trial_by_trial(self):
        inst = congested_instance()
        model = ModelSpec.random_broadcasters(0.55)
        catalog = enumerate_cliques_greedy(inst, seed=3)
        a = estimate_success(model, inst, TARGET, trials=120, seed=7, backend=BACKEND_SAT)
        b = estimate_success(
            model, inst, TARGET, trials=120, seed=7,
            backend=BACKEND_CLIQUE_THEN_SAT, catalog=catalog,
        )
        assert [t.draw_digest for t in a.trials] == [t.draw_digest for t in b.trials]
        assert [t.verdict for t in a.trials] == [t.verdict for t in b.trials]
        assert a.p == b.p

    def test_clique_only_never_more_pessimistic(self):
        inst = congested_instance()
        model = ModelSpec.random_broadcasters(0.55)
        catalog = enumerate_cliques_greedy(inst, seed=3)
        exact = estimate_success(
            model, inst, TARGET, trials=80, seed=11,
            backend=BACKEND_CLIQUE_THEN_SAT, catalog=catalog,
        )
        approx = estimate_success(
            model, inst, TARGET, trials=80, seed=11,
            backend=BACKEND_CLIQUE_ONLY, catalog=catalog,
        )
        assert approx.p >= exact.p
        # Blocked verdicts agree; the approximation only flips unblocked ones.
        for ta, te in zip(approx.trials, exact.trials):
            if ta.blocked:
                assert te.verdict == "infeasible"

    def test_deterministic_for_master_seed(self):
        inst = congested_instance()
        model = ModelSpec.random_affiliates(0.5)
        a = estimate_success(model, inst, TARGET, trials=30, seed=5)
        b = estimate_success(model, inst, TARGET, trials=30, seed=5)
        assert [t.to_json_dict() for t in a.trials] == [t.to_json_dict() for t in b.trials]

    def test_workers_do_not_change_results(self):
        inst = congested_instance()
        model = ModelSpec.random_broadcasters(0.5)
        serial = estimate_success(model, inst, TARGET, trials=16, seed=2, workers=1)
        parallel = estimate_success(model, inst, TARGET, trials=16, seed=2, workers=2)
        assert [t.to_json_dict() for t in serial.trials] == [
            t.to_json_dict() for t in parallel.trials
        ]

    def test_stderr_is_binomial(self):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.5), inst, TARGET, trials=50, seed=9,
            backend=BACKEND_CLIQUE_THEN_SAT,
        )
        assert math.isclose(est.stderr, math.sqrt(est.p * (1 - est.p) / 50))

    def test_caps_passed_through(self):
        inst = build_instance(3, channels=(1, 2, 3))
        est = estimate_success(
            ModelSpec.random_broadcasters(0.0), inst, 6, trials=4, seed=1,
            max_cleared_nationwide=0,
        )
        assert est.p == 1.0

    def test_sat_backend_attribution_is_undefined(self):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.9), inst, TARGET, trials=10, seed=8,
            backend=BACKEND_SAT,
        )
        assert est.infeasible_count > 0
        assert est.attribution.fraction is None

    def test_attribution_fraction_dominated_by_cliques(self):
        # On an instance whose hard core is one big clique, nearly every
        # infeasibility is clique-certified at a high non-participation rate.
        inst = generate_synthetic(
            14, channel_count=5, co_density=0.05, planted_clique=7,
            planted_clique_dma=1, seed=41,
        )
        est = estimate_success(
            ModelSpec.random_broadcasters(0.8), inst, TARGET, trials=150, seed=6,
            backend=BACKEND_CLIQUE_THEN_SAT,
        )
        attr = est.attribution
        assert attr.infeasible > 30
        assert attr.fraction >= 0.8

    def test_trials_jsonl_round_trip(self, tmp_path):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.6), inst, TARGET, trials=12, seed=3,
            backend=BACKEND_CLIQUE_THEN_SAT,
        )
        path = tmp_path / "trials.jsonl"
        est.save_trials_jsonl(path, inst, config_digest="deadbeef")
        loaded = load_trial_set(path)[1]
        assert [t.to_json_dict() for t in loaded] == [t.to_json_dict() for t in est.trials]


class TestMeanZ:
    def test_single_trial(self):
        t = TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=52)
        assert mean_z([t]) == 52

    def test_two_trials_average(self):
        ts = [
            TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=10),
            TrialReport(index=1, seed=0, draw_digest="", verdict="infeasible", z=20),
        ]
        assert mean_z(ts) == 15

    def test_feasible_only_undefined(self):
        t = TrialReport(index=0, seed=0, draw_digest="", verdict="feasible")
        assert mean_z([t]) is None

    def test_unblocked_infeasibilities_not_counted(self):
        ts = [
            TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=6),
            TrialReport(index=1, seed=0, draw_digest="", verdict="infeasible"),
        ]
        assert mean_z(ts) == 6


class TestSharedRandomnessSweep:
    def test_nested_non_participants_give_monotone_z(self):
        inst = congested_instance()
        sweep = shared_randomness_sweep(
            ModelSpec.random_broadcasters(0.5), [0.3, 0.5, 0.7, 0.9],
            inst, TARGET, trials=20, seed=13, backend=BACKEND_CLIQUE_ONLY,
        )
        # Per trial: once blocked, z never shrinks as the rate climbs.
        by_trial: dict[int, list] = {}
        for point in sweep:
            for t in point.trials:
                by_trial.setdefault(t.index, []).append(t)
        saw_progression = False
        for reports in by_trial.values():
            zs = [t.z for t in reports if t.z is not None]
            assert zs == sorted(zs)
            if len(set(zs)) >= 2:
                saw_progression = True
        assert saw_progression

    def test_point_equals_single_rate_run_and_ignores_workers(self):
        inst = congested_instance()
        model = ModelSpec.random_broadcasters(0.5)
        alphas = [0.3, 0.55, 0.8]
        serial = shared_randomness_sweep(
            model, alphas, inst, TARGET, trials=16, seed=19,
            backend=BACKEND_CLIQUE_THEN_SAT, workers=1,
        )
        pooled = shared_randomness_sweep(
            model, alphas, inst, TARGET, trials=16, seed=19,
            backend=BACKEND_CLIQUE_THEN_SAT, workers=2,
        )
        for point, pooled_point in zip(serial, pooled):
            single = estimate_success(
                model.with_alpha(point.model.alpha), inst, TARGET, trials=16, seed=19,
                backend=BACKEND_CLIQUE_THEN_SAT,
            )
            expected = [t.to_json_dict() for t in single.trials]
            assert [t.to_json_dict() for t in point.trials] == expected
            assert [t.to_json_dict() for t in pooled_point.trials] == expected

    def test_success_non_increasing_along_sweep(self):
        inst = congested_instance()
        sweep = shared_randomness_sweep(
            ModelSpec.random_broadcasters(0.5), [0.2, 0.5, 0.8],
            inst, TARGET, trials=40, seed=21, backend=BACKEND_CLIQUE_THEN_SAT,
        )
        ps = [pt.p for pt in sweep]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_rejects_non_increasing_grid(self):
        inst = congested_instance()
        with pytest.raises(ValueError, match="strictly increasing"):
            shared_randomness_sweep(
                ModelSpec.random_broadcasters(0.5), [0.5, 0.5], inst, TARGET
            )

    def test_rejects_revenue_model(self):
        inst = congested_instance()
        with pytest.raises(ValueError, match="sweep"):
            shared_randomness_sweep(
                ModelSpec.revenue(0.5, 1.0), [0.1, 0.2], inst, TARGET
            )

    def test_rate_zero_draws_nobody(self):
        from repacker.participation import draw_variates, sample_from_variates

        inst = congested_instance()
        variates = draw_variates(inst, seed=5)
        pv = sample_from_variates(ModelSpec.random_broadcasters(0.0), inst, variates)
        assert not pv.non_participants()

    def test_affiliate_sweep_nests_at_group_level(self):
        inst = generate_synthetic(10, channel_count=5, affiliate_fraction=0.7, seed=29)
        sweep = shared_randomness_sweep(
            ModelSpec.correlated_affiliates(0.5), [0.2, 0.5, 0.8],
            inst, 6, trials=15, seed=31, backend=BACKEND_CLIQUE_ONLY,
        )
        assert [pt.model.alpha for pt in sweep] == [0.2, 0.5, 0.8]
