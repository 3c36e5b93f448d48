"""Monte Carlo success estimation, backends, z statistics, and sweeps."""

from __future__ import annotations

import itertools
import math

import pytest

from repacker import montecarlo
from repacker.cliques import CliqueCatalog, enumerate_cliques_greedy
from repacker.montecarlo import (
    BACKEND_CLIQUE_ONLY,
    BACKEND_CLIQUE_THEN_SAT,
    BACKEND_SAT,
    BACKENDS,
    DEFAULT_BACKEND,
    SuccessEstimate,
    TrialReport,
    estimate_success,
    load_trial_set,
    shared_randomness_sweep,
)
from repacker.participation import ModelSpec
from repacker.solver import EmbeddedSolver, SolveOutcome, Verdict
from repacker.synthetic import generate_synthetic

from conftest import build_instance
from reference_paths import reference_run_trial


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
        assert est.mean_z >= 5

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

    def test_reserved_channel_lowers_blocking_threshold(self):
        # Channels 14..18 with 15 reserved: a 6 MHz target drops 18 and leaves
        # four channels, of which 14, 16 and 17 are assignable, so a 4-clique
        # of non-participants is blocked.
        inst = build_instance(
            4, channels=(14, 15, 16, 17, 18), forbidden=frozenset({15}),
            co_pairs=tuple(itertools.combinations("abcd", 2)),
        )
        model = ModelSpec.random_broadcasters(1.0)
        sat = estimate_success(model, inst, 6, trials=4, seed=1, backend=BACKEND_SAT)
        fast = estimate_success(
            model, inst, 6, trials=4, seed=1, backend=BACKEND_CLIQUE_THEN_SAT
        )
        assert [(t.blocked, t.z) for t in fast.trials] == [(True, 4)] * 4
        assert [t.verdict for t in fast.trials] == [t.verdict for t in sat.trials]

    def test_sat_backend_attribution_is_undefined(self):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.9), inst, TARGET, trials=10, seed=8,
            backend=BACKEND_SAT,
        )
        assert est.infeasible_count > 0
        assert est.attribution_fraction is None

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
        assert est.infeasible_count > 30
        assert est.attribution_fraction >= 0.8

    def test_trials_jsonl_round_trip(self, tmp_path):
        inst = congested_instance()
        est = estimate_success(
            ModelSpec.random_broadcasters(0.6), inst, TARGET, trials=12, seed=3,
            backend=BACKEND_CLIQUE_THEN_SAT,
        )
        path = tmp_path / "trials.jsonl"
        est.save_trials_jsonl(path, inst, config_digest="deadbeef")
        loaded = load_trial_set(path, inst).trials
        assert [t.to_json_dict() for t in loaded] == [t.to_json_dict() for t in est.trials]


class TestTrialMatchesReference:
    """Every backend's trials equal those of the per-outcome trial path they replaced."""

    class SometimesTimingOut:
        """The embedded solver, except that every fifth solve seed times out."""

        def __init__(self):
            self.inner = EmbeddedSolver()

        def solve(self, formula, seed=0, time_budget=60.0):
            if seed % 5 == 0:
                return SolveOutcome(Verdict.TIMEOUT)
            return self.inner.solve(formula, seed=seed, time_budget=time_budget)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_trial_matches_reference(self, monkeypatch, backend):
        inst = congested_instance()
        full = enumerate_cliques_greedy(inst, seed=3)
        # Without its largest clique the catalog misses draws the solver refutes.
        partial = CliqueCatalog(full.cliques[1:], full.min_size_retained)
        engine = self.SometimesTimingOut()
        verdicts = {}
        for model, catalog in itertools.product(
            (
                ModelSpec.random_broadcasters(0.55),
                ModelSpec.random_affiliates(0.6),
                ModelSpec.correlated_affiliates(0.6),
                ModelSpec.revenue(0.5, 1.5),
            ),
            (full, partial),
        ):
            def run():
                return estimate_success(
                    model, inst, TARGET, trials=40, seed=11, backend=backend,
                    catalog=catalog, engine=engine,
                )

            trials = [t.to_json_dict() for t in run().trials]
            with monkeypatch.context() as patched:
                patched.setattr(montecarlo, "_run_trial", reference_run_trial)
                assert [t.to_json_dict() for t in run().trials] == trials
            for t in trials:
                key = (t["verdict"], t["z"] is not None)
                verdicts[key] = verdicts.get(key, 0) + 1
        # Every way this backend can decide a trial occurs: feasible, blocked
        # by a clique, refuted by the solver, timed out.
        required = {
            BACKEND_SAT: {("feasible", False), ("infeasible", False), ("timeout", False)},
            BACKEND_CLIQUE_THEN_SAT: {
                ("feasible", False), ("infeasible", True), ("infeasible", False), ("timeout", False),
            },
            BACKEND_CLIQUE_ONLY: {("feasible", False), ("infeasible", True)},
        }[backend]
        assert all(verdicts.get(key, 0) >= 3 for key in required), verdicts


def estimate_of(*trials: TrialReport) -> SuccessEstimate:
    """A clique-then-sat estimate over hand-built trials."""
    return SuccessEstimate(
        model=ModelSpec.random_broadcasters(0.5), target_mhz=TARGET, use_domain=True,
        backend=BACKEND_CLIQUE_THEN_SAT, trials=list(trials),
    )


class TestMeanZ:
    def test_single_trial(self):
        t = TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=52)
        assert estimate_of(t).mean_z == 52

    def test_two_trials_average(self):
        ts = [
            TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=10),
            TrialReport(index=1, seed=0, draw_digest="", verdict="infeasible", z=20),
        ]
        assert estimate_of(*ts).mean_z == 15

    def test_feasible_only_undefined(self):
        t = TrialReport(index=0, seed=0, draw_digest="", verdict="feasible")
        assert estimate_of(t).mean_z is None

    def test_unblocked_infeasibilities_not_counted(self):
        ts = [
            TrialReport(index=0, seed=0, draw_digest="", verdict="infeasible", z=6),
            TrialReport(index=1, seed=0, draw_digest="", verdict="infeasible"),
        ]
        assert estimate_of(*ts).mean_z == 6


class TestEstimateStatistics:
    def test_one_trial_of_each_outcome(self):
        est = estimate_of(
            TrialReport(index=0, seed=0, draw_digest="", verdict="feasible"),
            TrialReport(index=1, seed=0, draw_digest="", verdict="infeasible", z=5, blocking_cliques=1),
            TrialReport(index=2, seed=0, draw_digest="", verdict="infeasible"),
            TrialReport(index=3, seed=0, draw_digest="", verdict="timeout"),
        )
        # The timeout counts as infeasible, and no clique explains it.
        assert (est.trial_count, est.infeasible_count, est.timeout_count) == (4, 3, 1)
        assert est.p == 0.25
        assert est.p_excluding_timeouts == pytest.approx(1 / 3)
        assert est.mean_z == 5
        assert est.attribution_fraction == pytest.approx(1 / 3)
        assert list(est.summary_row().items()) == [
            ("model", "random-broadcasters"), ("alpha", 0.5), ("beta", None), ("gamma", None),
            ("target_mhz", TARGET), ("use_domain", True), ("backend", BACKEND_CLIQUE_THEN_SAT),
            ("trials", 4), ("p", 0.25), ("stderr", pytest.approx(math.sqrt(0.25 * 0.75 / 4))),
            ("timeouts", 1), ("p_excluding_timeouts", pytest.approx(1 / 3)), ("mean_z", 5),
            ("attribution_fraction", pytest.approx(1 / 3)),
        ]


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

    def test_default_single_rate_run_equals_default_sweep_point(self):
        # One default for both entry points, and it is the scan-first path.
        inst = congested_instance()
        model = ModelSpec.random_broadcasters(0.5)
        for alpha in (0.4, 0.7):
            single = estimate_success(model.with_alpha(alpha), inst, TARGET, trials=30, seed=23)
            [point] = shared_randomness_sweep(model, [alpha], inst, TARGET, trials=30, seed=23)
            assert single.backend == point.backend == DEFAULT_BACKEND == BACKEND_CLIQUE_THEN_SAT
            trials = [t.to_json_dict() for t in single.trials]
            assert [t.to_json_dict() for t in point.trials] == trials
            assert any(t["z"] is not None for t in trials)
            assert any(t["verdict"] == "feasible" for t in trials)

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
