"""Feasibility checks, minimum searches, and solution sampling."""

from __future__ import annotations

import functools
import gc
import random

import pytest

from repacker import driver, parallel
from repacker.driver import (
    FeasibilityResult,
    SampleSet,
    SamplingError,
    SearchError,
    check_feasibility,
    min_dma_clearings_isolated,
    min_dmas_with_clearing,
    min_nationwide_clearings,
    sample_solutions,
)
from repacker.instance import ChannelAssignment, RepackProblem, validate_assignment
from repacker.solver import EmbeddedSolver, SolveOutcome, SolveStats, Verdict
from repacker.synthetic import generate_synthetic, planted_clique_ids
from repacker.util import derive_seed

from conftest import build_instance, random_problem
from oracles import brute_force_min_cleared, brute_force_repack
from reference_paths import reference_min_cap_search


class TestCheckFeasibility:
    def test_unconstrained_instance_feasible(self):
        inst = build_instance(3, channels=(1, 2, 3, 4))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6, must_repack=frozenset(inst.station_ids)
        )
        res = check_feasibility(prob, seed=0)
        assert res.feasible
        assert validate_assignment(prob, res.assignment) == []

    def test_planted_overclique_in_must_repack_infeasible(self):
        inst = generate_synthetic(6, channel_count=4, co_density=0, planted_clique=4, seed=1)
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6,
            must_repack=frozenset(planted_clique_ids(4)),
        )
        assert len(prob.channel_plan.channels) == 3
        res = check_feasibility(prob, seed=0)
        assert res.verdict is Verdict.UNSAT
        assert not res.feasible

    def test_agrees_with_brute_force(self, rng: random.Random):
        for _ in range(40):
            prob = random_problem(rng, max_n=8, max_c=4)
            res = check_feasibility(prob, seed=5, time_budget=30)
            assert res.feasible == (brute_force_repack(prob) is not None)


class TestCheckFeasibilityGcPause:
    """The cyclic GC is off from ``encode`` through ``validate_assignment``,
    and the caller's setting comes back, also when the check raises."""

    @staticmethod
    def traced(monkeypatch, seen, validate=validate_assignment):
        # Patched where check_feasibility looks them up: the driver module.
        for name, real in (("encode", driver.encode), ("decode", driver.decode),
                           ("validate_assignment", validate)):
            def wrapper(*args, _name=name, _real=real):
                seen.append((_name, gc.isenabled()))
                return _real(*args)
            monkeypatch.setattr(driver, name, wrapper)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_paused_from_encode_to_validate(self, monkeypatch, enabled):
        inst = build_instance(3, channels=(1, 2, 3, 4))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6, must_repack=frozenset(inst.station_ids)
        )
        seen = []
        self.traced(monkeypatch, seen)
        if not enabled:
            gc.disable()
        try:
            assert check_feasibility(prob, seed=0).feasible
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [("encode", False), ("decode", False), ("validate_assignment", False)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_restored_when_the_check_raises(self, monkeypatch, enabled):
        inst = build_instance(3, channels=(1, 2, 3, 4))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6, must_repack=frozenset(inst.station_ids)
        )
        seen = []
        self.traced(monkeypatch, seen, validate=lambda problem, assignment: ["bad"])
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError, match="violates the problem"):
                check_feasibility(prob, seed=0)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert [gc_on for _, gc_on in seen] == [False, False, False]


class TestMinNationwideClearings:
    def test_no_constraints_means_zero(self):
        inst = build_instance(4, channels=(1, 2, 3, 4))
        result = min_nationwide_clearings(inst, 6)
        assert result.value == 0
        assert result.certified
        assert not result.witness.cleared_set()

    @pytest.mark.parametrize("excess", [1, 2, 3])
    def test_planted_clique_forces_exact_excess(self, excess: int):
        # A co-channel clique of c + excess stations can place only c of them,
        # so exactly `excess` must be cleared.
        channel_count = 5
        target = 12  # clears 2, leaving c = 3
        c = 3
        inst = generate_synthetic(
            8, channel_count=channel_count, co_density=0.0,
            planted_clique=c + excess, seed=excess,
        )
        result = min_nationwide_clearings(inst, target)
        assert result.value == excess
        assert result.certified
        oracle = brute_force_min_cleared(
            lambda cap: RepackProblem(
                instance=inst, clearing_target_mhz=target, max_cleared_nationwide=cap
            ),
            inst.n,
        )
        assert oracle == excess

    def test_bracketing_certificate(self, rng: random.Random):
        for _ in range(15):
            prob = random_problem(rng, max_n=8, max_c=4, allow_caps=False)
            inst = prob.instance
            result = min_nationwide_clearings(
                inst, prob.clearing_target_mhz, prob.use_domain_constraints, seed=3
            )
            # Independent re-solves of the bracket.
            def probe(cap):
                return check_feasibility(
                    RepackProblem(
                        instance=inst,
                        clearing_target_mhz=prob.clearing_target_mhz,
                        use_domain_constraints=prob.use_domain_constraints,
                        max_cleared_nationwide=cap,
                    ),
                    seed=99,
                )
            assert probe(result.value).feasible
            if result.value > 0:
                assert not probe(result.value - 1).feasible

    def test_monotone_in_target(self):
        inst = generate_synthetic(10, channel_count=6, co_density=0.35, seed=13)
        values = [
            min_nationwide_clearings(inst, m, seed=1).value for m in (6, 12, 18, 24)
        ]
        assert values == sorted(values)

    def test_witness_respects_cap(self):
        inst = generate_synthetic(9, channel_count=5, co_density=0.4, seed=23)
        result = min_nationwide_clearings(inst, 12, seed=2)
        assert len(result.witness.cleared_set()) <= result.value


class TestMinDmasWithClearing:
    def test_no_constraints_means_zero(self):
        inst = build_instance(4, channels=(1, 2, 3, 4))
        assert min_dmas_with_clearing(inst, 6).value == 0

    def test_two_cliques_in_two_dmas(self):
        # Each DMA holds a clique one larger than the channel count, so each
        # needs clearing and no single-DMA solution exists.
        inst = build_instance(
            6,
            channels=(1, 2, 3),
            co_pairs=(("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f")),
            dma_of={"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2},
        )
        result = min_dmas_with_clearing(inst, 6)
        assert result.value == 2
        assert result.certified


class TestMinDmaIsolated:
    def test_unconstrained_dma_needs_nothing(self):
        inst = build_instance(4, channels=(1, 2, 3, 4), dma_of={"a": 1, "b": 1, "c": 2, "d": 2})
        result = min_dma_clearings_isolated(inst, 6, dma_id=1)
        assert result.value == 0

    def test_clique_dma_matches_brute_force(self):
        # Clique of 4 in DMA 1 on 2 counted channels: 2 clearings have to come
        # from DMA 1 no matter what the neighbors absorb.
        inst = generate_synthetic(
            7, channel_count=4, co_density=0.0, planted_clique=4,
            planted_clique_dma=1, seed=4,
        )
        target = 12  # c = 2
        b_star = min_nationwide_clearings(inst, target).value
        result = min_dma_clearings_isolated(inst, target, dma_id=1, b_star=b_star)
        nationwide_cap = -(-b_star * 21 // 20)  # ceil(b* * 1.05)
        oracle = brute_force_min_cleared(
            lambda cap: RepackProblem(
                instance=inst,
                clearing_target_mhz=target,
                max_cleared_nationwide=nationwide_cap,
                dma_caps={1: cap},
            ),
            len(inst.dma_members[1]),
        )
        assert result.value == oracle == 2

    def test_unknown_dma_rejected(self):
        inst = build_instance(2)
        with pytest.raises(ValueError, match="unknown DMA"):
            min_dma_clearings_isolated(inst, 6, dma_id=99)

    @pytest.mark.parametrize("b_star, slack, cap", [(50, 0.1, 55), (20, 0.05, 21)])
    def test_nationwide_cap_is_exact_in_the_slack(self, monkeypatch, b_star, slack, cap):
        # In floats, ceil(50 * (1 + 0.1)) is 56.
        inst = build_instance(4, channels=(1, 2, 3, 4), dma_of={"a": 1, "b": 1, "c": 2, "d": 2})
        caps = []

        def recording(problem, **kwargs):
            caps.append(problem.max_cleared_nationwide)
            return check_feasibility(problem, **kwargs)

        monkeypatch.setattr(driver, "check_feasibility", recording)
        min_dma_clearings_isolated(inst, 6, dma_id=1, b_star=b_star, slack=slack)
        assert caps and set(caps) == {cap}


class TestSearchErrors:
    def test_impossible_target_raises(self):
        # With an empty must-repack set, clearing everyone is always feasible,
        # so the base-case failure only arises from a broken engine.
        class AlwaysUnsat:
            def solve(self, formula, seed=0, time_budget=60.0):
                from repacker.solver import SolveOutcome, SolveStats

                return SolveOutcome(Verdict.UNSAT, stats=SolveStats())

        inst = build_instance(2)
        with pytest.raises(SearchError, match="base case"):
            min_nationwide_clearings(inst, 6, engine=AlwaysUnsat())


class TestSampling:
    def test_samples_are_distinct_seeds_and_valid(self):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        ss = sample_solutions(inst, 12, count=6, buffer=2, seed=5)
        assert len(ss.samples) == 6
        assert len({s.seed for s in ss.samples}) == 6
        for s in ss.samples:
            assert validate_assignment(ss.problem, s.assignment) == []
            assert len(s.assignment.cleared_set()) <= ss.cap

    def test_deterministic_for_master_seed(self):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        a = sample_solutions(inst, 12, count=4, buffer=2, seed=9)
        b = sample_solutions(inst, 12, count=4, buffer=2, seed=9)
        assert [s.assignment.channels for s in a.samples] == [
            s.assignment.channels for s in b.samples
        ]

    def test_equal_seeds_give_identical_assignments(self):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        ss = sample_solutions(inst, 12, count=1, buffer=2, seed=9)
        seed = ss.samples[0].seed
        again = check_feasibility(ss.problem, seed=seed)
        assert again.assignment.channels == ss.samples[0].assignment.channels

    def test_multiple_seeds_vary_solutions(self):
        inst = generate_synthetic(10, channel_count=6, co_density=0.3, seed=77)
        ss = sample_solutions(inst, 12, count=10, buffer=3, seed=21)
        keys = {s.assignment.canonical_key() for s in ss.samples}
        assert len(keys) >= 2

    def test_parallel_matches_serial(self):
        inst = generate_synthetic(8, channel_count=5, co_density=0.3, seed=15)
        serial = sample_solutions(inst, 12, count=4, buffer=2, seed=3, workers=1)
        parallel = sample_solutions(inst, 12, count=4, buffer=2, seed=3, workers=2)
        assert [s.assignment.channels for s in serial.samples] == [
            s.assignment.channels for s in parallel.samples
        ]

    def test_shortfall_raises_when_nothing_sampled(self):
        class AlwaysTimeout:
            def solve(self, formula, seed=0, time_budget=60.0):
                from repacker.solver import SolveOutcome, SolveStats

                return SolveOutcome(Verdict.TIMEOUT, stats=SolveStats())

        inst = build_instance(3, channels=(1, 2, 3))
        with pytest.raises(SamplingError, match="no solutions"):
            sample_solutions(inst, 6, count=2, buffer=0, b_star=0, seed=1, engine=AlwaysTimeout())

    def test_jsonl_round_trip(self, tmp_path):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        ss = sample_solutions(inst, 12, count=3, buffer=2, seed=5)
        path = tmp_path / "samples.jsonl"
        ss.save_jsonl(path, config_digest="abc123")
        loaded = SampleSet.load_jsonl(path, inst)
        assert loaded.cap == ss.cap
        assert loaded.buffer == ss.buffer
        assert loaded.b_star == ss.b_star
        assert [s.assignment.channels for s in loaded.samples] == [
            s.assignment.channels for s in ss.samples
        ]

    def test_jsonl_rejects_wrong_instance(self, tmp_path):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        other = generate_synthetic(8, channel_count=5, co_density=0.35, seed=32)
        ss = sample_solutions(inst, 12, count=2, buffer=2, seed=5)
        path = tmp_path / "samples.jsonl"
        ss.save_jsonl(path)
        with pytest.raises(ValueError, match="different instance"):
            SampleSet.load_jsonl(path, other)


class TimesOutOnEveryThirdSeed:
    """The embedded solver, except that a solve seed divisible by 3 times out."""

    def __init__(self):
        self.inner = EmbeddedSolver()

    def solve(self, formula, seed=0, time_budget=60.0):
        if seed % 3 == 0:
            return SolveOutcome(Verdict.TIMEOUT)
        return self.inner.solve(formula, seed=seed, time_budget=time_budget)


class TestSamplingPool:
    def test_retry_batches_share_one_pool(self, monkeypatch, tmp_path):
        inst = generate_synthetic(8, channel_count=5, co_density=0.3, seed=15)
        engine = TimesOutOnEveryThirdSeed()

        def run(workers):
            return sample_solutions(
                inst, 12, count=8, buffer=0, b_star=inst.n, seed=2, workers=workers,
                engine=engine,
            )

        serial = run(1)
        pools, batches = [], []
        real_pool, real_run = parallel.ProcessPoolExecutor, parallel.run_tasks

        def recording_pool(**kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(**kwargs)

        def recording_run(fn, tasks, **kwargs):
            batches.append(len(tasks))
            return real_run(fn, tasks, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(parallel, "run_tasks", recording_run)
        pooled = run(2)
        assert len(batches) >= 3 and min(batches) == 1  # retries, down to one seed
        assert pools == [2]
        files = []
        for name, sample_set in (("serial", serial), ("pooled", pooled)):
            path = tmp_path / f"{name}.jsonl"
            sample_set.save_jsonl(path, config_digest="d")
            files.append(path.read_bytes())
        assert files[0] == files[1]
        assert len(pooled.samples) == 8


class TestTimeoutFallback:
    def test_linear_scan_after_timeout(self):
        # Engine that times out once at a specific cap, then behaves normally:
        # the search must fall back to certified downward scanning.
        from repacker.encoder import CnfFormula
        from repacker.solver import EmbeddedSolver

        inst = generate_synthetic(6, channel_count=4, co_density=0.0, planted_clique=5, seed=2)
        target = 12  # c = 2, clique of 5 -> minimum 3 cleared

        class FlakyEngine:
            def __init__(self):
                self.inner = EmbeddedSolver()
                self.calls = 0
                self.timeouts_served = 0

            def solve(self, formula: CnfFormula, seed=0, time_budget=60.0):
                from repacker.solver import SolveOutcome, SolveStats

                self.calls += 1
                # The first call establishes the base case; time out the
                # second (the first midpoint probe of the binary search).
                if self.calls == 2:
                    self.timeouts_served += 1
                    return SolveOutcome(Verdict.TIMEOUT, stats=SolveStats())
                return self.inner.solve(formula, seed=seed, time_budget=time_budget)

        engine = FlakyEngine()
        result = min_nationwide_clearings(inst, target, engine=engine)
        assert result.value == 3
        assert result.timed_out  # a probe did time out along the way
        assert engine.timeouts_served == 1
        # The timed-out cap 3 is the clique bound, so the walk down stops there.
        assert (result.lower_bound, result.certified_by) == (3, "clique-bound")
        assert [p.cap for p in result.probes] == [6, 3, 5, 4, 3]


class TestPublicSearchesUseTheirBound:
    """With every UNSAT probe turned into a timeout, each public search still
    reaches its minimum, certified by its own clique bound."""

    @pytest.mark.parametrize("search, minimum", [
        (lambda inst: min_nationwide_clearings(inst, 6), 3),
        (lambda inst: min_dmas_with_clearing(inst, 6), 2),
        (lambda inst: min_dma_clearings_isolated(inst, 6, dma_id=1), 2),
    ], ids=["min-clear", "min-dmas", "min-dma-isolated"])
    def test_bound_certifies_when_refutations_time_out(self, monkeypatch, search, minimum):
        # On c = 2 channels, a 4-clique in DMA 1 and a 3-clique in DMA 2: each
        # search's minimum differs from the other two bounds.
        four, three = "abcd", "efg"
        inst = build_instance(
            7, channels=(1, 2, 3),
            co_pairs=tuple((x, y) for k in (four, three) for x in k for y in k if x < y),
            dma_of={**dict.fromkeys(four, 1), **dict.fromkeys(three, 2)},
        )
        assert search(inst).certified_by == "unsat-probe"
        real = driver.check_feasibility

        def refutations_time_out(problem, **kwargs):
            res = real(problem, **kwargs)
            if res.verdict is Verdict.UNSAT:
                return FeasibilityResult(Verdict.TIMEOUT, None, res.stats, res.seed)
            return res

        monkeypatch.setattr(driver, "check_feasibility", refutations_time_out)
        result = search(inst)
        assert (result.value, result.lower_bound, result.certified_by) == (
            minimum, minimum, "clique-bound")
        assert result.timed_out


class TestSearchMatchesReference:
    """The one-loop search replays the two-phase search it replaced."""

    @staticmethod
    def _scripted(rng: random.Random, hi: int):
        """Verdicts by (cap, attempt): a monotone minimum (sometimes above
        ``hi``, so the base case fails) with random timeouts, or, for one
        script in five, any verdict at all."""
        timeout_rate = rng.choice((0.0, 0.1, 0.3, 0.6))
        minimum = rng.randint(0, hi + 1)
        monotone = rng.random() < 0.8
        script = {}
        for cap in range(hi + 1):
            for attempt in range(3):
                if rng.random() < timeout_rate:
                    script[cap, attempt] = Verdict.TIMEOUT
                elif monotone:
                    script[cap, attempt] = Verdict.SAT if cap >= minimum else Verdict.UNSAT
                else:
                    script[cap, attempt] = rng.choice((Verdict.SAT, Verdict.UNSAT))
        return script

    @staticmethod
    def _run(monkeypatch, search, script, hi, seed):
        attempts: dict[int, int] = {}

        def scripted_check(cap, *, seed, time_budget, engine):
            attempt = attempts.get(cap, 0)
            attempts[cap] = attempt + 1
            verdict = script[cap, attempt]
            witness = ChannelAssignment({"cap": cap, "attempt": attempt})
            return FeasibilityResult(
                verdict, witness if verdict is Verdict.SAT else None, SolveStats(), seed
            )

        monkeypatch.setattr(driver, "check_feasibility", scripted_check)
        try:
            result = search(lambda cap: cap, hi, seed=seed, time_budget=1.0, engine=None,
                            what="scripted")
        except SearchError as exc:
            return ("error", str(exc))
        return (
            [(p.cap, p.verdict, p.seed) for p in result.probes],
            result.value,
            result.timed_out,
            result.certified,
            result.witness,
        )

    def test_same_probes_and_result_as_reference(self, monkeypatch):
        rng = random.Random(11)
        seen = {"error": 0, "certified": 0, "upper-bound": 0, "re-probed": 0, "two-timeouts": 0}
        for case in range(4000):
            hi = rng.randint(0, 40)
            script = self._scripted(rng, hi)
            new = self._run(monkeypatch, driver._min_cap_search, script, hi, seed=case)
            ref = self._run(monkeypatch, reference_min_cap_search, script, hi, seed=case)
            assert new == ref, (case, hi)
            if new[0] == "error":
                seen["error"] += 1
                continue
            probes, _, _, certified, _ = new
            seen["certified" if certified else "upper-bound"] += 1
            caps = [cap for cap, _, _ in probes]
            seen["re-probed"] += len(caps) != len(set(caps))
            seen["two-timeouts"] += sum(v is Verdict.TIMEOUT for _, v, _ in probes[1:]) >= 2
        assert min(seen.values()) >= 100, seen


class TestSearchWithCliqueBound:
    """A clique bound settles a timed-out probe below it and stops the walk
    down at it; a search with no timeout never asks for it."""

    @staticmethod
    def _search(monkeypatch, hi, minimum, timeouts, bound):
        """Search a monotone script (feasible from ``minimum`` up) whose
        ``timeouts`` are the (cap, attempt) pairs that time out."""
        attempts: dict[int, int] = {}
        asked = []

        def scripted_check(cap, *, seed, time_budget, engine):
            attempt = attempts.get(cap, 0)
            attempts[cap] = attempt + 1
            if (cap, attempt) in timeouts:
                verdict = Verdict.TIMEOUT
            else:
                verdict = Verdict.SAT if cap >= minimum else Verdict.UNSAT
            witness = ChannelAssignment({"cap": cap})
            return FeasibilityResult(
                verdict, witness if verdict is Verdict.SAT else None, SolveStats(), seed
            )

        def lower_bound():
            asked.append(bound)
            return bound

        monkeypatch.setattr(driver, "check_feasibility", scripted_check)
        result = driver._min_cap_search(
            lambda cap: cap, hi, seed=0, time_budget=1.0, engine=None, what="scripted",
            lower_bound=lower_bound,
        )
        caps = [(p.cap, p.verdict.value) for p in result.probes]
        return result, caps, asked

    def test_timeout_below_the_bound_is_settled_without_a_re_probe(self, monkeypatch):
        # pipeline-medium's hard min-clear: cap 1 times out, a 10-clique on 8
        # channels bounds the minimum at 2.
        result, caps, asked = self._search(monkeypatch, 100, 2, {(1, 0)}, bound=2)
        assert caps == [(100, "sat"), (50, "sat"), (25, "sat"), (12, "sat"), (6, "sat"),
                        (3, "sat"), (1, "timeout"), (2, "sat")]
        assert (result.value, result.lower_bound, result.certified_by) == (2, 2, "clique-bound")
        assert result.certified and result.timed_out and asked == [2]
        assert result.to_json_dict()["certified_by"] == "clique-bound"
        assert result.to_json_dict()["lower_bound"] == 2

    def test_bisection_goes_on_above_the_bound(self, monkeypatch):
        result, caps, asked = self._search(monkeypatch, 16, 5, {(4, 0)}, bound=5)
        assert caps == [(16, "sat"), (8, "sat"), (4, "timeout"), (6, "sat"), (5, "sat")]
        assert (result.value, result.certified_by) == (5, "clique-bound")
        assert asked == [5]

    def test_timeout_at_the_bound_walks_down_to_it(self, monkeypatch):
        result, caps, asked = self._search(monkeypatch, 16, 3, {(4, 0)}, bound=3)
        # The walk re-probes cap 4 and ends at the bound: cap 2 is never probed.
        assert caps == [(16, "sat"), (8, "sat"), (4, "timeout"), (7, "sat"), (6, "sat"),
                        (5, "sat"), (4, "sat"), (3, "sat")]
        assert (result.value, result.certified_by) == (3, "clique-bound")
        assert asked == [3]

    def test_walk_below_a_weak_bound_keeps_the_probe_evidence(self, monkeypatch):
        result, caps, _ = self._search(monkeypatch, 16, 3, {(4, 0)}, bound=1)
        assert caps[-2:] == [(3, "sat"), (2, "unsat")]
        assert (result.value, result.lower_bound, result.certified_by) == (3, 1, "unsat-probe")

    def test_second_timeout_above_the_bound_leaves_an_upper_bound(self, monkeypatch):
        result, caps, asked = self._search(monkeypatch, 16, 3, {(4, 0), (2, 0)}, bound=2)
        assert caps[-2:] == [(3, "sat"), (2, "timeout")]
        assert (result.value, result.lower_bound, result.certified_by) == (3, 2, None)
        assert not result.certified and result.timed_out and asked == [2]

    def test_without_timeouts_the_probes_equal_the_reference(self, monkeypatch):
        rng = random.Random(12)
        compared = 0
        for case in range(1500):
            hi = rng.randint(0, 40)
            script = TestSearchMatchesReference._scripted(rng, hi)
            ref = TestSearchMatchesReference._run(
                monkeypatch, reference_min_cap_search, script, hi, seed=case)
            if ref[0] == "error" or any(v is Verdict.TIMEOUT for _, v, _ in ref[0]):
                continue
            asked = []

            def bound():
                asked.append(hi)
                return hi

            bounded = functools.partial(driver._min_cap_search, lower_bound=bound)
            new = TestSearchMatchesReference._run(monkeypatch, bounded, script, hi, seed=case)
            assert new == ref, (case, hi)
            assert asked == []
            compared += 1
        assert compared >= 500, compared

    def test_a_zero_bound_replays_the_reference(self, monkeypatch):
        rng = random.Random(13)
        for case in range(1500):
            hi = rng.randint(0, 40)
            script = TestSearchMatchesReference._scripted(rng, hi)
            bounded = functools.partial(driver._min_cap_search, lower_bound=lambda: 0)
            new = TestSearchMatchesReference._run(monkeypatch, bounded, script, hi, seed=case)
            ref = TestSearchMatchesReference._run(
                monkeypatch, reference_min_cap_search, script, hi, seed=case)
            assert new == ref, (case, hi)


class TestPartialSample:
    def test_shortfall_is_logged_and_recorded(self, caplog):
        class UnsatOnOddSeeds:
            """The embedded engine, except that odd seeds answer UNSAT."""

            def solve(self, formula, seed=0, time_budget=60.0):
                from repacker.solver import SolveOutcome, solve

                if seed % 2:
                    return SolveOutcome(Verdict.UNSAT, stats=SolveStats())
                return solve(formula, seed=seed, time_budget=time_budget)

        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        seeds = [derive_seed(5, "sample", i) for i in range(4)]
        expected = sum(1 for s in seeds if s % 2 == 0)
        assert 0 < expected < 4
        with caplog.at_level("WARNING", logger="repacker.driver"):
            ss = sample_solutions(
                inst, 12, count=4, buffer=0, b_star=inst.n, seed=5, retry_factor=1,
                engine=UnsatOnOddSeeds(),
            )
        assert [s.seed for s in ss.samples] == [s for s in seeds if s % 2 == 0]
        assert ss.shortfall == 4 - expected
        assert f"sampled {expected} of 4 requested solutions in 4 attempts" in caplog.text
