"""The three benchmark workloads, driven through the public ``repacker`` API.

Each workload runs the calls the CLI makes, on inputs the benchmark
generates and saves as CSV directories; the package only sees those files.
A *pass* is one complete, fixed unit of the workload's work. Instances,
Monte Carlo draws and solver seeds are fixed, so every pass does the same
work and its verdicts can be checked against the digests recorded in
``golden.json``; the benchmark's ``--seed`` sets the order in which a pass
runs its independent stages. Seeding the draws instead would let a single
pigeonhole-hard trial (6 s of a 16 s pass) come and go between seeds.

Why each workload was chosen:

* ``mc-congested``: the inputs of ``test_threshold_shape``. Near alpha=0.5
  the feasible draws are pigeonhole-hard small formulas, so solver search
  and the trial tail dominate while encoding and the clique scan cost
  almost nothing. 100 trials per point (the first half of the test's 200)
  keep its heaviest trial, alpha=0.5 index 84.
* ``pipeline-medium``: min-clear, min-dmas, sampling and the ``stats``
  tables at n=600. The encoder and solver are used three ways: huge
  sequential-counter formulas at high caps, one UNSAT refutation, and many
  SAT solves of one formula. A pigeonhole-hard min-clear with a 3 s budget
  keeps the known timeout defect of the minimum searches in the failure
  count at a bounded cost.
* ``mc-fcc``: an FCC-sized geometric instance (see ``geometric.py``) at
  84 MHz with two worker processes. At alpha=0.3 every draw reaches the
  solver with ~900k clauses, so encoding and engine construction dominate;
  at alpha=0.8 the 800-clique catalog blocks every draw, so the scan and
  the per-task shipping of the instance to workers dominate.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repacker
from repacker import (
    BACKEND_CLIQUE_THEN_SAT,
    ModelSpec,
    derive_available_channels,
    enumerate_cliques_greedy,
    estimate_success,
    generate_synthetic,
    load_instance,
    min_dmas_with_clearing,
    min_nationwide_clearings,
    sample_solutions,
    save_instance,
    validate_assignment,
)
from repacker.util import derive_seed

from geometric import generate_geometric

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _verdict_digest(alpha: float, trials) -> str:
    text = "\n".join(f"{alpha}:{t.index}:{t.verdict}" for t in trials)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it: (percentile, value)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Pass:
    """What one pass did: timings, operation counts and check failures."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    trial_walls: list[float] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class MonteCarlo:
    """``estimate_success`` over fixed points with ``clique-then-sat``."""

    def __init__(self, name, make_instance, target_mhz, points, workers):
        self.name = name
        self.make_instance = make_instance
        self.target_mhz = target_mhz
        self.points = points  # (alpha, master seed, trials)
        self.workers = workers

    def generate(self, workdir: Path) -> None:
        save_instance(self.make_instance(), workdir / "main")

    def setup(self, workdir: Path, tracer=None) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        with _span(tracer, "instance_io.load_instance"):
            instance = load_instance(workdir / "main")
        t1 = time.perf_counter()
        with _span(tracer, "cliques.enumerate_cliques_greedy"):
            catalog = enumerate_cliques_greedy(instance, seed=3)
        t2 = time.perf_counter()
        plan = derive_available_channels(self.target_mhz, instance.universe)
        info = {
            "load_s": t1 - t0, "catalog_s": t2 - t1, "catalog_size": len(catalog),
            "largest": catalog.largest(), "stations": instance.n,
            "constraints": len(instance.interference), "assignable": len(plan.assignable),
        }
        return {"instance": instance, "catalog": catalog}, info

    def check_setup(self, info: dict) -> list[str]:
        # Without a clique larger than the band the clique path never fires.
        if info["largest"] <= info["assignable"]:
            return [f"largest clique {info['largest']} does not exceed "
                    f"{info['assignable']} assignable channels"]
        return []

    def units(self) -> list:
        return list(self.points)

    def run_pass(self, inputs, order, *, workers, engine=None, tracer=None) -> Pass:
        p = Pass()
        golden = GOLDEN[self.name]["verdicts"]
        for alpha, seed, trials in order:
            if tracer:
                tracer.set_stage(f"alpha={alpha}")
            start = time.perf_counter()
            with _span(tracer, "montecarlo.estimate_success"):
                est = estimate_success(
                    ModelSpec.random_broadcasters(alpha), inputs["instance"], self.target_mhz,
                    trials=trials, seed=seed, backend=BACKEND_CLIQUE_THEN_SAT,
                    catalog=inputs["catalog"], engine=engine, workers=workers,
                )
            p.stage_s[f"alpha={alpha}"] = time.perf_counter() - start
            p.wall += p.stage_s[f"alpha={alpha}"]
            p.attempted += est.trial_count
            p.failed += est.timeout_count
            p.trial_walls += [t.wall_time for t in est.trials]
            p.counts["sat_path"] = p.counts.get("sat_path", 0) + sum(
                1 for t in est.trials if not t.blocked)
            p.counts["blocked"] = p.counts.get("blocked", 0) + sum(
                1 for t in est.trials if t.blocked)
            digest = _verdict_digest(alpha, est.trials)
            p.digests[f"alpha={alpha}"] = digest
            if golden.get(str(alpha)) != digest:
                p.errors.append(f"alpha={alpha}: verdict digest {digest}, "
                                f"recorded {golden.get(str(alpha))}")
        return p

    def report(self, passes: list[Pass]) -> dict:
        n = len(passes[0].trial_walls)
        tails = [tail(p.trial_walls) for p in passes]
        return {
            "trials_per_s": statistics.median(p.attempted / p.wall for p in passes),
            "trial_p50_ms": 1000 * statistics.median(
                statistics.median(p.trial_walls) for p in passes),
            "trial_tail_ms": 1000 * statistics.median(v for _, v in tails),
            "trial_tail": {"percentile": tails[0][0], "trials": n},
        }

    def layer_report(self, p: Pass, inputs, workers: int) -> dict:
        trials = p.attempted
        return {
            "montecarlo.trials": trials,
            "montecarlo.sat_path_frac": p.counts["sat_path"] / trials,
            "montecarlo.timeouts": p.failed,
            "montecarlo.trial_max_ms": 1000 * max(p.trial_walls),
            "parallel.tasks": trials,
            # Computed, not measured: what run_tasks pickles into each task.
            "parallel.task_kb": len(pickle.dumps((inputs["instance"], inputs["catalog"]))) / 1024,
            "parallel.busy_frac": sum(p.trial_walls) / (workers * p.wall),
        }


class Pipeline:
    """min-clear, min-dmas, sample and the ``stats`` tables, with CLI defaults."""

    name = "pipeline-medium"
    workers = 1
    TARGET = 30
    HARD_TARGET = 48
    HARD_BUDGET = 3.0
    SAMPLES = 30
    BUFFER = 10

    def generate(self, workdir: Path) -> None:
        save_instance(generate_synthetic(600, channel_count=10, co_density=0.015,
                                         planted_clique=7, planted_clique_dma=1, seed=7),
                      workdir / "main")
        save_instance(generate_synthetic(100, channel_count=16, co_density=0.09,
                                         planted_clique=10, planted_clique_dma=1, seed=7),
                      workdir / "hard")

    def setup(self, workdir: Path, tracer=None) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        with _span(tracer, "instance_io.load_instance"):
            main = load_instance(workdir / "main")
        with _span(tracer, "instance_io.load_instance"):
            hard = load_instance(workdir / "hard")
        info = {"load_s": time.perf_counter() - t0, "catalog_s": 0.0, "catalog_size": 0,
                "largest": 0, "stations": main.n + hard.n,
                "constraints": len(main.interference) + len(hard.interference)}
        return {"main": main, "hard": hard}, info

    def check_setup(self, info: dict) -> list[str]:
        return []

    def units(self) -> list:
        return ["min-clear", "min-dmas", "hard-min-clear"]

    def run_pass(self, inputs, order, *, workers, engine=None, tracer=None) -> Pass:
        p = Pass()
        main, hard = inputs["main"], inputs["hard"]
        calls = {
            "min-clear": ("driver.min_nationwide_clearings",
                          lambda: min_nationwide_clearings(main, self.TARGET, engine=engine)),
            "min-dmas": ("driver.min_dmas_with_clearing",
                         lambda: min_dmas_with_clearing(main, self.TARGET, engine=engine)),
            "hard-min-clear": ("driver.min_nationwide_clearings",
                               lambda: min_nationwide_clearings(
                                   hard, self.HARD_TARGET, time_budget=self.HARD_BUDGET,
                                   engine=engine)),
        }
        results = {}
        for stage in order + ["sample", "stats"]:
            if tracer:
                tracer.set_stage(stage)
            start = time.perf_counter()
            if stage in calls:
                span_name, call = calls[stage]
                with _span(tracer, span_name):
                    results[stage] = res = call()
                timeouts = sum(1 for pr in res.probes if pr.verdict.value == "timeout")
                p.attempted += len(res.probes)
                p.failed += timeouts
                p.counts["probes"] = p.counts.get("probes", 0) + len(res.probes)
                p.counts["probe_timeouts"] = p.counts.get("probe_timeouts", 0) + timeouts
            elif stage == "sample":
                with _span(tracer, "driver.sample_solutions"):
                    results[stage] = samples = sample_solutions(
                        main, self.TARGET, count=self.SAMPLES, buffer=self.BUFFER,
                        b_star=results["min-clear"].value, workers=workers, engine=engine)
                attempts = self._attempts(samples)
                p.attempted += attempts
                p.failed += attempts - len(samples.samples)
                p.counts["sample_attempts"] = attempts
            else:
                self._stats(results["sample"])
            p.stage_s[stage] = time.perf_counter() - start
            p.wall += p.stage_s[stage]
        p.errors += self._check(results)
        return p

    def _attempts(self, samples) -> int:
        """Attempts ``sample_solutions`` made, recovered from the samples' seeds.

        Attempt k uses ``derive_seed(0, "sample", k)``. When the requested
        count is met the last attempt succeeded, so the highest successful k
        gives the count; a shortfall fails the checks anyway.
        """
        index = {derive_seed(0, "sample", k): k for k in range(3 * self.SAMPLES)}
        return 1 + max(index[s.seed] for s in samples.samples)

    @staticmethod
    def _stats(sample_set) -> None:
        analytics = repacker.analytics
        analytics.dma_stats(sample_set)
        analytics.missing_mass(sample_set)
        analytics.broadcaster_frequencies(sample_set)
        analytics.diversity_report(sample_set)
        analytics.dma_correlations(sample_set, min_mean=2.0, p_threshold=0.01)

    def _check(self, results) -> list[str]:
        errors = []
        golden = GOLDEN[self.name]
        mc, md, hard = results["min-clear"], results["min-dmas"], results["hard-min-clear"]
        if (mc.value, mc.certified) != (2, True):
            errors.append(f"min-clear gave {mc.value} certified={mc.certified}, expected 2 certified")
        if (md.value, md.certified) != (golden["min_dmas"], True):
            errors.append(f"min-dmas gave {md.value} certified={md.certified}, "
                          f"expected {golden['min_dmas']} certified")
        if hard.value != 2:
            errors.append(f"hard min-clear gave {hard.value}, expected 2")
        ss = results["sample"]
        if len(ss.samples) != self.SAMPLES:
            errors.append(f"sampled {len(ss.samples)} of {self.SAMPLES}")
        for s in ss.samples:
            if validate_assignment(ss.problem, s.assignment):
                errors.append(f"sample seed {s.seed} violates the problem")
            if len(s.assignment.cleared_set()) > ss.cap:
                errors.append(f"sample seed {s.seed} clears more than the cap {ss.cap}")
        return errors

    def report(self, passes: list[Pass]) -> dict:
        return {
            "minimum_s": statistics.median(
                p.stage_s["min-clear"] + p.stage_s["min-dmas"] for p in passes),
            "samples_per_s": statistics.median(
                self.SAMPLES / p.stage_s["sample"] for p in passes),
        }

    def layer_report(self, p: Pass, inputs, workers: int) -> dict:
        return {
            "montecarlo.trials": 0,
            "montecarlo.sat_path_frac": 0.0,
            "montecarlo.timeouts": 0,
            "montecarlo.trial_max_ms": 0.0,
            "parallel.tasks": p.counts["sample_attempts"],
            # Computed, not measured: each sampling task pickles the instance.
            "parallel.task_kb": len(pickle.dumps(inputs["main"])) / 1024,
            "parallel.busy_frac": 0.0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo(
            "mc-congested",
            lambda: generate_synthetic(30, channel_count=12, co_density=0.03, planted_clique=20,
                                       planted_clique_dma=1, seed=2718),
            target_mhz=18,
            points=[(alpha, 1000 + i, 100)
                    for i, alpha in enumerate((0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))],
            workers=1,
        ),
        Pipeline(),
        MonteCarlo("mc-fcc", lambda: generate_geometric(seed=3), target_mhz=84,
                   points=[(0.3, 1, 4), (0.8, 2, 100)], workers=2),
    )
}
