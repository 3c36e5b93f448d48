"""Monte Carlo estimation of clearing-success probability.

Each trial draws a participation vector, forms the repack problem whose
must-repack set is the non-participants, and decides feasibility. Three
backends trade cost for completeness:

* ``sat``             — full encode/solve pipeline every trial;
* ``clique-then-sat`` — blocking-clique scan first, solver only when the scan
                        finds nothing (same verdicts, usually much faster);
* ``clique-only``     — scan only; draws without a blocking clique are
                        counted feasible, an explicit approximation.

Timed-out solves count as infeasible under the standing convention but are
tallied separately so the estimate can be read both ways.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cliques import AttributionResult, CliqueCatalog, attribution_fraction, blocking_check, enumerate_cliques_greedy
from .driver import DEFAULT_TIME_BUDGET, check_feasibility
from .instance import Instance, RepackProblem, derive_available_channels
from .instance_io import instance_digest
from .participation import (
    ALPHA_MODEL_KINDS,
    ModelSpec,
    draw_variates,
    sample_from_variates,
)
from .util import derive_seed
from . import parallel

BACKEND_SAT = "sat"
BACKEND_CLIQUE_THEN_SAT = "clique-then-sat"
BACKEND_CLIQUE_ONLY = "clique-only"
BACKENDS = (BACKEND_SAT, BACKEND_CLIQUE_THEN_SAT, BACKEND_CLIQUE_ONLY)

VERDICT_FEASIBLE = "feasible"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_TIMEOUT = "timeout"

DEFAULT_TRIALS = 100


@dataclass(frozen=True)
class TrialReport:
    index: int
    seed: int
    draw_digest: str
    verdict: str
    z: Optional[int] = None
    blocking_cliques: Optional[int] = None
    wall_time: float = 0.0

    @property
    def infeasible(self) -> bool:
        return self.verdict != VERDICT_FEASIBLE

    @property
    def blocked(self) -> bool:
        return self.z is not None

    def to_json_dict(self) -> dict:
        return {
            "type": "trial",
            "index": self.index,
            "seed": self.seed,
            "draw_digest": self.draw_digest,
            "verdict": self.verdict,
            "z": self.z,
            "blocking_cliques": self.blocking_cliques,
        }


@dataclass
class SuccessEstimate:
    """Estimated probability of reaching a clearing target under a model."""

    model: ModelSpec
    target_mhz: int
    use_domain: bool
    backend: str
    trials: list[TrialReport]

    @property
    def trial_count(self) -> int:
        return len(self.trials)

    @property
    def infeasible_count(self) -> int:
        return sum(1 for t in self.trials if t.infeasible)

    @property
    def timeout_count(self) -> int:
        return sum(1 for t in self.trials if t.verdict == VERDICT_TIMEOUT)

    @property
    def p(self) -> float:
        return 1.0 - self.infeasible_count / self.trial_count

    @property
    def stderr(self) -> float:
        p = self.p
        return math.sqrt(p * (1.0 - p) / self.trial_count)

    @property
    def p_excluding_timeouts(self) -> Optional[float]:
        kept = self.trial_count - self.timeout_count
        if kept == 0:
            return None
        return 1.0 - (self.infeasible_count - self.timeout_count) / kept

    @property
    def mean_z_value(self) -> Optional[float]:
        return mean_z(self.trials)

    @property
    def attribution(self) -> AttributionResult:
        # The pure SAT backend never runs the clique scan, so the fraction of
        # clique-attributable infeasibilities is unknown, not zero.
        if self.backend == BACKEND_SAT:
            return AttributionResult(
                fraction=None, blocked_infeasible=0, infeasible=self.infeasible_count
            )
        return attribution_fraction(self.trials)

    def summary_row(self) -> dict:
        attr = self.attribution
        return {
            "model": self.model.kind.value,
            "alpha": self.model.alpha,
            "beta": self.model.beta,
            "gamma": self.model.gamma,
            "target_mhz": self.target_mhz,
            "use_domain": self.use_domain,
            "backend": self.backend,
            "trials": self.trial_count,
            "p": self.p,
            "stderr": self.stderr,
            "timeouts": self.timeout_count,
            "p_excluding_timeouts": self.p_excluding_timeouts,
            "mean_z": self.mean_z_value,
            "attribution_fraction": attr.fraction,
        }

    def save_trials_jsonl(
        self, path: str | os.PathLike, instance: Instance, config_digest: Optional[str] = None
    ) -> None:
        meta = {
            "type": "meta",
            "kind": "trial-set",
            "instance_digest": instance_digest(instance),
            "model": self.model.to_dict(),
            "target_mhz": self.target_mhz,
            "use_domain": self.use_domain,
            "backend": self.backend,
        }
        if config_digest:
            meta["config_digest"] = config_digest
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for t in self.trials:
                fh.write(json.dumps(t.to_json_dict(), sort_keys=True) + "\n")


def load_trial_set(path: str | os.PathLike) -> tuple[dict, list[TrialReport]]:
    """Load a trial-set file: (meta record, trial reports)."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("kind") != "trial-set":
        raise ValueError(f"{path}: not a trial-set file")
    out = []
    for rec in lines[1:]:
        if rec.get("type") != "trial":
            continue
        out.append(
            TrialReport(
                index=int(rec["index"]),
                seed=int(rec["seed"]),
                draw_digest=rec["draw_digest"],
                verdict=rec["verdict"],
                z=rec.get("z"),
                blocking_cliques=rec.get("blocking_cliques"),
            )
        )
    return lines[0], out


def mean_z(trials: Sequence[TrialReport]) -> Optional[float]:
    """Average degree of infeasibility over infeasible trials with blocking
    information; undefined (None) when no trial qualifies."""
    zs = [t.z for t in trials if t.infeasible and t.z is not None]
    if not zs:
        return None
    return sum(zs) / len(zs)


def _run_trial(args) -> TrialReport:
    (
        index, seed, model, instance, target_mhz, use_domain,
        backend, catalog, channel_count, time_budget, engine, caps,
    ) = args
    draw = sample_from_variates(model, instance, draw_variates(instance, seed))
    start = time.monotonic()
    if backend in (BACKEND_CLIQUE_THEN_SAT, BACKEND_CLIQUE_ONLY):
        assert catalog is not None
        report = blocking_check(catalog, draw, channel_count)
        if report.blocked:
            return TrialReport(
                index=index,
                seed=seed,
                draw_digest=draw.digest(),
                verdict=VERDICT_INFEASIBLE,
                z=report.z,
                blocking_cliques=report.clique_count,
                wall_time=time.monotonic() - start,
            )
        if backend == BACKEND_CLIQUE_ONLY:
            return TrialReport(
                index=index,
                seed=seed,
                draw_digest=draw.digest(),
                verdict=VERDICT_FEASIBLE,
                wall_time=time.monotonic() - start,
            )
    problem = RepackProblem(
        instance=instance,
        clearing_target_mhz=target_mhz,
        use_domain_constraints=use_domain,
        must_repack=draw.non_participants(),
        **caps,
    )
    res = check_feasibility(
        problem, seed=derive_seed(seed, "solve"), time_budget=time_budget, engine=engine
    )
    if res.feasible:
        verdict = VERDICT_FEASIBLE
    elif res.infeasible_by_timeout:
        verdict = VERDICT_TIMEOUT
    else:
        verdict = VERDICT_INFEASIBLE
    return TrialReport(
        index=index,
        seed=seed,
        draw_digest=draw.digest(),
        verdict=verdict,
        wall_time=time.monotonic() - start,
    )


def _need_catalog(backend: str, catalog: Optional[CliqueCatalog], instance: Instance, seed: int):
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == BACKEND_SAT:
        return None
    if catalog is None:
        catalog = enumerate_cliques_greedy(instance, seed=derive_seed(seed, "catalog"))
    return catalog


def estimate_success(
    model: ModelSpec,
    instance: Instance,
    target_mhz: int,
    use_domain: bool = True,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    backend: str = BACKEND_SAT,
    catalog: Optional[CliqueCatalog] = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
    workers: int = 1,
    max_cleared_nationwide: Optional[int] = None,
    dma_caps: Optional[Mapping[int, int]] = None,
    max_dmas_with_clearing: Optional[int] = None,
) -> SuccessEstimate:
    """Estimate the success probability over ``trials`` independent draws.

    Per-trial seeds derive from the master seed by index, so results do not
    depend on worker count or scheduling, and the same draws are generated
    regardless of backend.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    catalog = _need_catalog(backend, catalog, instance, seed)
    channel_count = derive_available_channels(target_mhz, instance.universe).count
    caps = {
        "max_cleared_nationwide": max_cleared_nationwide,
        "dma_caps": dma_caps or {},
        "max_dmas_with_clearing": max_dmas_with_clearing,
    }
    tasks = [
        (
            i, derive_seed(seed, "trial", i), model, instance, target_mhz, use_domain,
            backend, catalog, channel_count, time_budget, engine, caps,
        )
        for i in range(trials)
    ]
    reports = parallel.run_tasks(_run_trial, tasks, workers=workers)
    return SuccessEstimate(
        model=model, target_mhz=target_mhz, use_domain=use_domain,
        backend=backend, trials=list(reports),
    )


def shared_randomness_sweep(
    model: ModelSpec,
    alphas: Sequence[float],
    instance: Instance,
    target_mhz: int,
    use_domain: bool = True,
    *,
    trials: int = 1,
    seed: int = 0,
    backend: str = BACKEND_CLIQUE_THEN_SAT,
    catalog: Optional[CliqueCatalog] = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
    workers: int = 1,
) -> list[SuccessEstimate]:
    """Evaluate a rate grid with non-participation choices carried upward.

    Returns one estimate per rate, in grid order. Each is
    :func:`estimate_success` at that rate with the same master seed: trial i
    draws its variates from the same per-index seed whatever the rate, so the
    non-participant sets are nested along the sweep (at the hidden-variable
    level for the affiliate models) and the point at rate a equals the
    single-rate estimate at a. Only the fixed-marginal-rate models support
    this; the revenue model has no single rate to sweep.
    """
    if model.kind not in ALPHA_MODEL_KINDS:
        raise ValueError(f"{model.kind.value} does not define a rate sweep")
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    catalog = _need_catalog(backend, catalog, instance, seed)
    return [
        estimate_success(
            model.with_alpha(alpha), instance, target_mhz, use_domain,
            trials=trials, seed=seed, backend=backend, catalog=catalog,
            time_budget=time_budget, engine=engine, workers=workers,
        )
        for alpha in alphas
    ]
