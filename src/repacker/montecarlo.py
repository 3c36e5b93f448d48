"""Monte Carlo estimation of clearing-success probability.

Each trial draws a participation vector, forms the repack problem whose
must-repack set is the non-participants, and decides feasibility. Every
backend runs the same single trial path, :func:`_run_trial`: a blocking
clique in the catalog proves a draw infeasible without a solver call, and
the backend only chooses an unblocked draw's verdict:

* ``clique-then-sat`` — the default, exact: the solver decides the draw;
* ``clique-only``     — the draw counts feasible, an explicit approximation;
* ``sat``             — the scan-free reference the acceptance suite compares
                        against: its catalog is empty, so the solver decides
                        every draw. The CLI does not offer it.

Timed-out solves count as infeasible under the standing convention but are
tallied separately so the estimate can be read both ways. Each estimate also
reports what the clique scan explains: the mean degree of infeasibility ``z``
and the share of infeasible trials a blocking clique accounts for.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .cliques import CliqueCatalog, blocking_check, enumerate_cliques_greedy
from .driver import DEFAULT_TIME_BUDGET, check_feasibility
from .instance import Instance, RepackProblem, derive_available_channels
from .instance_io import load_artifact, save_artifact
from .participation import (
    ALPHA_MODEL_KINDS,
    ModelSpec,
    draw_variates,
    sample_from_variates,
)
from .solver import Verdict
from .util import derive_seed
from . import parallel

BACKEND_SAT = "sat"
BACKEND_CLIQUE_THEN_SAT = "clique-then-sat"
BACKEND_CLIQUE_ONLY = "clique-only"
BACKENDS = (BACKEND_SAT, BACKEND_CLIQUE_THEN_SAT, BACKEND_CLIQUE_ONLY)
DEFAULT_BACKEND = BACKEND_CLIQUE_THEN_SAT

VERDICT_FEASIBLE = "feasible"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_TIMEOUT = "timeout"

#: The trial verdict for each solver verdict.
_TRIAL_VERDICT = {
    Verdict.SAT: VERDICT_FEASIBLE,
    Verdict.UNSAT: VERDICT_INFEASIBLE,
    Verdict.TIMEOUT: VERDICT_TIMEOUT,
}

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
    def mean_z(self) -> Optional[float]:
        """Average degree of infeasibility over the clique-blocked trials;
        undefined (None) when no trial was blocked."""
        zs = [t.z for t in self.trials if t.infeasible and t.z is not None]
        if not zs:
            return None
        return sum(zs) / len(zs)

    @property
    def attribution_fraction(self) -> Optional[float]:
        """Share of infeasible trials that a blocking clique accounts for.

        Undefined (None) when no trial is infeasible, and for the ``sat``
        reference backend, whose empty catalog blocks no draw: there the
        share is unknown, not zero.
        """
        infeasible = [t for t in self.trials if t.infeasible]
        if self.backend == BACKEND_SAT or not infeasible:
            return None
        return sum(1 for t in infeasible if t.blocked) / len(infeasible)

    def summary_row(self) -> dict:
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
            "mean_z": self.mean_z,
            "attribution_fraction": self.attribution_fraction,
        }

    def save_trials_jsonl(
        self, path: str | os.PathLike, instance: Instance, config_digest: Optional[str] = None
    ) -> None:
        meta = {
            "model": self.model.to_dict(),
            "target_mhz": self.target_mhz,
            "use_domain": self.use_domain,
            "backend": self.backend,
        }
        records = (t.to_json_dict() for t in self.trials)
        save_artifact(path, "trial-set", instance, meta, records, config_digest)


def _known(value: str, allowed: Collection[str], what: str) -> str:
    if value not in allowed:
        raise ValueError(f"unknown {what} {value!r}; expected one of {tuple(allowed)}")
    return value


def _meta_fields(meta: dict) -> dict:
    return {
        "model": ModelSpec.from_dict(meta["model"]),
        "target_mhz": meta["target_mhz"],
        "use_domain": meta["use_domain"],
        "backend": _known(meta["backend"], BACKENDS, "backend"),
    }


def _trial_from(rec: dict) -> TrialReport:
    return TrialReport(
        index=int(rec["index"]),
        seed=int(rec["seed"]),
        draw_digest=rec["draw_digest"],
        verdict=_known(rec["verdict"], _TRIAL_VERDICT.values(), "verdict"),
        z=rec.get("z"),
        blocking_cliques=rec.get("blocking_cliques"),
    )


def load_trial_set(path: str | os.PathLike, instance: Instance) -> SuccessEstimate:
    """Load a trial-set file run on ``instance``, as written by
    :meth:`SuccessEstimate.save_trials_jsonl`."""
    head, trials = load_artifact(path, "trial-set", instance, "trial", _meta_fields, _trial_from)
    return SuccessEstimate(**head, trials=trials)


def _run_trial(context, task: tuple[int, int]) -> TrialReport:
    (
        model, instance, target_mhz, use_domain,
        backend, catalog, channel_count, time_budget, engine,
    ) = context
    index, seed = task
    draw = sample_from_variates(model, instance, draw_variates(instance, seed))
    start = time.monotonic()
    non_participants = draw.non_participants()
    scan = blocking_check(catalog, non_participants, channel_count)
    z = blocking_cliques = None
    if scan.blocked:
        verdict, z, blocking_cliques = VERDICT_INFEASIBLE, scan.z, scan.clique_count
    elif backend == BACKEND_CLIQUE_ONLY:
        verdict = VERDICT_FEASIBLE
    else:
        problem = RepackProblem(
            instance=instance,
            clearing_target_mhz=target_mhz,
            use_domain_constraints=use_domain,
            must_repack=non_participants,
        )
        res = check_feasibility(
            problem, seed=derive_seed(seed, "solve"), time_budget=time_budget, engine=engine
        )
        verdict = _TRIAL_VERDICT[res.verdict]
    return TrialReport(
        index=index,
        seed=seed,
        draw_digest=draw.digest(),
        verdict=verdict,
        z=z,
        blocking_cliques=blocking_cliques,
        wall_time=time.monotonic() - start,
    )


def _need_catalog(backend: str, catalog: Optional[CliqueCatalog], instance: Instance, seed: int):
    if _known(backend, BACKENDS, "backend") == BACKEND_SAT:
        return CliqueCatalog(())
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
    backend: str = DEFAULT_BACKEND,
    catalog: Optional[CliqueCatalog] = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
    workers: int = 1,
) -> SuccessEstimate:
    """Estimate the success probability over ``trials`` independent draws.

    Per-trial seeds derive from the master seed by index, so results do not
    depend on worker count or scheduling, and the same draws are generated
    regardless of backend.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    catalog = _need_catalog(backend, catalog, instance, seed)
    # Reserved channels inside the retained band cannot hold a station.
    channel_count = len(derive_available_channels(target_mhz, instance.universe).assignable)
    # Shipped to each worker once; a task is just (index, seed).
    context = (
        model, instance, target_mhz, use_domain,
        backend, catalog, channel_count, time_budget, engine,
    )
    tasks = [(i, derive_seed(seed, "trial", i)) for i in range(trials)]
    reports = parallel.run_tasks(_run_trial, tasks, workers=workers, context=context)
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
    backend: str = DEFAULT_BACKEND,
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
