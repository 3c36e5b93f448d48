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
from typing import Optional, Sequence

from .cliques import CliqueCatalog, CliqueError, _verify_cliques, blocking_check, default_catalog
from .driver import DEFAULT_TIME_BUDGET, check_feasibility
from .instance import Instance, RepackProblem, derive_available_channels
from .instance_io import load_artifact, save_artifact
from .participation import (
    ALPHA_MODEL_KINDS,
    ModelSpec,
    draw_variates,
    sample_from_variates,
)
from .solver import Verdict, _check_time_budget
from .util import derive_seed, json_field
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


def _meta_fields(meta: dict) -> dict:
    return {
        "model": ModelSpec.from_dict(meta["model"]),
        "target_mhz": json_field(meta["target_mhz"], int, "target_mhz"),
        "use_domain": json_field(meta["use_domain"], bool, "use_domain"),
        "backend": json_field(meta["backend"], str, "backend", one_of=BACKENDS),
    }


def _trial_from(_meta: dict, rec: dict) -> TrialReport:
    return TrialReport(
        index=json_field(rec["index"], int, "index"),
        seed=json_field(rec["seed"], int, "seed"),
        draw_digest=json_field(rec["draw_digest"], str, "draw_digest"),
        verdict=json_field(rec["verdict"], str, "verdict", one_of=_TRIAL_VERDICT.values()),
        z=json_field(rec["z"], int, "z", nullable=True),
        blocking_cliques=json_field(rec["blocking_cliques"], int, "blocking_cliques", nullable=True),
    )


def load_trial_set(path: str | os.PathLike, instance: Instance) -> SuccessEstimate:
    """Load a trial-set file run on ``instance``, as written by
    :meth:`SuccessEstimate.save_trials_jsonl`."""
    head, trials = load_artifact(
        path, "trial-set", instance, "trial", _meta_fields, _trial_from, key=lambda t: t.index
    )
    return SuccessEstimate(**head, trials=trials)


def _run_trial(context, task) -> TrialReport:
    instance, catalog, engine = context
    index, seed, (model, target_mhz, use_domain, backend, channel_count, time_budget) = task
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


# One object, so that successive estimates with the scan-free backend share
# a context (see parallel.run_tasks).
_EMPTY_CATALOG = CliqueCatalog(())


def _estimates(
    models: Sequence[ModelSpec], instance: Instance, target_mhz: int, use_domain: bool, *,
    trials: int, seed: int, backend: str, catalog: Optional[CliqueCatalog],
    time_budget: float, engine, workers: int,
) -> list[SuccessEstimate]:
    """One estimate per model, in order, over the same per-index trial seeds.
    Every argument is checked and the catalog resolved once, before any trial."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # Before any trial: a clique-blocked draw never reaches the solver's check.
    _check_time_budget(time_budget)
    parallel.check_workers(workers)
    if json_field(backend, str, "backend", one_of=BACKENDS) == BACKEND_SAT:
        catalog = _EMPTY_CATALOG
    elif catalog is None:
        catalog = default_catalog(instance, seed)
    else:
        # A clique of another instance's stations would block feasible draws.
        index = instance.station_index
        unknown = set().union(*catalog.cliques).difference(index)
        if unknown:
            raise CliqueError(f"catalog names unknown station {min(unknown)!r}")
        _verify_cliques((sum(1 << index[sid] for sid in c) for c in catalog.cliques), instance)
    # Reserved channels inside the retained band cannot hold a station.
    channel_count = len(derive_available_channels(target_mhz, instance.universe).assignable)
    # The instance, catalog and engine reach each worker once and keep its pool
    # for later estimates; a task is (index, seed) and its estimate's settings.
    context = (instance, catalog, engine)
    estimates = []
    for model in models:
        settings = (model, target_mhz, use_domain, backend, channel_count, time_budget)
        tasks = [(i, derive_seed(seed, "trial", i), settings) for i in range(trials)]
        reports = parallel.run_tasks(_run_trial, tasks, workers=workers, context=context)
        estimates.append(SuccessEstimate(model, target_mhz, use_domain, backend, list(reports)))
    return estimates


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
    regardless of backend. With ``workers > 1``, successive calls on one
    instance and catalog run in the same warm worker processes.
    """
    return _estimates(
        [model], instance, target_mhz, use_domain, trials=trials, seed=seed, backend=backend,
        catalog=catalog, time_budget=time_budget, engine=engine, workers=workers,
    )[0]


def shared_randomness_sweep(
    model: ModelSpec,
    alphas: Sequence[float],
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
) -> list[SuccessEstimate]:
    """Evaluate a rate grid with non-participation choices carried upward.

    Returns one estimate per rate, in grid order. Each is
    :func:`estimate_success` at that rate with the same master seed: trial i
    draws its variates from the same per-index seed whatever the rate, so the
    non-participant sets are nested along the sweep (at the hidden-variable
    level for the affiliate models) and the point at rate a equals the
    single-rate estimate at a. Only the fixed-marginal-rate models support
    this; the revenue model has no single rate to sweep. Every point is
    checked, and the catalog resolved once, before any trial.
    """
    if model.kind not in ALPHA_MODEL_KINDS:
        raise ValueError(f"{model.kind.value} does not define a rate sweep")
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    return _estimates(
        [model.with_alpha(alpha) for alpha in alphas], instance, target_mhz, use_domain,
        trials=trials, seed=seed, backend=backend, catalog=catalog,
        time_budget=time_budget, engine=engine, workers=workers,
    )
