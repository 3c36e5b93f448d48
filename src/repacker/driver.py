"""Feasibility checks, minimum-clearing searches, and solution sampling.

Every minimum search runs through one loop, :func:`_min_cap_search`, which
bisects over the cap. A timed-out probe is never taken as infeasibility
evidence by itself. The first timeout makes the search build the instance's
clique catalog and raise its lower end to the catalog's bound for that
search: a timed-out cap below the bound is infeasible by the cliques, and
bisection goes on. A timeout at or above the bound makes the search walk
down one cap at a time, never below the bound, and a second such timeout
ends it. A minimum is certified by an UNSAT probe one cap below it or by a
clique bound equal to it; otherwise it is reported as an upper bound.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .cliques import clearing_lower_bound, default_catalog, dma_lower_bound
from .encoder import decode, encode
from .instance import ChannelAssignment, Instance, RepackProblem, validate_assignment
from .instance_io import load_artifact, save_artifact
from .solver import DEFAULT_TIME_BUDGET, EmbeddedSolver, SolveStats, Verdict, _check_time_budget
from .util import derive_seed, gc_paused, json_field
from . import parallel

log = logging.getLogger(__name__)

DEFAULT_BUFFER = 10
DEFAULT_SLACK = 0.05


class SearchError(RuntimeError):
    """A minimum search could not establish its base case."""


class SamplingError(RuntimeError):
    """Sampling could not produce any solution within its retry budget."""


@dataclass
class FeasibilityResult:
    verdict: Verdict
    assignment: Optional[ChannelAssignment]
    stats: SolveStats
    seed: int

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.SAT

    @property
    def infeasible_by_timeout(self) -> bool:
        return self.verdict is Verdict.TIMEOUT


def check_feasibility(
    problem: RepackProblem,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
) -> FeasibilityResult:
    """Encode, solve, and decode one problem.

    A satisfiable outcome returns the decoded assignment after it has been
    re-validated against the problem; any validator complaint indicates an
    encoder bug and raises.

    The cyclic garbage collector stays paused from ``encode`` until the
    result is built, and only here: ``encode`` and ``solve`` run with their
    caller's setting. What a draw allocates (the encoder's base on its first
    draw, the formula's own clauses, the engine, the model and the
    assignment) holds no reference cycles, so reference counting frees it
    without a collection traversing it first.
    """
    engine = engine or EmbeddedSolver()
    with gc_paused():
        formula = encode(problem)
        outcome = engine.solve(formula, seed=seed, time_budget=time_budget)
        assignment = None
        if outcome.is_sat:
            assert outcome.model is not None
            assignment = decode(formula, outcome.model)
            violations = validate_assignment(problem, assignment)
            if violations:
                raise RuntimeError(f"decoded assignment violates the problem: {violations[:3]}")
        del formula
        return FeasibilityResult(outcome.verdict, assignment, outcome.stats, seed)


@dataclass
class ProbeRecord:
    cap: int
    verdict: Verdict
    seed: int


@dataclass
class MinSearchResult:
    """Smallest feasible cap plus the evidence gathered along the way.

    ``value`` was probed feasible. ``certified_by`` names what proves that no
    smaller cap is: ``"unsat-probe"`` when a probe at ``value - 1`` came back
    UNSAT (or ``value`` is 0), ``"clique-bound"`` when ``lower_bound`` equals
    ``value``, and ``None`` when nothing does, so ``value`` is only an upper
    bound. ``lower_bound`` is the clique bound the search computed at its
    first timeout (``None`` when no probe timed out); ``timed_out`` says that
    some probe timed out.
    """

    value: int
    witness: ChannelAssignment
    probes: list[ProbeRecord] = field(default_factory=list)
    timed_out: bool = False
    lower_bound: Optional[int] = None

    @property
    def certified_by(self) -> Optional[str]:
        if not any(p.cap == self.value and p.verdict is Verdict.SAT for p in self.probes):
            return None
        if self.value == 0 or any(
            p.cap == self.value - 1 and p.verdict is Verdict.UNSAT for p in self.probes
        ):
            return "unsat-probe"
        if self.lower_bound == self.value:
            return "clique-bound"
        return None

    @property
    def certified(self) -> bool:
        return self.certified_by is not None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "certified": self.certified,
            "certified_by": self.certified_by,
            "lower_bound": self.lower_bound,
            "timed_out": self.timed_out,
            "probes": [
                {"cap": p.cap, "verdict": p.verdict.value, "seed": p.seed} for p in self.probes
            ],
        }


def _min_cap_search(
    make_problem: Callable[[int], RepackProblem],
    hi: int,
    *,
    seed: int,
    time_budget: float,
    engine,
    what: str,
    lower_bound: Optional[Callable[[], int]] = None,
) -> MinSearchResult:
    """Find the smallest cap in [0, hi] whose problem is feasible.

    One loop narrows ``lo < high``, where ``high`` is the smallest cap seen
    feasible and every cap below ``lo`` is proven infeasible. It bisects until
    a probe times out. A timeout alone is never trusted as infeasibility
    evidence: the first one calls ``lower_bound`` (when given) and raises
    ``lo`` to its value, which settles a timed-out cap below it with no
    re-probe. A timeout at or above ``lo`` switches the loop to walking down
    one cap at a time from ``high`` (a timed-out cap is re-probed with a
    fresh seed), and a second such timeout ends the search, leaving ``high``
    as an upper bound rather than a certified minimum.
    """
    _check_time_budget(time_budget)  # before the first encode
    probes: list[ProbeRecord] = []
    attempts: dict[int, int] = {}

    def probe(cap: int) -> FeasibilityResult:
        attempt = attempts.get(cap, 0)
        attempts[cap] = attempt + 1
        res = check_feasibility(
            make_problem(cap), seed=derive_seed(seed, "probe", cap, attempt),
            time_budget=time_budget, engine=engine,
        )
        probes.append(ProbeRecord(cap, res.verdict, res.seed))
        log.debug("%s: cap=%d -> %s", what, cap, res.verdict.value)
        return res

    best = probe(hi)
    if not best.feasible:
        detail = "timed out" if best.infeasible_by_timeout else "is infeasible"
        raise SearchError(
            f"{what}: the base case with cap {hi} {detail}; the target cannot be certified"
        )
    timed_out = walking = False
    bound = None
    lo, high = 0, hi
    while lo < high:
        cap = high - 1 if walking else (lo + high) // 2
        res = probe(cap)
        if res.feasible:
            high, best = cap, res
        elif not res.infeasible_by_timeout:
            lo = cap + 1
        else:
            if not timed_out and lower_bound is not None:
                bound = lower_bound()
                lo = max(lo, bound)
            timed_out = True
            if cap < lo:  # the bound settles it
                continue
            if walking:
                break
            walking = True

    assert best.assignment is not None
    return MinSearchResult(
        value=high, witness=best.assignment, probes=probes, timed_out=timed_out,
        lower_bound=bound,
    )


def min_nationwide_clearings(
    instance: Instance,
    target_mhz: int,
    use_domain: bool = True,
    *,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
) -> MinSearchResult:
    """Smallest number of stations that must be cleared to reach the target."""
    base = RepackProblem(instance, target_mhz, use_domain)
    c = len(base.channel_plan.assignable)
    return _min_cap_search(
        lambda cap: replace(base, max_cleared_nationwide=cap), instance.n,
        seed=seed, time_budget=time_budget, engine=engine,
        what=f"min-clearings@{target_mhz}MHz",
        lower_bound=lambda: clearing_lower_bound(default_catalog(instance, seed), c),
    )


def min_dmas_with_clearing(
    instance: Instance,
    target_mhz: int,
    use_domain: bool = True,
    *,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
) -> MinSearchResult:
    """Smallest number of DMAs in which any clearing occurs."""
    base = RepackProblem(instance, target_mhz, use_domain)
    c = len(base.channel_plan.assignable)
    return _min_cap_search(
        lambda cap: replace(base, max_dmas_with_clearing=cap), len(instance.dmas),
        seed=seed, time_budget=time_budget, engine=engine,
        what=f"min-dmas@{target_mhz}MHz",
        lower_bound=lambda: dma_lower_bound(default_catalog(instance, seed), c, instance),
    )


def _b_star(
    instance: Instance, target_mhz: int, use_domain: bool, b_star: Optional[int],
    seed: int, time_budget: float, engine,
) -> int:
    """``b_star`` when given (``ValueError`` if negative, before any probe),
    else the nationwide minimum, searched with its own derived seed."""
    if b_star is not None:
        if b_star < 0:
            raise ValueError("b_star must be non-negative")
        return b_star
    return min_nationwide_clearings(
        instance, target_mhz, use_domain,
        seed=derive_seed(seed, "b-star"), time_budget=time_budget, engine=engine,
    ).value


def min_dma_clearings_isolated(
    instance: Instance,
    target_mhz: int,
    dma_id: int,
    *,
    use_domain: bool = True,
    b_star: Optional[int] = None,
    slack: float = DEFAULT_SLACK,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
    engine=None,
) -> MinSearchResult:
    """Smallest clearing count for one DMA, holding nationwide near-minimal.

    The nationwide cap is the minimum plus a relative, non-negative slack
    (``ValueError`` otherwise, before any probe). Per-DMA minima
    found this way are generally not achievable simultaneously across DMAs;
    each is a statement about that DMA in isolation.
    """
    if dma_id not in instance.dmas:
        raise ValueError(f"unknown DMA {dma_id}")
    if not slack >= 0:
        raise ValueError("slack must be non-negative")
    b_star = _b_star(instance, target_mhz, use_domain, b_star, seed, time_budget, engine)
    # Exact in the slack's decimal value: float ceil(50 * 1.1) would give 56.
    nationwide_cap = b_star + math.ceil(b_star * Fraction(str(slack)))
    base = RepackProblem(instance, target_mhz, use_domain, max_cleared_nationwide=nationwide_cap)
    c = len(base.channel_plan.assignable)
    members = frozenset(instance.dma_members[dma_id])
    return _min_cap_search(
        lambda cap: replace(base, dma_caps={dma_id: cap}), len(members),
        seed=seed, time_budget=time_budget, engine=engine,
        what=f"min-dma-{dma_id}@{target_mhz}MHz",
        lower_bound=lambda: clearing_lower_bound(default_catalog(instance, seed), c, within=members),
    )


@dataclass
class Sample:
    seed: int
    assignment: ChannelAssignment
    stats: Optional[SolveStats] = None


@dataclass
class SampleSet:
    """Solutions drawn by re-solving one capped problem with fresh seeds."""

    problem: RepackProblem
    samples: list[Sample]
    buffer: int = 0
    b_star: Optional[int] = None
    requested: Optional[int] = None

    @property
    def cap(self) -> Optional[int]:
        return self.problem.max_cleared_nationwide

    @property
    def shortfall(self) -> int:
        if self.requested is None:
            return 0
        return max(0, self.requested - len(self.samples))

    def save_jsonl(self, path: str | os.PathLike, config_digest: Optional[str] = None) -> None:
        meta = {
            "target_mhz": self.problem.clearing_target_mhz,
            "use_domain": self.problem.use_domain_constraints,
            "cap": self.cap,
            "b_star": self.b_star,
            "buffer": self.buffer,
            "requested": self.requested,
        }
        records = []
        for s in self.samples:
            record = {"type": "sample", "seed": s.seed, "assignment": s.assignment.to_json_dict()}
            if s.stats is not None:
                record["stats"] = s.stats.to_json_dict()
            records.append(record)
        save_artifact(path, "sample-set", self.problem.instance, meta, records, config_digest)

    @classmethod
    def load_jsonl(cls, path: str | os.PathLike, instance: Instance) -> "SampleSet":
        """Every sample must pass :func:`validate_assignment` against the file's problem."""

        def fields(meta: dict) -> dict:
            cap = json_field(meta["cap"], int, "cap", nullable=True)
            buffer = json_field(meta["buffer"], int, "buffer")
            b_star = json_field(meta["b_star"], int, "b_star", nullable=True)
            requested = json_field(meta["requested"], int, "requested", nullable=True)
            # What sample_solutions writes: cap = b_star + buffer, both non-negative.
            if buffer < 0:
                raise ValueError(f"buffer must be non-negative, got {buffer}")
            if b_star is not None and (b_star < 0 or cap != b_star + buffer):
                raise ValueError(f"b_star must equal cap - buffer and be non-negative, got {b_star}")
            if requested is not None and requested < 1:
                raise ValueError(f"requested must be at least 1, got {requested}")
            problem = RepackProblem(
                instance=instance,
                clearing_target_mhz=json_field(meta["target_mhz"], int, "target_mhz"),
                use_domain_constraints=json_field(meta["use_domain"], bool, "use_domain"),
                max_cleared_nationwide=cap,
            )
            return dict(problem=problem, buffer=buffer, b_star=b_star, requested=requested)

        def sample(head: dict, rec: dict) -> Sample:
            assignment = ChannelAssignment.from_json_dict(rec["assignment"])
            violations = validate_assignment(head["problem"], assignment)
            if violations:
                raise ValueError(f"violates the problem: {violations[0].message}")
            seed = json_field(rec["seed"], int, "seed")
            stats = SolveStats.from_json_dict(rec["stats"]) if "stats" in rec else None
            return Sample(seed=seed, assignment=assignment, stats=stats)

        head, samples = load_artifact(
            path, "sample-set", instance, "sample", fields, sample, key=lambda s: s.seed
        )
        return cls(samples=samples, **head)


def _solve_sample(context, seed: int) -> Optional[Sample]:
    problem, time_budget, engine = context
    res = check_feasibility(problem, seed=seed, time_budget=time_budget, engine=engine)
    if not res.feasible:
        return None
    assert res.assignment is not None
    return Sample(seed=seed, assignment=res.assignment, stats=res.stats)


def sample_solutions(
    instance: Instance,
    target_mhz: int,
    use_domain: bool = True,
    *,
    count: int,
    buffer: int = DEFAULT_BUFFER,
    b_star: Optional[int] = None,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
    retry_factor: int = 3,
    workers: int = 1,
    engine=None,
) -> SampleSet:
    """Draw ``count`` solutions at the minimum-plus-buffer clearing cap.

    Randomized solver seeds vary the models between draws; duplicates are
    kept, as downstream estimators need raw draw counts. Probes that fail or
    time out are retried with fresh seeds up to ``retry_factor * count``
    attempts in total; a shortfall is recorded on the returned set (and raised
    when nothing at all could be sampled).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_time_budget(time_budget)
    if retry_factor < 1:
        raise ValueError("retry_factor must be at least 1")
    if buffer < 0:
        raise ValueError("buffer must be non-negative")
    parallel.check_workers(workers)
    b_star = _b_star(instance, target_mhz, use_domain, b_star, seed, time_budget, engine)
    cap = b_star + buffer
    problem = RepackProblem(
        instance=instance,
        clearing_target_mhz=target_mhz,
        use_domain_constraints=use_domain,
        max_cleared_nationwide=cap,
    )

    max_attempts = retry_factor * count
    samples: list[Sample] = []
    attempt = 0
    while len(samples) < count and attempt < max_attempts:
        batch = min(count - len(samples), max_attempts - attempt)
        tasks = [derive_seed(seed, "sample", attempt + i) for i in range(batch)]
        attempt += batch
        for result in parallel.run_tasks(
            _solve_sample, tasks, workers=workers, context=(problem, time_budget, engine)
        ):
            if result is not None:
                samples.append(result)
    if not samples:
        raise SamplingError(
            f"no solutions sampled in {max_attempts} attempts at cap {cap} "
            f"(target {target_mhz} MHz)"
        )
    if len(samples) < count:
        log.warning(
            "sampled %d of %d requested solutions in %d attempts", len(samples), count, attempt
        )
    return SampleSet(
        problem=problem, samples=samples, buffer=buffer, b_star=b_star, requested=count
    )
