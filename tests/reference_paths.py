"""The minimum-cap search, the Monte Carlo trial, the participation
threshold and the clique catalog as they were before each was folded into a
single path or moved onto the station index, kept as the references that the
agreement tests replay the current code against.

``reference_min_cap_search`` runs a binary phase and then a separate walk
down from the last feasible cap after a timeout; ``reference_run_trial``
builds one report per outcome; ``reference_sample_from_variates`` runs one
station loop per model. Each reaches the solver and the clique scan through
the same module globals as the code it is compared with, so a test that
replaces ``driver.check_feasibility`` scripts both.
``reference_enumerate_cliques_greedy`` grows cliques on frozensets of ids
from the id-keyed adjacency map ``reference_co_adjacency`` and rescores
candidates by set intersection. ``reference_load_instance`` reads each CSV
row through ``csv.DictReader`` and each enum cell through its enum class.
"""

from __future__ import annotations

import csv
import logging
import random
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

from repacker import driver, montecarlo
from repacker.cliques import CliqueCatalog, CliqueError
from repacker.driver import FeasibilityResult, MinSearchResult, ProbeRecord, SearchError
from repacker.instance import (
    NETWORKS,
    US_UNIVERSE,
    Affiliation,
    ConstraintKind,
    DomainConstraint,
    Instance,
    InstanceError,
    InterferenceConstraint,
    RepackProblem,
    Station,
)
from repacker.instance_io import _fail, _field, _load_universe
from repacker.montecarlo import (
    BACKEND_CLIQUE_ONLY,
    BACKEND_CLIQUE_THEN_SAT,
    VERDICT_FEASIBLE,
    VERDICT_INFEASIBLE,
    VERDICT_TIMEOUT,
    TrialReport,
)
from repacker.participation import (
    ModelKind,
    ModelSpec,
    ParticipationVector,
    Variates,
    revenue_probabilities,
)
from repacker.solver import Verdict
from repacker.util import derive_seed

log = logging.getLogger(__name__)


def reference_min_cap_search(
    make_problem: Callable[[int], RepackProblem],
    hi: int,
    *,
    seed: int,
    time_budget: float,
    engine,
    what: str,
) -> MinSearchResult:
    probes: list[ProbeRecord] = []
    attempts: dict[int, int] = {}

    def probe(cap: int) -> FeasibilityResult:
        attempt = attempts.get(cap, 0)
        attempts[cap] = attempt + 1
        res = driver.check_feasibility(
            make_problem(cap), seed=derive_seed(seed, "probe", cap, attempt),
            time_budget=time_budget, engine=engine,
        )
        probes.append(ProbeRecord(cap, res.verdict, res.seed))
        log.debug("%s: cap=%d -> %s", what, cap, res.verdict.value)
        return res

    top = probe(hi)
    if not top.feasible:
        detail = "timed out" if top.infeasible_by_timeout else "is infeasible"
        raise SearchError(
            f"{what}: the base case with cap {hi} {detail}; the target cannot be certified"
        )
    best_cap, best = hi, top
    timed_out = False

    lo, high = 0, hi
    while lo < high:
        mid = (lo + high) // 2
        res = probe(mid)
        if res.feasible:
            high = mid
            best_cap, best = mid, res
        elif res.infeasible_by_timeout:
            timed_out = True
            break
        else:
            lo = mid + 1

    # Establish the bracket, scanning further down when probes timed out.
    while best_cap > 0:
        if any(p.cap == best_cap - 1 and p.verdict is Verdict.UNSAT for p in probes):
            break
        res = probe(best_cap - 1)
        if res.feasible:
            best_cap, best = best_cap - 1, res
        elif res.infeasible_by_timeout:
            timed_out = True
            break
        else:
            break

    assert best.assignment is not None
    return MinSearchResult(
        value=best_cap, witness=best.assignment, probes=probes, timed_out=timed_out
    )


def reference_sample_from_variates(
    model: ModelSpec, instance: Instance, variates: Variates
) -> ParticipationVector:
    bits: dict[str, int] = {}
    if model.kind is ModelKind.RANDOM_BROADCASTERS:
        assert model.alpha is not None
        for s in instance.stations:
            bits[s.id] = int(variates.station_u[s.id] < model.alpha)
        return ParticipationVector(bits)

    if model.kind is ModelKind.RANDOM_AFFILIATES:
        assert model.alpha is not None
        group_bit = {net: int(variates.group_u[net] < model.alpha) for net in NETWORKS}
    elif model.kind is ModelKind.CORRELATED_AFFILIATES:
        assert model.alpha is not None
        top = variates.top_u < model.top_prob
        conditional = model.alpha / model.top_prob
        group_bit = {
            net: int(top and variates.group_u[net] < conditional) for net in NETWORKS
        }
    else:
        probs = revenue_probabilities(instance, model.beta, model.gamma)
        for s in instance.stations:
            bits[s.id] = int(variates.station_u[s.id] < probs[s.id])
        return ParticipationVector(bits)

    for s in instance.stations:
        if s.is_affiliate:
            bits[s.id] = group_bit[s.affiliation]
        else:
            bits[s.id] = int(variates.station_u[s.id] < model.alpha)
    return ParticipationVector(bits)


def reference_run_trial(context, task: tuple[int, int]) -> TrialReport:
    (
        model, instance, target_mhz, use_domain,
        backend, catalog, channel_count, time_budget, engine,
    ) = context
    index, seed = task
    draw = reference_sample_from_variates(
        model, instance, montecarlo.draw_variates(instance, seed)
    )
    start = time.monotonic()
    non_participants = draw.non_participants()
    if backend in (BACKEND_CLIQUE_THEN_SAT, BACKEND_CLIQUE_ONLY):
        assert catalog is not None
        report = montecarlo.blocking_check(catalog, non_participants, channel_count)
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
        must_repack=non_participants,
    )
    res = montecarlo.check_feasibility(
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


def reference_co_adjacency(instance: Instance) -> dict[str, frozenset[str]]:
    """Co-channel conflict graph as an adjacency map."""
    adj: dict[str, set[str]] = {s.id: set() for s in instance.stations}
    for ic in instance.interference:
        if ic.kind is ConstraintKind.CO:
            adj[ic.a].add(ic.b)
            adj[ic.b].add(ic.a)
    return {k: frozenset(v) for k, v in adj.items()}


def reference_verify_cliques(
    cliques: Iterable[frozenset[str]], adjacency: dict[str, frozenset[str]]
) -> None:
    for clique in cliques:
        members = sorted(clique)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b not in adjacency.get(a, frozenset()):
                    raise CliqueError(f"{a} and {b} are not co-channel neighbors")


def reference_enumerate_cliques_greedy(
    instance: Instance,
    *,
    min_size: int = 2,
    attempts_per_vertex: int = 4,
    max_cliques: Optional[int] = None,
    seed: int = 0,
) -> CliqueCatalog:
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    if attempts_per_vertex < 1:
        raise ValueError("attempts_per_vertex must be at least 1")
    adjacency = reference_co_adjacency(instance)
    rng = random.Random(derive_seed(seed, "clique-catalog"))
    order = sorted(adjacency, key=lambda v: (-len(adjacency[v]), v))
    found: set[frozenset[str]] = set()
    for v in order:
        if max_cliques is not None and len(found) >= max_cliques:
            break
        for _ in range(attempts_per_vertex):
            clique = [v]
            candidates = set(adjacency[v])
            while candidates:
                scored = [(len(candidates & adjacency[u]), u) for u in sorted(candidates)]
                best_score = max(score for score, _ in scored)
                pool = [u for score, u in scored if score == best_score]
                u = rng.choice(pool)
                clique.append(u)
                candidates &= adjacency[u]
            if len(clique) >= min_size:
                found.add(frozenset(clique))

    reference_verify_cliques(found, adjacency)
    ordered = tuple(sorted(found, key=lambda c: (-len(c), tuple(sorted(c)))))
    return CliqueCatalog(cliques=ordered, min_size_retained=min_size)


def _reference_read_rows(path: Path, required: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    if not path.is_file():
        raise InstanceError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row's missing cells read as blank
        if reader.fieldnames is None:
            raise InstanceError(f"{path.name}: empty file, header required")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise InstanceError(f"{path.name}: missing columns {missing}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if any((row.get(c) or "").strip() for c in required):
                rows.append((i, row))
        return rows


def reference_load_instance(directory) -> Instance:
    base = Path(directory)
    upath = base / "universe.json"
    universe = _load_universe(upath) if upath.is_file() else US_UNIVERSE

    dmas: dict[int, str] = {}
    path = base / "dmas.csv"
    for rownum, row in _reference_read_rows(path, ("dma_id", "name")):
        dma_id = _field(path, rownum, row["dma_id"], int, "bad dma_id")
        if dma_id in dmas:
            raise _fail(path, rownum, f"duplicate DMA id {dma_id}")
        dmas[dma_id] = row["name"].strip()

    stations: list[Station] = []
    seen_ids: set[str] = set()
    path = base / "stations.csv"
    for rownum, row in _reference_read_rows(path, ("id", "dma_id")):
        sid = row["id"].strip()
        if not sid:
            raise _fail(path, rownum, "empty station id")
        if sid in seen_ids:
            raise _fail(path, rownum, f"duplicate station id {sid!r}")
        seen_ids.add(sid)
        dma_id = _field(path, rownum, row["dma_id"], int, "bad dma_id")
        aff_text = (row.get("affiliation") or "").strip()
        affiliation = _field(path, rownum, aff_text or "NONE", Affiliation, "unknown affiliation")
        rev_text = (row.get("revenue") or "").strip()
        revenue = _field(path, rownum, rev_text or "0", float, "bad revenue")
        try:
            stations.append(Station(id=sid, dma_id=dma_id, affiliation=affiliation, revenue=revenue))
        except InstanceError as exc:
            raise _fail(path, rownum, str(exc)) from None

    interference: set[InterferenceConstraint] = set()
    path = base / "interference.csv"
    for rownum, row in _reference_read_rows(path, ("kind", "station_a", "station_b")):
        kind = _field(path, rownum, row["kind"].strip(), ConstraintKind, "unknown kind")
        a, b = row["station_a"].strip(), row["station_b"].strip()
        for end in (a, b):
            if end not in seen_ids:
                raise _fail(path, rownum, f"unknown station {end!r}")
        try:
            interference.add(InterferenceConstraint(kind=kind, a=a, b=b))
        except InstanceError as exc:
            raise _fail(path, rownum, str(exc)) from None

    domain: set[DomainConstraint] = set()
    path = base / "domain.csv"
    if path.is_file():
        for rownum, row in _reference_read_rows(path, ("station", "channel")):
            sid = row["station"].strip()
            if sid not in seen_ids:
                raise _fail(path, rownum, f"unknown station {sid!r}")
            channel = _field(path, rownum, row["channel"], int, "bad channel")
            domain.add(DomainConstraint(station=sid, channel=channel))

    return Instance(
        stations=tuple(stations),
        universe=universe,
        interference=frozenset(interference),
        domain=frozenset(domain),
        dmas=dmas,
    )
