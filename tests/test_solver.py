"""Embedded CDCL engine and the external-solver adapter."""

from __future__ import annotations

import gc
import itertools
import math
import os
import random
import shlex
import signal
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import pytest

from repacker import encoder, solver
from repacker.encoder import CnfFormula, encode
from repacker.instance import ConstraintKind, RepackProblem
from repacker.participation import ModelSpec, sample
from repacker.solver import (
    EmbeddedSolver,
    ExternalSolver,
    SolverError,
    Verdict,
    _activity_key,
    _Engine,
    check_formula,
    check_model,
    solve,
)
from repacker.synthetic import generate_synthetic
from repacker.util import gc_paused

from conftest import random_problem
from oracles import dpll_sat
from reference_engine import ReferenceEngine


def random_3cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(var_count=n, clauses=tuple(clauses))


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = []
    for p in range(pigeons):
        clauses.append(tuple(var(p, h) for h in range(holes)))
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfFormula(var_count=pigeons * holes, clauses=tuple(clauses))


class TestBasics:
    def test_empty_clause_set_is_sat(self):
        outcome = solve(CnfFormula(var_count=3, clauses=()))
        assert outcome.is_sat
        assert len(outcome.model) == 4

    def test_contradictory_units_unsat(self):
        outcome = solve(CnfFormula(var_count=1, clauses=((1,), (-1,))))
        assert outcome.is_unsat

    def test_single_unit(self):
        outcome = solve(CnfFormula(var_count=1, clauses=((-1,),)))
        assert outcome.is_sat
        assert outcome.model[1] is False

    def test_tautology_ignored(self):
        outcome = solve(CnfFormula(var_count=2, clauses=((1, -1), (2,))))
        assert outcome.is_sat and outcome.model[2]

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            solve(CnfFormula(var_count=1, clauses=()), time_budget=0)

    def test_stats_populated(self):
        rng = random.Random(5)
        outcome = solve(random_3cnf(rng, 20, 85), seed=1)
        assert outcome.stats.propagations > 0
        assert outcome.stats.wall_time >= 0

    def test_restarts_and_learnts_counted(self):
        outcome = solve(pigeonhole(6, 5), seed=0, time_budget=30)
        assert outcome.is_unsat
        assert outcome.stats.restarts > 0
        assert 0 < outcome.stats.learnts <= outcome.stats.conflicts
        assert set(outcome.stats.to_json_dict()) == {"decisions", "conflicts", "propagations"}
        quiet = solve(CnfFormula(var_count=3, clauses=((1, 2), (-1,))), seed=0).stats
        assert (quiet.restarts, quiet.learnts) == (0, 0)


class TestOracleAgreement:
    def test_small_3cnf_matches_dpll(self):
        rng = random.Random(101)
        sat = unsat = 0
        for _ in range(120):
            n = rng.randint(5, 14)
            m = int(n * rng.uniform(3.0, 5.5))
            formula = random_3cnf(rng, n, m)
            ours = solve(formula, seed=rng.randrange(1000), time_budget=30)
            expected = dpll_sat([list(c) for c in formula.clauses])
            assert ours.verdict is (Verdict.SAT if expected else Verdict.UNSAT)
            sat += expected
            unsat += not expected
        assert sat > 10 and unsat > 10  # the mix actually exercised both paths

    def test_n30_3cnf_matches_dpll(self):
        rng = random.Random(77)
        for _ in range(80):
            formula = random_3cnf(rng, 30, int(30 * rng.uniform(3.8, 4.8)))
            ours = solve(formula, seed=3, time_budget=60)
            assert ours.verdict in (Verdict.SAT, Verdict.UNSAT)
            assert ours.is_sat == dpll_sat([list(c) for c in formula.clauses])

    def test_every_sat_model_satisfies_all_clauses(self):
        rng = random.Random(303)
        for _ in range(40):
            formula = random_3cnf(rng, 16, 60)
            outcome = solve(formula, seed=rng.randrange(100))
            if outcome.is_sat:
                assert check_model(formula.clauses, outcome.model)


class TestRandomization:
    def test_same_seed_same_model(self):
        rng = random.Random(9)
        formula = random_3cnf(rng, 25, 95)
        a = solve(formula, seed=4242)
        b = solve(formula, seed=4242)
        assert a.verdict == b.verdict
        assert a.model == b.model
        assert a.stats.decisions == b.stats.decisions

    def test_different_seeds_find_different_models(self):
        # Free variables, so many models exist; across 20 seeds at least two
        # distinct models should appear. Probabilistic, one retry allowed.
        formula = CnfFormula(var_count=8, clauses=((1, 2), (3, 4), (5, 6)))
        for attempt in range(2):
            models = {solve(formula, seed=s + 100 * attempt).model for s in range(20)}
            if len(models) >= 2:
                break
        assert len(models) >= 2


class TestTimeout:
    def test_hard_instance_times_out(self):
        outcome = solve(pigeonhole(12, 11), seed=0, time_budget=0.05)
        assert outcome.timed_out
        assert outcome.model is None

    def test_pigeonhole_small_solved_exactly(self):
        assert solve(pigeonhole(5, 5), seed=0).is_sat
        assert solve(pigeonhole(6, 5), seed=0, time_budget=30).is_unsat


def reference_engine(var_count, clauses, seed):
    """The reference engine built clause by clause through ``_attach``/``_enqueue``.

    The engine's inlined construction must leave the same state behind, in
    its own layout: the search depends on every piece of it.
    """
    engine = ReferenceEngine(var_count, (), seed)
    for clause in clauses:
        lits = sorted(set(clause), key=abs)
        if any(-lit in lits for lit in lits):
            continue  # tautology
        if not lits:
            engine.ok = False
            return engine
        if len(lits) == 1:
            if not engine._enqueue(lits[0], None):
                engine.ok = False
                return engine
        else:
            engine._attach(list(lits))
    return engine


def state(engine, val, watches, heap, reason):
    """Every field the search reads, with ``val``, ``watches``, ``heap`` and
    ``reason`` as given."""
    return {
        "ok": engine.ok,
        "val": val,
        "level": engine.level,
        "reason": reason,
        "trail": engine.trail,
        "qhead": engine.qhead,
        "phase": engine.phase,
        "activity": engine.activity,
        "var_inc": engine.var_inc,
        "heap": heap,
        "rng": engine.rng.getstate(),
        "watches": watches,
    }


def unpack_key(key, var_bits):
    """The ``(-activity, r, v)`` tuple that a packed heap key sorts like."""
    v = key & ((1 << var_bits) - 1)
    r = ((key >> var_bits) & ((1 << 53) - 1)) / 2.0**53
    bits = (1 << 63) - 1 - (key >> (53 + var_bits))
    return (-struct.unpack("<d", struct.pack("<q", bits))[0], r, v)


def folded_watches(engine, lit):
    """What the engine visits when ``lit`` becomes false: the entries of
    ``lit`` in its implication table, then its watch list."""
    table = engine.table
    return [*table[lit], *engine.watches[lit]] if -len(table) <= lit < 0 else engine.watches[lit]


def engine_state(engine):
    """The engine's state in the reference's terms.

    Clause lists are named by first appearance, so two watch lists sharing
    one clause compare as sharing it; an int watch entry is the other literal
    of an input binary clause, and a learnt two-literal clause in the watches
    of ``lit`` reads as its other literal too, as ``reference_state`` reads
    every two-literal clause. Heap keys are unpacked into the tuples they
    sort like. An int reason, the false literal behind a binary implication,
    becomes the reference's clause ``[implied, false_lit]``; a free
    variable's reason, which the engine leaves stale and never reads, is None
    as in the reference. A literal's implication table entries head its
    watch list, as a fold of every clause puts them.
    """
    assert engine.key == [
        _activity_key(act, v, engine.var_bits) for v, act in enumerate(engine.activity)
    ]
    n = engine.nvars
    names: dict[int, int] = {}
    watches = [
        [
            c if type(c) is not list
            else (c[1] if c[0] == lit else c[0]) if len(c) == 2
            else (names.setdefault(id(c), len(names)), tuple(c))
            for c in folded_watches(engine, lit)
        ]
        for lit in list(range(n + 1)) + list(range(-n, 0))
    ]
    val = engine.val
    reason = [
        None if val[v] is None else [v if val[v] else -v, r] if type(r) is int else r
        for v, r in enumerate(engine.reason)
    ]
    heap = [unpack_key(key, engine.var_bits) for key in engine.heap]
    return state(engine, val, watches, heap, reason)


def reference_state(engine):
    """``engine_state`` of a reference engine, in the literal-indexed layout:
    ``val`` for both polarities from ``assigns``, and each binary clause list
    in the watches of ``lit`` as the int of its other literal."""
    n = engine.nvars
    lits = list(range(n + 1)) + list(range(-n, 0))  # position i holds literal lits[i]
    val = [
        None if engine.assigns[abs(lit)] == 0 else (engine.assigns[abs(lit)] == 1) == (lit > 0)
        for lit in lits
    ]
    names: dict[int, int] = {}
    watches = [
        [
            (c[1] if c[0] == lit else c[0]) if len(c) == 2
            else (names.setdefault(id(c), len(names)), tuple(c))
            for c in engine.watches[engine._watch_idx(lit)]
        ]
        for lit in lits
    ]
    return state(engine, val, watches, engine.heap, engine.reason)


def messy_clauses(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Clauses with the shapes the constructor must normalize: tautologies,
    repeated literals (``(a, a)`` among them), units, contradictory units,
    long clauses and, now and then, an empty clause."""
    def lit() -> int:
        v = rng.randint(1, n)
        return v if rng.random() < 0.5 else -v

    clauses = []
    for _ in range(rng.randint(0, 4 * n)):
        kind = rng.random()
        if kind < 0.45:
            clauses.append((lit(), lit()))
        elif kind < 0.55:
            a = lit()
            clauses.append(rng.choice([(a, a), (a, -a), (-a, a)]))
        elif kind < 0.65:
            clauses.append((lit(),))
        elif kind < 0.70:
            a = lit()
            clauses += [(a,), (-a,)]
        elif kind < 0.995:
            k = rng.randint(3, 3 + 2 * n)
            clause = [lit() for _ in range(k)]
            if rng.random() < 0.2:
                clause.append(-rng.choice(clause))
            clauses.append(tuple(clause))
        else:
            clauses.append(())
    return clauses


class TestEngineConstruction:
    def test_state_matches_reference_loop(self):
        rng = random.Random(2024)
        shapes = {"built": 0, "unsat": 0, "tautology": 0, "duplicate": 0, "unit": 0, "long": 0}
        for _ in range(2500):
            n = rng.randint(1, 12)
            clauses = messy_clauses(rng, n)
            seed = rng.randrange(1 << 30)
            expected = reference_engine(n, clauses, seed)
            assert engine_state(_Engine(n, clauses, seed)) == reference_state(expected)
            shapes["built"] += expected.ok
            shapes["unsat"] += not expected.ok
            shapes["tautology"] += any(-x in c for c in clauses for x in c)
            shapes["duplicate"] += any(len(set(c)) < len(c) for c in clauses)
            shapes["unit"] += any(len(c) == 1 for c in clauses)
            shapes["long"] += any(len(c) > 2 for c in clauses)
        assert min(shapes.values()) > 100, shapes  # every shape was exercised


class LearntRecorder(ReferenceEngine):
    """The reference engine, noting the length of every clause it learns."""

    def __init__(self, *args) -> None:
        self.learnt_sizes: list[int] = []
        super().__init__(*args)

    def _analyze(self, confl):
        learnt, back_level = super()._analyze(confl)
        self.learnt_sizes.append(len(learnt))
        return learnt, back_level


def replay_both(var_count, clauses, seed, var_inc=None):
    """Run the reference and the engine on one formula; return both engines
    and both outcomes as (verdict, model, decisions, conflicts, propagations)."""
    runs = []
    for cls in (LearntRecorder, _Engine):
        engine = cls(var_count, clauses, seed)
        if var_inc is not None:
            engine.var_inc = var_inc
        outcome = engine.run(60.0)
        stats = outcome.stats
        runs.append((engine, (outcome.verdict, outcome.model,
                              stats.decisions, stats.conflicts, stats.propagations)))
    return runs


def agreement_corpus(rng):
    """Seeded (var_count, clauses) formulas of every kind the engine meets."""
    for _ in range(300):
        n = rng.randint(1, 12)
        yield n, messy_clauses(rng, n)
    for _ in range(40):
        n = rng.randint(30, 70)
        yield n, random_3cnf(rng, n, round(n * rng.uniform(4.1, 4.4))).clauses
    for pigeons, holes in ((3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 5)):
        yield pigeons * holes, pigeonhole(pigeons, holes).clauses
    for _ in range(60):
        formula = encode(random_problem(rng, max_n=10, max_c=5))
        yield formula.var_count, formula.clauses


class TestEngineAgreement:
    """The engine replays the reference search exactly: the same verdict,
    model and counts on every formula, whatever shape its clauses have."""

    def test_same_search_as_reference(self):
        rng = random.Random(4242)
        shapes = {"sat": 0, "unsat": 0, "unit learnt": 0, "binary learnt": 0,
                  "long learnt": 0, "restart": 0, "rescale": 0}
        for case, (var_count, clauses) in enumerate(agreement_corpus(rng)):
            seed = rng.randrange(1 << 30)
            # Every third case starts with the increment near the 1e100 limit,
            # so bumps rescale every activity.
            var_inc = rng.choice([1e100, 7e99]) if case % 3 == 0 else None
            (reference, expected), (engine, got) = replay_both(var_count, clauses, seed, var_inc)
            assert got == expected, case
            shapes["sat"] += got[0] is Verdict.SAT
            shapes["unsat"] += got[0] is Verdict.UNSAT
            shapes["unit learnt"] += 1 in reference.learnt_sizes
            shapes["binary learnt"] += 2 in reference.learnt_sizes
            shapes["long learnt"] += any(size > 2 for size in reference.learnt_sizes)
            shapes["restart"] += engine.stats.restarts > 0
            shapes["rescale"] += var_inc is not None and reference.var_inc < 1e50
            assert engine.var_inc == reference.var_inc
        assert min(shapes.values()) >= 5, shapes  # every shape was exercised

    def test_timeout_counts_match_reference(self):
        # A unit and a chain of implications: the first deadline check comes
        # at the 8192nd propagation, inside propagation, with the deadline past.
        n = 10_000
        clauses = [(1,)] + [(-v, v + 1) for v in range(1, n)]
        outcomes = [cls(n, clauses, 0).run(1e-9) for cls in (ReferenceEngine, _Engine)]
        assert [o.verdict for o in outcomes] == [Verdict.TIMEOUT] * 2
        counts = [(o.stats.decisions, o.stats.conflicts, o.stats.propagations) for o in outcomes]
        assert counts == [(0, 0, 8192)] * 2
        formula = CnfFormula(var_count=n, clauses=tuple(clauses))
        assert solve(formula, time_budget=1e-9).stats.propagations == 8192


SNAPSHOTS = 40  # conflicts per search whose state is recorded


def snapshot(fields):
    """A copy of a state that later search cannot change: every field's
    lists are copied two levels deep (clause lists inside ``reason`` and
    watch lists inside ``watches``); deeper values are immutable."""
    return {
        name: [list(x) if type(x) is list else x for x in value] if type(value) is list else value
        for name, value in fields.items()
    }


class RecordingReference(ReferenceEngine):
    """The reference engine, noting its state at its first ``SNAPSHOTS``
    conflicts above level 0 (before each is analyzed) and how many of those
    left watch-list entries unvisited."""

    def __init__(self, *args) -> None:
        self.snapshots: list[dict] = []
        self.partway = 0
        super().__init__(*args)

    def _analyze(self, confl):
        if len(self.snapshots) < SNAPSHOTS:
            self.snapshots.append(snapshot(reference_state(self)))
            ws = self.watches[self._watch_idx(-self.trail[self.qhead - 1])]
            self.partway += ws[-1] is not confl
        return super()._analyze(confl)


class RecordingEngine(_Engine):
    """The engine, noting its state at its first ``SNAPSHOTS`` conflicts
    above level 0."""

    def __init__(self, *args) -> None:
        self.snapshots: list[dict] = []
        super().__init__(*args)

    def _analyze(self, confl):
        if len(self.snapshots) < SNAPSHOTS:
            self.snapshots.append(snapshot(engine_state(self)))
        return super()._analyze(confl)


def counting_clock(monkeypatch):
    """Make ``time.monotonic`` read 0, 1, 2, ... from now on, so a search's
    deadline falls after a fixed number of clock reads on any machine."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))


class TestEngineStateAgreement:
    """The engine's whole state agrees with the reference's after a search,
    whether it ends SAT, UNSAT or at a timeout, and at its conflicts."""

    def test_state_after_search_and_at_conflicts(self):
        rng = random.Random(5150)
        shapes = {"sat": 0, "unsat": 0, "conflicts": 0, "partway": 0, "rescale": 0}
        for case, (var_count, clauses) in enumerate(agreement_corpus(rng)):
            seed = rng.randrange(1 << 30)
            reference = RecordingReference(var_count, clauses, seed)
            engine = RecordingEngine(var_count, clauses, seed)
            if case % 3 == 0:  # start near the 1e100 limit, so bumps rescale
                reference.var_inc = engine.var_inc = rng.choice([1e100, 7e99])
            expected, got = reference.run(60.0), engine.run(60.0)
            assert (got.verdict, got.model) == (expected.verdict, expected.model), case
            assert engine.snapshots == reference.snapshots, case
            assert engine_state(engine) == reference_state(reference), case
            shapes["sat"] += got.verdict is Verdict.SAT
            shapes["unsat"] += got.verdict is Verdict.UNSAT
            shapes["conflicts"] += len(reference.snapshots)
            shapes["partway"] += reference.partway
            shapes["rescale"] += case % 3 == 0 and reference.var_inc < 1e50
        assert min(shapes.values()) >= 5, shapes  # every shape was exercised

    def test_conflict_partway_through_a_list_after_a_dropped_clause(self):
        # x1 is a unit. Visiting the watches of -1 moves (-1 2 3) to watch 3,
        # implies 4 through (-1 4) and meets the conflict (-1 -4) with two
        # entries left unvisited: the list keeps them, in order.
        clauses = [(1,), (-1, 2, 3), (-1, 4), (-1, -4), (-1, 5), (-1, 5, 6)]
        reference = ReferenceEngine(6, clauses, 0)
        engine = _Engine(6, clauses, 0)
        assert engine.watches[-1][1:4] == [4, -4, 5]
        assert engine.run(60.0).verdict is reference.run(60.0).verdict is Verdict.UNSAT
        assert engine.watches[-1] == [4, -4, 5, [-1, 5, 6]]
        assert engine.watches[3] == [[2, 3, -1]]
        assert engine.reason[4] == -1
        assert engine_state(engine) == reference_state(reference)

    @pytest.mark.parametrize("budget", [1, 2, 3, 13, 40, 120, 400, 1000, 1426])
    def test_state_at_timeout(self, monkeypatch, budget):
        # Under the counting clock a search times out at clock read budget + 1.
        # Reads come before each decision, after each conflict and at every
        # 8192nd propagation; on this formula and seed read 1427 is the
        # propagation loop's, so budget 1426 stops the search inside it.
        formula, seed = pigeonhole(7, 6), 0
        runs = []
        for cls, state_of in ((ReferenceEngine, reference_state), (_Engine, engine_state)):
            counting_clock(monkeypatch)
            engine = cls(formula.var_count, formula.clauses, seed)
            outcome = engine.run(budget)
            stats = outcome.stats
            runs.append((outcome.verdict, stats.decisions, stats.conflicts,
                         stats.propagations, state_of(engine)))
        assert runs[1] == runs[0]
        assert runs[0][0] is Verdict.TIMEOUT
        assert (runs[0][3] == 8192) == (budget == 1426)

    def test_state_at_a_timeout_inside_propagation(self):
        n = 10_000
        clauses = [(1,)] + [(-v, v + 1) for v in range(1, n)]
        reference, engine = ReferenceEngine(n, clauses, 0), _Engine(n, clauses, 0)
        assert engine.run(1e-9).verdict is reference.run(1e-9).verdict is Verdict.TIMEOUT
        assert engine.qhead == 8192
        assert engine_state(engine) == reference_state(reference)


class TestHeapKeys:
    """A packed heap key sorts exactly like the ``(-activity, r, v)`` tuple
    it replaces, and unpacks to that tuple."""

    @staticmethod
    def activities(rng):
        tiny = 5e-324  # the smallest subnormal
        edge = [0.0, tiny, 2 * tiny, 1e-310, 2.2250738585072014e-308, 1.0, 1.0 / 0.95,
                1e100, math.nextafter(1e100, 0.0), math.nextafter(1e100, math.inf), 1e100 + 1e85]
        rescaled = [a * 1e-100 for a in edge + [rng.uniform(1e99, 1e100) for _ in range(5)]]
        spread = [rng.uniform(0, 1e3) for _ in range(10)] + [
            2.0 ** rng.randint(-1074, 340) * rng.random() for _ in range(20)
        ]
        return edge + rescaled + spread

    def test_key_order_is_tuple_order(self):
        rng = random.Random(777)
        draws = random.Random(778)  # r values as the engine draws them
        for nvars in (1, 2, 7, 8, 1000, 42_500):
            var_bits = nvars.bit_length()
            scale = 2.0 ** (53 + var_bits)
            acts = self.activities(rng)
            rs = [0.0, 1.0 - 2.0**-53, 0.5] + [draws.random() for _ in range(12)]
            vs = sorted({1, nvars, rng.randint(1, nvars), rng.randint(1, nvars)})
            # Every activity meets every r and v, so equal activities with
            # different r and equal (act, r) with different v both occur.
            triples = [(a, r, v) for a in acts for r in rng.sample(rs, 4) + [0.0] for v in vs]
            keys = [_activity_key(a, v, var_bits) | int(r * scale) for a, r, v in triples]
            tuples = [(-a, r, v) for a, r, v in triples]
            for key, t in zip(keys, tuples):
                back = unpack_key(key, var_bits)
                assert back == t
                assert math.copysign(1.0, back[0]) == math.copysign(1.0, t[0])
            assert [unpack_key(k, var_bits) for k in sorted(keys)] == sorted(tuples)
            for _ in range(3000):
                i, j = rng.randrange(len(keys)), rng.randrange(len(keys))
                assert (keys[i] < keys[j]) == (tuples[i] < tuples[j])
                assert (keys[i] == keys[j]) == (tuples[i] == tuples[j])


def skeleton_problems():
    """Encoded problems of every shape a solve from a base's implication
    table meets: seeded Monte Carlo draws at several rates, each kind of cap,
    and plans of one and two channels, where a must-repack station's clause
    becomes a unit or a binary."""
    # The first keeps channel 14 alone at target 30 and 14-15 at 24; in the
    # second, channel 15 is reserved inside the retained band at targets 6-24.
    instances = [
        (generate_synthetic(
            30, channel_count=6, co_density=0.12, adj_density=0.08, domain_density=0.1,
            n_dmas=4, forbidden_channels=forbidden, seed=seed,
        ), targets)
        for seed, forbidden, targets in ((9, (), (6, 18, 24, 30)), (10, (15,), (6, 12, 24)))
    ]
    for inst, targets in instances:
        for target in targets:
            for alpha in (0.3, 0.6, 0.9):
                for seed in range(3):
                    draw = sample(ModelSpec.random_broadcasters(alpha), inst, seed)
                    yield RepackProblem(inst, target, must_repack=draw.non_participants())
        must = frozenset(inst.station_ids[::3])
        dmas = sorted(inst.dmas)
        for caps in (
            {"max_cleared_nationwide": 4}, {"max_cleared_nationwide": 0},
            {"dma_caps": {dmas[0]: 1, dmas[1]: 0}},
            {"max_dmas_with_clearing": 1}, {"max_dmas_with_clearing": 0},
            {"max_cleared_nationwide": 6, "dma_caps": {dmas[2]: 2}, "max_dmas_with_clearing": 2},
        ):
            for target in (12, targets[-1]):
                yield RepackProblem(inst, target, must_repack=must, **caps)
                yield RepackProblem(inst, target, use_domain_constraints=False, **caps)


def outcome_key(outcome):
    s = outcome.stats
    return (outcome.verdict, outcome.model, s.decisions, s.conflicts, s.propagations,
            s.restarts, s.learnts)


class StateAtRun(_Engine):
    """The engine, noting its whole state when the search starts and ends."""

    states: list = []

    def run(self, time_budget):
        StateAtRun.states.append(engine_state(self))
        try:
            return super().run(time_budget)
        finally:
            StateAtRun.states.append(engine_state(self))


def whole_fold(formula, seed, time_budget=60.0):
    """The engine state at construction, the outcome and the state at the end
    of a search that folds every clause of ``formula``."""
    engine = _Engine(formula.var_count, formula.clauses, seed)
    start = engine_state(engine)
    outcome = engine.run(time_budget)
    return [start, engine_state(engine)], outcome_key(outcome)


def table_copy(base):
    """A copy of ``base``'s implication table and units that no solve can share."""
    return [list(t) for t in base.table], [list(u) for u in base.units]


def conflicting_capped_formula():
    """A capped formula (its cap clauses extend negative station literals'
    watch lists past their table entries) whose search meets several conflicts."""
    for problem in skeleton_problems():
        formula = encode(problem)
        if problem.max_cleared_nationwide is None:
            continue
        if _Engine(formula.var_count, formula.clauses, 0).run(60.0).stats.conflicts >= 3:
            return formula
    raise AssertionError("no capped formula with three conflicts")


def one_base_formulas():
    """Formulas encoded on one base."""
    inst = generate_synthetic(30, channel_count=6, co_density=0.12, seed=9)
    formulas = [
        encode(RepackProblem(
            inst, 12, max_cleared_nationwide=cap,
            must_repack=sample(ModelSpec.random_broadcasters(alpha), inst, seed).non_participants(),
        ))
        for alpha, seed, cap in itertools.product((0.3, 0.6), range(3), (None, 3))
    ]
    assert len({id(f.table) for f in formulas}) == 1
    return formulas


class TestSkeleton:
    """An encoded formula solved with its base's implication table, the
    read-only skeleton every engine of that base starts from, searches as an
    engine folding all its clauses does; no solve writes the table, so
    threads share it and a forked child inherits it."""

    def test_same_state_and_outcome_as_the_plain_engine(self, monkeypatch):
        rng = random.Random(31)
        monkeypatch.setattr(solver, "_Engine", StateAtRun)
        verdicts = set()
        cases = [(encode(p), rng.randrange(1 << 30), 60.0) for p in skeleton_problems()]
        cases.append((conflicting_capped_formula(), 0, 2.0))
        for case, (formula, seed, budget) in enumerate(cases):
            assert isinstance(formula, encoder._EncodedFormula)
            timeout = budget == 2.0
            if timeout:
                counting_clock(monkeypatch)
            expected_states, expected = whole_fold(formula, seed, budget)
            if timeout:
                counting_clock(monkeypatch)
            StateAtRun.states.clear()
            got = solve(formula, seed=seed, time_budget=budget)
            # The learnt clauses are in the final watch lists, beside the trail.
            assert StateAtRun.states == expected_states, case
            assert outcome_key(got) == expected, case
            verdicts.add(got.verdict)
        assert verdicts == {Verdict.SAT, Verdict.UNSAT, Verdict.TIMEOUT}

    def test_no_channels_solve_from_the_clauses(self):
        inst = generate_synthetic(6, channel_count=5, seed=2)
        formula = encode(RepackProblem(inst, 30, must_repack=frozenset(inst.station_ids[:2])))
        assert isinstance(formula, CnfFormula)
        assert solve(formula).is_unsat

    def test_the_table_is_never_written(self):
        by_verdict = {}
        for problem in skeleton_problems():
            formula = encode(problem)
            by_verdict.setdefault(solve(formula, seed=1).verdict, formula)
        for verdict in (Verdict.SAT, Verdict.UNSAT):
            formula = by_verdict[verdict]
            table = formula.table
            expected = table_copy(formula)
            assert solve(formula, seed=2).verdict is verdict
            assert formula.table is table and table_copy(formula) == expected

    def test_lists_restored_after_timeout(self, monkeypatch):
        formula = conflicting_capped_formula()
        table = formula.table
        expected_table = table_copy(formula)
        counting_clock(monkeypatch)
        expected = whole_fold(formula, 0, 2)[1]
        counting_clock(monkeypatch)
        got = outcome_key(solve(formula, seed=0, time_budget=2))
        assert got == expected and got[0] is Verdict.TIMEOUT
        assert formula.table is table and table_copy(formula) == expected_table

    def test_lists_restored_after_an_exception_in_the_search(self, monkeypatch):
        formula = conflicting_capped_formula()
        table = formula.table
        expected_table = table_copy(formula)
        backjump = _Engine._backjump
        calls = []

        def failing_backjump(engine, target):
            calls.append(target)
            if len(calls) == 2:  # after a learnt clause has joined the watches
                raise RuntimeError("boom")
            backjump(engine, target)

        monkeypatch.setattr(_Engine, "_backjump", failing_backjump)
        with pytest.raises(RuntimeError, match="boom"):
            solve(formula, seed=0)
        assert len(calls) == 2
        assert formula.table is table and table_copy(formula) == expected_table
        monkeypatch.setattr(_Engine, "_backjump", backjump)
        assert outcome_key(solve(formula, seed=0)) == whole_fold(formula, 0)[1]

    def test_more_threads_than_cpus_get_the_serial_outcomes(self):
        formulas = one_base_formulas()
        expected = [whole_fold(f, seed=i)[1] for i, f in enumerate(formulas)]
        results: dict[int, list] = {}

        def work(k):
            order = list(enumerate(formulas))
            order = order[k % len(order):] + order[:k % len(order)]
            results[k] = sorted((i, outcome_key(solve(f, seed=i))) for i, f in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,), daemon=True)
                       for k in range((os.cpu_count() or 1) + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        serial = list(enumerate(expected))
        assert results == {k: serial for k in range(len(threads))}
        base = formulas[0]
        built = encoder._build_base(base.instance, base.plan, base.use_domain)
        assert table_copy(base) == table_copy(built)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_mid_solve_solves_from_the_inherited_table(self, monkeypatch):
        formula = conflicting_capped_formula()
        expected = outcome_key(solve(formula, seed=4))
        table = formula.table
        mid_search, forked = threading.Event(), threading.Event()
        backjump = _Engine._backjump

        def pausing_backjump(engine, target):
            if threading.current_thread() is not threading.main_thread() and not forked.is_set():
                mid_search.set()
                forked.wait(60)
            backjump(engine, target)

        monkeypatch.setattr(_Engine, "_backjump", pausing_backjump)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(outcome_key(solve(formula, seed=4))), daemon=True)
        worker.start()
        try:
            assert mid_search.wait(60)
            with warnings.catch_warnings():  # newer Pythons warn on fork with threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    same = outcome_key(solve(formula, seed=4)) == expected
                    code = 0 if same and formula.table is table else 3
                finally:
                    os._exit(code)
        finally:
            forked.set()
            worker.join(60)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its solve")
        assert os.waitstatus_to_exitcode(status) == 0
        assert not worker.is_alive() and results == [expected]
        assert formula.table is table


class TestFormulaCheck:
    """``check_formula`` returns what ``check_model`` returns on all of a
    formula's clauses, reading an encoded formula's base through its table."""

    def test_agrees_with_the_clause_loop(self):
        rng = random.Random(47)
        shapes = dict.fromkeys(
            ("adj", "domain", "reserved", "must-repack", "nationwide", "dma", "dma-count"), 0)
        verdicts = {"holds": 0, "table-only": 0, "outside-table": 0}
        for case in range(160):
            problem = random_problem(rng, max_n=10, max_c=5)
            formula = encode(problem)
            base = (set() if isinstance(formula, CnfFormula)
                    else set(formula.clauses[:formula.base_count]))
            n = formula.var_count
            models = [(False, *(rng.random() < p for _ in range(n))) for p in (0.1, 0.3, 0.6)]
            outcome = solve(formula, seed=case)
            if outcome.is_sat:
                models.append(outcome.model)
                for v in rng.sample(range(1, n + 1), min(6, n)):
                    models.append(tuple(not x if i == v else x for i, x in enumerate(outcome.model)))
            for model in models:
                expected = check_model(formula.clauses, model)
                assert check_formula(formula, model) is expected, case
                broken = [c for c in formula.clauses if not check_model((c,), model)]
                in_table = [len(c) == 2 and c[1] < 0 and c in base for c in broken]
                verdicts["holds" if expected else "table-only" if all(in_table)
                         else "outside-table"] += 1
            inst = problem.instance
            shapes["adj"] += any(ic.kind is not ConstraintKind.CO for ic in inst.interference)
            shapes["domain"] += problem.use_domain_constraints and bool(inst.domain)
            shapes["reserved"] += bool(problem.channel_plan.flagged)
            shapes["must-repack"] += bool(problem.must_repack)
            shapes["nationwide"] += problem.max_cleared_nationwide is not None
            shapes["dma"] += bool(problem.dma_caps)
            shapes["dma-count"] += problem.max_dmas_with_clearing is not None
        assert min(shapes.values()) >= 10, shapes
        assert min(verdicts.values()) >= 50, verdicts


GC_CASES = {
    "sat": (CnfFormula(var_count=2, clauses=((1, 2), (-1,))), 10.0, Verdict.SAT),
    "unsat": (pigeonhole(4, 3), 10.0, Verdict.UNSAT),
    "timeout": (pigeonhole(12, 11), 0.05, Verdict.TIMEOUT),
    "unsat-at-construction": (CnfFormula(var_count=1, clauses=((1,), (-1,))), 10.0, Verdict.UNSAT),
}


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """Start the test with the cyclic GC on or off; always leave it on."""
    if not request.param:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


class TestGcPause:
    """``solve`` runs with the collector setting it finds and leaves it so;
    ``check_feasibility`` is what pauses it (``tests/test_driver.py``)."""

    @pytest.mark.parametrize("case", sorted(GC_CASES))
    def test_solve_restores_the_callers_gc_state(self, gc_state, case):
        formula, budget, verdict = GC_CASES[case]
        if case == "unsat-at-construction":
            assert not _Engine(formula.var_count, formula.clauses, 0).ok
        assert solve(formula, seed=0, time_budget=budget).verdict is verdict
        assert gc.isenabled() == gc_state

    def test_solve_restores_gc_state_when_it_raises(self, gc_state, monkeypatch):
        monkeypatch.setattr(solver, "check_model", lambda clauses, model: False)
        with pytest.raises(RuntimeError, match="fails the clause check"):
            solve(GC_CASES["sat"][0])
        assert gc.isenabled() == gc_state

    def test_gc_left_enabled_through_build_search_and_model_check(self, monkeypatch):
        seen = []
        init, search, check = _Engine.__init__, _Engine._search, solver.check_model

        def traced_init(engine, *args):
            seen.append(("build", gc.isenabled()))
            init(engine, *args)

        def traced_search(engine):
            seen.append(("search", gc.isenabled()))
            return search(engine)

        def traced_check(clauses, model):
            seen.append(("check", gc.isenabled()))
            return check(clauses, model)

        monkeypatch.setattr(_Engine, "__init__", traced_init)
        monkeypatch.setattr(_Engine, "_search", traced_search)
        monkeypatch.setattr(solver, "check_model", traced_check)
        assert solve(GC_CASES["sat"][0]).is_sat
        assert seen == [("build", True), ("search", True), ("check", True)]
        assert gc.isenabled()

    def test_pauses_in_threads_never_leave_the_collector_off(self):
        # Each round many threads pause and restore the collector at once; a
        # pause that read it off while another held it paused would restore
        # it off, after the other had turned it back on.
        def work():
            for _ in range(200):
                with gc_paused():
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                threads = [threading.Thread(target=work, daemon=True)
                           for _ in range((os.cpu_count() or 1) + 2)]
                for t in threads:
                    t.start()
                with gc_paused():  # the main thread pausing meanwhile
                    for t in threads:
                        t.join(60)
                assert not any(t.is_alive() for t in threads)
                assert gc.isenabled()
        finally:
            sys.setswitchinterval(interval)

    def test_a_thread_solves_with_the_main_threads_setting(self):
        seen = []
        search = _Engine._search

        def traced_search(engine):
            seen.append(gc.isenabled())
            return search(engine)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Engine, "_search", traced_search)
            worker = threading.Thread(target=lambda: solve(GC_CASES["sat"][0]), daemon=True)
            worker.start()
            worker.join(60)
        assert not worker.is_alive() and seen == [True]


SCRIPT = textwrap.dedent(
    """\
    #!{python}
    import sys
    sys.path.insert(0, {src!r})
    from repacker.encoder import CnfFormula
    from repacker.solver import solve

    clauses = []
    var_count = 0
    with open(sys.argv[1]) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(("c", "p")):
                if line.startswith("p"):
                    var_count = int(line.split()[2])
                continue
            lits = [int(tok) for tok in line.split()]
            clauses.append(tuple(lits[:-1]))
    outcome = solve(CnfFormula(var_count=var_count, clauses=tuple(clauses)), seed=7)
    if outcome.is_sat:
        print("s SATISFIABLE")
        lits = [v if outcome.model[v] else -v for v in range(1, var_count + 1)]
        print("v " + " ".join(map(str, lits)) + " 0")
    else:
        print("s UNSATISFIABLE")
    """
)


@pytest.fixture
def external_cmd(tmp_path):
    """A DIMACS solver subprocess (wrapping the embedded engine)."""
    script = tmp_path / "extsolver.py"
    src = str((__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))
    script.write_text(SCRIPT.format(python=sys.executable, src=src))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f"{sys.executable} {script}"


class TestExternalAdapter:
    def test_round_trip_agrees_with_embedded(self, external_cmd):
        rng = random.Random(55)
        ext = ExternalSolver(external_cmd)
        emb = EmbeddedSolver()
        for _ in range(10):
            formula = random_3cnf(rng, 12, rng.randint(30, 60))
            a = ext.solve(formula, time_budget=60)
            b = emb.solve(formula, seed=1, time_budget=60)
            assert a.verdict == b.verdict
            if a.is_sat:
                assert check_model(formula.clauses, a.model)

    def test_command_placeholder_form(self, external_cmd, tmp_path):
        ext = ExternalSolver(external_cmd + " {cnf}")
        outcome = ext.solve(CnfFormula(var_count=1, clauses=((1,),)))
        assert outcome.is_sat and outcome.model[1]


def fake_solver(tmp_path, stdout: str, exit_code: int) -> ExternalSolver:
    """A solver command that ignores its formula, prints ``stdout`` and exits."""
    script = tmp_path / "fake_solver.py"
    script.write_text(f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({exit_code})\n")
    return ExternalSolver(f"{sys.executable} {script}")


class TestExternalFailures:
    """A failed external run raises SolverError; it never becomes a verdict."""

    UNIT = CnfFormula(var_count=1, clauses=((1,),))

    @pytest.mark.parametrize(
        "stdout, exit_code, message",
        [
            ("s UNSATISFIABLE\n", 1, "exited with code 1"),
            ("s SATISFIABLE\nv 1 0\n", 139, "exited with code 139"),
            ("c out of memory\n", 0, "no status line"),
            ("s UNKNOWN\n", 0, "UNKNOWN"),
            ("s UNKNOWN\n", 10, "UNKNOWN"),
            ("s SATISFIABLE\nv 1 -1 0\n", 10, "variable 1 given both polarities"),
        ],
    )
    def test_failure_raises_solver_error(self, tmp_path, stdout, exit_code, message):
        with pytest.raises(SolverError, match=message):
            fake_solver(tmp_path, stdout, exit_code).solve(self.UNIT)

    def test_non_satisfying_model_raises_solver_error(self, tmp_path):
        with pytest.raises(SolverError, match="non-satisfying"):
            fake_solver(tmp_path, "s SATISFIABLE\nv -1 0\n", 10).solve(self.UNIT)

    @pytest.mark.parametrize(
        "stdout, exit_code, verdict",
        [
            ("s SATISFIABLE\nv 1 0\n", 10, Verdict.SAT),
            ("s UNSATISFIABLE\n", 20, Verdict.UNSAT),
            ("s SATISFIABLE\nv 1 0\n", 0, Verdict.SAT),
        ],
    )
    def test_conventional_exit_codes_parse(self, tmp_path, stdout, exit_code, verdict):
        outcome = fake_solver(tmp_path, stdout, exit_code).solve(self.UNIT)
        assert outcome.verdict is verdict
        assert outcome.model is None or outcome.model[1]


class TestExternalBudget:
    """The external engine reads its budget as the embedded one does."""

    UNIT = CnfFormula(var_count=1, clauses=((1,),))

    @pytest.mark.parametrize("budget", [0, 0.0, -1.0])
    def test_non_positive_budget_raises_like_the_embedded_engine(self, tmp_path, budget):
        # The fake would answer SAT, so a verdict here would mean it ran.
        fake = fake_solver(tmp_path, "s SATISFIABLE\nv 1 0\n", 10)
        with pytest.raises(ValueError, match="^time_budget must be positive$"):
            fake.solve(self.UNIT, time_budget=budget)
        with pytest.raises(ValueError, match="^time_budget must be positive$"):
            solve(self.UNIT, time_budget=budget)

    def test_run_past_the_budget_is_a_timeout(self, tmp_path):
        script = tmp_path / "slow_solver.py"
        script.write_text("import time\ntime.sleep(20)\nprint('s SATISFIABLE')\n")
        start = time.monotonic()
        outcome = ExternalSolver(f"{sys.executable} {script}").solve(self.UNIT, time_budget=0.5)
        elapsed = time.monotonic() - start
        assert outcome.verdict is Verdict.TIMEOUT and outcome.model is None
        assert 0.5 <= outcome.stats.wall_time <= elapsed < 10


class TestBudgetRule:
    """One budget check serves both engines, and one default."""

    UNIT = CnfFormula(var_count=1, clauses=((1,),))

    @pytest.mark.parametrize(
        "budget, message",
        [
            (math.nan, "time_budget must be positive"),
            (-math.inf, "time_budget must be positive"),
            (math.inf, "time_budget must be finite"),
            (0, "time_budget must be positive"),
            (-1, "time_budget must be positive"),
        ],
    )
    def test_both_engines_raise_before_any_work(self, tmp_path, monkeypatch, budget, message):
        def ran(*args, **kwargs):
            raise AssertionError("the external engine started work")

        # The fake would answer SAT, so a verdict here would mean it ran.
        fake = fake_solver(tmp_path, "s SATISFIABLE\nv 1 0\n", 10)
        monkeypatch.setattr(solver, "export_dimacs", ran)
        monkeypatch.setattr(subprocess, "Popen", ran)
        for engine in (fake, EmbeddedSolver()):
            with pytest.raises(ValueError, match=f"^{message}$"):
                engine.solve(self.UNIT, time_budget=budget)

    def test_one_default_and_one_embedded_entry(self):
        from repacker import driver

        assert driver.DEFAULT_TIME_BUDGET is solver.DEFAULT_TIME_BUDGET
        assert EmbeddedSolver.solve is solve
        assert EmbeddedSolver().solve(self.UNIT).is_sat


def _pid_alive(pid: int) -> bool:
    """True while ``pid`` runs; a killed orphan that init has not yet reaped
    counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _pid_alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(os.name != "posix", reason="process groups are POSIX")
class TestExternalProcessGroup:
    """Nothing the external command starts outlives the solve."""

    UNIT = CnfFormula(var_count=1, clauses=((1,),))

    def run_leaving_child(self, tmp_path, script: str, budget: float):
        pidfile = tmp_path / "child.pid"
        command = f"sh -c {shlex.quote(script.replace('PIDFILE', str(pidfile)))} x"
        try:
            outcome = ExternalSolver(command).solve(self.UNIT, time_budget=budget)
            return outcome, _gone_within(int(pidfile.read_text()), 2.0)
        finally:
            if pidfile.exists():  # leave nothing running, even on failure
                try:
                    os.kill(int(pidfile.read_text()), signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_timeout_kills_the_background_child(self, tmp_path):
        outcome, gone = self.run_leaving_child(
            tmp_path, "sleep 4 & echo $! > PIDFILE; wait; echo s SATISFIABLE", 0.5
        )
        assert outcome.verdict is Verdict.TIMEOUT
        assert gone

    def test_verdict_kills_the_background_child(self, tmp_path):
        outcome, gone = self.run_leaving_child(
            tmp_path,
            "sleep 4 >/dev/null 2>&1 & echo $! > PIDFILE; echo s UNSATISFIABLE; exit 20",
            10.0,
        )
        assert outcome.verdict is Verdict.UNSAT
        assert gone

    def test_verdict_counts_once_the_command_exits(self, tmp_path):
        # The background child keeps the command's stdout open for 3 s; the
        # verdict is in as soon as the command itself exits.
        outcome, gone = self.run_leaving_child(
            tmp_path, "sleep 3 & echo $! > PIDFILE; echo s UNSATISFIABLE; exit 20", 1.0
        )
        assert outcome.verdict is Verdict.UNSAT
        assert outcome.stats.wall_time < 0.5
        assert gone
