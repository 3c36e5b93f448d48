"""Embedded CDCL engine and the external-solver adapter."""

from __future__ import annotations

import gc
import random
import stat
import sys
import textwrap

import pytest

from repacker import solver
from repacker.encoder import CnfFormula
from repacker.solver import (
    EmbeddedSolver,
    ExternalSolver,
    SolverError,
    Verdict,
    _Engine,
    check_model,
    solve,
)

from oracles import dpll_sat


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
    """The engine as built clause by clause through ``_attach``/``_enqueue``.

    This is the construction loop the inlined one in ``_Engine.__init__``
    replaced; the search depends on every piece of state it leaves behind.
    """
    engine = _Engine(var_count, (), seed)
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


def engine_state(engine):
    """Every field the search reads, with clauses named by first appearance,
    so two watch lists sharing one clause object compare as sharing it."""
    names: dict[int, int] = {}
    watches = [
        [(names.setdefault(id(c), len(names)), tuple(c)) for c in ws] for ws in engine.watches
    ]
    return {
        "ok": engine.ok,
        "assigns": engine.assigns,
        "level": engine.level,
        "reason": engine.reason,
        "trail": engine.trail,
        "qhead": engine.qhead,
        "phase": engine.phase,
        "heap": engine.heap,
        "rng": engine.rng.getstate(),
        "watches": watches,
    }


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
            assert engine_state(_Engine(n, clauses, seed)) == engine_state(expected)
            shapes["built"] += expected.ok
            shapes["unsat"] += not expected.ok
            shapes["tautology"] += any(-x in c for c in clauses for x in c)
            shapes["duplicate"] += any(len(set(c)) < len(c) for c in clauses)
            shapes["unit"] += any(len(c) == 1 for c in clauses)
            shapes["long"] += any(len(c) > 2 for c in clauses)
        assert min(shapes.values()) > 100, shapes  # every shape was exercised


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

    def test_gc_paused_through_build_search_and_model_check(self, monkeypatch):
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
        assert seen == [("build", False), ("search", False), ("check", False)]
        assert gc.isenabled()


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
