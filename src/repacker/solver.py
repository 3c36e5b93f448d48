"""Embedded CDCL satisfiability engine, plus an adapter for external solvers.

The engine implements conflict-driven clause learning with two-watched-literal
propagation, first-UIP learning, Luby restarts, and phase saving. Polarity
initialization and decision tie-breaking are randomized from a caller-supplied
seed, so repeated solves of one satisfiable formula sample different models
while any fixed (formula, seed) pair replays identically.
"""

from __future__ import annotations

import heapq
import operator
import os
import random
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .encoder import CnfFormula, export_dimacs, model_from_literals, parse_dimacs_result
from .util import gc_paused


class SolverError(RuntimeError):
    """An external solver failed to deliver a verdict; never read as one."""


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
        }


@dataclass
class SolveOutcome:
    verdict: Verdict
    model: Optional[tuple[bool, ...]] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_sat(self) -> bool:
        return self.verdict is Verdict.SAT

    @property
    def is_unsat(self) -> bool:
        return self.verdict is Verdict.UNSAT

    @property
    def timed_out(self) -> bool:
        return self.verdict is Verdict.TIMEOUT


def check_model(clauses: Sequence[Sequence[int]], model: Sequence[bool]) -> bool:
    """True when the model satisfies every clause."""
    for clause in clauses:
        for lit in clause:
            if model[lit] if lit > 0 else not model[-lit]:
                break
        else:
            return False
    return True


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _Timeout(Exception):
    pass


_RESTART_BASE = 64
_VAR_DECAY = 0.95


class _Engine:
    def __init__(self, var_count: int, clauses: Sequence[Sequence[int]], seed: int) -> None:
        self.nvars = var_count
        self.rng = random.Random(seed)
        self.assigns = [0] * (var_count + 1)  # 0 free, 1 true, -1 false
        self.level = [0] * (var_count + 1)
        self.reason: list[Optional[list[int]]] = [None] * (var_count + 1)
        self.phase = [False] + [self.rng.random() < 0.5 for _ in range(var_count)]
        self.activity = [0.0] * (var_count + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, float, int]] = [
            (0.0, self.rng.random(), v) for v in range(1, var_count + 1)
        ]
        heapq.heapify(self.heap)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * (var_count + 1))]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.seen = [False] * (var_count + 1)
        self.stats = SolveStats()
        self.deadline = float("inf")
        self.ok = True

        # Each clause becomes its distinct literals sorted by variable, watched
        # on the first two. Watch indices are computed inline as in _watch_idx.
        watches = self.watches
        for clause in clauses:
            if len(clause) == 2:  # nearly every clause the encoder emits
                a, b = clause
                if a != b:
                    if a == -b:
                        continue  # tautology
                    if abs(b) < abs(a):
                        a, b = b, a
                    lits = [a, b]
                    watches[2 * a if a > 0 else 1 - 2 * a].append(lits)
                    watches[2 * b if b > 0 else 1 - 2 * b].append(lits)
                    continue
                lits = [a]
            else:
                lits = sorted(set(clause), key=abs)
                variables = list(map(abs, lits))
                if any(map(operator.eq, variables, variables[1:])):
                    continue  # tautology: x and -x sort next to each other
                if len(lits) > 1:
                    a, b = lits[0], lits[1]
                    watches[2 * a if a > 0 else 1 - 2 * a].append(lits)
                    watches[2 * b if b > 0 else 1 - 2 * b].append(lits)
                    continue
            if not lits or not self._enqueue(lits[0], None):
                self.ok = False
                return

    # -- basic operations ---------------------------------------------------

    def _watch_idx(self, lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def _attach(self, clause: list[int]) -> None:
        self.watches[self._watch_idx(clause[0])].append(clause)
        self.watches[self._watch_idx(clause[1])].append(clause)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        v = abs(lit)
        val = self.assigns[v]
        if val != 0:
            return (val == 1) == (lit > 0)
        self.assigns[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.heap, (-self.activity[v], self.rng.random(), v))

    # -- search -------------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        assigns = self.assigns
        watches = self.watches
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            if self.stats.propagations & 8191 == 0 and time.monotonic() > self.deadline:
                raise _Timeout
            false_lit = -p
            ws = watches[self._watch_idx(false_lit)]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                v0 = assigns[first] if first > 0 else -assigns[-first]
                if v0 == 1:
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    if (assigns[lk] if lk > 0 else -assigns[-lk]) != -1:
                        c[1], c[k] = lk, false_lit
                        watches[self._watch_idx(lk)].append(c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if v0 == -1:
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    return c
                self._enqueue(first, c)
            del ws[j:]
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = self.seen
        to_clear: list[int] = []
        path = 0
        index = len(self.trail) - 1
        p = 0
        cur_level = len(self.trail_lim)
        first = True
        while True:
            for q in confl if first else confl[1:]:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    to_clear.append(v)
                    self._bump(v)
                    if self.level[v] == cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            confl = self.reason[abs(p)]  # type: ignore[assignment]
            seen[abs(p)] = False
            index -= 1
            path -= 1
            first = False
            if path == 0:
                break
        learnt[0] = -p
        for v in to_clear:
            seen[v] = False
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backjump(self, target: int) -> None:
        limit = self.trail_lim[target]
        while len(self.trail) > limit:
            lit = self.trail.pop()
            v = abs(lit)
            self.phase[v] = lit > 0
            self.assigns[v] = 0
            self.reason[v] = None
            heapq.heappush(self.heap, (-self.activity[v], self.rng.random(), v))
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    def _decide(self) -> None:
        # Every free variable has a heap entry (_backjump re-pushes what it
        # unassigns), and this runs only while some variable is free.
        while True:
            _, _, v = heapq.heappop(self.heap)
            if self.assigns[v] == 0:
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, None)
                return

    def run(self, time_budget: float) -> SolveOutcome:
        start = time.monotonic()
        self.deadline = start + time_budget
        try:
            outcome = self._search()
        except _Timeout:
            outcome = SolveOutcome(Verdict.TIMEOUT, stats=self.stats)
        self.stats.wall_time = time.monotonic() - start
        return outcome

    def _search(self) -> SolveOutcome:
        if not self.ok:
            return SolveOutcome(Verdict.UNSAT, stats=self.stats)
        restart_round = 1
        conflicts_left = _luby(restart_round) * _RESTART_BASE
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                if not self.trail_lim:
                    return SolveOutcome(Verdict.UNSAT, stats=self.stats)
                learnt, back_level = self._analyze(confl)
                self._backjump(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= _VAR_DECAY
                conflicts_left -= 1
                if conflicts_left <= 0:
                    restart_round += 1
                    conflicts_left = _luby(restart_round) * _RESTART_BASE
                    if self.trail_lim:
                        self._backjump(0)
                if time.monotonic() > self.deadline:
                    raise _Timeout
                continue
            if len(self.trail) == self.nvars:
                model = tuple([False] + [self.assigns[v] == 1 for v in range(1, self.nvars + 1)])
                return SolveOutcome(Verdict.SAT, model=model, stats=self.stats)
            if time.monotonic() > self.deadline:
                raise _Timeout
            self._decide()


def solve(formula: CnfFormula, seed: int = 0, time_budget: float = 60.0) -> SolveOutcome:
    """Decide satisfiability within a wall-time budget.

    SAT outcomes carry a full model, re-checked against every clause before
    being returned. UNSAT means the conflict analysis derived the empty
    clause; TIMEOUT is a verdict, not an error.

    The cyclic garbage collector is paused while the engine exists: its
    clause lists hold no reference cycles, and on large formulas the
    collections their allocation triggers cost as much as the build itself.
    """
    if time_budget <= 0:
        raise ValueError("time_budget must be positive")
    with gc_paused():
        outcome = _Engine(formula.var_count, formula.clauses, seed).run(time_budget)
        if outcome.is_sat:
            assert outcome.model is not None
            if not check_model(formula.clauses, outcome.model):
                raise RuntimeError("internal error: SAT model fails the clause check")
    return outcome


class EmbeddedSolver:
    """Engine facade so drivers can swap in an external solver."""

    def solve(self, formula: CnfFormula, seed: int = 0, time_budget: float = 60.0) -> SolveOutcome:
        return solve(formula, seed=seed, time_budget=time_budget)


@dataclass
class ExternalSolver:
    """Runs a DIMACS solver command and parses its standard output.

    The command may use ``{cnf}`` and ``{seed}`` placeholders; without a
    ``{cnf}`` placeholder the formula path is appended as the last argument.
    An exit code outside {0, 10, 20}, output without a SAT/UNSAT status,
    ``s UNKNOWN``, or a model that fails the clauses raises
    :class:`SolverError`.
    """

    command: str

    def solve(self, formula: CnfFormula, seed: int = 0, time_budget: float = 60.0) -> SolveOutcome:
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="repacker-cnf-") as tmp:
            cnf_path = os.path.join(tmp, "problem.cnf")
            with open(cnf_path, "w", encoding="utf-8") as fh:
                export_dimacs(formula, fh)
            argv = [
                part.replace("{cnf}", cnf_path).replace("{seed}", str(seed))
                for part in shlex.split(self.command)
            ]
            if "{cnf}" not in self.command:
                argv.append(cnf_path)
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=time_budget
                )
            except subprocess.TimeoutExpired:
                stats = SolveStats(wall_time=time.monotonic() - start)
                return SolveOutcome(Verdict.TIMEOUT, stats=stats)
        if proc.returncode not in (0, 10, 20):
            raise SolverError(
                f"{argv[0]} exited with code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        try:
            result = parse_dimacs_result(proc.stdout)
            model = model_from_literals(result.literals, formula.var_count)
        except ValueError as exc:
            raise SolverError(f"{argv[0]}: {exc}") from None
        stats = SolveStats(wall_time=time.monotonic() - start)
        if not result.satisfiable:
            return SolveOutcome(Verdict.UNSAT, stats=stats)
        if not check_model(formula.clauses, model):
            raise SolverError(f"{argv[0]} returned a non-satisfying model")
        return SolveOutcome(Verdict.SAT, model=model, stats=stats)
