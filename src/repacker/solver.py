"""Embedded CDCL satisfiability engine, plus an adapter for external solvers.

The engine implements conflict-driven clause learning with two-watched-literal
propagation, first-UIP learning, Luby restarts, and phase saving. Polarity
initialization and decision tie-breaking are randomized from a caller-supplied
seed, so repeated solves of one satisfiable formula sample different models
while any fixed (formula, seed) pair replays identically.

Values and watch lists are indexed by the literal itself. An input binary
clause ``(a, b)``, nearly every clause the encoder emits, is not a clause
object but two implication entries: the int ``b`` among the watches of ``a``
and ``a`` among those of ``b``. Longer clauses and every learnt clause are
lists watched on their first two literals, in the same watch lists, so
propagation visits entries in the order the clauses were added.

The hot path follows MiniSat's layout (Een & Sorensson, SAT 2003):

* a binary implication records as its reason the int of the literal whose
  falsity implied it; a two-literal list is built only for a conflict;
* each watch list is compacted while it is walked, dropping the clauses whose
  watch moved and keeping, after a conflict, every entry not yet visited;
* a VSIDS heap entry is one int packing the activity's IEEE-754 bits, the
  random tie-breaker and the variable, which sorts exactly like the tuple
  ``(-activity, r, v)`` (see :func:`_activity_key`).

None of this changes the search: the engine makes the same decisions,
propagations, conflicts, learnt clauses (literal order included) and rng
draws, and returns the same models, as an engine that keeps one clause list
per binary clause and heap entries as tuples.

Nearly all of an encoded formula's clauses are the all-negative binary
clauses of its base, the formula of the unconstrained problem that the
encoder builds once per process and derives the others from. The engine
reads them from the base's implication table, which every formula of that
base shares (see ``folded()`` of an encoded formula in :mod:`repacker.encoder`),
built once and never written: when a literal becomes false, its table entries
are visited first, then its watch list. A fold of the whole formula puts those
same entries at the head of the same lists, in the same order, where the
search never drops or moves them, so the search is the same.
"""

from __future__ import annotations

import math
import operator
import os
import random
import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence, Union

from .encoder import CnfFormula, export_dimacs, model_from_literals, parse_dimacs_result
from .util import json_field


class SolverError(RuntimeError):
    """An external solver failed to deliver a verdict; never read as one."""


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolveStats:
    """Search counters. ``restarts`` counts the Luby schedule's restarts and
    ``learnts`` the learnt clauses kept (learnt units become level-0
    assignments); neither is written by :meth:`to_json_dict`."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    wall_time: float = 0.0
    restarts: int = 0
    learnts: int = 0

    def to_json_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "SolveStats":
        """Read a record of :meth:`to_json_dict`: exactly its fields, each an integer."""
        names = cls().to_json_dict().keys()
        if json_field(record, dict, "stats").keys() != names:
            raise ValueError(f"stats fields must be {sorted(names)}, got {sorted(record)}")
        return cls(**{name: json_field(record[name], int, name) for name in names})


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


def check_formula(formula: CnfFormula, model: Sequence[bool]) -> bool:
    """``check_model(formula.clauses, model)``, read as the embedded solver
    folds the formula, so an encoded formula's clauses are never built.

    Every implication table entry of a true variable must be a true literal,
    which checks each of the table's binary clauses from both of its ends;
    the clauses outside the table go through :func:`check_model`.
    """
    table, clauses = formula.folded()
    for v in range(1, len(table) + 1):
        if model[v]:
            for lit in table[-v]:
                if model[-lit]:  # every entry is a negative literal
                    return False
    return check_model(clauses, model)


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
_RANDOM_BITS = 53  # random() returns a multiple of 2**-53 in [0, 1)
_ACT_TOP = (1 << 63) - 1  # above the bit pattern of any non-negative float
_float_bytes = struct.Struct("<d").pack


def _activity_key(act: float, v: int, var_bits: int) -> int:
    """The heap key of ``v`` at activity ``act``, without its random part.

    ``key | int(r * 2.0 ** (53 + var_bits))`` sorts exactly like the tuple
    ``(-act, r, v)`` for any ``0 <= r < 1`` that ``random()`` returns and any
    ``v < 2 ** var_bits``: the IEEE-754 bit pattern of a non-negative float
    grows with its value, and the three fields occupy disjoint bit ranges.
    """
    bits = int.from_bytes(_float_bytes(act), "little")
    return ((_ACT_TOP - bits) << (_RANDOM_BITS + var_bits)) | v


class _Engine:
    """One CDCL search over a fixed clause set.

    ``val[lit]`` is True, False or None (free); ``-lit`` indexes from the end
    of the ``2n + 1`` list, as it does in ``watches``, whose list for ``lit``
    is visited when ``lit`` becomes false. A conflict or clause reason holds
    the implied (or first false) literal first; a binary implication's reason
    is the int of the literal whose falsity implied it. ``level`` and
    ``reason`` are read only while their variable is assigned.

    A VSIDS heap entry is one int, ``key[v] | int(r * 2**(53 + var_bits))``,
    that sorts like ``(-activity, r, v)`` (see :func:`_activity_key`);
    ``key[v]`` caches the activity and variable bits and is refreshed on every
    bump. Entries are pushed on every bump and unassignment and never removed;
    a stale entry keeps the activity it was pushed with.

    ``table``, when given, is an encoder base's implication table: for each
    negative literal ``-v`` of its ``len(table)`` variables, the negative
    literals that ``-v`` implies, read before ``watches[-v]`` and never
    written (see ``folded()`` of an encoded formula in :mod:`repacker.encoder`).
    """

    def __init__(
        self, var_count: int, clauses: Iterable[Sequence[int]], seed: int,
        table: Sequence[tuple[int, ...]] = (),
    ) -> None:
        self.nvars = var_count
        self.rng = random.Random(seed)
        self.val: list[Optional[bool]] = [None] * (2 * var_count + 1)
        self.level = [0] * (var_count + 1)
        self.reason: list[Union[None, int, list[int]]] = [None] * (var_count + 1)
        self.phase = [False] + [self.rng.random() < 0.5 for _ in range(var_count)]
        self.activity = [0.0] * (var_count + 1)
        self.var_inc = 1.0
        self.var_bits = var_bits = var_count.bit_length()
        # int(random() * rand_scale) is the random part of a heap key.
        self.rand_scale = scale = float(1 << (_RANDOM_BITS + var_bits))
        zero = _activity_key(0.0, 0, var_bits)
        self.key = [zero | v for v in range(var_count + 1)]
        self.heap: list[int] = [
            self.key[v] | int(self.rng.random() * scale) for v in range(1, var_count + 1)
        ]
        heapify(self.heap)
        self.watches = watches = [[] for _ in range(2 * var_count + 1)]
        self.table = table
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.seen = [False] * (var_count + 1)
        self.stats = SolveStats()
        self.deadline = float("inf")
        self.ok = True

        # Binary clauses (nearly every clause the encoder emits) become two
        # implication entries; longer ones their distinct literals sorted by
        # variable, watched on the first two. Units are assigned at level 0.
        val = self.val
        for clause in clauses:
            if len(clause) == 2:
                a, b = clause
            elif len(clause) == 1:
                a = b = clause[0]
            else:
                lits = sorted(set(clause), key=abs)
                variables = list(map(abs, lits))
                if any(map(operator.eq, variables, variables[1:])):
                    continue  # tautology: x and -x sort next to each other
                if len(lits) > 2:
                    watches[lits[0]].append(lits)
                    watches[lits[1]].append(lits)
                    continue
                if not lits:
                    self.ok = False
                    return
                a, b = lits[0], lits[-1]
            if a != b:
                if a != -b:  # else a tautology
                    watches[a].append(b)
                    watches[b].append(a)
            elif val[a] is None:
                val[a] = True
                val[-a] = False
                self.trail.append(a)
            elif val[a] is False:
                self.ok = False
                return

    def _propagate(self) -> Optional[list[int]]:
        """Propagate the trail from ``qhead``; return a conflict clause or None.

        A false literal's implication table entries come first. Each watch
        list is compacted as it is walked (MiniSat's scheme): a clause whose
        watch moves to another literal is dropped, each kept entry is written
        ``dropped`` slots down, and after a conflict the entries not yet
        visited stay, in order.
        """
        val = self.val
        watches = self.watches
        table = self.table
        low = -len(table)
        level = self.level
        reason = self.reason
        trail = self.trail
        push = trail.append
        lvl = len(self.trail_lim)
        deadline = self.deadline
        qhead = self.qhead
        props = self.stats.propagations
        try:
            while qhead < len(trail):
                false_lit = -trail[qhead]
                qhead += 1
                props += 1
                if props & 8191 == 0 and time.monotonic() > deadline:
                    raise _Timeout
                if low <= false_lit < 0:
                    for first in table[false_lit]:
                        v0 = val[first]
                        if v0:
                            continue
                        if v0 is False:
                            return [first, false_lit]
                        v = -first  # every entry is a negative literal
                        val[first] = True
                        val[v] = False
                        level[v] = lvl
                        reason[v] = false_lit
                        push(first)
                ws = watches[false_lit]
                dropped = 0
                for i, c in enumerate(ws):
                    if type(c) is not list:  # the other literal of a binary clause
                        first = c
                        v0 = val[first]
                        if v0:
                            if dropped:
                                ws[i - dropped] = c
                            continue
                        cause = false_lit
                    else:
                        if c[0] == false_lit:
                            c[0] = c[1]
                            c[1] = false_lit
                        first = c[0]
                        v0 = val[first]
                        if v0:
                            if dropped:
                                ws[i - dropped] = c
                            continue
                        for k in range(2, len(c)):
                            lk = c[k]
                            if val[lk] is not False:
                                c[1] = lk
                                c[k] = false_lit
                                watches[lk].append(c)
                                break
                        else:
                            lk = 0  # no free or true literal: c is unit or conflicting
                        if lk:  # c now watches lk, not false_lit: drop it here
                            dropped += 1
                            continue
                        cause = c
                    if v0 is False:
                        if dropped:
                            del ws[i - dropped : i]
                        return c if type(c) is list else [c, false_lit]
                    val[first] = True
                    val[-first] = False
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = cause
                    push(first)
                    if dropped:
                        ws[i - dropped] = c
                if dropped:
                    del ws[-dropped:]
            return None
        finally:
            self.qhead = qhead
            self.stats.propagations = props

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: the learnt clause, asserting literal first, and
        the level to backjump to. Bumps every variable it marks."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        key = self.key
        heap = self.heap
        rand = self.rng.random
        var_inc = self.var_inc
        var_bits = self.var_bits
        scale = self.rand_scale
        cur_level = len(self.trail_lim)
        learnt: list[int] = [0]
        to_clear: list[int] = []
        path = 0
        index = len(trail) - 1
        v = 0
        while True:
            # A clause reason's first literal is the one it implied; that
            # variable is still marked seen, so only the other literals are
            # read. A binary implication's int reason is the one other literal.
            for q in (confl,) if type(confl) is int else confl:
                u = q if q > 0 else -q
                if not seen[u] and level[u] > 0:
                    seen[u] = True
                    to_clear.append(u)
                    act = activity[u] + var_inc
                    activity[u] = act
                    if act > 1e100:
                        activity[:] = [a * 1e-100 for a in activity]
                        key[:] = [_activity_key(a, w, var_bits) for w, a in enumerate(activity)]
                        var_inc *= 1e-100
                        self.var_inc = var_inc
                        act = activity[u]
                    key[u] = k = _activity_key(act, u, var_bits)
                    heappush(heap, k | int(rand() * scale))
                    if level[u] == cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            seen[v] = False
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            v = abs(p)
            path -= 1
            if path == 0:
                break
            confl = reason[v]  # type: ignore[assignment]
        learnt[0] = -p
        for u in to_clear:
            seen[u] = False
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if level[abs(learnt[i])] > level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backjump(self, target: int) -> None:
        trail = self.trail
        val = self.val
        phase = self.phase
        key = self.key
        heap = self.heap
        rand = self.rng.random
        scale = self.rand_scale
        limit = self.trail_lim[target]
        undone = trail[limit:]
        del trail[limit:]
        for lit in reversed(undone):
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            val[lit] = val[-lit] = None
            heappush(heap, key[v] | int(rand() * scale))
        del self.trail_lim[target:]
        self.qhead = limit

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
        stats = self.stats
        if not self.ok:
            return SolveOutcome(Verdict.UNSAT, stats=stats)
        val = self.val
        level = self.level
        reason = self.reason
        phase = self.phase
        watches = self.watches
        trail = self.trail
        trail_lim = self.trail_lim
        heap = self.heap
        nvars = self.nvars
        vmask = (1 << self.var_bits) - 1
        deadline = self.deadline
        restart_round = 1
        conflicts_left = _luby(restart_round) * _RESTART_BASE
        while True:
            confl = self._propagate()
            if confl is not None:
                stats.conflicts += 1
                if not trail_lim:
                    return SolveOutcome(Verdict.UNSAT, stats=stats)
                learnt, back_level = self._analyze(confl)
                self._backjump(back_level)
                lit = learnt[0]
                if len(learnt) == 1:
                    cause = None
                else:
                    watches[lit].append(learnt)
                    watches[learnt[1]].append(learnt)
                    stats.learnts += 1
                    cause = learnt
                val[lit] = True
                val[-lit] = False
                v = lit if lit > 0 else -lit
                level[v] = back_level
                reason[v] = cause
                trail.append(lit)
                self.var_inc /= _VAR_DECAY
                conflicts_left -= 1
                if conflicts_left <= 0:
                    restart_round += 1
                    stats.restarts += 1
                    conflicts_left = _luby(restart_round) * _RESTART_BASE
                    if trail_lim:
                        self._backjump(0)
                if time.monotonic() > deadline:
                    raise _Timeout
                continue
            if len(trail) == nvars:
                return SolveOutcome(Verdict.SAT, model=(False, *val[1 : nvars + 1]), stats=stats)
            if time.monotonic() > deadline:
                raise _Timeout
            # Decide: every free variable has a heap entry (_backjump re-pushes
            # what it unassigns), and this runs only while some variable is free.
            while True:
                v = heappop(heap) & vmask
                if val[v] is None:
                    break
            stats.decisions += 1
            trail_lim.append(len(trail))
            lit = v if phase[v] else -v
            val[lit] = True
            val[-lit] = False
            level[v] = len(trail_lim)
            reason[v] = None
            trail.append(lit)


#: Wall-time budget of one solve, in seconds, when the caller gives none.
DEFAULT_TIME_BUDGET = 60.0


def _check_time_budget(time_budget: float) -> None:
    """Raise ``ValueError`` unless the budget is positive (NaN is not) and finite."""
    if not time_budget > 0:
        raise ValueError("time_budget must be positive")
    if not math.isfinite(time_budget):
        raise ValueError("time_budget must be finite")


def solve(
    formula: CnfFormula, seed: int = 0, time_budget: float = DEFAULT_TIME_BUDGET
) -> SolveOutcome:
    """Decide satisfiability within a wall-time budget.

    SAT outcomes carry a full model, re-checked against every clause before
    being returned. UNSAT means the conflict analysis derived the empty
    clause; TIMEOUT is a verdict, not an error.

    The engine is built from the formula's ``folded()``: a formula that
    :func:`encode` derived from its base is solved with that base's
    implication table, with the same search as from its clauses.

    It runs with the caller's cyclic garbage collector setting;
    :func:`repacker.driver.check_feasibility` is what pauses the collector.
    """
    _check_time_budget(time_budget)
    table, clauses = formula.folded()
    outcome = _Engine(formula.var_count, clauses, seed, table).run(time_budget)
    if outcome.is_sat:
        assert outcome.model is not None
        if not check_formula(formula, outcome.model):
            raise RuntimeError("internal error: SAT model fails the clause check")
    return outcome


class EmbeddedSolver:
    """Engine facade so drivers can swap in an external solver."""

    solve = staticmethod(solve)


@dataclass
class ExternalSolver:
    """Runs a DIMACS solver command and parses its standard output.

    The command may use ``{cnf}`` and ``{seed}`` placeholders; without a
    ``{cnf}`` placeholder the formula path is appended as the last argument.
    An exit code outside {0, 10, 20}, output without a SAT/UNSAT status,
    ``s UNKNOWN``, a model that gives a variable both polarities, or one that
    fails the clauses raises :class:`SolverError`. The budget is checked as
    in :func:`solve`, before the formula is written.

    The command runs in a session of its own, with its output sent to files.
    The solve ends when the command itself exits, even if something it
    started still holds those files open, and its process group is then
    killed however the call ends, so nothing it started outlives the solve
    (POSIX only). After a normal exit the leader is already reaped, but the
    group's id stays reserved while any member lives.
    """

    command: str

    def solve(
        self, formula: CnfFormula, seed: int = 0, time_budget: float = DEFAULT_TIME_BUDGET
    ) -> SolveOutcome:
        _check_time_budget(time_budget)
        # Imported here, so that importing the package does not load them.
        import shlex
        import signal
        import subprocess
        import tempfile

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
            with (
                open(os.path.join(tmp, "stdout"), "w+b") as out,
                open(os.path.join(tmp, "stderr"), "w+b") as err,
            ):
                with subprocess.Popen(
                    argv, stdout=out, stderr=err, start_new_session=True
                ) as proc:
                    try:
                        proc.wait(timeout=time_budget)
                    except subprocess.TimeoutExpired:
                        stats = SolveStats(wall_time=time.monotonic() - start)
                        return SolveOutcome(Verdict.TIMEOUT, stats=stats)
                    finally:
                        try:
                            os.killpg(proc.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                out.seek(0)
                err.seek(0)
                stdout = out.read().decode("utf-8", "replace")
                stderr = err.read().decode("utf-8", "replace")
        if proc.returncode not in (0, 10, 20):
            raise SolverError(
                f"{argv[0]} exited with code {proc.returncode}: {stderr.strip()[-500:]}"
            )
        try:
            result = parse_dimacs_result(stdout)
            model = model_from_literals(result.literals, formula.var_count)
        except ValueError as exc:
            raise SolverError(f"{argv[0]}: {exc}") from None
        stats = SolveStats(wall_time=time.monotonic() - start)
        if not result.satisfiable:
            return SolveOutcome(Verdict.UNSAT, stats=stats)
        if not check_formula(formula, model):
            raise SolverError(f"{argv[0]} returned a non-satisfying model")
        return SolveOutcome(Verdict.SAT, model=model, stats=stats)
