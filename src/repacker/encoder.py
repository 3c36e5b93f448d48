"""Translation of repacking problems into CNF, and back out of models.

Variable layout per station: one "cleared" variable plus one variable per
retained channel. Reserved channels stay in the layout (the channel count is
defined over the retained slice) and are blocked for every station by unit
clauses. Cardinality caps use the sequential-counter encoding, and the
DMA-count cap introduces one indicator variable per DMA that is true exactly
when some station of that DMA is cleared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence, TextIO

from .instance import ChannelAssignment, ChannelPlan, ConstraintKind, Instance, RepackProblem
from .util import gc_paused


class EncodingError(ValueError):
    """Malformed formula, var map, or solver model."""


class VarPool:
    """Allocates fresh 1-based CNF variable indices."""

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    @property
    def count(self) -> int:
        return self._next - 1


@dataclass
class VarMap:
    """Bidirectional map between semantic variables and CNF indices."""

    assign: dict[tuple[str, int], int] = field(default_factory=dict)
    cleared: dict[str, int] = field(default_factory=dict)
    dma_any_clearing: dict[int, int] = field(default_factory=dict)
    var_count: int = 0

    def names(self) -> dict[int, str]:
        out: dict[int, str] = {}
        for (sid, ch), v in self.assign.items():
            out[v] = f"assign:{sid}:{ch}"
        for sid, v in self.cleared.items():
            out[v] = f"cleared:{sid}"
        for dma, v in self.dma_any_clearing.items():
            out[v] = f"dma_any_clearing:{dma}"
        return out

    def to_json_dict(self) -> dict:
        named = self.names()
        return {
            "var_count": self.var_count,
            "vars": {str(v): named[v] for v in sorted(named)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VarMap":
        vm = cls(var_count=int(data["var_count"]))
        for idx_text, name in data["vars"].items():
            idx = int(idx_text)
            kind, _, rest = name.partition(":")
            if kind == "assign":
                sid, _, ch = rest.rpartition(":")
                vm.assign[(sid, int(ch))] = idx
            elif kind == "cleared":
                vm.cleared[rest] = idx
            elif kind == "dma_any_clearing":
                vm.dma_any_clearing[int(rest)] = idx
            else:
                raise EncodingError(f"unknown variable name {name!r}")
        return vm


@dataclass(frozen=True)
class CnfFormula:
    var_count: int
    clauses: tuple[tuple[int, ...], ...]
    var_map: Optional[VarMap] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        _check_clauses(self.clauses, self.var_count)

    @classmethod
    def _prechecked(
        cls, var_count: int, clauses: tuple[tuple[int, ...], ...], var_map: VarMap
    ) -> "CnfFormula":
        """Wrap clause tuples whose literals the caller has already range-checked."""
        formula = object.__new__(cls)
        object.__setattr__(formula, "var_count", var_count)
        object.__setattr__(formula, "clauses", clauses)
        object.__setattr__(formula, "var_map", var_map)
        return formula

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def _check_clauses(clauses: Sequence[Sequence[int]], var_count: int) -> None:
    """Raise :class:`EncodingError` for an empty clause or a literal outside
    ``±1..var_count``, naming the first one in clause order."""
    literals = set(chain.from_iterable(clauses))  # one C-level pass; few distinct values
    if all(clauses) and min(literals, default=0) >= -var_count and (
        max(literals, default=0) <= var_count and 0 not in literals
    ):
        return
    for clause in clauses:
        if not clause:
            raise EncodingError("empty clause")
        for lit in clause:
            if lit == 0 or abs(lit) > var_count:
                raise EncodingError(f"literal {lit} outside 1..{var_count}")


def at_most_true(
    variables: Sequence[int], k: int, pool: VarPool
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Clauses forcing at most ``k`` of ``variables`` to be true.

    Sequential-counter encoding (Sinz 2005): register s[i][j] means "at least
    j of the first i variables are true". Returns the clause list and the
    fresh auxiliary variables it allocated. Projected onto ``variables``, the
    satisfying assignments are exactly those with at most ``k`` true.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not variables:
        raise ValueError("variables must be non-empty")
    n = len(variables)
    if k >= n:
        return [], []
    if k == 0:
        return [(-v,) for v in variables], []

    # s[i][j], 0-based: counter register for prefix i+1 and count j+1.
    s = [[pool.fresh() for _ in range(k)] for _ in range(n - 1)]
    aux = [v for row in s for v in row]
    clauses: list[tuple[int, ...]] = []
    clauses.append((-variables[0], s[0][0]))
    for j in range(1, k):
        clauses.append((-s[0][j],))
    for i in range(1, n - 1):
        xi = variables[i]
        clauses.append((-xi, s[i][0]))
        clauses.append((-s[i - 1][0], s[i][0]))
        for j in range(1, k):
            clauses.append((-xi, -s[i - 1][j - 1], s[i][j]))
            clauses.append((-s[i - 1][j], s[i][j]))
        clauses.append((-xi, -s[i - 1][k - 1]))
    clauses.append((-variables[n - 1], -s[n - 2][k - 1]))
    return clauses, aux


@dataclass(frozen=True, eq=False)
class _Base:
    """The part of an encoding that depends on neither ``must_repack`` nor the caps.

    ``clauses`` encode every station as free to clear. ``repacked`` maps each
    station to the position of its at-least-one clause and the clauses that
    take its place when the station must be repacked.
    """

    instance: Instance
    plan: ChannelPlan
    use_domain: bool
    var_map: VarMap
    clauses: tuple[tuple[int, ...], ...]
    repacked: dict[str, tuple[int, tuple[tuple[int, ...], ...]]]


# The base of the last encoding in this process. Monte Carlo draws and
# min-search probes re-encode one instance and plan many times over; each
# process (a pool worker too) builds its own on its first call.
_last_base: Optional[_Base] = None


def _base_for(problem: RepackProblem) -> _Base:
    global _last_base
    base = _last_base
    if not (
        base is not None
        and base.instance is problem.instance
        and base.plan == problem.channel_plan
        and base.use_domain == problem.use_domain_constraints
    ):
        _last_base = None  # free the old clauses before building the new ones
        with gc_paused():
            base = _build_base(problem.instance, problem.channel_plan, problem.use_domain_constraints)
        _last_base = base
    return base


def _build_base(inst: Instance, plan: ChannelPlan, use_domain: bool) -> _Base:
    channels = plan.channels
    count, width = len(channels), len(channels) + 1
    ids = inst.station_ids
    # Station i owns the block of variables i*width + 1 (cleared) through
    # i*width + width, and channels[p] is variable i*width + 2 + p.
    position = {ch: p for p, ch in enumerate(channels)}
    vm = VarMap(
        assign={(sid, ch): i * width + 2 + p
                for i, sid in enumerate(ids) for p, ch in enumerate(channels)},
        cleared={sid: i * width + 1 for i, sid in enumerate(ids)},
        var_count=len(ids) * width,
    )

    clauses: list[tuple[int, ...]] = []
    repacked: dict[str, tuple[int, tuple[tuple[int, ...], ...]]] = {}

    # Exactly-one slot per station. A must-repack station loses the cleared
    # slot from its at-least-one clause; with no channels left it cannot be
    # placed at all.
    for i, sid in enumerate(ids):
        cleared = i * width + 1
        slots = tuple(range(cleared + 1, cleared + width))
        repacked[sid] = (len(clauses), (slots,) if slots else ((cleared,), (-cleared,)))
        clauses.append((cleared, *slots))
        clauses.extend(combinations(range(-cleared, -cleared - width, -1), 2))

    # Pairwise interference over actual channels, as (position of a's
    # channel, position of b's channel) pairs: ADJ_UP rules out
    # channel(a) == channel(b) + 1 and ADJ_DOWN channel(a) == channel(b) - 1,
    # each vacuous where the neighbouring channel is not retained.
    adjacent = {
        ConstraintKind.ADJ_UP: [(position[ch + 1], p) for p, ch in enumerate(channels)
                                if ch + 1 in position],
        ConstraintKind.ADJ_DOWN: [(position[ch - 1], p) for p, ch in enumerate(channels)
                                  if ch - 1 in position],
    }
    index = inst.station_index
    for ic in inst.sorted_interference:
        a, b = index[ic.a] * width + 2, index[ic.b] * width + 2
        if ic.kind is ConstraintKind.CO:
            clauses.extend(zip(range(-a, -a - count, -1), range(-b, -b - count, -1)))
        else:
            clauses.extend([(-a - pa, -b - pb) for pa, pb in adjacent[ic.kind]])

    # Channel prohibitions: reserved channels for everyone, then per-station rows.
    flagged = [p for p, ch in enumerate(channels) if ch in plan.flagged]
    for i in range(len(ids)):
        clauses.extend((-(i * width + 2 + p),) for p in flagged)
    if use_domain:
        for dc in inst.sorted_domain:
            if dc.channel in position and dc.channel not in plan.flagged:
                clauses.append((-(index[dc.station] * width + 2 + position[dc.channel]),))

    # The must-repack replacements reuse literals of the at-least-one clauses.
    _check_clauses(clauses, vm.var_count)
    return _Base(inst, plan, use_domain, vm, tuple(clauses), repacked)


def encode(problem: RepackProblem) -> CnfFormula:
    """Encode a repacking problem as CNF.

    Per station: exactly one of {cleared, channel...} holds, with the cleared
    slot ruled out for must-repack stations. Interference clauses range over
    actual channels only; two cleared stations never conflict. Domain rows are
    dropped when the problem ignores domain constraints, but reserved-channel
    prohibitions always apply.

    Everything but the must-repack clauses and the caps is built once for the
    last (instance, channel plan, domain flag) encoded in this process, and
    copied on each later call with the same three.
    """
    inst = problem.instance
    base = _base_for(problem)
    clauses = list(base.clauses)
    # From the back, so a two-clause replacement leaves earlier positions put.
    for pos, repl in sorted((base.repacked[sid] for sid in problem.must_repack), reverse=True):
        clauses[pos:pos + 1] = repl
    added = len(clauses)
    pool = VarPool(start=base.var_map.var_count + 1)
    vm = VarMap(assign=dict(base.var_map.assign), cleared=dict(base.var_map.cleared))

    # Cardinality caps.
    cleared_vars = [vm.cleared[sid] for sid in inst.station_ids]
    if problem.max_cleared_nationwide is not None:
        extra, _ = at_most_true(cleared_vars, problem.max_cleared_nationwide, pool)
        clauses.extend(extra)
    for dma in sorted(problem.dma_caps):
        members = inst.dma_members.get(dma, ())
        if not members:
            continue
        extra, _ = at_most_true([vm.cleared[sid] for sid in members], problem.dma_caps[dma], pool)
        clauses.extend(extra)

    if problem.max_dmas_with_clearing is not None:
        for dma in sorted(inst.dmas):
            vm.dma_any_clearing[dma] = pool.fresh()
        for dma in sorted(inst.dmas):
            y = vm.dma_any_clearing[dma]
            members = inst.dma_members.get(dma, ())
            for sid in members:
                clauses.append((-vm.cleared[sid], y))
            clauses.append(tuple(vm.cleared[sid] for sid in members) + (-y,))
        extra, _ = at_most_true(
            [vm.dma_any_clearing[dma] for dma in sorted(inst.dmas)],
            problem.max_dmas_with_clearing,
            pool,
        )
        clauses.extend(extra)

    vm.var_count = pool.count
    _check_clauses(clauses[added:], pool.count)
    return CnfFormula._prechecked(pool.count, tuple(clauses), vm)


def decode(formula: CnfFormula, model: Sequence[bool]) -> ChannelAssignment:
    """Read a channel assignment out of a satisfying model.

    The model must assign every variable (index 0 unused). A station with
    anything other than exactly one true slot signals an encoder bug.
    """
    if formula.var_map is None:
        raise EncodingError("formula carries no variable map")
    vm = formula.var_map
    if len(model) != formula.var_count + 1:
        raise EncodingError(
            f"model covers {len(model) - 1} variables, formula has {formula.var_count}"
        )
    channels: dict[str, Optional[int]] = {}
    per_station: dict[str, list[Optional[int]]] = {sid: [] for sid in vm.cleared}
    for sid, v in vm.cleared.items():
        if model[v]:
            per_station[sid].append(None)
    for (sid, ch), v in vm.assign.items():
        if model[v]:
            per_station[sid].append(ch)
    for sid, slots in per_station.items():
        if len(slots) != 1:
            raise EncodingError(f"station {sid} has {len(slots)} true slots in the model")
        channels[sid] = slots[0]
    return ChannelAssignment(channels=channels)


def export_dimacs(formula: CnfFormula, sink: TextIO) -> None:
    """Write the formula in DIMACS CNF format."""
    sink.write(f"p cnf {formula.var_count} {formula.clause_count}\n")
    for clause in formula.clauses:
        sink.write(" ".join(str(lit) for lit in clause))
        sink.write(" 0\n")


@dataclass(frozen=True)
class ExternalResult:
    satisfiable: bool
    literals: tuple[int, ...] = ()


_STATUS_RE = re.compile(r"^s\s+(SATISFIABLE|UNSATISFIABLE|UNKNOWN)\s*$")


def parse_dimacs_result(text: str) -> ExternalResult:
    """Parse standard SAT-solver output (``s`` status line plus ``v`` lines)."""
    status: Optional[bool] = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        m = _STATUS_RE.match(line)
        if m:
            if status is not None:
                raise ValueError("multiple status lines in solver output")
            if m.group(1) == "UNKNOWN":
                raise ValueError("solver reported s UNKNOWN")
            status = m.group(1) == "SATISFIABLE"
            continue
        if line.startswith("v"):
            for tok in line[1:].split():
                lit = int(tok)
                if lit != 0:
                    literals.append(lit)
            continue
        if line in ("SAT", "SATISFIABLE"):
            status = True
        elif line in ("UNSAT", "UNSATISFIABLE"):
            status = False
    if status is None:
        raise ValueError("no status line found in solver output")
    if status and not literals:
        raise ValueError("satisfiable result without a model")
    return ExternalResult(satisfiable=status, literals=tuple(literals))


def model_from_literals(literals: Iterable[int], var_count: int) -> tuple[bool, ...]:
    """Build a full model vector; unmentioned variables default to false."""
    model = [False] * (var_count + 1)
    for lit in literals:
        v = abs(lit)
        if v == 0 or v > var_count:
            raise ValueError(f"literal {lit} outside 1..{var_count}")
        model[v] = lit > 0
    return tuple(model)
