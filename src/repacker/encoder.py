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
from functools import cached_property
from itertools import chain, combinations, compress
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .instance import ChannelAssignment, ChannelPlan, ConstraintKind, Instance, RepackProblem
from .util import gc_paused


class EncodingError(ValueError):
    """Malformed formula, var map, or solver model."""


class VarPool:
    """Allocates fresh 1-based CNF variable indices.

    ``neg[v]`` is ``-v`` for every index below the next fresh one. Clauses
    that take their negative literals from it hold one int object per
    literal, where negating at each occurrence allocates a new one. A caller
    passing ``neg`` hands over a list holding ``-v`` for each ``v`` below
    ``start``; the pool appends to it.
    """

    def __init__(self, start: int = 1, neg: Optional[list[int]] = None) -> None:
        if neg is not None and len(neg) != start:
            raise ValueError("neg must hold -v for every v below start")
        self._next = start
        self.neg = [-v for v in range(start)] if neg is None else neg

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        self.neg.append(-v)
        return v

    @property
    def count(self) -> int:
        return self._next - 1


@dataclass
class VarMap:
    """The CNF variable layout, and the names of its variables.

    Station ``i`` of ``station_ids`` owns the block ``i*w + 1 .. i*w + w``
    with ``w = len(channels) + 1``: its cleared variable, then one variable
    per channel in ``channels`` order. Cap counters and ``dma_any_clearing``
    indicators follow the blocks. The id-keyed ``assign`` and ``cleared``
    views are built from the layout on first read, per map.
    """

    station_ids: tuple[str, ...] = ()
    channels: tuple[int, ...] = ()
    var_count: int = 0
    dma_any_clearing: dict[int, int] = field(default_factory=dict)

    @cached_property
    def assign(self) -> dict[tuple[str, int], int]:
        w = len(self.channels) + 1
        return {(sid, ch): i * w + 2 + p
                for i, sid in enumerate(self.station_ids) for p, ch in enumerate(self.channels)}

    @cached_property
    def cleared(self) -> dict[str, int]:
        w = len(self.channels) + 1
        return {sid: i * w + 1 for i, sid in enumerate(self.station_ids)}

    def names(self) -> dict[int, str]:
        out = {v: f"assign:{sid}:{ch}" for (sid, ch), v in self.assign.items()}
        out.update((v, f"cleared:{sid}") for sid, v in self.cleared.items())
        out.update((v, f"dma_any_clearing:{dma}") for dma, v in self.dma_any_clearing.items())
        return out

    def to_json_dict(self) -> dict:
        named = self.names()
        return {
            "var_count": self.var_count,
            "vars": {str(v): named[v] for v in sorted(named)},
        }


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables ``1..var_count``.

    ``base`` is set only on the formulas :func:`encode` builds on an encoder
    base (see :class:`_EncodedFormula`). It takes no part in equality, and
    no output writes it.
    """

    var_count: int
    clauses: tuple[tuple[int, ...], ...]
    var_map: Optional[VarMap] = None
    base: Optional[_Base] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        _check_clauses(self.clauses, self.var_count)

    @classmethod
    def _prechecked(cls, var_count: int, var_map: VarMap, **attrs) -> "CnfFormula":
        """A formula whose literals the caller has already range-checked,
        with ``attrs`` set as they are."""
        formula = object.__new__(cls)
        object.__setattr__(formula, "var_count", var_count)
        object.__setattr__(formula, "var_map", var_map)
        for name, value in attrs.items():
            object.__setattr__(formula, name, value)
        return formula

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def folded(self) -> tuple[Sequence[tuple[int, ...]], Iterable[tuple[int, ...]]]:
        """The formula as the embedded solver folds it: an encoder base's
        implication table (none here), then the clauses outside it, in the
        order a fold of all of :attr:`clauses` meets them."""
        return (), self.clauses


class _EncodedFormula(CnfFormula):
    """A formula :func:`encode` built on a :class:`_Base` whose stations have
    channels to take.

    It holds only its own clauses: ``firsts``, each station's at-least-one
    clause after the must-repack replacement (one for one), and ``tail``,
    the clauses of its caps. ``clauses``, the whole formula in base order,
    is built from :func:`_base_clauses` on first read and kept on this
    formula only; the solver and the model check never read it.
    """

    firsts: tuple[tuple[int, ...], ...]
    tail: tuple[tuple[int, ...], ...]

    @cached_property
    def clauses(self) -> tuple[tuple[int, ...], ...]:  # type: ignore[override]
        base = self.base
        return tuple(chain(
            _base_clauses(base.instance, base.plan, base.use_domain, base.neg, self.firsts),
            self.tail,
        ))

    @property
    def clause_count(self) -> int:
        return self.base.clause_count + len(self.tail)

    def folded(self) -> tuple[Sequence[tuple[int, ...]], Iterable[tuple[int, ...]]]:
        """The base's implication table, then this formula's at-least-one
        clauses, the base's units and the tail. In a fold of all of
        :attr:`clauses`, a negative station literal's watch list holds its
        table entries first, then what the tail adds."""
        base = self.base
        return base.table, chain(self.firsts, base.units, self.tail)


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
    ``variables`` must lie below the pool's next index; negative literals
    come from ``pool.neg``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not variables:
        raise ValueError("variables must be non-empty")
    n = len(variables)
    if k >= n:
        return [], []
    neg = pool.neg
    if k == 0:
        return [(neg[v],) for v in variables], []

    # s[i][j], 0-based: counter register for prefix i+1 and count j+1.
    s = [[pool.fresh() for _ in range(k)] for _ in range(n - 1)]
    aux = [v for row in s for v in row]
    clauses: list[tuple[int, ...]] = []
    clauses.append((neg[variables[0]], s[0][0]))
    for j in range(1, k):
        clauses.append((neg[s[0][j]],))
    for i in range(1, n - 1):
        nx, prev, row = neg[variables[i]], s[i - 1], s[i]
        clauses.append((nx, row[0]))
        clauses.append((neg[prev[0]], row[0]))
        for j in range(1, k):
            clauses.append((nx, neg[prev[j - 1]], row[j]))
            clauses.append((neg[prev[j]], row[j]))
        clauses.append((nx, neg[prev[k - 1]]))
    clauses.append((neg[variables[n - 1]], neg[s[n - 2][k - 1]]))
    return clauses, aux


def _position_pairs(channels: Sequence[int]) -> dict[ConstraintKind, list[tuple[int, int]]]:
    """Each interference kind's clauses between stations ``a`` and ``b``, as
    (position of a's channel, position of b's channel) pairs over the
    retained ``channels``: CO rules out a shared channel, ADJ_UP
    channel(a) == channel(b) + 1 and ADJ_DOWN channel(a) == channel(b) - 1,
    each vacuous where the neighbouring channel is not retained."""
    position = {ch: p for p, ch in enumerate(channels)}
    return {
        ConstraintKind.CO: [(p, p) for p in range(len(channels))],
        ConstraintKind.ADJ_UP: [(position[ch + 1], p) for p, ch in enumerate(channels)
                                if ch + 1 in position],
        ConstraintKind.ADJ_DOWN: [(position[ch - 1], p) for p, ch in enumerate(channels)
                                  if ch - 1 in position],
    }


def _base_clauses(
    inst: Instance, plan: ChannelPlan, use_domain: bool, neg: list[int],
    firsts: Optional[Sequence[tuple[int, ...]]] = None,
) -> Iterator[tuple[int, ...]]:
    """The clauses of a :class:`_Base`, in its order: each station's
    at-least-one clause (``firsts[i]``, or all of station ``i``'s variables)
    then its at-most-one pairs, the interference pairs, and last the unit
    prohibitions. Every clause but the at-least-one clauses is all-negative,
    with each literal taken from ``neg``."""
    width = len(plan.channels) + 1

    # Exactly-one slot per station.
    for i in range(inst.n):
        cleared = i * width + 1
        yield tuple(range(cleared, cleared + width)) if firsts is None else firsts[i]
        yield from combinations(neg[cleared:cleared + width], 2)

    # Pairwise interference over actual channels.
    pairs = _position_pairs(plan.channels)
    index = inst.station_index
    for ic in inst.sorted_interference:
        a, b = index[ic.a] * width + 2, index[ic.b] * width + 2
        yield from [(neg[a + pa], neg[b + pb]) for pa, pb in pairs[ic.kind]]

    yield from _prohibitions(inst, plan, use_domain, neg)


def _prohibitions(
    inst: Instance, plan: ChannelPlan, use_domain: bool, neg: list[int],
) -> Iterator[tuple[int, ...]]:
    """A base's unit clauses: reserved channels for everyone, then the
    per-station domain rows on the other retained channels."""
    channels = plan.channels
    width = len(channels) + 1
    position = {ch: p for p, ch in enumerate(channels)}
    flagged = [p for p, ch in enumerate(channels) if ch in plan.flagged]
    for i in range(inst.n):
        for p in flagged:
            yield (neg[i * width + 2 + p],)
    if use_domain:
        index = inst.station_index
        for dc in inst.sorted_domain:
            if dc.channel in position and dc.channel not in plan.flagged:
                yield (neg[index[dc.station] * width + 2 + position[dc.channel]],)


@dataclass(frozen=True, eq=False)
class _Base:
    """The part of an encoding that depends on neither ``must_repack`` nor the
    caps, kept as the embedded solver reads it.

    Its clauses (:func:`_base_clauses`) encode every station as free to
    clear, in :class:`VarMap`'s layout; :func:`_build_base` writes what a
    fold of them gives straight from the instance's rows, and no clause is
    made or stored. ``table[-v]`` holds, for each station variable ``v``,
    the negative literals that ``-v`` implies through the base's binary
    clauses, in base order; ``units`` are its unit prohibitions, ``firsts``
    each station's at-least-one clause, which starts with its cleared
    literal, and ``clause_count`` counts all of them. Nothing writes the
    table after its build, so threads share it and a forked child inherits
    it. Every negative literal is the int object ``neg[v]``.
    """

    instance: Instance
    plan: ChannelPlan
    use_domain: bool
    neg: list[int]
    table: tuple[tuple[int, ...], ...]
    firsts: tuple[tuple[int, ...], ...]
    units: tuple[tuple[int, ...], ...]
    clause_count: int


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
        _last_base = None  # free the old table before building the new one
        with gc_paused():
            base = _build_base(problem.instance, problem.channel_plan, problem.use_domain_constraints)
        _last_base = base
    return base


def _build_base(inst: Instance, plan: ChannelPlan, use_domain: bool) -> _Base:
    """Build a :class:`_Base` from the instance's rows, equal to a fold of
    :func:`_base_clauses` without making any of its clauses.

    A fold meets all of a station's at-most-one pairs before any interference
    pair, and each interference row pairs a literal with at most one partner.
    So a station literal's table entry is its block's other literals in block
    order, then its partners in the rows' sorted order."""
    channels = plan.channels
    count, width = len(channels), len(channels) + 1
    var_count = inst.n * width
    neg = [-v for v in range(var_count + 1)]

    # Each row's partner literals, grouped by station and channel position.
    pairs = _position_pairs(channels)
    partners = [[[] for _ in range(count)] for _ in range(inst.n)]
    index = inst.station_index
    binary = 0
    for ic in inst.sorted_interference:
        i, j = index[ic.a], index[ic.b]
        a, b, at, bt = i * width + 2, j * width + 2, partners[i], partners[j]
        row = pairs[ic.kind]
        for pa, pb in row:
            at[pa].append(neg[b + pb])
            bt[pb].append(neg[a + pa])
        binary += len(row)

    table, firsts = [], []
    for i in range(inst.n):
        cleared = i * width + 1
        block = neg[cleared:cleared + width]
        firsts.append(tuple(range(cleared, cleared + width)))
        table.append(tuple(block[1:]))
        for p, extra in enumerate(partners[i], 1):
            table.append((*block[:p], *block[p + 1:], *extra))
        partners[i] = None  # each station's lists go as its entries come
    table.reverse()  # indexed by negative literals: table[-v] is table[var_count - v]

    units = tuple(_prohibitions(inst, plan, use_domain, neg))
    clause_count = inst.n * (1 + width * (width - 1) // 2) + binary + len(units)
    return _Base(inst, plan, use_domain, neg, tuple(table), tuple(firsts), units, clause_count)


def encode(problem: RepackProblem) -> CnfFormula:
    """Encode a repacking problem as CNF.

    Per station: exactly one of {cleared, channel...} holds, with the cleared
    slot ruled out for must-repack stations; with no channels left such a
    station cannot be placed at all. Interference clauses range over actual
    channels only; two cleared stations never conflict. Domain rows are
    dropped when the problem ignores domain constraints, but reserved-channel
    prohibitions always apply.

    Everything but the must-repack clauses and the caps is built once for the
    last (instance, channel plan, domain flag) encoded in this process, and
    read from there by each later call with the same three: the formula holds
    only its at-least-one clauses and its caps' clauses.
    """
    inst = problem.instance
    base = _base_for(problem)
    # Each station's cleared literal starts its at-least-one clause.
    cleared = [first[0] for first in base.firsts]
    index = inst.station_index
    pool = VarPool(start=len(base.neg), neg=list(base.neg))
    neg = pool.neg
    tail: list[tuple[int, ...]] = []

    # Cardinality caps.
    if problem.max_cleared_nationwide is not None:
        extra, _ = at_most_true(cleared, problem.max_cleared_nationwide, pool)
        tail.extend(extra)
    for dma in sorted(problem.dma_caps):
        members = inst.dma_members.get(dma, ())
        if not members:
            continue
        extra, _ = at_most_true([cleared[index[sid]] for sid in members], problem.dma_caps[dma], pool)
        tail.extend(extra)

    dma_any_clearing: dict[int, int] = {}
    if problem.max_dmas_with_clearing is not None:
        dma_any_clearing = {dma: pool.fresh() for dma in sorted(inst.dmas)}
        for dma, y in dma_any_clearing.items():
            members = [cleared[index[sid]] for sid in inst.dma_members.get(dma, ())]
            tail.extend((neg[v], y) for v in members)
            tail.append((*members, neg[y]))
        extra, _ = at_most_true(list(dma_any_clearing.values()), problem.max_dmas_with_clearing, pool)
        tail.extend(extra)

    _check_clauses(tail, pool.count)
    vm = VarMap(inst.station_ids, base.plan.channels, pool.count, dma_any_clearing)
    firsts = list(base.firsts)
    # From the back, so a two-clause replacement leaves earlier positions put.
    must = sorted((index[sid] for sid in problem.must_repack), reverse=True)
    if base.plan.channels:
        for i in must:  # the cleared slot is ruled out
            firsts[i] = firsts[i][1:]
        return _EncodedFormula._prechecked(
            pool.count, vm, base=base, firsts=tuple(firsts), tail=tuple(tail))
    # Without channels the base is its at-least-one clauses, each the unit
    # of a cleared literal, and a must-repack station's gains its negation.
    for i in must:
        firsts.insert(i + 1, (neg[cleared[i]],))
    return CnfFormula._prechecked(pool.count, vm, clauses=(*firsts, *tail))


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
    width = len(vm.channels) + 1
    slots = (None, *vm.channels)
    channels: dict[str, Optional[int]] = {}
    for i, sid in enumerate(vm.station_ids):
        true = list(compress(slots, model[i * width + 1:i * width + 1 + width]))
        if len(true) != 1:
            raise EncodingError(f"station {sid} has {len(true)} true slots in the model")
        channels[sid] = true[0]
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
    """Build a full model vector; unmentioned variables default to false.

    Raises ``ValueError`` for a literal outside ``±1..var_count`` and for a
    variable given both polarities."""
    model: list[Optional[bool]] = [None] * (var_count + 1)
    for lit in literals:
        v = abs(lit)
        if v == 0 or v > var_count:
            raise ValueError(f"literal {lit} outside 1..{var_count}")
        if model[v] is (lit < 0):
            raise ValueError(f"variable {v} given both polarities")
        model[v] = lit > 0
    return tuple(value is True for value in model)
