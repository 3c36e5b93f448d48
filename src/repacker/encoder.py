"""Translation of repacking problems into CNF, and back out of models.

Variable layout per station: one "cleared" variable plus one variable per
retained channel. Reserved channels stay in the layout (the channel count is
defined over the retained slice) and are blocked for every station by unit
clauses. Cardinality caps use the sequential-counter encoding, and the
DMA-count cap introduces one indicator variable per DMA that is true exactly
when some station of that DMA is cleared. A formula keeps each cap as a
record and generates its clauses on each read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .instance import _FORBIDDEN_OFFSET, ChannelAssignment, ChannelPlan, Instance, RepackProblem


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

    def block(self, count: int) -> range:
        """``count`` fresh consecutive indices."""
        start = self._next
        self._next += count
        self.neg.extend(range(-start, -self._next, -1))
        return range(start, self._next)

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
    """A CNF formula over variables ``1..var_count``."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]
    var_map: Optional[VarMap] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        _check_clauses(self.clauses, self.var_count)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        """The clauses in DIMACS order."""
        return iter(self.clauses)

    def folded(self) -> tuple[Sequence[tuple[int, ...]], Iterable[tuple[int, ...]]]:
        """The formula as the embedded solver folds it: an encoded formula's
        implication table (none here), then the clauses outside it, in the
        order a fold of all of :attr:`clauses` meets them."""
        return (), self.clauses


@dataclass(frozen=True, eq=False)
class _EncodedFormula:
    """A formula :func:`encode` built for a problem whose stations have
    channels to take, kept as the embedded solver reads it.

    :func:`_build_base` builds the formula of the unconstrained problem (no
    must-repack station, no cap), and :func:`encode` derives the others from
    it with their own ``firsts`` (each station's at-least-one clause), caps
    and ``neg`` (``neg[v]`` is the int object ``-v``). ``table[-v]`` holds the
    negative literals that ``-v`` implies through the binary clauses of
    :func:`_base_clauses`, in their order; ``units`` are its unit clauses and
    ``base_count`` counts its clauses. No clause is stored: reading them
    generates them, and neither ``repr`` nor ``==`` reads them. Nothing
    writes the table, so threads share it and a forked child inherits it.
    """

    var_count: int
    var_map: VarMap
    instance: Instance
    plan: ChannelPlan
    use_domain: bool
    table: tuple[tuple[int, ...], ...]
    units: tuple[tuple[int, ...], ...]
    base_count: int
    firsts: tuple[tuple[int, ...], ...]
    caps: tuple[_Cap, ...]
    neg: list[int]

    def __repr__(self) -> str:
        return f"<encoded formula: {self.var_count} vars, {self.clause_count} clauses>"

    @property
    def clause_count(self) -> int:
        return self.base_count + sum(cap.clause_count for cap in self.caps)

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        """The clauses in DIMACS order, generated one by one."""
        return chain(
            _base_clauses(self.instance, self.plan, self.use_domain, self.neg, self.firsts),
            _cap_clauses(self.caps, self.neg),
        )

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.iter_clauses())

    def folded(self) -> tuple[Sequence[tuple[int, ...]], Iterable[tuple[int, ...]]]:
        """The implication table, then the at-least-one clauses, the units
        and the cap clauses. In a fold of all of :attr:`clauses`, a negative
        station literal's watch list holds its table entries first, then
        what the caps add."""
        return self.table, chain(self.firsts, self.units, _cap_clauses(self.caps, self.neg))


def _check_clauses(clauses: Iterable[Sequence[int]], var_count: int) -> None:
    """Raise :class:`EncodingError` for an empty clause or a literal outside
    ``±1..var_count``, naming the first one in clause order."""
    for clause in clauses:
        if not clause:
            raise EncodingError("empty clause")
        for lit in clause:
            if lit == 0 or abs(lit) > var_count:
                raise EncodingError(f"literal {lit} outside 1..{var_count}")


class _Cap(NamedTuple):
    """A cardinality cap, kept as what its clauses are generated from.

    At most ``k`` of ``counted`` are true, through a sequential counter whose
    :attr:`registers` variables start at ``first``. With ``groups``, each
    counted variable is an indicator, and the clauses making it true exactly
    when a variable of its group is come before the counter's.
    """

    counted: tuple[int, ...]
    k: int
    first: int
    groups: tuple[tuple[int, ...], ...] = ()

    @property
    def registers(self) -> int:
        n = len(self.counted)
        return (n - 1) * self.k if self.k < n else 0

    @property
    def clause_count(self) -> int:
        n, k = len(self.counted), self.k
        counter = 0 if k >= n else n if k == 0 else 2 * k * n - 3 * k + n - 1
        return counter + sum(len(group) + 1 for group in self.groups)


def _cap_runs(caps: Iterable[_Cap], neg: Sequence[int]) -> Iterator[Iterable[tuple[int, ...]]]:
    """The clauses of ``caps`` in encoding order, as runs of clauses.

    The counter is Sinz's sequential counter (CP 2005): register s[i][j],
    variable ``first + i*k + j``, means "at least j+1 of the first i+1
    counted variables are true". ``neg[v]`` is ``-v``; each counter row's
    positive registers are one list, so within a read every literal value is
    one int object. A row's clauses are C-level zips over slices of those
    tables."""
    for counted, k, first, groups in caps:
        for group, y in zip(groups, counted):
            yield zip(map(neg.__getitem__, group), repeat(y))
            yield ((*group, neg[y]),)
        n = len(counted)
        if k >= n:
            continue
        nx = [neg[v] for v in counted]
        if k == 0:
            yield zip(nx)
            continue
        negs = neg[first:first + (n - 1) * k]
        yield ((nx[0], first),)
        yield zip(negs[1:k])
        for i in range(1, n - 1):
            x, prev = nx[i], negs[(i - 1) * k:i * k]
            row = list(range(first + i * k, first + (i + 1) * k))
            rest = row[1:]
            yield ((x, row[0]), (prev[0], row[0]))
            yield chain.from_iterable(zip(zip(repeat(x), prev, rest), zip(prev[1:], rest)))
            yield ((x, prev[-1]),)
        yield ((nx[-1], negs[-1]),)


def _cap_clauses(caps: Iterable[_Cap], neg: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The clauses of ``caps`` in encoding order (see :func:`_cap_runs`)."""
    return chain.from_iterable(_cap_runs(caps, neg))


class _Negated:
    """``-v`` for any index ``v``, and the list of them for a slice: the table
    :func:`_check_caps` generates a faulty record's clauses with."""

    def __getitem__(self, key):
        return [-v for v in range(key.start, key.stop)] if type(key) is slice else -key


def _check_caps(caps: Iterable[_Cap], var_count: int) -> None:
    """Raise what :func:`_check_clauses` raises on the caps' clauses,
    checking only the variables of each record in the common case."""
    for cap in caps:
        counted, k, first, groups = cap
        used = list(chain(*groups, counted if groups or k < len(counted) else ()))
        if cap.registers:
            used += (first, first + cap.registers - 1)
        if used and (min(used) < 1 or max(used) > var_count):
            _check_clauses(_cap_clauses((cap,), _Negated()), var_count)


def at_most_true(
    variables: Sequence[int], k: int, pool: VarPool
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Clauses forcing at most ``k`` of ``variables`` to be true.

    Sequential-counter encoding (Sinz 2005, see :func:`_cap_runs`). Returns
    the clause list and the fresh auxiliary variables it allocated. Projected
    onto ``variables``, the satisfying assignments are exactly those with at
    most ``k`` true. ``variables`` must lie below the pool's next index;
    negative literals come from ``pool.neg``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not variables:
        raise ValueError("variables must be non-empty")
    cap = _Cap(tuple(variables), k, pool.count + 1)
    aux = list(pool.block(cap.registers))
    return list(_cap_clauses((cap,), pool.neg)), aux


def _position_pairs(channels: Sequence[int]) -> dict[int, list[tuple[int, int]]]:
    """Each forbidden offset's clauses between stations ``a`` and ``b`` of a
    conflict row, as (position of a's channel, position of b's channel) pairs
    over the retained ``channels``, in b's channel order; a pair whose channel
    for a is not retained is vacuous and left out."""
    position = {ch: p for p, ch in enumerate(channels)}
    return {
        d: [(position[ch + d], p) for p, ch in enumerate(channels) if ch + d in position]
        for d in _FORBIDDEN_OFFSET.values()
    }


def _base_clauses(
    inst: Instance, plan: ChannelPlan, use_domain: bool, neg: list[int],
    firsts: Sequence[tuple[int, ...]],
) -> Iterator[tuple[int, ...]]:
    """The clauses of an encoded formula but its caps', in DIMACS order:
    each station's at-least-one clause (``firsts[i]``) then its at-most-one
    pairs, the interference pairs, and last the unit prohibitions. Every
    clause but the at-least-one clauses is all-negative, with each literal
    taken from ``neg``."""
    width = len(plan.channels) + 1

    # Exactly-one slot per station.
    for i in range(inst.n):
        cleared = i * width + 1
        yield firsts[i]
        yield from combinations(neg[cleared:cleared + width], 2)

    # Pairwise interference over actual channels.
    pairs = _position_pairs(plan.channels)
    for a, b, d in inst.conflicts:
        a, b = a * width + 2, b * width + 2
        yield from [(neg[a + pa], neg[b + pb]) for pa, pb in pairs[d]]

    yield from _prohibitions(inst, plan, use_domain, neg)


def _prohibitions(
    inst: Instance, plan: ChannelPlan, use_domain: bool, neg: list[int],
) -> Iterator[tuple[int, ...]]:
    """The unit clauses: reserved channels for everyone, then the
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


# The formula of the last unconstrained problem encoded in this process.
# Monte Carlo draws and min-search probes re-encode one instance and plan
# many times over; each process (a pool worker too) builds its own on its
# first call.
_last_base: Optional[_EncodedFormula] = None


def _base_for(problem: RepackProblem) -> _EncodedFormula:
    """The kept base if it fits ``problem``, else a new one (with the caller's GC setting)."""
    global _last_base
    base = _last_base
    if not (
        base is not None
        and base.instance is problem.instance
        and base.plan == problem.channel_plan
        and base.use_domain == problem.use_domain_constraints
    ):
        _last_base = None  # free the old table before building the new one
        base = _build_base(problem.instance, problem.channel_plan, problem.use_domain_constraints)
        _last_base = base
    return base


def _build_base(inst: Instance, plan: ChannelPlan, use_domain: bool) -> _EncodedFormula:
    """The formula of the problem with no must-repack station and no cap,
    built from the instance's conflict table and domain rows without making
    any of its clauses.

    Its table is what a fold of :func:`_base_clauses` gives. A fold meets all
    of a station's at-most-one pairs before any interference pair, and each
    interference row pairs a literal with at most one partner. So a station
    literal's table entry is its block's other literals in block order, then
    its partners in the table's (sorted-row) order."""
    channels = plan.channels
    count, width = len(channels), len(channels) + 1
    var_count = inst.n * width
    neg = [-v for v in range(var_count + 1)]

    # Each row's partner literals, grouped by station and channel position.
    pairs = _position_pairs(channels)
    partners = [[[] for _ in range(count)] for _ in range(inst.n)]
    binary = 0
    for i, j, d in inst.conflicts:
        a, b, at, bt = i * width + 2, j * width + 2, partners[i], partners[j]
        row = pairs[d]
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
    base_count = inst.n * (1 + width * (width - 1) // 2) + binary + len(units)
    return _EncodedFormula(
        var_count, VarMap(inst.station_ids, channels, var_count), inst, plan, use_domain,
        tuple(table), units, base_count, tuple(firsts), (), neg,
    )


def encode(problem: RepackProblem) -> CnfFormula | _EncodedFormula:
    """Encode a repacking problem as CNF.

    Per station: exactly one of {cleared, channel...} holds, with the cleared
    slot ruled out for must-repack stations; with no channels left such a
    station cannot be placed at all. Interference clauses range over actual
    channels only; two cleared stations never conflict. Domain rows are
    dropped when the problem ignores domain constraints, but reserved-channel
    prohibitions always apply.

    The formula of the unconstrained problem (no must-repack station, no cap)
    is built once for the last (instance, channel plan, domain flag) encoded
    in this process, and each call with the same three derives its formula
    from it: only the at-least-one clauses and the caps' records are its own.
    """
    inst = problem.instance
    base = _base_for(problem)
    # Each station's cleared literal starts its at-least-one clause.
    cleared = [first[0] for first in base.firsts]
    index = inst.station_index
    pool = VarPool(start=len(base.neg), neg=list(base.neg))
    caps: list[_Cap] = []

    def cap(counted: Sequence[int], k: int, groups: tuple[tuple[int, ...], ...] = ()) -> None:
        record = _Cap(tuple(counted), k, pool.count + 1, groups)
        pool.block(record.registers)
        caps.append(record)

    if problem.max_cleared_nationwide is not None:
        cap(cleared, problem.max_cleared_nationwide)
    for dma in sorted(problem.dma_caps):
        members = inst.dma_members.get(dma, ())
        if members:
            cap([cleared[index[sid]] for sid in members], problem.dma_caps[dma])
    dma_any_clearing: dict[int, int] = {}
    if problem.max_dmas_with_clearing is not None:
        dmas = sorted(inst.dmas)
        indicators = tuple(pool.block(len(dmas)))
        dma_any_clearing = dict(zip(dmas, indicators))
        groups = tuple(tuple(cleared[index[sid]] for sid in inst.dma_members.get(dma, ()))
                       for dma in dmas)
        cap(indicators, problem.max_dmas_with_clearing, groups)

    _check_caps(caps, pool.count)
    vm = VarMap(inst.station_ids, base.plan.channels, pool.count, dma_any_clearing)
    firsts = list(base.firsts)
    # From the back, so a two-clause replacement leaves earlier positions put.
    must = sorted((index[sid] for sid in problem.must_repack), reverse=True)
    if base.plan.channels:
        for i in must:  # the cleared slot is ruled out
            firsts[i] = firsts[i][1:]
        return replace(base, var_count=pool.count, var_map=vm, firsts=tuple(firsts),
                       caps=tuple(caps), neg=pool.neg)
    # Without channels the base is its at-least-one clauses, each the unit
    # of a cleared literal, and a must-repack station's gains its negation.
    for i in must:
        firsts.insert(i + 1, (pool.neg[cleared[i]],))
    return CnfFormula(pool.count, (*firsts, *_cap_clauses(caps, pool.neg)), vm)


def decode(formula: CnfFormula | _EncodedFormula, model: Sequence[bool]) -> ChannelAssignment:
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


def export_dimacs(formula: CnfFormula | _EncodedFormula, sink: TextIO) -> None:
    """Write the formula in DIMACS CNF format, one clause at a time as
    :meth:`CnfFormula.iter_clauses` generates it."""
    sink.write(f"p cnf {formula.var_count} {formula.clause_count}\n")
    for clause in formula.iter_clauses():
        sink.write(f"{' '.join(map(str, clause))} 0\n")


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
