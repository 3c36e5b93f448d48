"""CNF encoding, cardinality counters, decoding, and DIMACS interop."""

from __future__ import annotations

import dataclasses
import gc
import io
import itertools
import os
import random
import tracemalloc

import pytest

from repacker import encoder
from repacker.encoder import (
    CnfFormula,
    EncodingError,
    VarMap,
    VarPool,
    _check_clauses,
    at_most_true,
    decode,
    encode,
    export_dimacs,
    model_from_literals,
    parse_dimacs_result,
)
from repacker.instance import ChannelAssignment, ConstraintKind, RepackProblem, validate_assignment
from repacker.participation import ModelSpec, sample
from repacker.solver import solve
from repacker.synthetic import generate_synthetic

from conftest import build_instance, random_problem
from oracles import brute_force_repack
from reference_paths import reference_at_most_true, reference_implications


def project_satisfiable(variables: list[int], k: int, var_count_hint: int = 0) -> set[tuple[bool, ...]]:
    """All assignments of ``variables`` extendable to satisfy at_most_true."""
    pool = VarPool(start=max(variables) + 1)
    clauses, aux = at_most_true(variables, k, pool)
    var_count = max([*variables, *aux, var_count_hint] or [1])
    projected = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        fixed = [
            (v,) if bit else (-v,) for v, bit in zip(variables, bits)
        ]
        formula = CnfFormula(var_count=var_count, clauses=tuple(clauses) + tuple(fixed))
        if solve(formula, seed=0, time_budget=10).is_sat:
            projected.add(bits)
    return projected


class TestAtMostTrue:
    def test_k_zero_forces_all_false(self):
        pool = VarPool(start=4)
        clauses, aux = at_most_true([1, 2, 3], 0, pool)
        assert sorted(clauses) == [(-3,), (-2,), (-1,)]
        assert aux == []

    def test_k_at_least_n_excludes_nothing(self):
        pool = VarPool(start=4)
        clauses, aux = at_most_true([1, 2, 3], 3, pool)
        assert clauses == [] and aux == []
        assert len(project_satisfiable([1, 2, 3], 5)) == 8

    def test_three_vars_k_one_has_four_projections(self):
        projected = project_satisfiable([1, 2, 3], 1)
        assert len(projected) == 4
        assert projected == {bits for bits in itertools.product((False, True), repeat=3) if sum(bits) <= 1}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small(self, n: int):
        variables = list(range(1, n + 1))
        for k in range(n + 1):
            projected = project_satisfiable(variables, k)
            expected = {
                bits for bits in itertools.product((False, True), repeat=n) if sum(bits) <= k
            }
            assert projected == expected, f"n={n} k={k}"

    def test_aux_variables_are_fresh(self):
        pool = VarPool(start=10)
        clauses, aux = at_most_true([1, 2, 3, 4], 2, pool)
        assert min(aux) == 10
        assert len(aux) == 3 * 2
        assert pool.count == 15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            at_most_true([], 1, VarPool())
        with pytest.raises(ValueError):
            at_most_true([1], -1, VarPool(start=2))


class TestEncode:
    def test_single_station_both_outcomes_exist(self):
        inst = build_instance(1, channels=(1, 2))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        formula = encode(prob)
        vm = formula.var_map
        cleared_unit = (vm.cleared["a"],)
        assigned_unit = (vm.assign[("a", 1)],)
        for extra in (cleared_unit, assigned_unit):
            forced = CnfFormula(
                var_count=formula.var_count, clauses=formula.clauses + (extra,), var_map=vm
            )
            assert solve(forced, seed=0).is_sat

    def test_pigeonhole_clique_unsat(self):
        inst = build_instance(3, channels=(1, 2, 3), co_pairs=(("a", "b"), ("a", "c"), ("b", "c")))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6, must_repack=frozenset(inst.station_ids)
        )
        assert len(prob.channel_plan.channels) == 2
        assert solve(encode(prob), seed=3).is_unsat

    def test_must_repack_station_never_cleared(self):
        inst = build_instance(2, channels=(1, 2, 3))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6, must_repack=frozenset({"a"}))
        formula = encode(prob)
        outcome = solve(formula, seed=7)
        assignment = decode(formula, outcome.model)
        assert assignment.channels["a"] is not None

    def test_domain_rows_dropped_when_disabled(self):
        inst = build_instance(1, channels=(1, 2), domain=(("a", 1),))
        with_domain = encode(RepackProblem(instance=inst, clearing_target_mhz=6))
        without = encode(
            RepackProblem(instance=inst, clearing_target_mhz=6, use_domain_constraints=False)
        )
        assert with_domain.clause_count == without.clause_count + 1

    def test_reserved_channel_blocked_even_without_domain(self):
        inst = build_instance(1, channels=(1, 2, 3), forbidden=frozenset({1}))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=6, use_domain_constraints=False,
            must_repack=frozenset({"a"}),
        )
        formula = encode(prob)
        outcome = solve(formula, seed=0)
        assert outcome.is_sat
        assert decode(formula, outcome.model).channels["a"] == 2

    def test_encoding_is_deterministic(self):
        inst = generate_synthetic(8, co_density=0.3, adj_density=0.2, domain_density=0.1, seed=9)
        p = RepackProblem(
            instance=inst, clearing_target_mhz=12, max_cleared_nationwide=3,
            dma_caps={1: 1}, max_dmas_with_clearing=2,
        )
        f1, f2 = encode(p), encode(p)
        assert f1.var_count == f2.var_count
        assert f1.clauses == f2.clauses

    def test_verdicts_match_brute_force_quick(self, rng: random.Random):
        # The acceptance suite runs the full 500-instance version.
        for _ in range(60):
            prob = random_problem(rng, max_n=8, max_c=4)
            formula = encode(prob)
            outcome = solve(formula, seed=11, time_budget=30)
            oracle = brute_force_repack(prob)
            assert outcome.is_sat == (oracle is not None)
            if outcome.is_sat:
                assert validate_assignment(prob, decode(formula, outcome.model)) == []

    def test_adjacency_clauses_omitted_at_band_edge(self):
        # Channels (1, 2) remain after the 6 MHz target clears channel 3.
        inst = build_instance(2, channels=(1, 2, 3), adj_up=(("a", "b"),))
        formula = encode(RepackProblem(instance=inst, clearing_target_mhz=6))
        vm = formula.var_map
        adj_clauses = [
            c for c in formula.clauses
            if set(c) == {-vm.assign[("a", 2)], -vm.assign[("b", 1)]}
        ]
        # Only channel 1 has a successor in the band, so exactly one clause.
        assert len(adj_clauses) == 1

    def test_no_channels_left_with_must_repack_is_unsat(self):
        inst = build_instance(2, channels=(1, 2))
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=12, must_repack=frozenset({"a"})
        )
        assert len(prob.channel_plan.channels) == 0
        assert solve(encode(prob), seed=0).is_unsat
        # Without the must-repack requirement, clearing everyone works.
        free = RepackProblem(instance=inst, clearing_target_mhz=12)
        assert solve(encode(free), seed=0).is_sat

    def test_dma_count_cap_semantics(self):
        # Two 3-cliques in two DMAs on two counted channels force clearing in
        # both DMAs; a cap of 1 DMA is unsatisfiable, 2 is satisfiable.
        inst = build_instance(
            6,
            channels=(1, 2, 3),
            co_pairs=(("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f")),
            dma_of={"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2},
        )
        def prob(d):
            return RepackProblem(
                instance=inst, clearing_target_mhz=6, max_dmas_with_clearing=d
            )
        assert solve(encode(prob(1)), seed=0).is_unsat
        assert solve(encode(prob(2)), seed=0).is_sat


def reference_encode(problem: RepackProblem) -> CnfFormula:
    """The encoder as one pass that builds every clause on every call.

    ``encode`` reuses the part that depends on neither ``must_repack`` nor
    the caps; its output must equal this clause for clause.
    """
    inst = problem.instance
    plan = problem.channel_plan
    channels = plan.channels
    channel_set = set(channels)
    pool = VarPool()
    vm = VarMap()

    for sid in inst.station_ids:
        vm.cleared[sid] = pool.fresh()
        for ch in channels:
            vm.assign[(sid, ch)] = pool.fresh()

    clauses: list[tuple[int, ...]] = []

    # Exactly-one slot per station.
    for sid in inst.station_ids:
        slots = [vm.assign[(sid, ch)] for ch in channels]
        if sid in problem.must_repack:
            if slots:
                clauses.append(tuple(slots))
            else:
                # No channels left: the station cannot be placed at all.
                clauses.append((vm.cleared[sid],))
                clauses.append((-vm.cleared[sid],))
        else:
            clauses.append((vm.cleared[sid], *slots))
        all_slots = [vm.cleared[sid], *slots]
        for p in range(len(all_slots)):
            for q in range(p + 1, len(all_slots)):
                clauses.append((-all_slots[p], -all_slots[q]))

    # Pairwise interference over actual channels.
    for ic in inst.sorted_interference:
        if ic.kind is ConstraintKind.CO:
            for ch in channels:
                clauses.append((-vm.assign[(ic.a, ch)], -vm.assign[(ic.b, ch)]))
        elif ic.kind is ConstraintKind.ADJ_UP:
            for ch in channels:
                if ch + 1 in channel_set:
                    clauses.append((-vm.assign[(ic.a, ch + 1)], -vm.assign[(ic.b, ch)]))
        else:
            for ch in channels:
                if ch - 1 in channel_set:
                    clauses.append((-vm.assign[(ic.a, ch - 1)], -vm.assign[(ic.b, ch)]))

    # Channel prohibitions: reserved channels for everyone, then per-station rows.
    for sid in inst.station_ids:
        for ch in channels:
            if ch in plan.flagged:
                clauses.append((-vm.assign[(sid, ch)],))
    if problem.use_domain_constraints:
        for dc in inst.sorted_domain:
            if dc.channel in channel_set and dc.channel not in plan.flagged:
                clauses.append((-vm.assign[(dc.station, dc.channel)],))

    # Cardinality caps.
    cleared_vars = [vm.cleared[sid] for sid in inst.station_ids]
    if problem.max_cleared_nationwide is not None:
        extra, _ = reference_at_most_true(cleared_vars, problem.max_cleared_nationwide, pool)
        clauses.extend(extra)
    for dma in sorted(problem.dma_caps):
        members = inst.dma_members.get(dma, ())
        if not members:
            continue
        extra, _ = reference_at_most_true(
            [vm.cleared[sid] for sid in members], problem.dma_caps[dma], pool)
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
        extra, _ = reference_at_most_true(
            [vm.dma_any_clearing[dma] for dma in sorted(inst.dmas)],
            problem.max_dmas_with_clearing,
            pool,
        )
        clauses.extend(extra)

    vm.var_count = pool.count
    return CnfFormula(var_count=pool.count, clauses=tuple(clauses), var_map=vm)


def gapped_problem(rng: random.Random) -> RepackProblem:
    """A problem on a universe with holes and up to two reserved channels."""
    n = rng.randint(1, 7)
    ids = [chr(ord("a") + i) for i in range(n)]
    channels = tuple(sorted(rng.sample(range(1, 16), rng.randint(2, 9))))
    forbidden = frozenset(rng.sample(channels, rng.randint(0, min(2, len(channels) - 1))))
    ordered = [(a, b) for a in ids for b in ids if a != b]
    domain = {(sid, ch) for sid in ids for ch in channels if rng.random() < 0.2}
    if rng.random() < 0.3:
        domain |= {(rng.choice(ids), ch) for ch in channels}  # a station with no channel
    inst = build_instance(
        n, channels=channels, forbidden=forbidden,
        co_pairs=tuple((a, b) for a, b in ordered if a < b and rng.random() < 0.3),
        adj_up=tuple(pair for pair in ordered if rng.random() < 0.15),
        adj_down=tuple(pair for pair in ordered if rng.random() < 0.15),
        domain=tuple(sorted(domain)),
    )
    slots = rng.randint(1, len(channels) - len(forbidden))
    return RepackProblem(
        instance=inst, clearing_target_mhz=6 * slots,
        use_domain_constraints=rng.random() < 0.7,
        must_repack=frozenset(sid for sid in ids if rng.random() < 0.4),
        max_cleared_nationwide=rng.choice((None, rng.randint(0, n))),
    )


def formula_key(formula: CnfFormula) -> tuple:
    vm = formula.var_map
    return (formula.var_count, formula.clauses, vm.var_count, tuple(vm.names().items()))


def assert_matches_reference(problem: RepackProblem) -> None:
    got, expected = encode(problem), reference_encode(problem)
    assert type(got.clauses) is tuple and all(type(c) is tuple for c in got.clauses)
    assert formula_key(got) == formula_key(expected)


class TestEncodeMatchesReference:
    def test_random_problems(self):
        rng = random.Random(808)
        shapes = {"must-repack": 0, "nationwide": 0, "dma": 0, "dma-count": 0,
                  "domain-on": 0, "domain-off": 0, "reserved-in-band": 0}
        for _ in range(300):
            prob = random_problem(rng, max_n=10, max_c=5)
            # Encode the instance and plan at random must-repack subsets too,
            # so the reused part serves several draws.
            subsets = [prob.must_repack] + [
                frozenset(sid for sid in prob.instance.station_ids if rng.random() < p)
                for p in (0.0, 0.5, 1.0)
            ]
            for must_repack in subsets:
                assert_matches_reference(dataclasses.replace(prob, must_repack=must_repack))
            shapes["must-repack"] += bool(prob.must_repack)
            shapes["nationwide"] += prob.max_cleared_nationwide is not None
            shapes["dma"] += bool(prob.dma_caps)
            shapes["dma-count"] += prob.max_dmas_with_clearing is not None
            shapes["domain-on"] += prob.use_domain_constraints and bool(prob.instance.domain)
            shapes["domain-off"] += not prob.use_domain_constraints
            shapes["reserved-in-band"] += bool(prob.channel_plan.flagged)
        assert min(shapes.values()) >= 20, shapes  # every shape was exercised

    def test_no_channels_left(self):
        inst = build_instance(4, channels=(1, 2), co_pairs=(("a", "b"),), domain=(("c", 1),))
        for must_repack in (frozenset(), frozenset({"b"}), frozenset({"a", "d"}), frozenset("abcd")):
            prob = RepackProblem(
                instance=inst, clearing_target_mhz=12, must_repack=must_repack,
                max_cleared_nationwide=3, dma_caps={1: 1}, max_dmas_with_clearing=1,
            )
            assert len(prob.channel_plan.channels) == 0
            assert_matches_reference(prob)

    def test_alternating_instances_targets_and_domain_flag(self):
        rng = random.Random(99)
        instances = [
            generate_synthetic(9, channel_count=6, co_density=0.3, adj_density=0.2,
                               domain_density=0.3, forbidden_channels=(15,), seed=seed)
            for seed in (1, 2)
        ]
        combos = [
            (inst, target, use_domain)
            for inst in instances for target in (6, 12) for use_domain in (True, False)
        ]
        # Every key component changes the formula, so a cache that ignored one
        # of them would hand back the wrong clauses.
        distinct = {formula_key(reference_encode(RepackProblem(
            instance=i, clearing_target_mhz=t, use_domain_constraints=d))) for i, t, d in combos}
        assert len(distinct) == len(combos)
        for _ in range(60):
            inst, target, use_domain = rng.choice(combos)
            must_repack = frozenset(sid for sid in inst.station_ids if rng.random() < 0.4)
            assert_matches_reference(RepackProblem(
                instance=inst, clearing_target_mhz=target, use_domain_constraints=use_domain,
                must_repack=must_repack, max_cleared_nationwide=rng.choice([None, 4]),
            ))

    def test_gapped_universes_reserved_channels_and_band_edges(self):
        # Universes with holes, reserved channels inside the retained band,
        # ADJ rules whose neighbouring channel is missing or outside the band,
        # and stations whose domain rows leave them no channel at all.
        rng = random.Random(2024)
        shapes = dict.fromkeys(("gap", "reserved-in-band", "adj-at-edge", "no-channel-left",
                                "empty-band", "one-channel"), 0)
        for _ in range(300):
            prob = gapped_problem(rng)
            for must_repack in (prob.must_repack, frozenset(prob.instance.station_ids)):
                assert_matches_reference(dataclasses.replace(prob, must_repack=must_repack))
            plan, inst = prob.channel_plan, prob.instance
            chans = plan.channels
            shapes["gap"] += any(b - a > 1 for a, b in zip(chans, chans[1:]))
            shapes["reserved-in-band"] += bool(plan.flagged)
            shapes["adj-at-edge"] += bool(chans) and any(
                ic.kind is not ConstraintKind.CO for ic in inst.interference)
            shapes["no-channel-left"] += prob.use_domain_constraints and bool(plan.assignable) and any(
                {dc.channel for dc in inst.domain if dc.station == sid} >= set(plan.assignable)
                for sid in inst.station_ids)
            shapes["empty-band"] += not chans
            shapes["one-channel"] += len(chans) == 1
        assert min(shapes.values()) >= 10, shapes

    def test_mutating_a_returned_var_map_changes_nothing_later(self):
        inst = generate_synthetic(6, co_density=0.3, domain_density=0.2, seed=4)
        prob = RepackProblem(instance=inst, clearing_target_mhz=6, max_dmas_with_clearing=1)
        vm = encode(prob).var_map
        vm.assign.clear()
        vm.cleared["intruder"] = 1
        vm.dma_any_clearing[99] = 2
        vm.var_count = 0
        assert_matches_reference(prob)
        assert_matches_reference(dataclasses.replace(prob, must_repack=frozenset(inst.station_ids)))


def reference_fold(formula: CnfFormula, clauses: tuple) -> list:
    """What ``formula.folded()`` must hand the solver after the base's table,
    read off the whole formula's ``clauses``."""
    n = len(formula.var_map.station_ids)
    width = len(formula.plan.channels) + 1
    stride = 1 + width * (width - 1) // 2
    return [*clauses[:n * stride:stride], *formula.units, *clauses[formula.base_count:]]


def reference_cap_clauses(cap: encoder._Cap) -> list:
    """A cap record's clauses as the reference counter builds them."""
    clauses = []
    for group, y in zip(cap.groups, cap.counted):
        clauses += [(-v, y) for v in group]
        clauses.append((*group, -y))
    return clauses + reference_at_most_true(list(cap.counted), cap.k, VarPool(start=cap.first))[0]


class TestCapsGeneratedOnRead:
    """A formula keeps its caps as records and generates their clauses on
    each read, equal clause for clause to the counter built as a list."""

    def test_at_most_true_matches_reference(self):
        for n in range(1, 10):
            for k in range(n + 3):
                for start in (n + 1, n + 40):
                    pool, expected_pool = VarPool(start=start), VarPool(start=start)
                    clauses, aux = at_most_true(list(range(1, n + 1)), k, pool)
                    assert (clauses, aux) == reference_at_most_true(
                        list(range(1, n + 1)), k, expected_pool), (n, k, start)
                    assert type(clauses) is list and all(type(c) is tuple for c in clauses)
                    assert pool.count == expected_pool.count and pool.neg == expected_pool.neg
                    assert all(lit is pool.neg[-lit] for c in clauses for lit in c if lit < 0)

    def test_every_cap_kind_matches_reference(self):
        rng = random.Random(34)
        shapes = dict.fromkeys(("adj", "domain", "reserved", "must-repack", "no-channel"), 0)
        for seed in range(10):
            inst = generate_synthetic(
                rng.randint(6, 24), channel_count=rng.randint(5, 7), co_density=0.2,
                adj_density=0.1, domain_density=0.15, n_dmas=rng.randint(1, 4),
                forbidden_channels=rng.choice(((), (15,), (15, 17))), seed=seed,
            )
            members = {dma: len(inst.dma_members.get(dma, ())) for dma in inst.dmas}
            usable = len(set(inst.universe.channels) - inst.universe.forbidden)
            for offset in ("0", "1", "2", "n-1", "n", "n+3"):
                def k(n):
                    return {"0": 0, "1": 1, "2": 2, "n-1": n - 1, "n": n, "n+3": n + 3}[offset]
                caps = [
                    {"max_cleared_nationwide": k(inst.n)},
                    {"dma_caps": {dma: k(m) for dma, m in members.items()}},
                    {"max_dmas_with_clearing": k(len(inst.dmas))},
                ]
                caps.append({key: value for cap in caps for key, value in cap.items()})
                for cap in caps:
                    prob = RepackProblem(
                        instance=inst, clearing_target_mhz=6 * rng.choice((1, 2, usable)),
                        use_domain_constraints=rng.random() < 0.7,
                        must_repack=frozenset(s for s in inst.station_ids if rng.random() < 0.3),
                        **cap,
                    )
                    got, expected = encode(prob), reference_encode(prob)
                    assert formula_key(got) == formula_key(expected), (seed, offset, cap)
                    assert got.clause_count == len(expected.clauses)
                    _check_clauses(got.clauses, got.var_count)
                    if isinstance(got, CnfFormula):
                        shapes["no-channel"] += 1
                        continue
                    table, rest = got.folded()
                    rest = list(rest)
                    assert rest == reference_fold(got, expected.clauses)
                    _check_clauses(rest, got.var_count)
                    shapes["adj"] += any(ic.kind is not ConstraintKind.CO for ic in inst.interference)
                    shapes["domain"] += prob.use_domain_constraints and bool(inst.domain)
                    shapes["reserved"] += bool(prob.channel_plan.flagged)
                    shapes["must-repack"] += bool(prob.must_repack)
        assert min(shapes.values()) >= 10, shapes

    def test_each_read_generates_the_same_clauses(self):
        inst = generate_synthetic(12, co_density=0.2, n_dmas=3, seed=5)
        formula = encode(RepackProblem(
            instance=inst, clearing_target_mhz=12, max_cleared_nationwide=4, dma_caps={1: 1},
            max_dmas_with_clearing=2,
        ))
        assert formula.clauses == formula.clauses
        assert list(formula.folded()[1]) == list(formula.folded()[1])

    def test_capped_encode_peak_memory(self):
        # The first minimum-search probe of the benchmark's 600-station
        # instance: a counter of 599 * 300 registers. Stored as clause
        # tuples it held 34 MB and peaked at 64 MB.
        inst = generate_synthetic(
            600, channel_count=10, co_density=0.015, planted_clique=7, planted_clique_dma=1,
            seed=7,
        )
        encode(RepackProblem(instance=inst, clearing_target_mhz=30))  # builds the base
        problem = RepackProblem(instance=inst, clearing_target_mhz=30, max_cleared_nationwide=300)
        tracemalloc.start()
        try:
            formula = encode(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert formula.var_count == 600 * 6 + 599 * 300
        assert peak < 24e6, peak

    def test_record_check_raises_what_the_clause_check_raises(self):
        rng = random.Random(77)
        raised = 0
        for _ in range(3000):
            var_count = rng.randint(1, 30)
            groups = ()
            if rng.random() < 0.3:
                groups = tuple(tuple(rng.randint(0, var_count + 2) for _ in range(rng.randint(0, 3)))
                               for _ in range(rng.randint(1, 4)))
                counted = tuple(rng.randint(1, var_count + 3) for _ in groups)
            else:
                counted = tuple(rng.randint(0, var_count + 2) for _ in range(rng.randint(1, 6)))
            cap = encoder._Cap(counted, rng.randint(0, 7), rng.randint(1, var_count + 2), groups)
            expected = _outcome(_check_clauses, reference_cap_clauses(cap), var_count)
            assert _outcome(encoder._check_caps, [cap], var_count) == expected, (cap, var_count)
            raised += expected is not None
        assert 500 < raised < 2500, raised


class TestBaseBuiltFromRows:
    """The base built from the instance's rows holds what
    ``reference_implications`` folds from the clauses of ``_base_clauses``,
    its table literals are the ``neg`` int objects, and a formula built on
    it hands the solver the rest of its clauses in the order a fold of all
    of them meets them."""

    def test_table_units_and_firsts_match_the_fold_of_the_clauses(self):
        rng = random.Random(515)
        shapes = dict.fromkeys(
            ("adj-up", "adj-down", "domain", "reserved", "domain-on-reserved", "must-repack",
             "caps", "no-channel"), 0)
        for case in range(240):
            prob = random_problem(rng, max_n=10, max_c=5) if case % 2 else gapped_problem(rng)
            bare = dataclasses.replace(
                prob, must_repack=frozenset(), max_cleared_nationwide=None, dma_caps={},
                max_dmas_with_clearing=None,
            )
            formula, base_only = encode(prob), encode(bare)
            inst, plan = prob.instance, prob.channel_plan
            width = len(plan.channels) + 1
            if width == 1:
                assert type(formula) is type(base_only) is CnfFormula
                shapes["no-channel"] += 1
                continue
            base = encoder._last_base
            assert base_only.table is base.table is formula.table
            expected = reference_implications(base_only.clauses, inst.n, width)
            assert (base.table, base.units, base.firsts, base.clause_count) == expected, case
            assert all(lit is base.neg[-lit] for entry in base.table for lit in entry), case
            clauses, stride = formula.clauses, 1 + width * (width - 1) // 2
            table, rest = formula.folded()
            assert table is base.table
            assert list(rest) == [
                *clauses[:inst.n * stride:stride], *base.units, *clauses[base.clause_count:]
            ]
            assert formula.clause_count == len(clauses)
            kinds = {ic.kind for ic in inst.interference}
            shapes["adj-up"] += ConstraintKind.ADJ_UP in kinds
            shapes["adj-down"] += ConstraintKind.ADJ_DOWN in kinds
            shapes["domain"] += prob.use_domain_constraints and bool(inst.domain)
            shapes["reserved"] += bool(plan.flagged)
            shapes["domain-on-reserved"] += prob.use_domain_constraints and any(
                dc.channel in plan.flagged for dc in inst.domain)
            shapes["must-repack"] += bool(prob.must_repack)
            shapes["caps"] += len(clauses) > base.clause_count
        assert min(shapes.values()) >= 10, shapes

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_built_with_the_callers_gc_setting(self, monkeypatch, enabled):
        seen, build = [], encoder._build_base

        def traced(*args):
            seen.append(gc.isenabled())
            return build(*args)

        monkeypatch.setattr(encoder, "_build_base", traced)
        inst = build_instance(3, channels=(1, 2, 3, 4))
        if not enabled:
            gc.disable()
        try:
            encode(RepackProblem(instance=inst, clearing_target_mhz=6))
        finally:
            gc.enable()
        assert seen == [enabled]


class TestEncodedFormulaReaders:
    """An encoded formula is read without storing its clauses: ``repr`` and
    ``==`` generate none, every formula of one base shares that base's table
    and units, and export holds one clause at a time."""

    @staticmethod
    def capped_problem() -> RepackProblem:
        inst = generate_synthetic(12, co_density=0.2, domain_density=0.2, n_dmas=3, seed=5)
        return RepackProblem(
            instance=inst, clearing_target_mhz=12, max_cleared_nationwide=4, dma_caps={1: 1},
            max_dmas_with_clearing=2, must_repack=frozenset(inst.station_ids[:3]),
        )

    def test_repr_and_equality_generate_no_clause(self, monkeypatch):
        problem = self.capped_problem()
        formula, again = encode(problem), encode(problem)

        def refused(*args):
            raise AssertionError("a clause was generated")

        monkeypatch.setattr(encoder, "_base_clauses", refused)
        monkeypatch.setattr(encoder, "_cap_runs", refused)
        assert len(repr(formula)) < 200
        assert formula == formula and formula != again  # compared by identity

    def test_formulas_of_one_base_share_its_table_and_units(self):
        problem = self.capped_problem()
        capped = encode(problem)
        bare = encode(RepackProblem(instance=problem.instance, clearing_target_mhz=12))
        assert bare.units and not bare.caps and capped.caps
        assert capped.table is bare.table and capped.units is bare.units
        assert capped.firsts != bare.firsts

    def test_export_peak_memory(self):
        # The cap-300 probe of the benchmark's 600-station instance: with its
        # 383k clauses built as one tuple first, export peaked at 33.5 MB.
        inst = generate_synthetic(
            600, channel_count=10, co_density=0.015, planted_clique=7, planted_clique_dma=1,
            seed=7,
        )
        formula = encode(
            RepackProblem(instance=inst, clearing_target_mhz=30, max_cleared_nationwide=300))
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                export_dimacs(formula, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4e6, peak


def literal_objects_and_values(formula: CnfFormula) -> tuple[int, int]:
    literals = [lit for clause in formula.clauses for lit in clause]
    return len({id(lit) for lit in literals}), len(set(literals))


class TestLiteralSharing:
    """Every literal value of a formula is one int object, however often it occurs."""

    @staticmethod
    def instance(seed: int):
        # 150 stations of 11 variables: literals reach far beyond the
        # interpreter's cached small ints.
        return generate_synthetic(
            150, channel_count=10, co_density=0.08, adj_density=0.04, domain_density=0.1,
            n_dmas=6, forbidden_channels=(17,), seed=seed,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monte_carlo_draw(self, seed: int):
        inst = self.instance(seed)
        draw = sample(ModelSpec.random_broadcasters(0.6), inst, seed)
        assert draw.non_participants()
        # The second target clears the whole band, so each must-repack
        # station gets the two-clause replacement.
        for target in (18, 54):
            formula = encode(RepackProblem(
                instance=inst, clearing_target_mhz=target, must_repack=draw.non_participants()
            ))
            objects, values = literal_objects_and_values(formula)
            assert objects == values

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nationwide_and_per_dma_caps(self, seed: int):
        inst = self.instance(seed)
        formula = encode(RepackProblem(
            instance=inst, clearing_target_mhz=18, max_cleared_nationwide=40,
            dma_caps={min(inst.dmas): 3}, must_repack=frozenset(inst.station_ids[::3]),
        ))
        assert formula.var_count > len(formula.var_map.names())  # counter registers
        objects, values = literal_objects_and_values(formula)
        assert objects == values

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dma_count_cap(self, seed: int):
        inst = self.instance(seed)
        formula = encode(RepackProblem(
            instance=inst, clearing_target_mhz=18, max_dmas_with_clearing=2,
        ))
        assert formula.var_map.dma_any_clearing
        objects, values = literal_objects_and_values(formula)
        assert objects == values


class TestDecode:
    def test_cleared_and_assigned_slots(self):
        inst = build_instance(2, channels=(1, 2))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        formula = encode(prob)
        vm = formula.var_map
        model = [False] * (formula.var_count + 1)
        model[vm.cleared["a"]] = True
        model[vm.assign[("b", 1)]] = True
        assignment = decode(formula, model)
        assert assignment.channels == {"a": None, "b": 1}

    def test_double_assignment_raises(self):
        inst = build_instance(1, channels=(1, 2, 3))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        formula = encode(prob)
        vm = formula.var_map
        model = [False] * (formula.var_count + 1)
        model[vm.assign[("a", 1)]] = True
        model[vm.assign[("a", 2)]] = True
        with pytest.raises(EncodingError, match="true slots"):
            decode(formula, model)

    def test_wrong_model_length_raises(self):
        inst = build_instance(1, channels=(1, 2))
        formula = encode(RepackProblem(instance=inst, clearing_target_mhz=6))
        with pytest.raises(EncodingError, match="model covers"):
            decode(formula, [False])


def reference_decode(formula: CnfFormula, model) -> ChannelAssignment:
    """``decode`` as it walked every entry of the variable map."""
    if formula.var_map is None:
        raise EncodingError("formula carries no variable map")
    vm = formula.var_map
    if len(model) != formula.var_count + 1:
        raise EncodingError(
            f"model covers {len(model) - 1} variables, formula has {formula.var_count}"
        )
    channels = {}
    per_station = {sid: [] for sid in vm.cleared}
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


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the EncodingError it raises."""
    try:
        return fn(*args)
    except EncodingError as exc:
        return str(exc)


class TestDecodeMatchesReference:
    def test_seeded_models(self):
        rng = random.Random(31)
        kinds = dict.fromkeys(("decoded", "no-slot", "two-slots", "noise", "wrong-length"), 0)
        for case in range(200):
            prob = gapped_problem(rng) if case % 2 else random_problem(rng, max_n=10, max_c=5)
            formula = encode(prob)
            vm = formula.var_map
            model = [False] * (formula.var_count + 1)
            for sid in prob.instance.station_ids:
                slots = [vm.cleared[sid], *(vm.assign[(sid, ch)] for ch in prob.channel_plan.channels)]
                model[rng.choice(slots)] = True
            kind = rng.choice(list(kinds))
            if kind == "no-slot":
                for v in rng.sample(range(1, len(model)), min(3, formula.var_count)):
                    model[v] = False
            elif kind == "two-slots":
                for v in rng.sample(range(1, len(model)), min(3, formula.var_count)):
                    model[v] = True
            elif kind == "noise":
                model = [False] + [rng.random() < 0.3 for _ in range(formula.var_count)]
            elif kind == "wrong-length":
                model.append(False)
            for shaped in (model, tuple(model), [int(bit) for bit in model]):
                expected = _outcome(reference_decode, formula, shaped)
                assert _outcome(decode, formula, shaped) == expected, (case, kind)
            kinds["decoded" if isinstance(expected, ChannelAssignment) else kind] += 1
        assert min(kinds.values()) >= 10, kinds


class TestDimacs:
    def test_exact_minimal_output(self):
        formula = CnfFormula(var_count=1, clauses=((1,),))
        sink = io.StringIO()
        export_dimacs(formula, sink)
        assert sink.getvalue() == "p cnf 1 1\n1 0\n"

    def test_parse_sat_output(self):
        text = "c comment\ns SATISFIABLE\nv 1 -2 3 0\n"
        result = parse_dimacs_result(text)
        assert result.satisfiable
        assert result.literals == (1, -2, 3)
        model = model_from_literals(result.literals, 3)
        assert model == (False, True, False, True)

    def test_a_variable_given_both_polarities_is_refused(self):
        for literals in ((1, -2, 3, -3), (-3, 3), (2, 2, -2)):
            with pytest.raises(ValueError, match="given both polarities"):
                model_from_literals(literals, 3)
        assert model_from_literals((1, 1, -2, -2), 3) == (False, True, False, False)

    def test_parse_multiline_values(self):
        text = "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n"
        assert parse_dimacs_result(text).literals == (1, -2, 3)

    def test_parse_unsat_output(self):
        assert not parse_dimacs_result("s UNSATISFIABLE\n").satisfiable
        assert not parse_dimacs_result("UNSAT\n").satisfiable

    def test_malformed_output_raises(self):
        with pytest.raises(ValueError, match="status"):
            parse_dimacs_result("hello\n")
        with pytest.raises(ValueError, match="model"):
            parse_dimacs_result("s SATISFIABLE\n")
        with pytest.raises(ValueError, match="UNKNOWN"):
            parse_dimacs_result("s UNKNOWN\n")


def reference_check_clauses(clauses, var_count: int) -> None:
    for clause in clauses:
        if not clause:
            raise EncodingError("empty clause")
        for lit in clause:
            if lit == 0 or abs(lit) > var_count:
                raise EncodingError(f"literal {lit} outside 1..{var_count}")


class TestFormulaInvariants:
    def test_check_names_the_first_bad_clause_like_the_loop(self):
        rng = random.Random(6)
        raised = 0
        for _ in range(2000):
            var_count = rng.randint(1, 6)
            clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, var_count)
                             for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(0, 8))]
            for _ in range(rng.choice((0, 0, 1, 2))):
                bad = rng.choice(((), (0,), (var_count + 1,), (-var_count - 1,), (1, 0)))
                clauses.insert(rng.randint(0, len(clauses)), bad)
            expected = _outcome(reference_check_clauses, clauses, var_count)
            assert _outcome(_check_clauses, clauses, var_count) == expected, clauses
            raised += expected is not None
        assert 500 < raised < 1500

    def test_empty_clause_rejected(self):
        with pytest.raises(EncodingError, match="empty clause"):
            CnfFormula(var_count=1, clauses=((),))

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(EncodingError, match="outside"):
            CnfFormula(var_count=1, clauses=((2,),))
