"""Sample-set statistics: per-DMA stats, correlations, diversity, missing mass."""

from __future__ import annotations

import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repacker import analytics
from repacker.instance import ChannelAssignment

from conftest import assignment_with_cleared, build_instance, make_sample_set


def ids(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def anti_varying_sample_set():
    """Two DMAs of four stations whose cleared counts always sum to 6."""
    inst = build_instance(8, dma_of={s: (1 if s in ids(4) else 2) for s in ids(8)}, n_dmas=2)
    group1, group2 = ids(4), ids(8)[4:]
    return make_sample_set(inst, [
        assignment_with_cleared(inst, set(group1[:k]) | set(group2[: 6 - k]))
        for k in (2, 3, 4, 2, 3, 4)
    ])


class TestDmaStats:
    def test_two_sample_fixture(self):
        # DMA 1 holds a..d; counts 2 and 4 across the two samples.
        dma_of = {s: 1 for s in ids(4)} | {s: 2 for s in ids(8)[4:]}
        inst = build_instance(8, channels=(1, 2, 3), dma_of=dma_of, n_dmas=2)
        s1 = assignment_with_cleared(inst, {"a", "b"})
        s2 = assignment_with_cleared(inst, {"a", "b", "c", "d"})
        stats = analytics.dma_stats(make_sample_set(inst, [s1, s2]))
        row = stats.per_dma[1]
        assert row.mean == 3.0
        assert row.observed_min == 2
        assert row.std == 1.0
        assert row.size == 4

    def test_single_sample_zero_std(self):
        inst = build_instance(4)
        stats = analytics.dma_stats(make_sample_set(inst, [assignment_with_cleared(inst, {"a"})]))
        for row in stats.per_dma.values():
            assert row.std == 0.0
            assert row.observed_min == round(row.mean)

    def test_conservation_sum_of_means(self):
        rng = random.Random(4)
        inst = build_instance(9, channels=(1, 2), n_dmas=3)
        assignments = [
            assignment_with_cleared(inst, {s for s in ids(9) if rng.random() < 0.4})
            for _ in range(25)
        ]
        stats = analytics.dma_stats(make_sample_set(inst, assignments))
        assert math.isclose(stats.sum_of_means(), stats.nationwide_mean, rel_tol=1e-12)

    def test_rows_sorted_by_mean_descending(self):
        inst = build_instance(6, dma_of={"a": 1, "b": 1, "c": 2, "d": 2, "e": 2, "f": 1}, n_dmas=2)
        assignments = [assignment_with_cleared(inst, {"c", "d", "e"})] * 3
        stats = analytics.dma_stats(make_sample_set(inst, assignments))
        rows = stats.rows_by_mean()
        assert rows[0].dma_id == 2 and rows[0].mean == 3.0


class TestDmaCorrelations:
    def test_anti_varying_pair_is_minus_one(self):
        # Two DMAs whose cleared counts sum to a constant: r = -1 exactly.
        pairs = analytics.dma_correlations(anti_varying_sample_set(), min_mean=1.0)
        assert len(pairs) == 1
        assert abs(pairs[0].r - (-1.0)) < 1e-9
        assert pairs[0].p_value <= 0.01

    def test_independent_noise_left_insignificant(self):
        rng = random.Random(12)
        inst = build_instance(
            12, dma_of={s: (1 if s in ids(6) else 2) for s in ids(12)}, n_dmas=2
        )
        assignments = [
            assignment_with_cleared(inst, {s for s in ids(12) if rng.random() < 0.5})
            for _ in range(1000)
        ]
        pairs = analytics.dma_correlations(
            make_sample_set(inst, assignments), min_mean=1.0, p_threshold=1.0
        )
        for p in pairs:
            assert -1.0 <= p.r <= 1.0
            assert abs(p.r) < 0.1

    def test_min_mean_filter(self):
        inst = build_instance(
            8, dma_of={s: (1 if s in ids(4) else 2) for s in ids(8)}, n_dmas=2
        )
        assignments = []
        for k in (0, 1, 0, 1):
            cleared = {ids(4)[0]} if k else set()
            assignments.append(assignment_with_cleared(inst, cleared | {"e"}))
        # Mean clearing in DMA 1 is 0.5 < 2: filtered out entirely.
        pairs = analytics.dma_correlations(make_sample_set(inst, assignments))
        assert pairs == []

    def test_zero_variance_dma_skipped(self):
        inst = build_instance(
            8, dma_of={s: (1 if s in ids(4) else 2) for s in ids(8)}, n_dmas=2
        )
        assignments = [
            assignment_with_cleared(inst, {"a", "b", "e"}),
            assignment_with_cleared(inst, {"a", "b", "f"}),
            assignment_with_cleared(inst, {"a", "b", "e"}),
        ]
        # DMA 1 always clears exactly 2: zero variance, no pair emitted.
        pairs = analytics.dma_correlations(make_sample_set(inst, assignments), min_mean=0.5)
        assert pairs == []

    def test_needs_three_samples(self):
        inst = build_instance(4)
        ss = make_sample_set(inst, [assignment_with_cleared(inst, set())] * 2)
        with pytest.raises(ValueError, match="3 samples"):
            analytics.dma_correlations(ss)


class TestTwoSidedTPValue:
    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 2.0, 5.0, 40.0])
    def test_closed_forms_for_one_and_two_degrees_of_freedom(self, t):
        # Abramowitz & Stegun 26.7: df=1 is the Cauchy tail, df=2 is algebraic.
        assert math.isclose(
            analytics.t_two_sided_p(t, 1), 1.0 - (2.0 / math.pi) * math.atan(t), rel_tol=1e-12
        )
        assert math.isclose(
            analytics.t_two_sided_p(t, 2), 1.0 - t / math.sqrt(2.0 + t * t), rel_tol=1e-12
        )

    def test_zero_statistic_gives_one(self):
        assert analytics.t_two_sided_p(0.0, 7) == 1.0

    def test_agrees_with_scipy_over_wide_range(self):
        stats = pytest.importorskip("scipy.stats")
        ts = [1e-3, 1e-2, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0,
              1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
        compared = 0
        for df in range(1, 1001):
            refs = 2.0 * stats.t.sf(ts, df)
            for t, ref in zip(ts, refs):
                if ref > 0.0:
                    got = analytics.t_two_sided_p(t, df)
                    assert math.isclose(got, float(ref), rel_tol=1e-9), (df, t, got, ref)
                    compared += 1
        assert compared > 10_000

    @pytest.mark.parametrize("module", ["scipy", "numpy"])
    def test_import_loads_no_module(self, module):
        code = (
            "import sys, repacker\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"
        )
        assert run_fresh_interpreter(code) == "[]"


def run_fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter with this test directory importable;
    return its stripped standard output."""
    code = f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n" + code
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return proc.stdout.strip()


class TestStandardLibraryOnly:
    def test_stats_run_with_numpy_blocked(self):
        # A finder ahead of all others makes any import of numpy fail, so a
        # lazy import inside the statistics would surface here.
        code = textwrap.dedent("""
            class BlockNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "numpy":
                        raise ModuleNotFoundError(f"{name} is blocked")
                    return None

            sys.meta_path.insert(0, BlockNumpy())
            from repacker import analytics
            from test_analytics import anti_varying_sample_set

            ss = anti_varying_sample_set()
            stats = analytics.dma_stats(ss)
            pairs = analytics.dma_correlations(ss, min_mean=1.0)
            print(stats.per_dma[1].mean, stats.per_dma[1].std, [p.r for p in pairs])
            print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
        """)
        assert run_fresh_interpreter(code).splitlines() == [
            f"3.0 {math.sqrt(24) / 6} [-1.0]", "[]"
        ]

    def test_agrees_with_numpy_on_random_columns(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(31)
        size, n_dmas = 6, 4
        stations = ids(size * n_dmas)
        inst = build_instance(
            len(stations), dma_of={s: 1 + k // size for k, s in enumerate(stations)},
            n_dmas=n_dmas,
        )
        compared = 0
        for _ in range(300):
            n = rng.randint(3, 40)
            columns = [[rng.randint(0, rng.choice((1, size))) for _ in range(n)]
                       for _ in range(n_dmas)]
            ss = make_sample_set(inst, [
                assignment_with_cleared(inst, {
                    stations[d * size + k] for d in range(n_dmas) for k in range(columns[d][row])
                })
                for row in range(n)
            ])
            stats = analytics.dma_stats(ss)
            for dma, col in enumerate(columns, start=1):
                row = stats.per_dma[dma]
                assert row.mean == float(np.mean(col))
                assert math.isclose(row.std, float(np.std(col)), rel_tol=1e-12, abs_tol=1e-12)
            pairs = analytics.dma_correlations(ss, min_mean=0.0, p_threshold=1.0)
            varying = [d for d, col in enumerate(columns, start=1) if np.std(col) > 0]
            assert {(c.dma_a, c.dma_b) for c in pairs} == {
                (a, b) for a in varying for b in varying if a < b
            }
            for c in pairs:
                ref = np.corrcoef(columns[c.dma_a - 1], columns[c.dma_b - 1])[0, 1]
                assert abs(c.r - float(ref)) <= 1e-12
                assert c.mean_a == float(np.mean(columns[c.dma_a - 1]))
                compared += 1
        assert compared > 500

    def test_zero_integer_covariance_gives_exact_zero(self):
        # Counts (1, 0, 1, 0) and (1, 1, 0, 0): n*sum(xy) - sum(x)*sum(y) = 4 - 4.
        inst = build_instance(2, dma_of={"a": 1, "b": 2}, n_dmas=2)
        cleared = [{"a", "b"}, {"b"}, {"a"}, set()]
        ss = make_sample_set(inst, [assignment_with_cleared(inst, c) for c in cleared])
        pairs = analytics.dma_correlations(ss, min_mean=0.0, p_threshold=1.0)
        assert [(c.dma_a, c.dma_b, c.r, c.p_value) for c in pairs] == [(1, 2, 0.0, 1.0)]


def assignment_from_sets(cleared: set[str], universe: list[str]) -> ChannelAssignment:
    return ChannelAssignment(channels={s: (None if s in cleared else 1) for s in universe})


class TestSolutionDistance:
    def test_identical_sets_zero(self):
        u = ids(4)
        a = assignment_from_sets({"a", "b"}, u)
        b = assignment_from_sets({"a", "b"}, u)
        assert analytics.solution_distance(a, b) == 0.0

    def test_disjoint_sets_one(self):
        u = ids(4)
        a = assignment_from_sets({"a", "b"}, u)
        b = assignment_from_sets({"c", "d"}, u)
        assert analytics.solution_distance(a, b) == 1.0

    def test_two_thirds(self):
        u = ids(3)
        a = assignment_from_sets({"a", "b"}, u)
        b = assignment_from_sets({"b", "c"}, u)
        assert analytics.solution_distance(a, b) == pytest.approx(2 / 3)

    def test_both_empty_zero_by_convention(self):
        u = ids(2)
        assert analytics.solution_distance(
            assignment_from_sets(set(), u), assignment_from_sets(set(), u)
        ) == 0.0

    def test_metric_properties(self):
        # Every subset of 12 stations is equally likely; the corner cases
        # (empty, equal and disjoint sets) are listed explicitly as well.
        rng = random.Random(20140)
        everything, evens, odds = set(range(12)), set(range(0, 12, 2)), set(range(1, 12, 2))
        triples = [
            (set(), set(), set()), (set(), set(), {3}), (set(), {3}, set()), ({3}, set(), set()),
            (set(), everything, set()), (everything, everything, everything),
            ({1, 2}, {1, 2}, {5}), (evens, odds, set()), (evens, odds, everything),
            ({0}, {11}, {0, 11}), (set(), evens, odds),
        ]

        def subset() -> set[int]:
            return {i for i in range(12) if rng.random() < 0.5}

        triples += [(subset(), subset(), subset()) for _ in range(300)]
        u = [f"s{i}" for i in range(12)]
        for xs, ys, zs in triples:
            a = assignment_from_sets({f"s{i}" for i in xs}, u)
            b = assignment_from_sets({f"s{i}" for i in ys}, u)
            c = assignment_from_sets({f"s{i}" for i in zs}, u)
            dab = analytics.solution_distance(a, b)
            dba = analytics.solution_distance(b, a)
            assert dab == dba
            assert 0.0 <= dab <= 1.0
            assert (dab == 0.0) == (xs == ys)
            dac = analytics.solution_distance(a, c)
            dcb = analytics.solution_distance(c, b)
            assert dab <= dac + dcb + 1e-12


class TestDiversity:
    def test_duplicate_only_sample_set(self):
        inst = build_instance(4)
        a = assignment_with_cleared(inst, {"a"})
        report = analytics.diversity_report(make_sample_set(inst, [a, a, a]))
        assert report.overall == 0.0

    def test_dma_restricted_distance_one(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2}, n_dmas=2)
        s1 = assignment_with_cleared(inst, {"a", "c"})
        s2 = assignment_with_cleared(inst, {"b", "c"})
        report = analytics.diversity_report(make_sample_set(inst, [s1, s2]))
        dma1 = next(d for d in report.per_dma if d.dma_id == 1)
        assert dma1.diversity == 1.0

    def test_empty_union_pairs_skipped(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2}, n_dmas=2)
        s1 = assignment_with_cleared(inst, {"a"})
        s2 = assignment_with_cleared(inst, {"b"})
        s3 = assignment_with_cleared(inst, set())
        s4 = assignment_with_cleared(inst, set())
        report = analytics.diversity_report(make_sample_set(inst, [s1, s2, s3, s4]))
        dma1 = next(d for d in report.per_dma if d.dma_id == 1)
        # The (s3, s4) pair has an empty DMA-1 union and drops out; every
        # other pair differs over a non-empty union, so distance 1.
        assert dma1.pairs_counted == 5
        assert dma1.diversity == 1.0
        # DMA 2 never clears: no informative pairs at all.
        assert all(d.dma_id != 2 for d in report.per_dma)

    def test_sorted_descending(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2}, n_dmas=2)
        s1 = assignment_with_cleared(inst, {"a", "c"})
        s2 = assignment_with_cleared(inst, {"b", "c"})
        report = analytics.diversity_report(make_sample_set(inst, [s1, s2]))
        values = [d.diversity for d in report.per_dma]
        assert values == sorted(values, reverse=True)

    def test_same_floats_as_two_loop_reference(self):
        # The overall and per-DMA means share one pairwise pass; the reference
        # keeps the separate loops, and every float must come out bit-equal.
        def reference(sample_set):
            inst = sample_set.problem.instance
            cleared = [s.assignment.cleared_set() for s in sample_set.samples]
            total, pairs = 0.0, 0
            for i in range(len(cleared)):
                for j in range(i + 1, len(cleared)):
                    total += analytics._restricted_distance(cleared[i], cleared[j]) or 0.0
                    pairs += 1
            per_dma = []
            for dma in sorted(inst.dmas):
                members = frozenset(inst.dma_members.get(dma, ()))
                restricted = [c & members for c in cleared]
                total_d, counted = 0.0, 0
                for i in range(len(restricted)):
                    for j in range(i + 1, len(restricted)):
                        d = analytics._restricted_distance(restricted[i], restricted[j])
                        if d is not None:
                            total_d += d
                            counted += 1
                if members and counted:
                    per_dma.append((dma, total_d / counted, counted))
            per_dma.sort(key=lambda r: (-r[1], r[0]))
            return total / pairs, per_dma

        rng = random.Random(7)
        names = ids(9)
        inst = build_instance(9, dma_of={s: 1 + i % 4 for i, s in enumerate(names)}, n_dmas=5)
        for _ in range(200):
            sets = [
                {s for s in names if rng.random() < rng.choice((0.0, 0.2, 0.5))}
                for _ in range(rng.randint(2, 7))
            ]
            sample_set = make_sample_set(inst, [assignment_with_cleared(inst, c) for c in sets])
            report = analytics.diversity_report(sample_set)
            got = [(d.dma_id, d.diversity, d.pairs_counted) for d in report.per_dma]
            assert (report.overall, got) == reference(sample_set)


class TestMissingMass:
    def test_published_counts_fixture(self):
        # 300 draws, 190 distinct solutions, 117 seen exactly once -> 39.0%.
        inst = build_instance(12, channels=tuple(range(1, 10)))
        assignments = []
        key = 0
        u = list(inst.station_ids)

        def fresh(k: int) -> ChannelAssignment:
            # Distinct solutions: base-8 digits of k spread over the stations.
            return ChannelAssignment(
                channels={s: 1 + (k // 8**i) % 8 for i, s in enumerate(u)}
            )

        for _ in range(117):  # singletons
            assignments.append(fresh(key)); key += 1
        for i in range(73):  # 73 repeated solutions cover the other 183 draws
            copies = 3 if i < 37 else 2
            a = fresh(key); key += 1
            assignments.extend([a] * copies)
        assert len(assignments) == 300
        mm = analytics.missing_mass(make_sample_set(inst, assignments, target_mhz=6))
        assert mm.draws == 300
        assert mm.unique == 190
        assert mm.singletons == 117
        assert mm.estimate == pytest.approx(0.390, abs=1e-12)

    def test_all_identical_zero(self):
        inst = build_instance(3)
        a = assignment_with_cleared(inst, {"a"})
        mm = analytics.missing_mass(make_sample_set(inst, [a, a, a, a]))
        assert mm.estimate == 0.0
        assert mm.unique == 1

    def test_all_distinct_one(self):
        inst = build_instance(4)
        assignments = [assignment_with_cleared(inst, {s}) for s in ids(4)]
        mm = analytics.missing_mass(make_sample_set(inst, assignments))
        assert mm.estimate == 1.0

    def test_counts_bounded_on_random_sets(self):
        rng = random.Random(88)
        inst = build_instance(6, channels=(1, 2, 3))
        for _ in range(30):
            n_draws = rng.randint(1, 20)
            assignments = [
                assignment_with_cleared(inst, {s for s in ids(6) if rng.random() < 0.5})
                for _ in range(n_draws)
            ]
            mm = analytics.missing_mass(make_sample_set(inst, assignments))
            assert 0.0 <= mm.estimate <= 1.0
            assert mm.singletons <= mm.unique <= mm.draws

    def test_identity_modes_differ(self):
        inst = build_instance(3, channels=(1, 2, 3))
        # Same cleared set, different channels for the survivors.
        a = ChannelAssignment(channels={"a": None, "b": 1, "c": 2})
        b = ChannelAssignment(channels={"a": None, "b": 2, "c": 1})
        ss = make_sample_set(inst, [a, b])
        assert analytics.missing_mass(ss, identity="assignment").unique == 2
        assert analytics.missing_mass(ss, identity="cleared-set").unique == 1


class TestBroadcasterFrequencies:
    def test_always_and_never(self):
        inst = build_instance(3)
        assignments = [assignment_with_cleared(inst, {"a"})] * 4
        rows = dict(analytics.broadcaster_frequencies(make_sample_set(inst, assignments)))
        assert rows["a"] == 1.0
        assert rows["b"] == 0.0

    def test_sorted_descending(self):
        inst = build_instance(4)
        assignments = [
            assignment_with_cleared(inst, {"a", "b"}),
            assignment_with_cleared(inst, {"a"}),
        ]
        rows = analytics.broadcaster_frequencies(make_sample_set(inst, assignments))
        fracs = [f for _, f in rows]
        assert fracs == sorted(fracs, reverse=True)
        assert rows[0] == ("a", 1.0)


class TestConfigDelta:
    def test_identical_stats_all_zero(self):
        inst = build_instance(4, n_dmas=2)
        ss = make_sample_set(inst, [assignment_with_cleared(inst, {"a"})] * 2)
        stats = analytics.dma_stats(ss)
        deltas = analytics.config_delta(stats, stats)
        assert all(d.delta == 0.0 for d in deltas)

    def test_increase_ranks_first(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2}, n_dmas=2)
        base = analytics.dma_stats(make_sample_set(inst, [assignment_with_cleared(inst, {"a"})]))
        harder = analytics.dma_stats(
            make_sample_set(inst, [assignment_with_cleared(inst, {"a", "b"})])
        )
        deltas = analytics.config_delta(base, harder)
        assert deltas[0].dma_id == 1
        assert deltas[0].delta == 1.0
        assert not deltas[0].negative

    def test_negative_retained_and_flagged(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2}, n_dmas=2)
        base = analytics.dma_stats(
            make_sample_set(inst, [assignment_with_cleared(inst, {"a", "b"})])
        )
        easier = analytics.dma_stats(make_sample_set(inst, [assignment_with_cleared(inst, set())]))
        deltas = analytics.config_delta(base, easier)
        dma1 = next(d for d in deltas if d.dma_id == 1)
        assert dma1.delta == -2.0
        assert dma1.negative

    def test_mismatched_dma_sets_rejected(self):
        inst_a = build_instance(4, n_dmas=2)
        inst_b = build_instance(4, n_dmas=3)
        sa = analytics.dma_stats(make_sample_set(inst_a, [assignment_with_cleared(inst_a, set())]))
        sb = analytics.dma_stats(make_sample_set(inst_b, [assignment_with_cleared(inst_b, set())]))
        with pytest.raises(ValueError, match="different DMA sets"):
            analytics.config_delta(sa, sb)
