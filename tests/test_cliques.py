"""Greedy clique enumeration and the blocking-clique fast path."""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repacker import montecarlo
from repacker.cliques import (
    CliqueCatalog,
    CliqueError,
    _verify_cliques,
    blocking_check,
    clearing_lower_bound,
    default_catalog,
    dma_lower_bound,
    enumerate_cliques_greedy,
)
from repacker.instance import RepackProblem
from repacker.montecarlo import BACKEND_SAT, TrialReport, estimate_success
from repacker.participation import ModelSpec
from repacker.synthetic import generate_synthetic, planted_clique_ids
from repacker.util import derive_seed

from conftest import build_instance
from oracles import brute_force_min_cleared
from reference_paths import (
    reference_co_adjacency,
    reference_enumerate_cliques_greedy,
    reference_verify_cliques,
)
from test_montecarlo import estimate_of


class TestEnumeration:
    def test_planted_clique_found(self):
        inst = generate_synthetic(10, co_density=0.05, planted_clique=6, seed=5)
        catalog = enumerate_cliques_greedy(inst, seed=1)
        planted = set(planted_clique_ids(6))
        assert any(planted <= c for c in catalog.cliques)

    def test_empty_graph_empty_catalog(self):
        inst = build_instance(5)
        catalog = enumerate_cliques_greedy(inst, min_size=2)
        assert len(catalog) == 0

    def test_triangle_found(self):
        inst = build_instance(4, co_pairs=(("a", "b"), ("a", "c"), ("b", "c")))
        catalog = enumerate_cliques_greedy(inst, min_size=3)
        assert frozenset({"a", "b", "c"}) in catalog.cliques

    def test_deterministic_for_seed(self):
        inst = generate_synthetic(14, co_density=0.3, seed=8)
        a = enumerate_cliques_greedy(inst, seed=4)
        b = enumerate_cliques_greedy(inst, seed=4)
        assert a.cliques == b.cliques

    def test_catalog_deduplicated(self):
        inst = build_instance(3, co_pairs=(("a", "b"), ("a", "c"), ("b", "c")))
        catalog = enumerate_cliques_greedy(inst, attempts_per_vertex=8, min_size=3)
        assert len(catalog.cliques) == len(set(catalog.cliques))

    def test_every_entry_pairwise_connected(self):
        inst = generate_synthetic(15, co_density=0.35, seed=3)
        catalog = enumerate_cliques_greedy(inst, seed=2)
        adj = reference_co_adjacency(inst)
        for clique in catalog.cliques:
            members = sorted(clique)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert b in adj[a]

    def test_min_size_filter(self):
        inst = build_instance(4, co_pairs=(("a", "b"),))
        assert len(enumerate_cliques_greedy(inst, min_size=3)) == 0
        assert len(enumerate_cliques_greedy(inst, min_size=2)) == 1

    def test_max_cliques_must_be_non_negative(self):
        inst = build_instance(4, co_pairs=(("a", "b"),))
        with pytest.raises(ValueError, match="^max_cliques must be non-negative$"):
            enumerate_cliques_greedy(inst, max_cliques=-1)
        assert len(enumerate_cliques_greedy(inst, max_cliques=0)) == 0

    def test_jsonl_round_trip(self, tmp_path):
        inst = generate_synthetic(10, co_density=0.3, seed=6)
        catalog = enumerate_cliques_greedy(inst, seed=9)
        path = tmp_path / "cliques.jsonl"
        catalog.save_jsonl(path, inst, seed=9)
        loaded = CliqueCatalog.load_jsonl(path, inst)
        assert loaded.cliques == catalog.cliques

    def test_load_verifies_membership(self, tmp_path):
        inst = build_instance(3, co_pairs=(("a", "b"),))
        path = tmp_path / "bad.jsonl"
        good = enumerate_cliques_greedy(inst, min_size=2)
        good.save_jsonl(path, inst)
        text = path.read_text().replace('["a", "b"]', '["a", "c"]')
        path.write_text(text)
        with pytest.raises(CliqueError, match="^a and c are not co-channel neighbors$"):
            CliqueCatalog.load_jsonl(path, inst)


def _raised(verify, *args) -> str | None:
    """The message of the CliqueError ``verify(*args)`` raises, or None."""
    try:
        verify(*args)
    except CliqueError as exc:
        return str(exc)
    return None


class TestCatalogMatchesReference:
    """The station-index enumerator builds the catalog the frozenset
    enumerator built: the same cliques in the same order, from the same draws."""

    @staticmethod
    def cases():
        rng = random.Random(13)
        for case in range(240):
            n = rng.randint(1, 28)
            planted = rng.choice((0, 0, rng.randint(2, n) if n > 1 else 0))
            instance = {
                "co_density": rng.choice((0.0, 0.05, 0.15, 0.3, 0.5, 0.8)),
                "planted_clique": planted, "seed": case,
            }
            enumeration = {
                "min_size": rng.randint(1, 5),
                "attempts_per_vertex": rng.randint(1, 5),
                "max_cliques": rng.choice((None, None, rng.randint(0, 12))),
                "seed": rng.randrange(1000),
            }
            yield generate_synthetic(n, **instance), enumeration

    def test_same_catalog_over_seeded_instances(self):
        empty_graphs = isolated = 0
        for inst, enumeration in self.cases():
            got = enumerate_cliques_greedy(inst, **enumeration)
            assert got == reference_enumerate_cliques_greedy(inst, **enumeration), enumeration
            degrees = [len(nbrs) for nbrs in reference_co_adjacency(inst).values()]
            empty_graphs += not any(degrees)
            isolated += any(degrees) and 0 in degrees
        assert empty_graphs and isolated

    def test_same_catalog_where_candidate_sets_repeat(self, monkeypatch):
        # On larger, denser graphs attempts keep reaching candidate sets seen
        # before, so a third or more of the pools come from the per-call memo,
        # which hands rng.choice the same pool object again.
        pools: list[list[int]] = []

        class RecordingRandom(random.Random):
            def choice(self, seq):
                pools.append(seq)
                return super().choice(seq)

        for n, density, planted in ((150, 0.08, 0), (200, 0.1, 12), (250, 0.06, 0),
                                    (300, 0.05, 20), (350, 0.04, 0), (400, 0.035, 15)):
            inst = generate_synthetic(n, co_density=density, planted_clique=planted, seed=n)
            assert sum(mask.bit_count() for mask in inst.co_masks) >= 10 * n
            expected = reference_enumerate_cliques_greedy(inst, seed=n)
            pools.clear()
            with monkeypatch.context() as patch:
                patch.setattr(random, "Random", RecordingRandom)
                assert enumerate_cliques_greedy(inst, seed=n) == expected, n
            assert len({id(pool) for pool in pools}) <= 2 * len(pools) / 3, n

    def test_masks_match_the_adjacency_map_and_never_reach_a_pickle(self):
        inst = generate_synthetic(30, co_density=0.3, planted_clique=5, seed=4)
        cold = pickle.dumps(inst)
        ids, index = inst.station_ids, inst.station_index
        assert [index[sid] for sid in ids] == list(range(inst.n))
        assert {ids[i]: frozenset(ids[j] for j in range(inst.n) if mask >> j & 1)
                for i, mask in enumerate(inst.co_masks)} == reference_co_adjacency(inst)
        assert pickle.dumps(inst) == cold

    def test_verify_raises_the_reference_message(self):
        inst = generate_synthetic(12, co_density=0.6, seed=7)
        index = inst.station_index
        rng = random.Random(5)
        raised = 0
        for _ in range(300):
            clique = frozenset(rng.sample(inst.station_ids, rng.randint(1, 5)))
            mask = sum(1 << index[sid] for sid in clique)
            expected = _raised(reference_verify_cliques, [clique], reference_co_adjacency(inst))
            assert _raised(_verify_cliques, [mask], inst) == expected
            raised += expected is not None
        assert 0 < raised < 300


class TestBlockingCheck:
    def test_clique_of_c_plus_one_blocks(self):
        catalog = CliqueCatalog(cliques=(frozenset(f"s{i}" for i in range(25)),))
        ids = [f"s{i}" for i in range(25)]
        report = blocking_check(catalog, frozenset(ids), channel_count=24)
        assert report.blocked and report.z == 25

    def test_intersection_below_threshold_not_blocked(self):
        catalog = CliqueCatalog(cliques=(frozenset({"a", "b", "c"}),))
        report = blocking_check(catalog, frozenset({"a", "b"}), channel_count=2)
        assert not report.blocked
        assert report.z is None

    def test_all_participating_is_unknown(self):
        catalog = CliqueCatalog(cliques=(frozenset({"a", "b", "c"}),))
        report = blocking_check(catalog, frozenset(), channel_count=1)
        assert not report.blocked

    def test_disjoint_blocking_cliques_sum(self):
        big1 = frozenset(f"x{i}" for i in range(25))
        big2 = frozenset(f"y{i}" for i in range(27))
        catalog = CliqueCatalog(cliques=(big1, big2))
        report = blocking_check(catalog, big1 | big2, channel_count=24)
        assert report.blocked and report.z == 52

    def test_overlapping_blocking_cliques_union_not_sum(self):
        c1 = frozenset({"a", "b", "c", "d"})
        c2 = frozenset({"c", "d", "e", "f"})
        catalog = CliqueCatalog(cliques=(c1, c2))
        report = blocking_check(catalog, c1 | c2, channel_count=2)
        assert report.blocked
        assert report.z == 6  # union, not 8
        assert report.clique_count == 2

    def test_partial_overlap_with_nonparticipants(self):
        clique = frozenset({"a", "b", "c", "d", "e"})
        catalog = CliqueCatalog(cliques=(clique,))
        # Three of five members refuse; threshold c+1 = 3 met.
        report = blocking_check(catalog, frozenset({"a", "b", "c"}), channel_count=2)
        assert report.blocked and report.z == 3
        # Only two refuse: not enough.
        report = blocking_check(catalog, frozenset({"a", "b"}), channel_count=2)
        assert not report.blocked


def _trial(verdict: str, z=None) -> TrialReport:
    return TrialReport(
        index=0, seed=0, draw_digest="", verdict=verdict, z=z,
        blocking_cliques=None if z is None else 1,
    )


class TestAttribution:
    """The share of an estimate's infeasible trials that blocking cliques explain."""

    def test_all_blocked(self):
        est = estimate_of(_trial("infeasible", z=5), _trial("infeasible", z=7))
        assert est.attribution_fraction == 1.0

    def test_none_blocked(self):
        est = estimate_of(_trial("infeasible"), _trial("infeasible"))
        assert est.attribution_fraction == 0.0

    def test_mixed(self):
        est = estimate_of(_trial("infeasible", z=5), _trial("infeasible"), _trial("feasible"))
        assert est.attribution_fraction == 0.5
        assert est.infeasible_count == 2

    def test_no_infeasible_trials_undefined(self):
        assert estimate_of(_trial("feasible")).attribution_fraction is None


class TestLowerBounds:
    def test_disjoint_cliques_add_their_excess(self):
        catalog = CliqueCatalog(cliques=(
            frozenset("abcde"), frozenset("fghi"), frozenset("abj"),
        ))
        # c = 2: {a..e} clears 3, {f..i} clears 2, {a,b,j} loses a and b.
        assert clearing_lower_bound(catalog, 2) == 5
        assert clearing_lower_bound(catalog, 2, within=frozenset("abcfgh")) == 2
        assert clearing_lower_bound(catalog, 5) == 0

    def test_overlapping_clique_counts_what_it_has_left(self):
        catalog = CliqueCatalog(cliques=(frozenset("abcdef"), frozenset("efghij")))
        # {e..j} minus {e, f} is {g, h, i, j}, still a clique above c = 3.
        assert clearing_lower_bound(catalog, 3) == 3 + 1

    def test_dma_bound_needs_disjoint_dma_sets(self):
        inst = build_instance(
            6, dma_of={"a": 1, "b": 1, "c": 2, "d": 2, "e": 3, "f": 3}, n_dmas=3)
        catalog = CliqueCatalog(cliques=(
            frozenset("abcd"), frozenset("abe"), frozenset("cd"), frozenset("ef"),
        ))
        # Above c = 1: {a,b,c,d} spans DMAs 1-2, so the packing takes
        # {c,d} (DMA 2) and {e,f} (DMA 3); {a,b,e} (DMAs 1, 3) meets {e,f}.
        assert dma_lower_bound(catalog, 1, inst) == 2
        assert dma_lower_bound(catalog, 3, inst) == 1
        assert dma_lower_bound(catalog, 4, inst) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_bounds_never_exceed_the_brute_force_minima(self, seed):
        # 5 channels, a 12 MHz target leaves c = 3; the planted clique of
        # c + 2 sits in DMA 1, with ADJ constraints and domain rows around it.
        # At this density most catalogs hold overlapping cliques above c,
        # whose plain sum would exceed the minimum.
        c, target = 3, 12
        inst = generate_synthetic(
            10, channel_count=5, co_density=0.35, adj_density=0.15, domain_density=0.1,
            n_dmas=4, planted_clique=c + 2, planted_clique_dma=1, seed=seed,
        )
        catalog = enumerate_cliques_greedy(inst, seed=derive_seed(seed, "catalog"))

        def problem(**caps):
            return RepackProblem(inst, target, **caps)

        b_star = brute_force_min_cleared(lambda cap: problem(max_cleared_nationwide=cap), inst.n)
        min_dmas = brute_force_min_cleared(
            lambda cap: problem(max_dmas_with_clearing=cap), len(inst.dmas))
        members = frozenset(inst.dma_members[1])
        nationwide_cap = b_star + math.ceil(b_star * 0.05)
        min_dma_1 = brute_force_min_cleared(
            lambda cap: problem(max_cleared_nationwide=nationwide_cap, dma_caps={1: cap}),
            len(members),
        )
        bounds = (
            clearing_lower_bound(catalog, c),
            dma_lower_bound(catalog, c, inst),
            clearing_lower_bound(catalog, c, within=members),
        )
        assert bounds[0] >= 2 and bounds[1] >= 1 and bounds[2] >= 2  # the planted clique
        assert bounds[0] <= b_star
        assert bounds[1] <= min_dmas
        assert bounds[2] <= min_dma_1


class TestDefaultCatalog:
    """The minimum searches and Monte Carlo build one catalog from a master seed."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_is_the_greedy_catalog_under_the_derived_seed(self, seed):
        inst = generate_synthetic(14, co_density=0.3, seed=8)
        catalog = default_catalog(inst, seed)
        assert len(catalog) > 0
        assert catalog == enumerate_cliques_greedy(inst, seed=derive_seed(seed, "catalog"))

    def test_monte_carlo_builds_it_only_when_given_none(self, monkeypatch):
        inst = generate_synthetic(14, channel_count=5, co_density=0.3, planted_clique=8, seed=8)
        built = []

        def recording(instance, seed):
            built.append(seed)
            return default_catalog(instance, seed)

        monkeypatch.setattr(montecarlo, "default_catalog", recording)
        model = ModelSpec.random_broadcasters(0.8)

        def verdicts(**kwargs):
            est = estimate_success(model, inst, 12, trials=6, seed=3, workers=1, **kwargs)
            return [(t.verdict, t.z, t.blocking_cliques) for t in est.trials]

        own = verdicts()
        assert built == [3]
        assert verdicts(catalog=default_catalog(inst, 3)) == own
        assert any(z is not None for _, z, _ in own)  # the catalog blocked a draw
        verdicts(backend=BACKEND_SAT)  # the scan-free backend builds none
        assert built == [3]
