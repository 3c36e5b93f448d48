"""Domain types, channel arithmetic, validation, and serialization."""

from __future__ import annotations

import csv
import math
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from repacker.instance import (
    US_UNIVERSE,
    Affiliation,
    ChannelAssignment,
    ChannelUniverse,
    ConstraintKind,
    Instance,
    InstanceError,
    InterferenceConstraint,
    RepackProblem,
    Station,
    derive_available_channels,
    validate_assignment,
)
from repacker.instance_io import (
    instance_digest,
    instance_to_json,
    load_instance,
    save_artifact,
    save_instance,
)
from repacker.cliques import CliqueCatalog, enumerate_cliques_greedy
from repacker.driver import SampleSet, sample_solutions
from repacker.montecarlo import BACKEND_CLIQUE_THEN_SAT, estimate_success, load_trial_set
from repacker.participation import ModelSpec
from repacker.synthetic import generate_synthetic, planted_clique_ids

from conftest import build_instance, random_problem
from reference_paths import reference_co_adjacency, reference_load_instance
from oracles import _delta_rules, brute_force_repack, oracle_check_assignment


class TestDeriveAvailableChannels:
    def test_84_mhz_leaves_24(self):
        plan = derive_available_channels(84, US_UNIVERSE)
        assert len(plan.channels) == 24
        assert plan.channels == tuple(range(14, 38))
        assert plan.flagged == {37}

    def test_90_mhz_leaves_22(self):
        # Above 84 MHz the reserved channel sits in the cleared block, so one
        # extra channel comes off the top: 37 - 15 = 22.
        plan = derive_available_channels(90, US_UNIVERSE)
        assert len(plan.channels) == 22
        assert plan.channels == tuple(range(14, 36))
        assert not plan.flagged

    def test_60_mhz_leaves_28(self):
        plan = derive_available_channels(60, US_UNIVERSE)
        assert len(plan.channels) == 28

    def test_monotone_in_target(self):
        counts = [len(derive_available_channels(m, US_UNIVERSE).channels) for m in range(6, 217, 6)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rejects_non_multiple_of_six(self):
        with pytest.raises(ValueError, match="multiple of 6"):
            derive_available_channels(7, US_UNIVERSE)
        with pytest.raises(ValueError):
            derive_available_channels(0, US_UNIVERSE)

    def test_rejects_target_beyond_universe(self):
        with pytest.raises(ValueError, match="usable"):
            derive_available_channels(6 * 38, US_UNIVERSE)  # only 37 usable channels

    def test_removed_channels_are_the_top(self):
        plan = derive_available_channels(12, US_UNIVERSE)
        assert US_UNIVERSE.channels[len(plan.channels):] == (50, 51)


class TestTypes:
    def test_co_constraint_canonical_order(self):
        ic = InterferenceConstraint(ConstraintKind.CO, "z", "a")
        assert (ic.a, ic.b) == ("a", "z")

    def test_self_interference_rejected(self):
        with pytest.raises(InstanceError):
            InterferenceConstraint(ConstraintKind.CO, "a", "a")

    def test_universe_forbidden_must_be_member(self):
        with pytest.raises(InstanceError):
            ChannelUniverse(channels=(1, 2), forbidden=frozenset({3}))

    def test_instance_rejects_dangling_references(self):
        with pytest.raises(InstanceError, match="unknown station"):
            build_instance(2, co_pairs=(("a", "zz"),))

    def test_each_error_names_one_offender_under_every_hash_seed(self):
        # Several bad rows in each set; which one a walk over the frozenset
        # meets first depends on the string hash seed.
        code = (
            "from conftest import build_instance\n"
            "from repacker.instance import InstanceError\n"
            "for rows in ({'co_pairs': (('a', 'x'), ('a', 'y'), ('b', 'z'))},\n"
            "             {'domain': (('x', 1), ('y', 2), ('z', 3))},\n"
            "             {'domain': (('a', 97), ('c', 98), ('b', 99), ('a', 96))}):\n"
            "    try:\n"
            "        build_instance(3, **rows)\n"
            "    except InstanceError as exc:\n"
            "        print(exc)\n"
        )
        outputs = set()
        for hash_seed in range(1, 9):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                timeout=120, cwd=os.path.dirname(__file__),
                env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            )
            outputs.add(proc.stdout)
        assert outputs == {
            "interference constraint references unknown station x\n"
            "domain constraint references unknown station x\n"
            "domain constraint on a names channel 96 outside the universe\n"
        }

    def test_instance_rejects_unknown_dma(self):
        with pytest.raises(InstanceError, match="unknown DMA"):
            Instance(
                stations=(Station("a", dma_id=9),),
                universe=ChannelUniverse(channels=(1,)),
                dmas={1: "one"},
            )

    def test_duplicate_station_ids_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            Instance(
                stations=(Station("a", 1), Station("a", 1)),
                universe=ChannelUniverse(channels=(1,)),
                dmas={1: "one"},
            )

    def test_problem_rejects_unknown_must_repack(self):
        inst = build_instance(2)
        with pytest.raises(InstanceError, match="must_repack"):
            RepackProblem(instance=inst, clearing_target_mhz=6, must_repack=frozenset({"zz"}))

    def test_problem_rejects_a_negative_dma_cap(self):
        inst = build_instance(2)
        with pytest.raises(ValueError, match="^cap for DMA 1 must be non-negative$"):
            RepackProblem(instance=inst, clearing_target_mhz=6, dma_caps={1: -1})

    def test_problem_rejects_a_cap_on_an_unknown_dma(self):
        inst = build_instance(2)
        with pytest.raises(InstanceError, match="^dma_caps references unknown DMA 9$"):
            RepackProblem(instance=inst, clearing_target_mhz=6, dma_caps={9: 1})

    @pytest.mark.parametrize("revenue", [math.nan, math.inf, -math.inf])
    def test_station_rejects_a_non_finite_revenue(self, revenue):
        with pytest.raises(InstanceError, match="^station a: revenue must be finite$"):
            Station("a", 1, revenue=revenue)

    def test_station_negative_revenue_message(self):
        with pytest.raises(InstanceError, match="^station a: revenue must be non-negative$"):
            Station("a", 1, revenue=-0.5)


class TestPickleState:
    """Pickles carry the dataclass fields only; derived caches are rebuilt."""

    INSTANCE_CACHES = ("station_ids", "by_id", "dma_members", "station_index", "conflicts",
                       "co_masks", "sorted_interference", "sorted_domain")

    def problem(self) -> RepackProblem:
        inst = generate_synthetic(40, channel_count=8, co_density=0.2, adj_density=0.1,
                                  domain_density=0.1, forbidden_channels=(15,), seed=3)
        return RepackProblem(
            instance=inst, clearing_target_mhz=12, must_repack=frozenset(inst.station_ids[:5]),
            max_cleared_nationwide=3, dma_caps={min(inst.dmas): 1},
        )

    def test_warm_pickle_no_larger_and_caches_rebuilt(self):
        prob = self.problem()
        cold = pickle.dumps(prob)
        expected = {name: getattr(prob.instance, name) for name in self.INSTANCE_CACHES}
        assert prob.channel_plan.flagged and prob.channel_plan.assignable
        warm = pickle.dumps(prob)
        assert len(warm) <= len(cold)
        loaded = pickle.loads(warm)
        assert loaded == prob
        assert not set(self.INSTANCE_CACHES) & set(vars(loaded.instance))
        assert "channel_plan" not in vars(loaded)
        assert {name: getattr(loaded.instance, name) for name in self.INSTANCE_CACHES} == expected
        assert loaded.channel_plan == prob.channel_plan
        assert loaded.channel_plan.assignable == prob.channel_plan.assignable

    def test_channel_plan_round_trip(self):
        plan = self.problem().channel_plan
        cold = pickle.dumps(plan)
        assignable = plan.assignable
        warm = pickle.dumps(plan)
        assert len(warm) <= len(cold)
        loaded = pickle.loads(warm)
        assert loaded == plan and "assignable" not in vars(loaded)
        assert loaded.assignable == assignable


class TestConflictTable:
    """``Instance.conflicts`` is ``sorted_interference`` on the station index,
    each row with the channel difference it rules out; the oracles' own rule
    table, which states the offsets apart from ``src/``, is the check."""

    @pytest.mark.parametrize("inst", [
        build_instance(5, adj_up=(("a", "b"), ("d", "c")), adj_down=(("b", "a"), ("e", "c")),
                       co_pairs=(("c", "a"), ("b", "e")), domain=(("a", 2), ("d", 3))),
        *(generate_synthetic(30, channel_count=6, co_density=0.15, adj_density=0.15,
                             domain_density=0.1, seed=seed) for seed in range(3)),
    ], ids=["hand-built", "synthetic-0", "synthetic-1", "synthetic-2"])
    def test_rows_in_order_with_the_oracles_offsets(self, inst):
        ids = inst.station_ids
        assert {ic.kind for ic in inst.interference} == set(ConstraintKind) and inst.domain
        assert [(ids[a], ids[b]) for a, b, _ in inst.conflicts] == [
            (ic.a, ic.b) for ic in inst.sorted_interference]
        rules = _delta_rules(inst)
        for a, b, d in inst.conflicts:
            assert (ids[b], d) in rules[ids[a]]
        # Each row forbids its difference seen from either end.
        both_ends = Counter((ids[a], ids[b], d) for a, b, d in inst.conflicts)
        both_ends.update((ids[b], ids[a], -d) for a, b, d in inst.conflicts)
        assert both_ends == Counter((x, y, d) for x, row in rules.items() for y, d in row)


class TestValidateAssignment:
    def test_co_violation(self):
        inst = build_instance(2, co_pairs=(("a", "b"),))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        bad = ChannelAssignment(channels={"a": 1, "b": 1})
        violations = validate_assignment(prob, bad)
        assert [v.kind for v in violations] == ["co-channel"]

    def test_must_repack_cleared_violation(self):
        inst = build_instance(2)
        prob = RepackProblem(instance=inst, clearing_target_mhz=6, must_repack=frozenset({"a"}))
        violations = validate_assignment(prob, ChannelAssignment(channels={"a": None, "b": 1}))
        assert [v.kind for v in violations] == ["must-repack-cleared"]

    def test_adjacency_directionality(self):
        inst = build_instance(2, adj_up=(("a", "b"),))
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        # channel(a) == channel(b) + 1 violates; the mirror image does not.
        assert validate_assignment(prob, ChannelAssignment(channels={"a": 2, "b": 1}))
        assert not validate_assignment(prob, ChannelAssignment(channels={"a": 1, "b": 2}))

    def test_unknown_station_raises(self):
        inst = build_instance(2)
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        with pytest.raises(InstanceError, match="does not cover"):
            validate_assignment(prob, ChannelAssignment(channels={"a": 1, "b": 1, "zz": 1}))

    def test_caps_checked(self):
        inst = build_instance(4, dma_of={"a": 1, "b": 1, "c": 2, "d": 2})
        prob = RepackProblem(
            instance=inst,
            clearing_target_mhz=6,
            max_cleared_nationwide=1,
            dma_caps={1: 0},
            max_dmas_with_clearing=1,
        )
        a = ChannelAssignment(channels={"a": None, "b": 1, "c": None, "d": 2})
        kinds = {v.kind for v in validate_assignment(prob, a)}
        assert kinds == {"nationwide-cap", "dma-cap", "dma-count-cap"}

    def test_channel_outside_the_plan(self):
        # A 6 MHz target removes channel 4, the top of the band.
        inst = build_instance(2)
        prob = RepackProblem(instance=inst, clearing_target_mhz=6)
        violations = validate_assignment(prob, ChannelAssignment(channels={"a": 4, "b": 1}))
        assert [(v.kind, v.stations) for v in violations] == [("unavailable-channel", ("a",))]

    def test_agrees_with_direct_oracle_on_random_assignments(self, rng: random.Random):
        for _ in range(150):
            prob = random_problem(rng, max_n=8, max_c=4)
            inst = prob.instance
            plan = prob.channel_plan
            choices = [None, *plan.channels]
            a = ChannelAssignment(
                channels={sid: rng.choice(choices) for sid in inst.station_ids}
            )
            ours = not validate_assignment(prob, a)
            theirs = oracle_check_assignment(prob, a)
            assert ours == theirs

    def test_pipeline_solutions_are_validator_clean(self, rng: random.Random):
        # Exercised much harder in the acceptance suite; quick spot check here.
        from repacker.driver import check_feasibility

        for _ in range(20):
            prob = random_problem(rng, max_n=7, max_c=4)
            res = check_feasibility(prob, seed=1, time_budget=30)
            if res.feasible:
                assert validate_assignment(prob, res.assignment) == []


def write_sample_set(inst, path):
    ss = sample_solutions(inst, 12, count=2, buffer=2, seed=5)
    ss.save_jsonl(path)

    def load(p, i):
        return [(s.seed, s.assignment) for s in SampleSet.load_jsonl(p, i).samples]

    return [(s.seed, s.assignment) for s in ss.samples], load


def write_trial_set(inst, path):
    est = estimate_success(
        ModelSpec.random_broadcasters(0.5), inst, 12, trials=6, seed=3,
        backend=BACKEND_CLIQUE_THEN_SAT,
    )
    est.save_trials_jsonl(path, inst)

    def load(p, i):
        return [t.to_json_dict() for t in load_trial_set(p, i).trials]

    return [t.to_json_dict() for t in est.trials], load


def write_clique_catalog(inst, path):
    catalog = enumerate_cliques_greedy(inst, seed=9)
    catalog.save_jsonl(path, inst, seed=9)
    return catalog.cliques, lambda p, i: CliqueCatalog.load_jsonl(p, i).cliques


class TestSerialization:
    @pytest.mark.parametrize(
        "write", [write_sample_set, write_trial_set, write_clique_catalog],
        ids=["sample-set", "trial-set", "clique-catalog"],
    )
    def test_artifact_checks_instance_and_kind(self, write, tmp_path):
        inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
        other = generate_synthetic(8, channel_count=5, co_density=0.35, seed=32)
        path = tmp_path / "artifact.jsonl"
        written, load = write(inst, path)
        assert written and load(path, inst) == written
        with pytest.raises(ValueError, match="different instance"):
            load(path, other)
        save_artifact(path, "other-kind", inst, {}, [])
        with pytest.raises(ValueError, match="not a .* file"):
            load(path, inst)
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a .* file"):
            load(path, inst)
        write(inst, path)
        path.write_text(path.read_text().splitlines()[0] + "\n[1, 2]\n")
        with pytest.raises(ValueError, match="line 2 is not a JSON object"):
            load(path, inst)
        write(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:2], "{not json", *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3 is not JSON: ")):
            load(path, inst)

    def test_csv_round_trip_is_canonical(self, tmp_path):
        inst = generate_synthetic(
            9, channel_count=6, co_density=0.3, adj_density=0.2, domain_density=0.1, seed=11
        )
        save_instance(inst, tmp_path / "inst")
        loaded = load_instance(tmp_path / "inst")
        assert instance_to_json(loaded) == instance_to_json(inst)
        # Loading then re-serializing is idempotent.
        save_instance(loaded, tmp_path / "again")
        reloaded = load_instance(tmp_path / "again")
        assert instance_to_json(reloaded) == instance_to_json(loaded)
        assert instance_digest(reloaded) == instance_digest(inst)

    def test_three_station_csv_fixture(self, tmp_path):
        d = tmp_path / "fixture"
        d.mkdir()
        (d / "stations.csv").write_text(
            "id,dma_id,affiliation,revenue\nKAAA,1,ABC,120.5\nKBBB,1,,\nKCCC,2,NONE,0\n"
        )
        (d / "interference.csv").write_text(
            "kind,station_a,station_b\nCO,KBBB,KAAA\nADJ_UP,KAAA,KCCC\n"
        )
        (d / "domain.csv").write_text("station,channel\nKCCC,14\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n2,Beta\n")
        inst = load_instance(d)
        assert inst.n == 3
        assert inst.by_id["KBBB"].affiliation is Affiliation.NONE
        assert inst.by_id["KBBB"].revenue == 0.0
        assert inst.by_id["KAAA"].revenue == 120.5
        co = [ic for ic in inst.interference if ic.kind is ConstraintKind.CO]
        assert (co[0].a, co[0].b) == ("KAAA", "KBBB")  # canonicalized

    def test_unknown_station_reference_reports_row(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id,affiliation,revenue\nKAAA,1,,\n")
        (d / "interference.csv").write_text(
            "kind,station_a,station_b\nCO,KAAA,KZZZ\n"
        )
        (d / "domain.csv").write_text("station,channel\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        with pytest.raises(InstanceError, match="row 2.*KZZZ"):
            load_instance(d)

    def test_duplicate_station_reports_row(self, tmp_path):
        d = tmp_path / "dup"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id\nKAAA,1\nKAAA,1\n")
        (d / "interference.csv").write_text("kind,station_a,station_b\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        with pytest.raises(InstanceError, match="row 3"):
            load_instance(d)

    @pytest.mark.parametrize("name, rows, message", [
        ("stations.csv", "id,dma_id,affiliation,revenue\nKAAA,1,,\nKBBB\n",
         "stations.csv, row 3: bad dma_id ''"),
        ("interference.csv", "kind,station_a,station_b\nCO,KAAA\n",
         "interference.csv, row 2: unknown station ''"),
        ("domain.csv", "station,channel\nKAAA\n", "domain.csv, row 2: bad channel ''"),
    ], ids=["stations", "interference", "domain"])
    def test_short_row_reports_row(self, name, rows, message, tmp_path):
        # Cells missing from a short row read as blank, so the row's error
        # names it instead of a TypeError or AttributeError escaping.
        d = tmp_path / "short"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id\nKAAA,1\n")
        (d / "interference.csv").write_text("kind,station_a,station_b\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        (d / name).write_text(rows)
        with pytest.raises(InstanceError) as info:
            load_instance(d)
        assert str(info.value) == message

    @pytest.mark.parametrize("universe, message", [
        ('{"channel": [14, 15]}', "universe.json: expected an object with a 'channels' list"),
        ('{"channels": [14, "x"]}',
         "universe.json: 'channels' must be a list of integers, got [14, \"x\"]"),
        ('{"channels": [14, 15], "forbidden": [15.5]}',
         "universe.json: 'forbidden' must be a list of integers, got [15.5]"),
        ('{"channels": 14}', "universe.json: 'channels' must be a list of integers, got 14"),
        ('{"channels": [14, 14]}', "universe.json: duplicate channels in universe"),
        ('{"channels": [14,', "universe.json: not JSON: "),
    ], ids=["missing-channels", "non-integer-channel", "non-integer-forbidden",
            "channels-not-a-list", "duplicate-channel", "not-json"])
    def test_bad_universe_names_the_file(self, universe, message, tmp_path):
        d = tmp_path / "universe"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id\nKAAA,1\n")
        (d / "interference.csv").write_text("kind,station_a,station_b\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        (d / "universe.json").write_text(universe)
        with pytest.raises(InstanceError) as info:
            load_instance(d)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_revenue_reports_row(self, cell, tmp_path):
        d = tmp_path / "revenue"
        d.mkdir()
        (d / "stations.csv").write_text(
            f"id,dma_id,affiliation,revenue\nKAAA,1,,2.5\nKBBB,1,,{cell}\n"
        )
        (d / "interference.csv").write_text("kind,station_a,station_b\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        with pytest.raises(InstanceError) as info:
            load_instance(d)
        assert str(info.value) == "stations.csv, row 3: station KBBB: revenue must be finite"
        assert _loaded(reference_load_instance, d) == ("InstanceError", str(info.value))

    def test_short_dma_row_has_a_blank_name(self, tmp_path):
        d = tmp_path / "short"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id\nKAAA,1\n")
        (d / "interference.csv").write_text("kind,station_a,station_b\n")
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n2\n")
        assert load_instance(d).dmas == {1: "Alpha", 2: ""}

    def test_duplicate_constraints_deduplicated(self, tmp_path):
        d = tmp_path / "dedup"
        d.mkdir()
        (d / "stations.csv").write_text("id,dma_id\nKAAA,1\nKBBB,1\n")
        (d / "interference.csv").write_text(
            "kind,station_a,station_b\nCO,KAAA,KBBB\nCO,KBBB,KAAA\nCO,KAAA,KBBB\n"
        )
        (d / "dmas.csv").write_text("dma_id,name\n1,Alpha\n")
        inst = load_instance(d)
        assert len(inst.interference) == 1


def _loaded(load, directory):
    """The canonical JSON of ``load(directory)``, or its exception's type and message."""
    try:
        return instance_to_json(load(directory))
    except Exception as exc:  # noqa: BLE001 - the reader and its reference must fail alike
        return type(exc).__name__, str(exc)


_JUNK = ("", " ", "  x ", "KZZZ", "ABC", " NONE", "CO", "ADJ_UP ", "co", "-1", "1.5", "07",
         "1e3", "multi\nline", "\u00e9")


def _mutate(rng: random.Random, rows: list[list[str]], ids: list[str]) -> list[list[str]]:
    """Rows after a few random edits a hand-written CSV file might carry."""
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        edit = rng.randrange(9)
        i = rng.randrange(len(rows))
        if edit == 0:
            rows.insert(rng.randint(1, len(rows)), [])
        elif edit == 1:
            rows[i] = rows[i][: rng.randint(0, len(rows[i]))]
        elif edit == 2:
            rows[i] = rows[i] + rng.sample(_JUNK, rng.randint(1, 2))
        elif edit == 3 and rows[i]:
            j = rng.randrange(len(rows[i]))
            rows[i][j] = f" {rows[i][j]}\t"
        elif edit == 4 and rows[i]:
            rows[i][rng.randrange(len(rows[i]))] = rng.choice(_JUNK + tuple(ids))
        elif edit == 5:
            rows.insert(rng.randint(1, len(rows)), list(rows[i]))
        elif edit == 6:
            order = rng.sample(range(len(rows[0])), len(rows[0]))
            rows = [[row[k] for k in order if k < len(row)] if row else row for row in rows]
        elif edit == 7 and rows[0]:
            rows[0] = rows[0] + [rng.choice(rows[0])]
        elif edit == 8:
            rows = rng.choice(([], [[]], rows[:1], [[]] + rows))
    return rows


class TestLoaderMatchesReference:
    def test_mutated_csv_directories(self, tmp_path):
        # The header-indexed reader loads what the DictReader loader loaded,
        # and rejects what it rejected with the same message.
        rng = random.Random(77)
        outcomes = {"loaded": 0, "rejected": 0}
        for case in range(400):
            inst = generate_synthetic(rng.randint(1, 8), co_density=0.4, adj_density=0.3,
                                      domain_density=0.2, seed=case)
            d = tmp_path / f"case{case}"
            save_instance(inst, d)
            for name in ("stations.csv", "interference.csv", "domain.csv", "dmas.csv"):
                if rng.random() < 0.35:
                    with open(d / name, newline="", encoding="utf-8") as fh:
                        rows = list(csv.reader(fh))
                    with open(d / name, "w", newline="", encoding="utf-8") as fh:
                        csv.writer(fh).writerows(_mutate(rng, rows, list(inst.station_ids)))
            if rng.random() < 0.1:
                (d / "domain.csv").unlink()
            expected = _loaded(reference_load_instance, d)
            assert _loaded(load_instance, d) == expected, case
            outcomes["loaded" if isinstance(expected, str) else "rejected"] += 1
        assert min(outcomes.values()) >= 100, outcomes


class TestSyntheticGenerator:
    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic(10, co_density=0.3, adj_density=0.1, seed=42)
        b = generate_synthetic(10, co_density=0.3, adj_density=0.1, seed=42)
        assert instance_to_json(a) == instance_to_json(b)
        c = generate_synthetic(10, co_density=0.3, adj_density=0.1, seed=43)
        assert instance_to_json(a) != instance_to_json(c)

    def test_zero_density_gives_constraint_free_instance(self):
        inst = generate_synthetic(5, co_density=0.0, seed=1)
        assert not inst.interference
        assert not inst.domain

    def test_planted_clique_is_pairwise_connected(self):
        inst = generate_synthetic(10, co_density=0.05, planted_clique=6, seed=5)
        members = planted_clique_ids(6)
        adj = reference_co_adjacency(inst)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert b in adj[a]

    def test_planted_clique_too_large(self):
        with pytest.raises(ValueError, match="clique"):
            generate_synthetic(3, planted_clique=4)

    @pytest.mark.parametrize("n_dmas", [0, -3])
    def test_no_dmas_refused(self, n_dmas):
        with pytest.raises(ValueError, match="^n_dmas must be at least 1$"):
            generate_synthetic(6, n_dmas=n_dmas)

    def test_planted_clique_dma_placement(self):
        inst = generate_synthetic(8, planted_clique=4, planted_clique_dma=2, seed=3)
        for sid in planted_clique_ids(4):
            assert inst.by_id[sid].dma_id == 2


class TestBruteForceOracleSelfCheck:
    def test_brute_force_finds_valid_assignment(self, rng: random.Random):
        found_some = False
        for _ in range(40):
            prob = random_problem(rng, max_n=7, max_c=4)
            a = brute_force_repack(prob)
            if a is not None:
                found_some = True
                assert validate_assignment(prob, a) == []
        assert found_some
