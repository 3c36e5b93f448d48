"""End-to-end subcommand tests: files in, files out, reproducible bytes."""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repacker import analytics, solver
from repacker.cli import _apply_config, _build_parser, _digest, main
from repacker.cliques import enumerate_cliques_greedy
from repacker.driver import sample_solutions
from repacker.instance import validate_assignment, RepackProblem, ChannelAssignment
from repacker.instance_io import load_instance
from repacker.montecarlo import BACKEND_SAT, estimate_success, shared_randomness_sweep
from repacker.participation import ModelSpec
from repacker.synthetic import generate_synthetic
from repacker.util import derive_seed

from conftest import build_instance, make_sample_set
from test_solver import external_cmd  # noqa: F401  (fixture)


def run_cli(capsys, *argv: str) -> dict:
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, f"exit {code}: {out.err}"
    return json.loads(out.out.strip().splitlines()[-1])


def run_cli_error(capsys, *argv: str) -> dict:
    code = main(list(argv))
    out = capsys.readouterr()
    assert code != 0
    return json.loads(out.err.strip().splitlines()[-1])


@pytest.fixture
def instance_dir(tmp_path, capsys) -> Path:
    d = tmp_path / "inst"
    run_cli(
        capsys, "gen", "--n", "8", "--channels", "5", "--co-density", "0.3",
        "--seed", "11", "--out", str(d),
    )
    return d


class TestGen:
    def test_generates_loadable_instance(self, tmp_path, capsys):
        d = tmp_path / "g"
        payload = run_cli(
            capsys, "gen", "--n", "6", "--channels", "4", "--clique-size", "3",
            "--seed", "2", "--out", str(d),
        )
        assert payload["n"] == 6
        inst = load_instance(d)
        assert inst.n == 6
        assert "config_digest" in payload

    def test_no_dmas_refused(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--n", "6", "--dmas", "0", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "n_dmas must be at least 1",
        }
        assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            run_cli(capsys, "gen", "--n", "7", "--seed", "5", "--out", str(d))
        for name in ("stations.csv", "interference.csv", "domain.csv", "dmas.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestEncode:
    def test_writes_dimacs_and_varmap(self, instance_dir, tmp_path, capsys):
        prefix = tmp_path / "out" / "formula"
        payload = run_cli(
            capsys, "encode", "--instance", str(instance_dir), "--target", "12",
            "--out", str(prefix),
        )
        cnf = Path(payload["cnf"]).read_text().splitlines()
        header = cnf[0].split()
        assert header[:2] == ["p", "cnf"]
        assert int(header[3]) == len(cnf) - 1
        vars_doc = json.loads(Path(payload["vars"]).read_text())
        assert vars_doc["var_count"] == payload["var_count"]
        assert "config_digest" in vars_doc

    # 18 MHz clears every usable channel of the 14..17 universe (16 is
    # reserved), so each station's block is its cleared variable alone.
    @pytest.mark.parametrize("target, cnf_sha, vars_sha", [
        (6, "0f03f0a98f8e8164d57328c015d37a3a38d6e6b4277ef15fa510517d2fd24c74",
         "f5de9f9dfad0c3628de4177404cbff1505c9d495a1ad832dac2a12248bd92ace"),
        (18, "fc2471e1dac190f6da631eb34e57fd58d646a89a5027f2478d8777a4dc2539cc",
         "6dd68c9957e35979013a3f712aaae80baa11a1d72a8c17aaa63bf8119f57dce9"),
    ], ids=["6-mhz", "empty-band"])
    def test_output_bytes_are_pinned(self, tmp_path, monkeypatch, capsys, target, cnf_sha, vars_sha):
        # Relative paths, so the config digest written to vars.json is fixed.
        monkeypatch.chdir(tmp_path)
        run_cli(
            capsys, "gen", "--n", "14", "--channels", "4", "--co-density", "0.3",
            "--adj-density", "0.15", "--domain-density", "0.1", "--dmas", "3",
            "--forbidden", "16", "--seed", "19", "--out", "inst",
        )
        Path("must.txt").write_text("s0001\ns0004\ns0009\n")
        run_cli(
            capsys, "encode", "--instance", "inst", "--target", str(target),
            "--cap-nationwide", "9", "--dma-cap", "1=2", "--dma-cap", "3=1", "--max-dmas", "2",
            "--must-repack", "must.txt", "--out", "f",
        )
        assert hashlib.sha256(Path("f.cnf").read_bytes()).hexdigest() == cnf_sha
        assert hashlib.sha256(Path("f.vars.json").read_bytes()).hexdigest() == vars_sha


class TestSolve:
    def test_feasible_writes_assignment(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "assignment.json"
        payload = run_cli(
            capsys, "solve", "--instance", str(instance_dir), "--target", "12",
            "--repack-all", "--seed", "3", "--out", str(out),
        )
        assert payload["verdict"] == "sat"
        assert payload["violations"] == 0
        doc = json.loads(out.read_text())
        inst = load_instance(instance_dir)
        assignment = ChannelAssignment.from_json_dict(doc["assignment"])
        prob = RepackProblem(
            instance=inst, clearing_target_mhz=12,
            must_repack=frozenset(inst.station_ids),
        )
        assert validate_assignment(prob, assignment) == []

    def test_infeasible_reports_verdict(self, tmp_path, capsys):
        d = tmp_path / "clique"
        run_cli(
            capsys, "gen", "--n", "5", "--channels", "4", "--co-density", "0",
            "--clique-size", "5", "--seed", "1", "--out", str(d),
        )
        payload = run_cli(
            capsys, "solve", "--instance", str(d), "--target", "12",
            "--repack-all", "--seed", "1",
        )
        assert payload["verdict"] == "unsat"


class TestMinSearches:
    def test_min_clear_with_certificate(self, tmp_path, capsys):
        d = tmp_path / "clique"
        run_cli(
            capsys, "gen", "--n", "6", "--channels", "5", "--co-density", "0",
            "--clique-size", "4", "--seed", "1", "--out", str(d),
        )
        out = tmp_path / "min.json"
        payload = run_cli(
            capsys, "min-clear", "--instance", str(d), "--target", "12",
            "--out", str(out),
        )
        assert payload["value"] == 1  # clique of 4 on c = 3 channels
        assert payload["certified"] is True
        probes = {(p["cap"], p["verdict"]) for p in payload["probes"]}
        assert (1, "sat") in probes
        assert (0, "unsat") in probes
        doc = json.loads(out.read_text())
        assert "witness" in doc

    def test_min_dmas(self, instance_dir, capsys):
        payload = run_cli(
            capsys, "min-dmas", "--instance", str(instance_dir), "--target", "6"
        )
        assert payload["certified"] is True

    def test_min_dma_isolated(self, instance_dir, capsys):
        payload = run_cli(
            capsys, "min-dma-isolated", "--instance", str(instance_dir),
            "--target", "6", "--dma", "1",
        )
        assert payload["value"] >= 0

    def test_min_dma_isolated_refuses_a_negative_slack(self, instance_dir, capsys):
        code = main([
            "min-dma-isolated", "--instance", str(instance_dir), "--target", "6", "--dma", "1",
            "--slack", "-0.5",
        ])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert err["error"] == {"type": "ValueError", "message": "slack must be non-negative"}


class TestSampleAndStats:
    def test_sample_then_stats(self, instance_dir, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        payload = run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "12",
            "--count", "8", "--buffer", "2", "--seed", "4", "--out", str(samples),
        )
        assert payload["samples"] == 8
        assert payload["shortfall"] == 0

        stats_dir = tmp_path / "stats"
        run_cli(
            capsys, "stats", "--instance", str(instance_dir),
            "--samples", str(samples), "--out", str(stats_dir),
        )
        for name in (
            "dma_stats.csv", "missing_mass.csv", "broadcaster_frequencies.csv",
            "diversity.csv", "correlations.csv", "summary.json",
        ):
            assert (stats_dir / name).exists(), name
        first = (stats_dir / "dma_stats.csv").read_text().splitlines()[0]
        assert first.startswith("# config_digest=")

    def test_sample_reproducible_bytes(self, instance_dir, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(
                capsys, "sample", "--instance", str(instance_dir), "--target", "12",
                "--count", "4", "--buffer", "2", "--seed", "4", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_stats_missing_mass_matches_fixture(self, tmp_path, capsys):
        # Store a fabricated 300-draw sample set with known counts and check
        # the emitted table row: 190 unique, 117 singletons, 39.0%.
        inst = build_instance(12, channels=tuple(range(1, 10)))
        inst_dir = tmp_path / "fixture-inst"
        from repacker.instance_io import save_instance

        save_instance(inst, inst_dir)
        u = list(inst.station_ids)

        def fresh(k):
            return ChannelAssignment(channels={s: 1 + (k // 8**i) % 8 for i, s in enumerate(u)})

        assignments, key = [], 0
        for _ in range(117):
            assignments.append(fresh(key)); key += 1
        for i in range(73):
            a = fresh(key); key += 1
            assignments.extend([a] * (3 if i < 37 else 2))
        ss = make_sample_set(inst, assignments, target_mhz=6)
        samples_path = tmp_path / "fixture.jsonl"
        ss.save_jsonl(samples_path)

        out_dir = tmp_path / "stats-out"
        run_cli(
            capsys, "stats", "--instance", str(inst_dir),
            "--samples", str(samples_path), "--out", str(out_dir),
        )
        with open(out_dir / "missing_mass.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert rows[0]["draws"] == "300"
        assert rows[0]["unique_solutions"] == "190"
        assert rows[0]["singletons"] == "117"
        assert rows[0]["missing_mass"] == "0.3900"

    def test_config_delta_table(self, instance_dir, tmp_path, capsys):
        s84 = tmp_path / "s84.jsonl"
        s96 = tmp_path / "s96.jsonl"
        run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "6",
            "--count", "5", "--buffer", "2", "--seed", "4", "--out", str(s84),
        )
        run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "12",
            "--count", "5", "--buffer", "2", "--seed", "4", "--out", str(s96),
        )
        out_dir = tmp_path / "delta"
        run_cli(
            capsys, "stats", "--instance", str(instance_dir),
            "--samples", str(s84), "--samples-b", str(s96), "--out", str(out_dir),
        )
        assert (out_dir / "config_delta.csv").exists()


class TestSimulateAndCliques:
    def test_cliques_then_simulate(self, tmp_path, capsys):
        d = tmp_path / "inst"
        run_cli(
            capsys, "gen", "--n", "10", "--channels", "5", "--co-density", "0.1",
            "--clique-size", "5", "--seed", "3", "--out", str(d),
        )
        catalog = tmp_path / "cliques.jsonl"
        payload = run_cli(
            capsys, "cliques", "--instance", str(d), "--min-size", "2",
            "--seed", "1", "--out", str(catalog),
        )
        assert payload["largest"] >= 5

        sim_dir = tmp_path / "sim"
        payload = run_cli(
            capsys, "simulate", "--instance", str(d), "--target", "12",
            "--model", "random-broadcasters", "--alpha", "0.6", "--trials", "40",
            "--backend", "clique-then-sat", "--catalog", str(catalog),
            "--seed", "5", "--out", str(sim_dir),
        )
        assert 0.0 <= payload["points"][0]["p"] <= 1.0
        assert (sim_dir / "summary.csv").exists()
        assert (sim_dir / "trials.jsonl").exists()

        stats_dir = tmp_path / "tstats"
        run_cli(
            capsys, "stats", "--instance", str(d),
            "--trials-file", str(sim_dir / "trials.jsonl"), "--out", str(stats_dir),
        )
        assert (stats_dir / "trials_summary.csv").exists()

    def test_sweep_outputs_per_alpha(self, tmp_path, capsys):
        d = tmp_path / "inst"
        run_cli(
            capsys, "gen", "--n", "8", "--channels", "4", "--co-density", "0.1",
            "--clique-size", "4", "--seed", "3", "--out", str(d),
        )
        sim_dir = tmp_path / "sweep"
        payload = run_cli(
            capsys, "simulate", "--instance", str(d), "--target", "6",
            "--model", "random-broadcasters", "--alphas", "0.3,0.6,0.9",
            "--trials", "10", "--backend", "clique-only", "--seed", "5",
            "--out", str(sim_dir),
        )
        assert len(payload["points"]) == 3
        for a in ("0.3", "0.6", "0.9"):
            assert (sim_dir / f"trials-alpha-{a}.jsonl").exists()


class TestCrossProcessReproducibility:
    def test_outputs_identical_under_different_hash_seeds(self, tmp_path):
        # Full reproducibility from config + master seed: two fresh processes
        # with different string-hash randomization must emit identical bytes.
        import os
        import subprocess
        import sys

        inst_dir = tmp_path / "inst"
        outputs = []
        for hash_seed, tag in (("1", "x"), ("99", "y")):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            if not inst_dir.exists():
                subprocess.run(
                    [sys.executable, "-m", "repacker.cli", "gen", "--n", "9",
                     "--channels", "5", "--co-density", "0.3", "--seed", "7",
                     "--out", str(inst_dir)],
                    check=True, env=env, capture_output=True,
                )
            out = tmp_path / f"samples-{tag}.jsonl"
            sim = tmp_path / f"sim-{tag}"
            subprocess.run(
                [sys.executable, "-m", "repacker.cli", "sample", "--instance",
                 str(inst_dir), "--target", "12", "--count", "5", "--buffer", "2",
                 "--seed", "3", "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            subprocess.run(
                [sys.executable, "-m", "repacker.cli", "simulate", "--instance",
                 str(inst_dir), "--target", "12", "--model", "random-broadcasters",
                 "--alpha", "0.5", "--trials", "20", "--backend", "clique-then-sat",
                 "--seed", "3", "--out", str(sim)],
                check=True, env=env, capture_output=True,
            )
            outputs.append(
                (out.read_bytes(), (sim / "summary.csv").read_bytes(),
                 (sim / "trials.jsonl").read_bytes())
            )
        assert outputs[0] == outputs[1]


class TestWorkers:
    @pytest.mark.parametrize("command", ["sample", "simulate"])
    def test_default_is_the_cpus_this_process_may_run_on(self, monkeypatch, command):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        _, commands = _build_parser()
        assert commands[command].get_default("workers") == 2

    def test_default_without_an_affinity_call_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        _, commands = _build_parser()
        assert commands["simulate"].get_default("workers") == 5

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
    def test_simulate_leaves_no_process_behind(self, instance_dir, tmp_path):
        # A sweep, so that later estimates run in the kept pool's workers.
        argv = [
            sys.executable, "-m", "repacker.cli", "simulate", "--instance", str(instance_dir),
            "--target", "12", "--model", "random-broadcasters", "--alphas", "0.3,0.6",
            "--trials", "8", "--workers", "2", "--out", str(tmp_path / "sim"),
        ]
        with subprocess.Popen(argv, stdout=subprocess.DEVNULL, start_new_session=True) as proc:
            try:
                assert proc.wait(timeout=120) == 0
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, 9)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no member of its session's group is left


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "instance": str(instance_dir),
            "target": 12,
            "count": 3,
            "buffer": 2,
            "seed": 4,
        }))
        out = tmp_path / "s.jsonl"
        payload = run_cli(
            capsys, "sample", "--config", str(config), "--count", "2", "--out", str(out),
        )
        assert payload["samples"] == 2  # flag wins over config

    def test_missing_instance_is_json_error(self, capsys, tmp_path):
        err = run_cli_error(
            capsys, "solve", "--instance", str(tmp_path / "nope"), "--target", "12"
        )
        assert "error" in err
        assert err["error"]["type"] == "InstanceError"

    def test_missing_required_flag(self, instance_dir, capsys):
        err = run_cli_error(capsys, "solve", "--instance", str(instance_dir))
        assert "target" in err["error"]["message"]

    def test_stats_requires_input(self, instance_dir, tmp_path, capsys):
        err = run_cli_error(
            capsys, "stats", "--instance", str(instance_dir),
            "--out", str(tmp_path / "x"),
        )
        assert "samples" in err["error"]["message"]

    def test_stats_samples_b_requires_samples(self, instance_dir, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "12", "--count", "2",
            "--workers", "1", "--out", str(samples),
        )
        err = run_cli_error(
            capsys, "stats", "--instance", str(instance_dir), "--samples-b", str(samples),
            "--trials-file", str(samples), "--out", str(tmp_path / "stats"),
        )
        assert err["error"] == {"type": "CliError", "message": "--samples-b needs --samples"}
        assert not (tmp_path / "stats").exists()

    def test_stats_rejects_trials_from_another_instance(self, instance_dir, tmp_path, capsys):
        run_cli(
            capsys, "simulate", "--instance", str(instance_dir), "--target", "12",
            "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "3",
            "--backend", "clique-only", "--workers", "1", "--out", str(tmp_path / "sim"),
        )
        other = tmp_path / "other"
        run_cli(
            capsys, "gen", "--n", "8", "--channels", "5", "--co-density", "0.3",
            "--seed", "12", "--out", str(other),
        )
        err = run_cli_error(
            capsys, "stats", "--instance", str(other),
            "--trials-file", str(tmp_path / "sim" / "trials.jsonl"),
            "--out", str(tmp_path / "stats"),
        )
        assert err["error"]["type"] == "CliError"
        assert "different instance" in err["error"]["message"]
        assert not (tmp_path / "stats").exists()

    def test_stats_rejects_samples_b_from_another_instance(self, instance_dir, tmp_path, capsys):
        other = tmp_path / "other"
        run_cli(
            capsys, "gen", "--n", "8", "--channels", "5", "--co-density", "0.3",
            "--seed", "12", "--out", str(other),
        )
        for inst, path in ((other, "own.jsonl"), (instance_dir, "foreign.jsonl")):
            run_cli(
                capsys, "sample", "--instance", str(inst), "--target", "12", "--count", "3",
                "--seed", "4", "--workers", "1", "--out", str(tmp_path / path),
            )
        err = run_cli_error(
            capsys, "stats", "--instance", str(other), "--samples", str(tmp_path / "own.jsonl"),
            "--samples-b", str(tmp_path / "foreign.jsonl"), "--out", str(tmp_path / "stats"),
        )
        assert "different instance" in err["error"]["message"]
        assert not (tmp_path / "stats").exists()

    def test_simulate_rejects_catalog_from_another_instance(self, instance_dir, tmp_path, capsys):
        other = tmp_path / "other"
        run_cli(
            capsys, "gen", "--n", "8", "--channels", "5", "--co-density", "0.3",
            "--seed", "12", "--out", str(other),
        )
        run_cli(capsys, "cliques", "--instance", str(other), "--out", str(tmp_path / "c.jsonl"))
        err = run_cli_error(
            capsys, "simulate", "--instance", str(instance_dir), "--target", "12",
            "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "2",
            "--backend", "clique-then-sat", "--catalog", str(tmp_path / "c.jsonl"),
            "--workers", "1", "--out", str(tmp_path / "sim"),
        )
        assert "different instance" in err["error"]["message"]
        assert not (tmp_path / "sim").exists()


    def test_simulate_rejects_alpha_with_alphas(self, instance_dir, tmp_path, capsys):
        sweep = (
            "simulate", "--instance", str(instance_dir), "--target", "12",
            "--model", "correlated-affiliates", "--alphas", "0.2,0.5", "--trials", "2",
            "--backend", "clique-only", "--workers", "1",
        )
        err = run_cli_error(capsys, *sweep, "--alpha", "0.95", "--out", str(tmp_path / "a"))
        assert err["error"]["type"] == "CliError"
        assert "--alphas" in err["error"]["message"]
        assert not (tmp_path / "a").exists()
        # The base model comes from the first grid point, so every point is checked alike.
        assert len(run_cli(capsys, *sweep, "--out", str(tmp_path / "b"))["points"]) == 2

    def test_simulate_rejects_grid_points_sharing_a_trial_file(self, tmp_path, capsys):
        # Both rates print as 0.123456, so their trial files would collide. The
        # check comes before any work: the instance directory does not exist.
        err = run_cli_error(
            capsys, "simulate", "--instance", str(tmp_path / "absent"), "--target", "12",
            "--model", "random-broadcasters", "--alphas", "0.1234561,0.1234562",
            "--trials", "2", "--backend", "clique-only", "--workers", "1",
            "--out", str(tmp_path / "sim"),
        )
        assert err["error"] == {
            "type": "CliError",
            "message": "--alphas 0.1234561 and 0.1234562 would both write "
                       "trials-alpha-0.123456.jsonl",
        }
        assert not (tmp_path / "sim").exists()

    def test_stats_rejects_a_record_that_is_not_an_object(self, instance_dir, tmp_path, capsys):
        run_cli(
            capsys, "simulate", "--instance", str(instance_dir), "--target", "12",
            "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "3",
            "--backend", "clique-only", "--workers", "1", "--out", str(tmp_path / "sim"),
        )
        trials = tmp_path / "sim" / "trials.jsonl"
        trials.write_text(trials.read_text().splitlines()[0] + "\n[1,2]\n")
        err = run_cli_error(
            capsys, "stats", "--instance", str(instance_dir),
            "--trials-file", str(trials), "--out", str(tmp_path / "stats"),
        )
        assert err["error"] == {
            "type": "CliError", "message": f"{trials}: line 2 is not a JSON object",
        }
        assert not (tmp_path / "stats").exists()

    def test_config_alpha_loses_to_flag(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "random-broadcasters", "alpha": 0.1}))
        run = (
            "simulate", "--config", str(config), "--instance", str(instance_dir),
            "--target", "12", "--trials", "2", "--backend", "clique-only", "--workers", "1",
        )
        payload = run_cli(capsys, *run, "--alpha", "0.9", "--out", str(tmp_path / "a"))
        assert payload["points"][0]["alpha"] == 0.9
        assert "0.9" in (tmp_path / "a" / "summary.csv").read_text()

    def test_config_model_spec_is_ignored_like_any_unknown_field(
        self, instance_dir, tmp_path, capsys
    ):
        plain, spec = tmp_path / "plain.json", tmp_path / "spec.json"
        fields = {"model": "random-broadcasters", "alpha": 0.9}
        plain.write_text(json.dumps(fields))
        spec.write_text(json.dumps(
            {**fields, "model_spec": {"kind": "random-broadcasters", "alpha": 0.1}}
        ))
        run = (
            "simulate", "--instance", str(instance_dir), "--target", "12", "--trials", "2",
            "--backend", "clique-only", "--workers", "1",
        )
        a = run_cli(capsys, *run, "--config", str(plain), "--out", str(tmp_path / "a"))
        b = run_cli(capsys, *run, "--config", str(spec), "--out", str(tmp_path / "b"))
        assert a == {**b, "out": a["out"]}
        assert b["points"][0]["alpha"] == 0.9
        # A model_spec object no longer stands in for --model.
        spec.write_text(json.dumps({"model_spec": {"kind": "random-broadcasters", "alpha": 0.1}}))
        err = run_cli_error(capsys, *run, "--config", str(spec), "--out", str(tmp_path / "c"))
        assert err["error"]["message"] == "missing required parameter: --model"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("rates", [
        ("--model", "revenue", "--beta", "0.5", "--gamma", "1", "--alphas", "0.2,0.4"),
        ("--model", "random-broadcasters", "--alphas", "0.4,0.2"),
    ], ids=["revenue-sweep", "decreasing-grid"])
    def test_simulate_rejects_a_sweep_before_creating_out(
        self, rates, instance_dir, tmp_path, capsys
    ):
        err = run_cli_error(
            capsys, "simulate", "--instance", str(instance_dir), "--target", "12", *rates,
            "--trials", "2", "--backend", "clique-only", "--workers", "1",
            "--out", str(tmp_path / "sim"),
        )
        assert err["error"]["type"] == "ValueError"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("model, name", [
        (("random-broadcasters", "--alpha", "0.3", "--beta", "0.7", "--gamma", "2"), "beta"),
        (("revenue", "--alpha", "0.3", "--beta", "0.5", "--gamma", "1"), "alpha"),
    ])
    def test_simulate_refuses_a_parameter_the_model_does_not_read(
        self, model, name, instance_dir, tmp_path, capsys
    ):
        err = run_cli_error(
            capsys, "simulate", "--instance", str(instance_dir), "--target", "12",
            "--model", *model, "--trials", "2", "--workers", "1", "--out", str(tmp_path / "sim"),
        )
        assert err["error"] == {
            "type": "ValueError", "message": f"{model[0]}: the model does not read {name}",
        }
        assert not (tmp_path / "sim").exists()


def _rewrite(path: Path, edit) -> None:
    """Rewrite a JSON-lines artifact after ``edit`` changes its records (meta first)."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestMalformedArtifacts:
    """A record a reader cannot parse is a CliError naming the file and line,
    raised before any output exists."""

    @pytest.fixture
    def artifacts(self, instance_dir, tmp_path, capsys) -> dict[str, Path]:
        paths = {
            "samples": tmp_path / "s.jsonl",
            "trials": tmp_path / "sim" / "trials.jsonl",
            "catalog": tmp_path / "c.jsonl",
        }
        solving = ("--instance", str(instance_dir), "--target", "12", "--workers", "1")
        run_cli(capsys, "sample", *solving, "--count", "3", "--out", str(paths["samples"]))
        run_cli(
            capsys, "simulate", *solving, "--model", "random-broadcasters", "--alpha", "0.5",
            "--trials", "3", "--backend", "clique-only", "--out", str(tmp_path / "sim"),
        )
        run_cli(capsys, "cliques", "--instance", str(instance_dir), "--out", str(paths["catalog"]))
        return paths

    @pytest.mark.parametrize("artifact, edit, line, message", [
        ("trials", lambda r: r.append({"type": "trial", "seed": 1}), 5,
         "missing field 'index'"),
        ("trials", lambda r: r[2].update(verdict="banana"), 3,
         'verdict must be one of ["feasible", "infeasible", "timeout"], got "banana"'),
        ("trials", lambda r: r[0].update(model={"kind": "nope", "alpha": 0.5}), 1,
         'kind must be one of ["random-broadcasters", "random-affiliates", '
         '"correlated-affiliates", "revenue"], got "nope"'),
        ("trials", lambda r: r[0].pop("model"), 1, "missing field 'model'"),
        ("trials", lambda r: r[0].update(backend="warp"), 1,
         'backend must be one of ["sat", "clique-then-sat", "clique-only"], got "warp"'),
        ("samples", lambda r: r[2].pop("assignment"), 3, "missing field 'assignment'"),
        ("samples", lambda r: r[1]["stats"].update(restarts_typo=1), 2,
         "stats fields must be ['conflicts', 'decisions', 'propagations'], "
         "got ['conflicts', 'decisions', 'propagations', 'restarts_typo']"),
        ("samples", lambda r: r[1]["assignment"].update(KZZZ=None), 2,
         "assignment does not cover the instance: unknown=['KZZZ'] missing=[]"),
        ("samples", lambda r: r[2]["assignment"].pop("s0005"), 3,
         "assignment does not cover the instance: unknown=[] missing=['s0005']"),
        ("samples", lambda r: r[3].update(assignment=["s0000"]), 4,
         'assignment must be an object, got ["s0000"]'),
        ("catalog", lambda r: r.append({"type": "clique"}), None, "missing field 'members'"),
        ("catalog", lambda r: r.append({"type": "clique", "members": ["KZZZ"]}), None,
         "unknown station 'KZZZ'"),
        ("trials", lambda r: r[1].update(index=1.9), 2, "index must be an integer, got 1.9"),
        ("trials", lambda r: r[2].update(seed=True), 3, "seed must be an integer, got true"),
        ("trials", lambda r: r[1].update(z="x"), 2, 'z must be an integer or null, got "x"'),
        ("trials", lambda r: r[3].update(blocking_cliques=2.0), 4,
         "blocking_cliques must be an integer or null, got 2.0"),
        ("trials", lambda r: r[1].update(draw_digest=7), 2, "draw_digest must be a string, got 7"),
        ("trials", lambda r: r[0].update(target_mhz="12"), 1,
         'target_mhz must be an integer, got "12"'),
        ("samples", lambda r: r[1]["assignment"].update(s0000=15.7), 2,
         "channel of s0000 must be an integer or null, got 15.7"),
        ("samples", lambda r: r[2]["assignment"].update(s0001=True), 3,
         "channel of s0001 must be an integer or null, got true"),
        ("samples", lambda r: r[3]["assignment"].update(s0002="16"), 4,
         'channel of s0002 must be an integer or null, got "16"'),
        ("samples", lambda r: r[1].update(seed=4.0), 2, "seed must be an integer, got 4.0"),
        ("samples", lambda r: r[0].update(cap=2.5), 1, "cap must be an integer or null, got 2.5"),
        ("samples", lambda r: r[0].update(use_domain="no"), 1,
         'use_domain must be true or false, got "no"'),
        ("trials", lambda r: r[0].update(use_domain=1), 1, "use_domain must be true or false, got 1"),
        ("catalog", lambda r: r[0].update(min_size=2.9), 1, "min_size must be an integer, got 2.9"),
        ("catalog", lambda r: r[0].update(min_size=True), 1, "min_size must be an integer, got true"),
        ("catalog", lambda r: r[0].update(min_size="3"), 1, 'min_size must be an integer, got "3"'),
        ("catalog", lambda r: r[0].update(min_size=0), 1, "min_size must be at least 1, got 0"),
        ("catalog", lambda r: r.append({"type": "clique", "members": "s0003"}), None,
         'members must be a list of strings, got "s0003"'),
        ("catalog", lambda r: r.append({"type": "clique", "members": ["s0003", 4]}), None,
         'members must be a list of strings, got ["s0003", 4]'),
        ("catalog", lambda r: r.append({"type": "clique", "members": ["s0003"]}), None,
         "a clique of 1 is below min_size 2"),
        ("samples", lambda r: r[1]["stats"].update(decisions="many"), 2,
         'decisions must be an integer, got "many"'),
        ("samples", lambda r: r[2]["stats"].update(conflicts=2.5), 3,
         "conflicts must be an integer, got 2.5"),
        ("samples", lambda r: r[3]["stats"].update(propagations=True), 4,
         "propagations must be an integer, got true"),
        ("samples", lambda r: r[2]["stats"].update(wall_time=0.5), 3,
         "stats fields must be ['conflicts', 'decisions', 'propagations'], "
         "got ['conflicts', 'decisions', 'propagations', 'wall_time']"),
        ("samples", lambda r: r[1]["stats"].pop("conflicts"), 2,
         "stats fields must be ['conflicts', 'decisions', 'propagations'], "
         "got ['decisions', 'propagations']"),
        ("trials", lambda r: r[0]["model"].update(alpha=True), 1,
         "alpha must be a number or null, got true"),
        ("trials", lambda r: r[0]["model"].update(alpha="x"), 1,
         'alpha must be a number or null, got "x"'),
        ("trials", lambda r: r[0].update(model={"kind": "correlated-affiliates", "alpha": 0.5,
                                                "top_prob": "0.9"}), 1,
         'top_prob must be a number, got "0.9"'),
        ("trials", lambda r: r[0].update(model={"kind": "revenue", "beta": [0.5], "gamma": 1}), 1,
         "beta must be a number or null, got [0.5]"),
        ("trials", lambda r: r[0].update(model={"kind": "revenue", "beta": 0.5, "gamma": False}), 1,
         "gamma must be a number or null, got false"),
        ("catalog", lambda r: r.append(dict(r[1])), None, "repeats the clique of line 2"),
        ("catalog", lambda r: r.append({**r[1], "members": r[1]["members"][::-1]}), None,
         "repeats the clique of line 2"),
        ("trials", lambda r: r.append(dict(r[2])), None, "repeats the trial of line 3"),
        ("trials", lambda r: r.append({**r[1], "seed": r[1]["seed"] + 1}), None,
         "repeats the trial of line 2"),
        ("samples", lambda r: r.append(dict(r[1])), None, "repeats the sample of line 2"),
        ("trials", lambda r: [(t.pop("z"), t.pop("blocking_cliques")) for t in r[1:]], 2,
         "missing field 'z'"),
        ("trials", lambda r: r[3].pop("blocking_cliques"), 4, "missing field 'blocking_cliques'"),
        ("samples", lambda r: r[0].pop("buffer"), 1, "missing field 'buffer'"),
        ("samples", lambda r: r[0].pop("b_star"), 1, "missing field 'b_star'"),
        ("samples", lambda r: r[0].pop("requested"), 1, "missing field 'requested'"),
        ("catalog", lambda r: r[0].pop("min_size"), 1, "missing field 'min_size'"),
        ("trials", lambda r: r[0].update(model=["random-broadcasters", 0.5]), 1,
         'model must be an object, got ["random-broadcasters", 0.5]'),
        ("samples", lambda r: r[2].update(stats=[0, 0, 0]), 3, "stats must be an object, got [0, 0, 0]"),
        # The fixture's sample set has b_star 0, buffer 10 and cap 10.
        ("samples", lambda r: r[0].update(b_star=-5, cap=5), 1,
         "b_star must equal cap - buffer and be non-negative, got -5"),
        ("samples", lambda r: r[0].update(b_star=7), 1,
         "b_star must equal cap - buffer and be non-negative, got 7"),
        ("samples", lambda r: r[0].update(buffer=9), 1,
         "b_star must equal cap - buffer and be non-negative, got 0"),
        ("samples", lambda r: r[0].update(cap=None), 1,
         "b_star must equal cap - buffer and be non-negative, got 0"),
        ("samples", lambda r: r[0].update(buffer=-4), 1, "buffer must be non-negative, got -4"),
        ("samples", lambda r: r[0].update(requested=0), 1, "requested must be at least 1, got 0"),
    ], ids=[
        "trial-missing-index", "trial-unknown-verdict", "trial-set-unknown-model",
        "trial-set-missing-model", "trial-set-unknown-backend", "sample-missing-assignment",
        "sample-unknown-stats-field", "sample-unknown-station", "sample-missing-station",
        "sample-assignment-not-an-object",
        "catalog-missing-members", "catalog-unknown-station",
        "trial-float-index", "trial-bool-seed", "trial-string-z", "trial-float-cliques",
        "trial-int-digest", "trial-set-string-target", "sample-float-channel",
        "sample-bool-channel", "sample-string-channel", "sample-float-seed", "sample-set-float-cap",
        "sample-set-string-domain-flag", "trial-set-int-domain-flag",
        "catalog-float-min-size", "catalog-bool-min-size", "catalog-string-min-size",
        "catalog-zero-min-size", "catalog-string-members", "catalog-int-member",
        "catalog-clique-below-min-size", "sample-string-decisions", "sample-float-conflicts",
        "sample-bool-propagations", "sample-stats-wall-time", "sample-stats-missing-counter",
        "trial-set-bool-alpha", "trial-set-string-alpha",
        "trial-set-string-top-prob", "trial-set-list-beta", "trial-set-bool-gamma",
        "catalog-repeated-clique", "catalog-repeated-clique-reordered", "trial-repeated",
        "trial-repeated-index", "sample-repeated", "trial-set-without-z-and-cliques",
        "trial-missing-cliques", "sample-set-missing-buffer", "sample-set-missing-b-star",
        "sample-set-missing-requested", "catalog-missing-min-size", "trial-set-model-not-an-object",
        "sample-stats-not-an-object", "sample-set-negative-b-star", "sample-set-b-star-off-cap",
        "sample-set-buffer-off-cap", "sample-set-b-star-without-cap", "sample-set-negative-buffer",
        "sample-set-zero-requested",
    ])
    def test_reported_with_its_line(
        self, artifacts, artifact, edit, line, message, instance_dir, tmp_path, capsys
    ):
        path = artifacts[artifact]
        _rewrite(path, edit)
        line = line or len(path.read_text().splitlines())
        out = tmp_path / "out"
        if artifact == "catalog":
            argv = (
                "simulate", "--instance", str(instance_dir), "--target", "12",
                "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "2",
                "--backend", "clique-then-sat", "--catalog", str(path), "--workers", "1",
            )
        else:
            flag = "--samples" if artifact == "samples" else "--trials-file"
            argv = ("stats", "--instance", str(instance_dir), flag, str(path))
        err = run_cli_error(capsys, *argv, "--out", str(out))
        assert err["error"] == {"type": "CliError", "message": f"{path}: line {line}: {message}"}
        assert not out.exists()

    def test_line_that_is_not_json(self, artifacts, instance_dir, tmp_path, capsys):
        path = artifacts["trials"]
        assert len(path.read_text().splitlines()) == 4
        with open(path, "a") as fh:
            fh.write("{not json\n")
        out = tmp_path / "out"
        err = run_cli_error(
            capsys, "stats", "--instance", str(instance_dir), "--trials-file", str(path),
            "--out", str(out),
        )
        assert err["error"]["type"] == "CliError"
        assert err["error"]["message"].startswith(f"{path}: line 5 is not JSON: ")
        assert not out.exists()


class TestConfigDigest:
    """The digest covers every option the subcommand takes, defaults included,
    and nothing that leaves results unchanged."""

    @staticmethod
    def digest(capsys, *argv: str) -> str:
        return run_cli(capsys, *argv)["config_digest"]

    @pytest.fixture
    def samples(self, instance_dir, tmp_path, capsys) -> Path:
        path = tmp_path / "samples.jsonl"
        run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "12",
            "--count", "4", "--buffer", "2", "--seed", "4", "--workers", "1",
            "--out", str(path),
        )
        return path

    def simulate(self, capsys, instance_dir, out, *extra: str) -> str:
        return self.digest(
            capsys, "simulate", "--instance", str(instance_dir),
            "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "3",
            "--backend", "clique-only", "--out", str(out), *extra,
        )

    def test_stdout_digest_matches_written_files(self, tmp_path, capsys):
        def digests_in(path: Path) -> list[str]:
            if path.is_dir():
                return [d for f in sorted(path.iterdir()) for d in digests_in(f)]
            first = path.read_text().splitlines()[0]
            if path.suffix == ".csv":
                return [first.removeprefix("# config_digest=")]
            if path.suffix == ".jsonl":
                return [json.loads(first)["config_digest"]]
            return [json.loads(path.read_text())["config_digest"]]

        inst, sim, sweep = tmp_path / "inst", tmp_path / "sim", tmp_path / "sweep"
        solving = ("--instance", str(inst), "--target", "12")
        model = ("--model", "random-broadcasters", "--trials", "4", "--workers", "1")
        runs = [
            (("gen", "--n", "8", "--channels", "5", "--co-density", "0.3", "--clique-size",
              "4", "--seed", "2", "--out", str(inst)), [inst / "meta.json"]),
            (("encode", *solving, "--out", str(tmp_path / "f")), [tmp_path / "f.vars.json"]),
            (("solve", *solving, "--out", str(tmp_path / "a.json")), [tmp_path / "a.json"]),
            (("min-clear", *solving, "--out", str(tmp_path / "m.json")), [tmp_path / "m.json"]),
            (("min-dmas", *solving, "--out", str(tmp_path / "d.json")), [tmp_path / "d.json"]),
            (("min-dma-isolated", *solving, "--dma", "1", "--out", str(tmp_path / "i.json")),
             [tmp_path / "i.json"]),
            (("sample", *solving, "--count", "3", "--workers", "1",
              "--out", str(tmp_path / "s.jsonl")), [tmp_path / "s.jsonl"]),
            (("cliques", "--instance", str(inst), "--out", str(tmp_path / "c.jsonl")),
             [tmp_path / "c.jsonl"]),
            (("simulate", *solving, *model, "--alpha", "0.5", "--out", str(sim)), [sim]),
            (("simulate", *solving, *model, "--alphas", "0.3,0.9", "--out", str(sweep)), [sweep]),
            (("stats", "--instance", str(inst), "--samples", str(tmp_path / "s.jsonl"),
              "--trials-file", str(sim / "trials.jsonl"), "--out", str(tmp_path / "st")),
             [tmp_path / "st"]),
        ]
        for argv, written in runs:
            digest = self.digest(capsys, *argv)
            found = [d for path in written for d in digests_in(path)]
            assert found and set(found) == {digest}, argv[0]

    def test_simulate_target_enters_digest(self, instance_dir, tmp_path, capsys):
        d6 = self.simulate(capsys, instance_dir, tmp_path / "s6", "--target", "6", "--workers", "1")
        d12 = self.simulate(capsys, instance_dir, tmp_path / "s12", "--target", "12", "--workers", "1")
        assert d6 != d12

    def test_stats_thresholds_enter_digest(self, instance_dir, samples, tmp_path, capsys):
        base = ("stats", "--instance", str(instance_dir), "--samples", str(samples))
        default = self.digest(capsys, *base, "--out", str(tmp_path / "a"))
        loose = self.digest(
            capsys, *base, "--min-mean", "0.1", "--p-threshold", "1.0",
            "--out", str(tmp_path / "b"),
        )
        assert default != loose

    def test_stats_inputs_enter_digest(self, instance_dir, samples, tmp_path, capsys):
        self.simulate(capsys, instance_dir, tmp_path / "sim", "--target", "12", "--workers", "1")
        from_samples = self.digest(
            capsys, "stats", "--instance", str(instance_dir), "--samples", str(samples),
            "--out", str(tmp_path / "a"),
        )
        from_trials = self.digest(
            capsys, "stats", "--instance", str(instance_dir),
            "--trials-file", str(tmp_path / "sim" / "trials.jsonl"), "--out", str(tmp_path / "b"),
        )
        assert from_samples != from_trials

    def test_explicit_defaults_digest_like_omitted(self, instance_dir, capsys):
        base = ("solve", "--instance", str(instance_dir), "--target", "12")
        omitted = self.digest(capsys, *base)
        explicit = self.digest(
            capsys, *base, "--seed", "0", "--timeout-secs", "60", "--use-domain"
        )
        assert omitted == explicit

    def test_config_field_digests_like_flag(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"target": 12, "seed": 3, "timeout_secs": 30}))
        from_flags = self.digest(
            capsys, "solve", "--instance", str(instance_dir), "--target", "12",
            "--seed", "3", "--timeout-secs", "30",
        )
        from_config = self.digest(
            capsys, "solve", "--instance", str(instance_dir), "--config", str(config)
        )
        assert from_flags == from_config

    def test_workers_and_out_leave_digest_unchanged(self, instance_dir, tmp_path, capsys):
        one = self.simulate(capsys, instance_dir, tmp_path / "a", "--target", "12", "--workers", "1")
        two = self.simulate(capsys, instance_dir, tmp_path / "b", "--target", "12", "--workers", "2")
        assert one == two

    @pytest.mark.parametrize("argv", [
        ("stats", "--instance", "x", "--samples", "s", "--out", "o", "--seed", "1"),
        ("gen", "--n", "4", "--out", "o", "--workers", "2"),
    ])
    def test_options_a_subcommand_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(list(argv))

    def test_solver_cmd_selects_external_solver(self, instance_dir, external_cmd, capsys):
        base = ("solve", "--instance", str(instance_dir), "--target", "12", "--repack-all")
        embedded = run_cli(capsys, *base)
        external = run_cli(capsys, *base, "--solver-cmd", external_cmd)
        assert embedded["stats"]["propagations"] > 0
        # The adapter reports no search counts: the embedded engine never ran.
        assert external["stats"] == {"decisions": 0, "conflicts": 0, "propagations": 0}
        assert external["verdict"] == embedded["verdict"] == "sat"
        assert external["violations"] == 0


def _parse(argv: list[str]):
    """The options ``main`` runs ``argv`` with: flags over the config file's fields."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(commands[args.command], args)
        args = parser.parse_args(argv)
    return args


def _flag_text(action) -> str:
    """A text for a valued option's flag that its type takes and its default is not:
    the text of a JSON number wherever the option takes one, even as a string."""
    if action.choices is not None:
        return list(action.choices)[-1]
    if action.dest == "dma_cap":
        return "1=2"
    if action.dest == "forbidden":  # a comma-separated list of channel numbers
        return "5"
    return "0.25" if action.type not in (int, None) else "5"


#: Every option of every subcommand that a config field can set, by subcommand name.
OPTIONS = [
    (name, action)
    for name, sub in _build_parser()[1].items()
    for action in sub._actions
    if action.option_strings and action.dest not in ("help", "config")
]


class TestConfigRule:
    """A config field parses exactly as its flag: true/false for an on/off
    option, a list for a repeatable one, else one string or number read as
    the flag's text. Anything else is refused, naming file and field, before
    any work starts."""

    @pytest.mark.parametrize("fields, message", [
        ({"seed": None}, "field 'seed': value must be a string or a number, got null"),
        ({"use_domain": "false"}, "field 'use_domain': value must be true or false, got \"false\""),
        ({"use_domain": None}, "field 'use_domain': value must be true or false, got null"),
        ({"target": 12.9}, "field 'target': invalid int value: '12.9'"),
        ({"seed": True}, "field 'seed': value must be a string or a number, got true"),
        ({"timeout_secs": True},
         "field 'timeout_secs': value must be a string or a number, got true"),
        ({"repack_all": "no"}, "field 'repack_all': value must be true or false, got \"no\""),
        ({"dma_cap": "1=2"}, "field 'dma_cap': value must be a list, got \"1=2\""),
        ({"dma_cap": None}, "field 'dma_cap': value must be a list, got null"),
        ({"timeout_secs": None},
         "field 'timeout_secs': value must be a string or a number, got null"),
        ({"dma_cap": ["1=2", None]}, "field 'dma_cap': value must be a string or a number, got null"),
        ({"instance": {"path": "x"}},
         "field 'instance': value must be a string or a number, got {\"path\": \"x\"}"),
        ({"seed": "1.5"}, "field 'seed': invalid int value: '1.5'"),
        ({"timeout_secs": "inf"}, "field 'timeout_secs': not a finite number: 'inf'"),
        ('{"seed": 1,',
         "not JSON: Expecting property name enclosed in double quotes at line 1 column 12"),
    ], ids=[
        "null-seed", "string-switch", "null-switch", "float-int", "bool-seed", "bool-float",
        "string-repack-all", "scalar-dma-cap", "null-dma-cap", "null-budget", "null-dma-cap-item",
        "object-instance", "string-float-int", "string-inf", "not-json",
    ])
    def test_refused_naming_file_and_field(
        self, instance_dir, fields, message, tmp_path, capsys
    ):
        config, out = tmp_path / "c.json", tmp_path / "a.json"
        config.write_text(fields if isinstance(fields, str) else json.dumps(fields))
        argv = ["solve", "--instance", str(instance_dir), "--target", "12", "--repack-all",
                "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError", "message": f"{config}: {message}",
        }
        assert not out.exists()

    @pytest.mark.parametrize("name, action", OPTIONS,
                             ids=[f"{n}{a.option_strings[-1]}" for n, a in OPTIONS])
    def test_field_parses_as_flag(self, name, action, tmp_path):
        config = tmp_path / "c.json"
        if action.nargs == 0:  # an on/off option: the field holds the value its flag sets
            flags, fields = [action.option_strings[-1]], [action.const]
        else:
            text = _flag_text(action)
            flags = [action.option_strings[-1], text]
            fields = [text]
            try:
                fields.append(json.loads(text))  # a number's text, also as a JSON number
            except json.JSONDecodeError:
                pass
            if action.dest == "dma_cap":
                fields = [[text]]
        from_flag = _parse([name, *flags])
        if action.nargs != 0:  # a valued flag that leaves its default would show nothing
            assert getattr(from_flag, action.dest) != getattr(_parse([name]), action.dest)
        for value in fields:
            config.write_text(json.dumps({action.dest: value}))
            from_field = _parse([name, "--config", str(config)])
            assert {**vars(from_field), "config": None} == vars(from_flag), value
            assert _digest(from_field) == _digest(from_flag)

    @pytest.mark.parametrize("command, dest, text, message", [
        ("gen", "forbidden", "14,x", "invalid comma-separated int value: '14,x'"),
        ("simulate", "alphas", "0.2,x", "not a finite number: 'x'"),
    ], ids=["forbidden", "alphas"])
    def test_list_item_refused_naming_the_option(
        self, command, dest, text, message, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{dest}={text}"])
        assert exc.value.code == 2
        assert f"argument --{dest}: {message}" in capsys.readouterr().err
        config = tmp_path / "c.json"
        config.write_text(json.dumps({dest: text}))
        assert main([command, "--config", str(config)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError", "message": f"{config}: field {dest!r}: {message}",
        }

    def test_dma_cap_list_is_repeated_flags(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dma_cap": ["1=2", "2=1"]}))
        base = ("solve", "--instance", str(instance_dir), "--target", "12", "--seed", "1")
        flags = run_cli(capsys, *base, "--dma-cap", "1=2", "--dma-cap", "2=1")
        assert run_cli(capsys, *base, "--config", str(config)) == flags
        assert flags["config_digest"] != run_cli(capsys, *base)["config_digest"]

    def test_use_domain_false_is_no_domain_and_a_flag_wins(self, instance_dir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"use_domain": False}))
        base = ("solve", "--instance", str(instance_dir), "--target", "12", "--seed", "1")
        no_domain = run_cli(capsys, *base, "--no-domain")
        assert run_cli(capsys, *base, "--config", str(config)) == no_domain
        use_domain = run_cli(capsys, *base, "--config", str(config), "--use-domain")
        assert use_domain == run_cli(capsys, *base)
        assert use_domain["config_digest"] != no_domain["config_digest"]


class TestProblemFlags:
    """``--must-repack FILE`` and ``--dma-cap DMA=CAP`` reach the problem."""

    @pytest.fixture
    def clique_dir(self, tmp_path, capsys) -> Path:
        # Five pairwise co-channel stations in DMA 1; a 12 MHz target leaves
        # two channels, so at least three of them must be cleared.
        d = tmp_path / "clique"
        run_cli(
            capsys, "gen", "--n", "5", "--channels", "4", "--co-density", "0",
            "--clique-size", "5", "--seed", "1", "--out", str(d),
        )
        return d

    @staticmethod
    def verdict(capsys, instance: Path, *extra: str) -> str:
        return run_cli(
            capsys, "solve", "--instance", str(instance), "--target", "12", "--seed", "1", *extra
        )["verdict"]

    def test_must_repack_file(self, clique_dir, tmp_path, capsys):
        ids = load_instance(clique_dir).station_ids
        two, three = tmp_path / "two.txt", tmp_path / "three.txt"
        two.write_text(f" {ids[0]}\n\n{ids[1]}\t\n")
        three.write_text("\n".join(ids[:3]) + "\n")
        out = tmp_path / "assignment.json"
        verdict = self.verdict(capsys, clique_dir, "--must-repack", str(two), "--out", str(out))
        assert verdict == "sat"
        channels = json.loads(out.read_text())["assignment"]
        assert channels[ids[0]] is not None and channels[ids[1]] is not None
        assert self.verdict(capsys, clique_dir, "--must-repack", str(three)) == "unsat"

    def test_dma_cap(self, clique_dir, capsys):
        assert self.verdict(capsys, clique_dir, "--dma-cap", "1=3") == "sat"
        assert self.verdict(capsys, clique_dir, "--dma-cap", "1=2") == "unsat"

    @pytest.mark.parametrize("item", ["1:2", "x=1", "1=", "=2"])
    def test_bad_dma_cap(self, clique_dir, item, capsys):
        err = run_cli_error(
            capsys, "solve", "--instance", str(clique_dir), "--target", "12", "--dma-cap", item,
        )
        assert err["error"] == {
            "type": "CliError", "message": f"bad --dma-cap {item!r}, expected DMA=CAP",
        }

    @pytest.mark.parametrize("config, flags", [
        ([], ["1=2", "1=3"]), ([], ["1=2", "01=2"]), (["1=2"], ["1=3"]), (["1=3", "1=2"], []),
    ], ids=["two-flags", "same-dma-spelled-twice", "config-and-flag", "two-config-entries"])
    def test_dma_cap_naming_one_dma_twice(self, clique_dir, config, flags, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dma_cap": config}))
        argv = ["solve", "--instance", str(clique_dir), "--target", "12", "--config", str(path)]
        for item in flags:
            argv += ["--dma-cap", item]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError", "message": "--dma-cap names DMA 1 twice",
        }

    def test_repack_all_with_must_repack(self, clique_dir, tmp_path, capsys):
        must = tmp_path / "must.txt"
        must.write_text(load_instance(clique_dir).station_ids[0] + "\n")
        argv = ["solve", "--instance", str(clique_dir), "--target", "12",
                "--repack-all", "--must-repack", str(must)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError", "message": "--repack-all cannot be combined with --must-repack",
        }


class TestRejectedBeforeWork:
    """An out-of-range option exits 2 before any output exists, whichever engine runs."""

    @pytest.mark.parametrize("engine", ["embedded", "external"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_timeout(
        self, instance_dir, external_cmd, engine, budget, tmp_path, capsys
    ):
        out = tmp_path / "assignment.json"
        argv = ["solve", "--instance", str(instance_dir), "--target", "12",
                "--timeout-secs", budget, "--out", str(out)]
        if engine == "external":
            argv += ["--solver-cmd", external_cmd]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "time_budget must be positive",
        }
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["clique-only", "clique-then-sat"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_simulate_non_positive_timeout(self, backend, budget, tmp_path, capsys):
        # Five co-channel stations on the two channels a 12 MHz target leaves:
        # at alpha 1 the clique blocks every draw, so no solve runs.
        clique_dir, out = tmp_path / "clique", tmp_path / "sim"
        run_cli(capsys, "gen", "--n", "5", "--channels", "4", "--co-density", "0",
                "--clique-size", "5", "--seed", "1", "--out", str(clique_dir))
        assert main(["simulate", "--instance", str(clique_dir), "--target", "12",
                     "--model", "random-broadcasters", "--alpha", "1", "--trials", "3",
                     "--backend", backend, "--timeout-secs", budget, "--workers", "1",
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "time_budget must be positive",
        }
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_simulate_fewer_than_one_worker(self, instance_dir, workers, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--instance", str(instance_dir), "--target", "12",
                     "--model", "random-broadcasters", "--alpha", "0.5", "--trials", "3",
                     "--workers", workers, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": f"workers must be at least 1, got {workers}",
        }
        assert not out.exists()

    def test_negative_max_cliques(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "cliques" / "c.jsonl"
        argv = ["cliques", "--instance", str(instance_dir), "--out", str(out)]
        assert main([*argv, "--max-cliques", "-1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "max_cliques must be non-negative",
        }
        assert not out.parent.exists()
        assert run_cli(capsys, *argv, "--max-cliques", "0")["cliques"] == 0

    @pytest.mark.parametrize("factor", ["0", "-3"])
    def test_sample_retry_factor_below_one(self, instance_dir, factor, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        assert main(["sample", "--instance", str(instance_dir), "--target", "12", "--count", "2",
                     "--retry-factor", factor, "--workers", "1", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "retry_factor must be at least 1",
        }
        assert not out.exists()

    def test_sample_negative_buffer(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        assert main(["sample", "--instance", str(instance_dir), "--target", "12", "--count", "5",
                     "--buffer", "-1", "--workers", "1", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "buffer must be non-negative",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("sample", ("--count", "2", "--buffer", "6", "--b-star", "-5", "--workers", "1")),
        ("min-dma-isolated", ("--dma", "1", "--b-star", "-3")),
    ])
    def test_negative_b_star(self, command, options, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([command, "--instance", str(instance_dir), "--target", "12", *options,
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "b_star must be non-negative",
        }
        assert not out.exists()


class TestOneSimulatePath:
    """``simulate`` offers the scan-first backends and defaults to the exact one;
    ``sat`` is a library reference that trial files may still name."""

    @pytest.fixture
    def clique_dir(self, tmp_path, capsys) -> Path:
        d = tmp_path / "inst"
        run_cli(
            capsys, "gen", "--n", "10", "--channels", "5", "--co-density", "0.1",
            "--clique-size", "5", "--seed", "4", "--out", str(d),
        )
        return d

    @staticmethod
    def simulate(instance: Path) -> tuple[str, ...]:
        return (
            "simulate", "--instance", str(instance), "--target", "12",
            "--model", "random-broadcasters", "--alpha", "0.6", "--trials", "20", "--seed", "3",
            "--workers", "1",
        )

    def test_default_is_clique_then_sat(self, clique_dir, tmp_path, capsys):
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        a = run_cli(capsys, *self.simulate(clique_dir), "--out", str(default))
        b = run_cli(
            capsys, *self.simulate(clique_dir), "--backend", "clique-then-sat",
            "--out", str(explicit),
        )
        assert a == {**b, "out": a["out"]}
        for name in ("trials.jsonl", "summary.csv"):
            assert (default / name).read_bytes() == (explicit / name).read_bytes()
        trials = [json.loads(line) for line in (default / "trials.jsonl").read_text().splitlines()]
        assert trials[0]["backend"] == "clique-then-sat"
        assert any(t.get("z") is not None for t in trials[1:])

    def test_sat_flag_is_rejected(self, clique_dir, tmp_path, capsys):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as info:
            main([*self.simulate(clique_dir), "--backend", "sat", "--out", str(out)])
        assert info.value.code == 2
        assert "invalid choice: 'sat'" in capsys.readouterr().err
        assert not out.exists()

    def test_sat_config_field_is_rejected(self, clique_dir, tmp_path, capsys):
        config, out = tmp_path / "run.json", tmp_path / "sim"
        config.write_text(json.dumps({"backend": "sat"}))
        assert main([*self.simulate(clique_dir), "--config", str(config), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError",
            "message": f"{config}: field 'backend': invalid choice 'sat'"
                       " (choose from 'clique-then-sat', 'clique-only')",
        }
        assert not out.exists()

    def test_bogus_identity_config_field_is_rejected(self, instance_dir, tmp_path, capsys):
        samples, config, out = tmp_path / "s.jsonl", tmp_path / "run.json", tmp_path / "tables"
        run_cli(
            capsys, "sample", "--instance", str(instance_dir), "--target", "12", "--count", "3",
            "--workers", "1", "--out", str(samples),
        )
        config.write_text(json.dumps({"identity": "bogus"}))
        argv = ["stats", "--instance", str(instance_dir), "--samples", str(samples),
                "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == (
            f"{config}: field 'identity': invalid choice 'bogus'"
            " (choose from 'assignment', 'cleared-set')"
        )
        assert not out.exists()

    def test_stats_reads_a_sat_trial_file(self, clique_dir, tmp_path, capsys):
        instance = load_instance(clique_dir)
        est = estimate_success(
            ModelSpec.random_broadcasters(0.6), instance, 12, trials=20, seed=3,
            backend=BACKEND_SAT,
        )
        trials = tmp_path / "trials.jsonl"
        est.save_trials_jsonl(trials, instance)
        payload = run_cli(
            capsys, "stats", "--instance", str(clique_dir), "--trials-file", str(trials),
            "--out", str(tmp_path / "tables"),
        )
        assert (payload["trials"], payload["p"]) == (20, est.p)
        with open(tmp_path / "tables" / "trials_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert rows == [{
            "trials": "20", "infeasible": str(est.infeasible_count),
            "timeouts": str(est.timeout_count), "p": str(est.p), "mean_z": "",
            "attribution_fraction": "",
        }]


#: Every float option, by a subcommand that takes it.
FLOAT_OPTIONS = [
    ("gen", "--co-density"), ("gen", "--adj-density"), ("gen", "--domain-density"),
    ("gen", "--affiliate-fraction"), ("solve", "--timeout-secs"),
    ("min-dma-isolated", "--slack"), ("simulate", "--alpha"), ("simulate", "--beta"),
    ("simulate", "--gamma"), ("simulate", "--top-prob"), ("stats", "--min-mean"),
    ("stats", "--p-threshold"), ("stats", "--r-threshold"),
]


class TestFiniteFloats:
    """A float that is not finite is refused where it enters, by name."""

    def test_every_float_option_shares_one_type(self):
        _, commands = _build_parser()
        types = {
            (name, action.option_strings[-1]): action.type
            for name, sub in commands.items()
            for action in sub._actions
        }
        (finite,) = {types[key] for key in FLOAT_OPTIONS}
        assert finite is not float
        shared = {option for (_, option), t in types.items() if t in (finite, float)}
        assert shared == {option for _, option in FLOAT_OPTIONS}

    @pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_flag_is_named(self, command, option, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{option}={value}"])
        assert exc.value.code == 2
        assert f"argument {option}: not a finite number: {value!r}" in capsys.readouterr().err

    def test_config_field_is_named(self, instance_dir, tmp_path, capsys):
        config, out = tmp_path / "run.json", tmp_path / "sim"
        config.write_text(json.dumps({"gamma": math.nan}))
        argv = ["simulate", "--instance", str(instance_dir), "--target", "12",
                "--model", "revenue", "--beta", "0.5", "--config", str(config),
                "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "CliError", "message": f"{config}: field 'gamma': not a finite number: 'nan'",
        }
        assert not out.exists()


class TestDefaultsMatchLibrary:
    """A default written in ``cli.py`` and in a library signature says one thing."""

    @pytest.mark.parametrize("command, dest, fn, param", [
        ("gen", "channels", generate_synthetic, "channel_count"),
        ("gen", "co_density", generate_synthetic, "co_density"),
        ("gen", "adj_density", generate_synthetic, "adj_density"),
        ("gen", "domain_density", generate_synthetic, "domain_density"),
        ("gen", "affiliate_fraction", generate_synthetic, "affiliate_fraction"),
        ("gen", "clique_size", generate_synthetic, "planted_clique"),
        ("gen", "first_channel", generate_synthetic, "first_channel"),
        ("cliques", "min_size", enumerate_cliques_greedy, "min_size"),
        ("cliques", "attempts", enumerate_cliques_greedy, "attempts_per_vertex"),
        ("sample", "retry_factor", sample_solutions, "retry_factor"),
        ("simulate", "trials", estimate_success, "trials"),
        ("simulate", "trials", shared_randomness_sweep, "trials"),
        ("stats", "min_mean", analytics.dma_correlations, "min_mean"),
        ("stats", "p_threshold", analytics.dma_correlations, "p_threshold"),
        ("stats", "identity", analytics.missing_mass, "identity"),
    ])
    def test_default_equals_signature(self, command, dest, fn, param):
        _, commands = _build_parser()
        expected = inspect.signature(fn).parameters[param].default
        assert commands[command].get_default(dest) == expected

    def test_timeout_default_is_the_solver_default(self):
        _, commands = _build_parser()
        with_budget = [sub for sub in commands.values() if "timeout_secs" in
                       {a.dest for a in sub._actions}]
        assert len(with_budget) == 6
        for sub in with_budget:
            assert sub.get_default("timeout_secs") == solver.DEFAULT_TIME_BUDGET


class TestSampleShortfall:
    def test_payload_then_exit_2(self, instance_dir, external_cmd, tmp_path, capsys):
        # The external engine, except that odd seeds answer UNSAT.
        gate = tmp_path / "gate.py"
        gate.write_text(
            "import runpy, sys\n"
            "seed, cnf = sys.argv[1:]\n"
            "if int(seed) % 2:\n"
            "    print('s UNSATISFIABLE')\n"
            "else:\n"
            f"    sys.argv[1:] = [cnf]\n"
            f"    runpy.run_path({external_cmd.split()[-1]!r}, run_name='__main__')\n"
        )
        seeds = [derive_seed(5, "sample", i) for i in range(4)]
        kept = sum(1 for s in seeds if s % 2 == 0)
        assert 0 < kept < 4
        out = tmp_path / "samples.jsonl"
        code = main([
            "sample", "--instance", str(instance_dir), "--target", "12", "--count", "4",
            "--b-star", "8", "--buffer", "0", "--retry-factor", "1", "--seed", "5",
            "--workers", "1", "--solver-cmd", f"{sys.executable} {gate} {{seed}} {{cnf}}",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.out)
        assert (payload["samples"], payload["requested"], payload["shortfall"]) == (
            kept, 4, 4 - kept)
        assert json.loads(captured.err)["error"] == {
            "type": "CliError", "message": f"sampled only {kept} of 4 solutions",
        }
        assert len(out.read_text().splitlines()) == 1 + kept
