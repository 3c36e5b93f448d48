"""Batch command-line interface.

One subcommand per pipeline stage: generate instances, encode, solve, run the
minimum searches, sample solutions, run Monte Carlo simulations, build clique
catalogs, and compute the statistics tables from persisted artifacts.

Runs are reproducible from a config file plus master seed. Flags override
config fields; every output embeds the digest of the effective configuration
(CSV files as a leading ``#`` comment, JSON objects as a field, JSON-lines
files in their meta record). Failures exit nonzero after printing a one-line
JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from . import analytics, montecarlo
from .cliques import CliqueCatalog, enumerate_cliques_greedy
from .driver import (
    DEFAULT_BUFFER,
    DEFAULT_SLACK,
    DEFAULT_TIME_BUDGET,
    SampleSet,
    check_feasibility,
    min_dma_clearings_isolated,
    min_dmas_with_clearing,
    min_nationwide_clearings,
    sample_solutions,
)
from .encoder import encode, export_dimacs
from .instance import RepackProblem, validate_assignment
from .instance_io import instance_digest, load_instance, save_instance
from .montecarlo import BACKEND_SAT, BACKENDS, estimate_success, shared_randomness_sweep
from .participation import ModelKind, ModelSpec
from .solver import EXTERNAL_SOLVER_ENV, ExternalSolver
from .synthetic import generate_synthetic
from .util import canonical_json, sha256_hex

log = logging.getLogger(__name__)


class CliError(ValueError):
    pass


# -- configuration plumbing --------------------------------------------------


class RunConfig:
    """Effective parameters: CLI flags override config-file fields."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file_values: dict[str, Any] = {}
        path = getattr(args, "config", None)
        if path:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise CliError(f"{path}: config must be a JSON object")
            self.file_values = data
        self.resolved: dict[str, Any] = {}

    def get(self, name: str, default: Any = None) -> Any:
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_values.get(name, default)
        self.resolved[name] = value
        return value

    def require(self, name: str) -> Any:
        value = self.get(name)
        if value is None:
            raise CliError(f"missing required parameter: --{name.replace('_', '-')}")
        return value

    #: Resolved keys that do not shape the experiment: output locations and
    #: execution details that provably leave results unchanged.
    NON_SEMANTIC = frozenset({"out", "config", "verbose", "workers"})

    def digest(self, command: str) -> str:
        payload = {
            "command": command,
            **{k: v for k, v in self.resolved.items() if k not in self.NON_SEMANTIC},
        }
        return sha256_hex(canonical_json(payload))


def _engine_from(cfg: RunConfig):
    cmd = cfg.get("solver_cmd") or os.environ.get(EXTERNAL_SOLVER_ENV)
    if cfg.get("engine", "embedded") == "external":
        if not cmd:
            raise CliError(
                f"external engine requested but no command given "
                f"(--solver-cmd or ${EXTERNAL_SOLVER_ENV})"
            )
        return ExternalSolver(cmd)
    return None


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence], digest: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_digest={digest}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else v for v in row])


def _write_json(path: Path, payload: dict, digest: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {**payload, "config_digest": digest}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _load_instance(cfg: RunConfig):
    return load_instance(cfg.require("instance"))


def _model_from(cfg: RunConfig) -> ModelSpec:
    model_obj = cfg.get("model_spec")
    if isinstance(model_obj, dict):
        return ModelSpec.from_dict(model_obj)
    kind = cfg.require("model")
    data: dict[str, Any] = {"kind": kind}
    for key in ("alpha", "beta", "gamma", "top_prob"):
        value = cfg.get(key)
        if value is not None:
            data[key] = value
    return ModelSpec.from_dict(data)


def _read_station_list(path: str) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def _problem_from(cfg: RunConfig, instance) -> RepackProblem:
    must_repack: frozenset[str] = frozenset()
    if cfg.get("repack_all"):
        must_repack = frozenset(instance.station_ids)
    elif cfg.get("must_repack"):
        must_repack = _read_station_list(cfg.get("must_repack"))
    dma_caps: dict[int, int] = {}
    for item in cfg.get("dma_cap") or []:
        dma_text, _, cap_text = str(item).partition("=")
        try:
            dma_caps[int(dma_text)] = int(cap_text)
        except ValueError:
            raise CliError(f"bad --dma-cap {item!r}, expected DMA=CAP") from None
    return RepackProblem(
        instance=instance,
        clearing_target_mhz=int(cfg.require("target")),
        use_domain_constraints=bool(cfg.get("use_domain", True)),
        must_repack=must_repack,
        max_cleared_nationwide=cfg.get("cap_nationwide"),
        dma_caps=dma_caps,
        max_dmas_with_clearing=cfg.get("max_dmas"),
    )


# -- subcommands --------------------------------------------------------------


def _cmd_gen(cfg: RunConfig) -> None:
    out_dir = Path(cfg.require("out"))
    forbidden = [int(c) for c in str(cfg.get("forbidden", "") or "").split(",") if c]
    instance = generate_synthetic(
        n=int(cfg.require("n")),
        channel_count=int(cfg.get("channels", 8)),
        co_density=float(cfg.get("co_density", 0.1)),
        adj_density=float(cfg.get("adj_density", 0.0)),
        domain_density=float(cfg.get("domain_density", 0.0)),
        n_dmas=cfg.get("dmas"),
        affiliate_fraction=float(cfg.get("affiliate_fraction", 0.4)),
        planted_clique=int(cfg.get("clique_size", 0)),
        planted_clique_dma=cfg.get("clique_dma"),
        forbidden_channels=forbidden,
        first_channel=int(cfg.get("first_channel", 14)),
        seed=int(cfg.get("seed", 0)),
    )
    save_instance(instance, out_dir)
    digest = cfg.digest("gen")
    # The instance CSVs stay comment-free for canonical round-trips, so the
    # provenance digest rides in a sidecar instead.
    _write_json(
        out_dir / "meta.json",
        {"instance_digest": instance_digest(instance), "n": instance.n},
        digest,
    )
    _print(
        {
            "out": str(out_dir),
            "n": instance.n,
            "dmas": len(instance.dmas),
            "interference": len(instance.interference),
            "instance_digest": instance_digest(instance),
            "config_digest": digest,
        }
    )


def _cmd_encode(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    problem = _problem_from(cfg, instance)
    formula = encode(problem)
    prefix = Path(cfg.require("out"))
    prefix.parent.mkdir(parents=True, exist_ok=True)
    cnf_path = prefix.with_suffix(".cnf")
    with open(cnf_path, "w", encoding="utf-8") as fh:
        export_dimacs(formula, fh)
    digest = cfg.digest("encode")
    vars_path = prefix.with_suffix(".vars.json")
    assert formula.var_map is not None
    _write_json(vars_path, formula.var_map.to_json_dict(), digest)
    _print(
        {
            "cnf": str(cnf_path),
            "vars": str(vars_path),
            "var_count": formula.var_count,
            "clause_count": formula.clause_count,
            "config_digest": digest,
        }
    )


def _cmd_solve(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    problem = _problem_from(cfg, instance)
    result = check_feasibility(
        problem,
        seed=int(cfg.get("seed", 0)),
        time_budget=float(cfg.get("timeout_secs", DEFAULT_TIME_BUDGET)),
        engine=_engine_from(cfg),
    )
    digest = cfg.digest("solve")
    payload: dict[str, Any] = {
        "verdict": result.verdict.value,
        "infeasible_by_timeout": result.infeasible_by_timeout,
        "seed": result.seed,
        "stats": result.stats.to_json_dict(),
        "config_digest": digest,
    }
    out = cfg.get("out")
    if result.assignment is not None:
        violations = validate_assignment(problem, result.assignment)
        payload["violations"] = len(violations)
        payload["cleared"] = len(result.assignment.cleared_set())
        if out:
            _write_json(Path(out), {"assignment": result.assignment.to_json_dict()}, digest)
            payload["assignment_file"] = str(out)
    _print(payload)


def _isolated_params(cfg: RunConfig) -> dict[str, Any]:
    return {
        "dma_id": int(cfg.require("dma")),
        "b_star": cfg.get("b_star"),
        "slack": float(cfg.get("slack", DEFAULT_SLACK)),
    }


#: Minimum searches by subcommand: the driver function, a reader for its
#: subcommand-specific parameters, and the config keys echoed into the payload.
_MIN_SEARCHES = {
    "min-clear": (min_nationwide_clearings, lambda cfg: {}, ()),
    "min-dmas": (min_dmas_with_clearing, lambda cfg: {}, ()),
    "min-dma-isolated": (min_dma_clearings_isolated, _isolated_params, ("dma",)),
}


def _cmd_min_search(cfg: RunConfig, command: str) -> None:
    search, read_params, echoed = _MIN_SEARCHES[command]
    instance = _load_instance(cfg)
    result = search(
        instance,
        int(cfg.require("target")),
        use_domain=bool(cfg.get("use_domain", True)),
        **read_params(cfg),
        seed=int(cfg.get("seed", 0)),
        time_budget=float(cfg.get("timeout_secs", DEFAULT_TIME_BUDGET)),
        engine=_engine_from(cfg),
    )
    digest = cfg.digest(command)
    payload = {
        **result.to_json_dict(),
        **{key: cfg.get(key) for key in echoed},
        "config_digest": digest,
    }
    out = cfg.get("out")
    if out:
        _write_json(
            Path(out),
            {**result.to_json_dict(), "witness": result.witness.to_json_dict()},
            digest,
        )
        payload["result_file"] = str(out)
    _print(payload)


def _cmd_sample(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    sample_set = sample_solutions(
        instance,
        int(cfg.require("target")),
        bool(cfg.get("use_domain", True)),
        count=int(cfg.require("count")),
        buffer=int(cfg.get("buffer", DEFAULT_BUFFER)),
        b_star=cfg.get("b_star"),
        seed=int(cfg.get("seed", 0)),
        time_budget=float(cfg.get("timeout_secs", DEFAULT_TIME_BUDGET)),
        retry_factor=int(cfg.get("retry_factor", 3)),
        workers=int(cfg.get("workers") or os.cpu_count() or 1),
        engine=_engine_from(cfg),
    )
    digest = cfg.digest("sample")
    out = Path(cfg.require("out"))
    out.parent.mkdir(parents=True, exist_ok=True)
    sample_set.save_jsonl(out, config_digest=digest)
    payload = {
        "out": str(out),
        "samples": len(sample_set.samples),
        "requested": sample_set.requested,
        "shortfall": sample_set.shortfall,
        "b_star": sample_set.b_star,
        "cap": sample_set.cap,
        "config_digest": digest,
    }
    _print(payload)
    if sample_set.shortfall:
        raise CliError(
            f"sampled only {len(sample_set.samples)} of {sample_set.requested} solutions"
        )


def _cmd_cliques(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    seed = int(cfg.get("seed", 0))
    catalog = enumerate_cliques_greedy(
        instance,
        min_size=int(cfg.get("min_size", 2)),
        attempts_per_vertex=int(cfg.get("attempts", 4)),
        max_cliques=cfg.get("max_cliques"),
        seed=seed,
    )
    digest = cfg.digest("cliques")
    out = Path(cfg.require("out"))
    out.parent.mkdir(parents=True, exist_ok=True)
    catalog.save_jsonl(out, instance, seed=seed, config_digest=digest)
    _print(
        {
            "out": str(out),
            "cliques": len(catalog),
            "largest": catalog.largest(),
            "config_digest": digest,
        }
    )


_SUMMARY_COLUMNS = (
    "model", "alpha", "beta", "gamma", "target_mhz", "use_domain", "backend",
    "trials", "p", "stderr", "timeouts", "p_excluding_timeouts", "mean_z",
    "attribution_fraction",
)


def _cmd_simulate(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    alphas_text = cfg.get("alphas")
    alphas = [float(a) for a in str(alphas_text).split(",") if a] if alphas_text else []
    if alphas and cfg.get("alpha") is None:
        # The sweep overrides the rate per grid point; any point serves as
        # the base model, so use the first.
        cfg.args.alpha = alphas[0]
    model = _model_from(cfg)
    out_dir = Path(cfg.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    catalog = None
    catalog_path = cfg.get("catalog")
    if catalog_path:
        catalog = CliqueCatalog.load_jsonl(catalog_path, instance)
    backend = cfg.get("backend", BACKEND_SAT)
    seed = int(cfg.get("seed", 0))
    budget = float(cfg.get("timeout_secs", DEFAULT_TIME_BUDGET))
    trials = int(cfg.get("trials", montecarlo.DEFAULT_TRIALS))
    digest = cfg.digest("simulate")
    target = int(cfg.require("target"))
    use_domain = bool(cfg.get("use_domain", True))
    run = dict(
        trials=trials, seed=seed, backend=backend, catalog=catalog, time_budget=budget,
        engine=_engine_from(cfg), workers=int(cfg.get("workers") or os.cpu_count() or 1),
    )

    estimates = []
    if alphas:
        sweep = shared_randomness_sweep(model, alphas, instance, target, use_domain, **run)
        for point in sweep.points:
            estimates.append(point.estimate)
            point.estimate.save_trials_jsonl(
                out_dir / f"trials-alpha-{point.alpha:g}.jsonl", instance, digest
            )
    else:
        estimate = estimate_success(model, instance, target, use_domain, **run)
        estimates.append(estimate)
        estimate.save_trials_jsonl(out_dir / "trials.jsonl", instance, digest)

    rows = [[est.summary_row()[col] for col in _SUMMARY_COLUMNS] for est in estimates]
    _write_csv(out_dir / "summary.csv", _SUMMARY_COLUMNS, rows, digest)
    _print(
        {
            "out": str(out_dir),
            "points": [
                {"p": est.p, "stderr": est.stderr, "trials": est.trial_count,
                 "alpha": est.model.alpha}
                for est in estimates
            ],
            "config_digest": digest,
        }
    )


def _cmd_stats(cfg: RunConfig) -> None:
    instance = _load_instance(cfg)
    out_dir = Path(cfg.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest("stats")
    summary: dict[str, Any] = {}

    samples_path = cfg.get("samples")
    if samples_path:
        sample_set = SampleSet.load_jsonl(samples_path, instance)
        stats = analytics.dma_stats(sample_set)
        _write_csv(
            out_dir / "dma_stats.csv",
            ("rank", "dma_id", "name", "size", "avg_cleared", "std_dev", "observed_min"),
            [
                (rank, r.dma_id, r.name, r.size, f"{r.mean:.6g}", f"{r.std:.6g}", r.observed_min)
                for rank, r in enumerate(stats.rows_by_mean(), start=1)
            ],
            digest,
        )
        summary["samples"] = len(sample_set.samples)
        summary["nationwide_mean_cleared"] = stats.nationwide_mean
        summary["sum_of_dma_means"] = stats.sum_of_means()

        mm = analytics.missing_mass(sample_set, identity=cfg.get("identity", "assignment"))
        _write_csv(
            out_dir / "missing_mass.csv",
            ("buffer", "draws", "unique_solutions", "singletons", "missing_mass"),
            [(sample_set.buffer, mm.draws, mm.unique, mm.singletons, f"{mm.estimate:.4f}")],
            digest,
        )
        summary["missing_mass"] = mm.estimate

        freqs = analytics.broadcaster_frequencies(sample_set)
        _write_csv(
            out_dir / "broadcaster_frequencies.csv",
            ("rank", "station", "cleared_fraction"),
            [(rank, sid, f"{frac:.6g}") for rank, (sid, frac) in enumerate(freqs, start=1)],
            digest,
        )

        if len(sample_set.samples) >= 2:
            div = analytics.diversity_report(sample_set)
            _write_csv(
                out_dir / "diversity.csv",
                ("rank", "dma_id", "name", "diversity", "pairs"),
                [
                    (rank, d.dma_id, d.name, f"{d.diversity:.6g}", d.pairs_counted)
                    for rank, d in enumerate(div.per_dma, start=1)
                ],
                digest,
            )
            summary["overall_diversity"] = div.overall
        if len(sample_set.samples) >= 3:
            corr = analytics.dma_correlations(
                sample_set,
                min_mean=float(cfg.get("min_mean", 2.0)),
                p_threshold=float(cfg.get("p_threshold", 0.01)),
                r_threshold=cfg.get("r_threshold"),
            )
            _write_csv(
                out_dir / "correlations.csv",
                ("dma_a", "name_a", "mean_a", "dma_b", "name_b", "mean_b", "r", "p_value"),
                [
                    (c.dma_a, c.name_a, f"{c.mean_a:.6g}", c.dma_b, c.name_b,
                     f"{c.mean_b:.6g}", f"{c.r:.6g}", f"{c.p_value:.3g}")
                    for c in corr
                ],
                digest,
            )

        samples_b_path = cfg.get("samples_b")
        if samples_b_path:
            set_b = SampleSet.load_jsonl(samples_b_path, instance)
            stats_b = analytics.dma_stats(set_b)
            deltas = analytics.config_delta(stats, stats_b)
            _write_csv(
                out_dir / "config_delta.csv",
                ("rank", "dma_id", "name", "mean_a", "mean_b", "delta", "negative"),
                [
                    (rank, d.dma_id, d.name, f"{d.mean_a:.6g}", f"{d.mean_b:.6g}",
                     f"{d.delta:.6g}", d.negative)
                    for rank, d in enumerate(deltas, start=1)
                ],
                digest,
            )

    trials_path = cfg.get("trials_file")
    if trials_path:
        meta, trials = montecarlo.load_trial_set(trials_path)
        est = montecarlo.SuccessEstimate(
            model=ModelSpec.from_dict(meta["model"]),
            target_mhz=meta["target_mhz"],
            use_domain=meta["use_domain"],
            backend=meta["backend"],
            trials=trials,
        )
        p = est.p if trials else None
        _write_csv(
            out_dir / "trials_summary.csv",
            ("trials", "infeasible", "timeouts", "p", "mean_z", "attribution_fraction"),
            [(est.trial_count, est.infeasible_count, est.timeout_count, p,
              est.mean_z_value, est.attribution.fraction)],
            digest,
        )
        summary["trials"] = est.trial_count
        summary["p"] = p

    if not samples_path and not trials_path:
        raise CliError("stats needs --samples and/or --trials-file")
    _write_json(out_dir / "summary.json", summary, digest)
    _print({"out": str(out_dir), **summary, "config_digest": digest})


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--workers", type=int,
                    help="parallel workers (default: all cores)")
    common.add_argument(
        "--timeout-secs", type=float, dest="timeout_secs",
        help=f"per-solve wall budget (default {DEFAULT_TIME_BUDGET:g})",
    )
    common.add_argument("--out", help="output file or directory")
    common.add_argument("--engine", choices=("embedded", "external"))
    common.add_argument("--solver-cmd", dest="solver_cmd",
                        help=f"external solver command (or ${EXTERNAL_SOLVER_ENV})")
    common.add_argument("-v", "--verbose", action="store_true")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--instance", help="instance CSV directory")
    problem.add_argument("--target", type=int, help="clearing target in MHz")
    dom = problem.add_mutually_exclusive_group()
    dom.add_argument("--use-domain", dest="use_domain", action="store_const", const=True)
    dom.add_argument("--no-domain", dest="use_domain", action="store_const", const=False)

    parser = argparse.ArgumentParser(
        prog="repacker",
        description="Feasibility engine and analysis toolkit for spectrum repacking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic instance")
    p.add_argument("--n", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--co-density", type=float, dest="co_density")
    p.add_argument("--adj-density", type=float, dest="adj_density")
    p.add_argument("--domain-density", type=float, dest="domain_density")
    p.add_argument("--dmas", type=int)
    p.add_argument("--affiliate-fraction", type=float, dest="affiliate_fraction")
    p.add_argument("--clique-size", type=int, dest="clique_size")
    p.add_argument("--clique-dma", type=int, dest="clique_dma")
    p.add_argument("--forbidden", help="comma-separated channel numbers")
    p.add_argument("--first-channel", type=int, dest="first_channel")
    p.set_defaults(fn=_cmd_gen)

    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--cap-nationwide", type=int, dest="cap_nationwide")
    caps.add_argument("--dma-cap", action="append", dest="dma_cap", metavar="DMA=CAP")
    caps.add_argument("--max-dmas", type=int, dest="max_dmas")
    caps.add_argument("--must-repack", dest="must_repack", help="file of station ids, one per line")
    caps.add_argument("--repack-all", dest="repack_all", action="store_true", default=None)

    p = sub.add_parser("encode", parents=[common, problem, caps], help="write DIMACS CNF + var map")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("solve", parents=[common, problem, caps], help="single feasibility check")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("min-clear", parents=[common, problem],
                       help="minimum nationwide clearings for the target")
    p.set_defaults(fn=functools.partial(_cmd_min_search, command="min-clear"))

    p = sub.add_parser("min-dmas", parents=[common, problem],
                       help="minimum number of DMAs with any clearing")
    p.set_defaults(fn=functools.partial(_cmd_min_search, command="min-dmas"))

    p = sub.add_parser("min-dma-isolated", parents=[common, problem],
                       help="minimum clearings in one DMA, nationwide near-minimal")
    p.add_argument("--dma", type=int)
    p.add_argument("--slack", type=float)
    p.add_argument("--b-star", type=int, dest="b_star")
    p.set_defaults(fn=functools.partial(_cmd_min_search, command="min-dma-isolated"))

    p = sub.add_parser("sample", parents=[common, problem], help="sample near-minimal solutions")
    p.add_argument("--count", type=int)
    p.add_argument("--buffer", type=int)
    p.add_argument("--b-star", type=int, dest="b_star")
    p.add_argument("--retry-factor", type=int, dest="retry_factor")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("simulate", parents=[common, problem],
                       help="Monte Carlo success-probability estimation")
    p.add_argument("--model", choices=[k.value for k in ModelKind])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--top-prob", type=float, dest="top_prob")
    p.add_argument("--trials", type=int)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--catalog", help="clique catalog JSONL to reuse")
    p.add_argument("--alphas", help="comma-separated grid for a shared-randomness sweep")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("cliques", parents=[common, problem], help="build a clique catalog")
    p.add_argument("--min-size", type=int, dest="min_size")
    p.add_argument("--attempts", type=int)
    p.add_argument("--max-cliques", type=int, dest="max_cliques")
    p.set_defaults(fn=_cmd_cliques)

    p = sub.add_parser("stats", parents=[common, problem],
                       help="analytics tables from stored samples/trials")
    p.add_argument("--samples", help="sample-set JSONL")
    p.add_argument("--samples-b", dest="samples_b", help="second sample set for deltas")
    p.add_argument("--trials-file", dest="trials_file", help="trial-set JSONL")
    p.add_argument("--min-mean", type=float, dest="min_mean")
    p.add_argument("--p-threshold", type=float, dest="p_threshold")
    p.add_argument("--r-threshold", type=float, dest="r_threshold")
    p.add_argument("--identity", choices=("assignment", "cleared-set"))
    p.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig(args)
        args.fn(cfg)
        return 0
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        if getattr(args, "verbose", False):
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
