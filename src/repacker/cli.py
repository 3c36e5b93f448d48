"""Batch command-line interface.

One subcommand per pipeline stage: generate instances, encode, solve, run the
minimum searches, sample solutions, run Monte Carlo simulations, build clique
catalogs, and compute the statistics tables from persisted artifacts.

Runs are reproducible from a config file plus master seed. Config fields are
parser defaults, so flags override them. Every output embeds the digest of
the parsed options, defaults included, minus those that leave results
unchanged (CSV files as a leading ``#`` comment, JSON objects as a field,
JSON-lines files in their meta record). Failures exit nonzero after printing a one-line
JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

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
from .instance import RepackProblem
from .instance_io import instance_digest, load_instance, save_instance
from .montecarlo import estimate_success, shared_randomness_sweep
from .participation import DEFAULT_TOP_PROB, ModelKind, ModelSpec
from .solver import ExternalSolver
from .synthetic import generate_synthetic
from .util import canonical_json, json_field, sha256_hex


class CliError(ValueError):
    pass


# -- configuration plumbing --------------------------------------------------


#: Namespace keys that do not shape the experiment: the handler, output
#: locations and execution details that provably leave results unchanged.
_NON_SEMANTIC = frozenset({"fn", "out", "config", "verbose", "workers"})

#: Parameters without a usable default, by subcommand. They may come from a
#: flag or a config field; the check runs before any work starts.
_REQUIRED = {
    "gen": ("n", "out"),
    "encode": ("instance", "target", "out"),
    "solve": ("instance", "target"),
    "min-clear": ("instance", "target"),
    "min-dmas": ("instance", "target"),
    "min-dma-isolated": ("instance", "target", "dma"),
    "sample": ("instance", "target", "count", "out"),
    "simulate": ("instance", "target", "model", "out"),
    "cliques": ("instance", "out"),
    "stats": ("instance", "out"),
}


def _apply_config(sub: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the ``--config`` file's fields the subcommand's defaults, so flags win.

    Fields that name no option of the subcommand are ignored. A field holds
    what its flag gives: ``true``/``false`` for an on/off option, a list for a
    repeatable one, else a string or number that is read as the flag's text.
    """
    with open(args.config, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(
                f"{args.config}: not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from None
    if not isinstance(data, dict):
        raise CliError(f"{args.config}: config must be a JSON object")
    known = vars(args).keys() - {"command", "config", "fn"}
    actions = {a.dest: a for a in sub._actions}
    fields = {k: v for k, v in data.items() if k in known}
    for k, v in fields.items():
        action = actions[k]
        try:
            if action.nargs == 0:  # --repack-all, --use-domain/--no-domain, -v
                fields[k] = json_field(v, bool, "value")
            elif isinstance(action, argparse._AppendAction):  # --dma-cap
                fields[k] = [_option_value(sub, action, x) for x in json_field(v, list, "value")]
            else:
                fields[k] = _option_value(sub, action, v)
        except (argparse.ArgumentError, ValueError) as exc:
            why = exc.message if isinstance(exc, argparse.ArgumentError) else exc
            raise CliError(f"{args.config}: field {k!r}: {why}") from None
    sub.set_defaults(**fields)


def _option_value(sub: argparse.ArgumentParser, action: argparse.Action, value: Any) -> Any:
    """The text of a JSON string or number through the option's type and choices."""
    if type(value) not in (str, int, float):
        raise ValueError(f"value must be a string or a number, got {json.dumps(value)}")
    value = sub._get_value(action, str(value))  # argparse's own conversion and message
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r}"
                         f" (choose from {', '.join(map(repr, action.choices))})")
    return value


def _finite_float(text: str) -> float:
    """The type of every float option. NaN and infinities are refused here,
    where the option is known, not later by the digest's JSON encoder."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _comma_list(item: Callable[[str], Any]) -> Callable[[str], list]:
    """The type of a comma-separated list option: each non-empty item read by ``item``."""
    def parse(text: str) -> list:
        return [item(x) for x in text.split(",") if x]
    parse.__name__ = f"comma-separated {item.__name__}"  # argparse's "invalid <name> value"
    return parse


def _check_required(args: argparse.Namespace) -> None:
    for name in _REQUIRED[args.command]:
        if getattr(args, name) is None:
            raise CliError(f"missing required parameter: --{name.replace('_', '-')}")


def _digest(args: argparse.Namespace) -> str:
    """Digest of every option the subcommand takes, defaults included."""
    return sha256_hex(canonical_json(
        {k: v for k, v in vars(args).items() if k not in _NON_SEMANTIC}
    ))


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform tells; else all the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _engine_from(args: argparse.Namespace):
    return ExternalSolver(args.solver_cmd) if args.solver_cmd else None


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence], digest: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_digest={digest}\n")
        w = csv.writer(fh)
        w.writerow(header)
        # The csv module writes None as an empty field.
        w.writerows(rows)


def _write_json(path: Path, payload: dict, digest: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {**payload, "config_digest": digest}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print(payload: dict, digest: str) -> None:
    json.dump({**payload, "config_digest": digest}, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _read_station_list(path: str) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def _problem_from(args: argparse.Namespace, instance) -> RepackProblem:
    must_repack: frozenset[str] = frozenset()
    if args.repack_all and args.must_repack:
        raise CliError("--repack-all cannot be combined with --must-repack")
    if args.repack_all:
        must_repack = frozenset(instance.station_ids)
    elif args.must_repack:
        must_repack = _read_station_list(args.must_repack)
    dma_caps: dict[int, int] = {}
    for item in args.dma_cap:
        dma_text, _, cap_text = item.partition("=")
        try:
            dma, cap = int(dma_text), int(cap_text)
        except ValueError:
            raise CliError(f"bad --dma-cap {item!r}, expected DMA=CAP") from None
        if dma in dma_caps:
            raise CliError(f"--dma-cap names DMA {dma} twice")
        dma_caps[dma] = cap
    return RepackProblem(
        instance=instance,
        clearing_target_mhz=args.target,
        use_domain_constraints=args.use_domain,
        must_repack=must_repack,
        max_cleared_nationwide=args.cap_nationwide,
        dma_caps=dma_caps,
        max_dmas_with_clearing=args.max_dmas,
    )


# -- subcommands --------------------------------------------------------------
# Each handler receives the parsed options and their config digest.


def _cmd_gen(args: argparse.Namespace, digest: str) -> None:
    out_dir = Path(args.out)
    instance = generate_synthetic(
        n=args.n,
        channel_count=args.channels,
        co_density=args.co_density,
        adj_density=args.adj_density,
        domain_density=args.domain_density,
        n_dmas=args.dmas,
        affiliate_fraction=args.affiliate_fraction,
        planted_clique=args.clique_size,
        planted_clique_dma=args.clique_dma,
        forbidden_channels=args.forbidden,
        first_channel=args.first_channel,
        seed=args.seed,
    )
    save_instance(instance, out_dir)
    inst_digest = instance_digest(instance)
    # The instance CSVs stay comment-free for canonical round-trips, so the
    # provenance digest rides in a sidecar instead.
    _write_json(out_dir / "meta.json", {"instance_digest": inst_digest, "n": instance.n}, digest)
    _print(
        {
            "out": str(out_dir),
            "n": instance.n,
            "dmas": len(instance.dmas),
            "interference": len(instance.interference),
            "instance_digest": inst_digest,
        },
        digest,
    )


def _cmd_encode(args: argparse.Namespace, digest: str) -> None:
    problem = _problem_from(args, load_instance(args.instance))
    formula = encode(problem)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    cnf_path = prefix.with_suffix(".cnf")
    with open(cnf_path, "w", encoding="utf-8") as fh:
        export_dimacs(formula, fh)
    vars_path = prefix.with_suffix(".vars.json")
    assert formula.var_map is not None
    _write_json(vars_path, formula.var_map.to_json_dict(), digest)
    _print(
        {
            "cnf": str(cnf_path),
            "vars": str(vars_path),
            "var_count": formula.var_count,
            "clause_count": formula.clause_count,
        },
        digest,
    )


def _cmd_solve(args: argparse.Namespace, digest: str) -> None:
    problem = _problem_from(args, load_instance(args.instance))
    result = check_feasibility(
        problem, seed=args.seed, time_budget=args.timeout_secs, engine=_engine_from(args),
    )
    payload: dict[str, Any] = {
        "verdict": result.verdict.value,
        "infeasible_by_timeout": result.infeasible_by_timeout,
        "seed": result.seed,
        "stats": result.stats.to_json_dict(),
    }
    if result.assignment is not None:
        # check_feasibility raises on any violation of the decoded assignment.
        payload["violations"] = 0
        payload["cleared"] = len(result.assignment.cleared_set())
        if args.out:
            _write_json(Path(args.out), {"assignment": result.assignment.to_json_dict()}, digest)
            payload["assignment_file"] = str(args.out)
    _print(payload, digest)


def _isolated_params(args: argparse.Namespace) -> dict[str, Any]:
    return {"dma_id": args.dma, "b_star": args.b_star, "slack": args.slack}


#: Minimum searches by subcommand: the driver function, a reader for its
#: subcommand-specific parameters, and the options echoed into the payload.
_MIN_SEARCHES = {
    "min-clear": (min_nationwide_clearings, lambda args: {}, ()),
    "min-dmas": (min_dmas_with_clearing, lambda args: {}, ()),
    "min-dma-isolated": (min_dma_clearings_isolated, _isolated_params, ("dma",)),
}


def _cmd_min_search(args: argparse.Namespace, digest: str) -> None:
    search, read_params, echoed = _MIN_SEARCHES[args.command]
    result = search(
        load_instance(args.instance),
        args.target,
        use_domain=args.use_domain,
        **read_params(args),
        seed=args.seed,
        time_budget=args.timeout_secs,
        engine=_engine_from(args),
    )
    payload = {**result.to_json_dict(), **{key: getattr(args, key) for key in echoed}}
    if args.out:
        _write_json(
            Path(args.out),
            {**result.to_json_dict(), "witness": result.witness.to_json_dict()},
            digest,
        )
        payload["result_file"] = str(args.out)
    _print(payload, digest)


def _cmd_sample(args: argparse.Namespace, digest: str) -> None:
    sample_set = sample_solutions(
        load_instance(args.instance),
        args.target,
        args.use_domain,
        count=args.count,
        buffer=args.buffer,
        b_star=args.b_star,
        seed=args.seed,
        time_budget=args.timeout_secs,
        retry_factor=args.retry_factor,
        workers=args.workers,
        engine=_engine_from(args),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sample_set.save_jsonl(out, config_digest=digest)
    payload = {
        "out": str(out),
        "samples": len(sample_set.samples),
        "requested": sample_set.requested,
        "shortfall": sample_set.shortfall,
        "b_star": sample_set.b_star,
        "cap": sample_set.cap,
    }
    _print(payload, digest)
    if sample_set.shortfall:
        raise CliError(
            f"sampled only {len(sample_set.samples)} of {sample_set.requested} solutions"
        )


def _cmd_cliques(args: argparse.Namespace, digest: str) -> None:
    instance = load_instance(args.instance)
    catalog = enumerate_cliques_greedy(
        instance,
        min_size=args.min_size,
        attempts_per_vertex=args.attempts,
        max_cliques=args.max_cliques,
        seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    catalog.save_jsonl(out, instance, seed=args.seed, config_digest=digest)
    _print(
        {
            "out": str(out),
            "cliques": len(catalog),
            "largest": catalog.largest(),
        },
        digest,
    )


def _cmd_simulate(args: argparse.Namespace, digest: str) -> None:
    alphas = args.alphas or []
    if alphas and args.alpha is not None:
        raise CliError("--alpha cannot be combined with --alphas, which sets every rate")
    names = [f"trials-alpha-{alpha:g}.jsonl" for alpha in alphas] or ["trials.jsonl"]
    for i, name in enumerate(names):
        first = names.index(name)
        if first < i:
            raise CliError(f"--alphas {alphas[first]!r} and {alphas[i]!r} would both write {name}")
    instance = load_instance(args.instance)
    # The sweep overrides the rate per grid point; any point serves as the
    # base model, so use the first.
    model = ModelSpec.from_dict({
        "kind": args.model, "alpha": alphas[0] if alphas else args.alpha, "beta": args.beta,
        "gamma": args.gamma, "top_prob": args.top_prob,
    })
    try:
        catalog = CliqueCatalog.load_jsonl(args.catalog, instance) if args.catalog else None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    run = dict(
        trials=args.trials, seed=args.seed, backend=args.backend, catalog=catalog,
        time_budget=args.timeout_secs, engine=_engine_from(args), workers=args.workers,
    )

    if alphas:
        estimates = shared_randomness_sweep(
            model, alphas, instance, args.target, args.use_domain, **run
        )
    else:
        estimates = [estimate_success(model, instance, args.target, args.use_domain, **run)]
    # Created only now, so a run that fails on its inputs leaves no --out behind.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, est in zip(names, estimates):
        est.save_trials_jsonl(out_dir / name, instance, digest)

    rows = [est.summary_row() for est in estimates]
    _write_csv(out_dir / "summary.csv", list(rows[0]), [list(r.values()) for r in rows], digest)
    _print(
        {
            "out": str(out_dir),
            "points": [
                {"p": est.p, "stderr": est.stderr, "trials": est.trial_count,
                 "alpha": est.model.alpha}
                for est in estimates
            ],
        },
        digest,
    )


def _cmd_stats(args: argparse.Namespace, digest: str) -> None:
    if not args.samples and not args.trials_file:
        raise CliError("stats needs --samples and/or --trials-file")
    if args.samples_b and not args.samples:
        raise CliError("--samples-b needs --samples")
    instance = load_instance(args.instance)
    # Every input is loaded and checked against the instance before any output is written.
    try:
        if args.samples:
            sample_set = SampleSet.load_jsonl(args.samples, instance)
            set_b = SampleSet.load_jsonl(args.samples_b, instance) if args.samples_b else None
        if args.trials_file:
            est = montecarlo.load_trial_set(args.trials_file, instance)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict[str, Any] = {}

    if args.samples:
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

        mm = analytics.missing_mass(sample_set, identity=args.identity)
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
                min_mean=args.min_mean,
                p_threshold=args.p_threshold,
                r_threshold=args.r_threshold,
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

        if set_b is not None:
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

    if args.trials_file:
        p = est.p if est.trials else None
        _write_csv(
            out_dir / "trials_summary.csv",
            ("trials", "infeasible", "timeouts", "p", "mean_z", "attribution_fraction"),
            [(est.trial_count, est.infeasible_count, est.timeout_count, p,
              est.mean_z, est.attribution_fraction)],
            digest,
        )
        summary["trials"] = est.trial_count
        summary["p"] = p

    _write_json(out_dir / "summary.json", summary, digest)
    _print({"out": str(out_dir), **summary}, digest)


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name.

    Every option a subcommand takes is one its handler reads; shared options
    come from one parent parser per concern.
    """
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="JSON config file; flags override its fields")
    base.add_argument("--out", help="output file or directory")
    base.add_argument("-v", "--verbose", action="store_true")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument(
        "--timeout-secs", type=_finite_float, dest="timeout_secs", default=DEFAULT_TIME_BUDGET,
        help=f"per-solve wall budget (default {DEFAULT_TIME_BUDGET:g})",
    )
    solving.add_argument("--solver-cmd", dest="solver_cmd",
                         help="external DIMACS solver command (default: embedded solver)")

    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--workers", type=int, default=_usable_cpus(),
                        help="parallel workers (default: the CPUs this process may run on)")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--instance", help="instance CSV directory")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--target", type=int, help="clearing target in MHz")
    dom = problem.add_mutually_exclusive_group()
    dom.add_argument("--use-domain", dest="use_domain", action="store_const", const=True)
    dom.add_argument("--no-domain", dest="use_domain", action="store_const", const=False)
    problem.set_defaults(use_domain=True)

    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--cap-nationwide", type=int, dest="cap_nationwide")
    caps.add_argument("--dma-cap", action="append", dest="dma_cap", metavar="DMA=CAP",
                      default=[])
    caps.add_argument("--max-dmas", type=int, dest="max_dmas")
    caps.add_argument("--must-repack", dest="must_repack", help="file of station ids, one per line")
    caps.add_argument("--repack-all", dest="repack_all", action="store_true")

    searching = [base, seeded, solving, source, problem]

    parser = argparse.ArgumentParser(
        prog="repacker",
        description="Feasibility engine and analysis toolkit for spectrum repacking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[base, seeded], help="generate a synthetic instance")
    p.add_argument("--n", type=int)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--co-density", type=_finite_float, dest="co_density", default=0.1)
    p.add_argument("--adj-density", type=_finite_float, dest="adj_density", default=0.0)
    p.add_argument("--domain-density", type=_finite_float, dest="domain_density", default=0.0)
    p.add_argument("--dmas", type=int)
    p.add_argument("--affiliate-fraction", type=_finite_float, dest="affiliate_fraction", default=0.4)
    p.add_argument("--clique-size", type=int, dest="clique_size", default=0)
    p.add_argument("--clique-dma", type=int, dest="clique_dma")
    p.add_argument("--forbidden", type=_comma_list(int), default=[],
                   help="comma-separated channel numbers")
    p.add_argument("--first-channel", type=int, dest="first_channel", default=14)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("encode", parents=[base, source, problem, caps],
                       help="write DIMACS CNF + var map")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("solve", parents=[*searching, caps], help="single feasibility check")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("min-clear", parents=searching,
                       help="minimum nationwide clearings for the target")
    p.set_defaults(fn=_cmd_min_search)

    p = sub.add_parser("min-dmas", parents=searching,
                       help="minimum number of DMAs with any clearing")
    p.set_defaults(fn=_cmd_min_search)

    p = sub.add_parser("min-dma-isolated", parents=searching,
                       help="minimum clearings in one DMA, nationwide near-minimal")
    p.add_argument("--dma", type=int)
    p.add_argument("--slack", type=_finite_float, default=DEFAULT_SLACK)
    p.add_argument("--b-star", type=int, dest="b_star")
    p.set_defaults(fn=_cmd_min_search)

    p = sub.add_parser("sample", parents=[*searching, pooled],
                       help="sample near-minimal solutions")
    p.add_argument("--count", type=int)
    p.add_argument("--buffer", type=int, default=DEFAULT_BUFFER)
    p.add_argument("--b-star", type=int, dest="b_star")
    p.add_argument("--retry-factor", type=int, dest="retry_factor", default=3)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("simulate", parents=[*searching, pooled],
                       help="Monte Carlo success-probability estimation")
    p.add_argument("--model", choices=[k.value for k in ModelKind])
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--gamma", type=_finite_float)
    p.add_argument("--top-prob", type=_finite_float, dest="top_prob", default=DEFAULT_TOP_PROB)
    p.add_argument("--trials", type=int, default=montecarlo.DEFAULT_TRIALS)
    p.add_argument("--backend", default=montecarlo.DEFAULT_BACKEND,
                   choices=(montecarlo.BACKEND_CLIQUE_THEN_SAT, montecarlo.BACKEND_CLIQUE_ONLY))
    p.add_argument("--catalog", help="clique catalog JSONL to reuse")
    p.add_argument("--alphas", type=_comma_list(_finite_float),
                   help="comma-separated grid for a shared-randomness sweep")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("cliques", parents=[base, seeded, source], help="build a clique catalog")
    p.add_argument("--min-size", type=int, dest="min_size", default=2)
    p.add_argument("--attempts", type=int, default=4)
    p.add_argument("--max-cliques", type=int, dest="max_cliques")
    p.set_defaults(fn=_cmd_cliques)

    p = sub.add_parser("stats", parents=[base, source],
                       help="analytics tables from stored samples/trials")
    p.add_argument("--samples", help="sample-set JSONL")
    p.add_argument("--samples-b", dest="samples_b", help="second sample set for deltas")
    p.add_argument("--trials-file", dest="trials_file", help="trial-set JSONL")
    p.add_argument("--min-mean", type=_finite_float, dest="min_mean", default=2.0)
    p.add_argument("--p-threshold", type=_finite_float, dest="p_threshold", default=0.01)
    p.add_argument("--r-threshold", type=_finite_float, dest="r_threshold")
    p.add_argument("--identity", choices=("assignment", "cleared-set"), default="assignment")
    p.set_defaults(fn=_cmd_stats)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(commands[args.command], args)
            args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        _check_required(args)
        args.fn(args, _digest(args))
        return 0
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        if args.verbose:
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
