"""One step of a benchmark run, in a fresh interpreter started by ``run.py``.

    python3 bench/child.py gen   WORKLOAD WORKDIR
    python3 bench/child.py setup WORKLOAD WORKDIR
    python3 bench/child.py run   WORKLOAD WORKDIR SEED SECONDS TRACE

``gen`` saves the workload's instances under WORKDIR. ``setup`` times what
every CLI call pays before useful work: the first ``import repacker``, the
instance load and the clique catalog. ``run`` does that set-up, then the
timed passes, and checks their outputs. Each prints one JSON object as its
last line of standard output.
"""

import time

_start = time.perf_counter()
import repacker  # noqa: E402,F401  the first import is part of set-up time

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Shims that must record calls on every workload, and on each kind of workload.
EXPECTED_SHIMS = ("driver.encode", "driver.decode", "driver.validate_assignment",
                  "parallel.run_tasks")
EXPECTED_BY_KIND = {
    workloads.MonteCarlo: ("montecarlo.check_feasibility", "montecarlo.blocking_check",
                           "montecarlo.draw_variates", "montecarlo.sample_from_variates"),
    workloads.Pipeline: ("driver.check_feasibility", "analytics.dma_stats",
                         "analytics.dma_correlations", "analytics.diversity_report",
                         "analytics.missing_mass", "analytics.broadcaster_frequencies"),
}


def setup_record(info: dict) -> dict:
    record = dict(info, import_s=IMPORT_S)
    record["total_s"] = IMPORT_S + info["load_s"] + info["catalog_s"]
    return record


def run(workload, workdir: Path, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    inputs, info = workload.setup(workdir, tracer)
    errors = workload.check_setup(info)
    units = workload.units()
    rng = random.Random(seed)

    # Whole passes, while the next one is expected to end inside the window.
    passes = []
    start = time.perf_counter()
    while True:
        order = rng.sample(units, len(units))
        passes.append(workload.run_pass(inputs, order, workers=workload.workers))
        elapsed = time.perf_counter() - start
        if trace or elapsed + statistics.median(p.wall for p in passes) > seconds:
            break

    out = {
        "setup": setup_record(info),
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wall_s": statistics.median(p.wall for p in passes),
        "ops_per_s": statistics.median(p.attempted / p.wall for p in passes),
        "report": workload.report(passes),
        "digests": passes[0].digests,
        "self_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    errors += [e for p in passes for e in p.errors]
    if trace:
        out["layers"] = traced_layers(workload, inputs, passes[0], order, tracer, errors)
        trace_path = workdir / f"trace-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
        out["trace_file"] = str(trace_path)
        out["counts_digest"] = tracing.counts_digest(tracer)
    out["errors"] = errors
    return out


def traced_layers(workload, inputs, untraced, order, tracer, errors) -> dict:
    """Per-layer figures: one traced pass with one worker, so every span is in reach.

    The overhead is taken against an untraced pass with the same worker count.
    """
    baseline = untraced
    if workload.workers != 1:
        baseline = workload.run_pass(inputs, order, workers=1)
        errors += baseline.errors
    with tracing.installed(tracer):
        traced = workload.run_pass(inputs, order, workers=1,
                                   engine=tracing.TracingEngine(tracer), tracer=tracer)
    errors += traced.errors

    expected = EXPECTED_SHIMS + EXPECTED_BY_KIND[type(workload)]
    silent = [key for key in expected if tracer.shim_calls[key] == 0]
    if silent:
        errors.append(f"shims recorded no calls: {', '.join(silent)}")
    if not tracer.solves:
        errors.append("the tracing engine recorded no solves")
    recorded = workloads.GOLDEN[workload.name]["counts"]
    digest = tracing.counts_digest(tracer)
    if digest != recorded:
        errors.append(f"solver/encoder counts digest {digest}, recorded {recorded}")

    layers = tracing.layer_metrics(tracer)
    layers.update(workload.layer_report(untraced, inputs, workload.workers))
    scans = layers["cliques.scan_calls"]
    layers["cliques.blocked_frac"] = traced.counts.get("blocked", 0) / scans if scans else 0.0
    layers["driver.probes"] = traced.counts.get("probes", 0)
    layers["driver.probe_timeouts"] = traced.counts.get("probe_timeouts", 0)
    layers["driver.sample_attempts"] = traced.counts.get("sample_attempts", 0)
    layers["trace.overhead_frac"] = traced.wall / baseline.wall
    return layers


def main(argv: list[str]) -> None:
    mode, name, workdir = argv[0], argv[1], Path(argv[2])
    workload = workloads.WORKLOADS[name]
    if mode == "gen":
        workload.generate(workdir)
        out = {}
    elif mode == "setup":
        out = {"setup": setup_record(workload.setup(workdir)[1])}
    else:
        out = run(workload, workdir, int(argv[3]), float(argv[4]), argv[5] == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
