"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload mc-congested --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run generates the workload's inputs under ``.bench_work/``, times set-up in
fresh interpreters, runs the workload in a child process (sampling the
resident memory of it and its workers), and prints a JSON report line
followed by the result line::

    {"correct": true, "attempted": 800, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` its per-layer metrics, from an extra pass run under the span
shims of ``tracing.py``. The report line carries every end-to-end figure
by name, including those that only apply to some workloads (null
elsewhere). The process exits non-zero without a result when the checkout
has no package, a step fails, or the run overruns its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 175.0
SETUP_RUNS = 3  # fresh interpreters timed per run; the workload child is one of them
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

# Every end-to-end figure, with its unit; the report line lists them all.
REPORT_UNITS = {
    "setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "trial_p50_ms": "ms",
    "trial_tail_ms": "ms", "minimum_s": "s", "samples_per_s": "1/s",
    "fail_frac": "frac", "peak_rss_mb": "MB",
}


class RunError(RuntimeError):
    pass


def _group_rss(pgid: int) -> dict[int, int]:
    """Resident bytes of each live process in the process group ``pgid``."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members[int(entry)] = int(fields[21]) * PAGE_BYTES
    return members


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    limit = time.monotonic() + 10.0
    while _group_rss(pgid) and time.monotonic() < limit:
        time.sleep(0.05)


def run_child(args: list[str], workdir: Path, deadline: float) -> tuple[dict, float]:
    """Run ``child.py`` to completion; return its JSON line and peak group RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path = workdir / f"child-{args[0]}.out"
    peak = 0
    with open(out_path, "w+", encoding="utf-8") as sink:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                stdout=sink, env=env, cwd=ROOT, start_new_session=True)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise RunError(f"child {args[0]} overran the run deadline")
                peak = max(peak, sum(_group_rss(proc.pid).values()))
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            _stop_group(proc.pid)
        sink.seek(0)
        lines = sink.read().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1]), peak / 2**20


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repacker" / "__init__.py").is_file():
        print("bench: this checkout has no src/repacker to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = [args.workload, str(workdir)]
    try:
        run_child(["gen", *base], workdir, deadline)
        setups = [run_child(["setup", *base], workdir, deadline)[0]["setup"]
                  for _ in range(SETUP_RUNS - 1)]
        out, peak_mb = run_child(
            ["run", *base, str(args.seed), str(args.seconds), str(args.trace)], workdir, deadline)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(out["setup"])

    def median_setup(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    figures = dict(out["report"])
    trial_tail = figures.pop("trial_tail", None)
    figures.update(
        setup_s=median_setup("total_s"),
        wall_s=out["wall_s"],
        ops_per_s=out["ops_per_s"],
        fail_frac=out["failed"] / out["attempted"],
        peak_rss_mb=max(peak_mb, out["self_maxrss_mb"]),
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": out["passes"],
        "metrics": {k: {"value": figures[k], "unit": u} if k in figures else None
                    for k, u in REPORT_UNITS.items()},
        "trial_tail": trial_tail,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "instance": {k: out["setup"][k] for k in
                     ("stations", "constraints", "catalog_size", "largest")},
        "verdict_digests": out["digests"],
    }
    if args.trace:
        layers = dict(out["layers"])
        layers.update({
            "import.repacker_s": median_setup("import_s"),
            "instance_io.load_s": median_setup("load_s"),
            "cliques.catalog_s": median_setup("catalog_s"),
            "cliques.catalog_size": out["setup"]["catalog_size"],
            "cliques.largest": out["setup"]["largest"],
        })
        chosen, source = spec["per_layer"], layers
        report.update(counts_digest=out["counts_digest"], trace_file=out["trace_file"])
    else:
        chosen, source = spec["end_to_end"], figures
    for error in out["errors"]:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
