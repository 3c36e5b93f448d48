"""Span recording for the traced benchmark run.

The traced run replaces public functions at the module attribute through
which the package's own callers reach them (``repacker.driver.encode``,
``repacker.montecarlo.blocking_check``, ...), and passes a
:class:`TracingEngine` as the public ``engine=`` parameter. The package source
is not touched, and the untraced runs install nothing.

A span is ``(id, name, start, end, parent, op)``: ``name`` is
``<layer>.<function>``, ``parent`` the id of the enclosing span and ``op`` the
Monte Carlo trial or min-search probe / sample attempt the span belongs to.
Spans stay in memory and are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repacker import EmbeddedSolver

LAYERS = (
    "instance_io", "cliques", "participation", "montecarlo", "parallel",
    "encoder", "solver", "driver", "instance", "analytics",
)

# (module, attribute, span name, starts a new operation). Each entry is the
# binding the package's callers use, so a call made inside ``src/`` passes
# through the shim.
SHIMS = (
    ("repacker.driver", "check_feasibility", "driver.check_feasibility", True),
    ("repacker.driver", "encode", "encoder.encode", False),
    ("repacker.driver", "decode", "encoder.decode", False),
    ("repacker.driver", "validate_assignment", "instance.validate_assignment", False),
    ("repacker.montecarlo", "check_feasibility", "driver.check_feasibility", False),
    ("repacker.montecarlo", "blocking_check", "cliques.blocking_check", False),
    ("repacker.montecarlo", "draw_variates", "participation.draw_variates", True),
    ("repacker.montecarlo", "sample_from_variates", "participation.sample_from_variates", False),
    ("repacker.parallel", "run_tasks", "parallel.run_tasks", False),
    ("repacker.analytics", "dma_stats", "analytics.dma_stats", False),
    ("repacker.analytics", "dma_correlations", "analytics.dma_correlations", False),
    ("repacker.analytics", "diversity_report", "analytics.diversity_report", False),
    ("repacker.analytics", "missing_mass", "analytics.missing_mass", False),
    ("repacker.analytics", "broadcaster_frequencies", "analytics.broadcaster_frequencies", False),
)


class Tracer:
    """In-memory span and solve log for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.solves: list[dict] = []
        self.shim_calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._ops_in_stage: Counter[str] = Counter()
        self.stage = ""
        self.op: str | None = None

    def set_stage(self, stage: str) -> None:
        """Label the operations that follow; numbering restarts per stage."""
        self.stage = stage
        self.op = None

    def begin_op(self) -> None:
        index = self._ops_in_stage[self.stage]
        self._ops_in_stage[self.stage] = index + 1
        self.op = f"{self.stage}#{index}"

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op = self.op
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, op))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time its children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for span_id, name, start, end, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[span_id]
        return out


class TracingEngine:
    """Engine facade that times ``EmbeddedSolver.solve`` and logs its stats."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._inner = EmbeddedSolver()

    def solve(self, formula, seed: int = 0, time_budget: float = 60.0):
        with self._tracer.span("solver.solve"):
            outcome = self._inner.solve(formula, seed=seed, time_budget=time_budget)
        stats = outcome.stats
        self._tracer.solves.append({
            "op": self._tracer.op,
            "vars": formula.var_count,
            "clauses": formula.clause_count,
            "verdict": outcome.verdict.value,
            "propagations": stats.propagations,
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "search_s": stats.wall_time,
        })
        return outcome


def _shim(tracer: Tracer, key: str, name: str, starts_op: bool, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.shim_calls[key] += 1
        if starts_op:
            tracer.begin_op()
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install every shim for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, starts_op in SHIMS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            key = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            setattr(module, attr, _shim(tracer, key, name, starts_op, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures that follow from the spans and the solve log alone.

    Solver counts cover completed solves only: a timed-out solve's work
    depends on the wall clock, so leaving it out keeps the counts exact.
    """
    solves = tracer.solves
    done = [s for s in solves if s["verdict"] != "timeout"]
    verdicts = Counter(s["verdict"] for s in solves)
    encode_s = sum(tracer.durations("encoder.encode"))
    solve_s = sum(tracer.durations("solver.solve"))
    search_s = sum(s["search_s"] for s in solves)
    done_search_s = sum(s["search_s"] for s in done)
    propagations = sum(s["propagations"] for s in done)
    clauses = sum(s["clauses"] for s in solves)
    checks = tracer.durations("driver.check_feasibility")
    m = {
        "cliques.scan_calls": len(tracer.durations("cliques.blocking_check")),
        "cliques.scan_s": sum(tracer.durations("cliques.blocking_check")),
        "participation.draw_calls": len(tracer.durations("participation.draw_variates")),
        "participation.draw_s": sum(tracer.durations("participation.draw_variates"))
        + sum(tracer.durations("participation.sample_from_variates")),
        "encoder.calls": len(tracer.durations("encoder.encode")),
        "encoder.encode_s": encode_s,
        "encoder.vars": sum(s["vars"] for s in solves),
        "encoder.clauses": clauses,
        "encoder.max_clauses": max((s["clauses"] for s in solves), default=0),
        "encoder.clauses_per_s": clauses / encode_s if encode_s else 0.0,
        "encoder.decode_s": sum(tracer.durations("encoder.decode")),
        "solver.calls": len(solves),
        "solver.propagations": propagations,
        "solver.conflicts": sum(s["conflicts"] for s in done),
        "solver.decisions": sum(s["decisions"] for s in done),
        "solver.sat": verdicts["sat"],
        "solver.unsat": verdicts["unsat"],
        "solver.timeout": verdicts["timeout"],
        "solver.solve_s": solve_s,
        "solver.search_s": search_s,
        "solver.construct_s": solve_s - search_s,
        "solver.props_per_s": propagations / done_search_s if done_search_s else 0.0,
        "instance.validate_s": sum(tracer.durations("instance.validate_assignment")),
        "driver.check_calls": len(checks),
        "driver.check_s": sum(checks),
    }
    for fn in ("dma_stats", "dma_correlations", "diversity_report", "missing_mass",
               "broadcaster_frequencies"):
        m[f"analytics.{fn}_s"] = sum(tracer.durations(f"analytics.{fn}"))
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    return m


def counts_digest(tracer: Tracer) -> str:
    """Digest of the exact counts: per completed solve, in operation order."""
    rows = sorted(
        (s["op"] or "", i, s["vars"], s["clauses"], s["verdict"],
         s["propagations"], s["conflicts"], s["decisions"])
        for i, s in enumerate(tracer.solves)
        if s["verdict"] != "timeout"
    )
    text = "\n".join(",".join(str(v) for v in (op, *rest)) for op, _, *rest in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
