"""Layer spans for the traced pass, recorded from outside the package.

`instrument` wraps each layer function named in LAYER_FUNCTIONS and rebinds
the wrapper under every name any loaded blockrate module holds it by (for
example `log_psi` is bound in both `effective_rate` and `optimize`), so calls
made inside the package are traced too.  Leaving the context restores every
original binding.

A span records its name, thread, job, start, end and parent span.  Parents
come from a thread-local stack.  Sweep rows run on a thread pool, so the
wrapper of the pool entry point (`optimize._run_rows`) hands each task the
pool call as its parent and records the task itself as an `optimize.task`
span.  Spans stay in memory until `write` is called once at the end.

Counts such as entries, elements and bytes are computed from argument and
result shapes, not measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_PHILOX_BLOCK = 4  # uniforms per Philox counter; windows are padded to it


def _size(a) -> int:
    return int(np.size(a))


def _prefix_copied_bytes(args, out) -> dict:
    parent = args[0]
    copied = out is not parent and not np.may_share_memory(out.gains, parent.gains)
    return {"copied_bytes": out.gains.nbytes if copied else 0}


def _uniforms(args, out) -> dict:
    count, draws = args[2], args[3]
    return {"uniforms": count * -(-draws // _PHILOX_BLOCK) * _PHILOX_BLOCK}


def _optimum(args, out) -> dict:
    return {"evals": out.iterations, "at_boundary": bool(out.at_boundary)}


def _queue(args, out) -> dict:
    return {"frames": args[0].frames, "kept_bytes": out.samples.nbytes}


# (module, attribute path, counts computed from (args, result)).  The layers
# are the package modules; a name missing from the package is skipped.
LAYER_FUNCTIONS = [
    ("special", "q_function", lambda a, o: {"elements": _size(a[0])}),
    ("special", "q_inverse", None),
    ("channel", "uniform_windows", _uniforms),
    ("channel", "draw_gain_matrix", None),
    ("fbl", "rate_stats_arrays", lambda a, o: {"entries": _size(a[0])}),
    ("fbl", "error_probability_arrays", lambda a, o: {"elements": _size(a[0])}),
    ("effective_rate", "SampleSet.prefix", _prefix_copied_bytes),
    ("effective_rate", "SampleSet.stats", None),
    ("effective_rate", "log_psi", None),
    ("effective_rate", "phi_complement", None),
    ("effective_rate", "effective_rate_variable", None),
    ("effective_rate", "effective_rate_fixed", None),
    ("effective_rate", "ergodic_rate_variable", None),
    ("effective_rate", "ergodic_rate_fixed", None),
    ("optimize", "golden_section", None),
    ("optimize", "optimal_epsilon", _optimum),
    ("optimize", "optimal_rate", _optimum),
    ("optimize", "_evaluate_policy", None),
    ("optimize", "sweep_theta", None),
    ("optimize", "_run_rows", None),
    ("queue_sim", "simulate_queue", _queue),
    ("queue_sim", "estimate_decay_rate", None),
    ("cli", "main", None),
]

POOL_ENTRY = "optimize._run_rows"
POOL_TASK = "optimize.task"


@dataclass
class Span:
    sid: int
    name: str
    thread: int
    job: int
    parent: int | None
    start: float
    end: float
    counts: dict


class Recorder:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, counts=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; `parent` overrides the stack."""
        stack = self._stack()
        saved = None
        if parent is not None:
            saved, stack[:] = stack[:], [parent]
        sid = next(self._ids)
        up = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if saved is not None:
                stack[:] = saved
        # list.append is atomic, so pool threads may record concurrently
        self.spans.append(Span(sid, name, threading.get_ident(), self.job, up, start, end,
                               counts(args, out) if counts else {}))
        return out

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        fields = ["sid", "name", "thread", "job", "parent", "start", "end", "counts"]
        rows = [[getattr(s, f) for f in fields] for s in sorted(self.spans, key=lambda s: s.sid)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows}, fh, separators=(",", ":"))


def _wrap(rec: Recorder, name: str, fn, counts):
    if name == POOL_ENTRY:
        def inner(tasks, *args, **kwargs):
            parent = rec.current()
            adopted = [functools.partial(rec.call, POOL_TASK, t, (), {}, None, parent)
                       for t in tasks]
            return fn(adopted, *args, **kwargs)
    else:
        inner = fn

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, inner, args, kwargs, counts)
    return traced


@contextmanager
def instrument(rec: Recorder, job: int = 0):
    """Trace every layer function into `rec`, as job `job`, within the block."""
    rec.job = job
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "blockrate" or k.startswith("blockrate."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, path, counts in LAYER_FUNCTIONS:
            mod = sys.modules.get(f"blockrate.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                print(f"perfbench: trace: blockrate.{mod_name}.{path} not found, skipped",
                      file=sys.stderr)
                continue
            original = vars(owner)[attr]
            wrapper = _wrap(rec, f"{mod_name}.{path}", original, counts)
            if owner_name:  # a method: rebind on its class only
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, [])) for s in spans}


KERNEL = ["effective_rate." + k for k in (
    "log_psi", "phi_complement", "effective_rate_variable", "effective_rate_fixed",
    "ergodic_rate_variable", "ergodic_rate_fixed")]
OPTIMA = ["optimize.optimal_epsilon", "optimize.optimal_rate"]
LAYERS = ("special", "channel", "fbl", "effective_rate", "optimize", "queue_sim", "cli")

# Per-layer metrics that are per-job totals of one span name:
# metric -> (span name, "calls" | "self_s" | a computed count).
PER_JOB = {
    "fbl.rate_stats_arrays.entries": ("fbl.rate_stats_arrays", "entries"),
    "fbl.rate_stats_arrays.self_s": ("fbl.rate_stats_arrays", "self_s"),
    "fbl.rate_stats_arrays.calls": ("fbl.rate_stats_arrays", "calls"),
    "fbl.error_probability_arrays.elements": ("fbl.error_probability_arrays", "elements"),
    "fbl.error_probability_arrays.self_s": ("fbl.error_probability_arrays", "self_s"),
    "effective_rate.prefix.copied_bytes": ("effective_rate.SampleSet.prefix", "copied_bytes"),
    "special.q_function.calls": ("special.q_function", "calls"),
    "special.q_function.elements": ("special.q_function", "elements"),
    "special.q_function.self_s": ("special.q_function", "self_s"),
    "special.q_inverse.calls": ("special.q_inverse", "calls"),
    "special.q_inverse.self_s": ("special.q_inverse", "self_s"),
    "channel.uniforms": ("channel.uniform_windows", "uniforms"),
    "channel.uniform_windows.self_s": ("channel.uniform_windows", "self_s"),
    "channel.draw_gain_matrix.self_s": ("channel.draw_gain_matrix", "self_s"),
    "queue_sim.frames": ("queue_sim.simulate_queue", "frames"),
    "queue_sim.simulate_queue.self_s": ("queue_sim.simulate_queue", "self_s"),
    "queue_sim.kept_bytes": ("queue_sim.simulate_queue", "kept_bytes"),
    "queue_sim.estimate_decay_rate.self_s": ("queue_sim.estimate_decay_rate", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(spans: list[Span], job_walls: list[float], pool_cap: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass; totals are given per traced job.

    job_walls are the traced jobs' wall times measured around `cli.main`;
    pool_cap is the thread cap the sweeps ran under.
    """
    own = self_times(spans)
    totals: dict[tuple[str, str], float] = {}
    for s in spans:
        for key, value in (("calls", 1), ("self_s", own[s.sid]), *s.counts.items()):
            totals[s.name, key] = totals.get((s.name, key), 0) + value

    def total(names, key: str) -> float:
        return sum(totals.get((name, key), 0) for name in names)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    jobs = len(job_walls)
    by_id = {s.sid: s for s in spans}
    stats_misses = {s.parent for s in spans if s.name == "fbl.rate_stats_arrays"
                    and s.parent is not None
                    and by_id[s.parent].name == "effective_rate.SampleSet.stats"}
    pools: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == POOL_TASK and s.parent is not None:
            pools.setdefault(s.parent, []).append(s)
    pool_capacity = sum((by_id[p].end - by_id[p].start) * min(pool_cap, len(tasks))
                        for p, tasks in pools.items())
    task_busy = sum(t.end - t.start for tasks in pools.values() for t in tasks)
    below_root = sum(_covered([(s.start, s.end) for s in spans
                               if s.job == j and s.name != "cli.main"])
                     for j in {s.job for s in spans})
    optima = total(OPTIMA, "calls")
    stats_calls = total(["effective_rate.SampleSet.stats"], "calls")

    m = {metric: total([name], key) / jobs for metric, (name, key) in PER_JOB.items()}
    m.update({
        "effective_rate.stats.hit_ratio": ratio(stats_calls - len(stats_misses), stats_calls),
        "effective_rate.kernel.evals": total(KERNEL, "calls") / jobs,
        "effective_rate.kernel.self_s": total(KERNEL, "self_s") / jobs,
        "optimize.optima": optima / jobs,
        "optimize.evals_per_optimum": ratio(total(OPTIMA, "evals"), optima),
        "optimize.boundary_ratio": ratio(total(OPTIMA, "at_boundary"), optima),
        "optimize.pool_util": ratio(task_busy, pool_capacity),
        "trace.coverage": below_root / sum(job_walls),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for (name, key), v in totals.items()
                                   if key == "self_s" and name.startswith(layer + ".")) / jobs
    return m


# Every per-layer metric the traced run reports, with its unit.  The last
# four are filled in by run.py.
PER_LAYER_UNITS = {
    **{metric: ("s" if key == "self_s" else "B" if key.endswith("bytes") else "count")
       for metric, (_, key) in PER_JOB.items()},
    "effective_rate.stats.hit_ratio": "ratio",
    "effective_rate.kernel.evals": "count",
    "effective_rate.kernel.self_s": "s",
    "optimize.optima": "count",
    "optimize.evals_per_optimum": "count",
    "optimize.boundary_ratio": "ratio",
    "optimize.pool_util": "ratio",
    "trace.coverage": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "optimize.t1_speedup": "ratio",
    "cli.out_bytes": "B",
    "trace.job_s_p50": "s",
    "trace.overhead_ratio": "ratio",
}
