"""Timing wrappers installed around fracadi's functions from outside the package.

Two recorders live here:

* `MarchLog` times every `run()` call at two boundaries only (entry to
  `run()` and entry to the main solver's `march()`) and keeps the errors
  the call produced. It is installed on every pass, traced or not.
* `Tracer` records one span per call of the layer functions listed in
  `LAYER_TARGETS`: name, start, end, parent span and thread. Spans stay in
  memory until the pass ends; `layer_metrics` turns them into per-layer
  self times and counts. Self time is computed per thread, because the
  study thread pool overlaps spans.
"""
from __future__ import annotations

import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_MODULES = ("basis", "problems", "weights", "solver", "cli")


def _replace_everywhere(fracadi, original, replacement):
    """Point every module-level reference to `original` at `replacement`."""
    spaces = [fracadi.__dict__] + [sys.modules[f"fracadi.{m}"].__dict__ for m in _MODULES]
    for space in spaces:
        for name, value in list(space.items()):
            if value is original:
                space[name] = replacement
    commands = fracadi.cli._COMMANDS
    for name, value in list(commands.items()):
        if value is original:
            commands[name] = replacement


class MarchLog:
    """Per-march set-up time, run time and results, keyed by item label.

    Each march records wall times and CPU times. On the main thread the
    CPU clock is the process's, so that BLAS helper threads count. On a
    worker thread of the study pool it is the thread's own, because the
    other levels run in the same process at the same time.
    """

    def __init__(self):
        self.records = []
        self.label = None
        self._local = threading.local()

    def _open(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, fracadi):
        original_run = fracadi.solver.run
        signature = inspect.signature(original_run)
        original_march = fracadi.solver.AdiSolver.march
        log = self

        def timed_run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            rec = {
                "label": log.label,
                "problem": a["problem"].name,
                "N": int(a["degree"]),
                "M": int(a["steps"]),
                "m": int(a["correction_terms"]),
                "source_mode": a["source_mode"],
                "main_thread": threading.current_thread() is threading.main_thread(),
            }
            clock = time.process_time if rec["main_thread"] else time.thread_time
            stack = log._open()
            stack.append(rec)
            start = time.perf_counter()
            cpu_start = clock()
            try:
                result = original_run(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_end = clock()
                stack.pop()
            rec["t_run"] = end - start
            rec["cpu_run"] = cpu_end - cpu_start
            march_wall, march_cpu = rec.pop("_march", (end, cpu_end))
            rec["t_setup"] = march_wall - start
            rec["cpu_setup"] = march_cpu - cpu_start
            rec.update(_result_values(result))
            log.records.append(rec)
            return result

        def timed_march(solver):
            stack = log._open()
            if stack:
                # the last march entered inside run() is the main one; an
                # earlier one is the bootstrap's and so counts as set-up
                clock = time.process_time if stack[-1]["main_thread"] else time.thread_time
                stack[-1]["_march"] = (time.perf_counter(), clock())
            return original_march(solver)

        _replace_everywhere(fracadi, original_run, timed_run)
        fracadi.solver.AdiSolver.march = timed_march


def _opt_float(value):
    return None if value is None else float(value)


def _result_values(result):
    return {
        "error_final": _opt_float(result.error_final),
        "error_max": _opt_float(result.error_max),
        "stability_ratio": float(result.stability_ratio),
        "norm_final": float(result.norms[-1]),
        "norm_max": float(np.max(result.norms)),
        "finite": bool(np.isfinite(result.coeffs).all()),
    }


# (span name, module, attribute); a dotted attribute is a method
LAYER_TARGETS = (
    ("basis.build", "basis", "build_basis"),
    ("basis.solve", "basis", "ShenSystemSolver.solve"),
    ("weights.corrections", "weights", "build_correction_set"),
    ("weights.shifted", "weights", "shifted_weights"),
    ("problems.eval", "problems", "evaluate_terms"),
    ("solver.source", "solver", "project_time_series"),
    ("solver.bootstrap", "solver", "bootstrap_starting_values"),
    ("solver.init", "solver", "AdiSolver.__init__"),
    ("solver.rhs", "solver", "AdiSolver.assemble_rhs"),
    ("solver.correction_load", "solver", "AdiSolver.correction_load"),
    ("solver.sweep", "solver", "AdiSolver.sweep_solve"),
    ("solver.step", "solver", "AdiSolver.step_once"),
    ("solver.march", "solver", "AdiSolver.march"),
    ("solver.run", "solver", "run"),
    ("cli.study", "cli", "cmd_study"),
    ("cli.run", "cli", "cmd_run"),
    ("cli.write", "cli", "write_lines"),
)

# layers whose self time counts towards the coverage share
COVERED = (
    "basis.build",
    "basis.solve",
    "weights.corrections",
    "weights.shifted",
    "problems.eval",
    "solver.source",
    "solver.bootstrap",
    "solver.init",
    "solver.rhs",
    "solver.correction_load",
    "solver.sweep",
    "solver.step",
    "solver.post",
    "cli.write",
)


class Tracer:
    """In-memory span recorder plus a few counters computed at call time."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, thread id, name, start, end)
        self.counters = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key, value):
        with self._lock:
            self.counters[key] += value

    def peak(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def wrap(self, name, func, before=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            local = tracer._local
            if not hasattr(local, "stack"):
                local.stack = []
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, threading.get_ident(), name, start, end))

        traced.__wrapped__ = func
        return traced

    def install(self, fracadi):
        for name, module_name, attr in LAYER_TARGETS:
            module = sys.modules[f"fracadi.{module_name}"]
            before = _BEFORE.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), before))
            else:
                original = getattr(module, attr)
                _replace_everywhere(fracadi, original, self.wrap(name, original, before))


def _before_march(tracer, args, kwargs):
    solver = args[0]
    _, dx, dy = solver.u.shape
    first, last = solver.count, solver.steps  # steps k = first-1 .. last-1 remain
    if last >= first:
        # step k contracts k + 1 history levels once per memory order
        levels = (last * (last + 1) - (first - 1) * first) // 2
        orders = len(solver.tp.betas) + 1
        tracer.count("history_bytes", levels * orders * dx * dy * 8)
    tracer.peak("history_mb", solver.u.nbytes / 1e6)


def _before_corrections(tracer, args, kwargs):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    tracer.count("correction_rows", rows)


def _before_write(tracer, args, kwargs):
    lines = kwargs["lines"] if "lines" in kwargs else args[1]
    tracer.count("write_bytes", sum(len(line.encode("utf-8")) + 1 for line in lines))


_BEFORE = {
    "solver.march": _before_march,
    "weights.corrections": _before_corrections,
    "cli.write": _before_write,
}


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, _, _, start, end in spans}


def _post_time(spans):
    """Self time of run() after its main march returned, summed over runs."""
    by_parent = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            by_parent[span[1]].append(span)
    total = 0.0
    for sid, _, _, name, _, end in spans:
        if name != "solver.run":
            continue
        marches = [s for s in by_parent[sid] if s[3] == "solver.march"]
        if not marches:
            continue
        march_end = max(s[5] for s in marches)
        later = sum(s[5] - s[4] for s in by_parent[sid] if s[4] >= march_end)
        total += (end - march_end) - later
    return total


def layer_metrics(spans, counters, wall):
    """Per-layer metrics of one traced pass (names without units)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    for sid, _, _, name, start, end in spans:
        self_s[name] += own[sid]
        total_s[name] += end - start
        calls[name] += 1
    self_s["solver.post"] = _post_time(spans)

    studies = [(s[4], s[5]) for s in spans if s[3] == "cli.study"]
    level_busy = sum(
        end - start
        for _, _, _, name, start, end in spans
        if name == "solver.run" and any(a <= start <= b for a, b in studies)
    )
    study_s = sum(b - a for a, b in studies)
    rhs_s = self_s["solver.rhs"]
    history_bytes = counters.get("history_bytes", 0.0)
    return {
        "basis.build_s": self_s["basis.build"],
        "basis.build_calls": calls["basis.build"],
        "basis.solve_s": self_s["basis.solve"],
        "basis.solve_calls": calls["basis.solve"],
        "weights.corrections_s": self_s["weights.corrections"],
        "weights.correction_rows": counters.get("correction_rows", 0.0),
        "weights.shifted_s": self_s["weights.shifted"],
        "problems.eval_s": self_s["problems.eval"],
        "problems.eval_calls": calls["problems.eval"],
        "solver.source_s": self_s["solver.source"],
        "solver.bootstrap_s": total_s["solver.bootstrap"],
        "solver.init_s": self_s["solver.init"],
        "solver.rhs_s": rhs_s,
        "solver.history_bytes": history_bytes,
        "solver.history_gbps": history_bytes / rhs_s / 1e9 if rhs_s > 0 else 0.0,
        "solver.correction_load_s": self_s["solver.correction_load"],
        "solver.sweep_s": self_s["solver.sweep"],
        "solver.step_s": self_s["solver.step"],
        "solver.post_s": self_s["solver.post"],
        "solver.steps": calls["solver.step"],
        "solver.history_mb": counters.get("history_mb", 0.0),
        "cli.study_s": study_s,
        "cli.level_busy_s": level_busy,
        "cli.overlap": level_busy / study_s if study_s > 0 else 0.0,
        "cli.write_s": self_s["cli.write"],
        "cli.write_bytes": counters.get("write_bytes", 0.0),
        "trace.coverage": sum(self_s[name] for name in COVERED) / wall if wall > 0 else math.nan,
    }
