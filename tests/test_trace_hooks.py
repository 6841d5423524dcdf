"""The benchmark's trace hooks (perfbench/tracing.py) still name package functions."""
import importlib
import inspect
import pathlib
import sys

import pytest

from fracadi.solver import SOURCE_MODES, run

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_source(name):
    """The namespace of perfbench/<name>.py, run from its source text, so
    that no bytecode cache is written beside it."""
    path = PERFBENCH / f"{name}.py"
    namespace = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_layer_targets_resolve():
    hooks = load_source("tracing")
    missing = []
    for _, module_name, attr in hooks["LAYER_TARGETS"]:
        target = importlib.import_module(f"fracadi.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"fracadi.{module_name}.{attr}")
    assert not missing, f"trace targets that no longer resolve: {missing}"
    # tracing's _replace_everywhere also rewrites the CLI's dispatch table
    assert {"run", "study"} <= set(importlib.import_module("fracadi.cli")._COMMANDS)


@pytest.mark.parametrize("tiny", [False, True])
def test_march_items_bind_to_run(tiny):
    # tracing.MarchLog binds every march item's arguments to run() by name
    # and reads degree, steps, correction_terms and source_mode from them
    workloads = load_source("workloads")
    signature = inspect.signature(run)
    marches = 0
    for name in workloads["WORKLOADS"]:
        for item in workloads["items_for"](name, tiny):
            if item["kind"] != "march":
                continue
            bound = signature.bind(**item["kwargs"])
            bound.apply_defaults()
            args = bound.arguments
            assert {"degree", "steps", "correction_terms", "source_mode"} <= set(args)
            assert args["source_mode"] in SOURCE_MODES, (name, item["label"])
            marches += 1
    assert marches


def test_march_hooks_read_the_solver_and_result(monkeypatch):
    # tracing._before_march reads the solver's history buffer u (3-D shape
    # and bytes), count, steps and tp.betas; MarchLog wraps march() as
    # march(solver) and reads the result's coeffs, norms and errors
    import fracadi
    import fracadi.cli  # noqa: F401  (_replace_everywhere rewrites every module)
    from fracadi.basis import build_basis
    from fracadi.problems import get_problem
    from fracadi.solver import AdiSolver, reduce_order

    hooks = load_source("tracing")
    tp = reduce_order(get_problem("compatible_smooth"))
    bx = build_basis(6, tp.domain.x_interval)
    by = build_basis(6, tp.domain.y_interval)
    solver = AdiSolver(tp, bx, by, 0.1, 10)
    tracer = hooks["Tracer"]()
    hooks["_before_march"](tracer, (solver,), {})
    assert tracer.counters["history_mb"] == solver.u.nbytes / 1e6
    assert tracer.counters["history_bytes"] == (10 * 11 // 2) * (len(tp.betas) + 1) * 5 * 5 * 8

    original_run = fracadi.solver.run
    # setattr of the unchanged method makes monkeypatch put it back after
    # MarchLog.install replaces it
    monkeypatch.setattr(AdiSolver, "march", AdiSolver.march)
    log = hooks["MarchLog"]()
    log.install(fracadi)
    try:
        log.label = "tiny"
        result = fracadi.run(get_problem("compatible_smooth"), 6, 10, 1.0)
    finally:
        hooks["_replace_everywhere"](fracadi, fracadi.solver.run, original_run)
    assert fracadi.run is original_run
    (rec,) = log.records
    assert (rec["label"], rec["N"], rec["M"], rec["m"]) == ("tiny", 6, 10, 0)
    assert rec["finite"] and rec["norm_final"] == float(result.norms[-1])
    assert rec["error_final"] == result.error_final
    assert 0.0 <= rec["t_setup"] <= rec["t_run"]


def test_tracer_spans_a_run(monkeypatch):
    # Tracer.install wraps every LAYER_TARGETS name; a run past the near
    # window gives spans for the march and its layers, and putting each
    # wrapper's __wrapped__ back restores every module and the CLI's
    # dispatch table
    import fracadi
    import fracadi.cli  # noqa: F401  (_replace_everywhere rewrites every module)
    from fracadi.problems import get_problem

    hooks = load_source("tracing")
    spaces = [fracadi.__dict__, fracadi.cli._COMMANDS]
    spaces += [sys.modules[f"fracadi.{m}"].__dict__ for m in hooks["_MODULES"]]
    before = [dict(space) for space in spaces]
    methods = [t for t in hooks["LAYER_TARGETS"] if "." in t[2]]
    for _, module_name, attr in methods:
        cls_name, meth = attr.split(".")
        cls = getattr(sys.modules[f"fracadi.{module_name}"], cls_name)
        monkeypatch.setattr(cls, meth, getattr(cls, meth))  # put back on teardown
    tracer = hooks["Tracer"]()
    tracer.install(fracadi)
    try:
        fracadi.run(get_problem("compatible_smooth"), 6, 140, 1.0)
    finally:
        for _, module_name, attr in hooks["LAYER_TARGETS"]:
            if "." not in attr:
                wrapper = getattr(sys.modules[f"fracadi.{module_name}"], attr)
                hooks["_replace_everywhere"](fracadi, wrapper, wrapper.__wrapped__)
    names = {span[3] for span in tracer.spans}
    assert {"solver.march", "solver.rhs", "solver.sweep", "basis.build"} <= names
    assert [dict(space) for space in spaces] == before
