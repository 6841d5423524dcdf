"""The benchmark's trace hooks (perfbench/tracing.py) still name package functions."""
import importlib
import inspect
import pathlib

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
