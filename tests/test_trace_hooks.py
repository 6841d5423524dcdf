"""The benchmark's trace hooks (perfbench/tracing.py) still name package functions."""
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_layer_targets_resolve():
    # run from its source text, so that no bytecode cache is written beside it
    hooks = {}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), hooks)
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
