"""Workload definitions: which marches and CLI commands one pass executes.

A workload is a list of items. A `march` item calls `fracadi.run` with
keyword arguments; a `cli` item calls `fracadi.cli.main` with an argument
list whose output directory the worker fills in. Items marked `scaling`
feed `m_exponent`: their march times are grouped by step count M.

The problems are fixed; the workload seed only shuffles the item order.
"""
from __future__ import annotations

import random

WORKLOADS = ("march_ladder", "corrected_sampled", "paper_studies")

_LADDER_STEPS = (500, 1000, 2000, 4000)
_CORRECTED_STEPS = (500, 1000, 2000)
# tau studies whose march times feed m_exponent; table2_m3 is left out
# because its fixed-size bootstrap (3 x 100 fine steps at every level)
# makes its times nearly independent of M
_TAU_STUDIES = {"table1": True, "table2_m0": True, "table2_m3": False}


def _march(label, **kwargs):
    return {"kind": "march", "label": label, "scaling": True, "kwargs": kwargs}


def _cli(label, argv, scaling):
    return {"kind": "cli", "label": label, "scaling": scaling, "argv": list(argv)}


def _ladder(degree, steps_list):
    return [
        _march(f"M{steps}", problem="compatible_smooth", degree=degree, steps=steps, final_time=1.0)
        for steps in steps_list
    ]


def _corrected(degree, steps_list, ratio, source_mode="sampled"):
    return [
        _march(
            f"M{steps}",
            problem="compatible_nonsmooth",
            degree=degree,
            steps=steps,
            final_time=1.0,
            correction_terms=3,
            exponents=[1.1, 1.2, 1.3],
            bootstrap_ratio=ratio,
            source_mode=source_mode,
        )
        for steps in steps_list
    ]


def _studies(tiny):
    """The four study configs plus the custom-problem run, as a user runs them."""
    tau_extra = ["--N", "8", "--levels", "10", "20"] if tiny else []
    items = [
        _cli(name, ["study", "--config", f"configs/{name}.ini"] + tau_extra, scaling)
        for name, scaling in _TAU_STUDIES.items()
    ]
    fig3_extra = ["--M", "40", "--levels", "4", "8"] if tiny else []
    items.append(_cli("fig3", ["study", "--config", "configs/fig3.ini"] + fig3_extra, False))
    run_extra = ["--N", "8", "--M", "20"] if tiny else []
    items.append(
        _cli("custom", ["run", "--config", "configs/custom_example.ini"] + run_extra, False)
    )
    return items


def items_for(name, tiny=False):
    """Items of one pass of workload `name`; `tiny` gives smoke-test sizes."""
    if name == "march_ladder":
        return _ladder(8, (10, 20, 40)) if tiny else _ladder(20, _LADDER_STEPS)
    if name == "corrected_sampled":
        return _corrected(8, (20, 40), 10) if tiny else _corrected(20, _CORRECTED_STEPS, 100)
    if name == "paper_studies":
        return _studies(tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def shuffled(items, seed, pass_index):
    """Item order of one pass: a fixed function of the seed and pass index."""
    order = list(items)
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order
