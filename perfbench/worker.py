"""One pass of one workload, run in a fresh process by `run.py`.

Usage: python3 perfbench/worker.py --workload NAME --seed N --pass-index I
       --workdir DIR [--trace] [--spans PATH] [--tiny] [--source-mode MODE]

Imports fracadi from the checkout's `src/`, executes the workload's items
in the seed's order, and writes DIR/result.json: the pass wall time, CPU
time, peak resident memory, every march's timings and errors, each CLI
item's exit code and output values, the environment, and (with --trace)
the per-layer metrics. CLI outputs go under DIR, which the caller removes.
Standard output is left to the CLI under test.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module next to this file)
from machine import blas_info, steal_seconds  # noqa: E402
from tracing import MarchLog, Tracer, layer_metrics  # noqa: E402


def _parse_diagnostics(path):
    values = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.partition(" = ")
            values[key.strip()] = value.strip()
    return values


def _run_item(fracadi, item, workdir):
    """Execute one item; returns its record (exit code, outputs, error)."""
    rec = {"label": item["label"], "kind": item["kind"]}
    if item["kind"] == "march":
        kwargs = dict(item["kwargs"])
        kwargs["problem"] = fracadi.get_problem(kwargs["problem"])
        if kwargs.get("exponents") is not None:
            kwargs["exponents"] = tuple(kwargs["exponents"])
        fracadi.run(**kwargs)
        rec["rc"] = 0
        return rec
    outdir = workdir / item["label"]
    rec["rc"] = fracadi.cli.main(item["argv"] + ["--output", str(outdir)])
    if rec["rc"] == 0:
        if item["argv"][0] == "study":
            _, rows = fracadi.cli.parse_rate_csv(outdir / "rates.csv")
            rec["rates"] = [list(row) for row in rows]
        else:
            rec["diagnostics"] = _parse_diagnostics(outdir / "diagnostics.txt")
    return rec


def environment(fracadi):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fracadi_file": os.path.relpath(fracadi.__file__, HERE.parent),
        **blas_info(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--source-mode", help="override the source mode of march items")
    args = parser.parse_args(argv)

    import fracadi
    import fracadi.cli

    items = workloads.shuffled(
        workloads.items_for(args.workload, tiny=args.tiny), args.seed, args.pass_index
    )
    if args.source_mode:
        for item in items:
            if item["kind"] == "march":
                item["kwargs"]["source_mode"] = args.source_mode

    log = MarchLog()
    log.install(fracadi)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(fracadi)

    workdir = Path(args.workdir)
    records = []
    steal_start = steal_seconds()
    start = time.perf_counter()
    cpu_start = time.process_time()
    for item in items:
        log.label = item["label"]
        try:
            records.append(_run_item(fracadi, item, workdir))
        except Exception:  # one failed item must not hide the others
            records.append(
                {"label": item["label"], "kind": item["kind"], "rc": None,
                 "error": traceback.format_exc()}
            )
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal_seconds() - steal_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "order": [item["label"] for item in items],
        "items": records,
        "marches": log.records,
        "env": environment(fracadi),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, tracer.counters, wall)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(
                    {"fields": ["id", "parent", "thread", "name", "start", "end"],
                     "spans": tracer.spans},
                    handle,
                )
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
