"""fracadi benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload march_ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --write-reference         # re-record reference.json

Each pass of a workload runs in a fresh child process (worker.py) that
imports fracadi from the checkout's src/. Passes repeat until --seconds
have elapsed (at least two), and every metric is a median over passes.
Every march of every pass is checked against reference.json (gate.py).

--trace 0 reports the end-to-end metrics: cpu_s, setup_s, peak_rss_mb and
m_exponent. The times are CPU times, because wall time on a shared host
follows the CPU time other guests take (steal); wall_s is printed in the
table and kept in the run record. failed_share (failed / attempted
marches) is printed too and carried by the `failed` and `attempted` fields.
--trace 1 runs untraced, traced and single-threaded-BLAS passes and reports
the per-layer metrics, the tracing overhead and the layer coverage.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full run record (machine,
BLAS, versions, commit, seed, every march's errors) is written to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import machine  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# a run must end within 180 s, whatever its passes do
RUN_TIMEOUT = 170.0


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def metric_units(trace):
    """{metric: unit} of the end-to-end or per-layer metrics in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_checkout():
    missing = [p for p in ("src/fracadi/__init__.py", "src/fracadi/cli.py", "configs/table1.ini")
               if not (ROOT / p).is_file()]
    if missing:
        raise SetupError(f"not a fracadi checkout ({', '.join(missing)} missing under {ROOT})")
    if not REFERENCE.is_file():
        raise SetupError(f"reference results {REFERENCE} missing")


def run_pass(workload, seed, index, trace=False, threads=None, spans=None, tiny=False,
             source_mode=None, deadline=None):
    """One pass in a fresh child process; returns the worker's result dict."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    if tiny:
        cmd.append("--tiny")
    if source_mode:
        cmd += ["--source-mode", source_mode]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    timeout = RUN_TIMEOUT if deadline is None else max(1.0, deadline - time.monotonic())
    result = workdir / "result.json"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0 or not result.is_file():
            raise SetupError(f"pass {index} of {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        with open(result, encoding="utf-8") as handle:
            data = json.load(handle)
    except subprocess.TimeoutExpired:
        raise SetupError(f"pass {index} of {workload} timed out after {timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if data["env"]["fracadi_file"] != "src/fracadi/__init__.py":
        raise SetupError(f"fracadi imported from {data['env']['fracadi_file']}, not src/")
    return data


def fit_exponent(points):
    """Least-squares slope of log t against log M."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def m_exponent(passes, scaling_labels):
    """Exponent in M from the median (over passes) march CPU time at each M.

    Marches of the scaling items that share a step count M are summed
    within a pass (the tau studies run the same M levels).
    """
    per_m = {}
    for p in passes:
        sums = {}
        for rec in p["marches"]:
            if rec["label"] in scaling_labels:
                sums[rec["M"]] = sums.get(rec["M"], 0.0) + rec["cpu_run"]
        for m, t in sums.items():
            per_m.setdefault(m, []).append(t)
    points = sorted((m, statistics.median(ts)) for m, ts in per_m.items())
    return fit_exponent(points) if len(points) >= 2 else math.nan


def end_to_end(passes, scaling_labels):
    return {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(sum(r["cpu_setup"] for r in p["marches"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "m_exponent": m_exponent(passes, scaling_labels),
    }


def per_layer(traced, untraced, single):
    metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    metrics["single_thread.wall_s"] = single["wall_s"]
    metrics["single_thread.rhs_s"] = single["layers"]["solver.rhs_s"]
    return metrics


def measure(workload, seed, seconds, trace, tiny=False, reference=None):
    """Run passes for `seconds` (at least MIN_PASSES); returns the run record."""
    if reference is None:
        reference = load_reference()["workloads"][workload]
    items = workloads.items_for(workload, tiny=tiny)
    scaling = {item["label"] for item in items if item["scaling"]}
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT
    passes = []  # (kind, result)
    untraced, traced = ("untraced", {}), ("traced", {"trace": True})
    if trace:
        plan = [untraced, traced, ("single_thread", {"trace": True, "threads": 1})]
        more = [traced, untraced]
    else:
        plan = [untraced] * MIN_PASSES
        more = [untraced]
    index = 0
    while index < len(plan) or time.monotonic() - start < seconds:
        kind, opts = plan[index] if index < len(plan) else more[index % len(more)]
        spans = OUT / f"spans-{workload}-{kind}.json" if opts.get("trace") else None
        result = run_pass(workload, seed, index, spans=spans, tiny=tiny, deadline=deadline,
                          **opts)
        passes.append((kind, result))
        index += 1

    attempted = failed = 0
    failures = []
    for i, (kind, result) in enumerate(passes):
        n, bad = gate.check_pass(reference, result)
        attempted += n
        failed += len(bad)
        failures += [{"pass": i, "kind": kind, "march": k, "reason": r} for k, r in bad.items()]

    by_kind = {}
    for kind, result in passes:
        by_kind.setdefault(kind, []).append(result)
    if trace:
        metrics = per_layer(by_kind["traced"], by_kind["untraced"], by_kind["single_thread"][0])
    else:
        metrics = end_to_end(by_kind["untraced"], scaling)
    units = metric_units(trace)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "measured_s": time.monotonic() - start,
        "machine": machine.machine_record(ROOT),
        "env": passes[0][1]["env"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        # printed, but not bounded: wall time follows the host's steal
        "wall_s": metrics.get("wall_s"),
        "passes": [
            {"kind": kind, "wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "steal_s": r["steal_s"],
             "peak_rss_mb": r["peak_rss_mb"], "blas_threads": r["env"]["blas_threads"],
             "order": r["order"], "marches": r["marches"],
             **({"layers": r["layers"]} if "layers" in r else {})}
            for kind, r in passes
        ],
    }


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def print_table(record, out=sys.stdout):
    env = record["env"]
    mach = record["machine"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])} measured={record['measured_s']:.1f}s", file=out)
    print(f"   machine: {mach['cores']} cores, {mach['cpu_model']}; "
          f"BLAS {env['blas_name']} {env['blas_version']} threads={env['blas_threads']}; "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']}; "
          f"commit {mach['git_commit']}", file=out)
    steal = sum(p["steal_s"] for p in record["passes"])
    wall = sum(p["wall_s"] for p in record["passes"])
    print(f"   hypervisor steal during the passes: {steal:.2f} s over {wall:.1f} s of passes",
          file=out)
    for name, metric in record["metrics"].items():
        print(f"   {name:<26} {metric['value']:>16.6g} {metric['unit']}", file=out)
    if record["wall_s"] is not None:
        print(f"   {'wall_s':<26} {record['wall_s']:>16.6g} s (not bounded)", file=out)
    print(f"   {'failed_share':<26} {record['failed_share']:>16.6g} "
          f"({record['failed']}/{record['attempted']} marches)", file=out)
    for failure in record["failures"][:10]:
        print(f"   FAILED pass {failure['pass']} {failure['march']}: {failure['reason']}",
              file=out)


def write_record(record):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def write_reference():
    """Record one untraced pass of every workload as the gate's reference."""
    entries = {}
    for name in workloads.WORKLOADS:
        result = run_pass(name, 0, 0)
        entries[name] = gate.reference_entry(result)
        env = result["env"]
    data = {
        "tolerance": {"C": gate.C, "ratio_rtol": gate.RATIO_RTOL},
        "recorded_with": {**machine.machine_record(ROOT), **env},
        "workloads": entries,
    }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE}")


def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running pass
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.workload != "all" and args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}")
        if args.write_reference:
            if not (ROOT / "src/fracadi/__init__.py").is_file():
                raise SetupError(f"no fracadi sources under {ROOT}")
            write_reference()
            return 0
        check_checkout()
        records = []
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            path = write_record(record)
            print_table(record)
            print(f"   run record: {path.relative_to(ROOT)}")
            records.append(record)
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = {k: v for k, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
