"""Smoke test of the benchmark harness at tiny sizes; no timing gates.

    python3 perfbench/smoke.py

Runs every workload at N=8, M <= 40 with two study levels, untraced and
traced, against a reference recorded on the spot, and checks that each run
passes the gate and reports every metric. Then checks that the gate fails
a source-mode switch and a changed rate table, and that the benchmark
refuses to run, without printing a result, where the fracadi sources are
missing. Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check(failures, ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def main():
    failures = []
    references = {}
    for name in workloads.WORKLOADS:
        references[name] = gate.reference_entry(run.run_pass(name, 0, 0, tiny=True))
        for trace in (False, True):
            record = run.measure(name, 1, 0, trace, tiny=True, reference=references[name])
            values = [metric["value"] for metric in record["metrics"].values()]
            check(failures, record["correct"] and record["attempted"] > 0,
                  f"{name} trace={int(trace)}: {record['attempted']} marches pass the gate")
            check(failures, all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{name} trace={int(trace)}: all {len(values)} metrics reported and finite")

    # gate self-test: the ladder's marches in the other source mode
    reference = references["march_ladder"]
    sampled = run.run_pass("march_ladder", 0, 0, tiny=True, source_mode="sampled")
    attempted, failed = gate.check_pass(reference, sampled)
    check(failures, attempted > 0 and len(failed) == attempted,
          f"gate fails a source-mode switch ({len(failed)}/{attempted} marches failed)")

    # gate self-test: one rate in a study table moved by 1e-6
    studies = run.run_pass("paper_studies", 0, 0, tiny=True)
    attempted, failed = gate.check_pass(references["paper_studies"], studies)
    check(failures, not failed, "paper_studies pass rechecked against its reference")
    changed = copy.deepcopy(studies)
    table = next(item for item in changed["items"] if item["label"] == "table1")
    table["rates"][1][2] += 1e-6
    _, failed = gate.check_pass(references["paper_studies"], changed)
    check(failures, bool(failed) and all(k.startswith("table1:") for k in failed),
          f"gate fails a changed rate in table1 ({len(failed)} marches failed)")

    # no fracadi sources: refuse without printing a result
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "march_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(failures, proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"refuses a directory without sources (exit {proc.returncode})")

    print(f"{len(failures)} check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
