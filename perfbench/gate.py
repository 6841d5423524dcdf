"""Correctness gate: compare one pass with the stored reference results.

The tolerance is tied to the size of the solution, not to the error:
|delta error| <= C * max_n ||u^n||. An error is a norm of (u_h - u), so a
trajectory that moves by at most C * max ||u^n|| moves the error by at
most that much. C = 1e-12 admits sums reordered at round-off (the errors
move by about 2e-15 when only the BLAS thread count changes) and matches
the 1e-12 relative trajectory gate for exact fast paths. A change of
source mode moves the errors by orders of magnitude more and fails.
"""
from __future__ import annotations

import math

C = 1e-12
# the stability ratio is a quotient of squared norms; relative tolerance
RATIO_RTOL = 1e-9

_VALUES = ("error_final", "error_max", "stability_ratio", "norm_final", "norm_max")


def march_key(rec):
    return f"{rec['label']}:{rec['problem']}:N{rec['N']}:M{rec['M']}:m{rec['m']}"


def reference_entry(pass_result):
    """The reference data of one pass: march values and item outputs."""
    marches = {march_key(r): {k: r[k] for k in _VALUES} for r in pass_result["marches"]}
    items = {}
    for item in pass_result["items"]:
        if item.get("rc") != 0:
            raise RuntimeError(f"cannot store a reference from failed item {item['label']}")
        items[item["label"]] = {k: item[k] for k in ("rates", "diagnostics") if k in item}
    return {"marches": dict(sorted(marches.items())), "items": items}


def _close(value, ref, tol):
    if ref is None:
        return value is None
    return value is not None and math.isfinite(value) and abs(value - ref) <= tol


def _march_problem(rec, ref):
    if not rec.get("finite", False):
        return "non-finite trajectory"
    values = [rec[k] for k in _VALUES if rec[k] is not None]
    if not all(math.isfinite(v) for v in values):
        return "non-finite result"
    if not 0.0 < rec["stability_ratio"] <= 1.0:
        return f"stability ratio {rec['stability_ratio']!r} outside (0, 1]"
    tol = C * ref["norm_max"]
    for key in ("error_final", "error_max", "norm_final", "norm_max"):
        if not _close(rec[key], ref[key], tol):
            return f"{key} {rec[key]!r} vs reference {ref[key]!r} (tolerance {tol:.3g})"
    rtol = RATIO_RTOL * ref["stability_ratio"]
    if not _close(rec["stability_ratio"], ref["stability_ratio"], rtol):
        return f"stability_ratio {rec['stability_ratio']!r} vs reference {ref['stability_ratio']!r}"
    return None


def _rate_tolerance(tol, rows, i, col):
    """Rate tolerance propagated from the error tolerance of rows i-1, i."""
    e0, e1 = rows[i - 1][col], rows[i][col]
    return (tol / abs(e0) + tol / abs(e1)) / abs(math.log(rows[i - 1][0] / rows[i][0]))


def _rates_problem(rows, ref_rows, tol):
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rate rows vs {len(ref_rows)} in the reference"
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row[0] != ref[0]:
            return f"row {i}: parameter {row[0]!r} vs {ref[0]!r}"
        for col in (1, 3):
            if not _close(row[col], ref[col], tol):
                return f"row {i}: error {row[col]!r} vs {ref[col]!r}"
        for col in (2, 4):
            rtol = _rate_tolerance(tol, ref_rows, i, col - 1) if i else 0.0
            if not _close(row[col], ref[col], rtol):
                return f"row {i}: rate {row[col]!r} vs {ref[col]!r}"
    return None


def _diagnostics_problem(diag, ref, tol):
    for key in ("final_l2_norm", "max_l2_norm"):
        if not _close(float(diag.get(key, "nan")), float(ref[key]), tol):
            return f"{key} {diag.get(key)} vs {ref[key]}"
    rtol = RATIO_RTOL * float(ref["stability_ratio"])
    if not _close(float(diag.get("stability_ratio", "nan")), float(ref["stability_ratio"]), rtol):
        return f"stability_ratio {diag.get('stability_ratio')} vs {ref['stability_ratio']}"
    return None


def check_pass(reference, pass_result):
    """Gate one pass. Returns (attempted marches, {failed march key: reason})."""
    ref_marches = reference["marches"]
    records = {march_key(r): r for r in pass_result["marches"]}
    failed = {}
    for key, ref in ref_marches.items():
        rec = records.get(key)
        problem = "missing (raised or never ran)" if rec is None else _march_problem(rec, ref)
        if problem:
            failed[key] = problem

    items = {item["label"]: item for item in pass_result["items"]}
    for label, ref_item in reference["items"].items():
        keys = [k for k in ref_marches if k.startswith(label + ":")]
        item = items.get(label)
        if item is None or item.get("rc") != 0:
            rc = None if item is None else item.get("rc")
            problem = f"exit code {rc}"
        else:
            tol = C * max(ref_marches[k]["norm_max"] for k in keys)
            problem = None
            if "rates" in ref_item:
                problem = _rates_problem(item.get("rates", []), ref_item["rates"], tol)
            if "diagnostics" in ref_item and problem is None:
                problem = _diagnostics_problem(
                    item.get("diagnostics", {}), ref_item["diagnostics"], tol
                )
        if problem:
            for key in keys:
                failed.setdefault(key, f"{label}: {problem}")
    return len(ref_marches), failed
