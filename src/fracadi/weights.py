"""Discrete weights for fractional time stepping.

Grunwald-Letnikov binomial weights, their second-order shifted variant,
and the starting-weight corrections that recover accuracy when the
solution behaves like a sum of low powers of t near the origin.  The
order convention is signed: positive orders are derivatives, negative
orders are integrals, and everything here is restricted to [-1, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Beyond half a dozen correction exponents the power-moment systems are
# hopeless in double precision anyway.
MAX_CORRECTION_TERMS = 6
CONDITION_LIMIT = 1e13


def default_sigmas(m):
    """Correction exponents 1.1, 1.2, ... used when a run names none."""
    return tuple(1.1 + 0.1 * p for p in range(m))


class StartingWeightError(ValueError):
    """Starting-weight system too ill-conditioned (or singular) to trust."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


def _check_order(order):
    if not -1.0 <= order <= 1.0:
        raise ValueError(f"fractional order must lie in [-1, 1], got {order}")


def binomial_weights(order, count):
    """Weights of (1 - z)^order, indices 0..count.

    Computed by the ratio recurrence g_j = (1 - (order + 1)/j) g_{j-1},
    which is well conditioned for |order| <= 1 (every factor has
    magnitude <= 1 once j > 1).
    """
    _check_order(order)
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = np.ones(count + 1)
    if count:
        j = np.arange(1, count + 1)
        g[1:] = np.cumprod(1.0 - (order + 1.0) / j)
    return g


def shifted_weights(order, count):
    """Second-order weighted-shifted weights lam_0..lam_count.

    lam_0 = (1 + order/2) g_0 and
    lam_j = (1 + order/2) g_j - (order/2) g_{j-1} for j >= 1.
    The returned array is read-only.
    """
    raw = binomial_weights(order, count)
    lam = (1.0 + order / 2.0) * raw
    lam[1:] -= (order / 2.0) * raw[:-1]
    lam.flags.writeable = False
    return lam


def apply_gl(order, step, history):
    """Shifted GL operator at the newest time in `history`.

    history holds u(t_0), ..., u(t_{k+1}) (the value being acted on
    last); entries may be scalars or arrays of a common shape.  Returns
    step**(-order) * sum_j lam_j u^{k+1-j}, a second-order approximation
    of the Riemann-Liouville derivative (order > 0) or integral
    (order < 0) at t_{k+1}.
    """
    hist = np.asarray(history, dtype=float)
    if hist.shape[0] < 2:
        raise ValueError("history needs at least two time levels")
    if step <= 0.0:
        raise ValueError("step must be positive")
    k1 = hist.shape[0] - 1
    lam = shifted_weights(order, k1)
    # sum_j lam_j u^{k+1-j} = sum_m lam_{k+1-m} u^m
    acc = np.tensordot(lam[k1::-1], hist, axes=(0, 0))
    return step ** (-order) * acc


def history_quadratic_form(order, values):
    """sum_n (sum_{j<=n} lam_j v_{n-j}) v_n for v = values.

    The sign of this form is what the energy stability argument rests
    on; it is nonnegative for every order in [-1, 1].
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    lam = shifted_weights(order, len(v) - 1)
    partial = np.convolve(lam, v)[: len(v)]
    return float(partial @ v)


def power_factor(order, exponent):
    """Gamma(exponent + 1) / Gamma(exponent + 1 - order), for exponent > -1.

    The factor a fractional derivative (order > 0) or integral
    (order < 0) of t^exponent carries; see rl_power.  Where
    exponent + 1 - order is not positive the ratio carries the sign of
    Gamma there, and at its poles (0, -1, -2, ...) it is 0.
    """
    lower = exponent + 1.0 - order
    if lower <= 0.0 and float(lower).is_integer():
        return 0.0  # 1 / Gamma vanishes at the poles of Gamma
    ratio = math.exp(math.lgamma(exponent + 1.0) - math.lgamma(lower))
    # Gamma is negative on (-1, 0), (-3, -2), ...
    return -ratio if lower < 0.0 and math.floor(lower) % 2 else ratio


def rl_power(order, exponent, t):
    """Riemann-Liouville derivative/integral of t^exponent.

    power_factor(order, exponent) * t^(exponent - order); valid for
    exponent > -1 and any order (negative = integration).
    """
    if exponent <= -1.0:
        raise ValueError("exponent must exceed -1")
    return power_factor(order, exponent) * t ** (exponent - order)


def check_exponents(exponents):
    """1 to MAX_CORRECTION_TERMS positive, finite, increasing correction exponents as floats."""
    sig = tuple(float(s) for s in exponents)
    if not 1 <= len(sig) <= MAX_CORRECTION_TERMS:
        raise ValueError(
            f"need between 1 and {MAX_CORRECTION_TERMS} correction exponents, got {len(sig)}"
        )
    if any(s <= 0.0 for s in sig):
        raise ValueError("correction exponents must be positive")
    if not all(map(math.isfinite, sig)):
        raise ValueError("correction exponents must be finite")
    if any(b <= a for a, b in zip(sig, sig[1:])):
        raise ValueError("correction exponents must be strictly increasing")
    return sig


def _solve_power_system(exponents, rhs):
    """Solve sum_j w_j j^{sigma_p} = rhs_p by full-pivot elimination.

    The Vandermonde-like matrix A[p][j] = j^{sigma_p} is tiny (m <= 6)
    but can be poorly conditioned for clustered exponents, so the
    elimination runs in extended precision and the float64 result keeps
    the defining identities at round-off.  rhs is (m, rows); the
    result is (m, rows) as well.
    """
    m = len(exponents)
    j = np.arange(1, m + 1, dtype=np.longdouble)
    a = j[None, :] ** np.asarray(exponents, dtype=np.longdouble)[:, None]
    b = np.array(rhs, dtype=np.longdouble)

    col_perm = np.arange(m)
    first_pivot = None
    for k in range(m):
        sub = np.abs(a[k:, k:])
        pr, pc = np.unravel_index(np.argmax(sub), sub.shape)
        pr += k
        pc += k
        if pr != k:
            a[[k, pr]] = a[[pr, k]]
            b[[k, pr]] = b[[pr, k]]
        if pc != k:
            a[:, [k, pc]] = a[:, [pc, k]]
            col_perm[[k, pc]] = col_perm[[pc, k]]
        piv = a[k, k]
        if first_pivot is None:
            first_pivot = abs(piv)
        if piv == 0.0 or abs(piv) < first_pivot * 1e-30:
            cond = float(np.linalg.cond(np.asarray(a, dtype=float)))
            raise StartingWeightError(
                f"starting-weight system is numerically singular (pivot {float(piv):.3e})",
                cond,
            )
        fac = a[k + 1 :, k] / piv
        a[k + 1 :, k:] -= fac[:, None] * a[k, k:]
        b[k + 1 :] -= fac[:, None] * b[k]

    cond_est = float(np.max(np.abs(np.diag(a))) / np.min(np.abs(np.diag(a))))
    if cond_est > CONDITION_LIMIT:
        raise StartingWeightError(
            f"starting-weight system too ill-conditioned (estimate {cond_est:.3e}); "
            "reduce the number of correction terms or spread the exponents",
            cond_est,
        )

    x = np.empty_like(b)
    for k in range(m - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    out = np.empty_like(x)
    out[col_perm] = x
    return np.asarray(out, dtype=float)


def _frac_rhs(order, exponents, rows, lam):
    """Scaled right sides of the GL starting-weight system, rows 0..rows-1.

    Row k enforces exactness of the corrected operator on t^sigma at
    t_{k+1}.  Scaling by tau^{-sigma_p} makes the system step-free.
    """
    k1 = np.arange(1, rows + 1, dtype=float)  # k+1 for each row
    rhs = np.empty((len(exponents), rows))
    grid = np.arange(rows + 1, dtype=float)
    for p, sig in enumerate(exponents):
        powers = grid**sig
        conv = np.convolve(lam[: rows + 1], powers)[: rows + 1]
        rhs[p] = rl_power(order, sig, k1) - conv[1:]
    return rhs


def _delta_rhs(exponents, rows):
    """Central-difference starting-weight right sides, rows 1..rows-1.

    Row 0 is left out: the derivative of t^sigma at t = 0 is singular
    for sigma < 1, and stepping starts at k >= 1 anyway.  Built in
    extended precision: the forward difference cancels the leading
    digits of k**sigma, and the rhs rounding would otherwise show up
    verbatim in the weight identity defect.
    """
    out = np.empty((len(exponents), rows - 1), dtype=np.longdouble)
    k = np.arange(1, rows, dtype=np.longdouble)
    for p, sig in enumerate(exponents):
        out[p] = 0.5 * sig * (k ** (sig - 1.0) + (k + 1.0) ** (sig - 1.0)) - (
            (k + 1.0) ** sig - k**sig
        )
    return out


def _perturb_rhs(exponents, rows):
    # Extended precision for the same cancellation reason as _delta_rhs.
    out = np.empty((len(exponents), rows), dtype=np.longdouble)
    k = np.arange(rows, dtype=np.longdouble)
    for p, sig in enumerate(exponents):
        out[p] = -((k + 1.0) ** sig - k**sig)
    return out


@dataclass(frozen=True)
class CorrectionSet:
    """Precomputed starting-weight tables for a corrected run.

    Every table has shape (rows, m); row k is used at step k and no
    weight depends on the step tau.  Row k of frac[order] makes
    tau**(-order) * (sum_i lam_i u^{k+1-i} + sum_j w_{k,j} u^j) exact
    on u = t^sigma_p at t_{k+1}, for every correction exponent.  Row k
    of delta makes (u^{k+1} - u^k + sum_j w_{k,j} u^j) / tau equal the
    endpoint average of (d/dt t^sigma) over t_k and t_{k+1}; row 0 is
    zero-filled padding (stepping starts at k >= m >= 1).  Row k of
    perturb makes u^{k+1} - u^k + sum_j w_{k,j} u^j vanish on t^sigma,
    so the cross term of the splitting stays second order on the
    correction powers.
    """

    exponents: tuple
    frac: dict
    delta: np.ndarray
    perturb: np.ndarray


def build_correction_set(orders, exponents, rows):
    """Starting-weight tables for every GL order of a run.

    orders: the fractional orders whose history sums get corrected (the
    memory orders beta_i plus the integral order -beta).  rows: number
    of time rows needed (number of steps).
    """
    sig = check_exponents(exponents)
    if rows < 2:
        raise ValueError("need at least two rows")
    frac = {}
    for order in set(float(o) for o in orders):
        _check_order(order)
        lam = shifted_weights(order, rows + 1)
        rhs = _frac_rhs(order, sig, rows, lam)
        frac[order] = _solve_power_system(sig, rhs).T
    delta = np.zeros((rows, len(sig)))
    delta[1:] = _solve_power_system(sig, _delta_rhs(sig, rows)).T
    perturb = _solve_power_system(sig, _perturb_rhs(sig, rows)).T
    return CorrectionSet(exponents=sig, frac=frac, delta=delta, perturb=perturb)
