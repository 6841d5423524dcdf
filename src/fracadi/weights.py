"""Discrete weights for fractional time stepping.

Grunwald-Letnikov binomial weights, their second-order shifted variant,
and the starting-weight corrections that recover accuracy when the
solution behaves like a sum of low powers of t near the origin.  The
order convention is signed: positive orders are derivatives, negative
orders are integrals, and everything here is restricted to [-1, 1].
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Beyond half a dozen correction exponents the power-moment systems are
# hopeless in double precision anyway.
MAX_CORRECTION_TERMS = 6
CONDITION_LIMIT = 1e13
# The sum of exponentials of far_exponentials: Gauss nodes per unit of ln s
# (and per rule near s = 0), the lags its compression is fitted on, and the
# residual, relative to a unit column, at which the compression stops.  At a
# window of 128 lags and orders in [-0.9, 0.99], these kept 25 to 56 rates
# for M = 300 to 16000, with relative errors of at most 5e-14 on every lag
# up to M = 8000 and 1.8e-13 at M = 16000, on the last lags of b = 0.99,
# where g_j is 1e-4 of its first far value.  8 nodes per unit left 2.4e-12
# and 120 lags 1.5e-13 at M = 4000; a tolerance of 4e-16 kept 2 or 3 rates
# more for less than a factor 2 below M = 16000, and there its error
# depended on the last bit of the Gauss nodes (9.5e-14 or 1.8e-13).
FAR_NODES = 10
FAR_LAGS = 200
FAR_TOLERANCE = 1e-15


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


def _jacobi_rule(b, n):
    """n-point Gauss rule for the weight s^b on (0, 1): (nodes, weights).

    Golub-Welsch on the Jacobi recurrence for (1 + x)^b on (-1, 1),
    mapped by s = (1 + x) / 2; b > -1, and b = 0 is Gauss-Legendre.  The
    tridiagonal matrix goes to scipy.linalg.eigh, whose LAPACK routine
    basis.eigen_factors has already loaded: a first call of
    scipy.linalg.eigh_tridiagonal, or of numpy's leggauss, added 0.8 to
    0.9 MB of peak RSS.
    """
    k = np.arange(1, n)
    jacobi = np.zeros((n, n))
    jacobi[0, 0] = b / (b + 2.0)
    jacobi[k, k] = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    jacobi[k, k - 1] = np.sqrt(
        4.0 * k * k * (k + b) ** 2 / ((2.0 * k + b) ** 2 * (2.0 * k + b + 1.0) * (2.0 * k + b - 1.0))
    )
    x, vectors = scipy.linalg.eigh(jacobi, lower=True)
    return (1.0 + x) / 2.0, vectors[0] ** 2 / (b + 1.0)


def _interpolative(columns, tol):
    """Interpolative decomposition of the columns of a (rows, n) array.

    A column-pivoted Householder QR of the columns scaled to unit norm,
    stopped once every remaining residual is at most tol.  Returns
    (kept, rest, t) with columns[:, rest] = columns[:, kept] @ t to that
    tolerance of each column's norm.  Every product is elementwise
    (np.einsum), so no BLAS call starts a second thread.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", columns, columns))
    a = np.ascontiguousarray(columns.T)  # row q holds column q
    a /= norms[:, None]
    n, rows = a.shape
    order = np.arange(n)
    update = np.empty_like(a)
    rank = 0
    while rank < min(n, rows):
        tail = a[rank:, rank:]
        squares = np.einsum("ij,ij->i", tail, tail)
        p = rank + int(np.argmax(squares))
        if squares[p - rank] <= tol * tol:
            break
        v = a[p, rank:].copy()  # the reflector I - v v^T maps it to R's column
        a[p], a[rank] = a[rank], a[p].copy()
        order[p], order[rank] = order[rank], order[p]
        v[0] += math.copysign(math.sqrt(squares[p - rank]), v[0])
        v *= math.sqrt(2.0 / np.einsum("i,i->", v, v))
        products = np.einsum("ij,j->i", tail, v)
        tail -= np.einsum("i,j->ij", products, v, out=update[: n - rank, : rows - rank])
        rank += 1
    kept, rest = order[:rank], order[rank:]
    r11, r12 = a[:rank, :rank].T, a[rank:, :rank].T
    t = np.empty_like(r12)
    for i in range(rank - 1, -1, -1):  # back substitution in R11 t = R12
        t[i] = (r12[i] - np.einsum("k,kj->j", r11[i, i + 1 :], t[i + 1 :])) / r11[i, i]
    return kept, rest, t * norms[rest] / norms[kept, None]


@functools.cache
def _far_nodes(window, steps):
    """(rates, candidates, kept, rest, t, gauss) of far_exponentials' compression.

    The candidates are the rates of the quadrature before compression:
    FAR_NODES Chebyshev-Lobatto nodes on [0, 0.01 / steps], then
    FAR_NODES Gauss-Legendre nodes per unit panel of ln s from
    ln(0.01 / steps) to ln(50 / (window - 2)), whose weights in ln s are
    `gauss`.  kept, rest and t are _interpolative's on the exponentials
    e^{-s j} of FAR_LAGS log-spaced lags j in [window - 2, steps];
    rates = candidates[kept].  Nothing here depends on an order, so all
    orders share the rates.  Memoised; every array is read-only.
    """
    low, high = math.log(0.01 / steps), math.log(50.0 / (window - 2))
    panels = math.ceil(high - low)
    width = (high - low) / panels
    x, w = _jacobi_rule(0.0, FAR_NODES)  # Gauss-Legendre on (0, 1)
    logs = low + width * (np.arange(panels)[:, None] + x)
    ends = 0.5 - 0.5 * np.cos(np.pi * np.arange(FAR_NODES) / (FAR_NODES - 1))
    candidates = np.concatenate([0.01 / steps * ends, np.exp(logs).ravel()])
    lags = np.unique(np.round(np.geomspace(window - 2, steps, FAR_LAGS)))
    exponentials = np.multiply.outer(-lags, candidates)
    kept, rest, t = _interpolative(np.exp(exponentials, out=exponentials), FAR_TOLERANCE)
    gauss = np.tile(width * w, panels)  # d(ln s) of each node
    tables = (candidates[kept], candidates, kept, rest, t, gauss)
    for a in tables:
        a.flags.writeable = False
    return tables


def _far_density(b, s):
    """The Beta-integral density of g_j(b) at s, over ds: -(sin pi b / pi) e^{sb} (1 - e^{-s})^b."""
    return -(math.sin(math.pi * b) / math.pi) * np.exp(b * (s + np.log(-np.expm1(-s))))


@functools.cache
def far_exponentials(orders, window, steps):
    """(rates, coefficients) with g_j(b) = sum_q coefficients[i, q] e^{-rates[q] j}.

    g_j(b) are the binomial_weights of b = orders[i], and the sum holds
    them for window - 2 <= j <= steps (window >= 3, steps >= window - 2)
    to the relative errors given at FAR_TOLERANCE.  It is a quadrature of
    the Beta integral
    g_j = -(sin pi b / pi) int_0^inf e^{-s(j - b)} (1 - e^{-s})^b ds:
    Gauss-Legendre in ln s down to 0.01 / steps (_far_nodes), and below
    it a FAR_NODES-point Gauss-Jacobi rule with weight s^b whose
    exponentials are interpolated at Chebyshev-Lobatto nodes, so that
    every order has the same nodes.  An interpolative decomposition then
    keeps the rates that span the rest (Zeng, Turner & Burrage, J. Sci.
    Comput. 77 (2018) 283; Jiang, Zhang, Zhang & Zhang, Commun. Comput.
    Phys. 21 (2017) 650).  Orders with sin pi b = 0 are exact: 0 and 1
    have no weight past j = 1, and -1 has g_j = 1, the rate 0.
    Memoised per (orders, window, steps); both arrays are read-only.
    """
    rates, candidates, kept, rest, t, gauss = _far_nodes(window, steps)
    delta = 0.01 / steps
    ends = candidates[:FAR_NODES] / delta
    bary = np.where(np.arange(FAR_NODES) % 2, -1.0, 1.0)  # barycentric weights of ends
    bary[[0, -1]] *= 0.5
    full = np.zeros((len(orders), len(candidates)))
    for i, b in enumerate(map(float, orders)):
        _check_order(b)
        if b == -1.0:
            full[i, 0] = 1.0  # the Chebyshev-Lobatto node s = 0
        elif b not in (0.0, 1.0):
            s = candidates[FAR_NODES:]
            full[i, FAR_NODES:] = gauss * s * _far_density(b, s)
            x, w = _jacobi_rule(b, FAR_NODES)
            # the Lagrange basis of the Chebyshev-Lobatto nodes at the Jacobi nodes
            basis = bary / (x[:, None] - ends)
            basis /= basis.sum(axis=1, keepdims=True)
            smooth = _far_density(b, delta * x) / (delta * x) ** b  # the density over s^b
            full[i, :FAR_NODES] = delta ** (b + 1.0) * (w * smooth) @ basis
    coefficients = full[:, kept] + np.einsum("qr,or->oq", t, full[:, rest])
    coefficients.flags.writeable = False
    return rates, coefficients


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


def _power_rhs(orders, exponents, rows):
    """Right sides of the three starting-weight systems, one power table per exponent.

    Returns ({order: frac rhs}, delta rhs, perturb rhs) of shapes (m, rows),
    (m, rows - 1) and (m, rows), scaled by tau^{-sigma_p} to be step-free.
    delta leaves out row 0, where (t^sigma)' is singular for sigma < 1.
    delta and perturb are built in extended precision: the forward
    difference cancels the leading digits of k**sigma, and the rounding
    would otherwise show up verbatim in the weight identity defect.
    """
    m = len(exponents)
    lams = {order: shifted_weights(order, rows) for order in orders}
    frac = {order: np.empty((m, rows)) for order in lams}
    delta = np.empty((m, rows - 1), dtype=np.longdouble)
    perturb = np.empty((m, rows), dtype=np.longdouble)
    grid = np.arange(rows + 1, dtype=float)
    k = np.arange(rows + 1, dtype=np.longdouble)
    for p, sig in enumerate(exponents):
        grid_powers = grid**sig
        for order, lam in lams.items():
            conv = np.convolve(lam, grid_powers)[1 : rows + 1]
            frac[order][p] = rl_power(order, sig, grid[1:]) - conv
        powers = k**sig
        slope = k[1:] ** (sig - 1.0)
        diff = powers[1:] - powers[:-1]
        perturb[p] = -diff
        delta[p] = 0.5 * sig * (slope[:-1] + slope[1:]) - diff[1:]
    return frac, delta, perturb


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

    Each family is solved on its own, so no row depends on the other
    orders in the set.  frac rows depend slightly on the table's length:
    np.convolve sums in a length-dependent order and the power systems
    amplify it, to 9.3e-11 relative at m = 3 and 4.6e-9 at m = 6 between
    rows 0..6 of a 7-row and a 2000-row table (ROADMAP item 6).
    """

    exponents: tuple
    frac: dict
    delta: np.ndarray
    perturb: np.ndarray


def build_correction_set(orders, exponents, rows):
    """Starting-weight tables for every GL order of a run.

    orders: the fractional orders whose history sums get corrected (the
    memory orders beta_i plus the integral order -beta).  rows: number
    of time rows needed (number of steps).  Every order is checked
    (shifted_weights) before any system is solved.
    """
    sig = check_exponents(exponents)
    if rows < 2:
        raise ValueError("need at least two rows")
    frac_rhs, delta_rhs, perturb_rhs = _power_rhs(dict.fromkeys(map(float, orders)), sig, rows)
    frac = {order: _solve_power_system(sig, rhs).T for order, rhs in frac_rhs.items()}
    delta = np.zeros((rows, len(sig)))
    delta[1:] = _solve_power_system(sig, delta_rhs).T
    perturb = _solve_power_system(sig, perturb_rhs).T
    return CorrectionSet(exponents=sig, frac=frac, delta=delta, perturb=perturb)
