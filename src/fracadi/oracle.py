"""Independent reference paths used to check the production solver.

Everything here is deliberately structured differently from the code it
validates: dense pivoted LU instead of the eigen-coordinate sweeps,
direct endpoint-averaged weight sums instead of telescoped pair sums,
library quadrature instead of the closed Gamma forms, numpy's Legendre
series and Gauss rule for the matrix entries, and sums over the Gauss grid
instead of the eigen-coordinate norms.  verify_checks() is the
battery that `fracadi verify` prints.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import legder, leggauss, legvander
from scipy.linalg import lu_factor, lu_solve

from .basis import (
    build_basis,
    eigen_factors,
    from_eigen,
    gauss_legendre,
    grid_values,
    shen_mass_matrix,
    shen_stiffness_diagonal,
)
from .problems import get_problem, term_table
from .solver import (
    BLOCK,
    AdiSolver,
    StepCoefficients,
    bootstrap_starting_values,
    eigen_operators,
    project_time_series,
    reduce_order,
    source_table,
)
from .weights import (
    build_correction_set,
    default_sigmas,
    far_exponentials,
    rl_power,
    shifted_weights,
)


def dense_step_matrix(mass_coef, grad_coef, basis_x, basis_y, cross_coef=None):
    """The full Kronecker step matrix, row-major vec ordering (x outer).

    With cross_coef set this is the factored ADI left side including the
    splitting perturbation; without it, the unsplit scheme's left side.
    """
    jx, jy = basis_x.jacobian, basis_y.jacobian
    mx, my = basis_x.mass, basis_y.mass
    sx, sy = basis_x.stiffness, basis_y.stiffness
    # each term is added in place, so only one Kronecker temporary is held
    a = _scaled_kron(mass_coef * jx * jy, mx, my)
    a += _scaled_kron(grad_coef * jy / jx, sx, my)
    a += _scaled_kron(grad_coef * jx / jy, mx, sy)
    if cross_coef is not None:
        a += _scaled_kron(cross_coef / (jx * jy), sx, sy)
    return a


def _scaled_kron(coef, x, y):
    out = np.kron(x, y)
    out *= coef
    return out


def dense_kronecker_solve(step_coeffs, basis_x, basis_y, rhs):
    """Solve one ADI step as a single dense pivoted-LU system."""
    a = dense_step_matrix(
        step_coeffs.mass_coef,
        step_coeffs.grad_coef,
        basis_x,
        basis_y,
        cross_coef=step_coeffs.cross_coef,
    )
    flat = lu_solve(lu_factor(a, overwrite_a=True), np.asarray(rhs, dtype=float).ravel())
    return flat.reshape(basis_x.dim, basis_y.dim)


def half_sum_coefficients(lam, k):
    """Coefficients c_m of u^m in (D^{k+1} + D^k)/2, m = 0..k+1.

    Straight from the definition of the shifted sums at the two levels;
    no telescoping.
    """
    upper = lam[: k + 2][::-1]  # lam_{k+1} ... lam_0
    lower = np.concatenate([lam[: k + 1][::-1], [0.0]])  # lam_k ... lam_0, 0
    return 0.5 * (upper + lower)


class UnsplitReference:
    """Dense reference march of the reduced problem, no splitting term.

    The production scheme adds a perturbation of the size of the cross
    coefficient; the gap between the two marches must shrink at second
    order in the step.
    """

    def __init__(self, tp, basis_x, basis_y, tau, steps, source_mode="auto"):
        self.tp = tp
        self.basis_x = basis_x
        self.basis_y = basis_y
        self.tau = float(tau)
        self.steps = steps
        self._lam = {}
        for b in tuple(tp.betas) + (-tp.beta,):
            self._lam[b] = shifted_weights(b, steps + 1)
        mass_coef = 1.0
        for b, a in zip(tp.betas, tp.coeffs):
            mass_coef += a * tau ** (1.0 - b) * 0.5 * self._lam[b][0]
        grad_coef = tp.mu * tau ** (1.0 + tp.beta) * 0.5 * self._lam[-tp.beta][0]
        self._factor = lu_factor(
            dense_step_matrix(mass_coef, grad_coef, basis_x, basis_y)
        )
        self._factors, self._profiles, self.half_source_norms = project_time_series(
            tp, basis_x, basis_y, tau, steps, source_mode
        )
        self.u = np.zeros((steps + 1, basis_x.dim, basis_y.dim))
        self.count = 1

    def _mass_apply(self, mat):
        bx, by = self.basis_x, self.basis_y
        return bx.jacobian * by.jacobian * (bx.mass @ mat @ by.mass)

    def _stiff_apply(self, mat):
        bx, by = self.basis_x, self.basis_y
        return (by.jacobian / bx.jacobian) * (bx.stiffness @ mat @ by.mass) + (
            bx.jacobian / by.jacobian
        ) * (bx.mass @ mat @ by.stiffness)

    def rhs(self, k):
        tau = self.tau
        out = self._mass_apply(self.u[k])
        pair = self._factors[:, k] + self._factors[:, k + 1]
        out += tau * 0.5 * np.tensordot(pair, self._profiles, axes=1)
        hist = self.u[: k + 1]
        for b, a in zip(self.tp.betas, self.tp.coeffs):
            c = half_sum_coefficients(self._lam[b], k)[: k + 1]
            mem = np.tensordot(c, hist, axes=(0, 0))
            out -= a * tau ** (1.0 - b) * self._mass_apply(mem)
        c = half_sum_coefficients(self._lam[-self.tp.beta], k)[: k + 1]
        mem = np.tensordot(c, hist, axes=(0, 0))
        out -= self.tp.mu * tau ** (1.0 + self.tp.beta) * self._stiff_apply(mem)
        return out

    def step_once(self):
        k = self.count - 1
        flat = lu_solve(self._factor, self.rhs(k).ravel())
        self.u[k + 1] = flat.reshape(self.basis_x.dim, self.basis_y.dim)
        self.count += 1

    def march(self):
        while self.count <= self.steps:
            self.step_once()
        return self.u


def direct_caputo(order, t, exponent=None, derivative=None):
    """Caputo derivative at time t by an independent route.

    Either a power function (exponent set, closed Gamma form with the
    vanishing cases handled) or a smooth function given through its
    ceil(order)-th derivative, integrated adaptively with the
    endpoint-singular weight split off.
    """
    if order < 0.0:
        raise ValueError("Caputo order must be nonnegative")
    if t <= 0.0:
        raise ValueError("evaluation time must be positive")
    if (exponent is None) == (derivative is None):
        raise ValueError("give exactly one of exponent or derivative")
    if exponent is not None:
        n = math.ceil(order) if order > 0 else 0
        if float(exponent).is_integer() and exponent <= n - 1:
            return 0.0
        if exponent <= n - 1:
            raise ValueError("power too weak for the Caputo order")
        lg = math.lgamma(exponent + 1.0) - math.lgamma(exponent + 1.0 - order)
        return math.exp(lg) * t ** (exponent - order)
    if float(order).is_integer():
        return float(derivative(t))
    # imported here: scipy.integrate (and the scipy.optimize it loads) would
    # add about 17 MB to every process that imports the CLI
    from scipy.integrate import quad

    n = math.ceil(order)
    weight_exponent = n - order - 1.0  # in (-1, 0)
    val, err = quad(
        derivative,
        0.0,
        t,
        weight="alg",
        wvar=(0.0, weight_exponent),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-9:
        raise RuntimeError(f"Caputo quadrature did not converge (err {err:.2e})")
    return val / math.gamma(n - order)


def quadrature_matrix_check(basis):
    """Max deviation of the closed-form matrices from brute quadrature.

    Uses numpy's Legendre series and Gauss rule at twice the degree:
    L_0..L_N from legvander and their derivatives from legder, so
    neither the rule, the basis values nor the matrix entries come from
    the recurrences of basis.
    """
    n = basis.degree
    nodes, weights = leggauss(2 * n)
    table = legvander(nodes, n).T
    deriv = (legvander(nodes, n - 1) @ legder(np.eye(n + 1))).T
    phi = table[: basis.dim] - table[2 : basis.dim + 2]
    dphi = deriv[: basis.dim] - deriv[2 : basis.dim + 2]
    mass_dev = np.max(np.abs((phi * weights) @ phi.T - basis.mass))
    stiff_dev = np.max(np.abs((dphi * weights) @ dphi.T - basis.stiffness))
    return max(float(mass_dev), float(stiff_dev))


def gauss_rule_deviation(n):
    """Max node/weight gap between the built-in rule and numpy's."""
    x, w = gauss_legendre(n)
    xref, wref = leggauss(n)
    return max(float(np.max(np.abs(x - xref))), float(np.max(np.abs(w - wref))))


def eigen_factor_residual(dim):
    """Relative defects of E^T M E = diag(lam) and E^T S E = I, the larger.

    For basis.eigen_factors(dim), against the closed-form Shen matrices;
    the first defect is relative to the largest eigenvalue.
    """
    lam, vectors = eigen_factors(dim)
    mass = vectors.T @ shen_mass_matrix(dim) @ vectors
    stiff = vectors.T @ (shen_stiffness_diagonal(dim)[:, None] * vectors)
    mass_dev = np.max(np.abs(mass - np.diag(lam))) / np.max(lam)
    stiff_dev = np.max(np.abs(stiff - np.eye(dim)))
    return max(float(mass_dev), float(stiff_dev))


def eigen_step_solve(step_coeffs, basis_x, basis_y, rhs):
    """One ADI step solve the way the stepper does it: map in, divide, map back.

    rhs is a Shen-basis right side (inner products with the basis); its
    eigen-coordinate form is E_x^T rhs E_y, and the result is mapped back
    to Shen coefficients.
    """
    *_, sweep = eigen_operators(step_coeffs, basis_x, basis_y)
    ex, ey = basis_x.eigenvectors, basis_y.eigenvectors
    return from_eigen(ex.T @ rhs @ ey / sweep, basis_x, basis_y)


def sweep_kronecker_gap(rng, cases):
    """Largest relative gap of the eigen-coordinate step from the dense solve.

    Each case draws a degree in 6..12, two mapped intervals, mass_coef in
    [1, 3), grad_coef in [0.02, 1) and a random right side, and compares
    eigen_step_solve with dense_kronecker_solve.
    """
    worst = 0.0
    for _ in range(cases):
        degree = int(rng.integers(6, 13))
        ax = float(rng.uniform(-2.0, 1.0))
        ay = float(rng.uniform(-2.0, 1.0))
        bx = build_basis(degree, (ax, ax + float(rng.uniform(0.5, 3.0))))
        by = build_basis(degree, (ay, ay + float(rng.uniform(0.5, 3.0))))
        mass_coef = 1.0 + float(rng.uniform(0.0, 2.0))
        grad_coef = float(rng.uniform(0.02, 1.0))
        coeffs = StepCoefficients(mass_coef=mass_coef, grad_coef=grad_coef)
        rhs = rng.standard_normal((bx.dim, by.dim))
        dense = dense_kronecker_solve(coeffs, bx, by, rhs)
        gap = np.abs(eigen_step_solve(coeffs, bx, by, rhs) - dense).max() / np.abs(dense).max()
        worst = max(worst, float(gap))
    return worst


def far_kernel_deviation(orders, window, steps):
    """Largest relative error of weights.far_exponentials on the lags window..steps.

    The reference weights are the products of (i - 1 - b) / i over
    i = 1..j, formed in extended precision; the sums of exponentials are
    summed term by term at every lag.  No order may be 0 or 1, whose far
    weights vanish.
    """
    rates, coefficients = far_exponentials(tuple(orders), window, steps)
    lags = np.arange(window, steps + 1)
    terms = np.exp(-np.outer(lags, rates))
    i = np.arange(1, steps + 1, dtype=np.longdouble)
    worst = 0.0
    for b, c in zip(orders, coefficients):
        exact = np.cumprod((i - 1 - np.longdouble(b)) / i)[window - 1 :]  # g_window..g_steps
        approx = (terms * c).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(approx - exact) / np.abs(exact))))
    return worst


def weight_identity_residual(order, exponents, rows):
    """Defects of the three starting-weight identities, rows 0..rows-1.

    Checks the rows of build_correction_set((order,), exponents, rows),
    the table the stepper loads for `rows` steps; other lengths give frac
    rows that differ by up to 4.6e-9 relative (weights.CorrectionSet,
    ROADMAP item 6).  Row k of the corrected GL sum must
    reproduce the Riemann-Liouville derivative of t^sigma at t_{k+1};
    the averaged difference quotient must hit (t^sigma)' at the half
    point (from row 1 on; row 0 of delta is padding); the perturbation
    weights must cancel the forward difference of t^sigma.  All with
    unit step.  Returns the largest defect of each row.

    The sums are evaluated in extended precision: for clustered
    exponents the weights reach O(1e3) with alternating signs, so a
    double-precision evaluation would measure its own rounding rather
    than the defect of the weights as shipped.
    """
    ld = np.longdouble
    sig = tuple(exponents)
    cs = build_correction_set((order,), sig, rows)
    j = np.arange(1, len(sig) + 1, dtype=ld)
    grid = np.arange(rows + 1, dtype=ld)
    lam = shifted_weights(order, rows).astype(ld)
    w_frac = cs.frac[float(order)].astype(ld)
    w_pert = cs.perturb.astype(ld)
    w_delta = cs.delta[1:].astype(ld)
    worst = np.zeros(rows, dtype=ld)
    for s in sig:
        powers = grid ** ld(s)
        jp = j ** ld(s)
        for k in range(rows):
            target = ld(rl_power(order, s, float(k + 1)))
            # same contraction as apply_gl with unit step, kept in
            # extended precision (apply_gl works in double)
            corrected = lam[k + 1 :: -1] @ powers[: k + 2] + w_frac[k] @ jp
            worst[k] = max(worst[k], abs(corrected - target) / max(ld(1.0), abs(target)))
        diff = powers[1:] - powers[:-1]
        worst = np.maximum(worst, np.abs(diff + w_pert @ jp))
        half = ld(0.5) * ld(s) * (grid[1:-1] ** ld(s - 1.0) + grid[2:] ** ld(s - 1.0))
        worst[1:] = np.maximum(worst[1:], np.abs(diff[1:] + w_delta @ jp - half))
    return worst.astype(float)


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


def grid_norms(table, grid, basis_x, basis_y, coeffs=None):
    """Norms of the L levels u_n - sum_p table[p, n] grid[p], summed on the Gauss grid.

    The direct path for basis.level_norms and factor_norms: table is
    (P, L), grid the (P, Qx, Qy) values of its profiles (grid_values), and
    coeffs the (L, dim_x, dim_y) Shen coefficients of the u_n, None for
    zero.  Every level is evaluated on the grid and weighted there.
    """
    vals = np.tensordot(table.T, grid, axes=1)
    if coeffs is not None:
        vals = basis_x.basis_at_quad.T @ coeffs @ basis_y.basis_at_quad - vals
    weights = np.outer(basis_x.weights, basis_y.weights)
    return np.sqrt(np.sum(weights * vals**2, axis=(1, 2)))


def direct_norm_gap(solver):
    """Largest gap of a marched AdiSolver's norms from grid_norms, the direct path.

    The solver keeps every level (keep = range(steps + 1)).  Compares the
    half-source norms (relative to the largest of them), and the norms
    and errors (relative to max ||u^n||), each recomputed from the kept
    levels, the source table and the exact terms.
    """
    if not np.array_equal(solver.keep, np.arange(solver.steps + 1)):
        raise ValueError("the solver must keep every level")
    tp, bx, by, coeffs = solver.tp, solver.basis_x, solver.basis_y, solver.march()
    profiles, table = source_table(tp, solver.tau, solver.steps, solver.source_mode)
    half = grid_norms(0.5 * table[:, :-1] + 0.5 * table[:, 1:], grid_values(profiles, bx, by), bx, by)
    norms = grid_norms(np.zeros((0, len(coeffs))), grid_values((), bx, by), bx, by, coeffs)
    gaps = [
        np.max(np.abs(solver.half_source_norms - half)) / np.max(half),
        np.max(np.abs(solver.norms - norms)) / np.max(norms),
    ]
    if tp.exact:
        profiles, table = term_table(tp.exact, solver.tau * np.arange(len(coeffs)))
        errors = grid_norms(table, grid_values(profiles, bx, by), bx, by, coeffs)
        gaps.append(np.max(np.abs(solver.errors - errors)) / np.max(norms))
    return max(float(gap) for gap in gaps)


def marched_every_level(name, degree, steps, m=0, source_mode="auto"):
    """An AdiSolver of problem `name` up to T = 1, marched keeping every level.

    Its m starting values come from bootstrap_starting_values and its
    exponents from default_sigmas, as run() takes them.
    """
    tp = reduce_order(get_problem(name))
    bx = build_basis(degree, tp.domain.x_interval)
    by = build_basis(degree, tp.domain.y_interval)
    tau = 1.0 / steps
    solver = AdiSolver(
        tp, bx, by, tau, steps,
        correction_terms=m,
        exponents=default_sigmas(m),
        starting_values=bootstrap_starting_values(tp, bx, by, tau, m, source_mode=source_mode),
        source_mode=source_mode,
        keep=range(steps + 1),
    )
    solver.march()
    return solver


def verify_checks():
    """Deterministic oracle cross-checks; yields (name, ok, metric)."""
    for n in (8, 24, 64):
        dev = gauss_rule_deviation(n)
        yield f"gauss_rule_n{n}", dev <= 1e-13, dev
    for n in (8, 16, 24):
        dev = quadrature_matrix_check(build_basis(n, (-1.0, 1.0)))
        yield f"matrix_quadrature_N{n}", dev <= 1e-11, dev

    gap = sweep_kronecker_gap(np.random.default_rng(42), 10)
    yield "adi_sweeps_vs_kronecker", gap <= 1e-10, gap
    dev = max(eigen_factor_residual(n - 1) for n in (8, 24, 64))
    yield "eigen_factors", dev <= 1e-12, dev

    worst = 0.0
    for order in (-0.5, 0.1, 0.9):
        for m in (1, 2, 3):
            defects = weight_identity_residual(order, default_sigmas(m), 61)
            worst = max(worst, float(defects[[1, 5, 20, 60]].max()))
    yield "starting_weight_identities", worst <= 1e-12, worst

    dev = far_kernel_deviation((0.99, 0.9, 0.5, -0.1, -0.5, -0.9), BLOCK, 4000)
    yield "far_kernel_exponentials", dev <= 1e-13, dev

    rng = np.random.default_rng(7)
    worst = -math.inf
    for order in (-0.9, 0.5, 1.0):
        for _ in range(50):
            v = rng.standard_normal(48)
            qf = history_quadratic_form(order, v)
            worst = max(worst, -qf / float(v @ v))
    yield "memory_quadratic_form", worst <= 1e-12, worst

    # a corrected sampled march, and one at N = 4 (fig3's first level),
    # whose error is mostly the part of the exact solution off the basis
    corrected = marched_every_level("compatible_nonsmooth", 12, 64, m=3, source_mode="sampled")
    coarse = marched_every_level("compatible_smooth", 4, 2000)
    gap = max(direct_norm_gap(corrected), direct_norm_gap(coarse))
    yield "norms_vs_grid_sums", gap <= 1e-13, gap
