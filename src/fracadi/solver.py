"""Second-order ADI time stepping for the reduced multi-term problem.

The wave-type equation is first integrated to order beta = alpha - 1 in
time, turning every Caputo term into a shifted Grunwald-Letnikov sum
applied to u itself and moving the diffusion term under a fractional
integral.  One step solves the factored operator of the two alternating
sweeps; the splitting perturbation and all memory sums live on the
right-hand side.  The march runs in the joint eigenbasis of the 1-D mass
and stiffness matrices (fast diagonalization), where every operator of
the step, the sweeps included, is elementwise.
"""
from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .basis import (
    ModalField2D,
    SpectralBasis1D,
    build_basis,
    from_eigen,
    grid_norms,
    l2_errors,
    l2_norm,
    level_blocks,
    to_eigen,
)
from .problems import ProblemSpec, SeparableTerm, evaluate_terms
from .weights import build_correction_set, power_factor, shifted_weights

# Steps per block of the memory sum: the last < BLOCK levels are contracted
# directly (near_product), the older ones come from one FFT far part per
# block.  At 256 and N = 20 the direct contraction is one product below
# NEAR_PRODUCT; larger grids split it into column slabs.
BLOCK = 256
# Multiply-adds per product of the direct memory contraction.  OpenBLAS runs
# a GEMM of at most 65536 x GEMM_MULTITHREAD_THRESHOLD (default 4) of them
# on the calling thread; a larger one wakes a second thread, whose spin-wait
# then burns CPU through the elementwise rest of the step.  The contraction
# is memory-bound and gains nothing from that thread: on 2 cores, 256
# assemble_rhs calls at N = 64 took 105 ms of CPU with one product each and
# 51 ms with slabs (73 and 65 ms with one BLAS thread).  A slab reads at
# most 1 MiB of history.
NEAR_PRODUCT = 2**18
# Steps per super-block of the far part: the history older than the
# current super-block is transformed once per SUPER steps, the levels of
# the super-block before the current block once per block.  N = 20
# marches on one BLAS thread were fastest at 1024 for M = 2000 and 4000
# (512 8 % slower, 2048 11-23 %), level with 2048 at M = 8000, and 30 %
# slower than 2048 at M = 16000, where 2048 costs 5.6 MB more peak RSS.
SUPER = 4 * BLOCK
# Columns per FFT chunk in causal_sum; it bounds the FFT temporaries.  At
# 64 columns they added up to 11 MB of peak RSS to N = 20 marches of 4000
# steps; 16 columns cost no measurable CPU time.
FFT_COLUMNS = 16
# How the reduced source is projected: "analytic" integrates power-law
# forcing in closed form, "sampled" applies the GL integral to the forcing
# on the quadrature grid, "auto" picks analytic where it is available.
SOURCE_MODES = ("auto", "analytic", "sampled")


def causal_sum(kernel, hist, lo, hi, weights, out=None):
    """Rows lo..hi-1 of sum_r weights[r] * sum_j kernel[r, t - j] hist[j].

    kernel is (rows, length), hist (n, ...) and weights (rows, cols),
    one weight per kernel row and column of a level (cols entries of
    hist[0]).  The result has shape (hi - lo,) + hist.shape[1:] and equals
    the direct sum to round-off.  It is computed by real FFTs along time on
    chunks of FFT_COLUMNS columns (scipy's FFT, one thread, no BLAS); the
    rows are combined in frequency, so each chunk takes one inverse FFT.
    A C-contiguous `out` may alias hist: each column chunk is read in full
    before it is overwritten.
    """
    n = len(hist)
    first = max(lo - n + 1, 0)  # smallest lag the requested rows use
    # a circular length of hi - lo + n - 1 leaves rows lo..hi-1 unaliased
    size = sp_fft.next_fast_len(hi - lo + n - 1, real=True)
    kernel_hat = sp_fft.rfft(kernel[:, first:hi], size, axis=1).T
    cols = hist.reshape(n, -1)
    weights = np.reshape(weights, (len(kernel), cols.shape[1]))
    if out is None:
        out = np.empty((hi - lo,) + hist.shape[1:])
    dest = out.reshape(hi - lo, -1)
    for c in range(0, cols.shape[1], FFT_COLUMNS):
        chunk = slice(c, c + FFT_COLUMNS)
        spectrum = sp_fft.rfft(cols[:, chunk], size, axis=0)
        spectrum *= kernel_hat @ weights[:, chunk]
        dest[:, chunk] = sp_fft.irfft(spectrum, size, axis=0)[lo - first : hi - first]
    return out


def near_product(near, hist):
    """near @ hist for a (rows, L) near kernel and (L, cols) history.

    The columns are split into slabs of NEAR_PRODUCT // (rows * L), so
    that no product exceeds NEAR_PRODUCT multiply-adds; a history that
    fits in one slab is a single product.
    """
    rows, (levels, cols) = len(near), hist.shape
    width = NEAR_PRODUCT // (rows * levels)
    if cols <= width:
        return near @ hist
    out = np.empty((rows, cols))
    for c in range(0, cols, width):
        out[:, c : c + width] = near @ hist[:, c : c + width]
    return out


@dataclass(frozen=True)
class TransformedProblem:
    """The reduced first-order-in-time problem the stepper integrates.

    d/dt u + sum_i coeffs_i D^{betas_i} u = mu D^{-beta} Laplacian(u) + g,
    with u(0) = 0; `lift` holds the subtracted initial value (added back
    for physical output) and `exact` is the reduced exact solution.

    g, f, g_smooth and exact are called as func(x, y, t) on blocks of
    time levels: t has shape (B, 1, 1), x (1, Qx, 1) and y (1, 1, Qy).
    They must broadcast over all three (a result that ignores t, such
    as a zero source of shape (1, Qx, Qy), is broadcast to the block);
    lift(x, y) takes no time.
    """

    name: str
    beta: float
    betas: tuple
    coeffs: tuple
    mu: float
    domain: object
    g: callable = None  # closed-form reduced source
    f: callable = None  # original forcing (sampled-integral path)
    g_smooth: callable = None  # reduced-source part outside the integral of f
    exact: callable = None
    lift: callable = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("reduced order beta must lie in (0, 1)")
        if any(not -1.0 <= b <= 1.0 for b in self.betas):
            raise ValueError("memory orders must lie in [-1, 1]")
        if self.g is None and self.f is None:
            raise ValueError("need a closed-form reduced source or a forcing to sample")


def reduce_order(problem):
    """Rewrite a wave-type problem as the reduced integro-differential one.

    Applies the fractional integral of order beta = alpha - 1, shifts by
    the initial value g1 (forcing picks up mu * Laplacian(g1)), and
    folds the initial-velocity terms into the source.  Power-law forcing
    integrates in closed form; otherwise only the sampled path remains.
    """
    beta = problem.alpha - 1.0
    betas = tuple(a - problem.alpha + 1.0 for a in problem.alphas)

    terms = list(problem.forcing_terms)
    if problem.g1 is not None:
        if problem.g1.laplacian is None:
            raise ValueError("initial value needs a Laplacian to shift the forcing")
        terms.append(
            SeparableTerm(problem.mu, 0.0, type(problem.g1)(values=problem.g1.laplacian))
        )

    # velocity contributions: g2 plus one t^{alpha - alpha_j} term per
    # order above one (orders <= 1 carry no initial-velocity data)
    velocity_parts = []
    if problem.g2 is not None:
        velocity_parts.append((1.0, 0.0))
        for a_j, c_j in zip(problem.alphas, problem.coeffs):
            if a_j > 1.0:
                e = problem.alpha - a_j
                velocity_parts.append((c_j / math.gamma(e + 1.0), e))

    g2_values = problem.g2.values if problem.g2 is not None else None

    def g_smooth(x, y, t):
        if g2_values is None:
            return np.zeros(np.broadcast(x, y).shape)
        base = g2_values(x, y)
        out = 0.0
        for c, e in velocity_parts:
            out = out + c * t**e * base
        return out

    integrated = tuple(
        SeparableTerm(
            term.coefficient * power_factor(-beta, term.exponent),
            term.exponent + beta,
            term.profile,
        )
        for term in terms
    )

    def g_closed(x, y, t):
        return g_smooth(x, y, t) + evaluate_terms(integrated, x, y, t)

    f_shifted = None
    if terms:
        def f_shifted(x, y, t):
            return evaluate_terms(terms, x, y, t)

    exact_reduced = None
    lift = None
    if problem.g1 is not None:
        lift = problem.g1.values
    if problem.has_exact:
        if lift is None:
            exact_reduced = problem.exact
        else:
            def exact_reduced(x, y, t):
                return problem.exact(x, y, t) - lift(x, y)

    return TransformedProblem(
        name=problem.name,
        beta=beta,
        betas=betas,
        coeffs=tuple(problem.coeffs),
        mu=problem.mu,
        domain=problem.domain,
        g=g_closed,
        f=f_shifted,
        g_smooth=g_smooth,
        exact=exact_reduced,
        lift=lift,
    )


@dataclass(frozen=True)
class StepCoefficients:
    """Scalar coefficients of one time step of size tau.

    mass_coef multiplies the implicit mass term (1 plus half the lead
    weights of the memory sums), grad_coef the implicit stiffness term,
    and cross_coef = grad_coef**2 / mass_coef scales the splitting
    perturbation.
    """

    tau: float
    mass_coef: float
    grad_coef: float

    @property
    def cross_coef(self):
        return self.grad_coef**2 / self.mass_coef


def eigen_operators(coeffs, basis_x, basis_y):
    """The step's operators in eigen-coordinates: (mass, stiff, cross, sweep).

    Each is a (dim_x, dim_y) array that multiplies eigen-coordinates
    elementwise (see basis.eigen_factors, with E^T M E = diag(lam) and
    E^T S E = I): the mass operator J_x J_y M_x u M_y becomes J_x J_y
    lam_x lam_y, the stiffness operator (J_y / J_x) S_x u M_y + (J_x / J_y)
    M_x u S_y becomes (J_y / J_x) lam_y + (J_x / J_y) lam_x, the splitting
    term S_x u S_y / (J_x J_y) becomes 1 / (J_x J_y), and the product of
    the two sweep factors p J M + q/(p J) S, with p = sqrt(mass_coef) and
    q = grad_coef, becomes the product of their diagonals.
    """
    jx, jy = basis_x.jacobian, basis_y.jacobian
    lx, ly = basis_x.eigenvalues[:, None], basis_y.eigenvalues[None, :]
    p = math.sqrt(coeffs.mass_coef)
    q = coeffs.grad_coef
    mass = (jx * jy) * lx * ly
    stiff = (jy / jx) * ly + (jx / jy) * lx
    cross = np.full(mass.shape, 1.0 / (jx * jy))
    sweep = (p * jx * lx + q / (p * jx)) * (p * jy * ly + q / (p * jy))
    return mass, stiff, cross, sweep


def step_coefficients(tp, tau):
    if tau <= 0.0:
        raise ValueError("step must be positive")
    if tau >= 1.0:
        warnings.warn("step >= 1 is outside the stability analysis", stacklevel=2)
    mass = 1.0
    for b, a in zip(tp.betas, tp.coeffs):
        mass += 0.5 * a * (1.0 + b / 2.0) * tau ** (1.0 - b)
    grad = 0.5 * tp.mu * (1.0 - tp.beta / 2.0) * tau ** (1.0 + tp.beta)
    return StepCoefficients(tau=tau, mass_coef=mass, grad_coef=grad)


def _resolve_source_mode(tp, mode):
    """The source mode a run of tp uses: one of SOURCE_MODES, auto resolved."""
    if mode not in SOURCE_MODES:
        raise ValueError(f"unknown source mode {mode!r}")
    if mode == "auto":
        mode = "analytic" if tp.g is not None else "sampled"
    if mode == "analytic" and tp.g is None:
        raise ValueError("problem has no closed-form reduced source")
    if mode == "sampled" and tp.f is None:
        raise ValueError("problem has no forcing to sample")
    return mode


# Overflow of the source shows up as a non-finite half-source norm, which
# AdiSolver reports with the level it happened at; no warnings on the way.
@np.errstate(over="ignore", invalid="ignore")
def project_time_series(tp, basis_x, basis_y, tau, steps, mode="auto", frame=None):
    """Modal projections of the reduced source at every time level.

    Returns (mode, source_hat, half_source_norms) with source_hat[n] the
    inner products of g(t_n) against the tensor basis and
    half_source_norms[k] = ||(g(t_k) + g(t_{k+1})) / 2|| in L2.  With
    frame = (E_x, E_y) source_hat[n] is E_x^T (inner products) E_y, the
    eigen-coordinate right side the stepper adds; E^T is folded into the
    projection matrices, so it costs nothing per level.  The
    sampled mode reconstructs the fractional integral of f on the
    quadrature grid with the shifted GL rule (an FFT causal sum written
    back into the sampled grid) before projecting.  The source callables
    are evaluated on blocks of time levels (see basis.level_blocks).
    """
    mode = _resolve_source_mode(tp, mode)
    bx, by = basis_x, basis_y
    x, y = bx.nodes[None, :, None], by.nodes[None, None, :]
    px = bx.basis_at_quad * bx.weights
    py = by.basis_at_quad * by.weights
    if frame is not None:
        px, py = frame[0].T @ px, frame[1].T @ py
    shape = (bx.quad_count, by.quad_count)
    n_levels = steps + 1
    times = tau * np.arange(n_levels)
    blocks = level_blocks(n_levels, shape[0] * shape[1])

    def at(func, b, e):
        """func on the quadrature grid at times[b:e], shape (e - b, Qx, Qy)."""
        return np.broadcast_to(func(x, y, times[b:e, None, None]), (e - b,) + shape)

    if mode == "sampled":
        f_grid = np.empty((n_levels,) + shape)
        for b, e in blocks:
            f_grid[b:e] = at(tp.f, b, e)
        lam = shifted_weights(-tp.beta, steps)
        causal_sum(lam[None], f_grid, 0, n_levels, np.ones((1, f_grid[0].size)), out=f_grid)

    source_hat = np.empty((n_levels, bx.dim, by.dim))
    half_source_norms = np.empty(steps)
    prev = None
    for b, e in blocks:
        if mode == "analytic":
            vals = at(tp.g, b, e)
        else:
            vals = tau**tp.beta * f_grid[b:e]
            if tp.g_smooth is not None:
                vals = vals + at(tp.g_smooth, b, e)
        source_hat[b:e] = px @ vals @ py.T
        # half_source_norms[n - 1] pairs levels n - 1 and n; the first
        # pair of a block reaches back to the last level of the previous one.
        # Halving before adding keeps the mean of two finite levels finite
        if prev is not None:
            half_source_norms[b - 1 : b] = grid_norms(0.5 * prev + 0.5 * vals[:1], bx, by)
        half_source_norms[b : e - 1] = grid_norms(0.5 * vals[:-1] + 0.5 * vals[1:], bx, by)
        prev = vals[-1]
    return mode, source_hat, half_source_norms


def physical_memory():
    """Bytes of physical memory on this machine (inf where unknown)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _binary_size(nbytes):
    """A byte count in numpy's binary units, e.g. '1.60 PiB'."""
    units = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")
    i = min(max(int(nbytes).bit_length() - 1, 0) // 10, len(units) - 1)
    if i == 0:
        return f"{nbytes:.0f} bytes"
    return f"{nbytes / 2 ** (10 * i):#.3g} {units[i]}"


class AdiSolver:
    """Marches the reduced problem on one tensor basis.

    The march runs in the eigen-coordinates v = E_x^{-1} u E_y^{-T} of
    basis.eigen_factors, where the mass, stiffness, splitting and sweep
    operators act elementwise (eigen_operators).  While a march runs,
    u, source_hat, assemble_rhs, correction_load and sweep_solve (which
    is rhs / sweep) all work in eigen-coordinates.  Starting values are
    given in the Shen basis and mapped in with E^T S.  march() ends by
    mapping u back to the Shen basis in place, block by block (see
    basis.level_blocks), so u after a march holds Shen coefficients;
    steps taken with step_once alone stay in eigen-coordinates.

    Holds the source projections, one memory kernel per operator (mass
    and stiffness; the operators' diagonals weight them into one memory
    sum), in corrected runs the starting-weight loads and the per-mode
    images of the starting differences, the full history (the memory
    terms need it anyway) and the far part of the weighted memory sum for
    one block, or, past the first SUPER steps, for one super-block: a
    (SUPER, dim_x, dim_y) cache.  The starting values are fixed at
    construction: correction_load reads their images, not u[1..m].
    """

    def __init__(
        self,
        tp,
        basis_x,
        basis_y,
        tau,
        steps,
        correction_terms=0,
        exponents=None,
        starting_values=None,
        source_mode="auto",
    ):
        if steps < 1:
            raise ValueError("need at least one step")
        source_mode = _resolve_source_mode(tp, source_mode)
        _check_memory(basis_x, basis_y, steps, source_mode)
        self.tp = tp
        self.basis_x = basis_x
        self.basis_y = basis_y
        self.tau = float(tau)
        self.steps = steps
        self.coeffs = step_coefficients(tp, self.tau)

        self.m = int(correction_terms)
        if self.m < 0:
            raise ValueError("correction_terms must be nonnegative")
        if self.m and exponents is None:
            raise ValueError("corrected runs need exponents")
        if self.m and steps <= self.m:
            raise ValueError("need more steps than correction terms")

        self.u = np.zeros((steps + 1, basis_x.dim, basis_y.dim))
        self.count = 1
        if starting_values is not None:
            for j, val in enumerate(starting_values, start=1):
                self.u[j] = to_eigen(val, basis_x, basis_y)
            self.count = 1 + len(starting_values)
        self._eigen = True  # u holds eigen-coordinates until march() ends

        mass, stiff, cross, self._sweep = eigen_operators(self.coeffs, basis_x, basis_y)
        self._explicit = mass + self.coeffs.cross_coef * cross

        # The mass and stiffness applications are linear, so every order's
        # memory sum folds into one kernel per operator: row 0 (mass) sums
        # the memory orders, row 1 (stiffness) is the integral order -beta.
        # Both operators are per-mode products here, so the step needs only
        # the one memory sum weighted per column by their diagonals.
        # Pair sums lam_j + lam_{j-1} need lam up to index steps + 1.  The
        # kernel is stored reversed (column steps - j holds lag j), so the
        # near part of a step is a product with a contiguous slice.  The
        # starting weights fold the same way into load rows (mass,
        # stiffness, cross); frac rows k and k-1 average the endpoint
        # systems, and load row 0 is unused (stepping starts at k = m >= 1).
        channels = (
            [(b, 0.5 * a * self.tau ** (1.0 - b)) for b, a in zip(tp.betas, tp.coeffs)],
            [(-tp.beta, 0.5 * tp.mu * self.tau ** (1.0 + tp.beta))],
        )
        kernel = np.zeros((2, steps + 1))
        self._far = None
        self._far_start = self._far_block = -1
        self._loads = None
        if self.m:
            cs = build_correction_set(tuple(tp.betas) + (-tp.beta,), exponents, steps)
            self._loads = np.zeros((3, steps, self.m))
            self._loads[0] = cs.delta
            self._loads[2] = self.coeffs.cross_coef * cs.perturb
        for row, terms in enumerate(channels):
            for b, scale in terms:
                lam = shifted_weights(b, steps + 1)
                kernel[row] += scale * (lam[1:] + lam[:-1])
                if self._loads is not None:
                    frac = cs.frac[b]
                    self._loads[row, 1:] += scale * (frac[1:] + frac[:-1])
        self._rkernel = np.ascontiguousarray(kernel[:, ::-1])
        self._weights = np.stack([mass.ravel(), stiff.ravel()])
        if self._loads is not None:
            self._images = self._starting_images((mass, stiff, cross))

        self._prepare_source(source_mode)

    def _starting_images(self, operators):
        """(3 m, dim_x * dim_y) images of the starting differences u[j] - u[0].

        Rows o * m + j - 1 hold minus the mass (o = 0), stiffness (o = 1)
        and cross (o = 2) operator diagonal times u[j] - u[0], in the
        order of a raveled (3, m) load column.
        """
        diffs = self.u[1 : self.m + 1] - self.u[0]
        images = np.stack([-op * diffs for op in operators])
        return images.reshape(3 * self.m, -1)

    # -- source handling ------------------------------------------------

    def _prepare_source(self, mode):
        frame = (self.basis_x.eigenvectors, self.basis_y.eigenvectors)
        self.source_mode, self.source_hat, self.half_source_norms = project_time_series(
            self.tp, self.basis_x, self.basis_y, self.tau, self.steps, mode, frame
        )
        # a march on a non-finite source would only spread it; the steps
        # before self.count are not marched (a weak power source may be
        # singular at t = 0 when the starting values are given)
        _check_finite("source", self.half_source_norms[self.count - 1 :], self.tau, self.steps)

    # -- one step ---------------------------------------------------------

    def assemble_rhs(self, k):
        """Right-hand side of the step from t_k to t_{k+1} (no corrections).

        The explicit mass and splitting terms of u[k], minus the memory,
        plus the trapezoidal source, all in eigen-coordinates.  The memory
        is the weighted sum of the mass and stiffness memories.  It splits
        at b0 = k - k % BLOCK: the levels b0..k are contracted directly
        (near_product, in column slabs on large grids), and the older
        ones enter through a far part in two levels, split at
        c0 = b0 - b0 % SUPER.  The levels before c0 come from one
        causal_sum over u[:c0] per super-block of SUPER steps, the levels
        c0..b0-1 from one over u[c0:b0] per block (see _far_rows); for
        c0 = 0 the far part is the single transform of u[:b0].
        """
        if not 0 <= k < self.steps:
            raise ValueError("step index out of range")
        uk = self.u[k]
        b0 = k - k % BLOCK
        near = self._rkernel[:, self.steps - (k - b0) :]
        mem = near_product(near, self.u[b0 : k + 1].reshape(k + 1 - b0, -1))
        memory = (self._weights[0] * mem[0] + self._weights[1] * mem[1]).reshape(uk.shape)
        if b0:
            if self._far_block != b0:
                self._far_rows(b0)
            memory += self._far[k - self._far_start]
        rhs = self._explicit * uk
        rhs -= memory
        rhs += self.tau * 0.5 * (self.source_hat[k] + self.source_hat[k + 1])
        return rhs

    def _far_rows(self, b0):
        """Fill the cached far part of the memory sum for the block at b0.

        For c0 = b0 - b0 % SUPER = 0 the cache is the block's own rows of
        the transform of u[:b0].  Otherwise it holds the super-block's
        rows of the transform of u[:c0], and the block's transform of
        u[c0:b0] is added into its own rows in place.  The march never
        rewrites u[:b0] once a block has started.  A call for another
        super-block, or for a block before the last one filled (whose
        rows may hold an inner part already), rebuilds the cache from the
        current history.  The old cache is dropped before the next one is
        built, so only one is held at a time.
        """
        c0 = b0 - b0 % SUPER
        hi = min(b0 + BLOCK, self.steps)
        kernel = self._rkernel[:, ::-1]
        if not c0:
            self._far = None
            self._far = causal_sum(kernel, self.u[:b0], b0, hi, self._weights)
            self._far_start = b0
        else:
            if c0 != self._far_start or b0 < self._far_block:
                self._far = None
                self._far = causal_sum(
                    kernel, self.u[:c0], c0, min(c0 + SUPER, self.steps), self._weights
                )
                self._far_start = c0
            if b0 > c0:
                inner = causal_sum(kernel, self.u[c0:b0], b0 - c0, hi - c0, self._weights)
                self._far[b0 - c0 : hi - c0] += inner
        self._far_block = b0

    def correction_load(self, k):
        """Starting-weight additions to the right-hand side at step k.

        One contraction of the step's load column with the images of the
        starting differences, which were taken at construction.
        """
        if self._loads is None:
            raise ValueError("solver built without corrections")
        if k < self.m:
            raise ValueError("corrected stepping starts at k = m")
        return (self._loads[:, k].ravel() @ self._images).reshape(self.u.shape[1:])

    def sweep_solve(self, rhs):
        """Solve the two sweeps: in eigen-coordinates one elementwise division."""
        return rhs / self._sweep

    def step_once(self):
        k = self.count - 1
        rhs = self.assemble_rhs(k)
        if self._loads is not None:
            rhs += self.correction_load(k)
        self.u[k + 1] = self.sweep_solve(rhs)
        self.count += 1

    def march(self):
        """Step to the last level, then map u back to the Shen basis."""
        while self.count <= self.steps:
            self.step_once()
        if self._eigen:
            bx, by = self.basis_x, self.basis_y
            for b, e in level_blocks(len(self.u), bx.dim * by.dim):
                self.u[b:e] = from_eigen(self.u[b:e], bx, by)
            self._eigen = False
        return self.u


def bootstrap_starting_values(tp, basis_x, basis_y, tau, count, ratio=100, source_mode="auto"):
    """First `count` coarse-grid values from a fine uncorrected run.

    Integrates from 0 to count * tau with step tau / ratio and returns
    the values at the coarse times tau, 2 tau, ..., count * tau.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    if ratio < 1:
        raise ValueError("ratio must be at least one")
    fine = AdiSolver(tp, basis_x, basis_y, tau / ratio, count * ratio, source_mode=source_mode)
    fine.march()
    return [fine.u[j * ratio].copy() for j in range(1, count + 1)]


@dataclass
class RunResult:
    """Trajectory and diagnostics of one march."""

    tp: TransformedProblem
    basis_x: SpectralBasis1D
    basis_y: SpectralBasis1D
    tau: float
    times: np.ndarray
    coeffs: np.ndarray  # (steps + 1, dim_x, dim_y)
    norms: np.ndarray
    half_source_norms: np.ndarray
    stability_ratio: float
    correction_terms: int
    exponents: tuple
    source_mode: str  # the mode the source was projected in, auto resolved
    errors: np.ndarray = None
    error_final: float = None
    error_max: float = None
    wall_time: float = 0.0

    def field(self, n=-1):
        return ModalField2D(self.coeffs[n], self.basis_x, self.basis_y)


def _check_finite(what, norms, tau, steps):
    """Raise FloatingPointError at the first time level with a non-finite norm.

    norms belong to the last len(norms) of the levels 0..steps; the
    half-source norms, for instance, to levels 1..steps (the end of
    each step).
    """
    bad = ~np.isfinite(norms)
    if bad.any():
        n = steps + 1 - len(norms) + int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite {what} norm at time level {n} of {steps} (t = {n * tau:.15g})"
        )


def _check_memory(basis_x, basis_y, steps, source_mode):
    """Raise MemoryError if the solver's per-level arrays exceed physical memory.

    Counts the (steps + 1)-row arrays AdiSolver holds: the history u and
    source_hat, plus the sampled forcing grid in sampled mode.
    """
    row = 8 * (steps + 1)
    sizes = [row * basis_x.dim * basis_y.dim] * 2
    if source_mode == "sampled":
        sizes.append(row * basis_x.quad_count * basis_y.quad_count)
    limit = physical_memory()
    if sum(sizes) > limit:
        raise MemoryError(
            f"{steps} steps need {_binary_size(sum(sizes))} of per-level arrays "
            f"({' + '.join(map(_binary_size, sizes))}), more than the "
            f"{_binary_size(limit)} of physical memory"
        )


def _initial_only(tp, basis_x, basis_y, source_mode):
    """Zero-step trajectory: the (zero) transformed initial state alone."""
    coeffs = np.zeros((1, basis_x.dim, basis_y.dim))
    errors = error_final = error_max = None
    if tp.exact is not None:
        errors = l2_errors(coeffs, basis_x, basis_y, tp.exact, np.zeros(1))
        error_final = error_max = float(errors[0])
    return RunResult(
        tp=tp,
        basis_x=basis_x,
        basis_y=basis_y,
        tau=0.0,
        times=np.zeros(1),
        coeffs=coeffs,
        norms=np.zeros(1),
        half_source_norms=np.zeros(0),
        stability_ratio=0.0,
        correction_terms=0,
        exponents=(),
        source_mode=source_mode,
        errors=errors,
        error_final=error_final,
        error_max=error_max,
    )


def run(
    problem,
    degree,
    steps,
    final_time,
    correction_terms=0,
    exponents=None,
    bootstrap_ratio=100,
    source_mode="auto",
    starting_values=None,
):
    """March one configuration and collect errors and diagnostics.

    problem may be a ProblemSpec (reduced automatically) or an already
    reduced TransformedProblem.  With correction_terms m > 0 the first m
    values come from `starting_values` or a fine bootstrap run, and all
    later steps use the starting-weight corrections.
    """
    if final_time <= 0.0:
        raise ValueError("final time must be positive")
    tp = reduce_order(problem) if isinstance(problem, ProblemSpec) else problem
    basis_x = build_basis(degree, tp.domain.x_interval)
    basis_y = build_basis(degree, tp.domain.y_interval)
    if steps == 0:
        return _initial_only(tp, basis_x, basis_y, _resolve_source_mode(tp, source_mode))
    tau = final_time / steps

    t0 = time.perf_counter()
    m = int(correction_terms)
    if m and starting_values is None:
        starting_values = bootstrap_starting_values(
            tp, basis_x, basis_y, tau, m, ratio=bootstrap_ratio, source_mode=source_mode
        )
    solver = AdiSolver(
        tp,
        basis_x,
        basis_y,
        tau,
        steps,
        correction_terms=m,
        exponents=exponents,
        starting_values=starting_values if m else None,
        source_mode=source_mode,
    )
    solver.march()
    wall = time.perf_counter() - t0

    times = tau * np.arange(steps + 1)
    norms = l2_norm(solver.u, basis_x, basis_y)
    # the stability bound sums every half-source norm, marched or not
    _check_finite("source", solver.half_source_norms, tau, steps)
    _check_finite("solution", norms, tau, steps)

    # ratio of ||u^n||^2 to its a priori bound e^{2T} 2 tau sum_{k<n} h_k^2;
    # cumsum accumulates in sequence, as a running Python sum would.  Both
    # norms are divided by a power of two near the largest h_k first, which
    # keeps the squares finite and leaves the ratio bit-identical
    shift = np.frexp(np.max(solver.half_source_norms))[1]
    half = np.ldexp(solver.half_source_norms, -shift)
    scaled = np.ldexp(norms[1:], -shift)
    bound = math.exp(2.0 * final_time) * 2.0 * tau * np.cumsum(half**2)
    positive = bound > 0.0
    ratio = float(np.max(scaled[positive] ** 2 / bound[positive])) if positive.any() else 0.0

    errors = error_final = error_max = None
    if tp.exact is not None:
        errors = l2_errors(solver.u, basis_x, basis_y, tp.exact, times)
        error_final = float(errors[-1])
        error_max = float(np.max(errors))

    return RunResult(
        tp=tp,
        basis_x=basis_x,
        basis_y=basis_y,
        tau=tau,
        times=times,
        coeffs=solver.u,
        norms=norms,
        half_source_norms=solver.half_source_norms,
        stability_ratio=ratio,
        correction_terms=m,
        exponents=tuple(exponents) if exponents else (),
        source_mode=solver.source_mode,
        errors=errors,
        error_final=error_final,
        error_max=error_max,
        wall_time=wall,
    )
