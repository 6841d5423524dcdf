"""Second-order ADI time stepping for the reduced multi-term problem.

The wave-type equation is first integrated to order beta = alpha - 1 in
time, turning every Caputo term into a shifted Grunwald-Letnikov sum
applied to u itself and moving the diffusion term under a fractional
integral.  One step solves the factored operator of the two alternating
sweeps; the splitting perturbation and all memory sums live on the
right-hand side.  The march runs in the joint eigenbasis of the 1-D mass
and stiffness matrices (fast diagonalization), where every operator of
the step, the sweeps included, is elementwise, so a panel of consecutive
steps is solved at once, mode by mode.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import (
    ModalField2D,
    SpectralBasis1D,
    build_basis,
    eigen_mass,
    factor_norms,
    from_eigen,
    grid_factor,
    grid_values,
    level_blocks,
    level_norms,
    projection_factors,
    shen_loads,
    to_eigen,
)
from .problems import ProblemSpec, SeparableTerm, SpatialProfile, term_table
from .weights import build_correction_set, check_exponents, power_factor, shifted_weights

# Steps per block of the memory sum: the last < BLOCK levels are contracted
# directly (near_product), the older ones reach a block's rows through the
# far part, which one FFT push per block start accumulates in the rows of u
# that the march has not solved yet (see AdiSolver._push).  At 256 and
# N = 20 one step's direct contraction is one product below NEAR_PRODUCT;
# panels of steps and larger grids split it into column slabs.
BLOCK = 256
# Steps per panel of the march: march() solves up to PANEL consecutive
# steps together (assemble_rhs(k, n), then sweep_solve on the stack), so the
# per-step Python and BLAS call overhead is paid once per panel.  A panel
# never crosses a BLOCK boundary, so PANEL divides BLOCK.  The panel solve
# costs about PANEL / 2 elementwise multiply-adds per step, and the panel's
# temporaries grow with PANEL.  On 2 cores, paper_studies took the same CPU
# time at 8 and 16 and 8 % more at 4; at 16 its peak RSS was 1.0 MB higher
# than at 8 (the N = 64 study holds the largest panels).
PANEL = 8
# Multiply-adds per product of the direct memory contraction.  OpenBLAS runs
# a GEMM of at most 65536 x GEMM_MULTITHREAD_THRESHOLD (default 4) of them
# on the calling thread; a larger one wakes a second thread, whose spin-wait
# then burns CPU through the elementwise rest of the step.  The contraction
# is memory-bound and gains nothing from that thread: on 2 cores, 256
# assemble_rhs calls at N = 64 took 105 ms of CPU with one product each and
# 51 ms with slabs (73 and 65 ms with one BLAS thread).  A slab reads at
# most 1 MiB of history.
NEAR_PRODUCT = 2**18
# Columns per FFT chunk in causal_sum; it bounds the FFT temporaries.  At
# 64 columns they added up to 11 MB of peak RSS to N = 20 marches of 4000
# steps; 16 columns cost no measurable CPU time.
FFT_COLUMNS = 16
# How the reduced source I^beta f + g is formed: "analytic" integrates the
# power-law terms of f in closed form, "sampled" applies the GL integral to
# their time factors; "auto" is analytic.
SOURCE_MODES = ("auto", "analytic", "sampled")


def _fast_length(n):
    """The smallest 2^a 3^b 5^c >= n: an FFT length pocketfft splits into small factors."""
    best = 1 << (n - 1).bit_length()  # the smallest 2^a >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 = 3^b 5^c; try the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def causal_sum(kernel, hist, lo, hi, weights, out):
    """Add rows lo..hi-1 of sum_r weights[r] * sum_j kernel[r, t - j] hist[j] into out.

    kernel is (rows, length), hist (n, ...) and weights broadcasts to
    (rows, cols), one weight per kernel row and column of a level (cols
    entries of hist[0]).  The sum has shape (hi - lo,) + hist.shape[1:] and equals
    the direct sum to round-off.  It is computed by real FFTs along time on
    chunks of FFT_COLUMNS columns (numpy's pocketfft on a 5-smooth length,
    one thread, no BLAS); the rows are combined in frequency, so each chunk
    takes one inverse FFT.
    It is added into the C-contiguous `out` one column chunk at a time,
    so no full-size temporary is formed; `out` is returned.
    """
    n = len(hist)
    first = max(lo - n + 1, 0)  # smallest lag the requested rows use
    # a circular length of hi - lo + n - 1 leaves rows lo..hi-1 unaliased
    size = _fast_length(hi - lo + n - 1)
    kernel_hat = np.fft.rfft(kernel[:, first:hi], size, axis=1).T
    cols = hist.reshape(n, -1)
    weights = np.broadcast_to(weights, (len(kernel), cols.shape[1]))
    dest = out.reshape(hi - lo, -1)
    for c in range(0, cols.shape[1], FFT_COLUMNS):
        chunk = slice(c, c + FFT_COLUMNS)
        spectrum = np.fft.rfft(cols[:, chunk], size, axis=0)
        spectrum *= kernel_hat @ weights[:, chunk]
        dest[:, chunk] += np.fft.irfft(spectrum, size, axis=0)[lo - first : hi - first]
    return out


def near_product(near, hist):
    """near @ hist for (rows, L) and (L, cols) arrays.

    The columns are split into slabs of NEAR_PRODUCT // (rows * L), so
    that no product exceeds NEAR_PRODUCT multiply-adds; a product that
    fits in one slab is formed at once.
    """
    rows, (levels, cols) = len(near), hist.shape
    if rows * levels * cols <= NEAR_PRODUCT:
        return near @ hist
    width = NEAR_PRODUCT // (rows * levels)
    out = np.empty((rows, cols))
    for c in range(0, cols, width):
        out[:, c : c + width] = near @ hist[:, c : c + width]
    return out


@dataclass(frozen=True)
class TransformedProblem:
    """The reduced first-order-in-time problem the stepper integrates.

    d/dt u + sum_i coeffs_i D^{betas_i} u = mu D^{-beta} Laplacian(u) + s,
    with u(0) = 0; `lift` is the SpatialProfile of the subtracted initial
    value (added back for physical output), None for none.

    The reduced source is s = I^beta f + g: f, the shifted forcing, enters
    through its fractional integral of order beta, and g (the
    initial-velocity terms) is added as it stands.  f, g and the reduced
    exact solution `exact` are tuples of SeparableTerm, each the sum of
    its terms (problems.evaluate_terms); () is a zero source, and an
    empty `exact` means no exact solution.
    """

    name: str
    beta: float
    betas: tuple
    coeffs: tuple
    mu: float
    domain: object
    f: tuple = ()  # shifted forcing, under the integral of order beta
    g: tuple = ()  # terms added to the reduced source directly
    exact: tuple = ()
    lift: SpatialProfile = None

    def __post_init__(self):
        for name in ("f", "g", "exact"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name}: terms must be a tuple of SeparableTerm")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("reduced order beta must lie in (0, 1)")
        if any(not -1.0 <= b <= 1.0 for b in self.betas):
            raise ValueError("memory orders must lie in [-1, 1]")
        if len(self.betas) != len(self.coeffs):
            raise ValueError("one coefficient per memory order")


def reduce_order(problem):
    """Rewrite a wave-type problem as the reduced integro-differential one.

    Applies the fractional integral of order beta = alpha - 1, shifts by
    the initial value g1 (forcing picks up mu * Laplacian(g1)), and
    collects the initial-velocity terms: f is the shifted forcing and g
    the velocity terms, both tuples of terms; exact loses g1 as a -1 * t^0 term.
    """
    beta = problem.alpha - 1.0
    betas = tuple(a - problem.alpha + 1.0 for a in problem.alphas)

    shifted = tuple(problem.forcing_terms)
    if problem.g1 is not None:
        if problem.g1.laplacian is None:
            raise ValueError("initial value needs a Laplacian to shift the forcing")
        shifted += (SeparableTerm(problem.mu, 0.0, SpatialProfile(values=problem.g1.laplacian)),)

    # velocity terms: g2 plus one t^{alpha - alpha_j} term per order above
    # one (orders <= 1 carry no initial-velocity data)
    velocity = ()
    if problem.g2 is not None:
        velocity = (SeparableTerm(1.0, 0.0, problem.g2),)
        for a_j, c_j in zip(problem.alphas, problem.coeffs):
            if a_j > 1.0:
                e = problem.alpha - a_j
                velocity += (SeparableTerm(c_j / math.gamma(e + 1.0), e, problem.g2),)

    exact = tuple(problem.exact_terms)
    if exact and problem.g1 is not None:
        exact += (SeparableTerm(-1.0, 0.0, problem.g1),)

    return TransformedProblem(
        name=problem.name,
        beta=beta,
        betas=betas,
        coeffs=tuple(problem.coeffs),
        mu=problem.mu,
        domain=problem.domain,
        f=shifted,
        g=velocity,
        exact=exact,
        lift=problem.g1,
    )


@dataclass(frozen=True)
class StepCoefficients:
    """Scalar coefficients of one time step of size tau.

    mass_coef multiplies the implicit mass term (1 plus half the lead
    weights of the memory sums), grad_coef the implicit stiffness term,
    and cross_coef = grad_coef**2 / mass_coef scales the splitting
    perturbation.
    """

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
    mass = eigen_mass(basis_x, basis_y)
    stiff = (jy / jx) * ly + (jx / jy) * lx
    cross = np.full(mass.shape, 1.0 / (jx * jy))
    sweep = (p * jx * lx + q / (p * jx)) * (p * jy * ly + q / (p * jy))
    return mass, stiff, cross, sweep


def step_coefficients(tp, tau):
    if tau <= 0.0:
        raise ValueError("step must be positive")
    mass = 1.0
    for b, a in zip(tp.betas, tp.coeffs):
        mass += 0.5 * a * (1.0 + b / 2.0) * tau ** (1.0 - b)
    grad = 0.5 * tp.mu * (1.0 - tp.beta / 2.0) * tau ** (1.0 + tp.beta)
    return StepCoefficients(mass_coef=mass, grad_coef=grad)


def _resolve_source_mode(mode):
    """The source mode a run uses: one of SOURCE_MODES, auto resolved to analytic."""
    if mode not in SOURCE_MODES:
        raise ValueError(f"unknown source mode {mode!r}")
    return "analytic" if mode == "auto" else mode


def source_table(tp, tau, steps, mode="auto"):
    """(profiles, table) of the reduced source I^beta f + g at t_n = n tau.

    s(t_n) = sum_p table[p, n] phi_p(x, y) over the P distinct profiles
    phi_p of the terms; table is (P, steps + 1).  The analytic mode
    integrates each term of f in closed form (one Gamma ratio) after g's
    terms; the sampled mode applies the shifted GL rule of order -beta to
    f's time factors (the integral is linear in time) and adds g's.
    """
    n_levels = steps + 1
    times = tau * np.arange(n_levels)
    if _resolve_source_mode(mode) == "analytic":
        b = tp.beta
        integrated = tuple(
            SeparableTerm(f.coefficient * power_factor(-b, f.exponent), f.exponent + b, f.profile)
            for f in tp.f
        )
        return term_table(tp.g + integrated, times)
    forcing, columns = term_table(tp.f, times)
    lam = shifted_weights(-tp.beta, steps)[None]
    integral = causal_sum(lam, columns.T, 0, n_levels, 1.0, np.zeros(columns.T.shape))
    velocity, rows = term_table(tp.g, times)
    profiles = forcing + tuple(p for p in velocity if p not in forcing)
    table = np.zeros((len(profiles), n_levels))
    table[: len(forcing)] = tau**tp.beta * integral.T
    table[[profiles.index(p) for p in velocity]] += rows
    return profiles, table


# Overflow of the source shows up as a non-finite half-source norm, which
# AdiSolver reports with the level it happened at; no warnings on the way.
@np.errstate(over="ignore", invalid="ignore")
def project_time_series(tp, basis_x, basis_y, tau, steps, mode="auto"):
    """The reduced source of source_table, projected, and its half-source norms.

    Returns (factors, profiles, half_source_norms): the (P, steps + 1)
    table of time factors of source_table, the inner products of its P
    profiles with the Shen tensor basis, (P, dim_x, dim_y), and
    half_source_norms[k] = ||(s(t_k) + s(t_{k+1})) / 2||, the grid norms
    of the half sums of the table's columns.  Each profile is evaluated
    once, on the Gauss grid; the norms then cost O(P^2) per level
    (basis.factor_norms of the profiles' grid_factor).
    """
    profiles, table = source_table(tp, tau, steps, mode)
    grid = grid_values(profiles, basis_x, basis_y)
    # halving before adding keeps the mean of two finite levels finite
    half = 0.5 * table[:, :-1] + 0.5 * table[:, 1:]
    half_norms = factor_norms(half, grid_factor(grid, basis_x, basis_y))
    return table, shen_loads(grid, basis_x, basis_y), half_norms


def _exact_factors(tp, basis_x, basis_y, times):
    """(table, factors) of tp's exact solution for basis.level_norms' errors.

    table holds the time factors of the terms of tp.exact at the times,
    factors the projection_factors of their profiles.
    """
    profiles, table = term_table(tp.exact, times)
    return table, projection_factors(grid_values(profiles, basis_x, basis_y), basis_x, basis_y)


def physical_memory():
    """Bytes of physical memory on this machine (inf where unknown)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _binary_size(nbytes):
    """A byte count in numpy's binary units, e.g. '1.60 PiB' or '730 GiB'.

    Three significant digits, written without an exponent or a trailing
    point (999.6 GiB is '1000 GiB').
    """
    units = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")
    i = min(max(int(nbytes).bit_length() - 1, 0) // 10, len(units) - 1)
    if i == 0:
        return f"{nbytes:.0f} bytes"
    value = float(f"{nbytes / 2 ** (10 * i):.3g}")
    decimals = max(2 - math.floor(math.log10(value)), 0)
    return f"{value:.{decimals}f} {units[i]}"


def _check_starting_count(m, count, steps):
    """Raise ValueError unless m <= count <= steps starting values, at most BLOCK."""
    if count > BLOCK:  # the first push adds into u[BLOCK + 1]
        raise ValueError(f"at most {BLOCK} starting values")
    if count > steps:
        raise ValueError(f"too many starting values: {count} for {steps} steps")
    if count < m:
        raise ValueError(f"too few starting values: {count} for {m} correction terms")


def _correction_exponents(m, exponents, steps):
    """The exponents of m correction terms as a tuple; () for m = 0.

    Raises ValueError for m < 0 and unless a corrected run gets exactly m
    valid exponents (weights.check_exponents) and more than m steps.
    """
    if m < 0:
        raise ValueError("correction_terms must be nonnegative")
    if not m:
        return ()
    if exponents is None:
        raise ValueError("corrected runs need exponents")
    if len(exponents) != m:
        raise ValueError(f"{m} correction terms need {m} exponents, got {len(exponents)}")
    if steps <= m:
        raise ValueError("need more steps than correction terms")
    check_exponents(exponents)
    return tuple(exponents)


class AdiSolver:
    """Marches the reduced problem on one tensor basis.

    The march runs in the eigen-coordinates v = E_x^{-1} u E_y^{-T} of
    basis.eigen_factors, where the mass, stiffness, splitting and sweep
    operators act elementwise (eigen_operators).  While a march runs,
    u, the source profiles, assemble_rhs, correction_load and sweep_solve
    all work in eigen-coordinates.  Starting values are given in the Shen
    basis and mapped in with E^T S, the Shen-basis source projections of
    project_time_series with E_x^T . E_y.  march() ends with one pass
    over u, block by block (see basis.level_blocks): it takes each
    level's L2 norm (`norms`) and, where tp has an exact solution, its
    error (`errors`; None without one) in eigen-coordinates
    (basis.level_norms), then maps the block back to the Shen basis in
    place.  So u after a march holds Shen coefficients; steps taken with
    step_once alone stay in eigen-coordinates and set no norms.  The
    starting values, m <= count <= steps of them and at most BLOCK, are
    checked before any table is built.

    Every operator being elementwise, each mode obeys a scalar recurrence
    sum_l a_l u[k+1-l] = (source, loads) with one lower-triangular
    Toeplitz matrix, the step symbol: a_0 = sweep, a_1 = Kw_0 - explicit
    and a_l = Kw_{l-1}, where Kw is the memory kernel weighted by the
    operator diagonals and explicit = mass + cross_coef * cross.  march()
    advances a panel of up to PANEL steps at a time: assemble_rhs(k, n)
    forms the part of the n right sides that the known levels 0..k give,
    and sweep_solve applies the inverse of the symbol, computed once at
    construction, along the panel.  step_once is the same path with n = 1.

    Holds the source's time factors and profile projections, one memory
    kernel per operator (mass and stiffness; the operators' diagonals
    weight them into one memory sum), the inverse step symbol, in
    corrected runs the starting-weight loads and the per-mode images of
    the starting differences, and the full history u, its only array of
    dim_x * dim_y values per level.  The far part of the memory sum needs
    no array of its own: until step k is taken, u[k + 1] accumulates what
    the levels before k's block give to step k (see _push).  The starting
    values are fixed at construction: correction_load reads their images,
    not u[1..m].
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
        source_mode = _resolve_source_mode(source_mode)
        _check_memory(basis_x, basis_y, steps)
        self.tp = tp
        self.basis_x = basis_x
        self.basis_y = basis_y
        self.tau = float(tau)
        self.steps = steps
        self.coeffs = step_coefficients(tp, self.tau)

        self.m = int(correction_terms)
        exponents = _correction_exponents(self.m, exponents, steps)

        starting_values = () if starting_values is None else starting_values
        _check_starting_count(self.m, len(starting_values), steps)

        self.u = np.zeros((steps + 1, basis_x.dim, basis_y.dim))
        for j, val in enumerate(starting_values, start=1):
            self.u[j] = to_eigen(val, basis_x, basis_y)
        self.count = 1 + len(starting_values)
        self._eigen = True  # u holds eigen-coordinates until march() ends
        self.norms = self.errors = None  # set by march()

        mass, stiff, cross, self._sweep = eigen_operators(self.coeffs, basis_x, basis_y)
        self._explicit = mass + self.coeffs.cross_coef * cross

        # The mass and stiffness applications are linear, so every order's
        # memory sum folds into one kernel per operator: row 0 (mass) sums
        # the memory orders, row 1 (stiffness) is the integral order -beta.
        # Both operators are per-mode products here, so the step needs only
        # the one memory sum weighted per column by their diagonals.
        # Pair sums lam_j + lam_{j-1} need lam up to index steps + 1.  The
        # starting weights fold the same way into load rows (mass,
        # stiffness, cross); frac rows k and k-1 average the endpoint
        # systems, and load row 0 is unused (stepping starts at k = m >= 1).
        channels = (
            [(b, 0.5 * a * self.tau ** (1.0 - b)) for b, a in zip(tp.betas, tp.coeffs)],
            [(-tp.beta, 0.5 * tp.mu * self.tau ** (1.0 + tp.beta))],
        )
        kernel = np.zeros((2, steps + 1))
        self._far_block = 0  # the last block start whose push is in u
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
        # The near part of a panel reads, in its row t, the lags
        # k + t - b0 down to t: a window of the reversed kernel (column
        # steps - j holds lag j), which BLOCK - 1 trailing zeros let every
        # window of BLOCK columns hold
        self._kernel = kernel
        reversed_kernel = np.zeros((2, steps + BLOCK))
        reversed_kernel[:, : steps + 1] = kernel[:, ::-1]
        self._windows = sliding_window_view(reversed_kernel, BLOCK, axis=1)
        self._weights = np.stack([mass.ravel(), stiff.ravel()])
        self._inverse = self._symbol_inverse()
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

    def _symbol_inverse(self):
        """(min(PANEL, steps), dim_x, dim_y) inverse b of each mode's step symbol.

        With a the symbol of the class docstring, b_0 = 1 / a_0 and
        b_l = -b_0 * sum_{i=1..l} a_i b_{l-i}, so that the panel's levels
        are u[k+1+t] = sum_{s<=t} b_{t-s} R_s for the known parts R_s.
        """
        size = min(PANEL, self.steps)
        symbol = np.empty((size,) + self._sweep.shape)
        symbol[0] = self._sweep
        symbol[1:] = (self._kernel[:, : size - 1].T @ self._weights).reshape(symbol[1:].shape)
        symbol[1:2] -= self._explicit
        inverse = np.empty_like(symbol)
        inverse[0] = 1.0 / symbol[0]
        for lag in range(1, size):
            inverse[lag] = -inverse[0] * (symbol[1 : lag + 1] * inverse[lag - 1 :: -1]).sum(axis=0)
        return inverse

    # -- source handling ------------------------------------------------

    def _prepare_source(self, mode):
        self.source_mode = mode
        bx, by = self.basis_x, self.basis_y
        source = project_time_series(self.tp, bx, by, self.tau, self.steps, mode)
        self.source_factors, profiles, self.half_source_norms = source
        self.source_profiles = bx.eigenvectors.T @ profiles @ by.eigenvectors
        # a march on a non-finite source would only spread it; the steps
        # before self.count are not marched.  SeparableTerm rejects negative
        # exponents, so only a hand-built term can be singular at t = 0,
        # and then only starting values let a march begin past it
        _check_finite("source", self.half_source_norms[self.count - 1 :], self.tau, self.steps)

    # -- one panel of steps ----------------------------------------------

    def assemble_rhs(self, k, n):
        """Known part of the right sides of steps k..k+n-1 (no corrections).

        Row t holds what levels 0..k give to the step from t_{k+t} to
        t_{k+t+1}: minus the memory of those levels, the trapezoidal
        source 0.5 tau s[k+t] + 0.5 tau s[k+t+1], and on row 0 the explicit
        mass and splitting terms of u[k], all in eigen-coordinates.  The
        levels k+1..k+t, not yet known, enter through sweep_solve.  The
        memory is the weighted sum of the mass and stiffness memories.  It
        splits at b0 = k - k % BLOCK, which the rows may not pass: the
        levels b0..k are contracted directly, as one near_product of the
        (2 n, k + 1 - b0) Toeplitz window of the kernel (in column slabs
        on large grids), and the far part of the older ones is read from
        the unsolved rows u[k + 1 : k + 1 + n], where the pushes of the
        block starts up to b0 left it (see _push).  The first call for a
        block makes its push, so k must lie in the block of the last call
        or the next one, and past the first block step k must not have
        been taken yet; other calls raise ValueError.  Returns an (n, dim_x,
        dim_y) stack.
        """
        if not (0 <= k and 1 <= n and k + n <= self.steps):
            raise ValueError("step index out of range")
        b0 = k - k % BLOCK
        if k + n > b0 + BLOCK:
            raise ValueError("a panel of steps may not cross a BLOCK boundary")
        if b0 == self._far_block + BLOCK:
            self._push(b0)  # before the panel's own temporaries exist
        elif b0 != self._far_block:
            raise ValueError(
                f"step {k} lies outside the block at {self._far_block} and the next one"
            )
        if b0 and k < self.count - 1:
            raise ValueError(f"step {k} was taken: u[{k + 1}] no longer holds its far part")
        levels = k + 1 - b0
        # row t takes lags k + t - b0 .. t, the window that starts at the
        # reversed kernel's column steps - (k - b0) - t
        first = self.steps - (k - b0)
        windows = self._windows[:, first - n + 1 : first + 1, :levels]
        near = windows[:, ::-1].reshape(2 * n, levels)
        mem = near_product(near, self.u[b0 : k + 1].reshape(levels, -1)).reshape(2, n, -1)
        mem *= self._weights[:, None]
        memory, stiff = mem
        memory += stiff
        if b0:  # the first block has no far part
            memory += self.u[k + 1 : k + 1 + n].reshape(n, -1)
        shape = (n,) + self.u.shape[1:]
        rhs = np.negative(memory, out=memory).reshape(shape)
        rhs[0] += self._explicit * self.u[k]
        # halving before adding keeps the mean of two finite levels finite
        half = 0.5 * self.tau
        factors = self.source_factors
        pairs = half * factors[:, k : k + n] + half * factors[:, k + 1 : k + n + 1]
        profiles = self.source_profiles.reshape(len(factors), self.u[0].size)
        rhs += near_product(pairs.T, profiles).reshape(shape)
        return rhs

    def _push(self, b0):
        """Add the far part that the block start b0 sends into u.

        With span = BLOCK times the largest power of two that divides
        b0 / BLOCK, the levels b0 - span..b0-1 send their part of the
        memory sum to the rows b0..b0+span-1 (up to the last step), added
        into u[b0 + 1 : b0 + span + 1], the levels those steps will
        overwrite.  Over the block starts this is the dyadic split of
        Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6 (1985)
        532): every level before b0 reaches every row of b0's block
        exactly once, and each level is transformed once per power of two
        up to steps / BLOCK.
        """
        span = BLOCK * ((b0 // BLOCK) & -(b0 // BLOCK))
        hi = min(b0 + span, self.steps)
        causal_sum(
            self._kernel, self.u[b0 - span : b0], span, span + hi - b0, self._weights,
            self.u[b0 + 1 : hi + 1],
        )
        self._far_block = b0

    def correction_load(self, k, n):
        """Starting-weight additions to the right sides of steps k..k+n-1.

        One product of the steps' load columns with the images of the
        starting differences, which were taken at construction.  Returns
        an (n, dim_x, dim_y) stack.
        """
        if self._loads is None:
            raise ValueError("solver built without corrections")
        if k < self.m:
            raise ValueError("corrected stepping starts at k = m")
        if k + n > self.steps:
            raise ValueError("step index out of range")
        columns = self._loads[:, k : k + n].transpose(1, 0, 2).reshape(n, -1)
        return (columns @ self._images).reshape((n,) + self.u.shape[1:])

    def sweep_solve(self, rhs, out=None):
        """Solve a panel of steps for the new levels, given their known parts.

        For an (n, dim_x, dim_y) stack R of known parts (assemble_rhs plus
        correction_load) returns u[k+1+t] = sum_{s<=t} b_{t-s} R_s, with b
        the inverse step symbol; lag 0 is the elementwise division by the
        sweep operator (the two sweeps in eigen-coordinates), the others
        are added one lag at a time.  `out` must not overlap rhs.
        """
        n = len(rhs)
        out = np.divide(rhs, self._sweep, out=out)
        term = np.empty_like(rhs[1:])
        for lag in range(1, n):
            out[lag:] += np.multiply(self._inverse[lag], rhs[: n - lag], out=term[: n - lag])
        return out

    def _advance(self, n):
        """Take the n steps from level count - 1 on as one panel."""
        k = self.count - 1
        rhs = self.assemble_rhs(k, n)
        if self._loads is not None:
            rhs += self.correction_load(k, n)
        self.sweep_solve(rhs, out=self.u[k + 1 : k + 1 + n])
        self.count += n

    def step_once(self):
        """Take one step: a panel of one."""
        self._advance(1)

    # A non-finite level is reported by the check once per block, so the
    # steps up to it raise no floating-point warnings
    @np.errstate(over="ignore", invalid="ignore")
    def march(self):
        """Step to the last level in panels; then take norms and errors and map u back.

        A panel is min(PANEL, b0 + BLOCK - k, steps - k) steps, so it ends
        at the latest where its block does.  At the end of each block the
        newest level must be finite; otherwise FloatingPointError names
        the first level that is not.  The last pass sets norms and errors
        one block of levels at a time, in eigen-coordinates, before it
        maps the block to the Shen basis.
        """
        while self.count <= self.steps:
            k = self.count - 1
            end = min(k - k % BLOCK + BLOCK, self.steps)
            self._advance(min(PANEL, end - k))
            if self.count - 1 == end:
                self._check_level(end)
        if self._eigen:
            bx, by = self.basis_x, self.basis_y
            levels = len(self.u)
            self.norms = np.empty(levels)
            if self.tp.exact:
                table, factors = _exact_factors(self.tp, bx, by, self.tau * np.arange(levels))
                self.errors = np.empty(levels)
            for b, e in level_blocks(levels, bx.dim * by.dim):
                v = self.u[b:e]
                self.norms[b:e] = level_norms(v, bx, by)
                if self.errors is not None:
                    self.errors[b:e] = level_norms(v, bx, by, table[:, b:e], factors)
                self.u[b:e] = from_eigen(v, bx, by)
            self._eigen = False
        return self.u

    def _check_level(self, n):
        """Raise FloatingPointError if level n is not finite.

        The message names the first level of 0..n that is not, by the
        largest magnitude of its coefficients.
        """
        if np.isfinite(self.u[n]).all():
            return
        for b, e in level_blocks(n + 1, self.u[0].size):
            sup = np.abs(self.u[b:e]).max(axis=(1, 2))
            _check_finite("solution", sup, self.tau, self.steps, first=b)


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
    """Trajectory and diagnostics of one march.

    times, error_final and error_max are read from tau, coeffs and
    errors; the last two are None without an exact solution.  wall_time
    covers the bootstrap, the set-up and the march, which takes the
    norms and errors.
    """

    tp: TransformedProblem
    basis_x: SpectralBasis1D
    basis_y: SpectralBasis1D
    tau: float  # 0.0 for a run of no steps
    coeffs: np.ndarray  # (steps + 1, dim_x, dim_y)
    norms: np.ndarray
    half_source_norms: np.ndarray
    stability_ratio: float
    correction_terms: int
    exponents: tuple
    source_mode: str  # the mode the source was projected in, auto resolved
    errors: np.ndarray = None
    wall_time: float = 0.0

    @property
    def times(self):
        return self.tau * np.arange(len(self.coeffs))

    @property
    def error_final(self):
        return None if self.errors is None else float(self.errors[-1])

    @property
    def error_max(self):
        return None if self.errors is None else float(np.max(self.errors))

    def field(self, n=-1):
        return ModalField2D(self.coeffs[n], self.basis_x, self.basis_y)


def _check_finite(what, norms, tau, steps, first=None):
    """Raise FloatingPointError at the first time level with a non-finite norm.

    norms belong to the levels first, first + 1, ... of 0..steps, by
    default to the last len(norms) of them; the half-source norms, for
    instance, to levels 1..steps (the end of each step).
    """
    bad = ~np.isfinite(norms)
    if bad.any():
        if first is None:
            first = steps + 1 - len(norms)
        n = first + int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite {what} norm at time level {n} of {steps} (t = {n * tau:.15g})"
        )


def _check_memory(basis_x, basis_y, steps):
    """Raise MemoryError if the history u would exceed physical memory.

    u, steps + 1 levels of dim_x * dim_y doubles, is the only array of
    that size per level that AdiSolver holds: the source is a table of a
    few time factors per level, and the far part of the memory sum
    accumulates in the unsolved rows of u.
    """
    size = 8 * (steps + 1) * basis_x.dim * basis_y.dim
    limit = physical_memory()
    if size > limit:
        raise MemoryError(
            f"{steps} steps need {_binary_size(size)} of history, more than the "
            f"{_binary_size(limit)} of physical memory"
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
    later steps use the starting-weight corrections.  A run of no steps
    records the zero initial level alone, without corrections; its error
    is the formula of basis.level_norms with v = 0.
    """
    if final_time <= 0.0:
        raise ValueError("final time must be positive")
    if not math.isfinite(final_time):
        raise ValueError("final time must be finite")
    tp = reduce_order(problem) if isinstance(problem, ProblemSpec) else problem
    basis_x = build_basis(degree, tp.domain.x_interval)
    basis_y = build_basis(degree, tp.domain.y_interval)
    tau = final_time / steps if steps else 0.0

    t0 = time.perf_counter()
    m = int(correction_terms) if steps else 0
    exponents = _correction_exponents(m, exponents, steps)  # before any march
    if starting_values is not None:
        _check_starting_count(m, len(starting_values), steps)
    elif m:
        starting_values = bootstrap_starting_values(
            tp, basis_x, basis_y, tau, m, ratio=bootstrap_ratio, source_mode=source_mode
        )
    if steps:
        solver = AdiSolver(
            tp,
            basis_x,
            basis_y,
            tau,
            steps,
            correction_terms=m,
            exponents=exponents,
            starting_values=starting_values,
            source_mode=source_mode,
        )
        coeffs = solver.march()
        norms, errors = solver.norms, solver.errors
        half_norms, source_mode = solver.half_source_norms, solver.source_mode
    else:  # the zero initial level alone
        coeffs = np.zeros((1, basis_x.dim, basis_y.dim))
        norms, errors = level_norms(coeffs, basis_x, basis_y), None
        if tp.exact:
            exact = _exact_factors(tp, basis_x, basis_y, np.zeros(1))
            errors = level_norms(coeffs, basis_x, basis_y, *exact)
        half_norms, source_mode = np.zeros(0), _resolve_source_mode(source_mode)
    wall = time.perf_counter() - t0

    # the stability bound sums every half-source norm, marched or not
    _check_finite("source", half_norms, tau, steps)
    _check_finite("solution", norms, tau, steps)

    # ratio of ||u^n||^2 to its a priori bound e^{2T} 2 tau sum_{k<n} h_k^2;
    # cumsum accumulates in sequence, as a running Python sum would.  Both
    # norms are divided by a power of two near the largest h_k first, which
    # keeps the squares finite and leaves the ratio bit-identical.  Where
    # e^{2T} or the bound overflows (T > 354.9), the ratio is 0 to double
    # precision; an infinite bound times a zero sum is NaN and not positive
    try:
        growth = math.exp(2.0 * final_time)
    except OverflowError:
        growth = math.inf
    shift = np.frexp(np.max(half_norms, initial=0.0))[1]
    half = np.ldexp(half_norms, -shift)
    scaled = np.ldexp(norms[1:], -shift)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = growth * 2.0 * tau * np.cumsum(half**2)
    positive = bound > 0.0
    ratio = float(np.max(scaled[positive] ** 2 / bound[positive])) if positive.any() else 0.0

    return RunResult(
        tp=tp,
        basis_x=basis_x,
        basis_y=basis_y,
        tau=tau,
        coeffs=coeffs,
        norms=norms,
        half_source_norms=half_norms,
        stability_ratio=ratio,
        correction_terms=m,
        exponents=exponents,
        source_mode=source_mode,
        errors=errors,
        wall_time=wall,
    )
