"""Second-order ADI time stepping for the reduced multi-term problem.

The wave-type equation is first integrated to order beta = alpha - 1 in
time, turning every Caputo term into a shifted Grunwald-Letnikov sum
applied to u itself and moving the diffusion term under a fractional
integral.  One step solves the factored operator of the two alternating
sweeps; the splitting perturbation and all memory sums live on the
right-hand side.  The march runs in the joint eigenbasis of the 1-D mass
and stiffness matrices (fast diagonalization), where every operator of
the step, the sweeps included, is elementwise, so a panel of consecutive
steps is solved at once, mode by mode.  The memory sums contract the last
BLOCK levels directly and reach the older ones through a sum of decaying
exponentials (weights.far_exponentials), carried as a state of a few
dozen levels.  So the march holds a fixed number of levels, whatever the
step count: a history buffer of the near window and the panel, whose
norms and errors it takes as the levels leave the buffer.  run() marches
only the parity classes of the basis that the data occupy
(marched_parities).
"""
from __future__ import annotations

import math
import operator
import os
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import (
    ModalField2D,
    SpectralBasis1D,
    build_basis,
    eigen_mass,
    factor_norms,
    from_eigen,
    full_coefficients,
    grid_factor,
    grid_values,
    level_blocks,
    level_norms,
    mirror_parity,
    parity_indices,
    projection_factors,
    restricted_coefficients,
    shen_loads,
    to_eigen,
)
from .problems import ProblemSpec, SeparableTerm, SpatialProfile, term_table
from .weights import (
    FAR_LAGS,
    build_correction_set,
    check_exponents,
    far_exponentials,
    power_factor,
    shifted_weights,
)

# Levels of the near window of the memory sum: a panel starting at step k
# contracts the levels k - BLOCK + 1..k directly (near_product), and the
# older ones through a sum of exponentials (weights.far_exponentials), whose
# state AdiSolver carries from panel to panel.
BLOCK = 128
# Steps per panel of the march: march() solves up to PANEL consecutive
# steps together (assemble_rhs(k, n), then sweep_solve on the stack), so the
# per-step Python and BLAS call overhead is paid once per panel.  The panel
# solve costs about PANEL / 2 elementwise multiply-adds per step, and the
# panel's temporaries grow with PANEL.  On 2 cores, paper_studies took the
# same CPU time at 8 and 16 and 8 % more at 4; at 16 its peak RSS was 1.0 MB
# higher than at 8 (the N = 64 study holds the largest panels).
PANEL = 8
# Levels of the history buffer AdiSolver.u.  A march needs the near window
# of the step it takes and the levels of its panel, at most BLOCK + PANEL;
# twice that lets it move the window to the front of the buffer only once
# every BLOCK + PANEL steps or so, by a copy whose source and target do not
# overlap.
HISTORY = 2 * BLOCK + 2 * PANEL
# Multiply-adds per product of the direct memory contraction.  OpenBLAS runs
# a GEMM of at most 65536 x GEMM_MULTITHREAD_THRESHOLD (default 4) of them
# on the calling thread; a larger one wakes a second thread, whose spin-wait
# then burns CPU through the elementwise rest of the step.  The contraction
# is memory-bound and gains nothing from that thread: on 2 cores, 256
# assemble_rhs calls at N = 64 took 105 ms of CPU with one product each and
# 51 ms with slabs (73 and 65 ms with one BLAS thread).  A slab reads at
# most 1 MiB of history.
NEAR_PRODUCT = 2**18
# How the reduced source I^beta f + g is formed: "analytic" integrates the
# power-law terms of f in closed form, "sampled" applies the GL integral to
# their time factors; "auto" is analytic.
SOURCE_MODES = ("auto", "analytic", "sampled")
# Fine steps per coarse step of the march that bootstraps corrected runs.
BOOTSTRAP_RATIO = 100


def near_product(near, hist, out=None):
    """near @ hist for (rows, L) and (L, cols) arrays, or added into `out`.

    The columns are split into slabs of NEAR_PRODUCT // (rows * L), so
    that no product exceeds NEAR_PRODUCT multiply-adds.  Without `out`
    the slabs fill a new array; with it they are added into the
    (rows, cols) array `out`, so that no temporary exceeds a slab.
    Returns the result.
    """
    rows, (levels, cols) = len(near), hist.shape
    width = NEAR_PRODUCT // max(rows * levels, 1)  # a source may have no profiles
    if out is None:
        out = np.empty((rows, cols))
        for c in range(0, cols, width):
            out[:, c : c + width] = near @ hist[:, c : c + width]
    else:
        for c in range(0, cols, width):
            out[:, c : c + width] += near @ hist[:, c : c + width]
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
    f's time factors (the integral is linear in time), as one real-FFT
    convolution along time, and adds g's.
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
    # the GL sum is a causal convolution along time; a circular one of at
    # least 2 steps + 1 points leaves its first steps + 1 levels unaliased;
    # the length is the smallest power of two that is that long
    size = 1 << (2 * steps).bit_length()
    lam_hat = np.fft.rfft(shifted_weights(-tp.beta, steps), size)
    integral = np.fft.irfft(np.fft.rfft(columns, size) * lam_hat, size)[:, :n_levels]
    velocity, rows = term_table(tp.g, times)
    profiles = forcing + tuple(p for p in velocity if p not in forcing)
    table = np.zeros((len(profiles), n_levels))
    table[: len(forcing)] = tau**tp.beta * integral
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


def _check_starting_values(m, values, steps, shape):
    """Raise ValueError unless m <= len(values) <= steps, each of `shape`."""
    count = len(values)
    if count > steps:
        raise ValueError(f"too many starting values: {count} for {steps} steps")
    if count < m:
        raise ValueError(f"too few starting values: {count} for {m} correction terms")
    for i, val in enumerate(values):
        if np.shape(val) != shape:
            raise ValueError(f"starting value {i} has shape {np.shape(val)}, expected {shape}")


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
    operators act elementwise (eigen_operators).  u, the source profiles,
    assemble_rhs, correction_load and sweep_solve all work in
    eigen-coordinates.  Starting values are given in the Shen basis and
    mapped in with E^T S, the Shen-basis source projections of
    project_time_series with E_x^T . E_y.  The starting values, m <=
    count <= steps of them and each of shape (dim_x, dim_y), and `keep`,
    the levels in 0..steps that march() returns (the last one by
    default), are checked before any table is built.

    u is a history buffer, not the trajectory: it holds the levels _base,
    _base + 1, ..., up to HISTORY of them (more only for as many starting
    values), whatever the step count.  When a panel's new levels would
    not fit, the levels before the near window of its first step leave
    the buffer (the far state has taken them in), and the window moves to
    its front.  Each level gives, as it leaves or at the end of march(),
    its L2 norm (`norms`) and, where tp has an exact solution, its error
    (`errors`; None without one), taken in eigen-coordinates one level
    block at a time (basis.level_blocks, basis.level_norms); a kept level
    is mapped to the Shen basis.  A level whose norm is not finite stops
    the march there, whichever path took its steps (march() or
    step_once), with FloatingPointError naming the first such level.
    norms and errors are set when march() ends.

    Every operator being elementwise, each mode obeys a scalar recurrence
    sum_l a_l u[k+1-l] = (source, loads) with one lower-triangular
    Toeplitz matrix, the step symbol: a_0 = sweep, a_1 = Kw_0 - explicit
    and a_l = Kw_{l-1}, where Kw is the memory kernel weighted by the
    operator diagonals and explicit = mass + cross_coef * cross.  march()
    advances a panel of up to PANEL steps at a time: assemble_rhs(k, n)
    forms the part of the n right sides that the known levels 0..k give,
    and sweep_solve applies the inverse of the symbol, computed once at
    construction, along the panel.  step_once is the same path with n = 1.

    Holds the source's time factors and profile projections, the first
    BLOCK + PANEL - 1 lags of one memory kernel per operator (mass and
    stiffness; the operators' diagonals weight them into one memory sum)
    as one constant (2, PANEL, BLOCK) near table, whose row t holds the
    lags t..t + BLOCK - 1 that row t of a panel applies to the near window,
    the inverse step symbol, in corrected runs the starting-weight loads
    and the per-mode images of the starting differences, the exact
    solution's time factors, the norms and errors by level, the buffer u
    and the kept levels.  The
    memory of the levels older than the near window of BLOCK levels is a
    sum of exponentials (weights.far_exponentials): a state of one level
    per rate, a few dozen in all, that the first step past the window
    builds and every panel brings forward (_bring_far).  The starting
    values are fixed at construction: correction_load reads their
    images, not u[1..m].
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
        keep=None,
    ):
        if steps < 1:
            raise ValueError("need at least one step")
        source_mode = _resolve_source_mode(source_mode)
        self.tp = tp
        self.basis_x = basis_x
        self.basis_y = basis_y
        self.tau = float(tau)
        self.steps = steps
        self.coeffs = step_coefficients(tp, self.tau)

        self.m = int(correction_terms)
        exponents = _correction_exponents(self.m, exponents, steps)

        starting_values = () if starting_values is None else starting_values
        _check_starting_values(self.m, starting_values, steps, (basis_x.dim, basis_y.dim))
        self.keep = np.array([operator.index(j) for j in ((steps,) if keep is None else keep)], int)
        if not ((0 <= self.keep) & (self.keep <= steps)).all():
            raise ValueError(f"kept levels must lie in 0..{steps}")
        self.count = 1 + len(starting_values)
        rows = min(steps + 1, max(HISTORY, self.count + PANEL))  # the starting values and a panel
        _check_memory(tp, basis_x, basis_y, steps, self.m, rows + len(self.keep))

        shape = (basis_x.dim, basis_y.dim)
        self.u = np.zeros((rows,) + shape)
        self._base = 0  # the level in row 0 of u
        for j, val in enumerate(starting_values, start=1):
            self.u[j] = to_eigen(val, basis_x, basis_y)
        self._kept = np.empty((len(self.keep),) + shape)
        self._norms = np.empty(steps + 1)
        self._errors = np.empty(steps + 1) if tp.exact else None
        # set once march() has taken every level's norm and error
        self.norms = self.errors = None

        mass, stiff, cross, self._sweep = eigen_operators(self.coeffs, basis_x, basis_y)
        self._mass = mass  # eigen_mass, for the norms and errors (_take)
        self._explicit = mass + self.coeffs.cross_coef * cross

        # The mass and stiffness applications are linear, so every order's
        # memory sum folds into one kernel per operator: row 0 (mass) sums
        # the memory orders, row 1 (stiffness) is the integral order -beta.
        # Both operators are per-mode products here, so the step needs only
        # the one memory sum weighted per column by their diagonals.
        # The near window reads the lags up to BLOCK + PANEL - 2 (its row
        # t the lags t..t + BLOCK - 1), and pair sums lam_j + lam_{j+1} need
        # lam one index further.  The starting weights fold the same way
        # into load rows (mass, stiffness, cross); frac rows k and k-1
        # average the endpoint systems, and load row 0 is unused (stepping
        # starts at k = m >= 1).
        self._channels = (
            [(b, 0.5 * a * self.tau ** (1.0 - b)) for b, a in zip(tp.betas, tp.coeffs)],
            [(-tp.beta, 0.5 * tp.mu * self.tau ** (1.0 + tp.beta))],
        )
        lags = BLOCK + PANEL - 1
        kernel = np.zeros((2, lags))
        self._far = None  # the far state, built by the first step past the window
        self._far_level = 0  # the step the far state was brought to
        self._loads = None
        if self.m:
            cs = build_correction_set(tuple(tp.betas) + (-tp.beta,), exponents, steps)
            self._loads = np.zeros((3, steps, self.m))
            self._loads[0] = cs.delta
            self._loads[2] = self.coeffs.cross_coef * cs.perturb
        for row, terms in enumerate(self._channels):
            for b, scale in terms:
                lam = shifted_weights(b, lags)
                kernel[row] += scale * (lam[1:] + lam[:-1])
                if self._loads is not None:
                    frac = cs.frac[b]
                    self._loads[row, 1:] += scale * (frac[1:] + frac[:-1])
        # _near[r, t, i] is lag t + BLOCK - 1 - i of kernel row r: row t of a
        # panel reads the lags of its near levels, oldest first, at its end
        t, i = np.ogrid[:PANEL, :BLOCK]
        self._near = kernel[:, t + BLOCK - 1 - i]
        self._weights = np.stack([mass.ravel(), stiff.ravel()])
        self._inverse = self._symbol_inverse(kernel)
        if self._loads is not None:
            self._images = self._starting_images((mass, stiff, cross))

        self._prepare_source(source_mode)

    @cached_property
    def _exact(self):
        """(table, factors) of tp's exact solution at every level (_exact_factors).

        Built when the first levels give their errors, so as part of the march.
        """
        times = self.tau * np.arange(self.steps + 1)
        return _exact_factors(self.tp, self.basis_x, self.basis_y, times)

    def _starting_images(self, operators):
        """(3 m, dim_x * dim_y) images of the starting differences u[j] - u[0].

        Rows o * m + j - 1 hold minus the mass (o = 0), stiffness (o = 1)
        and cross (o = 2) operator diagonal times u[j] - u[0], in the
        order of a raveled (3, m) load column.
        """
        diffs = self.u[1 : self.m + 1] - self.u[0]
        images = np.stack([-op * diffs for op in operators])
        return images.reshape(3 * self.m, -1)

    def _symbol_inverse(self, kernel):
        """(min(PANEL, steps), dim_x, dim_y) inverse b of each mode's step symbol.

        kernel holds the memory kernel's rows (mass, stiffness) by lag.
        With a the symbol of the class docstring, b_0 = 1 / a_0 and
        b_l = -b_0 * sum_{i=1..l} a_i b_{l-i}, so that the panel's levels
        are u[k+1+t] = sum_{s<=t} b_{t-s} R_s for the known parts R_s.
        """
        size = min(PANEL, self.steps)
        symbol = np.empty((size,) + self._sweep.shape)
        symbol[0] = self._sweep
        symbol[1:] = (kernel[:, : size - 1].T @ self._weights).reshape(symbol[1:].shape)
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
        memory is the weighted sum of the mass and stiffness memories.  The
        levels lo..k of the near window, lo = max(k + 1 - BLOCK, 0), are
        contracted directly, as one near_product of the last k + 1 - lo
        columns of the near table's first n rows (in column slabs on large
        grids).
        The older ones enter through the far state, brought forward to k
        (_bring_far), as one near_product of its (2 n, Q) table.  A level
        enters the far state when it leaves the window, so from then on
        it must not change: once the state is at step k0, a call for a
        step before k0 raises ValueError, and so does one for a step whose
        level lies past the buffer u.  1 <= n <= PANEL.  Returns an
        (n, dim_x, dim_y) stack.
        """
        if not (0 <= k and 1 <= n <= PANEL and k + n <= self.steps):
            raise ValueError("step index out of range")
        if k < self._far_level:
            raise ValueError(f"step {k} lies before the far state, at step {self._far_level}")
        base = self._base
        if k - base >= len(self.u):
            end = base + len(self.u) - 1
            raise ValueError(f"step {k} lies past the history, which ends at level {end}")
        lo = max(k + 1 - BLOCK, 0)
        if lo:  # the levels before the window; before the panel's temporaries exist
            self._bring_far(k)
        levels = k + 1 - lo
        near = self._near[:, :n, BLOCK - levels :].reshape(2 * n, levels)
        mem = near_product(near, self.u[lo - base : k + 1 - base].reshape(levels, -1))
        if lo:
            near_product(self._far_rows[:, :n].reshape(2 * n, -1), self._far, out=mem)
        mem = mem.reshape(2, n, -1)
        mem *= self._weights[:, None]
        memory, stiff = mem
        memory += stiff
        shape = (n,) + self.u.shape[1:]
        rhs = np.negative(memory, out=memory).reshape(shape)
        rhs[0] += self._explicit * self.u[k - base]
        # halving before adding keeps the mean of two finite levels finite
        half = 0.5 * self.tau
        factors = self.source_factors
        pairs = half * factors[:, k : k + n] + half * factors[:, k + 1 : k + n + 1]
        profiles = self.source_profiles.reshape(len(factors), self.u[0].size)
        near_product(pairs.T, profiles, out=rhs.reshape(n, -1))
        return rhs

    def _bring_far(self, k):
        """Bring the far state forward to step k >= BLOCK.

        The state at step k0 holds h_q = sum_{i <= k0 - BLOCK}
        e^{-s_q (k0 - i)} u[i], one row per far rate s_q, so that row t of
        a panel at k0 gets sum_q c[r, q] e^{-s_q t} h_q from kernel row r
        (_far_rows).  The first call builds it (_build_far); every PANEL
        levels that leave the window on the way to k then enter as one
        near_product: h <- e^{-s g} h + the g levels, each weighted by its
        lag.
        """
        if self._far is None:
            self._build_far()
        while self._far_level < k:
            g = min(PANEL, k - self._far_level)
            oldest = self._far_level + 1 - BLOCK  # the first level to leave
            self._far *= self._decay[g - 1][:, None]
            row = oldest - self._base
            leaving = self.u[row : row + g].reshape(g, -1)
            near_product(self._entry[:, PANEL - g :], leaving, out=self._far)
            self._far_level += g

    def _build_far(self):
        """The far tables and a zero state at step BLOCK - 1, before any level has left.

        weights.far_exponentials gives g_j(b) = sum_q w_q(b) e^{-s_q j} for
        every order b of the kernel and j >= BLOCK - 2.  With lam_j =
        (1 + b/2) g_j - (b/2) g_{j-1} and kernel column j = lam_{j+1} +
        lam_j, the kernel row r at a lag j >= BLOCK is sum_q c[r, q]
        e^{-s_q j}, c[r, q] = sum_b scale_b w_q(b) (1 + b/2 - (b/2) e^{s_q})
        (1 + e^{-s_q}).  Tables: _far_rows[r, t, q] = c[r, q] e^{-s_q t},
        _entry[q, PANEL - g + i] = e^{-s_q (BLOCK + g - 1 - i)} for the
        i-th of g leaving levels, and _decay[g - 1, q] = e^{-s_q g}.
        """
        terms = [(r, b, scale) for r, channel in enumerate(self._channels) for b, scale in channel]
        rates, w = far_exponentials(tuple(b for _, b, _ in terms), BLOCK, self.steps)
        coef = np.zeros((2, len(rates)))
        for (row, b, scale), w_b in zip(terms, w):
            coef[row] += scale * w_b * (1.0 + b / 2.0 - (b / 2.0) * np.exp(rates))
        coef *= 1.0 + np.exp(-rates)
        t = np.arange(PANEL)
        self._far_rows = coef[:, None, :] * np.exp(-np.outer(t, rates))
        self._entry = np.exp(-np.outer(rates, BLOCK + PANEL - 1 - t))
        self._decay = np.exp(-np.outer(t + 1, rates))
        self._far = np.zeros((len(rates), self.u[0].size))
        self._far_level = BLOCK - 1

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
        """Take the n steps from level count - 1 on as one panel.

        Where the new levels would not fit in u, the levels before the near
        window of step count - 1, which the far state has taken in by then,
        leave it first (_drop).
        """
        k = self.count - 1
        rhs = self.assemble_rhs(k, n)
        if self._loads is not None:
            rhs += self.correction_load(k, n)
        if k + n - self._base >= len(self.u):
            self._drop(k + 1 - BLOCK)
        row = k + 1 - self._base
        self.sweep_solve(rhs, out=self.u[row : row + n])
        self.count += n

    def _drop(self, stop):
        """Take the levels before `stop` out of u and move the others to its front.

        The levels leaving give their norms, errors and kept levels first
        (_take).  The ones that move, stop..count - 1, are at most BLOCK
        levels; a drop happens only where a panel would pass the end of u,
        which then holds at least HISTORY levels, so they move by more than
        BLOCK rows, and the copy's source and target do not overlap.
        """
        self._take(self._base, stop)
        rows = self.count - stop
        self.u[:rows] = self.u[stop - self._base : self.count - self._base]
        self._base = stop

    def _take(self, first, stop):
        """Norms, errors and kept levels of the levels first..stop - 1, all in u.

        The norms and errors are taken in eigen-coordinates, one level
        block at a time; basis.level_norms sums each level on its own, so
        they do not depend on where the blocks fall.  Every level leaves u
        through here once, so this is the march's finiteness check: a
        non-finite level never has a finite norm, and a finite one always
        does unless the norm itself passes the float range, since
        basis.stack_norms rescales by a power of two before squaring.
        FloatingPointError names the first level of first..stop - 1 whose
        norm is not finite.
        """
        bx, by, mass = self.basis_x, self.basis_y, self._mass
        for b, e in level_blocks(stop - first, self.u[0].size):
            b, e = first + b, first + e
            v = self.u[b - self._base : e - self._base]
            self._norms[b:e] = level_norms(v, bx, by, mass=mass)
            if self._errors is not None:
                table, factors = self._exact
                self._errors[b:e] = level_norms(v, bx, by, table[:, b:e], factors, mass)
        kept = np.flatnonzero((first <= self.keep) & (self.keep < stop))
        self._kept[kept] = from_eigen(self.u[self.keep[kept] - self._base], bx, by)
        _check_finite("solution", self._norms[first:stop], self.tau, self.steps, first=first)

    # A non-finite level is reported when it leaves u or at the last step
    # (_take), so the steps up to then raise no floating-point warnings
    @np.errstate(over="ignore", invalid="ignore")
    def step_once(self):
        """Take one step: a panel of one."""
        self._advance(1)

    @np.errstate(over="ignore", invalid="ignore")
    def march(self):
        """Step to the last level in panels; return the kept levels in the Shen basis.

        A panel is min(PANEL, steps - k) steps.  The levels still in u then
        give their norms, errors and kept levels (_take, which raises
        FloatingPointError at the first non-finite level), and norms and
        errors are set.  Returns the (len(keep), dim_x, dim_y) kept levels,
        in the order of `keep`; a second call returns them again.
        """
        while self.count <= self.steps:
            self._advance(min(PANEL, self.steps + 1 - self.count))
        if self.norms is None:
            self._take(self._base, self.count)
            self.norms, self.errors = self._norms, self._errors
        return self._kept


def bootstrap_starting_values(
    tp, basis_x, basis_y, tau, count, ratio=BOOTSTRAP_RATIO, source_mode="auto"
):
    """First `count` coarse-grid values from a fine uncorrected run.

    Integrates from 0 to count * tau with step tau / ratio and returns
    the values at the coarse times tau, 2 tau, ..., count * tau.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if ratio < 1:
        raise ValueError("ratio must be at least one")
    if count == 0:
        return []
    tp = replace(tp, exact=())  # no caller reads the fine march's errors
    fine = AdiSolver(
        tp, basis_x, basis_y, tau / ratio, count * ratio,
        source_mode=source_mode, keep=range(ratio, count * ratio + 1, ratio),
    )
    return list(fine.march())


@dataclass
class RunResult:
    """Final level, per-level norms and errors, and diagnostics of one march.

    coeffs holds the Shen coefficients of the last level alone, the
    level that AdiSolver.march() keeps by default, on the full bases
    basis_x and basis_y; norms, errors and half_source_norms hold one
    value per level (per step for the last).  parities are the parities
    of the Shen functions the march carried along x and y (0 even, 1
    odd, None both; marched_parities).  times, error_final and error_max
    are read from tau, norms and errors; the last two are None without
    an exact solution.  wall_time covers the bootstrap, the set-up and
    the march, which takes the norms and errors.
    """

    tp: TransformedProblem
    basis_x: SpectralBasis1D
    basis_y: SpectralBasis1D
    tau: float  # 0.0 for a run of no steps
    coeffs: np.ndarray  # (1, dim_x, dim_y), the last level
    norms: np.ndarray
    half_source_norms: np.ndarray
    stability_ratio: float
    correction_terms: int
    exponents: tuple
    source_mode: str  # the mode the source was projected in, auto resolved
    errors: np.ndarray = None
    wall_time: float = 0.0
    parities: tuple = (None, None)

    @property
    def times(self):
        return self.tau * np.arange(len(self.norms))

    @property
    def error_final(self):
        return None if self.errors is None else float(self.errors[-1])

    @property
    def error_max(self):
        return None if self.errors is None else float(np.max(self.errors))

    @property
    def marched_modes(self):
        """The number of tensor modes the march carried (of basis_x.dim * basis_y.dim)."""
        px, py = self.parities
        return len(parity_indices(self.basis_x.dim, px)) * len(parity_indices(self.basis_y.dim, py))

    def field(self):
        """The last level as a ModalField2D."""
        return ModalField2D(self.coeffs[-1], self.basis_x, self.basis_y)


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


def _check_memory(tp, basis_x, basis_y, steps, m, levels):
    """Raise MemoryError if a march of tp would hold more than physical memory.

    AdiSolver holds `levels` arrays of dim_x * dim_y doubles (its buffer
    u and the kept levels) and a far state of at most FAR_LAGS more (the
    rank bound of its compression); and per level a few doubles: the
    source table (at most one row per term of f and g), the exact
    solution's table (at most one per term), the norms, errors and
    half-source norms, and 3 m starting-weight loads.
    """
    per_level = len(tp.f) + len(tp.g) + len(tp.exact) + 3 + 3 * m
    size = 8 * ((levels + FAR_LAGS) * basis_x.dim * basis_y.dim + (steps + 1) * per_level)
    limit = physical_memory()
    if size > limit:
        raise MemoryError(
            f"{steps} steps need {_binary_size(size)} of memory, more than the "
            f"{_binary_size(limit)} of physical memory"
        )


# a profile that overflows on the grid fails the parity test, and the
# march's own checks report it; no warnings on the way
@np.errstate(over="ignore", invalid="ignore")
def marched_parities(tp, basis_x, basis_y, starting_values=()):
    """(parity_x, parity_y): the Shen functions a march of tp has to carry per axis.

    0 (1) where the march needs the even (odd) functions phi_k alone,
    None where it needs both.  The mass and stiffness matrices couple
    only indices of equal parity, so a march stays on the parities its
    data load.  A parity is left out along an axis only where, by
    basis.mirror_parity, the Gauss-grid values of every profile of tp.f
    and tp.g give it a projection that vanishes in exact arithmetic,
    and where every starting value, (dim_x, dim_y) Shen coefficients, is
    exactly zero on it.  The test is exact, with no tolerance.
    """
    profiles = tuple(dict.fromkeys(term.profile for term in tp.f + tp.g))
    grid = grid_values(profiles, basis_x, basis_y)
    parities = []
    for axis, basis in ((1, basis_x), (2, basis_y)):
        parity = mirror_parity(grid, axis)
        if parity is not None:
            dropped = parity_indices(basis.dim, 1 - parity)
            if any(np.take(v, dropped, axis=axis - 1).any() for v in starting_values):
                parity = None
        parities.append(parity)
    return tuple(parities)


def stability_ratio(norms, half_source_norms, tau, final_time):
    """max_n ||u^n||^2 / (e^{2T} 2 tau sum_{k<n} h_k^2), the energy bound's ratio.

    norms holds ||u^n|| for n = 0..M and half_source_norms the h_k of
    the M steps.  The sum accumulates in sequence (cumsum), as a running
    Python sum would.  Both norms are divided by a power of two near the
    largest h_k first, which keeps the squares finite and leaves the
    ratio bit-identical.  Where e^{2T} or the bound overflows
    (T > 354.9), the ratio is 0 to double precision; an infinite bound
    times a zero sum is NaN and not positive.  0 where no bound is positive.
    """
    try:
        growth = math.exp(2.0 * final_time)
    except OverflowError:
        growth = math.inf
    shift = np.frexp(np.max(half_source_norms, initial=0.0))[1]
    half = np.ldexp(half_source_norms, -shift)
    scaled = np.ldexp(norms[1:], -shift)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = growth * 2.0 * tau * np.cumsum(half**2)
    positive = bound > 0.0
    return float(np.max(scaled[positive] ** 2 / bound[positive])) if positive.any() else 0.0


def run(
    problem,
    degree,
    steps,
    final_time,
    correction_terms=0,
    exponents=None,
    bootstrap_ratio=BOOTSTRAP_RATIO,
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

    The bootstrap and the march run on the bases restricted to the
    parities the data occupy (marched_parities), as does the error of a
    run of no steps; the final level is returned on the full bases.
    Where the data occupy both parities the bases are the full ones.
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
        _check_starting_values(m, starting_values, steps, (basis_x.dim, basis_y.dim))
    given = () if starting_values is None else starting_values
    parities = marched_parities(tp, basis_x, basis_y, given)
    bx, by = basis_x.restrict(parities[0]), basis_y.restrict(parities[1])
    if starting_values is not None:
        starting_values = [restricted_coefficients(v, bx, by) for v in starting_values]
    elif m:
        starting_values = bootstrap_starting_values(
            tp, bx, by, tau, m, ratio=bootstrap_ratio, source_mode=source_mode
        )
    if steps:
        solver = AdiSolver(
            tp,
            bx,
            by,
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
        coeffs = np.zeros((1, bx.dim, by.dim))
        norms, errors = level_norms(coeffs, bx, by), None
        if tp.exact:
            exact = _exact_factors(tp, bx, by, np.zeros(1))
            errors = level_norms(coeffs, bx, by, *exact)
        half_norms, source_mode = np.zeros(0), _resolve_source_mode(source_mode)
    coeffs = full_coefficients(coeffs, bx, by)
    wall = time.perf_counter() - t0

    # the stability bound sums every half-source norm, marched or not
    _check_finite("source", half_norms, tau, steps)

    return RunResult(
        tp=tp,
        basis_x=basis_x,
        basis_y=basis_y,
        tau=tau,
        coeffs=coeffs,
        norms=norms,
        half_source_norms=half_norms,
        stability_ratio=stability_ratio(norms, half_norms, tau, final_time),
        correction_terms=m,
        exponents=exponents,
        source_mode=source_mode,
        errors=errors,
        wall_time=wall,
        parities=parities,
    )
