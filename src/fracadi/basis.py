"""Legendre-Galerkin machinery on mapped rectangles.

One-dimensional pieces: Legendre evaluation, Gauss-Legendre rules, and
the Dirichlet difference basis phi_i = L_i - L_{i+2} whose mass matrix
is pentadiagonal (with only even couplings) and whose stiffness matrix
is diagonal.  Two-dimensional fields are tensor products with modal
coefficient matrices.  One matrix E per degree diagonalizes both
matrices at once (eigen_factors), which turns every operator of the
time step into an elementwise one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .problems import SpatialProfile, profile_sum

NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 100


def legendre_table(nmax, x):
    """Values of L_0..L_nmax at x, shape (nmax + 1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    table = np.empty((nmax + 1,) + x.shape)
    table[0] = 1.0
    if nmax >= 1:
        table[1] = x
    for n in range(1, nmax):
        table[n + 1] = ((2 * n + 1) * x * table[n] - n * table[n - 1]) / (n + 1)
    return table


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Damped Newton iteration on L_n from the Chebyshev initial guesses;
    converges to |L_n(x)| <= 1e-14 in a handful of steps.
    """
    if n < 1:
        raise ValueError("need at least one node")
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(NEWTON_MAX_ITER):
        table = legendre_table(n, x)
        ln = table[n]
        dln = n * (table[n - 1] - x * table[n]) / (1.0 - x * x)
        dx = ln / dln
        # keep the iterates strictly inside (-1, 1)
        limit = 0.5 * np.minimum(1.0 - x, x + 1.0)
        dx = np.clip(dx, -limit, limit)
        x = x - dx
        if np.max(np.abs(dx)) <= NEWTON_TOL:
            break
    else:
        raise RuntimeError("Gauss-Legendre iteration failed to converge")
    table = legendre_table(n, x)
    dln = n * (table[n - 1] - x * table[n]) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dln * dln)
    order = np.argsort(x)
    return x[order], w[order]


@dataclass(frozen=True)
class SpectralBasis1D:
    """Dirichlet Legendre basis on one mapped interval.

    dim = degree - 1 functions phi_i = L_i - L_{i+2} (reference
    variable), mass[i][j] = (phi_j, phi_i) and diagonal stiffness
    stiffness[i][i] = (phi_i', phi_i') on the reference interval;
    interval maps x = offset + jacobian * xi.
    """

    degree: int
    interval: tuple
    jacobian: float
    offset: float
    mass: np.ndarray
    stiffness: np.ndarray
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    basis_at_quad: np.ndarray  # (dim, len(quad_nodes))

    def __post_init__(self):
        for arr in (self.mass, self.stiffness, self.quad_nodes, self.quad_weights, self.basis_at_quad):
            arr.flags.writeable = False

    @property
    def dim(self):
        return self.degree - 1

    @property
    def quad_count(self):
        return len(self.quad_nodes)

    @property
    def nodes(self):
        """Quadrature nodes mapped to the physical interval."""
        return self.offset + self.jacobian * self.quad_nodes

    @property
    def weights(self):
        """Quadrature weights mapped to the physical interval."""
        return self.quad_weights * self.jacobian

    @property
    def eigenvalues(self):
        """lambda of eigen_factors(dim): E^T M E = diag(lambda), E^T S E = I."""
        return eigen_factors(self.dim)[0]

    @property
    def eigenvectors(self):
        """E of eigen_factors(dim); its inverse is E^T S."""
        return eigen_factors(self.dim)[1]

    def basis_values(self, x_physical):
        """phi_i at physical points, shape (dim, npts)."""
        xi = (np.asarray(x_physical, dtype=float) - self.offset) / self.jacobian
        table = legendre_table(self.degree, xi)
        return table[: self.dim] - table[2 : self.dim + 2]


def shen_mass_matrix(dim):
    mass = np.zeros((dim, dim))
    i = np.arange(dim, dtype=float)
    np.fill_diagonal(mass, 2.0 / (2.0 * i + 1.0) + 2.0 / (2.0 * i + 5.0))
    off = -2.0 / (2.0 * i[:-2] + 5.0)
    mass[np.arange(dim - 2), np.arange(2, dim)] = off
    mass[np.arange(2, dim), np.arange(dim - 2)] = off
    return mass


def shen_stiffness_diagonal(dim):
    i = np.arange(dim, dtype=float)
    return 4.0 * i + 6.0


# Memoised per dimension: the factors of the reference-interval matrices
# depend on nothing else, and the arrays are read-only, so every caller can
# share them.  Study levels use a handful of degrees, so the cache stays small.
@functools.cache
def eigen_factors(dim):
    """(lam, E) with E^T M E = diag(lam) and E^T S E = I for the Shen matrices.

    E = S^{-1/2} Q, where Q holds the eigenvectors of S^{-1/2} M S^{-1/2}
    (S is diagonal); lam ascends.  scipy.linalg.eigh, not numpy.linalg.eigh:
    numpy's call on a 31 x 31 matrix took 15.6 ms of CPU time with two
    OpenBLAS threads, against 0.23 ms for scipy's, and slowed the numpy
    work that followed it by 59 %.
    """
    root = 1.0 / np.sqrt(shen_stiffness_diagonal(dim))
    lam, q = scipy.linalg.eigh(root[:, None] * shen_mass_matrix(dim) * root[None, :])
    vectors = root[:, None] * q
    lam.flags.writeable = False
    vectors.flags.writeable = False
    return lam, vectors


def to_eigen(coeffs, basis_x, basis_y):
    """Eigen-coordinates E_x^{-1} u E_y^{-T} = E_x^T S_x u S_y E_y of u.

    u is a Shen coefficient matrix or a (levels, dim_x, dim_y) stack.
    """
    inv_x = basis_x.eigenvectors.T * np.diag(basis_x.stiffness)
    inv_y = basis_y.eigenvectors.T * np.diag(basis_y.stiffness)
    return inv_x @ coeffs @ inv_y.T


def from_eigen(coeffs, basis_x, basis_y):
    """Shen coefficients E_x v E_y^T of eigen-coordinates v (matrix or stack)."""
    return basis_x.eigenvectors @ coeffs @ basis_y.eigenvectors.T


def build_basis(degree, interval):
    """Dirichlet basis of polynomial degree `degree` on `interval`.

    Its one Gauss rule, shared by projections, source norms and errors,
    has degree + 8 points: enough to integrate products of basis
    functions exactly, with headroom for smooth data.  The norms of
    level_norms rest on that exactness: on the basis the grid inner
    product is the L2 one, so a field's grid norm is its mass-matrix norm.
    """
    if degree < 4:
        raise ValueError("degree must be at least 4")
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must have positive length")
    nodes, weights = gauss_legendre(degree + 8)
    dim = degree - 1
    table = legendre_table(degree, nodes)
    return SpectralBasis1D(
        degree=degree,
        interval=(a, b),
        jacobian=(b - a) / 2.0,
        offset=(a + b) / 2.0,
        mass=shen_mass_matrix(dim),
        stiffness=np.diag(shen_stiffness_diagonal(dim)),
        quad_nodes=nodes,
        quad_weights=weights,
        basis_at_quad=table[:dim] - table[2 : dim + 2],
    )


@dataclass
class ModalField2D:
    """coeffs[i][j] multiplies phi_i(x) phi_j(y)."""

    coeffs: np.ndarray
    basis_x: SpectralBasis1D
    basis_y: SpectralBasis1D


def evaluate_field(field, x, y):
    """Field values on the tensor grid x cross y, shape (len(x), len(y))."""
    px = field.basis_x.basis_values(x)
    py = field.basis_y.basis_values(y)
    return px.T @ field.coeffs @ py


def eigen_mass(basis_x, basis_y):
    """(dim_x, dim_y) diagonal J_x J_y lam_x lam_y of the mass operator in eigen-coordinates.

    The squared L2 norm of a field with eigen-coordinates v is
    sum(eigen_mass * v**2).
    """
    jx, jy = basis_x.jacobian, basis_y.jacobian
    return (jx * jy) * basis_x.eigenvalues[:, None] * basis_y.eigenvalues[None, :]


# Values per block temporary in the blocked evaluators: a stack of time
# levels is processed LEVEL_BLOCK_VALUES // (values per level) levels at a
# time, at least one.  The constant bounds the temporaries of the solver's
# norm, error and back-map pass (AdiSolver._take, which is also its
# finiteness check) to a few arrays of 2**14 doubles (128 kB) each, whatever
# the step count, while a block still holds enough levels (45 at N = 20,
# whose levels hold 19 x 19 coefficients) to amortise the per-block
# Python overhead.
LEVEL_BLOCK_VALUES = 2**14


def level_blocks(count, values_per_level):
    """Ranges (start, stop) that cover range(count) in blocks of levels.

    Each block holds max(1, LEVEL_BLOCK_VALUES // values_per_level) levels.
    """
    size = max(1, LEVEL_BLOCK_VALUES // values_per_level)
    return [(b, min(b + size, count)) for b in range(0, count, size)]


def grid_values(profiles, basis_x, basis_y):
    """(P, Qx, Qy) values of P profiles on the Gauss grid, x of shape (Qx, 1), y (1, Qy)."""
    x, y = basis_x.nodes[:, None], basis_y.nodes[None, :]
    grid = np.empty((len(profiles), basis_x.quad_count, basis_y.quad_count))
    for p, profile in enumerate(profiles):
        grid[p] = profile.values(x, y)
    return grid


def shen_loads(grid, basis_x, basis_y):
    """(P, dim_x, dim_y) inner products, by the Gauss rule, of P grid functions with the basis."""
    bx, by = basis_x, basis_y
    return (bx.basis_at_quad * bx.weights) @ grid @ (by.basis_at_quad * by.weights).T


def grid_factor(grid, basis_x, basis_y):
    """R factor of the thin QR of P weighted grid functions, a (P, P) matrix.

    With sqrt(W) the square roots of the Gauss weights, the columns of
    the QR are sqrt(W) * grid[p]; so the grid norm of sum_p t_p grid[p] is
    the Euclidean norm of sum_p t_p r[:, p].  scipy.linalg.qr, not numpy's,
    for the reason eigen_factors gives.  A non-finite grid value makes
    the factor non-finite.
    """
    count = len(grid)
    root = np.sqrt(basis_x.weights)[:, None] * np.sqrt(basis_y.weights)[None, :]
    weighted = (grid * root).reshape(count, root.size).T
    return scipy.linalg.qr(weighted, mode="r", check_finite=False)[0][:count]


def projection_factors(grid, basis_x, basis_y):
    """(eigen, r): the per-run factors of P profiles that level_norms needs.

    grid holds the profiles' (P, Qx, Qy) values (grid_values).  eigen,
    (P, dim_x, dim_y), are the eigen-coordinates E_x^T b_p E_y / eigen_mass
    of each profile's projection onto the basis, with b_p its Shen loads
    (shen_loads); r is the grid_factor of the residuals, the profiles
    minus their projections on the grid.
    """
    bx, by = basis_x, basis_y
    eigen = bx.eigenvectors.T @ shen_loads(grid, bx, by) @ by.eigenvectors
    eigen /= eigen_mass(bx, by)
    residual = grid - bx.basis_at_quad.T @ from_eigen(eigen, bx, by) @ by.basis_at_quad
    return eigen, grid_factor(residual, bx, by)


def _factor_squares(t, r):
    """||sum_p t[n, p] r[:, p]||^2 for each row n of an (L, P) stack t.

    The profiles are summed in order (problems.profile_sum) and each row
    on its own, so a row's value has the same bits in every stack.
    """
    start = np.zeros((len(t), len(r)))
    return np.sum(profile_sum(t.T[:, :, None], r.T[:, None, :], start) ** 2, axis=1)


def factor_norms(table, r):
    """||sum_p table[p, n] r[:, p]|| for each column n of a (P, L) table.

    For r = grid_factor(grid) these are the grid norms of the levels
    sum_p table[p, n] grid[p], at O(P^2) per level.
    """
    return stack_norms(lambda t: _factor_squares(t, r), table.T)


def level_norms(v, basis_x, basis_y, table=None, factors=None):
    """Grid norms of u_n - sum_p table[p, n] phi_p, one per level n of v.

    v is the (L, dim_x, dim_y) stack of the levels u_n in
    eigen-coordinates (to_eigen), table a (P, L) table of time factors
    and factors = projection_factors of the P profiles phi_p; without a
    table these are the norms of the u_n.  The Gauss rule of build_basis
    integrates products of basis functions exactly, and the residuals
    phi_p - Pi phi_p of the projections Pi phi_p are grid-orthogonal to
    the basis, so with d_n = sum_p table[p, n] eigen_p - v_n the squared
    norm is sum(eigen_mass * d_n**2) + ||sum_p table[p, n] r[:, p]||^2.
    Both sums run over the profiles in order (problems.profile_sum) and
    each level is summed on its own, so a level's norm has the same bits
    in every stack.  Both parts share one power-of-two shift per level
    where the squares overflow (stack_norms).
    """
    mass = eigen_mass(basis_x, basis_y)
    if table is None:
        return stack_norms(lambda v: np.sum(mass * v**2, axis=(1, 2)), v)
    eigen, r = factors

    def squared(t, v):
        d = profile_sum(t.T[:, :, None, None], eigen) - v
        return np.sum(mass * d**2, axis=(1, 2)) + _factor_squares(t, r)

    return stack_norms(squared, table.T, v)


def l2_error(field, exact):
    """L2 distance between the field and a vectorized exact(x, y).

    exact receives x of shape (Qx, 1) and y of shape (1, Qy); the
    distance is the grid norm of level_norms, with exact as one profile.
    """
    bx, by = field.basis_x, field.basis_y
    factors = projection_factors(grid_values((SpatialProfile(values=exact),), bx, by), bx, by)
    v = to_eigen(field.coeffs, bx, by)[None]
    return float(level_norms(v, bx, by, np.ones((1, 1)), factors)[0])


def stack_norms(squared, *stacks):
    """Square roots of squared(*stacks), one per level (axis 0 of every stack).

    squared must be a sum of squares of linear combinations of the
    entries (homogeneous of degree two in all stacks together).  Where a
    result is not finite, every level is first divided, in each stack, by
    one power of two near its largest entry in any of them, which keeps
    the squares of a finite level finite; the division is exact, so both
    ways give the same bits wherever the plain squares do not overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # handled below
        out = np.sqrt(squared(*stacks))
    if not np.isfinite(out).all():
        top = [np.abs(s).max(axis=tuple(range(1, s.ndim)), initial=0.0) for s in stacks]
        shift = np.frexp(np.max(top, axis=0))[1]
        scaled = [np.ldexp(s, -shift.reshape((-1,) + (1,) * (s.ndim - 1))) for s in stacks]
        out = np.ldexp(np.sqrt(squared(*scaled)), shift)
    return out


class ShenSystemSolver:
    """Factored solver for (a * mass + b * stiffness) in one direction.

    The matrix is symmetric positive definite; it is Cholesky-factored
    once and the factor is reused for every solve.  The stepper divides
    in eigen-coordinates instead; this solve is the reference its sweeps
    are tested against.
    """

    def __init__(self, basis, mass_coef, stiff_coef):
        if mass_coef <= 0.0 or stiff_coef < 0.0:
            raise ValueError("need mass_coef > 0 and stiff_coef >= 0")
        matrix = mass_coef * basis.mass + stiff_coef * basis.stiffness
        self._factor = scipy.linalg.cho_factor(matrix)

    def solve(self, rhs):
        """Solve along axis 0 of rhs (vector or matrix)."""
        return scipy.linalg.cho_solve(self._factor, np.asarray(rhs, dtype=float))
