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
from scipy.linalg import cho_solve_banded, cholesky_banded

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


def legendre_deriv_table(nmax, x):
    """Values of L_0'..L_nmax' at x, via (1-x^2) L_n' = n (L_{n-1} - x L_n)."""
    x = np.asarray(x, dtype=float)
    table = legendre_table(nmax, x)
    out = np.empty_like(table)
    out[0] = 0.0
    one_minus = 1.0 - x * x
    safe = np.where(one_minus == 0.0, 1.0, one_minus)
    for n in range(1, nmax + 1):
        out[n] = n * (table[n - 1] - x * table[n]) / safe
    if np.any(one_minus == 0.0):
        # endpoint values L_n'(+-1) = (+-1)^{n-1} n (n+1) / 2
        for n in range(1, nmax + 1):
            endpoint = n * (n + 1) / 2.0
            out[n] = np.where(x == 1.0, endpoint, out[n])
            out[n] = np.where(x == -1.0, endpoint * (-1.0) ** (n - 1), out[n])
    return out


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
    functions exactly, with headroom for smooth data.
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


def project_source(f, basis_x, basis_y):
    """Matrix of inner products (f, phi_i psi_j) over the physical rectangle.

    f is a vectorized function of physical (x, y); the mapped-quadrature
    Jacobian factors are included.
    """
    fx = f(basis_x.nodes[:, None], basis_y.nodes[None, :])
    fx = np.broadcast_to(fx, (basis_x.quad_count, basis_y.quad_count))
    px = basis_x.basis_at_quad * basis_x.weights
    py = basis_y.basis_at_quad * basis_y.weights
    return px @ fx @ py.T


def grid_norms(vals, basis_x, basis_y):
    """L2 norms by quadrature of a (levels, Qx, Qy) stack of grid values."""
    wx, wy = basis_x.weights, basis_y.weights
    return stack_norms(lambda v: wx @ v**2 @ wy, vals)


# Values per block temporary in the blocked evaluators: a stack of time
# levels is processed LEVEL_BLOCK_VALUES // (values per level) levels at a
# time, at least one.  At 2**14 doubles (128 kB: 20 levels of a 28 x 28
# grid, 3 of a 72 x 72 one) the per-level Python overhead is amortised.
# Measured on 2 cores: 2**15 ran no faster but added 3.6 MB (3 %) to the
# peak RSS of the N = 64 table1 study, whose four concurrent levels each
# hold a few block temporaries; 2**13 added none there but ran the N = 20
# sampled marches about 10 % slower.
LEVEL_BLOCK_VALUES = 2**14


def level_blocks(count, values_per_level):
    """Ranges (start, stop) that cover range(count) in blocks of levels.

    Each block holds max(1, LEVEL_BLOCK_VALUES // values_per_level) levels.
    """
    size = max(1, LEVEL_BLOCK_VALUES // values_per_level)
    return [(b, min(b + size, count)) for b in range(0, count, size)]


def l2_errors(coeffs, basis_x, basis_y, exact, times):
    """L2 distances between the fields coeffs[n] and exact(x, y, times[n]).

    coeffs is a (levels, dim_x, dim_y) stack.  Levels are taken in blocks
    (see level_blocks): exact is called once per block with t of shape
    (B, 1, 1), x of shape (1, Qx, 1) and y of shape (1, 1, Qy), and must
    broadcast over all three.  The errors are quadratures of pointwise
    differences on the bases' own rules (grid_norms), so a finite
    difference has a finite error.
    """
    x = basis_x.nodes[None, :, None]
    y = basis_y.nodes[None, None, :]
    px, py = basis_x.basis_at_quad, basis_y.basis_at_quad
    times = np.asarray(times, dtype=float)
    out = np.empty(len(coeffs))
    for b, e in level_blocks(len(coeffs), basis_x.quad_count * basis_y.quad_count):
        target = exact(x, y, times[b:e, None, None])
        out[b:e] = grid_norms(px.T @ coeffs[b:e] @ py - target, basis_x, basis_y)
    return out


def l2_error(field, exact):
    """L2 distance between the field and a vectorized exact(x, y).

    exact receives x of shape (Qx, 1) and y of shape (1, Qy).
    """
    errors = l2_errors(
        field.coeffs[None],
        field.basis_x,
        field.basis_y,
        lambda x, y, t: exact(x[0], y[0]),
        np.zeros(1),
    )
    return float(errors[0])


def l2_norm(coeffs, basis_x, basis_y):
    """L2 norm of a modal coefficient matrix (exact, via mass matrices).

    For a (levels, dim_x, dim_y) stack it returns the array of the
    levels' norms, computed in blocks of levels (see level_blocks).
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim == 2:
        return float(l2_norm(coeffs[None], basis_x, basis_y)[0])
    scale = basis_x.jacobian * basis_y.jacobian

    def squared(block):
        quad = scale * np.sum(block * (basis_x.mass @ block @ basis_y.mass), axis=(1, 2))
        # tiny negative round-off can appear for near-zero fields
        return np.maximum(quad, 0.0)

    out = np.empty(len(coeffs))
    for b, e in level_blocks(len(coeffs), coeffs.shape[1] * coeffs.shape[2]):
        out[b:e] = stack_norms(squared, coeffs[b:e])
    return out


def stack_norms(squared, stack):
    """Square roots of squared(stack), one per level of a (levels, n, m) stack.

    squared must be a sum of squares of the entries (homogeneous of degree
    two).  Where a result is not finite, every level is first divided by a
    power of two near its largest entry, which keeps the squares of a
    finite level finite; the division is exact, so both ways give the same
    bits wherever the plain squares do not overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # handled below
        out = np.sqrt(squared(stack))
    if not np.isfinite(out).all():
        shift = np.frexp(np.max(np.abs(stack), axis=(1, 2), keepdims=True))[1]
        out = np.ldexp(np.sqrt(squared(np.ldexp(stack, -shift))), shift[:, 0, 0])
    return out


class ShenSystemSolver:
    """Factored solver for (a * mass + b * stiffness) in one direction.

    Even and odd basis indices never couple, so the system splits into
    two symmetric positive definite tridiagonal problems; both are
    Cholesky-factored in banded form once and reused for every solve.
    The stepper divides in eigen-coordinates instead; this banded solve is
    the reference its sweeps are tested against.
    """

    def __init__(self, basis, mass_coef, stiff_coef):
        if mass_coef <= 0.0 or stiff_coef < 0.0:
            raise ValueError("need mass_coef > 0 and stiff_coef >= 0")
        dim = basis.dim
        matrix = mass_coef * basis.mass + stiff_coef * basis.stiffness
        self._parts = []
        for start in (0, 1):
            idx = np.arange(start, dim, 2)
            sub = matrix[np.ix_(idx, idx)]
            n = len(idx)
            banded = np.zeros((2, n))
            banded[1] = np.diag(sub)
            if n > 1:
                banded[0, 1:] = np.diag(sub, 1)
            self._parts.append((idx, cholesky_banded(banded, lower=False)))

    def solve(self, rhs):
        """Solve along axis 0 of rhs (vector or matrix)."""
        rhs = np.asarray(rhs, dtype=float)
        out = np.empty_like(rhs)
        for idx, factor in self._parts:
            out[idx] = cho_solve_banded((factor, False), rhs[idx])
        return out
