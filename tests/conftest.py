"""Shared fixtures: seeded RNG, modal projection helpers and the strong residual."""
import numpy as np
import pytest

from fracadi.basis import build_basis
from fracadi.problems import caputo_power_factor, evaluate_terms


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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


def project_field(func, basis_x, basis_y):
    """Modal coefficients of the L2 projection of func(x, y)."""
    rhs = project_source(func, basis_x, basis_y)
    tmp = np.linalg.solve(basis_x.jacobian * basis_x.mass, rhs)
    return np.linalg.solve(basis_y.jacobian * basis_y.mass, tmp.T).T


def exact_starting_values(tp, basis_x, basis_y, tau, count):
    """L2 projections of the reduced exact solution at t_1 .. t_count."""
    return [
        project_field(lambda x, y, t=j * tau: evaluate_terms(tp.exact, x, y, t), basis_x, basis_y)
        for j in range(1, count + 1)
    ]


def pde_residual(problem, x, y, t):
    """Pointwise residual of the exact solution in the strong equation.

    Needs exact_terms with Laplacians; Caputo derivatives of each power
    term come from the Gamma-function formula.
    """
    if not problem.has_exact:
        raise ValueError("residual needs an exact solution")
    res = -problem.f(x, y, t)
    for term in problem.exact_terms:
        if term.profile.laplacian is None:
            raise ValueError("every exact term needs a Laplacian for the residual")
        res = res - problem.mu * term.coefficient * t**term.exponent * term.profile.laplacian(x, y)
        for order, coef in zip(
            (problem.alpha,) + tuple(problem.alphas), (1.0,) + tuple(problem.coeffs)
        ):
            fact = caputo_power_factor(order, term.exponent)
            if fact is None:
                continue
            res = res + coef * term.coefficient * fact[0] * t ** fact[1] * term.profile.values(x, y)
    return res


@pytest.fixture
def projector():
    return project_field


@pytest.fixture
def exact_seeder():
    return exact_starting_values


@pytest.fixture
def unit_bases():
    """A small tensor basis pair on (-1, 1)^2."""
    return build_basis(8, (-1.0, 1.0)), build_basis(8, (-1.0, 1.0))
