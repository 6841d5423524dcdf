"""Model problems for the multi-term time-fractional solver.

Each problem states C D^alpha u + sum_j a_j C D^{alpha_j} u =
mu Laplacian(u) + f on a rectangle with homogeneous Dirichlet data,
u(0) = g1 and u_t(0) = g2.  Separable power-law structure
(sum of c * t^gamma * s(x, y) terms) is carried explicitly where known
so fractional integrals of the forcing have closed forms and the PDE
residual can be checked pointwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import power_factor

# Points per edge at which boundary_mismatch samples the exact solution.
BOUNDARY_SAMPLES = 201


@dataclass(frozen=True)
class Rectangle:
    ax: float
    bx: float
    ay: float
    by: float

    def __post_init__(self):
        if not (self.bx > self.ax and self.by > self.ay):
            raise ValueError("rectangle must have positive side lengths")
        if not all(map(math.isfinite, (self.ax, self.bx, self.ay, self.by))):
            raise ValueError("rectangle corners must be finite")

    @property
    def x_interval(self):
        return (self.ax, self.bx)

    @property
    def y_interval(self):
        return (self.ay, self.by)


@dataclass(frozen=True)
class SpatialProfile:
    """A spatial factor and (when known) its Laplacian, both vectorized.

    values(x, y) and laplacian(x, y) broadcast their arguments like numpy
    ufuncs; the solver evaluates values once per run on the Gauss grid,
    x of shape (Qx, 1) against y of shape (1, Qy) (basis.grid_values).
    """

    values: callable
    laplacian: callable = None


@dataclass(frozen=True)
class SeparableTerm:
    """One c * t^exponent * profile(x, y) contribution."""

    coefficient: float
    exponent: float
    profile: SpatialProfile

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficients must be finite")
        if self.exponent < 0.0:
            raise ValueError("time exponents must be nonnegative")
        if not math.isfinite(self.exponent):
            raise ValueError("time exponents must be finite")


def term_table(terms, t):
    """(profiles, table) of a term tuple at the times t.

    profiles are the terms' distinct profiles in order of first use, and
    table[p] sums coefficient * t**exponent over the terms on profiles[p],
    in term order; table has shape (P,) + the shape of t.
    """
    factors = {}
    for term in terms:
        part = term.coefficient * t**term.exponent
        factors[term.profile] = factors.get(term.profile, 0.0) + part
    return tuple(factors), np.array(list(factors.values())).reshape((len(factors),) + np.shape(t))


def profile_sum(factors, values, total=0.0):
    """total + sum_p factors[p] * values[p], added in order.

    The one sum over profiles of evaluate_terms and of the norms in basis
    (level_norms, factor_norms): a level's sum has the same bits however
    many levels the factors hold.
    """
    for factor, value in zip(factors, values):
        total = total + factor * value
    return total


def evaluate_terms(terms, x, y, t):
    """Sum of coefficient * t**exponent * profile.values(x, y) over terms.

    Each distinct profile is evaluated once; t may be an array that
    broadcasts against x and y.
    """
    profiles, table = term_table(terms, t)
    return profile_sum(table, (profile.values(x, y) for profile in profiles))


def caputo_power_factor(order, exponent):
    """(coefficient, new exponent) of the Caputo derivative of t^exponent.

    Returns None when the derivative vanishes identically (exponent an
    integer not exceeding ceil(order) - 1, constants included).
    """
    if order < 0.0:
        raise ValueError("caputo_power_factor expects a nonnegative order")
    n = math.ceil(order) if order > 0.0 else 0
    if exponent < 0.0:
        raise ValueError("exponent must be nonnegative")
    if float(exponent).is_integer() and exponent <= n - 1:
        return None
    if exponent <= n - 1:
        raise ValueError(
            f"Caputo derivative of t^{exponent} undefined for order {order}"
        )
    return power_factor(order, exponent), exponent - order


@dataclass(frozen=True)
class ProblemSpec:
    """One model problem; orders sorted as alpha > alpha_1 > ... > alpha_Q."""

    name: str
    alpha: float
    alphas: tuple
    coeffs: tuple
    mu: float
    domain: Rectangle
    forcing_terms: tuple = ()
    exact_terms: tuple = ()
    g1: SpatialProfile = None
    g2: SpatialProfile = None

    def __post_init__(self):
        # each message starts with the field it rejects
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha: leading order must lie in (1, 2)")
        orders = (self.alpha,) + tuple(self.alphas)
        if any(b <= a for a, b in zip(orders[1:], orders)):
            raise ValueError("alphas: orders must be strictly decreasing after alpha")
        if self.alphas and self.alphas[-1] <= 0.0:
            raise ValueError("alphas: lower orders must be positive")
        if not all(map(math.isfinite, self.alphas)):
            raise ValueError("alphas: lower orders must be finite")
        if len(self.alphas) != len(self.coeffs):
            raise ValueError("coeffs: one coefficient per lower-order term")
        if any(a < 0.0 for a in self.coeffs):
            raise ValueError("coeffs: lower-order coefficients must be nonnegative")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("coeffs: lower-order coefficients must be finite")
        if self.mu <= 0.0:
            raise ValueError("mu: diffusion coefficient must be positive")
        if not math.isfinite(self.mu):
            raise ValueError("mu: diffusion coefficient must be finite")

    def f(self, x, y, t):
        return evaluate_terms(self.forcing_terms, x, y, t)

    def exact(self, x, y, t):
        if not self.exact_terms:
            raise ValueError(f"problem {self.name} has no exact solution")
        return evaluate_terms(self.exact_terms, x, y, t)

    @property
    def has_exact(self):
        return bool(self.exact_terms)


def boundary_mismatch(problem, t):
    """Largest |exact| on the four edges at time t (Dirichlet defect)."""
    if not problem.has_exact:
        return 0.0
    d = problem.domain
    xs = np.linspace(d.ax, d.bx, BOUNDARY_SAMPLES)
    ys = np.linspace(d.ay, d.by, BOUNDARY_SAMPLES)
    worst = 0.0
    for edge in (
        (xs, np.full_like(xs, d.ay)),
        (xs, np.full_like(xs, d.by)),
        (np.full_like(ys, d.ax), ys),
        (np.full_like(ys, d.bx), ys),
    ):
        worst = max(worst, float(np.max(np.abs(problem.exact(edge[0], edge[1], t)))))
    return worst


def _gaussian_bump():
    def values(x, y):
        return np.exp(-(x**2 + y**2))

    def laplacian(x, y):
        return (4.0 * (x**2 + y**2) - 4.0) * np.exp(-(x**2 + y**2))

    return SpatialProfile(values=values, laplacian=laplacian)


def _sine_product(factor=np.pi):
    def values(x, y):
        return np.sin(factor * x) * np.sin(factor * y)

    def laplacian(x, y):
        return -2.0 * factor**2 * np.sin(factor * x) * np.sin(factor * y)

    return SpatialProfile(values=values, laplacian=laplacian)


def _smooth(name, domain, profile, laplacian_term):
    """u = t^3 * profile with the orders of Example 6.1.

    The forcing is the three Caputo terms of t^3, then laplacian_term,
    the member's own -mu Laplacian(u) term.
    """
    g = math.gamma(4.0)
    forcing = (
        SeparableTerm(g / math.gamma(2.5), 1.5, profile),
        SeparableTerm(3.0, 2.0, profile),
        SeparableTerm(g / math.gamma(3.6), 2.6, profile),
        laplacian_term,
    )
    return ProblemSpec(
        name=name,
        alpha=1.5,
        alphas=(1.0, 0.4),
        coeffs=(1.0, 1.0),
        mu=2.0,
        domain=domain,
        forcing_terms=forcing,
        exact_terms=(SeparableTerm(1.0, 3.0, profile),),
    )


def _nonsmooth(name, domain, factor):
    """u = (sum_{k=1}^{6} t^{1+0.1k}/(k+1) + 2) sin(factor x) sin(factor y).

    The orders are Example 6.2's; Laplacian(profile) = -2 factor^2 profile.
    """
    profile = _sine_product(factor)
    alpha, alphas, coeffs, mu = 1.1, (1.0, 0.1), (1.0, 1.0), 2.0
    lap_factor = -2.0 * factor**2
    exact = [SeparableTerm(1.0 / (k + 1.0), 1.0 + 0.1 * k, profile) for k in range(1, 7)]
    exact.append(SeparableTerm(2.0, 0.0, profile))
    forcing = []
    for term in exact:  # the constant has no Caputo derivative
        for order, a in zip((alpha,) + alphas, (1.0,) + coeffs):
            fact = caputo_power_factor(order, term.exponent)
            if fact is not None:
                forcing.append(SeparableTerm(a * term.coefficient * fact[0], fact[1], profile))
    # -mu * Laplacian(u): every exact term contributes, including the constant
    for k in range(1, 7):
        forcing.append(SeparableTerm(-mu * lap_factor / (k + 1.0), 1.0 + 0.1 * k, profile))
    forcing.append(SeparableTerm(-mu * lap_factor * 2.0, 0.0, profile))
    return ProblemSpec(
        name=name,
        alpha=alpha,
        alphas=alphas,
        coeffs=coeffs,
        mu=mu,
        domain=domain,
        forcing_terms=tuple(forcing),
        exact_terms=tuple(exact),
        g1=SpatialProfile(
            values=lambda x, y: 2.0 * np.sin(factor * x) * np.sin(factor * y),
            laplacian=lambda x, y: lap_factor * 2.0 * np.sin(factor * x) * np.sin(factor * y),
        ),
    )


def example_6_1():
    """Smooth manufactured solution t^3 exp(-(x^2+y^2)).

    The Gaussian does not vanish on the boundary of the printed domain,
    so the Dirichlet solver only reproduces it qualitatively; the
    mismatch is reported, not hidden.
    """
    # -mu Laplacian(u) = 2 t^3 (4 - 4 r^2) exp(-r^2), on a profile of its own
    lap = SpatialProfile(lambda x, y: (4.0 - 4.0 * (x**2 + y**2)) * np.exp(-(x**2 + y**2)))
    domain = Rectangle(-2.0, 1.0, -1.0, 2.0)
    return _smooth("example_6_1", domain, _gaussian_bump(), SeparableTerm(2.0, 3.0, lap))


def example_6_2():
    """Low-regularity solution with nonzero initial value, printed domain.

    u = (sum_{k=1}^{6} t^{1+0.1k}/(k+1) + 2) sin x sin y on
    (-2, 1) x (-1, 2); sin x sin y does not vanish on that boundary, so
    this is registered for qualitative runs only.
    """
    return _nonsmooth("example_6_2", Rectangle(-2.0, 1.0, -1.0, 2.0), 1.0)


def compatible_smooth():
    """Smooth solution t^3 sin(pi x) sin(pi y) on (-1, 1)^2.

    Same fractional orders as the Gaussian example but with exact
    homogeneous Dirichlet data, so quantitative convergence rates are
    meaningful.
    """
    profile = _sine_product()
    lap = SeparableTerm(2.0 * 2.0 * np.pi**2, 3.0, profile)  # -mu Laplacian(u), mu = 2
    return _smooth("compatible_smooth", Rectangle(-1.0, 1.0, -1.0, 1.0), profile, lap)


def compatible_nonsmooth():
    """Low-regularity powers with exact boundary data on (-1, 1)^2.

    u = (sum_{k=1}^{6} t^{1+0.1k}/(k+1) + 2) sin(pi x) sin(pi y) with the
    same orders as the printed low-regularity example; the t^{1.1}
    leading power caps the uncorrected scheme near first order and is
    what the starting corrections are for.
    """
    return _nonsmooth("compatible_nonsmooth", Rectangle(-1.0, 1.0, -1.0, 1.0), np.pi)


_REGISTRY = {
    "example_6_1": example_6_1,
    "example_6_2": example_6_2,
    "compatible_smooth": compatible_smooth,
    "compatible_nonsmooth": compatible_nonsmooth,
}

PROBLEM_IDS = tuple(sorted(_REGISTRY))


def get_problem(name):
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_IDS)}"
        ) from None
