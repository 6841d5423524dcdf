"""Seeded random problems: every march ends stable or with a starting-weight error."""
import numpy as np
import pytest

from fracadi.cli import build_custom_problem
from fracadi.solver import run
from fracadi.weights import StartingWeightError

SEED = 20261018
CASES = 60


def numbers(values):
    return ", ".join(repr(float(v)) for v in values)


def random_case(rng):
    """(problem, m, exponents) with random orders, coefficients and rectangle.

    alpha in (1.05, 1.95) with up to two lower orders in (0.05, alpha)
    weighted by [0, 2]; mu in [0.1, 3]; a rectangle with corners in
    [-2, 1] and sides in [0.5, 3]; a forcing of two sine modes with
    power-law time factors; m <= 4 exponents in (1.05, 2.5).
    """
    alpha = rng.uniform(1.05, 1.95)
    alphas = sorted(rng.uniform(0.05, alpha, rng.integers(0, 3)), reverse=True)
    corner = rng.uniform(-2.0, 1.0, 2)
    side = rng.uniform(0.5, 3.0, 2)
    section = {
        "alpha": numbers([alpha]),
        "mu": numbers([rng.uniform(0.1, 3.0)]),
        "domain": numbers([corner[0], corner[0] + side[0], corner[1], corner[1] + side[1]]),
    }
    for kx, ky in ((1, 1), rng.integers(1, 4, 2)):
        pair = f"{rng.uniform(0.5, 2.0)!r} {rng.uniform(0.0, 3.0)!r}"
        key = f"forcing_mode_{kx}_{ky}"
        section[key] = f"{section[key]}, {pair}" if key in section else pair
    if alphas:
        section["alphas"] = numbers(alphas)
        section["coeffs"] = numbers(rng.uniform(0.0, 2.0, len(alphas)))
    m = int(rng.integers(0, 5))
    exponents = tuple(np.sort(rng.uniform(1.05, 2.5, m))) or None
    return build_custom_problem(section), m, exponents


@pytest.mark.parametrize("case", range(CASES))
def test_random_problem_is_stable(case):
    problem, m, exponents = random_case(np.random.default_rng([SEED, case]))
    try:
        res = run(problem, 8, 40, 1.0, correction_terms=m, exponents=exponents, bootstrap_ratio=10)
    except StartingWeightError:
        return
    assert np.isfinite(res.coeffs).all()
    assert 0.0 < res.stability_ratio <= 1.0
