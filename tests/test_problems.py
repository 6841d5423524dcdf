"""Registered model problems: structure, residuals, boundary compatibility."""
import dataclasses
import math

import numpy as np
import pytest

from fracadi.problems import (
    PROBLEM_IDS,
    ProblemSpec,
    Rectangle,
    SeparableTerm,
    SpatialProfile,
    boundary_mismatch,
    caputo_power_factor,
    evaluate_terms,
    get_problem,
    pde_residual,
)
from fracadi.solver import reduce_order


def random_interior_points(domain, count, rng):
    x = rng.uniform(domain.ax, domain.bx, count)
    y = rng.uniform(domain.ay, domain.by, count)
    return x, y


class TestRectangle:
    def test_intervals(self):
        r = Rectangle(-2.0, 1.0, -1.0, 2.0)
        assert r.x_interval == (-2.0, 1.0)
        assert r.y_interval == (-1.0, 2.0)

    @pytest.mark.parametrize("args", [(1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, -1.0)])
    def test_degenerate_rejected(self, args):
        with pytest.raises(ValueError):
            Rectangle(*args)

    @pytest.mark.parametrize("args", [(0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0)])
    def test_infinite_corner_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            Rectangle(*args)


class TestSeparableTerm:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            SeparableTerm(1.0, -0.5, SpatialProfile(values=lambda x, y: x))

    @pytest.mark.parametrize(
        "coefficient, exponent, message",
        [
            (math.nan, 1.0, "coefficients must be finite"),
            (math.inf, 1.0, "coefficients must be finite"),
            (1.0, math.nan, "time exponents must be finite"),
            (1.0, math.inf, "time exponents must be finite"),
        ],
    )
    def test_non_finite_rejected(self, coefficient, exponent, message):
        with pytest.raises(ValueError, match=message):
            SeparableTerm(coefficient, exponent, SpatialProfile(values=lambda x, y: x))

    def test_evaluate_terms_empty(self):
        assert evaluate_terms((), 0.5, 0.5, 1.0) == 0.0

    def test_evaluate_terms_sum(self):
        prof = SpatialProfile(values=lambda x, y: x + y)
        terms = (SeparableTerm(2.0, 1.0, prof), SeparableTerm(3.0, 0.0, prof))
        assert evaluate_terms(terms, 1.0, 2.0, 0.5) == pytest.approx((2.0 * 0.5 + 3.0) * 3.0)

    @pytest.mark.parametrize("t", [0.7, np.array([0.0, 0.3, 1.0, 2.5])[:, None, None]])
    def test_evaluate_terms_groups_profiles(self, t, rng):
        calls = []

        def counted(name, func):
            def values(x, y):
                calls.append(name)
                return func(x, y)

            return SpatialProfile(values=values)

        lobe = counted("lobe", lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        hump = counted("hump", lambda x, y: np.cos(x) * np.exp(y))
        terms = (
            SeparableTerm(1.5, 1.1, lobe),
            SeparableTerm(-0.4, 0.0, hump),
            SeparableTerm(2.0, 2.6, lobe),
            SeparableTerm(0.3, 1.5, hump),
            SeparableTerm(-1.2, 3.0, lobe),
        )
        x = rng.uniform(-1.0, 1.0, 6)[None, :, None]
        y = rng.uniform(-1.0, 1.0, 5)[None, None, :]
        got = evaluate_terms(terms, x, y, t)
        assert sorted(calls) == ["hump", "lobe"]
        want = 0.0
        for term in terms:
            want = want + term.coefficient * t**term.exponent * term.profile.values(x, y)
        assert got.shape == np.broadcast(x, y, t).shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


class TestCaputoPowerFactor:
    def test_cubic_under_order_three_halves(self):
        fact = caputo_power_factor(1.5, 3.0)
        assert fact[0] == pytest.approx(math.gamma(4.0) / math.gamma(2.5), rel=1e-14)
        assert fact[1] == pytest.approx(1.5)
        # Gamma(4)/Gamma(2.5) = 6 / (1.5 * 0.5 * sqrt(pi))
        assert fact[0] == pytest.approx(6.0 / (0.75 * math.sqrt(math.pi)), rel=1e-14)

    @pytest.mark.parametrize("exponent", [0.0, 1.0])
    def test_low_integer_powers_annihilated(self, exponent):
        assert caputo_power_factor(1.5, exponent) is None

    def test_constant_annihilated_below_order_one(self):
        assert caputo_power_factor(0.4, 0.0) is None

    def test_weak_noninteger_power_rejected(self):
        with pytest.raises(ValueError):
            caputo_power_factor(1.5, 0.5)

    def test_exponent_above_threshold_kept(self):
        fact = caputo_power_factor(1.1, 1.1)
        assert fact[0] == pytest.approx(math.gamma(2.1), rel=1e-14)
        assert fact[1] == pytest.approx(0.0, abs=1e-15)


class TestProblemSpecValidation:
    def base_kwargs(self):
        return dict(
            name="t",
            alpha=1.5,
            alphas=(1.0,),
            coeffs=(1.0,),
            mu=1.0,
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
        )

    def test_alpha_out_of_range(self):
        kw = self.base_kwargs()
        kw["alpha"] = 2.0
        with pytest.raises(ValueError, match="leading order"):
            ProblemSpec(**kw)

    def test_orders_not_decreasing(self):
        kw = self.base_kwargs()
        kw["alphas"] = (1.6,)
        with pytest.raises(ValueError, match="decreasing"):
            ProblemSpec(**kw)

    def test_nonpositive_trailing_order(self):
        kw = self.base_kwargs()
        kw["alphas"] = (1.0, 0.0)
        kw["coeffs"] = (1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            ProblemSpec(**kw)

    def test_coefficient_count_mismatch(self):
        kw = self.base_kwargs()
        kw["coeffs"] = (1.0, 2.0)
        with pytest.raises(ValueError, match="one coefficient"):
            ProblemSpec(**kw)

    def test_negative_coefficient(self):
        kw = self.base_kwargs()
        kw["coeffs"] = (-0.1,)
        with pytest.raises(ValueError, match="nonnegative"):
            ProblemSpec(**kw)

    def test_nonpositive_diffusion(self):
        kw = self.base_kwargs()
        kw["mu"] = 0.0
        with pytest.raises(ValueError, match="diffusion"):
            ProblemSpec(**kw)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"alpha": 2.0}, "alpha: leading order must lie in (1, 2)"),
            ({"alpha": math.nan}, "alpha: leading order must lie in (1, 2)"),
            ({"alphas": (1.6,)}, "alphas: orders must be strictly decreasing after alpha"),
            ({"alphas": (1.0, 0.0), "coeffs": (1.0, 1.0)}, "alphas: lower orders must be positive"),
            (
                {"alphas": (1.0, math.nan), "coeffs": (1.0, 1.0)},
                "alphas: lower orders must be finite",
            ),
            ({"coeffs": (1.0, 2.0)}, "coeffs: one coefficient per lower-order term"),
            ({"coeffs": (-0.1,)}, "coeffs: lower-order coefficients must be nonnegative"),
            ({"coeffs": (math.nan,)}, "coeffs: lower-order coefficients must be finite"),
            ({"coeffs": (math.inf,)}, "coeffs: lower-order coefficients must be finite"),
            ({"mu": 0.0}, "mu: diffusion coefficient must be positive"),
            ({"mu": math.nan}, "mu: diffusion coefficient must be finite"),
            ({"mu": math.inf}, "mu: diffusion coefficient must be finite"),
        ],
    )
    def test_messages_start_with_the_field(self, changes, message):
        kw = self.base_kwargs()
        kw.update(changes)
        with pytest.raises(ValueError) as info:
            ProblemSpec(**kw)
        assert str(info.value) == message
        assert message.partition(": ")[0] in {f.name for f in dataclasses.fields(ProblemSpec)}

    def test_exact_unavailable(self):
        spec = ProblemSpec(**self.base_kwargs())
        assert not spec.has_exact
        with pytest.raises(ValueError, match="no exact solution"):
            spec.exact(0.0, 0.0, 1.0)

    def test_default_initial_data_is_zero(self):
        spec = ProblemSpec(**self.base_kwargs())
        assert spec.g1 is None and spec.g2 is None
        tp = reduce_order(spec)
        assert tp.lift is None and tp.g == ()


class TestRegistry:
    def test_problem_ids(self):
        assert PROBLEM_IDS == (
            "compatible_nonsmooth",
            "compatible_smooth",
            "example_6_1",
            "example_6_2",
        )

    def test_unknown_problem(self):
        with pytest.raises(KeyError, match="unknown problem"):
            get_problem("missing")

    @pytest.mark.parametrize("name", PROBLEM_IDS)
    def test_all_registered_problems_build(self, name):
        spec = get_problem(name)
        assert spec.name == name
        assert spec.has_exact

    @pytest.mark.parametrize(
        "printed, compatible",
        [("example_6_1", "compatible_smooth"), ("example_6_2", "compatible_nonsmooth")],
    )
    def test_family_members_differ_only_in_domain_and_profiles(self, printed, compatible):
        # the printed example and its compatible variant share orders,
        # coefficients, mu, time dependence and whether u(0) is set
        a, b = get_problem(printed), get_problem(compatible)
        assert (a.alpha, a.alphas, a.coeffs, a.mu) == (b.alpha, b.alphas, b.coeffs, b.mu)
        powers = [sorted((t.exponent, t.coefficient) for t in s.exact_terms) for s in (a, b)]
        assert powers[0] == powers[1]
        assert (a.g1 is None) == (b.g1 is None)


class TestCompatibleSmooth:
    def test_orders_and_coefficients(self):
        spec = get_problem("compatible_smooth")
        assert spec.alpha == 1.5
        assert spec.alphas == (1.0, 0.4)
        assert spec.coeffs == (1.0, 1.0)
        assert spec.mu == 2.0
        assert spec.domain == Rectangle(-1.0, 1.0, -1.0, 1.0)

    def test_forcing_time_structure(self):
        spec = get_problem("compatible_smooth")
        got = sorted((t.exponent, t.coefficient) for t in spec.forcing_terms)
        g4 = math.gamma(4.0)
        want = sorted(
            [
                (1.5, g4 / math.gamma(2.5)),
                (2.0, 3.0),
                (2.6, g4 / math.gamma(3.6)),
                (3.0, 2.0 * 2.0 * math.pi**2),
            ]
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_forcing_vanishes_at_time_zero(self):
        spec = get_problem("compatible_smooth")
        assert spec.f(0.3, -0.4, 0.0) == 0.0

    def test_exact_is_cubic_sine_product(self):
        spec = get_problem("compatible_smooth")
        x, y, t = 0.3, -0.7, 0.9
        want = t**3 * math.sin(math.pi * x) * math.sin(math.pi * y)
        assert spec.exact(x, y, t) == pytest.approx(want, rel=1e-14)

    def test_zero_initial_data(self):
        spec = get_problem("compatible_smooth")
        assert spec.g1 is None and spec.g2 is None


class TestCompatibleNonsmooth:
    def test_exact_power_set(self):
        spec = get_problem("compatible_nonsmooth")
        got = sorted((t.exponent, t.coefficient) for t in spec.exact_terms)
        want = sorted([(1.0 + 0.1 * k, 1.0 / (k + 1.0)) for k in range(1, 7)] + [(0.0, 2.0)])
        assert got == pytest.approx(want, rel=1e-14)

    def test_initial_value_matches_constant_term(self):
        spec = get_problem("compatible_nonsmooth")
        x = np.linspace(-1.0, 1.0, 7)[:, None]
        y = np.linspace(-1.0, 1.0, 5)[None, :]
        np.testing.assert_allclose(spec.g1.values(x, y), spec.exact(x, y, 0.0), atol=1e-15)

    def test_leading_forcing_constant(self):
        # Caputo of the t^{1.1}/2 term at its own order leaves Gamma(2.1)/2 t^0
        spec = get_problem("compatible_nonsmooth")
        const_terms = [t.coefficient for t in spec.forcing_terms if t.exponent == 0.0]
        assert any(
            c == pytest.approx(math.gamma(2.1) / 2.0, rel=1e-13) for c in const_terms
        )

    def test_g1_laplacian_consistent(self):
        spec = get_problem("compatible_nonsmooth")
        x, y = 0.25, -0.5
        want = -2.0 * math.pi**2 * spec.g1.values(x, y)
        assert spec.g1.laplacian(x, y) == pytest.approx(want, rel=1e-13)


class TestResiduals:
    @pytest.mark.parametrize("name", PROBLEM_IDS)
    def test_pde_residual_vanishes(self, name, rng):
        spec = get_problem(name)
        x, y = random_interior_points(spec.domain, 50, rng)
        for t in (0.17, 0.62, 1.0):
            res = pde_residual(spec, x, y, t)
            assert np.max(np.abs(res)) <= 1e-10

    def test_residual_needs_laplacians(self):
        spec = ProblemSpec(
            name="t",
            alpha=1.5,
            alphas=(),
            coeffs=(),
            mu=1.0,
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
            exact_terms=(SeparableTerm(1.0, 2.0, SpatialProfile(values=lambda x, y: x * y)),),
        )
        with pytest.raises(ValueError, match="Laplacian"):
            pde_residual(spec, 0.1, 0.1, 0.5)


class TestBoundaryMismatch:
    def test_compatible_problems_have_zero_boundary_data(self):
        for name in ("compatible_smooth", "compatible_nonsmooth"):
            assert boundary_mismatch(get_problem(name), 1.0) <= 1e-14

    def test_printed_gaussian_example_defect(self):
        # exp(-1) at the closest boundary point, scaled by t^3
        got = boundary_mismatch(get_problem("example_6_1"), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_printed_sine_example_defect(self):
        got = boundary_mismatch(get_problem("example_6_2"), 1.0)
        assert got == pytest.approx(3.267, rel=1e-3)

    def test_no_exact_solution_reports_zero(self):
        spec = ProblemSpec(
            name="t",
            alpha=1.5,
            alphas=(),
            coeffs=(),
            mu=1.0,
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
        )
        assert boundary_mismatch(spec, 1.0) == 0.0
