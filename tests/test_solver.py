"""Order reduction, step assembly, corrected marching, run diagnostics."""
import dataclasses
import itertools
import math
import pathlib
import re
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from scipy.linalg import solve_triangular

from conftest import project_field, project_source
from fracadi.basis import (
    LEVEL_BLOCK_VALUES,
    ModalField2D,
    ShenSystemSolver,
    build_basis,
    from_eigen,
    full_coefficients,
    l2_error,
    level_norms,
    restricted_coefficients,
    to_eigen,
)
from fracadi.cli import build_custom_problem, load_config_file
from fracadi.oracle import half_sum_coefficients, parity_reduction_gaps
from fracadi.problems import (
    ProblemSpec,
    Rectangle,
    SeparableTerm,
    SpatialProfile,
    evaluate_terms,
    get_problem,
)
from fracadi import basis as basis_module
from fracadi import solver as solver_module
from fracadi.solver import (
    BLOCK,
    HISTORY,
    NEAR_PRODUCT,
    PANEL,
    AdiSolver,
    TransformedProblem,
    bootstrap_starting_values,
    eigen_operators,
    marched_parities,
    near_product,
    project_time_series,
    reduce_order,
    run,
    source_table,
    stability_ratio,
    step_coefficients,
)
from fracadi.weights import apply_gl, build_correction_set, far_exponentials, shifted_weights

UNIT_SQUARE = Rectangle(-1.0, 1.0, -1.0, 1.0)
CUSTOM_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"

# SeparableTerm's fields without its checks, for a source term with a
# negative time exponent (singular at t = 0), which SeparableTerm rejects
WeakTerm = namedtuple("WeakTerm", "coefficient exponent profile")


def max_level_norm(u):
    """max_n ||u[n]||, the Frobenius norm of each level's coefficients."""
    return float(np.max(np.linalg.norm(u.reshape(len(u), -1), axis=1)))


def step_through(solver, levels):
    """Put the eigen-coordinate `levels` in solver as its levels 0, 1, ...

    Level 0 is set in place, and every later one by step_once, whose
    level is then overwritten; so the far state takes the levels in,
    and the history buffer drops them, as in a march.
    """
    solver.u[0] = levels[0]
    for level in levels[1:]:
        solver.step_once()
        solver.u[solver.count - 1 - solver._base] = level


def quiet_tp(beta=0.5, betas=(0.5, -0.1), coeffs=(0.7, 1.3), mu=2.0):
    """Reduced problem with identically zero source, for assembly tests."""
    return TransformedProblem(
        name="quiet",
        beta=beta,
        betas=betas,
        coeffs=coeffs,
        mu=mu,
        domain=UNIT_SQUARE,
        g=(),
    )


def power_shape_problem(sigmas, amps, domain=UNIT_SQUARE,
                        beta=0.5, betas=(0.5, -0.1), coeffs=(0.7, 1.3), mu=2.0):
    """Reduced problem whose exact solution is sum_p amps_p t^sigmas_p
    times the lowest tensor mode (1 - xi^2)(1 - eta^2); the source is the
    closed-form defect, so a march with exact starting values and the
    matching correction exponents must reproduce it to rounding.  A
    sigma below 1 gives the source a negative time exponent (a WeakTerm).
    """
    jx = 0.5 * (domain.bx - domain.ax)
    ox = 0.5 * (domain.bx + domain.ax)
    jy = 0.5 * (domain.by - domain.ay)
    oy = 0.5 * (domain.by + domain.ay)

    def shape(x, y):
        xi = (x - ox) / jx
        eta = (y - oy) / jy
        return (1.0 - xi**2) * (1.0 - eta**2)

    def shape_lap(x, y):
        xi = (x - ox) / jx
        eta = (y - oy) / jy
        return -2.0 / jx**2 * (1.0 - eta**2) - 2.0 / jy**2 * (1.0 - xi**2)

    def wfun(t):
        return sum(c * t**s for c, s in zip(amps, sigmas))

    def dw(scale, shift, profile):
        # closed-form D^shift of the time factor (shift < 0 integrates)
        terms = []
        for c, s in zip(amps, sigmas):
            coefficient = scale * c * math.exp(math.lgamma(s + 1.0) - math.lgamma(s + 1.0 - shift))
            term = SeparableTerm if s >= shift else WeakTerm
            terms.append(term(coefficient, s - shift, profile))
        return terms

    values = SpatialProfile(values=shape)
    laplacian = SpatialProfile(values=shape_lap)
    g = dw(1.0, 1.0, values)
    for b, a in zip(betas, coeffs):
        g += dw(a, b, values)
    g += dw(-mu, -beta, laplacian)

    tp = TransformedProblem(
        name="power_shape",
        beta=beta,
        betas=betas,
        coeffs=coeffs,
        mu=mu,
        domain=domain,
        g=tuple(g),
        exact=tuple(SeparableTerm(c, s, values) for c, s in zip(amps, sigmas)),
    )
    return tp, wfun


def closed_form_source(tp, x, y, t):
    """I^beta f + g of tp at (x, y, t), each term of f integrated with math.gamma."""
    total = evaluate_terms(tp.g, x, y, t)
    for term in tp.f:
        e = term.exponent
        c = term.coefficient * math.gamma(e + 1.0) / math.gamma(e + 1.0 + tp.beta)
        total = total + c * t ** (e + tp.beta) * term.profile.values(x, y)
    return total


class TestReduceOrder:
    def test_orders_smooth(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        assert tp.beta == pytest.approx(0.5)
        assert tp.betas == pytest.approx((0.5, -0.1))
        assert tp.coeffs == (1.0, 1.0)
        assert tp.mu == 2.0
        assert tp.lift is None

    def test_orders_nonsmooth(self):
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        assert tp.beta == pytest.approx(0.1)
        assert tp.betas == pytest.approx((0.9, 0.0))
        assert tp.lift is not None

    def test_exact_passthrough_without_lift(self):
        spec = get_problem("compatible_smooth")
        tp = reduce_order(spec)
        assert tp.exact == spec.exact_terms
        assert tp.lift is None

    def test_closed_form_source_smooth(self):
        spec = get_problem("compatible_smooth")
        tp = reduce_order(spec)
        x, y, t = 0.3, -0.2, 0.7
        want = 0.0
        for term in spec.forcing_terms:
            c = term.coefficient * math.gamma(term.exponent + 1.0) / math.gamma(
                term.exponent + 1.0 + tp.beta
            )
            want += c * t ** (term.exponent + tp.beta) * term.profile.values(x, y)
        assert tp.f == tuple(spec.forcing_terms)
        assert tp.g == ()
        assert closed_form_source(tp, x, y, t) == pytest.approx(want, rel=1e-13)

    def test_shifted_source_includes_initial_laplacian(self):
        spec = get_problem("compatible_nonsmooth")
        tp = reduce_order(spec)
        x, y, t = 0.4, 0.1, 0.6
        want = 0.0
        for term in spec.forcing_terms:
            c = term.coefficient * math.gamma(term.exponent + 1.0) / math.gamma(
                term.exponent + 1.0 + tp.beta
            )
            want += c * t ** (term.exponent + tp.beta) * term.profile.values(x, y)
        want += spec.mu / math.gamma(1.0 + tp.beta) * t**tp.beta * spec.g1.laplacian(x, y)
        shifted = evaluate_terms(spec.forcing_terms, x, y, t) + spec.mu * spec.g1.laplacian(x, y)
        assert evaluate_terms(tp.f, x, y, t) == pytest.approx(shifted, rel=1e-13)
        assert tp.g == ()
        assert closed_form_source(tp, x, y, t) == pytest.approx(want, rel=1e-12)

    def test_lift_and_reduced_exact(self):
        spec = get_problem("compatible_nonsmooth")
        tp = reduce_order(spec)
        x, y, t = -0.3, 0.55, 0.8
        assert tp.exact == spec.exact_terms + (SeparableTerm(-1.0, 0.0, spec.g1),)
        assert tp.lift is spec.g1
        want = spec.exact(x, y, t) - spec.g1.values(x, y)
        assert evaluate_terms(tp.exact, x, y, t) == pytest.approx(want, rel=1e-13)
        assert evaluate_terms(tp.exact, x, y, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_missing_laplacian_rejected(self):
        spec = ProblemSpec(
            name="t",
            alpha=1.5,
            alphas=(),
            coeffs=(),
            mu=1.0,
            domain=UNIT_SQUARE,
            g1=SpatialProfile(values=lambda x, y: x * y),
        )
        with pytest.raises(ValueError, match="Laplacian"):
            reduce_order(spec)

    def test_velocity_source(self):
        # g2 feeds a t^0 term plus one t^{alpha - a_j} term per order > 1
        prof = SpatialProfile(values=lambda x, y: np.sin(x) * np.cos(y))
        spec = ProblemSpec(
            name="kick",
            alpha=1.8,
            alphas=(1.4, 0.6),
            coeffs=(2.0, 3.0),
            mu=1.0,
            domain=UNIT_SQUARE,
            g2=prof,
        )
        tp = reduce_order(spec)
        x, y, t = 0.3, 0.1, 0.5
        want = prof.values(x, y) * (1.0 + 2.0 / math.gamma(1.4) * t**0.4)
        assert tp.f == ()
        assert evaluate_terms(tp.g, x, y, t) == pytest.approx(want, rel=1e-13)

    def test_every_source_against_hand_summed_terms(self):
        # forcing on two profiles, g1 and g2, and one lower order above one
        s1 = SpatialProfile(values=lambda x, y: np.exp(x) * np.cos(y))
        s2 = SpatialProfile(values=lambda x, y: 2.0 + x * y)
        g1 = SpatialProfile(
            values=lambda x, y: np.sin(x + y), laplacian=lambda x, y: -2.0 * np.sin(x + y)
        )
        g2 = SpatialProfile(values=lambda x, y: 1.0 + x**2 - y)
        spec = ProblemSpec(
            name="full",
            alpha=1.6,
            alphas=(1.3, 0.5),
            coeffs=(0.7, 2.0),
            mu=1.5,
            domain=UNIT_SQUARE,
            forcing_terms=(SeparableTerm(0.8, 1.5, s1), SeparableTerm(-1.2, 0.0, s2)),
            g1=g1,
            g2=g2,
        )
        tp = reduce_order(spec)
        beta = 0.6
        x = np.linspace(-0.9, 0.8, 5)[None, :, None]
        y = np.linspace(-0.7, 0.95, 4)[None, None, :]
        t = np.array([0.0, 0.25, 0.6, 1.0])[:, None, None]
        f = 0.8 * t**1.5 * s1.values(x, y) - 1.2 * s2.values(x, y) + 1.5 * g1.laplacian(x, y)
        smooth = (1.0 + 0.7 * t**0.3 / math.gamma(1.3)) * g2.values(x, y)
        integral = (
            0.8 * math.gamma(2.5) / math.gamma(2.5 + beta) * t ** (1.5 + beta) * s1.values(x, y)
            - 1.2 / math.gamma(1.0 + beta) * t**beta * s2.values(x, y)
            + 1.5 / math.gamma(1.0 + beta) * t**beta * g1.laplacian(x, y)
        )
        for got, want in (
            (evaluate_terms(tp.f, x, y, t), f),
            (evaluate_terms(tp.g, x, y, t), smooth),
            (closed_form_source(tp, x, y, t), smooth + integral),
        ):
            np.testing.assert_allclose(
                np.broadcast_to(got, want.shape), want,
                rtol=1e-13, atol=1e-13 * np.max(np.abs(want)),
            )

    def test_no_velocity_source_without_g2(self):
        assert reduce_order(get_problem("compatible_nonsmooth")).g == ()
        assert reduce_order(get_problem("compatible_smooth")).g == ()

    def test_no_source_terms_reduce_to_zero(self):
        spec = ProblemSpec(
            name="quiet", alpha=1.5, alphas=(), coeffs=(), mu=1.0, domain=UNIT_SQUARE
        )
        tp = reduce_order(spec)
        assert tp.f == ()
        assert tp.g == ()


class TestTransformedProblemValidation:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.2, -0.3])
    def test_beta_range(self, beta):
        with pytest.raises(ValueError, match="beta"):
            quiet_tp(beta=beta)

    def test_memory_order_range(self):
        with pytest.raises(ValueError, match="memory orders"):
            quiet_tp(betas=(1.5, 0.0), coeffs=(1.0, 1.0))

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0, 3.0)])
    def test_one_coefficient_per_memory_order(self, coeffs):
        # zip would drop the unmatched orders from the step and the kernels
        with pytest.raises(ValueError, match="one coefficient per memory order"):
            quiet_tp(betas=(0.5, -0.1), coeffs=coeffs)


class TestStepCoefficients:
    def test_manual_recompute(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        tau = 0.05
        sc = step_coefficients(tp, tau)
        mass = 1.0 + 0.5 * (1.0 + 0.25) * tau**0.5 + 0.5 * (1.0 - 0.05) * tau**1.1
        grad = 0.5 * 2.0 * 0.75 * tau**1.5
        assert sc.mass_coef == pytest.approx(mass, rel=1e-14)
        assert sc.grad_coef == pytest.approx(grad, rel=1e-14)
        assert sc.cross_coef == pytest.approx(grad**2 / mass, rel=1e-14)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            step_coefficients(quiet_tp(), 0.0)


class TestFractionalIntegral:
    def test_zero_history(self):
        assert apply_gl(-0.5, 0.125, np.zeros(9)) == pytest.approx(0.0)

    def test_half_integral_of_quadratic(self):
        # I^{1/2} t^2 = Gamma(3)/Gamma(3.5) t^{5/2}
        errs = []
        for steps in (64, 128):
            tau = 1.0 / steps
            t = tau * np.arange(steps + 1)
            got = apply_gl(-0.5, tau, t**2)
            want = 2.0 / math.gamma(3.5)
            errs.append(abs(got - want))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9


LOBE = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
HUMP = SpatialProfile(values=lambda x, y: (1.0 - x**2) * np.cos(y))


def two_profile_problem():
    """A reduced problem with both sources on two profiles, lobe and hump.

    f = (1 + t^1.2) lobe + t^2 hump and g = t^0.5 hump, so the sampled
    mode adds g's factors to the integral's on a shared profile.
    """
    return TransformedProblem(
        name="two_profiles",
        beta=0.4,
        betas=(0.3,),
        coeffs=(1.0,),
        mu=1.0,
        domain=UNIT_SQUARE,
        f=(
            SeparableTerm(1.0, 0.0, LOBE),
            SeparableTerm(1.0, 1.2, LOBE),
            SeparableTerm(1.0, 2.0, HUMP),
        ),
        g=(SeparableTerm(1.0, 0.5, HUMP),),
    )


def direct_source_grids(tp, basis_x, basis_y, tau, steps, mode):
    """The source on the quadrature grid at every level, one level at a time.

    The analytic mode is closed_form_source; the sampled mode sums the
    GL rule of order -beta over the forcing's grid values directly, with
    no FFT and no time-factor table.
    """
    x, y = basis_x.nodes[:, None], basis_y.nodes[None, :]
    times = tau * np.arange(steps + 1)
    if mode == "analytic":
        return np.array([closed_form_source(tp, x, y, t) for t in times])
    f = np.array([evaluate_terms(tp.f, x, y, t) for t in times])
    lam = shifted_weights(-tp.beta, steps)
    return np.array([
        tau**tp.beta * np.tensordot(lam[n::-1], f[: n + 1], axes=(0, 0))
        + evaluate_terms(tp.g, x, y, t)
        for n, t in enumerate(times)
    ])


class TestProjectTimeSeries:
    def setup_method(self):
        self.tp = reduce_order(get_problem("compatible_smooth"))
        self.bx = build_basis(8, self.tp.domain.x_interval)
        self.by = build_basis(8, self.tp.domain.y_interval)

    def test_auto_prefers_analytic(self):
        factors, profiles, norms = project_time_series(self.tp, self.bx, self.by, 0.25, 4)
        assert factors.shape == (1, 5)  # every term of compatible_smooth is on one profile
        assert profiles.shape == (1, self.bx.dim, self.by.dim)
        assert norms.shape == (4,)

    def test_auto_is_analytic(self):
        # a problem with forcing alone, as any other, takes the closed form
        tp = TransformedProblem(
            name="forcing_only",
            beta=0.5,
            betas=(),
            coeffs=(),
            mu=1.0,
            domain=UNIT_SQUARE,
            f=(SeparableTerm(1.0, 1.0, LOBE),),
        )
        auto = project_time_series(tp, self.bx, self.by, 0.25, 4)
        for got, want in zip(auto, project_time_series(tp, self.bx, self.by, 0.25, 4, "analytic")):
            np.testing.assert_array_equal(got, want)
        sampled = project_time_series(tp, self.bx, self.by, 0.25, 4, "sampled")
        assert not np.array_equal(auto[0], sampled[0])
        assert AdiSolver(tp, self.bx, self.by, 0.25, 4).source_mode == "analytic"

    def test_sampled_without_forcing_is_g_alone(self):
        # with no forcing to integrate both modes give g's factors as they are
        tp = TransformedProblem(
            name="velocity_only",
            beta=0.5,
            betas=(),
            coeffs=(),
            mu=1.0,
            domain=UNIT_SQUARE,
            g=(SeparableTerm(1.0, 0.5, HUMP), SeparableTerm(2.0, 0.0, LOBE)),
        )
        sampled = project_time_series(tp, self.bx, self.by, 0.25, 4, "sampled")
        analytic = project_time_series(tp, self.bx, self.by, 0.25, 4, "analytic")
        for got, want in zip(sampled, analytic):
            np.testing.assert_array_equal(got, want)

    def test_profile_sum_matches_projection(self):
        # the modes that vanish by symmetry carry round-off of the level's
        # scale, which differs between the two ways of summing
        factors, profiles, _ = project_time_series(self.tp, self.bx, self.by, 0.25, 4)
        for n, t in enumerate((0.0, 0.5, 1.0)):
            got = np.tensordot(factors[:, 2 * n], profiles, axes=1)
            want = project_source(lambda x, y: closed_form_source(self.tp, x, y, t), self.bx, self.by)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    def test_half_source_norms_manual(self):
        tau = 0.25
        _, _, norms = project_time_series(self.tp, self.bx, self.by, tau, 4)
        x, yv = self.bx.nodes[:, None], self.by.nodes[None, :]
        wx = self.bx.quad_weights * self.bx.jacobian
        wy = self.by.quad_weights * self.by.jacobian
        for k in range(4):
            half = 0.5 * (
                closed_form_source(self.tp, x, yv, tau * k)
                + closed_form_source(self.tp, x, yv, tau * (k + 1))
            )
            want = math.sqrt(float(wx @ half**2 @ wy))
            assert norms[k] == pytest.approx(want, rel=1e-13)

    def blocked_steps(self):
        """A step count whose levels span three blocks, the last one partial."""
        return 2 * (LEVEL_BLOCK_VALUES // (self.bx.quad_count * self.by.quad_count)) + 40

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_blocks_match_per_level_formulas(self, mode):
        tp = two_profile_problem()
        steps = self.blocked_steps()
        tau = 1.0 / steps
        factors, profiles, half_norms = project_time_series(
            tp, self.bx, self.by, tau, steps, mode
        )
        vals = direct_source_grids(tp, self.bx, self.by, tau, steps, mode)
        want_hat = np.array([project_source(lambda x, y, v=v: v, self.bx, self.by) for v in vals])
        got_hat = np.tensordot(factors.T, profiles, axes=1)
        np.testing.assert_allclose(
            got_hat, want_hat, rtol=1e-13, atol=1e-13 * np.abs(want_hat).max()
        )
        wx = self.bx.quad_weights * self.bx.jacobian
        wy = self.by.quad_weights * self.by.jacobian
        for k in range(steps):
            half = 0.5 * (vals[k] + vals[k + 1])
            assert half_norms[k] == pytest.approx(math.sqrt(float(wx @ half**2 @ wy)), rel=1e-13)

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_half_source_norms_ignore_the_block_size(self, monkeypatch, mode):
        # each block of steps evaluates both end levels of its steps, and
        # every norm is summed in one order, so one step per block, the
        # default blocks and one block in all give the same bits
        # default blocks and one block in all give the same bits; so do
        # the errors of a run, whose default blocks are 64 levels here
        tp = two_profile_problem()
        steps = self.blocked_steps()
        spec = get_problem("compatible_nonsmooth")
        norms, errors = [], []
        for values in (1, LEVEL_BLOCK_VALUES, 2**40):
            monkeypatch.setattr(basis_module, "LEVEL_BLOCK_VALUES", values)
            norms.append(project_time_series(tp, self.bx, self.by, 1.0 / steps, steps, mode)[2])
            errors.append(run(spec, 8, 150, 1.0, source_mode=mode).errors)
        for got in norms[1:]:
            np.testing.assert_array_equal(got, norms[0])
        for got in errors[1:]:
            np.testing.assert_array_equal(got, errors[0])

    def test_zero_source_ignoring_time_across_blocks(self):
        # a source without terms has an empty table and zero norms
        steps = self.blocked_steps()
        factors, profiles, half_norms = project_time_series(
            quiet_tp(), self.bx, self.by, 0.01, steps
        )
        assert factors.shape == (0, steps + 1)
        assert profiles.shape == (0, self.bx.dim, self.by.dim)
        assert half_norms.shape == (steps,)
        assert not half_norms.any()

    def test_analytic_source_holds_no_trajectory_of_grids(self):
        # the (steps + 1) * Qx * Qy grid stack would be 4.1 MB here; the
        # blocked norms may hold the factor table plus a few block temporaries
        steps = 2000
        grid_bytes = 8 * self.bx.quad_count * self.by.quad_count
        budget = 8 * (steps + 1) + 6 * 8 * LEVEL_BLOCK_VALUES
        assert budget < (steps + 1) * grid_bytes
        tracemalloc.start()
        try:
            project_time_series(self.tp, self.bx, self.by, 1.0 / steps, steps, "analytic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="source mode"):
            project_time_series(self.tp, self.bx, self.by, 0.25, 4, mode="grid")

    @pytest.mark.parametrize("steps", [1, 7, 512, 2000])
    def test_sampled_table_matches_direct_convolution(self, steps):
        # the FFT convolution against the GL sum of every level, written as
        # a direct convolution of the weights with each forcing column; at
        # 512 steps the 2 steps + 1 = 1025 points are one past a power of two
        tp = two_profile_problem()
        tau = 1.0 / steps
        times = tau * np.arange(steps + 1)
        profiles, table = source_table(tp, tau, steps, "sampled")
        assert profiles == (LOBE, HUMP)
        lam = shifted_weights(-tp.beta, steps)
        want = np.zeros_like(table)
        for term in tp.f:
            direct = np.convolve(lam, term.coefficient * times**term.exponent)[: steps + 1]
            want[profiles.index(term.profile)] += tau**tp.beta * direct
        for term in tp.g:
            want[profiles.index(term.profile)] += term.coefficient * times**term.exponent
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestAssembleRhs:
    def test_source_trapezoid_alone(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(7, tp.domain.x_interval)
        by = build_basis(7, tp.domain.y_interval)
        solver = AdiSolver(tp, bx, by, 0.1, 6)
        factors, profiles = solver.source_factors, solver.source_profiles
        want = np.tensordot(0.5 * 0.1 * factors[:, 0] + 0.5 * 0.1 * factors[:, 1], profiles, axes=1)
        np.testing.assert_array_equal(solver.assemble_rhs(0, 1)[0], want)

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_panel_source_matches_direct_projections(self, mode):
        # with u = 0 a panel's right sides are its trapezoidal sources alone;
        # they must match the source projected level by level from its grid
        # values (direct_source_grids), mapped to eigen-coordinates.  The
        # call at BLOCK + 3 brings the far state forward, which adds 0
        tp = two_profile_problem()
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(7, tp.domain.y_interval)
        steps = BLOCK + 20
        tau = 1.0 / steps
        solver = AdiSolver(tp, bx, by, tau, steps, source_mode=mode)
        vals = direct_source_grids(tp, bx, by, tau, steps, mode)
        hat = np.array([project_source(lambda x, y, v=v: v, bx, by) for v in vals])
        hat = bx.eigenvectors.T @ hat @ by.eigenvectors
        for k, n in ((0, PANEL), (5, 3), (BLOCK + 3, PANEL)):
            want = 0.5 * tau * (hat[k : k + n] + hat[k + 1 : k + n + 1])
            np.testing.assert_allclose(
                solver.assemble_rhs(k, n), want, rtol=1e-13, atol=1e-13 * np.abs(want).max()
            )

    def test_solver_holds_no_per_level_array_beyond_u(self):
        # the source is a (profiles, steps + 1) table of time factors and one
        # projection per profile; the solver keeps at most a few dozen doubles
        # per level besides u (kernel tables, factors, the exact solution's
        # table, norms and errors), and while it is built a few level-block
        # temporaries.  A per-level array of projected
        # sources (8 * 2001 * 19**2 bytes, 5.8 MB) or of sampled forcing
        # grids (12.5 MB) exceeds both budgets
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        bx = build_basis(20, tp.domain.x_interval)
        by = build_basis(20, tp.domain.y_interval)
        steps = 2000
        tracemalloc.start()
        try:
            solver = AdiSolver(tp, bx, by, 1.0 / steps, steps, source_mode="sampled")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= solver.u.nbytes + 32 * 8 * (steps + 1)
        assert peak <= solver.u.nbytes + 32 * 8 * (steps + 1) + 8 * 8 * LEVEL_BLOCK_VALUES

    @pytest.mark.parametrize(
        "j,k,degree",
        [
            # near lags, the last near lag 127 and the first far lag 128
            # (BLOCK = 128), and far lags up to 1285
            pytest.param(j, k, 7, id=f"{j}-{k}")
            for j, k in [
                (0, 0), (0, 6), (2, 6), (6, 6), (3, 261), (255, 256), (0, 513),
                (3, 1285), (1031, 1537), (1023, 1024), (1279, 1280), (573, 700),
                (572, 700), (0, 128),
            ]
        ]
        + [
            # 39**2 columns: from 87 near levels on the product is split
            # into column slabs, the last one ragged
            pytest.param(j, k, 40, id=f"{j}-{k}-N40")
            for j, k in [(406, 406), (1124, 1224), (3, 712), (3, 131)]
        ],
    )
    def test_single_history_level(self, rng, j, k, degree):
        # one nonzero past value isolates the memory-sum coefficients,
        # which must match the endpoint-averaged reference weights summed
        # over both memory orders and the integral order; j <= k - BLOCK
        # puts the level in the far part of the sum, which the far state
        # takes it into as it leaves the near window.  The mapped rectangle
        # has jx = 1 and jy = 2, so a misplaced jacobian factor shows.  The
        # level is set in eigen-coordinates, and the levels up to k are
        # stepped through, the others zero; the reference right side is
        # formed with the Shen-basis matrices and mapped with E_x^T . E_y
        tp = quiet_tp()
        steps, tau = 1546, 0.1
        for domain in (UNIT_SQUARE, Rectangle(0.0, 2.0, -1.0, 3.0)):
            bx = build_basis(degree, domain.x_interval)
            by = build_basis(degree, domain.y_interval)
            jx, jy = bx.jacobian, by.jacobian
            solver = AdiSolver(tp, bx, by, tau, steps)
            e = rng.standard_normal((bx.dim, by.dim))
            levels = np.zeros((k + 1, bx.dim, by.dim))
            levels[j] = e
            step_through(solver, levels)
            rhs = solver.assemble_rhs(k, 1)[0]

            u = from_eigen(e, bx, by)
            mass_e = jx * jy * (bx.mass @ u) @ by.mass
            stiff_e = (jy / jx) * (bx.stiffness @ u) @ by.mass
            stiff_e += (jx / jy) * (bx.mass @ u) @ by.stiffness
            want = np.zeros_like(rhs)
            for b, a in zip(tp.betas, tp.coeffs):
                lam = shifted_weights(b, steps + 1)
                want -= a * tau ** (1.0 - b) * half_sum_coefficients(lam, k)[j] * mass_e
            lam = shifted_weights(-tp.beta, steps + 1)
            want -= tp.mu * tau ** (1.0 + tp.beta) * half_sum_coefficients(lam, k)[j] * stiff_e
            if j == k:  # the current level also enters the explicit mass and cross terms
                cross_e = (bx.stiffness @ u) @ by.stiffness / (jx * jy)
                want += mass_e + solver.coeffs.cross_coef * cross_e
            want = bx.eigenvectors.T @ want @ by.eigenvectors
            np.testing.assert_allclose(rhs, want, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("steps", [256, 1025, 2047, 40 * BLOCK])
    def test_march_matches_direct_memory_sum(self, steps):
        # one step at a time in eigen-coordinates, with the whole memory sum
        # contracted directly: sweep * v[k+1] = explicit * v[k]
        # - sum_{j<=k} Kw_{k-j} v[j] + tau/2 (s[k] + s[k+1]), Kw_l the
        # kernel's column l weighted per mode.  The kernel is formed here
        # at every lag from the shifted weights; the test shares the
        # solver's operator diagonals and source but none of its near, far
        # or panel code, so a far part that misses or repeats a level, or
        # a far kernel off by more than round-off, shows past BLOCK
        shape = SpatialProfile(values=lambda x, y: (x + 1.0) * y**2)
        unit = SpatialProfile(values=lambda x, y: np.ones(np.broadcast(x, y).shape))
        g = (
            SeparableTerm(2.0, 0.0, shape),
            SeparableTerm(-4.5, 2.0, shape),
            SeparableTerm(1.0, 1.0, unit),
        )
        tp = dataclasses.replace(quiet_tp(), g=g)
        domain = Rectangle(0.0, 2.0, -1.0, 3.0)
        tp = dataclasses.replace(tp, domain=domain)
        bx = build_basis(6, domain.x_interval)
        by = build_basis(6, domain.y_interval)
        solver = AdiSolver(tp, bx, by, 1.0 / steps, steps, keep=range(steps + 1))
        tau = solver.tau
        kernel = np.zeros((2, steps + 1))
        for b, a in zip(tp.betas, tp.coeffs):
            lam = shifted_weights(b, steps + 1)
            kernel[0] += 0.5 * a * tau ** (1.0 - b) * (lam[1:] + lam[:-1])
        lam = shifted_weights(-tp.beta, steps + 1)
        kernel[1] = 0.5 * tp.mu * tau ** (1.0 + tp.beta) * (lam[1:] + lam[:-1])
        weights = solver._weights
        explicit, sweep = solver._explicit.ravel(), solver._sweep.ravel()
        profiles = solver.source_profiles.reshape(len(solver.source_factors), -1)
        source = solver.source_factors.T @ profiles
        v = np.zeros_like(source)
        for k in range(steps):
            memory = ((kernel[:, k::-1] @ v[: k + 1]) * weights).sum(axis=0)
            rhs = explicit * v[k] - memory + 0.5 * tau * (source[k] + source[k + 1])
            v[k + 1] = rhs / sweep
        want = from_eigen(v.reshape(steps + 1, bx.dim, by.dim), bx, by)
        got = solver.march()
        assert np.max(np.abs(got - want)) <= 1e-13 * max_level_norm(want)

    @pytest.mark.parametrize("k", [-1, 6])
    def test_step_index_range(self, k):
        solver = AdiSolver(quiet_tp(), build_basis(6, (-1, 1)), build_basis(6, (-1, 1)), 0.1, 6)
        with pytest.raises(ValueError, match="index"):
            solver.assemble_rhs(k, 1)


class TestNearProduct:
    @pytest.mark.parametrize("levels", [1, 33, 34, 256])
    def test_slabs_match_one_product_and_stay_single_threaded(self, rng, levels):
        # 3969 columns is a degree-64 grid; every product the helper forms
        # stays within OpenBLAS's calling-thread size
        shapes = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                shapes.append((self.shape[0],) + other.shape)
                return np.asarray(self) @ other

        near = rng.standard_normal((2, levels))
        hist = rng.standard_normal((levels, 3969))
        got = near_product(near.view(Recording), hist)
        want = near @ hist
        scale = np.max(np.abs(near)) * np.max(np.abs(hist))  # bounds the largest term
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * scale)
        assert sum(cols for _, _, cols in shapes) == hist.shape[1]
        for rows, inner, cols in shapes:
            assert inner == levels
            assert rows * inner * cols <= 2**18


class TestStepVersusDense:
    @pytest.mark.parametrize("degree", [20, 64])
    def test_inverse_sweeps_match_banded_solves(self, rng, degree):
        bx = build_basis(degree, (0.0, 2.0))
        by = build_basis(degree, (-1.0, 3.0))
        coeffs = step_coefficients(quiet_tp(), 0.01)
        p, q = math.sqrt(coeffs.mass_coef), coeffs.grad_coef
        sweep_x = ShenSystemSolver(bx, p * bx.jacobian, q / (p * bx.jacobian))
        sweep_y = ShenSystemSolver(by, p * by.jacobian, q / (p * by.jacobian))
        *_, sweep = eigen_operators(coeffs, bx, by)
        rhs = rng.standard_normal((bx.dim, by.dim))
        want = sweep_y.solve(sweep_x.solve(rhs).T).T
        # map the right side in, divide, map the result back
        got = from_eigen(bx.eigenvectors.T @ rhs @ by.eigenvectors / sweep, bx, by)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_adi_step_reproduces_march(self):
        # the history buffer u is in eigen-coordinates, which assemble_rhs
        # and sweep_solve work in; level k + 1 is in its row k + 1 - _base.
        # Each k is checked in march order, before step k is taken; from
        # BLOCK + 3 on the far state is at k already when step_once asks
        # for it again
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        solver = AdiSolver(tp, bx, by, 0.01, 6 * BLOCK + 8)
        for k in (5, BLOCK + 3, 5 * BLOCK + 3, 6 * BLOCK + 3):
            while solver.count - 1 < k:
                solver.step_once()
            step = solver.sweep_solve(solver.assemble_rhs(k, 1))
            solver.step_once()
            row = k + 1 - solver._base
            np.testing.assert_array_equal(step, solver.u[row : row + 1])

    def test_out_of_order_call_rejected(self):
        # a level enters the far state when it leaves the near window, so
        # once the state is at a step, an earlier step is rejected; before
        # the first step past the window there is no state to pass.  A step
        # whose level lies past the history buffer is rejected too
        solver = AdiSolver(quiet_tp(), build_basis(6, (-1, 1)), build_basis(6, (-1, 1)), 0.01, 4 * BLOCK)
        solver.assemble_rhs(5, 1)
        solver.assemble_rhs(3, 1)
        for _ in range(BLOCK + 6):  # the last one, step BLOCK + 5, brings the state there
            solver.step_once()
        with pytest.raises(ValueError, match=f"step {BLOCK + 4} lies before the far state, at step {BLOCK + 5}"):
            solver.assemble_rhs(BLOCK + 4, 1)
        with pytest.raises(ValueError, match="step 5 lies before the far state"):
            solver.assemble_rhs(5, 1)
        solver.assemble_rhs(BLOCK + 5, 1)
        solver.assemble_rhs(2 * BLOCK, 1)
        end = 2 * BLOCK + 2 * PANEL - 1
        with pytest.raises(ValueError, match=f"step {end + 1} lies past the history, which ends at level {end}"):
            solver.assemble_rhs(end + 1, 1)

    def test_march_maps_back_once(self):
        # march() finishes steps begun with step_once and maps the kept
        # levels to the Shen basis; a second call has no step left and
        # returns the same levels.  The two step partitions group the steps
        # into different panels, so they agree to the panel equivalence
        # bound, not bit for bit
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        whole = AdiSolver(tp, bx, by, 0.1, 10, keep=range(11)).march().copy()
        solver = AdiSolver(tp, bx, by, 0.1, 10, keep=range(11))
        for _ in range(4):
            solver.step_once()
        first = solver.march().copy()
        assert np.max(np.abs(first - whole)) <= 1e-13 * max_level_norm(whole)
        np.testing.assert_array_equal(solver.march(), first)


class TestFarPartSchedule:
    def test_far_state_over_a_gap_matches_panel_steps(self, rng):
        # the far state at step k holds h_q = sum_{i <= k - BLOCK}
        # e^{-s_q (k - i)} u[i] over the far rates s_q; one call over a gap
        # of BLOCK + 5 steps, calls in ragged panels, and the sum formed
        # here agree, and so do the right sides they give.  The levels up
        # to k fill the history buffer from its front
        tp = quiet_tp()
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(5, (0.0, 2.0))
        steps, k = 6 * BLOCK, 2 * BLOCK + 5
        levels = rng.standard_normal((k + 1, bx.dim, by.dim))
        jump = AdiSolver(tp, bx, by, 0.01, steps)
        jump.u[: k + 1] = levels
        jump.assemble_rhs(BLOCK, 1)
        got = jump.assemble_rhs(k, PANEL)
        panels = AdiSolver(tp, bx, by, 0.01, steps)
        panels.u[: k + 1] = levels
        step, gaps = BLOCK, itertools.cycle([1, PANEL, 3, PANEL, 5])
        while step < k:
            panels.assemble_rhs(step, 1)
            step += next(gaps)
        want = panels.assemble_rhs(k, PANEL)

        rates, _ = far_exponentials(tuple(tp.betas) + (-tp.beta,), BLOCK, steps)
        old = levels[: k - BLOCK + 1].reshape(k - BLOCK + 1, -1)
        direct = np.exp(-np.outer(rates, k - np.arange(k - BLOCK + 1))) @ old
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(jump._far - direct)) <= 1e-13 * scale
        assert np.max(np.abs(panels._far - direct)) <= 1e-13 * scale
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_far_products_stay_below_near_product(self, monkeypatch):
        # every product with a far table, the levels entering the state
        # and the far rows of a panel, goes through near_product, so none
        # exceeds NEAR_PRODUCT multiply-adds; at N = 40 (1521 columns) both
        # are split into column slabs
        shapes = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                shapes.append((self.shape[0],) + other.shape)
                return np.asarray(self) @ other

        build = AdiSolver._build_far

        def recording_build(solver):
            build(solver)
            solver._entry = solver._entry.view(Recording)
            solver._far_rows = solver._far_rows.view(Recording)

        monkeypatch.setattr(AdiSolver, "_build_far", recording_build)
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(40, tp.domain.x_interval)
        by = build_basis(40, tp.domain.y_interval)
        steps = 2 * BLOCK + 37
        solver = AdiSolver(tp, bx, by, 1.0 / steps, steps)
        solver.march()
        rates = len(solver._far)
        entering = [s for s in shapes if s[0] == rates]
        rows = [s for s in shapes if s[0] != rates]
        # every level up to the state's step less BLOCK entered it once
        entered = solver._far_level - BLOCK + 1
        assert sum(inner * cols for _, inner, cols in entering) == entered * bx.dim * by.dim
        assert {inner for _, inner, _ in rows} == {rates}
        for n, inner, cols in shapes:
            assert n * inner * cols <= NEAR_PRODUCT

    def test_far_part_needs_no_array_beyond_u(self):
        # besides u the march holds the panel's temporaries, the far state,
        # one level per far rate (at most 64 here), and in its last pass a
        # few level blocks; a far part that kept 4 BLOCK levels of its own,
        # or a table of one far value per rate and level, would exceed the
        # budget.  The rates are built beforehand, as another march of this
        # size would have left them
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(16, tp.domain.x_interval)
        by = build_basis(16, tp.domain.y_interval)
        steps = 12 * BLOCK + 10
        far_exponentials(tuple(tp.betas) + (-tp.beta,), BLOCK, steps)
        solver = AdiSolver(tp, bx, by, 1.0 / steps, steps, source_mode="analytic")
        level = 8 * bx.dim * by.dim
        budget = (64 + 8 * PANEL) * level + 6 * 8 * LEVEL_BLOCK_VALUES
        tracemalloc.start()
        try:
            solver.march()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(solver._far) <= 64
        assert peak <= budget


class TestHistoryBuffer:
    def test_buffer_does_not_grow_with_steps(self):
        # u holds 2 BLOCK + 2 PANEL levels however long the march, and a
        # whole march allocates less than a few dozen doubles per level
        # besides it (the far state, the panel's and the level blocks'
        # temporaries, the final level).  The rates are built beforehand,
        # as another march of this size would have left them
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(20, tp.domain.x_interval)
        by = build_basis(20, tp.domain.y_interval)
        level = 8 * bx.dim * by.dim
        sizes = {steps: AdiSolver(tp, bx, by, 1.0 / steps, steps).u.nbytes for steps in (2000, 16000)}
        assert sizes[2000] == sizes[16000] <= (2 * BLOCK + 2 * PANEL) * level
        steps = 4000
        far_exponentials(tuple(tp.betas) + (-tp.beta,), BLOCK, steps)
        solver = AdiSolver(tp, bx, by, 1.0 / steps, steps)
        tracemalloc.start()
        try:
            solver.march()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= solver.u.nbytes + 64 * 8 * (steps + 1)

    def test_streaming_equals_the_whole_history(self, monkeypatch):
        # a corrected march across several buffer shifts (steps not a
        # multiple of PANEL) gives the same bits as one whose buffer holds
        # every level, kept or not; so does the bootstrap's fine march
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        steps, tau = 3 * BLOCK + 5, 1.0 / (3 * BLOCK + 5)
        start = bootstrap_starting_values(tp, bx, by, tau, 3, ratio=50)
        kwargs = dict(correction_terms=3, exponents=(1.1, 1.2, 1.3), starting_values=start)
        streamed = AdiSolver(tp, bx, by, tau, steps, **kwargs)
        final = streamed.march()
        assert streamed._base > 0
        monkeypatch.setattr(solver_module, "HISTORY", steps + 1)
        whole = AdiSolver(tp, bx, by, tau, steps, keep=range(steps + 1), **kwargs)
        levels = whole.march()
        assert len(whole.u) == steps + 1 and whole._base == 0
        np.testing.assert_array_equal(streamed.norms, whole.norms)
        np.testing.assert_array_equal(streamed.errors, whole.errors)
        np.testing.assert_array_equal(final, levels[-1:])
        fine = AdiSolver(dataclasses.replace(tp, exact=()), bx, by, tau / 50, 150, keep=range(151)).march()
        np.testing.assert_array_equal(np.array(start), fine[50::50])

    def test_keep_picks_levels_in_its_order(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(6, tp.domain.x_interval)
        by = build_basis(6, tp.domain.y_interval)
        steps = 2 * BLOCK + 40
        every = AdiSolver(tp, bx, by, 0.01, steps, keep=range(steps + 1)).march()
        picked = AdiSolver(tp, bx, by, 0.01, steps, keep=[steps, 3, 200, 3]).march()
        np.testing.assert_array_equal(picked, every[[steps, 3, 200, 3]])
        for keep in ([steps + 1], [-1]):
            with pytest.raises(ValueError, match=f"kept levels must lie in 0..{steps}"):
                AdiSolver(tp, bx, by, 0.01, steps, keep=keep)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_level_found_after_shifts(self):
        # a source that overflows at a level past 2 BLOCK, after the buffer
        # has dropped its oldest levels twice, is named by the third drop,
        # before the step from level 552, which takes levels 281..424 out
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(6, tp.domain.x_interval)
        by = build_basis(6, tp.domain.y_interval)
        tau, steps, level = 0.01, 5 * BLOCK + 3, 3 * BLOCK + 7
        solver = AdiSolver(tp, bx, by, tau, steps)
        solver.source_factors[:, level] = np.inf
        message = f"non-finite solution norm at time level {level} of {steps} (t = {level * tau:.15g})"
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            solver.march()
        assert solver.count - 1 == 552
        assert solver.count - 1 - level < HISTORY
        assert 0 < solver._base <= level


def stepwise(solver):
    """Drive solver with step_once alone, then return march()'s kept levels."""
    while solver.count <= solver.steps:
        solver.step_once()
    return solver.march()


PANEL_CASES = [
    pytest.param("compatible_smooth", 8, 5, 1.0, 0, id="M-below-panel"),
    # from k = 3 the panels straddle the multiples of BLOCK
    pytest.param("compatible_nonsmooth", 8, BLOCK + 40, 1.0, 3, id="m3-unaligned"),
    # the far state carries five windows' levels; single steps bring it
    # forward one level at a time, panels PANEL levels
    pytest.param("compatible_smooth", 8, 6 * BLOCK + 10, 1.0, 0, id="far-state"),
    # 39**2 columns: the panel's near product is split into column slabs
    pytest.param("compatible_smooth", 40, 60, 1.0, 0, id="N40"),
    pytest.param("compatible_smooth", 8, 20, 40.0, 0, id="tau2"),
]


class TestPanels:
    @pytest.mark.parametrize("name,degree,steps,final_time,m", PANEL_CASES)
    def test_march_in_panels_matches_single_steps(self, name, degree, steps, final_time, m):
        tp = reduce_order(get_problem(name))
        bx = build_basis(degree, tp.domain.x_interval)
        by = build_basis(degree, tp.domain.y_interval)
        tau = final_time / steps
        kwargs = {}
        if m:
            kwargs = dict(
                correction_terms=m, exponents=(1.1, 1.2, 1.3)[:m],
                starting_values=bootstrap_starting_values(tp, bx, by, tau, m, ratio=10),
            )
        kwargs["keep"] = range(steps + 1)
        panels = AdiSolver(tp, bx, by, tau, steps, **kwargs).march()
        single = stepwise(AdiSolver(tp, bx, by, tau, steps, **kwargs))
        assert np.max(np.abs(panels - single)) <= 1e-13 * max_level_norm(single)

    @pytest.mark.parametrize("n", [1, 7, PANEL])
    def test_sweep_solve_is_the_triangular_toeplitz_solve(self, rng, n):
        # per mode, the panel's levels solve sum_l a_l u[k+1+t-l] = R_t with
        # a_0 = sweep, a_1 = Kw_0 - explicit and a_l = Kw_{l-1}; Kw_lag is
        # the weighted memory coefficient of u[k - lag] in step k
        tp = quiet_tp()
        bx = build_basis(7, (0.0, 2.0))
        by = build_basis(6, (-1.0, 3.0))
        tau, steps = 0.05, 2 * PANEL
        solver = AdiSolver(tp, bx, by, tau, steps)
        mass, stiff, cross, sweep = eigen_operators(solver.coeffs, bx, by)

        def memory(lag):
            total = 0.0
            for b, a in zip(tp.betas, tp.coeffs):
                lam = shifted_weights(b, steps + 1)
                total += a * tau ** (1.0 - b) * half_sum_coefficients(lam, lag)[0] * mass
            lam = shifted_weights(-tp.beta, steps + 1)
            return total + tp.mu * tau ** (1.0 + tp.beta) * half_sum_coefficients(lam, lag)[0] * stiff

        symbol = [sweep, memory(0) - mass - solver.coeffs.cross_coef * cross]
        symbol += [memory(lag - 1) for lag in range(2, n)]
        rhs = rng.standard_normal((n, bx.dim, by.dim))
        got = solver.sweep_solve(rhs)
        want = np.empty_like(rhs)
        for i in range(bx.dim):
            for j in range(by.dim):
                a = [s[i, j] for s in symbol]
                dense = np.array([[a[t - s] if s <= t else 0.0 for s in range(n)] for t in range(n)])
                want[:, i, j] = solve_triangular(dense, rhs[:, i, j], lower=True)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        # a panel of one step is divided by the sweep operator
        np.testing.assert_array_equal(solver.sweep_solve(rhs[:1]), rhs[:1] / sweep)

    @pytest.mark.parametrize("m,steps", [(0, 549), (3, 296)])
    def test_panels_cover_the_march_within_blocks(self, m, steps):
        # the panels take every step once, in order, min(PANEL, steps - k)
        # at a time; driven by panels or by step_once, the levels leave
        # through _take in contiguous blocks that cover 0..steps once, each
        # at a drop (the levels before the near window of the step about
        # to be taken, within HISTORY steps of the oldest) or at the end
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        bx = build_basis(6, tp.domain.x_interval)
        by = build_basis(6, tp.domain.y_interval)
        kwargs = {}
        if m:
            start = [np.zeros((bx.dim, by.dim))] * m
            kwargs = dict(correction_terms=m, exponents=(1.1, 1.2, 1.3), starting_values=start)
        for drive in (AdiSolver.march, stepwise):
            solver = AdiSolver(tp, bx, by, 1.0 / steps, steps, **kwargs)
            calls, takes = [], []
            assemble, take = solver.assemble_rhs, solver._take

            def recording(k, n):
                calls.append((k, n))
                return assemble(k, n)

            def recording_take(first, stop):
                takes.append((first, stop, solver.count - 1))
                return take(first, stop)

            solver.assemble_rhs = recording
            solver._take = recording_take
            drive(solver)
            panel = PANEL if drive is AdiSolver.march else 1
            assert calls[0][0] == m
            for (k, n), (after, _) in zip(calls, calls[1:] + [(steps, None)]):
                assert k + n == after  # every step exactly once, in order
                assert n == min(panel, steps - k)
            assert [first for first, _, _ in takes] == [0] + [stop for _, stop, _ in takes[:-1]]
            *drops, (_, stop, k) = takes
            assert (stop, k) == (steps + 1, steps)
            assert drops
            for first, stop, k in drops:
                assert first < stop == k + 1 - BLOCK
                assert k + min(panel, steps - k) - first >= len(solver.u)  # it would not fit
                assert k - first < HISTORY

    def test_panel_holds_at_most_PANEL_steps(self):
        # the far rows and the inverse symbol are tabled for PANEL steps
        solver = AdiSolver(quiet_tp(), build_basis(6, (-1, 1)), build_basis(6, (-1, 1)), 0.01, BLOCK + 8)
        solver.assemble_rhs(BLOCK - 2, PANEL)
        with pytest.raises(ValueError, match="index"):
            solver.assemble_rhs(0, PANEL + 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "level,stop",
        [
            # the first drop, before the step from level 264, takes levels
            # 0..136 out of the buffer
            pytest.param(100, 264, id="100"),
            # no later drop comes before the last step
            pytest.param(266, 306, id="266"),
        ],
    )
    def test_non_finite_level_stops_the_march_at_its_block_end(self, level, stop):
        # each level is checked as it leaves the buffer, in the block of
        # levels that leave together, or at the last step; the message
        # names the first level that is not finite, and no warning is
        # raised on the way
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(6, tp.domain.x_interval)
        by = build_basis(6, tp.domain.y_interval)
        tau, steps = 0.01, 306
        solver = AdiSolver(tp, bx, by, tau, steps)
        solver.source_factors[:, level] = np.inf
        message = f"non-finite solution norm at time level {level} of {steps} (t = {level * tau:.15g})"
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            solver.march()
        assert solver.count - 1 == stop
        assert solver.count - 1 - level < HISTORY

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_level_stops_a_stepwise_march(self):
        # step_once takes no norms, but the levels it makes leave through
        # the same check, here at the end of march(), with no warning on
        # the way
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(6, tp.domain.x_interval)
        by = build_basis(6, tp.domain.y_interval)
        solver = AdiSolver(tp, bx, by, 0.01, 40)
        solver.source_factors[:, 20] = np.inf
        message = "non-finite solution norm at time level 20 of 40 (t = 0.2)"
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            stepwise(solver)
        assert solver.norms is None


EXACTNESS_CASES = [
    pytest.param((1.1,), (1.3,), UNIT_SQUARE, id="m1"),
    pytest.param((0.9,), (1.3,), UNIT_SQUARE, id="m1-weak"),
    pytest.param((1.1, 1.7), (1.3, -0.4), UNIT_SQUARE, id="m2"),
    pytest.param((1.1, 1.2, 1.3), (1.3, -0.4, 0.7), Rectangle(0.0, 2.0, -1.0, 3.0), id="m3-mapped"),
]


class TestCorrectedMarch:
    @pytest.mark.parametrize("sigmas,amps,domain", EXACTNESS_CASES)
    def test_power_solutions_reproduced_exactly(self, sigmas, amps, domain):
        # every power in the correction set is integrated without
        # truncation error, so the march hits rounding level
        tp, wfun = power_shape_problem(sigmas, amps, domain)
        bx = build_basis(6, domain.x_interval)
        by = build_basis(6, domain.y_interval)
        steps, tau = 12, 1.0 / 16.0
        m = len(sigmas)

        base = np.zeros((bx.dim, by.dim))
        base[0, 0] = 4.0 / 9.0
        starting = [wfun((j + 1) * tau) * base for j in range(m)]
        with np.errstate(divide="ignore", invalid="ignore"):
            levels = AdiSolver(
                tp, bx, by, tau, steps,
                correction_terms=m, exponents=sigmas, starting_values=starting,
                keep=range(steps + 1),
            ).march()
        scale = max(abs(wfun((n + 1) * tau)) for n in range(steps))
        for n in range(steps + 1):
            np.testing.assert_allclose(
                levels[n], wfun(n * tau) * base, atol=1e-12 * max(scale, 1.0)
            )

    def test_uncorrected_march_misses_weak_powers(self):
        tp, wfun = power_shape_problem((1.1,), (1.3,))
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        levels = AdiSolver(tp, bx, by, 1.0 / 16.0, 12, keep=range(13)).march()
        base = np.zeros((bx.dim, by.dim))
        base[0, 0] = 4.0 / 9.0
        dev = max(
            np.max(np.abs(levels[n] - wfun(n / 16.0) * base)) for n in range(13)
        )
        assert dev > 1e-9

    def test_corrected_step_reproduces_march(self):
        tp, wfun = power_shape_problem((1.1, 1.7), (1.3, -0.4))
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        tau, m = 1.0 / 16.0, 2
        base = np.zeros((bx.dim, by.dim))
        base[0, 0] = 4.0 / 9.0
        starting = [wfun((j + 1) * tau) * base for j in range(m)]
        solver = AdiSolver(
            tp, bx, by, tau, 10, correction_terms=m, exponents=(1.1, 1.7),
            starting_values=starting,
        )
        while solver.count <= solver.steps:  # stays in eigen-coordinates
            solver.step_once()
        step = solver.sweep_solve(solver.assemble_rhs(4, 1) + solver.correction_load(4, 1))
        np.testing.assert_array_equal(step, solver.u[5:6])

    def test_run_with_exact_seed_is_exact(self):
        sigmas, amps = (1.1, 1.2, 1.3), (1.3, -0.4, 0.7)
        tp, wfun = power_shape_problem(sigmas, amps)
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        tau = 0.75 / 12.0
        base = np.zeros((bx.dim, by.dim))
        base[0, 0] = 4.0 / 9.0
        starting = [wfun((j + 1) * tau) * base for j in range(3)]
        res = run(
            tp, 6, 12, 0.75,
            correction_terms=3, exponents=sigmas, starting_values=starting,
        )
        assert res.error_max <= 1e-12

    @pytest.mark.parametrize("k", [3, 7, 11])
    def test_correction_load_matches_per_order_formula(self, rng, k):
        # the folded load table against the starting-weight families
        # applied one memory order at a time, on a mapped domain; the
        # reference is formed with the Shen-basis matrices and mapped to
        # eigen-coordinates with E_x^T . E_y
        tp = quiet_tp()
        domain = Rectangle(0.0, 2.0, -1.0, 3.0)
        bx = build_basis(6, domain.x_interval)
        by = build_basis(6, domain.y_interval)
        steps, tau, sigmas = 12, 1.0 / 16.0, (1.1, 1.2, 1.3)
        starting = [rng.standard_normal((bx.dim, by.dim)) for _ in sigmas]
        solver = AdiSolver(
            tp, bx, by, tau, steps,
            correction_terms=3, exponents=sigmas, starting_values=starting,
        )
        load = solver.correction_load(k, 1)[0]

        cs = build_correction_set(tuple(tp.betas) + (-tp.beta,), sigmas, steps)
        diffs = np.array(starting)
        jx, jy = bx.jacobian, by.jacobian

        def combine(coef):
            return np.tensordot(coef, diffs, axes=(0, 0))

        def averaged(order):
            return cs.frac[order][k] + cs.frac[order][k - 1]

        coef = cs.delta[k].copy()
        for b, a in zip(tp.betas, tp.coeffs):
            coef += 0.5 * a * tau ** (1.0 - b) * averaged(b)
        want = -jx * jy * bx.mass @ combine(coef) @ by.mass
        stiff = combine(0.5 * tp.mu * tau ** (1.0 + tp.beta) * averaged(-tp.beta))
        want -= (jy / jx) * bx.stiffness @ stiff @ by.mass
        want -= (jx / jy) * bx.mass @ stiff @ by.stiffness
        cross = combine(cs.perturb[k])
        want -= solver.coeffs.cross_coef * bx.stiffness @ cross @ by.stiffness / (jx * jy)
        want = bx.eigenvectors.T @ want @ by.eigenvectors
        np.testing.assert_allclose(load, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    def test_correction_load_guards(self):
        tp, wfun = power_shape_problem((1.1, 1.7), (1.3, -0.4))
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        plain = AdiSolver(tp, bx, by, 0.1, 6)
        with pytest.raises(ValueError, match="without corrections"):
            plain.correction_load(3, 1)
        base = np.zeros((bx.dim, by.dim))
        base[0, 0] = 4.0 / 9.0
        corrected = AdiSolver(
            tp, bx, by, 0.1, 6, correction_terms=2, exponents=(1.1, 1.7),
            starting_values=[wfun(0.1) * base, wfun(0.2) * base],
        )
        with pytest.raises(ValueError, match="starts at"):
            corrected.correction_load(1, 1)


class TestBootstrap:
    def setup_method(self):
        self.tp = reduce_order(get_problem("compatible_nonsmooth"))
        self.bx = build_basis(8, self.tp.domain.x_interval)
        self.by = build_basis(8, self.tp.domain.y_interval)

    def test_empty(self):
        assert bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, 0) == []

    def test_ratio_one_is_plain_march(self):
        plain = AdiSolver(self.tp, self.bx, self.by, 0.1, 3, keep=range(4)).march()
        boot = bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, 3, ratio=1)
        assert len(boot) == 3
        for j in range(3):
            np.testing.assert_array_equal(boot[j], plain[j + 1])

    def test_refinement_gap_second_order_on_smooth_data(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        vals = {
            r: bootstrap_starting_values(tp, self.bx, self.by, 0.1, 2, ratio=r)
            for r in (100, 200, 400)
        }
        d1 = max(np.max(np.abs(a - b)) for a, b in zip(vals[100], vals[200]))
        d2 = max(np.max(np.abs(a - b)) for a, b in zip(vals[200], vals[400]))
        assert 3.4 <= d1 / d2 <= 4.6

    def test_refinement_gap_shrinks_on_weak_data(self):
        # the nonsmooth start caps the fine march near t^{1.1}, so the
        # gap ratio sits near 2^{1.1} instead of 4
        vals = {
            r: bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, 2, ratio=r)
            for r in (100, 200, 400)
        }
        d1 = max(np.max(np.abs(a - b)) for a, b in zip(vals[100], vals[200]))
        d2 = max(np.max(np.abs(a - b)) for a, b in zip(vals[200], vals[400]))
        assert 2.0 <= d1 / d2 <= 3.0

    def test_fine_march_takes_no_errors(self, monkeypatch):
        # no caller reads the fine march's errors, so it never forms the
        # exact solution's factors, though tp has an exact solution
        assert self.tp.exact

        def refuse(*args):
            raise AssertionError("the bootstrap formed the exact solution's factors")

        monkeypatch.setattr(solver_module, "_exact_factors", refuse)
        assert len(bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, 3, ratio=4)) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, -1)

    def test_small_ratio_rejected(self):
        for count in (2, 0):  # also when no value is asked for
            with pytest.raises(ValueError, match="ratio must be at least one"):
                bootstrap_starting_values(self.tp, self.bx, self.by, 0.1, count, ratio=0)


BINARY_SIZES = [
    (512, "512 bytes"),
    (2**20, "1.00 MiB"),
    (2 * 8 * 1001 * 15**2, "3.44 MiB"),
    (12.345 * 2**20, "12.3 MiB"),
    (99.96 * 2**10, "100 KiB"),
    (2 * 8 * (10**9 + 1) * 7**2, "730 GiB"),
    (999.6 * 2**30, "1000 GiB"),
    (8 * (10**12 + 1) * 15**2, "1.60 PiB"),
]


@pytest.mark.parametrize("nbytes,text", BINARY_SIZES, ids=[text for _, text in BINARY_SIZES])
def test_binary_size_keeps_three_digits(nbytes, text):
    # three significant digits, never an exponent or a trailing point
    assert solver_module._binary_size(nbytes) == text


class TestSolverValidation:
    def setup_method(self):
        self.bx = build_basis(6, (-1.0, 1.0))
        self.by = build_basis(6, (-1.0, 1.0))

    def test_zero_steps(self):
        with pytest.raises(ValueError, match="at least one step"):
            AdiSolver(quiet_tp(), self.bx, self.by, 0.1, 0)

    @pytest.mark.parametrize("field,value", [
        pytest.param("g", SeparableTerm(1.0, 0.5, HUMP), id="single-term"),
        pytest.param("g", [SeparableTerm(1.0, 0.5, HUMP)], id="list"),
        pytest.param("exact", lambda x, y, t: t * x * y, id="callable-exact"),
    ])
    def test_term_fields_must_be_tuples(self, field, value):
        # rejected when built, not deep inside the march or after it
        with pytest.raises(ValueError, match=f"^{field}: "):
            dataclasses.replace(quiet_tp(), **{field: value})

    def test_negative_corrections(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AdiSolver(quiet_tp(), self.bx, self.by, 0.1, 6, correction_terms=-1)

    def test_corrections_need_exponents(self):
        with pytest.raises(ValueError, match="exponents"):
            AdiSolver(quiet_tp(), self.bx, self.by, 0.1, 6, correction_terms=2)

    def test_corrections_need_enough_steps(self):
        with pytest.raises(ValueError, match="more steps"):
            AdiSolver(
                quiet_tp(), self.bx, self.by, 0.1, 2,
                correction_terms=2, exponents=(1.1, 1.2),
            )

    def test_starting_values_may_outnumber_the_window(self):
        # starting values are levels like any other: the far state takes
        # them in as they leave the near window, and more of them than the
        # history buffer's 2 BLOCK + 2 PANEL levels widen it to hold them
        tp = reduce_order(get_problem("compatible_smooth"))
        for count in (BLOCK + 5, 2 * BLOCK + 2 * PANEL + 5):
            steps = count + 15
            every = range(steps + 1)
            whole = AdiSolver(tp, self.bx, self.by, 0.01, steps, keep=every).march()
            start = list(whole[1 : count + 1])
            rest = AdiSolver(tp, self.bx, self.by, 0.01, steps, starting_values=start, keep=every).march()
            assert np.max(np.abs(rest - whole)) <= 1e-13 * max_level_norm(whole)

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(solver_module, "build_correction_set", no_table)
        monkeypatch.setattr(solver_module, "project_time_series", no_table)

    def test_too_many_starting_values(self, no_tables):
        start = [np.zeros((self.bx.dim, self.by.dim))] * 6
        with pytest.raises(ValueError, match="too many starting values: 6 for 5 steps"):
            AdiSolver(quiet_tp(), self.bx, self.by, 0.2, 5, starting_values=start)
        with pytest.raises(ValueError, match="too many starting values: 6 for 4 steps"):
            AdiSolver(
                quiet_tp(), self.bx, self.by, 0.25, 4,
                correction_terms=3, exponents=(1.1, 1.2, 1.3), starting_values=start,
            )

    def test_too_few_starting_values(self, no_tables):
        # corrected stepping starts at k = m, past the m starting values
        start = [np.zeros((self.bx.dim, self.by.dim))]
        for given in (start, None):
            with pytest.raises(ValueError, match="too few starting values: . for 3 correction"):
                AdiSolver(
                    quiet_tp(), self.bx, self.by, 0.1, 10,
                    correction_terms=3, exponents=(1.1, 1.2, 1.3), starting_values=given,
                )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_source_stops_before_the_march(self):
        # a source on a unit profile, infinite at t = 0 (t^-0.5), whose
        # half-source norm overflows from the step to t = 0.7 on: there the
        # mean of 2e308 t^1.5 at two levels exceeds half the largest float,
        # and the square has area 4; the step from level 0 is checked only
        # when the march takes it
        unit = SpatialProfile(values=lambda x, y: np.ones(np.broadcast(x, y).shape))
        g = (
            WeakTerm(1.0, -0.5, unit),
            SeparableTerm(1e308, 1.5, unit),
            SeparableTerm(1e308, 1.5, unit),
        )
        tp = dataclasses.replace(quiet_tp(), g=g)
        with np.errstate(divide="ignore"):  # 0.0**-0.5
            with pytest.raises(FloatingPointError, match=r"level 1 of 10 \(t = 0.1\)"):
                AdiSolver(tp, self.bx, self.by, 0.1, 10)
            start = [np.zeros((self.bx.dim, self.by.dim))]
            with pytest.raises(FloatingPointError, match=r"level 7 of 10 \(t = 0.7\)"):
                AdiSolver(tp, self.bx, self.by, 0.1, 10, starting_values=start)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_starting_value_is_named(self):
        # a starting value is level 1, checked as it leaves the march like
        # any marched level; corrected or not, it is the first bad level
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        bad = [np.full((self.bx.dim, self.by.dim), np.nan)]
        message = re.escape("non-finite solution norm at time level 1 of 20 (t = 0.05)")
        with pytest.raises(FloatingPointError, match=message):
            AdiSolver(tp, self.bx, self.by, 0.05, 20, starting_values=bad).march()
        with pytest.raises(FloatingPointError, match=message):
            run(tp, 6, 20, 1.0, correction_terms=1, exponents=(1.1,), starting_values=bad)


class TestRun:
    def test_final_time_must_be_positive(self):
        with pytest.raises(ValueError, match="final time"):
            run(get_problem("compatible_smooth"), 8, 10, 0.0)

    @pytest.mark.parametrize("final_time", [math.nan, math.inf])
    def test_final_time_must_be_finite(self, final_time):
        with pytest.raises(ValueError, match="final time must be finite"):
            run(get_problem("compatible_smooth"), 8, 10, final_time)

    def test_zero_steps_initial_only(self):
        # a run of no steps records the zero initial level alone, without
        # corrections even where they are asked for, and no half-source norms
        res = run(
            get_problem("compatible_smooth"), 8, 0, 1.0,
            correction_terms=3, exponents=(1.1, 1.2, 1.3),
        )
        assert res.tau == 0.0
        np.testing.assert_array_equal(res.times, [0.0])
        assert res.coeffs.shape == (1, 7, 7)
        assert not res.coeffs.any()
        assert res.half_source_norms.shape == (0,)
        assert res.correction_terms == 0
        assert res.exponents == ()
        assert res.source_mode == "analytic"
        assert res.error_final == pytest.approx(0.0, abs=1e-13)
        assert res.error_final == res.errors[-1]
        assert res.error_max == max(res.errors)
        assert res.stability_ratio == 0.0

    def test_zero_data_stays_zero(self):
        spec = ProblemSpec(
            name="quiet", alpha=1.5, alphas=(), coeffs=(), mu=1.0, domain=UNIT_SQUARE
        )
        res = run(spec, 6, 5, 1.0)
        assert res.errors is None
        assert np.all(res.coeffs == 0.0)
        assert np.all(res.norms == 0.0)
        assert res.stability_ratio == 0.0

    def test_smooth_reference_error(self):
        res = run(get_problem("compatible_smooth"), 16, 64, 1.0)
        assert res.error_final == pytest.approx(1.1322082684e-4, rel=1e-6)
        assert res.errors[-1] == res.error_final
        assert np.max(res.errors) == res.error_max
        assert res.errors[0] <= 1e-13
        assert res.times.shape == (65,)
        assert res.tau == pytest.approx(1.0 / 64.0)
        assert res.wall_time > 0.0

    @pytest.mark.parametrize("name", ["compatible_smooth", "example_6_2"])
    def test_energy_bound_holds(self, name):
        res = run(get_problem(name), 8, 20, 1.0)
        assert 0.0 < res.stability_ratio <= 1.0

    def test_symmetric_problem_gives_symmetric_fields(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        levels = AdiSolver(tp, bx, by, 1.0 / 16, 16, keep=range(17)).march()
        for n in range(17):
            np.testing.assert_allclose(levels[n], levels[n].T, atol=1e-12)

    def test_self_convergence_second_order(self):
        finals = {
            steps: run(get_problem("compatible_smooth"), 16, steps, 1.0).coeffs[-1]
            for steps in (80, 160, 320, 640)
        }
        d = [
            np.max(np.abs(finals[a] - finals[b]))
            for a, b in ((80, 160), (160, 320), (320, 640))
        ]
        for ratio in (d[0] / d[1], d[1] / d[2]):
            assert 3.4 <= ratio <= 4.6

    def test_sampled_and_analytic_sources_both_converge(self):
        errs = {}
        for mode in ("analytic", "sampled"):
            errs[mode] = [
                run(get_problem("compatible_smooth"), 10, steps, 1.0, source_mode=mode).error_final
                for steps in (20, 40)
            ]
            assert errs[mode][0] / errs[mode][1] >= 2.5
        assert errs["analytic"][1] != errs["sampled"][1]

    def test_blocked_norms_and_errors_match_per_level(self):
        # three blocks of norms (dim**2 values per level) and more of errors
        # (the error grid is larger than dim**2)
        degree = 20
        steps = 2 * (LEVEL_BLOCK_VALUES // (degree - 1) ** 2) + 7
        spec = get_problem("compatible_nonsmooth")
        tp = reduce_order(spec)
        bx = build_basis(degree, tp.domain.x_interval)
        by = build_basis(degree, tp.domain.y_interval)
        solver = AdiSolver(tp, bx, by, 1.0 / steps, steps, keep=range(steps + 1))
        levels = solver.march()
        tol = 1e-13 * np.max(solver.norms)
        for n, level in enumerate(levels):
            t = n * solver.tau
            want = l2_error(ModalField2D(level, bx, by), lambda x, y: spec.exact(x, y, t) - spec.g1.values(x, y))
            assert solver.errors[n] == pytest.approx(want, rel=1e-12, abs=tol)
            want = level_norms(to_eigen(levels[n : n + 1], bx, by), bx, by)[0]
            assert solver.norms[n] == pytest.approx(want, rel=1e-13, abs=tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_problem_scales_norms_and_errors(self):
        # the reduced problem is linear in its data, so scaling every term
        # by 1e300 scales the trajectory; the squares of the norms, errors
        # and half-source norms overflow and are rescaled without warnings
        tp = reduce_order(get_problem("compatible_nonsmooth"))

        def scaled(terms):
            return tuple(dataclasses.replace(t, coefficient=1e300 * t.coefficient) for t in terms)

        huge_tp = dataclasses.replace(tp, f=scaled(tp.f), g=scaled(tp.g), exact=scaled(tp.exact))
        unit, huge = run(tp, 8, 40, 1.0), run(huge_tp, 8, 40, 1.0)
        for name in ("norms", "errors", "half_source_norms"):
            got, want = getattr(huge, name), 1e300 * getattr(unit, name)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))
        assert huge.stability_ratio == pytest.approx(unit.stability_ratio, rel=1e-12)

    def test_errors_and_norms_come_from_the_march(self):
        # march() leaves the levels' norms and errors on the solver, and
        # run() reports them as they are; run() marches on the bases of
        # the parities its data occupy
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        res = run(tp, 8, 20, 1.0)
        bx = build_basis(8, tp.domain.x_interval).restrict(res.parities[0])
        by = build_basis(8, tp.domain.y_interval).restrict(res.parities[1])
        solver = AdiSolver(tp, bx, by, 0.05, 20)
        assert solver.norms is None and solver.errors is None
        solver.march()
        np.testing.assert_array_equal(res.norms, solver.norms)
        np.testing.assert_array_equal(res.errors, solver.errors)
        quiet = AdiSolver(quiet_tp(), bx, by, 0.05, 20)
        quiet.march()
        assert quiet.errors is None and not quiet.norms.any()

    def test_initial_error_is_round_off_on_both_paths(self):
        # at t = 0 the reduced exact solution of compatible_nonsmooth is 0,
        # its terms' sum cancels to round-off; M = 0 uses the same formula
        spec = get_problem("compatible_nonsmooth")
        marched, initial = run(spec, 8, 10, 1.0), run(spec, 8, 0, 1.0)
        assert initial.errors[0] == marched.errors[0]
        assert 0.0 <= marched.errors[0] <= 1e-13

    def test_stability_ratio_matches_running_sum(self):
        # the largest ratio sits at level 59, where a pairwise (np.sum)
        # accumulation already differs from the running sum in the last bits
        res = run(get_problem("compatible_smooth"), 8, 300, 1.0)
        ratio = acc = 0.0
        factor = math.exp(2.0 * 1.0) * 2.0 * res.tau
        for n in range(1, len(res.norms)):
            acc += res.half_source_norms[n - 1] ** 2
            bound = factor * acc
            if bound > 0.0:
                ratio = max(ratio, res.norms[n] ** 2 / bound)
        assert ratio > 0.0
        assert res.stability_ratio == ratio

    def test_huge_final_time_has_zero_stability_ratio(self):
        # tau = 0.5 is a sound step, but e^{2T} overflows from T = 354.9 on;
        # the ratio is then 0 to double precision
        res = run(get_problem("compatible_smooth"), 8, 800, 400.0)
        assert res.stability_ratio == 0.0
        assert np.isfinite(res.norms).all()

    @pytest.mark.parametrize("m,exponents", [(3, (1.1,)), (2, (1.1, 1.2, 1.3))])
    def test_exponent_count_must_match(self, monkeypatch, m, exponents):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(solver_module, "bootstrap_starting_values", no_march)
        monkeypatch.setattr(AdiSolver, "march", no_march)
        message = f"{m} correction terms need {m} exponents, got {len(exponents)}"
        with pytest.raises(ValueError, match=message):
            run(get_problem("compatible_nonsmooth"), 8, 10, 1.0, correction_terms=m, exponents=exponents)

    @pytest.mark.parametrize(
        "m,exponents,steps,message",
        [
            (3, (1.3, 1.2, 1.1), 20, "correction exponents must be strictly increasing"),
            (7, tuple(1.1 + 0.1 * p for p in range(7)), 20,
             "need between 1 and 6 correction exponents, got 7"),
            (3, (0.0, 1.2, 1.3), 20, "correction exponents must be positive"),
            (3, (1.1, math.nan, 1.3), 20, "correction exponents must be finite"),
            (3, (1.1, 1.2, 1.3), 3, "need more steps than correction terms"),
        ],
        ids=["decreasing", "seven", "nonpositive", "nan", "few-steps"],
    )
    def test_corrected_run_checked_before_any_march(
        self, monkeypatch, m, exponents, steps, message
    ):
        # the bootstrap march makes the starting values, so it may not
        # start before the exponents and the step count are known to be valid
        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(AdiSolver, "march", no_march)
        problem = get_problem("compatible_nonsmooth")
        with pytest.raises(ValueError, match=re.escape(message)):
            run(problem, 8, steps, 1.0, correction_terms=m, exponents=exponents)

    @pytest.mark.parametrize(
        "m,steps,shapes,message",
        [
            (3, 4, [(7, 7)] * 6, "too many starting values: 6 for 4 steps"),
            (0, 0, [(7, 7)], "too many starting values: 1 for 0 steps"),
            (3, 10, [(7, 7)], "too few starting values: 1 for 3 correction terms"),
            (2, 10, [(7, 7), (9, 9)], "starting value 1 has shape (9, 9), expected (7, 7)"),
            (0, 10, [(7,)], "starting value 0 has shape (7,), expected (7, 7)"),
        ],
        ids=["corrected", "no-steps", "too-few", "wrong-shape", "uncorrected-wrong-shape"],
    )
    def test_starting_value_count_checked_before_any_march(
        self, monkeypatch, m, steps, shapes, message
    ):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(AdiSolver, "__init__", no_march)
        start = [np.zeros(shape) for shape in shapes]
        with pytest.raises(ValueError, match=re.escape(message)):
            run(
                get_problem("compatible_nonsmooth"), 8, steps, 1.0,
                correction_terms=m, exponents=(1.1, 1.2, 1.3)[:m], starting_values=start,
            )

    def test_uncorrected_run_keeps_starting_values(self):
        # without corrections the march starts after the given levels, as
        # an AdiSolver given them does, instead of from level 0
        # (on the bases of the parities the data occupy, as run() marches)
        spec = get_problem("compatible_nonsmooth")
        tp = reduce_order(spec)
        start = [np.zeros((7, 7))] * 2
        res = run(spec, 8, 10, 1.0, starting_values=start)
        bx = build_basis(8, tp.domain.x_interval).restrict(res.parities[0])
        by = build_basis(8, tp.domain.y_interval).restrict(res.parities[1])
        marched = [restricted_coefficients(v, bx, by) for v in start]
        want = AdiSolver(tp, bx, by, 0.1, 10, starting_values=marched, keep=range(11))
        np.testing.assert_array_equal(res.coeffs, full_coefficients(want.march()[-1:], bx, by))
        np.testing.assert_array_equal(res.norms, want.norms)
        assert not res.norms[:3].any() and res.norms[3] > 0.0

    def test_uncorrected_run_records_no_exponents(self):
        res = run(get_problem("compatible_nonsmooth"), 8, 10, 1.0, exponents=(1.1,))
        assert res.exponents == ()

    def test_solver_checks_starting_value_shapes(self):
        tp = reduce_order(get_problem("compatible_nonsmooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        start = [np.zeros((7, 7)), np.zeros((7, 8))]
        with pytest.raises(ValueError, match=re.escape("value 1 has shape (7, 8), expected (7, 7)")):
            AdiSolver(tp, bx, by, 0.1, 10, correction_terms=2, exponents=(1.1, 1.2),
                      starting_values=start)

    def test_zero_source_ignoring_time_across_blocks(self):
        res = run(quiet_tp(), 20, 200, 1.0)
        assert res.norms.shape == (201,)
        assert not res.norms.any()
        assert res.stability_ratio == 0.0

    def test_field_accessor_matches_exact(self):
        res = run(get_problem("compatible_smooth"), 12, 32, 1.0)
        err = l2_error(res.field(), lambda x, y: evaluate_terms(res.tp.exact, x, y, 1.0))
        assert err == pytest.approx(res.error_final, rel=1e-10)

    def test_exact_projection_seed_matches_conftest_helper(self):
        # the exact-seeding helper must agree with a plain L2 projection
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(12, tp.domain.x_interval)
        by = build_basis(12, tp.domain.y_interval)
        coeffs = project_field(lambda x, y: evaluate_terms(tp.exact, x, y, 0.5), bx, by)
        from fracadi.basis import ModalField2D

        err = l2_error(ModalField2D(coeffs, bx, by), lambda x, y: evaluate_terms(tp.exact, x, y, 0.5))
        assert err <= 1e-6


def marched_parities_of(problem, degree, starting_values=()):
    tp = reduce_order(problem)
    bx = build_basis(degree, tp.domain.x_interval)
    by = build_basis(degree, tp.domain.y_interval)
    return marched_parities(tp, bx, by, starting_values)


class TestParityReduction:
    @pytest.mark.parametrize("degree", [4, 8, 20, 22, 30, 31, 64])
    @pytest.mark.parametrize("name", ["compatible_smooth", "compatible_nonsmooth"])
    def test_compatible_sources_keep_the_odd_parity(self, name, degree):
        # sin(pi x) sin(pi y) is bitwise odd in x and y on the Gauss grid,
        # whose rule is exactly symmetric at every degree
        assert marched_parities_of(get_problem(name), degree) == (1, 1)

    @pytest.mark.parametrize(
        "name, degree",
        [("example_6_1", 8), ("example_6_1", 20), ("example_6_2", 8), ("example_6_2", 20),
         ("custom", 16)],
    )
    def test_asymmetric_data_keep_both_parities(self, name, degree):
        # the printed domains and the custom modes on (0, 2) x (-1, 1) are
        # not symmetric on the grid
        if name == "custom":
            problem = build_custom_problem(load_config_file(CUSTOM_CONFIG)[1])
        else:
            problem = get_problem(name)
        assert marched_parities_of(problem, degree) == (None, None)

    @pytest.mark.parametrize(
        "index, parities", [((0, 1), (None, 1)), ((1, 0), (1, None)), ((0, 0), (None, None)),
                            ((1, 1), (1, 1))]
    )
    def test_starting_values_bring_a_dropped_parity_back(self, index, parities):
        start = np.zeros((7, 7))
        start[index] = 1e-300
        spec = get_problem("compatible_smooth")
        assert marched_parities_of(spec, 8, [np.zeros((7, 7)), start]) == parities
        res = run(spec, 8, 10, 1.0, starting_values=[start])
        assert res.parities == parities
        assert res.coeffs.shape == (1, 7, 7)

    def test_zero_data_keep_both_parities(self):
        assert marched_parities(quiet_tp(), *[build_basis(8, (-1.0, 1.0))] * 2) == (None, None)

    @pytest.mark.parametrize(
        "name, degree, steps, m, mode",
        [
            ("compatible_smooth", 20, 300, 0, "analytic"),
            ("compatible_smooth", 22, 300, 0, "analytic"),
            ("compatible_smooth", 12, 40, 0, "sampled"),
            ("compatible_nonsmooth", 12, 64, 3, "analytic"),
            ("compatible_nonsmooth", 20, 100, 3, "sampled"),
        ],
    )
    def test_reduced_run_agrees_with_the_full_march(self, name, degree, steps, m, mode):
        # the dropped classes carry round-off alone; norms, errors and the
        # final level move by at most 1e-13 max ||u^n||
        assert marched_parities_of(get_problem(name), degree) == (1, 1)
        gap, ratio_gap = parity_reduction_gaps(name, degree, steps, m=m, source_mode=mode)
        assert gap <= 1e-13
        assert ratio_gap <= 1e-12

    @pytest.mark.parametrize("m", [0, 3])
    def test_unreduced_run_is_the_full_march_bit_for_bit(self, m):
        spec = get_problem("example_6_2")
        tp = reduce_order(spec)
        exponents = (1.1, 1.2, 1.3)[:m]
        res = run(spec, 8, 20, 1.0, correction_terms=m, exponents=exponents or None)
        assert res.parities == (None, None) and res.marched_modes == 49
        bx, by = res.basis_x, res.basis_y
        start = bootstrap_starting_values(tp, bx, by, 0.05, m)
        solver = AdiSolver(tp, bx, by, 0.05, 20, correction_terms=m, exponents=exponents,
                           starting_values=start)
        np.testing.assert_array_equal(res.coeffs, solver.march())
        np.testing.assert_array_equal(res.norms, solver.norms)
        np.testing.assert_array_equal(res.errors, solver.errors)
        np.testing.assert_array_equal(res.half_source_norms, solver.half_source_norms)
        ratio = stability_ratio(solver.norms, solver.half_source_norms, 0.05, 1.0)
        assert res.stability_ratio == ratio

    def test_reduced_run_returns_the_full_basis(self):
        res = run(get_problem("compatible_nonsmooth"), 9, 10, 1.0)
        assert res.parities == (1, 1) and res.marched_modes == 16
        assert (res.basis_x.dim, res.basis_y.dim) == (8, 8) and res.basis_x.parity is None
        assert res.coeffs.shape == (1, 8, 8)
        assert not res.coeffs[:, ::2].any() and not res.coeffs[:, :, ::2].any()
        assert res.coeffs[0, 1, 1] != 0.0
