"""Reference-path checks: dense solves, unsplit march, direct Caputo."""
import dataclasses
import math

import numpy as np
import pytest

from fracadi.basis import build_basis, eigen_factors, level_norms, to_eigen
from fracadi.oracle import (
    UnsplitReference,
    dense_kronecker_solve,
    dense_step_matrix,
    direct_caputo,
    direct_norm_gap,
    eigen_factor_residual,
    far_kernel_deviation,
    gauss_rule_deviation,
    half_sum_coefficients,
    marched_every_level,
    quadrature_matrix_check,
)
from fracadi.problems import (
    ProblemSpec,
    Rectangle,
    SeparableTerm,
    SpatialProfile,
    get_problem,
)
from fracadi.solver import (
    AdiSolver,
    StepCoefficients,
    TransformedProblem,
    reduce_order,
)
from fracadi.weights import far_exponentials, shifted_weights


class TestDenseStepMatrix:
    def test_vec_ordering_matches_matrix_applies(self, rng):
        bx = build_basis(6, (0.0, 3.0))
        by = build_basis(7, (-2.0, 0.0))
        e = rng.standard_normal((bx.dim, by.dim))
        mass_c, grad_c, cross_c = 1.7, 0.3, 0.05
        a = dense_step_matrix(mass_c, grad_c, bx, by, cross_coef=cross_c)
        assert a.shape == (bx.dim * by.dim, bx.dim * by.dim)

        jx, jy = bx.jacobian, by.jacobian
        want = mass_c * jx * jy * (bx.mass @ e @ by.mass)
        want += grad_c * ((jy / jx) * (bx.stiffness @ e @ by.mass)
                          + (jx / jy) * (bx.mass @ e @ by.stiffness))
        want += cross_c * (bx.stiffness @ e @ by.stiffness) / (jx * jy)
        np.testing.assert_allclose((a @ e.ravel()).reshape(e.shape), want, rtol=1e-12)

    def test_mass_only_solve(self, rng):
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        sc = StepCoefficients(mass_coef=2.0, grad_coef=0.0)
        rhs = rng.standard_normal((bx.dim, by.dim))
        got = dense_kronecker_solve(sc, bx, by, rhs)
        want = np.linalg.solve(bx.mass, rhs) @ np.linalg.inv(by.mass).T / 2.0
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_zero_rhs(self):
        bx = build_basis(6, (-1.0, 1.0))
        sc = StepCoefficients(mass_coef=1.5, grad_coef=0.2)
        got = dense_kronecker_solve(sc, bx, bx, np.zeros((bx.dim, bx.dim)))
        np.testing.assert_allclose(got, 0.0, atol=1e-14)


class TestEigenFactorResidual:
    @pytest.mark.parametrize("which", [0, 1])
    def test_perturbed_factors_fail(self, monkeypatch, which):
        # a relative error of 1e-9 in the eigenvalues or in one eigenvector
        # must show far above the 1e-12 bound of the verify check
        lam, vectors = (arr.copy() for arr in eigen_factors(23))
        if which == 0:
            lam *= 1.0 + 1e-9
        else:
            vectors[:, 5] *= 1.0 + 1e-9
        monkeypatch.setattr("fracadi.oracle.eigen_factors", lambda dim: (lam, vectors))
        assert eigen_factor_residual(23) > 1e-11


class TestFarKernelDeviation:
    def test_perturbed_sum_fails(self, monkeypatch):
        # the verify check's rates pass at 1e-13; a relative error of 1e-9
        # in one order's coefficients must show far above that bound
        orders = (0.5, -0.5)
        assert far_kernel_deviation(orders, 128, 1000) <= 1e-13
        rates, coefficients = far_exponentials(orders, 128, 1000)
        wrong = coefficients * np.array([[1.0], [1.0 + 1e-9]])
        monkeypatch.setattr("fracadi.oracle.far_exponentials", lambda *args: (rates, wrong))
        assert far_kernel_deviation(orders, 128, 1000) > 1e-10


class TestHalfSumCoefficients:
    @pytest.mark.parametrize("order", [-0.5, 0.1, 0.9])
    def test_matches_endpoint_average(self, order):
        k = 7
        lam = shifted_weights(order, k + 2)
        c = half_sum_coefficients(lam, k)
        assert c.shape == (k + 2,)
        for j in range(k + 1):
            assert c[j] == pytest.approx(0.5 * (lam[k + 1 - j] + lam[k - j]), rel=1e-15)
        assert c[k + 1] == pytest.approx(0.5 * lam[0], rel=1e-15)


class TestUnsplitReference:
    def test_splitting_gap_is_second_order(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        gaps = {}
        for steps in (20, 40):
            tau = 1.0 / steps
            split = AdiSolver(tp, bx, by, tau, steps).march()
            plain = UnsplitReference(tp, bx, by, tau, steps).march()
            gaps[steps] = np.max(np.abs(split[-1] - plain[-1]))
        assert gaps[20] > 0.0
        assert 4.0 <= gaps[20] / gaps[40] <= 16.0

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_splitting_gap_order(self, beta):
        # the splitting term cross_coef * (S x S)(u^{k+1} - u^k) has
        # cross_coef ~ tau^(2 + 2 beta), and on a smooth solution the gap
        # between the split and the unsplit march shrinks at that order
        lobe = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        spec = ProblemSpec(
            name="smooth_forcing",
            alpha=1.0 + beta,
            alphas=(),
            coeffs=(),
            mu=1.0,
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
            forcing_terms=(SeparableTerm(1.0, 3.0, lobe), SeparableTerm(1.0, 4.0, lobe)),
        )
        tp = reduce_order(spec)
        bx = build_basis(12, tp.domain.x_interval)
        by = build_basis(12, tp.domain.y_interval)
        gaps = []
        for steps in (20, 40, 80, 160):
            split = AdiSolver(tp, bx, by, 1.0 / steps, steps, keep=range(steps + 1)).march()
            plain = UnsplitReference(tp, bx, by, 1.0 / steps, steps).march()
            gaps.append(float(np.max(level_norms(to_eigen(split - plain, bx, by), bx, by))))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(np.abs(orders - (2.0 + 2.0 * beta)) <= 0.1), orders

    def test_vanishing_diffusion_removes_the_gap(self):
        # with mu = 0 the splitting perturbation is identically zero, so
        # the two marches agree to rounding
        lobe = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        tp = TransformedProblem(
            name="massonly",
            beta=0.5,
            betas=(0.5,),
            coeffs=(0.7,),
            mu=0.0,
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
            g=(SeparableTerm(1.0, 1.3, lobe),),
        )
        bx = build_basis(6, (-1.0, 1.0))
        by = build_basis(6, (-1.0, 1.0))
        split = AdiSolver(tp, bx, by, 1.0 / 16.0, 16, keep=range(17)).march()
        plain = UnsplitReference(tp, bx, by, 1.0 / 16.0, 16).march()
        assert np.max(np.abs(split - plain)) <= 1e-12

    def test_energy_bound_holds_for_unsplit_march(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        steps, final_time = 20, 1.0
        tau = final_time / steps
        ref = UnsplitReference(tp, bx, by, tau, steps)
        ref.march()
        jxjy = bx.jacobian * by.jacobian
        factor = math.exp(2.0 * final_time) * 2.0 * tau
        acc = 0.0
        for n in range(1, steps + 1):
            acc += ref.half_source_norms[n - 1] ** 2
            norm2 = jxjy * float(np.sum(ref.u[n] * (bx.mass @ ref.u[n] @ by.mass)))
            assert norm2 <= factor * acc


class TestDirectCaputo:
    def test_half_derivative_of_t(self):
        got = direct_caputo(0.5, 1.0, exponent=1.0)
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_power_formula_scales_in_time(self):
        got = direct_caputo(1.3, 0.8, exponent=2.6)
        want = math.gamma(3.6) / math.gamma(2.3) * 0.8**1.3
        assert got == pytest.approx(want, rel=1e-13)

    def test_integer_exponents_below_order_vanish(self):
        assert direct_caputo(1.5, 0.7, exponent=1.0) == 0.0
        assert direct_caputo(1.5, 0.7, exponent=0.0) == 0.0

    def test_weak_power_rejected(self):
        with pytest.raises(ValueError, match="too weak"):
            direct_caputo(1.5, 0.7, exponent=0.5)

    def test_integer_order_uses_derivative_directly(self):
        got = direct_caputo(1.0, 0.4, derivative=lambda t: 3.0 * t**2)
        assert got == pytest.approx(3.0 * 0.4**2, rel=1e-14)

    def test_quadrature_path_matches_power_formula(self):
        t = 0.8
        got = direct_caputo(1.3, t, derivative=lambda s: 2.6 * 1.6 * s**0.6)
        want = math.gamma(3.6) / math.gamma(2.3) * t**1.3
        assert got == pytest.approx(want, rel=1e-9)

    def test_quadrature_path_on_entire_function(self):
        # D^{1/2} (e^t - 1) at t = 1, reference from the power series
        t = 1.0
        got = direct_caputo(0.5, t, derivative=math.exp)
        want = sum(
            t ** (k - 0.5) / math.gamma(k + 0.5) for k in range(1, 40)
        )
        assert got == pytest.approx(want, rel=1e-9)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            direct_caputo(-0.5, 1.0, exponent=2.0)
        with pytest.raises(ValueError, match="positive"):
            direct_caputo(0.5, 0.0, exponent=2.0)
        with pytest.raises(ValueError, match="exactly one"):
            direct_caputo(0.5, 1.0)
        with pytest.raises(ValueError, match="exactly one"):
            direct_caputo(0.5, 1.0, exponent=2.0, derivative=lambda t: t)


class TestMatrixChecks:
    @pytest.mark.parametrize("degree,bound", [(8, 1e-12), (16, 5e-12), (24, 1e-11)])
    def test_closed_forms_match_quadrature(self, degree, bound):
        assert quadrature_matrix_check(build_basis(degree, (-1.0, 1.0))) <= bound

    def test_perturbed_closed_form_fails(self):
        # one mass entry off by 1e-10 must show far above verify's 1e-11
        # bound (the unperturbed N = 16 check reads about 5e-13)
        basis = build_basis(16, (-1.0, 1.0))
        mass = basis.mass.copy()
        mass[0, 2] += 1e-10
        assert quadrature_matrix_check(dataclasses.replace(basis, mass=mass)) > 1e-11

    @pytest.mark.parametrize("n", [8, 24, 64])
    def test_gauss_rule_matches_library(self, n):
        assert gauss_rule_deviation(n) <= 1e-13


class TestDirectNormGap:
    @pytest.mark.parametrize(
        "name, m, mode",
        [("compatible_nonsmooth", 0, "sampled"), ("compatible_rich", 0, "auto"),
         ("compatible_rich", 3, "sampled")],
    )
    def test_run_matches_grid_sums(self, name, m, mode):
        # compatible_rich's data live in every mode, so every mode is checked
        solver = marched_every_level(name, 8, 30, m=m, source_mode=mode)
        assert direct_norm_gap(solver) <= 1e-13

    @pytest.mark.parametrize("name", ["half_source_norms", "norms", "errors"])
    def test_perturbed_norms_fail(self, name):
        # a shift of one level by 1e-10 of the gap's scale must show far
        # above the 1e-13 bound
        solver = marched_every_level("compatible_nonsmooth", 8, 30)
        scale = solver.half_source_norms if name == "half_source_norms" else solver.norms
        getattr(solver, name)[7] += 1e-10 * np.max(scale)
        assert direct_norm_gap(solver) > 1e-12

    def test_needs_every_level(self):
        tp = reduce_order(get_problem("compatible_smooth"))
        solver = AdiSolver(tp, build_basis(6, (-1, 1)), build_basis(6, (-1, 1)), 0.1, 5)
        solver.march()
        with pytest.raises(ValueError, match="every level"):
            direct_norm_gap(solver)
