"""Legendre machinery, Gauss rules, and the Dirichlet modal basis."""
import math

import numpy as np
import pytest

from fracadi.basis import (
    ModalField2D,
    ShenSystemSolver,
    build_basis,
    eigen_mass,
    evaluate_field,
    factor_norms,
    full_coefficients,
    gauss_legendre,
    grid_factor,
    grid_values,
    l2_error,
    legendre_table,
    level_norms,
    mirror_parity,
    projection_factors,
    restricted_coefficients,
    shen_mass_matrix,
    shen_stiffness_diagonal,
    to_eigen,
)
from fracadi.oracle import gauss_rule_deviation, grid_norms, quadrature_matrix_check
from fracadi.problems import SpatialProfile

from conftest import project_field, project_source


class TestLegendre:
    def test_low_degrees_closed_form(self):
        x = np.linspace(-1.0, 1.0, 11)
        table = legendre_table(3, x)
        np.testing.assert_allclose(table[0], 1.0, atol=0.0)
        np.testing.assert_allclose(table[1], x, atol=0.0)
        np.testing.assert_allclose(table[2], 0.5 * (3.0 * x**2 - 1.0), atol=1e-15)
        np.testing.assert_allclose(table[3], 0.5 * (5.0 * x**3 - 3.0 * x), atol=1e-15)

    def test_value_at_half(self):
        assert legendre_table(2, np.array([0.5]))[2, 0] == pytest.approx(-0.125, abs=1e-16)

    def test_endpoint_values_exact(self):
        table = legendre_table(64, np.array([1.0, -1.0]))
        np.testing.assert_allclose(table[:, 0], 1.0, atol=0.0)
        signs = (-1.0) ** np.arange(65)
        np.testing.assert_allclose(table[:, 1], signs, atol=0.0)


class TestGaussLegendre:
    def test_one_point_rule(self):
        nodes, weights = gauss_legendre(1)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0, rel=1e-15)

    def test_two_point_rule(self):
        nodes, weights = gauss_legendre(2)
        np.testing.assert_allclose(nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-15)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize("n", [4, 9, 16, 32])
    def test_polynomial_exactness(self, n):
        nodes, weights = gauss_legendre(n)
        for k in range(0, 2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1.0)
            assert float(weights @ nodes**k) == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("n", [8, 64, 136])
    def test_rule_deviation_metric(self, n):
        assert gauss_rule_deviation(n) <= 1e-13

    def test_symmetry(self):
        # every rule is exactly symmetric by construction, with no tolerance
        for n in range(1, 201):
            nodes, weights = gauss_legendre(n)
            assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all(), n
            assert (np.diff(nodes) > 0.0).all(), n
            if n % 2:
                assert nodes[n // 2] == 0.0 and not np.signbit(nodes[n // 2]), n


class TestShenMatrices:
    def test_stiffness_diagonal_closed_form(self):
        np.testing.assert_allclose(shen_stiffness_diagonal(5), [6.0, 10.0, 14.0, 18.0, 22.0])

    def test_mass_entries_closed_form(self):
        mass = shen_mass_matrix(5)
        assert mass[0, 0] == pytest.approx(2.0 / 1.0 + 2.0 / 5.0, rel=1e-15)  # 2.4
        assert mass[1, 3] == pytest.approx(-2.0 / 7.0, rel=1e-15)
        assert mass[3, 1] == mass[1, 3]
        # bandwidth 2: everything off the tri-band (in parity) vanishes
        assert mass[0, 1] == 0.0 and mass[0, 3] == 0.0 and mass[0, 4] == 0.0

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_matrices_match_quadrature(self, n):
        assert quadrature_matrix_check(build_basis(n, (-1.0, 1.0))) <= 1e-11

    def test_matrices_match_quadrature_mapped(self):
        assert quadrature_matrix_check(build_basis(12, (0.0, 3.0))) <= 1e-11


class TestBuildBasis:
    def test_dimensions_and_mapping(self):
        basis = build_basis(10, (0.0, 2.0))
        assert basis.dim == 9
        assert basis.jacobian == 1.0
        assert basis.offset == 1.0
        assert basis.quad_count == 18
        assert basis.basis_at_quad.shape == (9, 18)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            build_basis(3, (-1.0, 1.0))

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            build_basis(8, (1.0, 1.0))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-1e308, 1e308)])
    def test_interval_length_must_be_finite(self, interval):
        with pytest.raises(ValueError, match="positive finite length"):
            build_basis(6, interval)

    def test_huge_finite_interval_maps_without_overflow(self):
        # a + b overflows here, though the corners and the length are finite
        basis = build_basis(6, (1e308, 1.5e308))
        assert basis.offset == 1.25e308
        nodes = basis.nodes
        assert np.all(np.isfinite(nodes))
        assert np.all((1e308 < nodes) & (nodes < 1.5e308))

    def test_boundary_values_vanish_exactly(self):
        basis = build_basis(12, (-2.0, 5.0))
        vals = basis.basis_values(np.array([-2.0, 5.0]))
        np.testing.assert_allclose(vals, 0.0, atol=0.0)

    def test_matrices_read_only(self):
        basis = build_basis(6, (-1.0, 1.0))
        with pytest.raises(ValueError):
            basis.mass[0, 0] = 1.0


class TestParityRestriction:
    @pytest.mark.parametrize("degree", [8, 9, 20])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_slices_of_the_full_basis(self, degree, parity):
        full = build_basis(degree, (-2.0, 1.0))
        part = full.restrict(parity)
        keep = np.arange(parity, degree - 1, 2)
        np.testing.assert_array_equal(part.indices, keep)
        assert part.dim == len(keep) and part.parity == parity
        np.testing.assert_array_equal(part.mass, full.mass[np.ix_(keep, keep)])
        np.testing.assert_array_equal(part.stiffness, full.stiffness[np.ix_(keep, keep)])
        np.testing.assert_array_equal(part.basis_at_quad, full.basis_at_quad[keep])
        x = np.linspace(-2.0, 1.0, 7)
        np.testing.assert_array_equal(part.basis_values(x), full.basis_values(x)[keep])
        assert part.quad_nodes is full.quad_nodes

    @pytest.mark.parametrize("degree", [8, 21])
    def test_own_eigen_factors_split_the_full_ones(self, degree):
        # the mass matrix couples only equal parities, so the two classes'
        # eigenvalues are the full basis' eigenvalues
        full = build_basis(degree, (-1.0, 1.0))
        lams = []
        for parity in (0, 1):
            part = full.restrict(parity)
            e, lam = part.eigenvectors, part.eigenvalues
            np.testing.assert_allclose(e.T @ part.mass @ e, np.diag(lam), atol=1e-14)
            np.testing.assert_allclose(e.T @ part.stiffness @ e, np.eye(part.dim), atol=1e-14)
            lams.append(lam)
        np.testing.assert_allclose(np.sort(np.concatenate(lams)), full.eigenvalues, rtol=1e-13)

    def test_full_basis_restricts_to_itself(self):
        full = build_basis(8, (-1.0, 1.0))
        assert full.restrict(None) is full
        assert full.parity is None and full.dim == 7
        with pytest.raises(ValueError, match="only a full basis"):
            full.restrict(1).restrict(1)
        with pytest.raises(ValueError, match="parity must be 0, 1 or None"):
            full.restrict(2)

    def test_coefficients_scatter_and_gather(self, rng):
        full = build_basis(9, (-1.0, 1.0))
        bx, by = full.restrict(1), full.restrict(0)
        part = rng.standard_normal((2, bx.dim, by.dim))
        coeffs = full_coefficients(part, bx, by)
        assert coeffs.shape == (2, 8, 8)
        np.testing.assert_array_equal(coeffs[:, 1::2, ::2], part)
        assert not coeffs[:, ::2].any() and not coeffs[:, :, 1::2].any()
        np.testing.assert_array_equal(restricted_coefficients(coeffs, bx, by), part)
        np.testing.assert_array_equal(restricted_coefficients(coeffs, full, full), coeffs)

    def test_restricted_field_has_the_same_norm(self, rng):
        # a field of one parity class has the same L2 norm on both bases
        full = build_basis(10, (-1.0, 1.0))
        bx, by = full.restrict(1), full.restrict(1)
        part = rng.standard_normal((1, bx.dim, by.dim))
        coeffs = full_coefficients(part, bx, by)
        want = level_norms(to_eigen(coeffs, full, full), full, full)
        got = level_norms(to_eigen(part, bx, by), bx, by, mass=eigen_mass(bx, by))
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestMirrorParity:
    @pytest.mark.parametrize(
        "values, parity",
        [
            (lambda x, y: np.sin(np.pi * x) * np.cos(y), (1, 0)),
            (lambda x, y: x**2 * y**3, (0, 1)),
            (lambda x, y: np.exp(x) * y, (None, 1)),
            (lambda x, y: 0.0 * x * y, (None, None)),
        ],
        ids=["odd-even", "even-odd", "none-odd", "zero"],
    )
    def test_symmetric_values_keep_one_parity(self, values, parity):
        basis = build_basis(8, (-1.0, 1.0))
        grid = grid_values((SpatialProfile(values=values),), basis, basis)
        assert (mirror_parity(grid, 1), mirror_parity(grid, 2)) == parity

    def test_every_profile_must_share_the_parity(self):
        basis = build_basis(8, (-1.0, 1.0))
        profiles = (
            SpatialProfile(values=lambda x, y: x * y),
            SpatialProfile(values=lambda x, y: x * y * y),
        )
        grid = grid_values(profiles, basis, basis)
        assert (mirror_parity(grid, 1), mirror_parity(grid, 2)) == (1, None)

    def test_non_finite_values_keep_both(self):
        basis = build_basis(8, (-1.0, 1.0))
        grid = np.full((1, basis.quad_count, basis.quad_count), np.nan)
        assert mirror_parity(grid, 1) is None


class TestProjection:
    def test_zero_function(self, unit_bases):
        bx, by = unit_bases
        np.testing.assert_allclose(project_source(lambda x, y: 0.0 * x * y, bx, by), 0.0)

    def test_first_mode_product(self, unit_bases):
        bx, by = unit_bases
        # phi_0(xi) = (3/2)(1 - xi^2); inner products follow the mass row
        def f(x, y):
            return 1.5 * (1.0 - x**2) * 1.5 * (1.0 - y**2)

        got = project_source(f, bx, by)
        want = np.outer(bx.mass[0], by.mass[0])
        np.testing.assert_allclose(got, want, atol=1e-14)
        assert got[0, 0] == pytest.approx(2.4 * 2.4, rel=1e-13)

    def test_odd_mode_sparsity(self, unit_bases):
        bx, by = unit_bases
        # x*y = L1(x) L1(y) hits only phi_1 in each direction
        got = project_source(lambda x, y: x * y, bx, by)
        want = np.zeros_like(got)
        want[1, 1] = (2.0 / 3.0) ** 2
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_jacobian_scaling(self):
        bx = build_basis(8, (0.0, 4.0))
        by = build_basis(8, (-1.0, 1.0))
        got = project_source(lambda x, y: np.ones(np.broadcast(x, y).shape), bx, by)
        # (1, phi_0 psi_0) = Jx (1, phi_0)_ref * Jy (1, psi_0)_ref;
        # (1, phi_0)_ref = (1, L_0 - L_2) = 2
        assert got[0, 0] == pytest.approx(2.0 * 2.0 * 2.0, rel=1e-13)


class TestEvaluateField:
    def test_zero_coeffs(self, unit_bases):
        bx, by = unit_bases
        field = ModalField2D(np.zeros((bx.dim, by.dim)), bx, by)
        x = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_allclose(evaluate_field(field, x, x), 0.0, atol=0.0)

    def test_single_mode_closed_form(self):
        bx = build_basis(6, (0.0, 2.0))
        by = build_basis(6, (-3.0, 1.0))
        coeffs = np.zeros((bx.dim, by.dim))
        coeffs[0, 0] = 1.0
        field = ModalField2D(coeffs, bx, by)
        x = np.linspace(0.0, 2.0, 7)
        y = np.linspace(-3.0, 1.0, 9)
        xi = (x - 1.0) / 1.0
        eta = (y + 1.0) / 2.0
        want = np.outer(1.5 * (1.0 - xi**2), 1.5 * (1.0 - eta**2))
        np.testing.assert_allclose(evaluate_field(field, x, y), want, atol=1e-14)

    def test_projection_round_trip(self, unit_bases, rng):
        bx, by = unit_bases
        coeffs = rng.standard_normal((bx.dim, by.dim))
        field = ModalField2D(coeffs, bx, by)
        back = project_field(lambda x, y: evaluate_field(field, x[:, 0], y[0, :]), bx, by)
        np.testing.assert_allclose(back, coeffs, atol=1e-12)


class TestL2:
    def test_error_against_self(self, unit_bases, rng):
        bx, by = unit_bases
        coeffs = rng.standard_normal((bx.dim, by.dim))
        field = ModalField2D(coeffs, bx, by)
        err = l2_error(field, lambda x, y: evaluate_field(field, x[:, 0], y[0, :]))
        assert err <= 1e-13

    def test_zero_field_against_constant(self, unit_bases):
        bx, by = unit_bases
        field = ModalField2D(np.zeros((bx.dim, by.dim)), bx, by)
        assert l2_error(field, lambda x, y: np.ones(np.broadcast(x, y).shape)) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_zero_field_against_sine_product(self, unit_bases):
        # ||sin(pi x) sin(pi y)|| = 1 on (-1, 1)^2; most of it lies off
        # the degree-8 basis, in the residual part of the norm
        bx, by = unit_bases
        field = ModalField2D(np.zeros((bx.dim, by.dim)), bx, by)
        err = l2_error(field, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert err == pytest.approx(1.0, rel=0.0, abs=1e-13)

    def test_norm_matches_error_to_zero(self, unit_bases, rng):
        bx, by = unit_bases
        coeffs = rng.standard_normal((bx.dim, by.dim))
        field = ModalField2D(coeffs, bx, by)
        err = l2_error(field, lambda x, y: np.zeros(np.broadcast(x, y).shape))
        assert level_norms(to_eigen(coeffs, bx, by)[None], bx, by)[0] == pytest.approx(err, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_errors_of_huge_finite_fields_stay_finite(self, unit_bases, rng):
        # the squared differences of a 1e170-scaled stack overflow; the
        # errors must still scale exactly with the data
        bx, by = unit_bases
        coeffs = rng.standard_normal((3, bx.dim, by.dim))
        times = np.array([0.0, 0.5, 1.0])
        table = (1.0 + times)[None]
        profile = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.cos(y))
        factors = projection_factors(grid_values((profile,), bx, by), bx, by)
        v = to_eigen(coeffs, bx, by)

        plain = level_norms(v, bx, by, table, factors)
        huge = level_norms(1e170 * v, bx, by, 1e170 * table, factors)
        assert np.all(plain > 1.0)
        np.testing.assert_allclose(huge, 1e170 * plain, rtol=1e-12)
        scaled = level_norms(to_eigen(1e170 * coeffs, bx, by), bx, by)
        np.testing.assert_allclose(scaled, 1e170 * level_norms(v, bx, by), rtol=1e-12)
        r = factors[1]
        np.testing.assert_allclose(factor_norms(1e170 * table, r), 1e170 * factor_norms(table, r), rtol=1e-12)

    def test_spectral_decay_on_analytic_function(self):
        # boundary-compatible analytic target: geometric decay in N
        def f(x, y):
            return np.sin(np.pi * x) * np.exp(x) * np.sin(np.pi * y)

        errs = []
        for degree in (6, 10, 14, 18):
            bx = build_basis(degree, (-1.0, 1.0))
            by = build_basis(degree, (-1.0, 1.0))
            coeffs = project_field(lambda x, y: f(x, y), bx, by)
            errs.append(l2_error(ModalField2D(coeffs, bx, by), f))
        errs = np.array(errs)
        assert np.all(errs[1:] < 2e-2 * errs[:-1])


class TestNormIdentity:
    """The grid norm split into an eigen-coordinate part and a residual part."""

    @pytest.fixture
    def mapped_bases(self):
        return build_basis(9, (0.0, 2.5)), build_basis(7, (-1.0, 0.5))

    def test_shen_polynomial_profile_has_no_residual(self, mapped_bases, rng):
        bx, by = mapped_bases
        coeffs = rng.standard_normal((bx.dim, by.dim))
        field = ModalField2D(coeffs, bx, by)
        profile = SpatialProfile(values=lambda x, y: evaluate_field(field, x[:, 0], y[0, :]))
        eigen, r = projection_factors(grid_values((profile,), bx, by), bx, by)
        assert np.abs(r).max() <= 1e-14
        want = to_eigen(coeffs, bx, by)
        np.testing.assert_allclose(eigen[0], want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    def test_eigen_norm_matches_mass_matrix_norm(self, mapped_bases, rng):
        bx, by = mapped_bases
        stack = rng.standard_normal((40, bx.dim, by.dim)) * np.logspace(-3.0, 3.0, 40)[:, None, None]
        mass = bx.jacobian * by.jacobian * np.einsum("nij,ik,nkl,jl->n", stack, bx.mass, stack, by.mass)
        got = level_norms(to_eigen(stack, bx, by), bx, by)
        np.testing.assert_allclose(got, np.sqrt(mass), rtol=1e-14, atol=0.0)

    def test_grid_factor_gives_grid_norms(self, mapped_bases, rng):
        bx, by = mapped_bases
        grid = grid_values((LOBE_PROFILE, HUMP_PROFILE, DECAY_PROFILE), bx, by)
        table = rng.standard_normal((3, 25))
        want = grid_norms(table, grid, bx, by)
        np.testing.assert_allclose(factor_norms(table, grid_factor(grid, bx, by)), want, rtol=1e-14)

    def test_errors_match_grid_sums(self, mapped_bases, rng):
        bx, by = mapped_bases
        grid = grid_values((LOBE_PROFILE, HUMP_PROFILE, DECAY_PROFILE), bx, by)
        table = rng.standard_normal((3, 25))
        coeffs = rng.standard_normal((25, bx.dim, by.dim))
        want = grid_norms(table, grid, bx, by, coeffs)
        got = level_norms(to_eigen(coeffs, bx, by), bx, by, table, projection_factors(grid, bx, by))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_nearly_cancelling_profiles_match_grid_sums(self, mapped_bases):
        # two profiles whose sum is 1e-8 of either: the norms of the sum
        # keep the accuracy of the grid sums, round-off of the profiles'
        # size, which a Gram matrix of the profiles would not
        bx, by = mapped_bases
        twin = SpatialProfile(values=lambda x, y: -(1.0 + 1e-8 * x * y) * LOBE_PROFILE.values(x, y))
        grid = grid_values((LOBE_PROFILE, twin), bx, by)
        table = np.array([np.linspace(0.5, 2.0, 7), np.linspace(0.5, 2.0, 7)])
        scale = 2.0 * np.abs(grid).max()
        want = grid_norms(table, grid, bx, by)
        assert np.all(want < 1e-7 * scale)
        got = factor_norms(table, grid_factor(grid, bx, by))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * scale)
        zero = np.zeros((7, bx.dim, by.dim))
        got = level_norms(zero, bx, by, table, projection_factors(grid, bx, by))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * scale)


LOBE_PROFILE = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
HUMP_PROFILE = SpatialProfile(values=lambda x, y: (1.0 - x**2) * np.cos(y))
DECAY_PROFILE = SpatialProfile(values=lambda x, y: np.exp(-x) * (x + y))


class TestShenSystemSolver:
    def test_matches_dense_solve(self, rng):
        basis = build_basis(11, (-1.0, 1.0))
        a, b = 2.3, 0.7
        solver = ShenSystemSolver(basis, a, b)
        matrix = a * basis.mass + b * basis.stiffness
        rhs = rng.standard_normal((basis.dim, 4))
        got = solver.solve(rhs)
        want = np.linalg.solve(matrix, rhs)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_parity_blocks_decouple(self):
        basis = build_basis(9, (-1.0, 1.0))
        matrix = 1.0 * basis.mass + 0.5 * basis.stiffness
        even = np.arange(0, basis.dim, 2)
        odd = np.arange(1, basis.dim, 2)
        np.testing.assert_allclose(matrix[np.ix_(even, odd)], 0.0, atol=0.0)

    def test_system_is_spd(self):
        basis = build_basis(10, (0.0, 1.0))
        matrix = 0.3 * basis.mass + 2.0 * basis.stiffness
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs.min() > 0.0

    def test_mass_only(self, rng):
        basis = build_basis(7, (-1.0, 1.0))
        solver = ShenSystemSolver(basis, 1.7, 0.0)
        rhs = rng.standard_normal(basis.dim)
        np.testing.assert_allclose(
            solver.solve(rhs), np.linalg.solve(1.7 * basis.mass, rhs), atol=1e-13
        )

    def test_invalid_coefficients(self):
        basis = build_basis(6, (-1.0, 1.0))
        with pytest.raises(ValueError):
            ShenSystemSolver(basis, 0.0, 1.0)
        with pytest.raises(ValueError):
            ShenSystemSolver(basis, 1.0, -0.1)
