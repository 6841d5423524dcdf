"""Weight sequences: binomial, shifted, and the starting-weight families."""
import math

import numpy as np
import pytest

from fracadi.weights import (
    MAX_CORRECTION_TERMS,
    StartingWeightError,
    apply_gl,
    binomial_weights,
    build_correction_set,
    default_sigmas,
    far_exponentials,
    history_quadratic_form,
    power_factor,
    rl_power,
    shifted_weights,
)


def gamma_ratio_weights(order, count):
    """Independent route: g_j = Gamma(j - order) / (Gamma(-order) j!)."""
    out = np.empty(count + 1)
    out[0] = 1.0
    for j in range(1, count + 1):
        lg = math.lgamma(j - order) - math.lgamma(-order) - math.lgamma(j + 1.0)
        # sign: Gamma(j - order) and Gamma(-order) are both positive for
        # order in (0, 1) and j >= 1; for negative order use the recurrence
        out[j] = math.exp(lg)
    return out


class TestBinomialWeights:
    @pytest.mark.parametrize("order", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_leading_weight_is_one(self, order):
        assert binomial_weights(order, 5)[0] == 1.0

    def test_order_one_is_first_difference(self):
        g = binomial_weights(1.0, 6)
        assert g[0] == 1.0 and g[1] == -1.0
        np.testing.assert_allclose(g[2:], 0.0, atol=0.0)

    def test_order_zero_is_identity(self):
        g = binomial_weights(0.0, 6)
        assert g[0] == 1.0
        np.testing.assert_allclose(g[1:], 0.0, atol=0.0)

    def test_half_order_matches_gamma_formula(self):
        got = binomial_weights(0.5, 30)
        want = gamma_ratio_weights(0.5, 30)
        # all weights past j=0 are negative for positive order
        np.testing.assert_allclose(got[1:], -want[1:], rtol=1e-13)
        assert np.all(got[1:] < 0.0)

    def test_negative_half_order_matches_gamma_formula(self):
        got = binomial_weights(-0.5, 30)
        want = gamma_ratio_weights(-0.5, 30)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        assert np.all(got > 0.0)

    @pytest.mark.parametrize("order", [0.3, 0.8, 1.0])
    def test_partial_sums_decrease_to_zero(self, order):
        # partial sums are the weights of (1-z)^(order-1): positive,
        # monotone, and O(K^-order)
        g = binomial_weights(order, 400)
        sums = np.cumsum(g)
        assert np.all(sums >= -1e-14)
        assert np.all(np.diff(sums) <= 1e-16)
        assert sums[-1] <= 2.0 * 400.0 ** (-order)

    def test_magnitude_decay_past_first(self):
        g = np.abs(binomial_weights(0.7, 100))
        assert np.all(np.diff(g[1:]) <= 1e-16)

    @pytest.mark.parametrize("order", [-1.5, 1.5, 2.0])
    def test_order_outside_range_rejected(self, order):
        with pytest.raises(ValueError):
            binomial_weights(order, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            binomial_weights(0.5, -1)


class TestShiftedWeights:
    def test_order_zero_is_identity(self):
        lam = shifted_weights(0.0, 8)
        assert lam[0] == 1.0
        np.testing.assert_allclose(lam[1:], 0.0, atol=0.0)

    def test_order_one_is_bdf2(self):
        lam = shifted_weights(1.0, 6)
        np.testing.assert_allclose(lam[:3], [1.5, -2.0, 0.5], atol=0.0)
        np.testing.assert_allclose(lam[3:], 0.0, atol=0.0)

    @pytest.mark.parametrize("order", [-1.0, -0.4, 0.1, 0.5, 0.9])
    def test_leading_weight(self, order):
        lam = shifted_weights(order, 3)
        assert lam[0] == pytest.approx(1.0 + order / 2.0, rel=1e-15)

    def test_recombination_of_binomials(self):
        order = 0.6
        g = binomial_weights(order, 20)
        want = (1.0 + order / 2.0) * g
        want[1:] -= (order / 2.0) * g[:-1]
        np.testing.assert_allclose(shifted_weights(order, 20), want, rtol=1e-15)

    def test_sequences_are_read_only(self):
        lam = shifted_weights(0.5, 4)
        with pytest.raises(ValueError):
            lam[0] = 7.0
        assert len(lam) == 5


FAR_ORDERS = (0.99, 0.9, 0.5, -0.1, -0.5, -0.9)


def far_sums(rates, coefficients, lags):
    """sum_q coefficients[:, q] e^{-rates[q] j} at every lag j, one row per order."""
    return coefficients @ np.exp(-np.outer(rates, lags))


class TestFarExponentials:
    @pytest.mark.parametrize("window,steps", [(128, 300), (128, 4000), (64, 2000)])
    def test_matches_binomial_weights_on_every_far_lag(self, window, steps):
        rates, coefficients = far_exponentials(FAR_ORDERS, window, steps)
        lags = np.arange(window - 2, steps + 1)
        for b, got in zip(FAR_ORDERS, far_sums(rates, coefficients, lags)):
            want = binomial_weights(b, steps)[window - 2 :]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        # a few dozen decaying exponentials, and no cancellation to speak of
        assert len(rates) <= 64 and np.all(rates >= 0.0)
        worst = np.max(far_sums(rates, np.abs(coefficients), lags) / np.abs(
            [binomial_weights(b, steps)[window - 2 :] for b in FAR_ORDERS]))
        assert worst <= 20.0

    def test_exact_orders(self):
        # sin(pi b) = 0: orders 0 and 1 have no weight past j = 1, and -1
        # has g_j = 1 at every lag
        rates, coefficients = far_exponentials((0.0, 1.0, -1.0, 0.5), 128, 1000)
        sums = far_sums(rates, coefficients, np.arange(126, 1001))
        assert not coefficients[:2].any()
        np.testing.assert_allclose(sums[2], 1.0, rtol=1e-13)
        want = binomial_weights(0.5, 1000)[126:]
        assert np.max(np.abs(sums[3] - want) / np.abs(want)) <= 1e-13

    def test_rates_shared_and_tables_memoised(self):
        # the rates depend on the window and the step count alone, so all
        # orders share them; both tables are read-only and memoised
        rates, coefficients = far_exponentials((0.5, -0.1), 128, 700)
        assert far_exponentials((-0.9,), 128, 700)[0] is rates
        assert far_exponentials((0.5, -0.1), 128, 700)[1] is coefficients
        assert not rates.flags.writeable and not coefficients.flags.writeable
        one = far_exponentials((-0.1,), 128, 700)[1]
        np.testing.assert_allclose(one[0], coefficients[1], rtol=0, atol=1e-15 * np.abs(one).max())

    def test_order_outside_range_rejected(self):
        with pytest.raises(ValueError, match="order"):
            far_exponentials((1.5,), 128, 700)


class TestApplyGl:
    def test_zero_history(self):
        out = apply_gl(0.5, 0.1, np.zeros((5, 3)))
        np.testing.assert_allclose(out, 0.0, atol=0.0)

    def test_bdf2_exact_on_quadratic(self):
        # order 1 weights are the two-step backward formula, exact on t^2
        tau = 0.125
        t = tau * np.arange(9)
        got = apply_gl(1.0, tau, t**2)
        assert got == pytest.approx(2.0 * t[-1], abs=1e-12)

    def test_half_derivative_of_t_squared_second_order(self):
        order, T = 0.5, 1.0
        target = rl_power(order, 2.0, T)
        errs = []
        for steps in (64, 128):
            tau = T / steps
            hist = (tau * np.arange(steps + 1)) ** 2
            errs.append(abs(apply_gl(order, tau, hist) - target))
        rate = math.log2(errs[0] / errs[1])
        assert rate >= 1.9

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            apply_gl(0.5, 0.1, np.array([1.0]))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            apply_gl(0.5, 0.0, np.array([1.0, 2.0]))


class TestHistoryQuadraticForm:
    @pytest.mark.parametrize("order", [-0.9, -0.5, -0.1, 0.3, 0.5, 0.9, 1.0])
    def test_nonnegative_on_random_histories(self, order, rng):
        for n in (2, 7, 33, 64):
            for _ in range(25):
                v = rng.standard_normal(n)
                qf = history_quadratic_form(order, v)
                assert qf >= -1e-12 * float(v @ v)

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError):
            history_quadratic_form(0.5, np.ones((3, 2)))


class TestRlPower:
    def test_half_derivative_of_t(self):
        # Gamma(2)/Gamma(1.5) t^0.5 = 2 sqrt(t / pi)
        t = 0.49
        assert rl_power(0.5, 1.0, t) == pytest.approx(2.0 * math.sqrt(t / math.pi), rel=1e-14)

    def test_half_integral_of_constant(self):
        t = 2.0
        assert rl_power(-0.5, 0.0, t) == pytest.approx(math.sqrt(t) / math.gamma(1.5), rel=1e-14)

    def test_weak_exponent_rejected(self):
        with pytest.raises(ValueError):
            rl_power(0.5, -1.0, 1.0)

    @pytest.mark.parametrize("exponent", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.5])
    def test_first_order_is_the_ordinary_derivative(self, exponent):
        # below exponent = 0 the Gamma ratio is negative, at 0 it is a pole
        for t in (0.3, 1.0, 2.0):
            want = exponent * t ** (exponent - 1.0)
            assert rl_power(1.0, exponent, t) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("order, exponent", [(0.5, -0.5), (1.0, 0.0), (2.0, 1.0), (0.75, -0.25)])
    def test_poles_of_gamma_give_zero(self, order, exponent):
        assert rl_power(order, exponent, 1.0) == 0.0
        assert rl_power(order, exponent, 2.0) == 0.0

    def test_second_order_derivative_of_square_root(self):
        # d^2/dt^2 t^0.5 = -t^-1.5 / 4: Gamma(1.5) / Gamma(-0.5) is negative
        assert rl_power(2.0, 0.5, 2.0) == pytest.approx(-0.25 * 2.0**-1.5, rel=1e-14)

    def test_positive_lower_argument_keeps_the_log_gamma_bits(self):
        for order, exponent in ((0.5, 1.0), (-0.5, 0.0), (0.9, 0.1), (1.0, 1.5)):
            want = math.exp(math.lgamma(exponent + 1.0) - math.lgamma(exponent + 1.0 - order))
            assert power_factor(order, exponent) == want


def frac_row(order, exponents, k):
    """Row k of the stepper's GL starting-weight table for one order."""
    return build_correction_set((order,), exponents, max(k + 1, 2)).frac[order][k]


def corrected_gl(order, exponents, s, k, tau=1.0):
    """Corrected operator applied to samples of t^s at row k."""
    t = tau * np.arange(k + 2)
    w = frac_row(order, exponents, k)
    jvals = (tau * np.arange(1.0, len(exponents) + 1.0)) ** s
    return apply_gl(order, tau, t**s) + tau ** (-order) * float(w @ jvals)


class TestStartingWeightsFrac:
    @pytest.mark.parametrize("order", [-0.9, -0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_corrected_operator_exact_on_powers(self, order, m):
        sig = tuple(1.1 + 0.1 * p for p in range(m))
        for k in (3, 17):
            for s in sig:
                want = rl_power(order, s, float(k + 1))
                got = corrected_gl(order, sig, s, k)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_exactness_holds_with_physical_step(self):
        order, sig, k, tau = 0.5, (1.1, 1.4), 9, 0.025
        for s in sig:
            want = rl_power(order, s, (k + 1) * tau)
            got = corrected_gl(order, sig, s, k, tau=tau)
            assert got == pytest.approx(want, abs=1e-12)

    def test_single_exponent_closed_form(self):
        # m = 1: the system is 1x1, w = target - GL sum directly
        order, s, k = 0.5, 1.1, 4
        lam = shifted_weights(order, k + 1)
        grid = np.arange(k + 2, dtype=float)
        plain = float(lam[k + 1 :: -1] @ grid**s)
        want = rl_power(order, s, float(k + 1)) - plain
        got = frac_row(order, (s,), k)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_improves_plain_rule_a_hundredfold(self):
        # the uncorrected rule on t^1.1 carries an O(tau^{2.1-order})
        # startup error; the corrected rule is exact
        order, tau, steps = 0.1, 1.0 / 40.0, 40
        sig = tuple(1.1 + 0.1 * p for p in range(6))
        t = tau * np.arange(steps + 1)
        powers = t**1.1
        target = rl_power(order, 1.1, t[-1])
        plain_err = abs(apply_gl(order, tau, powers) - target)
        w = frac_row(order, sig, steps - 1)
        corrected = apply_gl(order, tau, powers) + tau ** (-order) * float(
            w @ powers[1 : len(sig) + 1]
        )
        corrected_err = abs(corrected - target)
        assert plain_err > 1e-7
        assert corrected_err <= plain_err / 100.0


class TestStartingWeightsDelta:
    def test_sigma_one_gives_zero_rows(self):
        delta = build_correction_set((0.5,), (1.0,), 10).delta
        np.testing.assert_allclose(delta[[1, 2, 9]], 0.0, atol=1e-14)

    def test_closed_form_single_exponent(self):
        s, k = 1.5, 1
        want = 0.5 * s * (k ** (s - 1.0) + (k + 1) ** (s - 1.0)) - ((k + 1) ** s - k**s)
        got = build_correction_set((0.5,), (s,), 2).delta[k]
        assert got[0] == pytest.approx(want, rel=1e-13)

    def test_corrects_difference_quotient(self):
        sig = (1.1, 1.3)
        delta = build_correction_set((0.5,), sig, 13).delta
        for k in (1, 4, 12):
            for s in sig:
                jvals = np.arange(1.0, len(sig) + 1.0) ** s
                diff = (k + 1.0) ** s - float(k) ** s
                target = 0.5 * s * (k ** (s - 1.0) + (k + 1.0) ** (s - 1.0))
                assert diff + float(delta[k] @ jvals) == pytest.approx(target, abs=1e-12)


class TestStartingWeightsPerturb:
    def test_sigma_one_gives_minus_one(self):
        perturb = build_correction_set((0.5,), (1.0,), 8).perturb
        np.testing.assert_allclose(perturb[[0, 1, 7], 0], -1.0, rtol=1e-14)

    def test_cancels_forward_difference(self):
        sig = (1.1, 1.2, 1.3)
        perturb = build_correction_set((0.5,), sig, 10).perturb
        for k in (0, 2, 9):
            for s in sig:
                jvals = np.arange(1.0, len(sig) + 1.0) ** s
                diff = (k + 1.0) ** s - float(k) ** s
                assert diff + float(perturb[k] @ jvals) == pytest.approx(0.0, abs=1e-12)


class TestCorrectionSet:
    def test_delta_row_zero_padding(self):
        cs = build_correction_set((0.5,), (1.1,), rows=4)
        np.testing.assert_allclose(cs.delta[0], 0.0, atol=0.0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            build_correction_set((0.5,), (1.1,), rows=1)

    @pytest.mark.parametrize("rows", [7, 500])
    def test_rows_do_not_depend_on_the_other_orders(self, rows):
        # `fracadi weights --order b --sigma ...` builds a one-order set; it
        # prints the rows a march with more orders loads only if no family
        # is solved together with another
        orders, sig = (0.9, 0.0, -0.1), default_sigmas(3)
        shared = build_correction_set(orders, sig, rows)
        for b in orders:
            alone = build_correction_set((b,), sig, rows)
            np.testing.assert_array_equal(alone.frac[b], shared.frac[b])
            np.testing.assert_array_equal(alone.delta, shared.delta)
            np.testing.assert_array_equal(alone.perturb, shared.perturb)

    def test_invalid_order_rejected_before_any_solve(self):
        # the exponents alone would raise StartingWeightError
        with pytest.raises(ValueError, match=r"order must lie in \[-1, 1\], got 1.5"):
            build_correction_set((0.5, 1.5), (1.1, 1.1 + 1e-13), 4)


class TestExponentValidation:
    def test_empty_exponents_rejected(self):
        with pytest.raises(ValueError):
            build_correction_set((0.5,), (), 2)

    def test_too_many_exponents_rejected(self):
        sig = tuple(1.1 + 0.05 * p for p in range(MAX_CORRECTION_TERMS + 1))
        with pytest.raises(ValueError):
            build_correction_set((0.5,), sig, 2)

    def test_nonincreasing_exponents_rejected(self):
        with pytest.raises(ValueError):
            build_correction_set((0.5,), (1.2, 1.1), 2)

    def test_nonpositive_exponents_rejected(self):
        with pytest.raises(ValueError):
            build_correction_set((0.5,), (0.0, 1.1), 2)

    @pytest.mark.parametrize("sig", [(math.nan,), (1.1, math.inf), (math.nan, 1.2)])
    def test_non_finite_exponents_rejected(self, sig):
        with pytest.raises(ValueError, match="correction exponents must be finite"):
            build_correction_set((0.5,), sig, 2)

    def test_near_duplicate_exponents_flagged(self):
        with pytest.raises(StartingWeightError) as info:
            build_correction_set((0.5,), (1.1, 1.1 + 1e-13), 4)
        assert info.value.condition > 1e12
