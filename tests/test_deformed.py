"""Deformed exponential/logarithm core: anchors, identities, asymptotics."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from kappagen import (
    DomainError,
    kappa_exp,
    kappa_exp_asymptote,
    kappa_exp_taylor,
    kappa_log,
    kappa_sum,
    log_kappa_exp,
    xi_coefficients,
)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# kappa x below the smallest normal double for some or all of the x grid;
# 1e-320 and 1e-310 are themselves subnormal
TINY_KAPPAS = [1e-320, 1e-310, 1e-300, 1e-250]
MAGNITUDES = np.logspace(-300, 300, 121)


def max_rel_err_mp(got, want_fn, xs):
    with mp.workdps(50):
        return max(float(abs(mp.mpf(float(g)) - want_fn(mp.mpf(float(x))))
                         / abs(want_fn(mp.mpf(float(x)))))
                   for g, x in zip(got, xs))


class TestKappaExp:
    def test_zero_argument_is_one(self):
        for k in (0.0, 0.1, 0.5, 0.75, 0.99):
            assert kappa_exp(0.0, k) == 1.0

    def test_zero_kappa_is_exp(self):
        assert rel_err(kappa_exp(1.0, 0.0), math.e) < 1e-15

    def test_half_kappa_closed_value(self):
        # (sqrt(1.25) + 0.5)^2 by direct arithmetic on the radical form
        want = (math.sqrt(1.25) + 0.5) ** 2
        assert rel_err(kappa_exp(1.0, 0.5), want) < 1e-14

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for k in (0.0, 0.2, 0.6, 0.95):
            x = np.sort(rng.uniform(-50, 50, 200))
            y = kappa_exp(x, k)
            assert np.all(np.diff(y) > 0)
            assert np.all(y > 0)

    def test_convexity_on_grid(self):
        x = np.linspace(-20, 20, 401)
        h = x[1] - x[0]
        for k in (0.1, 0.5, 0.9):
            y = kappa_exp(x, k)
            second = y[2:] - 2 * y[1:-1] + y[:-2]
            assert np.all(second >= -1e-12 * np.abs(y[1:-1]) * h * h)

    def test_saturates_to_inf_not_nan(self):
        assert kappa_exp(1e308, 1e-9) == math.inf
        assert kappa_exp(-1e308, 1e-9) == 0.0
        assert kappa_exp(1e4, 0.0) == math.inf

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-30, 30, 100)
        for k in (0.25, 0.7):
            np.testing.assert_allclose(kappa_exp(x, k), kappa_exp(x, -k), rtol=0)

    def test_small_kappa_limit_matches_exp(self):
        x = np.linspace(-20, 20, 41)
        got = kappa_exp(x, 1e-9)
        assert np.max(np.abs(got - np.exp(x)) / np.exp(x)) <= 1e-6

    @pytest.mark.parametrize("kappa", TINY_KAPPAS)
    def test_log_against_mpmath_at_tiny_kappa(self, kappa):
        # where kappa x underflows, arcsinh(kappa x)/kappa has lost bits; x is exact
        x = np.concatenate([MAGNITUDES, -MAGNITUDES])
        k = mp.mpf(kappa)
        err = max_rel_err_mp(log_kappa_exp(x, kappa), lambda t: mp.asinh(k * t) / k, x)
        assert err <= 2.5e-16  # measured 1.5e-16

    def test_no_overflow_warning_at_small_kappa(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_kappa_exp(np.array([1e200, -1e200, 1e-3]), 1e-9)
        with mp.workdps(40):
            want = [mp.asinh(mp.mpf("1e-9") * mp.mpf(x)) / mp.mpf("1e-9")
                    for x in (1e200, -1e200, 1e-3)]
        np.testing.assert_allclose(got, [float(w) for w in want], rtol=2e-16)

    def test_bad_kappa_rejected(self):
        for bad in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                kappa_exp(1.0, bad)


class TestKappaLog:
    def test_log_of_one_is_zero(self):
        for k in (0.0, 0.3, 0.8):
            assert kappa_log(1.0, k) == 0.0

    def test_closed_value(self):
        # (4^0.5 - 4^-0.5) / 1 = 1.5
        assert rel_err(kappa_log(4.0, 0.5), 1.5) < 1e-15

    def test_zero_kappa_is_log(self):
        assert rel_err(kappa_log(math.e, 0.0), 1.0) < 1e-15

    def test_domain_error(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                kappa_log(bad, 0.5)

    @pytest.mark.parametrize("kappa", TINY_KAPPAS)
    def test_against_mpmath_at_tiny_kappa(self, kappa):
        x = np.concatenate([MAGNITUDES[MAGNITUDES != 1.0], [1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52]])
        k = mp.mpf(kappa)
        err = max_rel_err_mp(kappa_log(x, kappa), lambda t: mp.sinh(k * mp.log(t)) / k, x)
        assert err <= 2.5e-16  # measured 1.7e-16

    def test_roundtrip_both_ways(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, 300)
        y = rng.uniform(1e-6, 1e6, 300)
        for k in (0.0, 1e-9, 1e-5, 0.05, 0.5, 0.95):
            back = kappa_log(kappa_exp(x, k), k)
            assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-12)) < 1e-12
            forth = kappa_exp(kappa_log(y, k), k)
            assert np.max(np.abs(forth - y) / y) < 1e-12


class TestKappaSum:
    def test_identity_element(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-100, 100, 50)
        for k in (0.0, 0.4, 0.9):
            np.testing.assert_array_equal(kappa_sum(x, 0.0, k), x)

    def test_closed_value(self):
        assert rel_err(kappa_sum(1.0, 1.0, 0.5), 2.0 * math.sqrt(1.25)) < 1e-15

    def test_reduces_to_addition(self):
        assert kappa_sum(2.0, 3.0, 0.0) == 5.0

    def test_commutative(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-50, 50, 100)
        y = rng.uniform(-50, 50, 100)
        np.testing.assert_array_equal(kappa_sum(x, y, 0.6), kappa_sum(y, x, 0.6))

    def test_factorization_identity(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-20, 20, 500)
        y = rng.uniform(-20, 20, 500)
        for k in (0.05, 0.3, 0.8):
            lhs = kappa_exp(kappa_sum(x, y, k), k)
            rhs = kappa_exp(x, k) * kappa_exp(y, k)
            assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10


class TestXiCoefficients:
    def test_first_two_are_one(self):
        np.testing.assert_array_equal(xi_coefficients(1, 0.3), [1.0, 1.0])

    def test_cubic_coefficient(self):
        xi = xi_coefficients(3, 0.5)
        assert xi[3] == 0.75  # 1 - kappa^2

    def test_quartic_vanishes_at_half(self):
        xi = xi_coefficients(4, 0.5)
        assert xi[4] == 0.0  # 1 - 4 kappa^2

    def test_closed_product_forms(self):
        rng = np.random.default_rng(7)
        for k in rng.uniform(0.05, 0.95, 5):
            xi = xi_coefficients(12, k)
            for m in range(1, 6):
                even = math.prod(1.0 - (2 * j) ** 2 * k * k for j in range(m))
                odd = math.prod(1.0 - (2 * j + 1) ** 2 * k * k for j in range(m))
                assert rel_err(xi[2 * m], even) < 1e-13
                assert rel_err(xi[2 * m + 1], odd) < 1e-13

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            xi_coefficients(-1, 0.5)


class TestKappaExpTaylor:
    def test_at_zero(self):
        for n in (1, 5, 30):
            assert kappa_exp_taylor(0.0, 0.5, n) == 1.0

    def test_matches_closed_form(self):
        got = kappa_exp_taylor(0.5, 0.5, 30)
        assert rel_err(got, kappa_exp(0.5, 0.5)) <= 1e-10

    def test_first_three_terms_are_ordinary(self):
        assert kappa_exp_taylor(1.0, 0.2, 3) == 2.5

    def test_outside_convergence_region(self):
        with pytest.raises(DomainError):
            kappa_exp_taylor(3.0, 0.5, 10)

    def test_bad_n_terms(self):
        with pytest.raises(DomainError):
            kappa_exp_taylor(0.1, 0.5, 0)


class TestKappaExpAsymptote:
    def test_far_tail_values_and_ratio(self):
        want = (2 * 0.5 * 1e6) ** 2
        got = kappa_exp_asymptote(1e6, 0.5)
        assert rel_err(got, want) < 1e-12
        assert abs(kappa_exp(1e6, 0.5) / got - 1.0) < 1e-6

        got_neg = kappa_exp_asymptote(-1e6, 0.5)
        assert rel_err(got_neg, 1.0 / want) < 1e-12
        assert abs(kappa_exp(-1e6, 0.5) / got_neg - 1.0) < 1e-6

    def test_moderate_x_ratio(self):
        # (2*0.25*100)^(1/0.25) = 50^4; relative gap ~ (1/kappa)/(4 kappa^2 x^2)
        got = kappa_exp_asymptote(100.0, 0.25)
        assert got == pytest.approx(50.0 ** 4, rel=1e-12)
        assert abs(kappa_exp(100.0, 0.25) / got - 1.0) < 0.02

    def test_kappa_zero_rejected(self):
        with pytest.raises(DomainError):
            kappa_exp_asymptote(1.0, 0.0)

    def test_x_zero_rejected(self):
        with pytest.raises(DomainError):
            kappa_exp_asymptote(0.0, 0.5)


class TestIdentities:
    """Randomized identity suite over the sign-symmetric parameter range."""

    def test_reciprocal_product(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-20, 20, 2000)
        k = rng.uniform(1e-3, 0.95, 2000)
        prod = np.array([kappa_exp(xi, ki) * kappa_exp(-xi, ki) for xi, ki in zip(x, k)])
        assert np.max(np.abs(prod - 1.0)) < 1e-12

    def test_power_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = rng.uniform(0.01, 0.9)
            r = rng.uniform(max(k, 0.1) + 0.05, 5.0) * rng.choice([-1.0, 1.0])
            x = rng.uniform(-10, 10)
            lhs = kappa_exp(x, k) ** r
            rhs = kappa_exp(r * x, k / r)
            assert rel_err(lhs, rhs) < 1e-10
