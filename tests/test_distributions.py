"""Distribution families: anchors, quadrature oracles, roundtrips, reductions."""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kappagen import (
    DomainError,
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    MomentDivergenceError,
    NetWealthMixtureParams,
    WeibullParams,
    WeightedSample,
    ekg1_cdf,
    ekg1_density_at_u,
    ekg1_pdf,
    ekg1_quantile,
    ekg1_sample,
    ekg2_cdf,
    ekg2_pdf,
    ekg2_quantile,
    ekg2_sample,
    kgen_ccdf,
    kgen_cdf,
    kgen_from_normalized,
    kgen_gini,
    kgen_logpdf,
    kgen_lorenz,
    kgen_mean,
    kgen_mld,
    kgen_mode,
    kgen_moment,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    kgen_theil,
    kgen_variance,
    loglik,
    mixture_cdf,
    mixture_mean,
    mixture_moment,
    mixture_pdf,
    mixture_sample,
    quantile_gini,
)
from kappagen import special
from kappagen.deformed import _BLOCK, _scaled
from kappagen.distributions import (
    _ekg1_log_bracket,
    _ekg1_log_t,
    _ekg2_log_beta,
    ekg1_logpdf,
    ekg2_logpdf,
)

U_GRID = np.array([0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])


def ks_statistic(sample, cdf_values_sorted):
    n = sample.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(cdf_values_sorted - (i - 1) / n,
                                   i / n - cdf_values_sorted)))


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestParamsValidation:
    def test_kgen(self):
        for bad in ((0.0, 1, 0.5), (2, -1, 0.5), (2, 1, 1.0), (2, 1, -0.1)):
            with pytest.raises(DomainError):
                KappaGenParams(*bad)

    def test_ekg1_r_bound(self):
        EKG1Params(2.0, 1.0, 0.6, 0.8)  # 0.8 < 1/(2*0.6) = 0.833...
        with pytest.raises(DomainError):
            EKG1Params(2.0, 1.0, 0.6, 0.9)

    def test_mixture_proportions(self):
        wb = WeibullParams(1.0, 1.0)
        kp = KappaGenParams(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            NetWealthMixtureParams(wb, 0.5, 0.4, 0.2, kp)
        with pytest.raises(DomainError):
            NetWealthMixtureParams(wb, -0.1, 0.4, 0.7, kp)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.7])
def test_weibull_is_the_base_model_at_kappa_zero(shape):
    w, k = WeibullParams(shape, 1.5), KappaGenParams(shape, 1.5, 0.0)
    x = np.array([1e-8, 0.3, 1.5, 4.0, 20.0])
    for f in (kgen_logpdf, kgen_pdf, kgen_cdf, kgen_ccdf):
        assert np.asarray(f(x, w)).tobytes() == np.asarray(f(x, k)).tobytes()
    for f in (kgen_quantile, kgen_lorenz):
        assert np.asarray(f(U_GRID, w)).tobytes() == np.asarray(f(U_GRID, k)).tobytes()
    for r in (1, 2, 3):
        assert kgen_moment(r, w) == kgen_moment(r, k)
    for f in (kgen_gini, kgen_mld, kgen_theil):
        assert f(w) == f(k)
    assert (w.shape, w.scale, w.alpha, w.beta, w.kappa) == (shape, 1.5, shape, 1.5, 0.0)
    assert repr(w) == f"WeibullParams(shape={shape!r}, scale=1.5)"
    assert w == WeibullParams(shape, 1.5) and w != k
    with pytest.raises(DomainError, match="shape must be positive"):
        WeibullParams(-shape, 1.5)
    with pytest.raises(DomainError, match="scale must be positive"):
        WeibullParams(shape, 0.0)


class TestKgenPdfCdf:
    def test_exponential_special_case(self):
        p = KappaGenParams(1.0, 1.0, 0.0)
        for x in (0.1, 1.0, 3.0):
            assert kgen_pdf(x, p) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_weibull_limit_value(self):
        p = KappaGenParams(2.0, 1.0, 0.0)
        assert kgen_pdf(1.0, p) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_pdf_matches_cdf_derivative(self):
        p = KappaGenParams(2.0, 1.2, 0.75)
        x = p.beta
        got = kgen_pdf(x, p)
        want = central_diff(lambda t: kgen_cdf(t, p), x, 1e-6)
        assert got == pytest.approx(want, rel=1e-6)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            alpha = rng.uniform(0.8, 3.0)
            beta = rng.uniform(0.5, 3.0)
            kappa = rng.uniform(0.0, 0.9)
            p = KappaGenParams(alpha, beta, kappa)
            total, _ = quad(lambda t: kgen_pdf(t, p), 0, np.inf, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_domain_error(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                kgen_pdf(bad, p)

    def test_cdf_at_zero_and_weibull_anchor(self):
        p = KappaGenParams(3.7, 2.0, 0.6)
        assert kgen_cdf(0.0, p) == 0.0
        p0 = KappaGenParams(3.7, 2.0, 0.0)
        assert kgen_cdf(2.0, p0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_cdf_nondecreasing_and_limits(self):
        p = KappaGenParams(2.0, 1.0, 0.75)
        x = np.linspace(0, 100, 500)
        f = kgen_cdf(x, p)
        assert np.all(np.diff(f) >= 0)
        assert kgen_cdf(1e12, p) == pytest.approx(1.0, abs=1e-9)

    def test_pareto_tail_ratio(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        x = 100.0 * p.beta
        pareto = ((p.beta * (2 * p.kappa) ** (-1 / p.alpha)) / x) ** (p.alpha / p.kappa)
        assert kgen_ccdf(x, p) / pareto == pytest.approx(1.0, abs=1e-6)

    def test_weibull_limit_sup_distance(self):
        p = KappaGenParams(2.0, 1.5, 1e-8)
        x = np.linspace(0.01, 15.0, 400)
        weib = -np.expm1(-((x / 1.5) ** 2.0))
        assert np.max(np.abs(kgen_cdf(x, p) - weib)) <= 1e-6

    @pytest.mark.parametrize("kappa", [1e-200, 1e-12, 0.99e-10, 1.01e-10, 1e-6])
    def test_logpdf_keeps_the_deformation_at_tiny_kappa(self, kappa):
        # at x = 1e5, y = 1e10: kappa y is not small although kappa is
        with mp.workdps(40):
            y, k = mp.mpf(10) ** 10, mp.mpf(kappa)
            want = mp.log(2) + mp.log(mp.mpf(10) ** 5) - mp.asinh(k * y) / k - mp.log1p((k * y) ** 2) / 2
        assert kgen_logpdf(1e5, KappaGenParams(2.0, 1.0, kappa)) == pytest.approx(
            float(want), rel=1e-14)


class TestKgenQuantile:
    def test_endpoints(self):
        p = KappaGenParams(2.0, 1.2, 0.75)
        assert kgen_quantile(0.0, p) == 0.0
        with pytest.raises(DomainError):
            kgen_quantile(1.0, p)

    def test_exponential_anchor(self):
        p = KappaGenParams(1.0, 1.0, 0.0)
        assert kgen_quantile(1.0 - 1.0 / math.e, p) == pytest.approx(1.0, rel=1e-12)

    def test_roundtrip(self):
        for p in (KappaGenParams(2.0, 1.2, 0.75), KappaGenParams(1.1, 3.0, 0.0),
                  KappaGenParams(0.9, 0.5, 0.3)):
            x = kgen_quantile(U_GRID, p)
            np.testing.assert_allclose(kgen_cdf(x, p), U_GRID, atol=1e-10)

    @pytest.mark.parametrize("kappa", [1e-320, 1e-310, 1e-300, 1e-250])
    def test_against_mpmath_at_tiny_kappa(self, kappa):
        # at u = 2^-53, kappa t underflows: a bare sinh(kappa t)/kappa is 100% off
        u = np.concatenate([[2.0 ** -53, 1e-10], U_GRID, [1.0 - 2.0 ** -53]])
        k = mp.mpf(kappa)
        for alpha in (0.5, 2.0, 7.0):
            got = kgen_quantile(u, KappaGenParams(alpha, 1.5, kappa))
            with mp.workdps(50):
                for g, v in zip(got, u):
                    t = -mp.log1p(-mp.mpf(float(v)))
                    want = 1.5 * (mp.sinh(k * t) / k) ** (1 / mp.mpf(alpha))
                    # measured 3.4e-16: the rounding of the power 1/7 at u = 2^-53
                    assert abs(mp.mpf(float(g)) / want - 1) <= 4e-16, (alpha, v)


class TestKgenMoments:
    def test_zeroth_moment(self):
        assert kgen_moment(0.0, KappaGenParams(2.0, 1.0, 0.5)) == 1.0

    def test_exponential_mean(self):
        assert kgen_moment(1.0, KappaGenParams(1.0, 1.0, 0.0)) == pytest.approx(1.0)
        assert kgen_mean(KappaGenParams(1.0, 2.0, 0.0)) == pytest.approx(2.0)

    def test_quadrature_oracle(self):
        p = KappaGenParams(2.0, 10.0, 0.75)
        want, _ = quad(lambda t: t * kgen_pdf(t, p), 0, np.inf, limit=400)
        got = kgen_moment(1.0, p)
        assert got == pytest.approx(want, rel=1e-8)
        assert got == pytest.approx(10.6, abs=0.05)

    def test_variance_anchors_and_oracle(self):
        assert kgen_variance(KappaGenParams(1.0, 1.0, 0.0)) == pytest.approx(1.0)
        p = KappaGenParams(2.0, 1.0, 0.4)
        m = kgen_mean(p)
        want, _ = quad(lambda t: (t - m) ** 2 * kgen_pdf(t, p), 0, np.inf, limit=400)
        assert kgen_variance(p) == pytest.approx(want, rel=1e-7)

    def test_finite_moment_beyond_the_double_range_is_inf(self):
        # an overflowing product, and a factor math.exp cannot represent
        assert kgen_moment(500.0, KappaGenParams(5.42, 3.54, 0.01)) == math.inf
        assert kgen_moment(600.0, KappaGenParams(2.0, 0.5, 0.003)) == math.inf

    def test_representable_moment_with_an_overflowing_factor(self):
        # beta^2 = 1.96e308 leaves the double range; E[X^2] = beta^2 Gamma(1.5) does not
        got = kgen_moment(2.0, KappaGenParams(4.0, 1.4e154, 0.0))
        want = mp.mpf(1.4e154) ** 2 * mp.gamma(1.5)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_divergence_errors(self):
        p = KappaGenParams(2.0, 1.0, 0.5)  # tail exponent 4
        with pytest.raises(MomentDivergenceError):
            kgen_moment(4.0, p)
        with pytest.raises(MomentDivergenceError):
            kgen_moment(-2.0, p)
        with pytest.raises(MomentDivergenceError):
            kgen_variance(KappaGenParams(1.0, 1.0, 0.6))


class TestKgenMode:
    def test_no_interior_mode(self):
        assert kgen_mode(KappaGenParams(1.0, 1.0, 0.5)) is None
        assert kgen_mode(KappaGenParams(0.7, 1.0, 0.5)) is None

    def test_weibull_limit(self):
        got = kgen_mode(KappaGenParams(2.0, 1.0, 1e-6))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_derivative_sign_change(self):
        p = KappaGenParams(2.0, 1.0, 0.75)
        mode = kgen_mode(p)
        h = 1e-4
        assert kgen_pdf(mode - h, p) < kgen_pdf(mode, p) + 1e-12
        slope_left = central_diff(lambda t: kgen_pdf(t, p), mode - 10 * h, h)
        slope_right = central_diff(lambda t: kgen_pdf(t, p), mode + 10 * h, h)
        assert slope_left > 0 > slope_right


class TestKgenSampling:
    def test_zero_n_rejected(self):
        with pytest.raises(DomainError):
            kgen_sample(0, KappaGenParams(2.0, 1.0, 0.5), seed=1)

    def test_determinism(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        a = kgen_sample(1000, p, seed=7)
        b = kgen_sample(1000, p, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_ks_statistic(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        x = np.sort(kgen_sample(20000, p, seed=11))
        d = ks_statistic(x, kgen_cdf(x, p))
        assert d < 1.628 / math.sqrt(20000)

    @pytest.mark.parametrize("shape", [(3 * _BLOCK + 5,), (5, _BLOCK + 3)])
    def test_blocked_quantiles_give_the_one_call_bits(self, shape):
        # the elementwise formulas on the whole array, as they were taken in one call
        u = np.random.default_rng(3).random(shape)
        u.flat[:3] = 0.0, 5e-324, 1.0 - 2.0 ** -53
        for kappa in (0.0, 0.6):
            p = KappaGenParams(2.5, 1.2, kappa)
            want = p.beta * _scaled(np.sinh, -np.log1p(-u), kappa) ** (1.0 / p.alpha)
            assert kgen_quantile(u, p).tobytes() == want.tobytes()
        q = EKG1Params(2.0, 1.0, 1.5, 0.2)
        t = -np.log1p(-u)
        want = np.zeros(shape)
        with np.errstate(divide="ignore"):
            want[t > 0.0] = q.b * np.exp(_ekg1_log_bracket(t[t > 0.0], q) / q.a)
        assert ekg1_quantile(u, q).tobytes() == want.tobytes()


class TestKgenNormalized:
    def test_unit_mean(self):
        for alpha, kappa in ((2.0, 0.5), (2.5, 0.3), (1.2, 0.1)):
            p = kgen_from_normalized(alpha, kappa)
            assert kgen_mean(p) == pytest.approx(1.0, rel=1e-10)

    def test_exponential_case(self):
        p = kgen_from_normalized(1.0, 0.0)
        assert p.beta == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_check(self):
        p = kgen_from_normalized(2.5, 0.3)
        m, _ = quad(lambda t: t * kgen_pdf(t, p), 0, np.inf, limit=300)
        assert m == pytest.approx(1.0, abs=1e-9)

    def test_divergent_mean_rejected(self):
        with pytest.raises(MomentDivergenceError):
            kgen_from_normalized(0.5, 0.6)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 2.5, 5.0, 8.0])
    def test_log_scale_derivatives_against_mpmath(self, alpha):
        from kappagen.distributions import _unit_mean_log_scale_grad
        with mp.workdps(50):
            log_beta = lambda a, k: -mp.log(mp_moment(1, a, k))
            la = mp.log(alpha)
            d_alpha, d_kappa = _unit_mean_log_scale_grad(alpha, 0.0)
            want = mp.diff(lambda t: log_beta(mp.exp(t), 0), la)
            assert d_alpha == pytest.approx(float(want), rel=1e-13)
            assert d_kappa == 0.0
            for kappa in (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.45):
                if not alpha / kappa > 1.05:
                    continue
                d_alpha, d_kappa = _unit_mean_log_scale_grad(alpha, kappa)
                want = mp.diff(lambda t: log_beta(mp.exp(t), kappa), la)
                assert d_alpha == pytest.approx(float(want), rel=1e-13), kappa
                want = mp.diff(lambda t: log_beta(alpha, t), mp.mpf(kappa))
                # 2e-11: next to kappa = 0.05, where the direct log-gamma form
                # takes over, its digamma difference cancels to ~8e-12
                assert d_kappa == pytest.approx(float(want), rel=2e-11), kappa


def mp_moment(r, alpha, kappa):
    """E[X^r] at beta = 1 in mpmath; the Weibull value at kappa = 0."""
    r, a, k = mp.mpf(r), mp.mpf(alpha), mp.mpf(kappa)
    if k == 0:
        return mp.gamma(1 + r / a)
    c = 1 / (2 * k)
    return (mp.gamma(1 + r / a) * (2 * k) ** (-r / a) / (1 + r * k / a)
            * mp.exp(mp.loggamma(c - r / (2 * a)) - mp.loggamma(c + r / (2 * a))))


def mp_gini(alpha, kappa):
    a, k = mp.mpf(alpha), mp.mpf(kappa)
    if k == 0:
        return 1 - mp.mpf(2) ** (-1 / a)
    log_ratio = (mp.loggamma(1 / k - 1 / (2 * a)) - mp.loggamma(1 / k + 1 / (2 * a))
                 + mp.loggamma(1 / (2 * k) + 1 / (2 * a))
                 - mp.loggamma(1 / (2 * k) - 1 / (2 * a)))
    return 1 - (2 * a + 2 * k) / (2 * a + k) * mp.exp(log_ratio)


CONTINUITY_U = np.array([2.0 ** -53, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-9])
SMALL_TO_LARGE_KAPPA = [0.0] + [float(k) for k in np.logspace(-12, math.log10(0.45), 60)]


class TestGammaRatioClosedForms:
    """Moments, Gini and the unit-mean scale are one gamma-ratio formula
    from kappa = 0 up, with no jump where the Weibull limit takes over."""

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0, 3.0, 5.0])
    def test_against_mpmath(self, alpha):
        with mp.workdps(50):
            for kappa in SMALL_TO_LARGE_KAPPA:
                if kappa > 0.0 and not alpha / kappa > 2.05:
                    continue
                p = KappaGenParams(alpha, 1.0, kappa)
                m1, m2 = mp_moment(1, alpha, kappa), mp_moment(2, alpha, kappa)
                assert kgen_mean(p) == pytest.approx(float(m1), rel=1e-12), kappa
                assert kgen_variance(p) == pytest.approx(float(m2 - m1 * m1), rel=1e-12), kappa
                beta = kgen_from_normalized(alpha, kappa).beta
                assert float(beta * m1) == pytest.approx(1.0, rel=1e-12), kappa
                assert kgen_gini(p) == pytest.approx(float(mp_gini(alpha, kappa)),
                                                     abs=1e-13), kappa

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.5, 8.0),
           kappa=st.floats(0.0, 1e-4) | st.floats(-300.0, -4.0).map(lambda e: 10.0 ** e))
    def test_continuous_at_the_weibull_limit(self, alpha, kappa):
        p, weibull = KappaGenParams(alpha, 1.0, kappa), KappaGenParams(alpha, 1.0, 0.0)
        for f in (kgen_gini, kgen_mld, kgen_theil):
            assert abs(f(p) - f(weibull)) <= 4.0 * kappa, f.__name__
        for f in (kgen_mean, kgen_variance) + ((kgen_mode,) if alpha > 1.0 else ()):
            assert abs(f(p) / f(weibull) - 1.0) <= 4.0 * kappa, f.__name__
        # kgen_lorenz switches to its Weibull form below kappa = 1e-10
        lorenz_gap = kgen_lorenz(CONTINUITY_U, p) - kgen_lorenz(CONTINUITY_U, weibull)
        assert np.max(np.abs(lorenz_gap)) <= 4.0 * kappa
        # sinh(kappa t)/kappa rounds twice where the Weibull form takes t as
        # it is: up to 3 ulps of the quantile after the power 1/alpha
        q, q_weibull = kgen_quantile(CONTINUITY_U, p), kgen_quantile(CONTINUITY_U, weibull)
        ulps = 4.0 * np.spacing(q_weibull)
        assert np.all(np.abs(q - q_weibull) <= 4.0 * kappa * q_weibull + ulps)

    @pytest.mark.parametrize("kappa", [1e-160, 1e-200, 1e-320])
    @pytest.mark.parametrize("m", [0.0, 0.5, 2.0])
    def test_gradient_at_tiny_kappa(self, kappa, m):
        # L = kappa^2 [(m + 1) m^2/2 - m^3/3 + m/3] + O(kappa^4) from the three
        # terms of the Stirling form; below kappa ~ 1e-162, kappa^2 underflows
        from kappagen.distributions import _log_gamma_ratio_grad
        d_kappa, d_m = _log_gamma_ratio_grad(kappa, m)
        assert d_kappa == pytest.approx(2.0 * kappa * ((m + 1.0) * m * m / 2.0 - m ** 3 / 3.0
                                                       + m / 3.0), rel=1e-15, abs=0.0)
        assert d_m == pytest.approx(kappa * kappa * (m * m / 2.0 + m + 1.0 / 3.0),
                                    rel=1e-15, abs=1e-323)


class TestEkg1:
    P = EKG1Params(3.0, 1.0, 0.6, 0.3)

    def test_quantile_at_zero(self):
        assert ekg1_quantile(0.0, self.P) == 0.0

    def test_quantile_monotone(self):
        x = ekg1_quantile(U_GRID, self.P)
        assert np.all(np.diff(x) > 0)

    def test_reduction_to_base_family(self):
        kp = KappaGenParams(2.0, 1.3, 0.6)
        e1 = EKG1Params(a=2.0, b=1.3, q=1.0 / (2.0 * 0.6), r=0.0)
        x_grid = kgen_quantile(U_GRID, kp)
        np.testing.assert_allclose(ekg1_quantile(U_GRID, e1), x_grid, rtol=1e-12)
        np.testing.assert_allclose(ekg1_cdf(x_grid, e1), kgen_cdf(x_grid, kp), atol=1e-12)
        np.testing.assert_allclose(ekg1_pdf(x_grid, e1), kgen_pdf(x_grid, kp), rtol=1e-10)

    def test_cdf_roundtrip(self):
        x = ekg1_quantile(U_GRID, self.P)
        np.testing.assert_allclose(ekg1_cdf(x, self.P), U_GRID, atol=1e-10)
        assert ekg1_cdf(0.0, self.P) == 0.0

    def test_pdf_matches_cdf_derivative(self):
        for x in (0.3, 0.8, 1.5, 3.0):
            want = central_diff(lambda t: ekg1_cdf(t, self.P), x, 1e-6)
            assert ekg1_pdf(x, self.P) == pytest.approx(want, rel=1e-6)

    def test_density_quantile_consistency(self):
        for u in (0.1, 0.5, 0.9):
            x = ekg1_quantile(u, self.P)
            assert ekg1_density_at_u(u, self.P) == pytest.approx(
                ekg1_pdf(x, self.P), rel=1e-10)

    def test_lower_tail_power_law(self):
        # pdf(x) / x^(a-1) approaches a constant as x -> 0
        ratios = [ekg1_pdf(x, self.P) / x ** (self.P.a - 1.0) for x in (1e-4, 1e-5, 1e-6)]
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-2)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(60)
        for _ in range(3):
            q = rng.uniform(0.4, 2.0)
            p = EKG1Params(rng.uniform(0.8, 3.0), rng.uniform(0.5, 2.0), q,
                           rng.uniform(-0.5, 1.0 / (2.0 * q) - 0.05))
            total, _ = quad(lambda t: ekg1_pdf(t, p), 0, np.inf, limit=300)
            assert total == pytest.approx(1.0, abs=1e-7)

    def test_sampling_determinism(self):
        a = ekg1_sample(500, self.P, seed=3)
        b = ekg1_sample(500, self.P, seed=3)
        np.testing.assert_array_equal(a, b)


def _bisect_t_from_x(x, p):
    """The inversion the Newton steps replaced: a doubling search for the
    upper end, then 80 bisection steps in ln t on the same log-bracket."""
    target = p.a * np.log(x / p.b)
    slope = 1.0 / (2.0 * p.q) - p.r
    ln_lo = np.full_like(target, -700.0)
    ln_hi = np.maximum(np.log(np.maximum((target - math.log(p.q)) / slope, 1.0)) + 2.0, 3.0)
    for _ in range(60):
        high = _ekg1_log_bracket(np.exp(ln_hi), p) < target
        if not np.any(high):
            break
        ln_hi = np.where(high, ln_hi + 2.0, ln_hi)
    for _ in range(80):
        mid = 0.5 * (ln_lo + ln_hi)
        below = _ekg1_log_bracket(np.exp(mid), p) < target
        ln_lo = np.where(below, mid, ln_lo)
        ln_hi = np.where(below, ln_hi, mid)
    return np.exp(0.5 * (ln_lo + ln_hi))


def _mp_log_bracket(t, p):
    q, r = mp.mpf(p.q), mp.mpf(p.r)
    return mp.log(2 * q) - r * t + mp.log(mp.sinh(t / (2 * q)))


def _mp_ekg1_t(x, p, t0):
    """50-digit root in t of the log-bracket at target a ln(x/b), and the target."""
    with mp.workdps(50):
        target = p.a * mp.log(mp.mpf(x) / p.b)
        s = mp.findroot(lambda s: _mp_log_bracket(mp.exp(s), p) - target, mp.log(t0))
        return mp.exp(s), target


def _x_at_t(t, p):
    """The double nearest the quantile at t = -ln(1-u), from mpmath."""
    with mp.workdps(50):
        return float(p.b * mp.exp(_mp_log_bracket(mp.mpf(t), p) / p.a))


class TestEkg1Inversion:
    """_ekg1_log_t, the quantile inverse behind the EKG1 CDF, survival
    function and density."""

    @pytest.mark.parametrize("params", [(2.0, 1.0, 1.5, 0.2), (0.8, 3.0, 0.4, -2.0),
                                        (5.0, 1.0, 3.0, 0.16)])
    def test_agrees_with_bisection(self, params):
        p = EKG1Params(*params)
        x = ekg1_sample(20_000, p, seed=17)
        x = x[x > 0.0]
        t = np.exp(_ekg1_log_t(x, p))
        want = _bisect_t_from_x(x, p)
        np.testing.assert_allclose(t, want, rtol=1e-13)
        target = p.a * np.log(x / p.b)
        residual = np.abs(_ekg1_log_bracket(t, p) - target)
        assert residual.max() <= np.abs(_ekg1_log_bracket(want, p) - target).max()

    @pytest.mark.parametrize("t", [1e-300, 1e-100, 1e-20, 1e-5, 0.01, 1.0, 30.0, 1e5,
                                   1e20, 1e100, 1e300])
    def test_root_from_tiny_to_huge_t(self, t):
        q = max(1.5, t / 10.0)  # keeps x = b e^(L/a) finite
        p = EKG1Params(2.0, 1.0, q, 0.3 / (2.0 * q))
        x = _x_at_t(t, p)
        want, target = _mp_ekg1_t(x, p, t)
        got = math.exp(_ekg1_log_t(np.array([x]), p)[0])
        # the double target carries eps |target| of rounding into ln t
        assert abs(got - want) / want <= 4e-16 * max(1.0, abs(float(target)))

    @pytest.mark.parametrize("t", [1e-3, 0.5, 5.0, 30.0, 1e3, 1e6])
    def test_r_next_to_its_bound(self, t):
        q = 1.5
        p = EKG1Params(2.0, 1.0, q, (1.0 - 1e-12) / (2.0 * q))
        x = _x_at_t(t, p)
        want, target = _mp_ekg1_t(x, p, t)
        got = math.exp(_ekg1_log_t(np.array([x]), p)[0])
        with mp.workdps(50):
            backward = abs(_mp_log_bracket(mp.mpf(got), p) - target)
        # L'(t) is ~1e-12 here, so t is ill-conditioned; L at the double t
        # still meets the target to a few rounding errors
        assert float(backward) <= 4.0 * np.finfo(float).eps * max(1.0, abs(float(target)))
        if t <= 5.0:
            assert float(abs(got - want) / want) <= 1e-14

    def test_cdf_below_the_old_bracket_floor(self):
        # the bracket's lower end used to be s = -700, which held the CDF at
        # 1e-304 for every x below e^-350 at a = 2; the root is now the
        # target there, and t = x^a rounds to subnormals, then to 0
        p = EKG1Params(2.0, 1.0, 1.5, 0.2)
        x = np.logspace(-300.0, -100.0, 81)
        got = ekg1_cdf(x, p)
        for xi, gi in zip(x, got):
            t, _ = _mp_ekg1_t(xi, p, mp.mpf(xi) ** 2)
            with mp.workdps(50):
                want = float(-mp.expm1(-t))
            assert abs(gi - want) <= 1e-13 * want + 5e-324, (xi, gi, want)
        assert got[0] == 0.0

    def test_x_at_infinity(self):
        p = EKG1Params(2.0, 1.0, 1.5, 0.2)
        t = np.exp(_ekg1_log_t(np.array([np.inf, 1.0, np.inf]), p))
        assert t[0] == np.inf and t[2] == np.inf and np.isfinite(t[1])
        assert ekg1_cdf(np.inf, p) == 1.0 and ekg1_pdf(np.inf, p) == 0.0

    @pytest.mark.parametrize("x", [1e-3, 1e-100, 1e-160, 1e-170, 1e-200, 1e-300])
    def test_logpdf_deep_in_the_lower_tail(self, x):
        # the log-bracket is the inversion's target a ln(x/b), exact where
        # t = (x/b)^a is subnormal (x = 1e-160) or underflows to 0 (x < 1e-162)
        p = EKG1Params(2.0, 1.0, 1.5, 0.2)
        with mp.workdps(60):
            target = p.a * mp.log(mp.mpf(x) / p.b)
            s = mp.findroot(lambda s: _mp_log_bracket(mp.exp(s), p) - target, target)
            t = mp.exp(s)
            # f = e^-t dt/dx, and x = b e^(L(t)/a) gives dt/dx = a / (x L'(t))
            slope = -mp.mpf(p.r) + mp.coth(t / (2 * p.q)) / (2 * p.q)
            want = -t + mp.log(p.a) - mp.log(mp.mpf(x)) - mp.log(slope)
        got = ekg1_logpdf(x, p)
        assert abs(got - float(want)) <= 1e-14 * abs(float(want))
        density = ekg1_pdf(x, p)
        assert math.isfinite(density) and density > 0.0

    def test_steps_landing_on_the_bracket_end_are_kept(self):
        # for t < 1e-20 the log-bracket is ln t to double precision, so the
        # first Newton step from s = target often lands exactly on the upper
        # end the evaluation just set; moving it to the bracket's midpoint
        # instead would return t near e^-360
        p = EKG1Params(2.0, 1.0, 1.5, 0.2)
        x = np.exp(np.linspace(-150.0, -25.0, 2001))
        t = np.exp(_ekg1_log_t(x, p))
        np.testing.assert_allclose(t, x ** p.a, rtol=1e-13)


class TestEkg2:
    P = EKG2Params(2.0, 1.0, 0.5, 0.25)

    @pytest.mark.parametrize("params", [(2.0, 1.0, 2.0, 1.2), (1.5, 2.0, 0.7, 3.0),
                                        (3.0, 1.0, 0.3, 0.4)])
    def test_table_path_matches_betaincinv(self, params):
        # 10^5 draws take inv_reg_inc_beta's tabulated inverse in both tails
        p = EKG2Params(*params)
        u = np.random.default_rng(8).random(100_000)
        with mock.patch.object(special, "_tabulated_inverse", lambda *args: None):
            want = ekg2_quantile(u, p)
            want_draws = ekg2_sample(100_000, p, seed=9)
        np.testing.assert_allclose(ekg2_quantile(u, p), want, rtol=1e-13)
        np.testing.assert_allclose(ekg2_sample(100_000, p, seed=9), want_draws, rtol=1e-13)

    def test_cdf_at_zero(self):
        assert ekg2_cdf(0.0, self.P) == 0.0

    def test_reduction_to_base_family(self):
        # equivalence holds with the scale conversion b = beta (2 kappa)^(-1/alpha)
        alpha, beta, kappa = 2.0, 1.3, 0.6
        kp = KappaGenParams(alpha, beta, kappa)
        e2 = EKG2Params(a=alpha, b=beta * (2.0 * kappa) ** (-1.0 / alpha),
                        p=1.0, q=1.0 / (2.0 * kappa))
        x_grid = kgen_quantile(U_GRID, kp)
        np.testing.assert_allclose(ekg2_cdf(x_grid, e2), kgen_cdf(x_grid, kp), atol=1e-12)
        np.testing.assert_allclose(ekg2_quantile(U_GRID, e2),
                                   kgen_quantile(U_GRID, kp), rtol=1e-10)
        np.testing.assert_allclose(ekg2_pdf(x_grid, e2), kgen_pdf(x_grid, kp), rtol=1e-10)

    def test_roundtrip(self):
        x = ekg2_quantile(U_GRID, self.P)
        np.testing.assert_allclose(ekg2_cdf(x, self.P), U_GRID, atol=1e-8)

    def test_pdf_matches_cdf_derivative(self):
        for x in (0.2, 0.7, 1.5, 4.0):
            want = central_diff(lambda t: ekg2_cdf(t, self.P), x, 1e-6)
            assert ekg2_pdf(x, self.P) == pytest.approx(want, rel=1e-6)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            p = EKG2Params(rng.uniform(0.8, 3.0), rng.uniform(0.5, 2.0),
                           rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
            total, _ = quad(lambda t: ekg2_pdf(t, p), 0, np.inf, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_upper_tail_slope(self):
        p = EKG2Params(2.0, 1.0, 0.7, 0.8)
        x1, x2 = 100.0 * p.b, 130.0 * p.b
        slope = (math.log(ekg2_pdf(x2, p)) - math.log(ekg2_pdf(x1, p))) / (
            math.log(x2) - math.log(x1))
        assert slope == pytest.approx(-2.0 * p.a * p.q - 1.0, rel=5e-3)

    def test_upper_tail_quantile(self):
        # fitted to base-model data; here z = I^-1_u(p, q) rounds to 1 in double
        p = EKG2Params(2.78, 0.94, 0.84, 0.73)
        u = 1.0 - 1e-13
        with mp.workdps(40):
            a, q, pp, v = (mp.mpf(t) for t in (p.a, p.q, p.p, 1.0 - u))
            w0 = (v * q * mp.beta(q, pp)) ** (1 / q)
            w = mp.findroot(lambda t: mp.betainc(q, pp, 0, t, regularized=True) - v,
                            (w0 / 2, w0 * 2), solver="anderson")
            want = float(p.b * ((1 - w) / mp.sqrt(w)) ** (1 / a))
        got = ekg2_quantile(u, p)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-10)
        assert quantile_gini(lambda t: ekg2_quantile(t, p)) == pytest.approx(0.2872, abs=2e-4)

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.3, 1.0), (2.0, 1.0, 1.0, 1.0)])
    @pytest.mark.parametrize("x", [1e-3, 1e-100, 1e-160, 1e-170, 1e-200, 1e-300])
    def test_logpdf_deep_in_the_lower_tail(self, params, x):
        # ln z is eta - A with eta = a ln(x/b), exact where y = (x/b)^a is
        # subnormal (x = 1e-160) or underflows to 0 (x < 1e-162)
        p = EKG2Params(*params)
        with mp.workdps(40):
            y = (mp.mpf(x) / p.b) ** p.a
            ln_d = mp.log((y + mp.sqrt(y * y + 4)) / 2)
            want = float(mp.log(p.a / p.b) - mp.log(mp.beta(p.p, p.q))
                         + (p.p - 1 / mp.mpf(p.a)) * (mp.log(y) - ln_d)
                         - (2 * p.q + 1 / mp.mpf(p.a)) * ln_d - mp.log(1 - y / mp.exp(ln_d) / 2))
        got = ekg2_logpdf(x, p)
        assert abs(got - want) <= 1e-14 * abs(want)
        density = ekg2_pdf(x, p)
        assert math.isfinite(density) and density > 0.0
        records = np.array([x, 1.0, 2.0])
        assert loglik(WeightedSample(records), "ekg2", p) == pytest.approx(
            want + float(np.sum(ekg2_logpdf(records[1:], p))), rel=1e-15)

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.3, 1.0), (2.0, 1.0, 1.5, 0.7)])
    def test_cdf_below_the_normal_range_of_z(self, params):
        # at a = 2, z ~ y = x^2 is subnormal below x = 1.5e-154 and 0 below
        # 1e-162, and at p = 1.5 the CDF is subnormal below x = 1e-103; the
        # CDF there is the leading terms of its series, where betainc lost
        # digits or returned 0
        p = EKG2Params(*params)
        x = np.logspace(-300.0, -100.0, 81)
        got = ekg2_cdf(x, p)
        for xi, gi in zip(x, got):
            with mp.workdps(50):
                y = (mp.mpf(xi) / p.b) ** p.a
                want = float(mp.betainc(p.p, p.q, 0, 2 * y / (y + mp.sqrt(y * y + 4)),
                                        regularized=True))
            assert abs(gi - want) <= 1e-13 * want + 5e-324, (xi, gi, want)
        assert got[-1] > 0.0

    @pytest.mark.parametrize("p, q", [
        (2.0, 1.2), (9.9, 9.9), (math.nextafter(10.0, 0.0), 3.0),  # the three-term form
        (10.0, 3.0), (10.0, 1e-8), (10.0, 10.0), (12.0, 0.3), (30.0, 1.0), (50.0, 50.0),
        (1e3, 1e-3), (3.3e5, 2.45), (2.45, 3.3e5), (5.1e6, 2.45), (1e8, 7.5), (1e12, 0.5)])
    def test_log_beta_against_mpmath(self, p, q):
        # from max(p, q) = 10 on, ln Gamma(max) - ln Gamma(max + min) is a
        # Stirling difference: ln Gamma(p) + ln Gamma(q) - ln Gamma(p + q)
        # cancels for p >> q, 2.2e-10 off at (3.3e5, 2.45) and 1e-3 at 1e12
        with mp.workdps(40):
            want = mp.log(mp.beta(mp.mpf(p), mp.mpf(q)))
            got = _ekg2_log_beta(EKG2Params(1.0, 1.0, p, q))
            assert abs(got - want) <= 4.0 * np.finfo(float).eps * max(abs(want), 1.0)

    def test_sampling_determinism(self):
        a = ekg2_sample(500, self.P, seed=5)
        b = ekg2_sample(500, self.P, seed=5)
        np.testing.assert_array_equal(a, b)


FIG_MIXTURE = NetWealthMixtureParams(
    negative_branch=WeibullParams(0.7, 1.0),
    theta1=0.2, theta2=0.1, theta3=0.7,
    positive_branch=KappaGenParams(2.0, 10.0, 0.75))


class TestMixture:
    def test_pdf_reduction(self):
        kp = KappaGenParams(2.0, 1.0, 0.5)
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 0.0, 1.0, kp)
        for w in (0.2, 1.0, 5.0):
            dens, atom = mixture_pdf(w, p)
            assert dens == pytest.approx(kgen_pdf(w, kp), rel=1e-14)
            assert atom == 0.0

    def test_total_mass(self):
        p = FIG_MIXTURE
        neg, _ = quad(lambda w: mixture_pdf(w, p)[0], -np.inf, 0, limit=400)
        pos, _ = quad(lambda w: mixture_pdf(w, p)[0], 0, np.inf, limit=400)
        assert neg + p.theta2 + pos == pytest.approx(1.0, abs=1e-8)

    def test_exponential_negative_branch_value(self):
        p = NetWealthMixtureParams(WeibullParams(1.0, 2.0), 0.5, 0.0, 0.5,
                                   KappaGenParams(2.0, 1.0, 0.5))
        dens, atom = mixture_pdf(-2.0, p)
        assert dens == pytest.approx(0.5 * math.exp(-1.0) / 2.0, rel=1e-14)
        assert atom == 0.0

    def test_atom_report(self):
        dens, atom = mixture_pdf(0.0, FIG_MIXTURE)
        assert dens == 0.0
        assert atom == FIG_MIXTURE.theta2

    def test_cdf_shape(self):
        p = FIG_MIXTURE
        assert mixture_cdf(0.0, p) == pytest.approx(p.rho, rel=1e-14)
        assert mixture_cdf(-1e9, p) == pytest.approx(0.0, abs=1e-12)
        assert mixture_cdf(1e9, p) == pytest.approx(1.0, abs=1e-9)
        w = np.linspace(-10, 60, 500)
        f = mixture_cdf(w, p)
        assert np.all(np.diff(f) >= 0)
        # jump of exactly theta2 at zero
        eps = 1e-12
        assert mixture_cdf(0.0, p) - mixture_cdf(-eps, p) == pytest.approx(
            p.theta2, abs=1e-9)

    def test_cdf_reduction(self):
        kp = KappaGenParams(2.0, 1.0, 0.5)
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 0.0, 1.0, kp)
        x = np.linspace(0.1, 10, 50)
        np.testing.assert_allclose(mixture_cdf(x, p), kgen_cdf(x, kp), rtol=1e-14)

    def test_mean_anchor(self):
        assert mixture_mean(FIG_MIXTURE) == pytest.approx(7.172, abs=0.02)

    def test_mean_reduction(self):
        kp = KappaGenParams(2.0, 1.0, 0.5)
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 0.0, 1.0, kp)
        assert mixture_mean(p) == pytest.approx(kgen_mean(kp), rel=1e-14)

    def test_second_moment_oracle(self):
        p = NetWealthMixtureParams(WeibullParams(1.2, 1.5), 0.25, 0.15, 0.6,
                                   KappaGenParams(2.5, 3.0, 0.5))
        neg, _ = quad(lambda w: w * w * mixture_pdf(w, p)[0], -np.inf, 0, limit=400)
        pos, _ = quad(lambda w: w * w * mixture_pdf(w, p)[0], 0, np.inf, limit=400)
        assert mixture_moment(2, p) == pytest.approx(neg + pos, rel=1e-7)

    def test_moment_divergence(self):
        with pytest.raises(MomentDivergenceError):
            mixture_moment(3, FIG_MIXTURE)  # positive tail exponent 8/3 < 3

    def test_sampling_pure_atom(self):
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 1.0, 0.0,
                                   KappaGenParams(2.0, 1.0, 0.5))
        draws = mixture_sample(1000, p, seed=2)
        assert np.all(draws == 0.0)

    def test_sampling_shares_and_mean(self):
        n = 200000
        draws = mixture_sample(n, FIG_MIXTURE, seed=9)
        share_neg = np.mean(draws < 0)
        bound = 3.0 * math.sqrt(FIG_MIXTURE.theta1 * (1 - FIG_MIXTURE.theta1) / n)
        assert abs(share_neg - FIG_MIXTURE.theta1) <= bound
        # CLT bound on the sample mean (the variance exists: tail exponent 8/3 > 2)
        var = mixture_moment(2, FIG_MIXTURE) - mixture_mean(FIG_MIXTURE) ** 2
        se = math.sqrt(var / n)
        assert abs(np.mean(draws) - mixture_mean(FIG_MIXTURE)) <= 4.0 * se

    def test_sampling_determinism(self):
        a = mixture_sample(500, FIG_MIXTURE, seed=13)
        b = mixture_sample(500, FIG_MIXTURE, seed=13)
        np.testing.assert_array_equal(a, b)

    def test_inversion_roundtrip_outside_flat_zone(self):
        p = FIG_MIXTURE

        def inverse_cdf(u):
            if u < p.theta1:
                return -p.negative_branch.scale * math.log(p.theta1 / u) ** (
                    1.0 / p.negative_branch.shape)
            if u <= p.rho:
                return 0.0
            return float(kgen_quantile((u - p.rho) / (1.0 - p.rho), p.positive_branch))

        # the inverse is unique except on the atom's plateau [theta1, rho]
        for u in (0.01, 0.1, 0.19, 0.35, 0.6, 0.9, 0.999):
            if p.theta1 <= u <= p.rho:
                continue
            assert mixture_cdf(inverse_cdf(u), p) == pytest.approx(u, abs=1e-12)
