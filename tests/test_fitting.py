"""Weighted MLE: likelihood values, recovery, invariances, goodness of fit."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappagen import (
    DegenerateDataError,
    DomainError,
    FitConfig,
    KappaGenParams,
    NetWealthMixtureParams,
    SupportViolationError,
    WeibullParams,
    WeightedSample,
    fit_mixture,
    fit_mle,
    fit_normalized,
    goodness_of_fit,
    kgen_from_normalized,
    kgen_gini,
    kgen_mean,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    loglik,
    mixture_sample,
)
import kappagen.fitting as kfit
from kappagen.fitting import FAMILIES

FAST = FitConfig(model="kappagen", multistart=2, seed=0)


def kgen_data(n, alpha=2.0, beta=1.0, kappa=0.5, seed=42):
    return WeightedSample(kgen_sample(n, KappaGenParams(alpha, beta, kappa), seed))


class TestLoglik:
    def test_single_point_exponential(self):
        s = WeightedSample(np.array([1.0]))
        p = KappaGenParams(1.0, 1.0, 0.0)
        assert loglik(s, "kappagen", p) == pytest.approx(-1.0, abs=1e-14)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(50)
        values = rng.uniform(0.1, 5.0, 20)
        p = KappaGenParams(2.0, 1.0, 0.5)
        base = loglik(WeightedSample(values), "kappagen", p)
        doubled = loglik(WeightedSample(values, np.full(20, 2.0)), "kappagen", p)
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)

    def test_hand_summed_fixture(self):
        values = np.array([0.3, 0.7, 1.1, 1.5, 2.0, 2.6, 3.3, 4.1, 5.0, 6.2])
        weights = np.array([1.0, 2.0, 1.5, 1.0, 0.5, 1.0, 2.0, 1.0, 0.7, 1.3])
        alpha, beta, kappa = 2.0, 1.5, 0.6
        p = KappaGenParams(alpha, beta, kappa)
        want = 0.0
        for x, w in zip(values, weights):
            y = (x / beta) ** alpha
            dens = (alpha / beta) * (x / beta) ** (alpha - 1.0) * (
                math.sqrt(1.0 + kappa ** 2 * y ** 2) - kappa * y) ** (1.0 / kappa) / \
                math.sqrt(1.0 + kappa ** 2 * y ** 2)
            want += w * math.log(dens)
        got = loglik(WeightedSample(values, weights), "kappagen", p)
        assert got == pytest.approx(want, rel=1e-12)

    def test_support_violation_identifies_observation(self):
        s = WeightedSample(np.array([1.0, -2.0, 3.0]))
        with pytest.raises(SupportViolationError) as err:
            loglik(s, "kappagen", KappaGenParams(2.0, 1.0, 0.5))
        assert err.value.index == 1
        assert err.value.value == -2.0

    def test_mixture_supports_negatives_and_zeros(self):
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.25, 0.25, 0.5,
                                   KappaGenParams(2.0, 1.0, 0.5))
        s = WeightedSample(np.array([-1.0, 0.0, 1.0]))
        value = loglik(s, "mixture", p)
        assert math.isfinite(value)


class TestFitMle:
    def test_recovery_moderate_sample(self):
        s = kgen_data(20000, 2.0, 1.0, 0.5, seed=1)
        res = fit_mle(s, FAST)
        assert res.converged
        assert res.params.alpha == pytest.approx(2.0, abs=0.1)
        assert res.params.beta == pytest.approx(1.0, abs=0.05)
        assert res.params.kappa == pytest.approx(0.5, abs=0.1)
        assert res.score_norm <= 1e-4

    def test_weight_normalization_invariance(self):
        s = kgen_data(3000, seed=2)
        res_unit = fit_mle(s, FAST)
        res_scaled = fit_mle(WeightedSample(s.values, np.full(len(s), 3.0)), FAST)
        assert res_scaled.params.alpha == pytest.approx(res_unit.params.alpha, abs=1e-10)
        assert res_scaled.params.beta == pytest.approx(res_unit.params.beta, abs=1e-10)
        assert res_scaled.params.kappa == pytest.approx(res_unit.params.kappa, abs=1e-10)

    def test_optimum_beats_truth_on_sample(self):
        s = kgen_data(5000, seed=3)
        res = fit_mle(s, FAST)
        truth = KappaGenParams(2.0, 1.0, 0.5)
        assert res.loglik >= loglik(s, "kappagen", truth) - 1e-6

    def test_optimum_beats_initial_point(self):
        from kappagen.fitting import _initial_kgen
        s = kgen_data(5000, seed=4)
        a0, b0, k0 = _initial_kgen(s)
        res = fit_mle(s, FAST)
        assert res.loglik >= loglik(s, "kappagen", KappaGenParams(a0, b0, k0)) - 1e-6

    def test_scale_equivariance(self):
        s = kgen_data(8000, seed=5)
        res1 = fit_mle(s, FAST)
        c = 250.0
        res2 = fit_mle(WeightedSample(s.values * c, s.weights), FAST)
        assert res2.params.alpha == pytest.approx(res1.params.alpha, rel=1e-5)
        assert res2.params.kappa == pytest.approx(res1.params.kappa, abs=1e-5)
        assert res2.params.beta == pytest.approx(res1.params.beta * c, rel=1e-5)

    def test_weibull_fit_on_weibull_data(self):
        rng = np.random.default_rng(6)
        x = 2.0 * rng.weibull(1.5, 20000)
        res = fit_mle(WeightedSample(x), FitConfig(model="weibull", multistart=2, seed=0))
        assert res.converged
        assert res.params.shape == pytest.approx(1.5, abs=0.05)
        assert res.params.scale == pytest.approx(2.0, abs=0.05)

    def test_ekg2_fit_recovers_and_rescales(self):
        from kappagen import EKG2Params, ekg2_sample
        truth = EKG2Params(2.0, 1.0, 0.8, 1.2)
        x = ekg2_sample(10000, truth, seed=16)
        cfg = FitConfig(model="ekg2", multistart=1, seed=0)
        res = fit_mle(WeightedSample(x), cfg)
        assert res.converged
        assert res.params.a == pytest.approx(2.0, rel=0.15)
        res_scaled = fit_mle(WeightedSample(x * 40.0), cfg)
        assert res_scaled.params.a == pytest.approx(res.params.a, rel=1e-4)
        assert res_scaled.params.p == pytest.approx(res.params.p, rel=1e-4)
        assert res_scaled.params.q == pytest.approx(res.params.q, rel=1e-4)
        assert res_scaled.params.b == pytest.approx(res.params.b * 40.0, rel=1e-4)

    def test_ekg1_fit_runs_on_its_own_data(self):
        from kappagen import EKG1Params, ekg1_sample
        truth = EKG1Params(3.0, 1.0, 0.6, 0.3)
        x = ekg1_sample(2000, truth, seed=17)
        res = fit_mle(WeightedSample(x), FitConfig(model="ekg1", multistart=1, seed=0))
        assert res.converged
        assert res.params.a == pytest.approx(3.0, rel=0.25)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_mle(WeightedSample(np.full(10, 2.0)), FAST)

    @pytest.mark.parametrize("model", ["kappagen", "weibull"])
    def test_values_with_zero_weight_do_not_count_as_distinct(self, model):
        s = WeightedSample(np.array([2.0, 5.0, 2.0, 0.5, 2.0, 9.0]),
                           np.array([1.0, 0.0, 3.0, 0.0, 2.0, 0.0]))
        with pytest.raises(DegenerateDataError):
            fit_mle(s, FitConfig(model=model, multistart=1))

    def test_tiny_sample_reaches_the_weibull_limit_optimum(self):
        # the log-density is even in kappa, so the Weibull limit is a
        # stationary point; on these four records the starts settle there
        # (-8.132), short of the kappa -> 1 end point (-7.977)
        res = fit_mle(WeightedSample(np.array([1.0, 2.0, 2.5, 7.0])),
                      FitConfig(model="kappagen", multistart=3, seed=1))
        assert res.converged
        assert res.loglik >= -8.132

    def test_non_convergence_is_result_not_exception(self):
        s = kgen_data(2000, seed=7)
        res = fit_mle(s, FitConfig(model="kappagen", max_iter=1, multistart=1, seed=0))
        assert res.converged is False

    def test_support_violation_raises(self):
        s = WeightedSample(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(SupportViolationError):
            fit_mle(s, FAST)

    def test_diagnostics_report_the_quasi_newton_stage(self):
        s = kgen_data(5000, seed=18)
        res = fit_mle(s, FitConfig(model="kappagen", multistart=3, seed=0))
        d = res.diagnostics
        assert [start.stage for start in d.starts] == ["quasi-newton"] * 3
        assert {start.model for start in d.starts} == {"kappagen"}
        assert max(start.loglik for start in d.starts) == pytest.approx(res.loglik, rel=1e-14)
        # every start's evaluations plus the convergence check's central differences
        assert d.evaluations == sum(start.evaluations for start in d.starts) + 6
        assert d.penalties == ()


class TestFitNormalized:
    def test_unit_mean_and_shape_agreement(self):
        s = kgen_data(20000, 2.0, 1.3, 0.5, seed=8)
        res_n = fit_normalized(s, FitConfig(model="kappagen_normalized",
                                            multistart=2, seed=0))
        assert res_n.converged
        assert kgen_mean(res_n.params) == pytest.approx(1.0, abs=1e-8)
        assert res_n.scale == pytest.approx(s.weighted_mean(), rel=1e-14)
        res_full = fit_mle(s, FAST)
        assert res_n.params.alpha == pytest.approx(res_full.params.alpha, rel=0.02)
        assert res_n.params.kappa == pytest.approx(res_full.params.kappa, abs=0.02)

    def test_dispatch_via_fit_mle(self):
        s = kgen_data(2000, seed=9)
        res = fit_mle(s, FitConfig(model="kappagen_normalized", multistart=1, seed=0))
        assert res.model == "kappagen_normalized"
        assert kgen_mean(res.params) == pytest.approx(1.0, abs=1e-8)

    def test_end_point_does_not_depend_on_the_last_bit_of_beta(self, monkeypatch):
        s = region_sample(seed=11, region=12)
        unit_mean = kfit.kgen_from_normalized
        fits = []
        for j in range(-3, 4):
            def nudged(alpha, kappa, j=j):
                p = unit_mean(alpha, kappa)
                return KappaGenParams(p.alpha, p.beta * (1.0 + j * 2.0 ** -52), p.kappa)
            monkeypatch.setattr(kfit, "kgen_from_normalized", nudged)
            fits.append(fit_mle(s, FitConfig(model="kappagen_normalized", multistart=1, seed=12)))
        for name in ("alpha", "kappa"):
            got = np.array([getattr(r.params, name) for r in fits])
            assert np.ptp(got) <= 1e-9 * np.mean(got), name
        assert len({r.converged for r in fits}) == 1


def region_sample(seed, region, n=10_000, alpha=2.5, beta=1.0, kappa=0.6):
    """One regional income sample of a survey-like layout: n base-model
    draws by the quantile beta (sinh(kappa t)/kappa)^(1/alpha) at
    t = -ln(1 - u), with integer weights 1-5, one generator across the
    regions, each region also drawing an equal-sized wealth sample."""
    rng = np.random.default_rng(seed)
    for _ in range(region + 1):
        t = -np.log1p(-rng.random(n))
        tau = kappa * t
        log_sinh = np.where(tau > 20.0, tau - math.log(2.0),
                            np.log(np.sinh(np.minimum(tau, 20.0))))
        values = beta * np.exp((log_sinh - math.log(kappa)) / alpha)
        weights = rng.integers(1, 6, size=n).astype(float)
        rng.random(n)  # the region's wealth sample and its weights
        rng.integers(1, 6, size=n)
    return WeightedSample(values, weights)


class TestFitMixture:
    def make_sample(self, n, seed):
        p = NetWealthMixtureParams(WeibullParams(0.9, 1.0), 0.2, 0.1, 0.7,
                                   KappaGenParams(2.0, 10.0, 0.5))
        return WeightedSample(mixture_sample(n, p, seed)), p

    def test_exact_component_shares(self):
        values = np.concatenate([-np.linspace(0.5, 2.4, 20), np.full(10, 0.0),
                                 np.linspace(1, 5, 70)])
        res = fit_mixture(WeightedSample(values),
                          FitConfig(model="mixture", multistart=1, seed=0))
        assert res.params.theta1 == pytest.approx(0.2, abs=1e-14)
        assert res.params.theta2 == pytest.approx(0.1, abs=1e-14)
        assert res.params.theta3 == pytest.approx(0.7, abs=1e-14)

    def test_weighted_shares(self):
        values = np.array([-1.0, 0.0, 2.0])
        weights = np.array([2.0, 3.0, 5.0])
        res = fit_mixture(WeightedSample(np.concatenate([values, [1.0, 3.0, 0.5]]),
                                         np.concatenate([weights, [1.0, 1.0, 1.0]])),
                          FitConfig(model="mixture", multistart=1, seed=0))
        assert res.params.theta1 == pytest.approx(2.0 / 13.0, abs=1e-14)
        assert res.params.theta2 == pytest.approx(3.0 / 13.0, abs=1e-14)

    def test_parameter_recovery(self):
        s, truth = self.make_sample(30000, seed=10)
        res = fit_mixture(s, FitConfig(model="mixture", multistart=2, seed=0))
        assert res.converged
        pb = res.params.positive_branch
        nb = res.params.negative_branch
        assert pb.alpha == pytest.approx(2.0, rel=0.08)
        assert pb.beta == pytest.approx(10.0, rel=0.08)
        assert pb.kappa == pytest.approx(0.5, abs=0.08)
        assert nb.shape == pytest.approx(0.9, rel=0.08)
        assert nb.scale == pytest.approx(1.0, rel=0.08)

    def test_all_positive_reduces_to_plain_fit(self):
        s = kgen_data(3000, seed=11)
        res_mix = fit_mixture(s, FitConfig(model="mixture", multistart=2, seed=0))
        res_kg = fit_mle(s, FAST)
        assert res_mix.params.theta1 == 0.0
        assert res_mix.params.theta2 == 0.0
        pb = res_mix.params.positive_branch
        assert pb.alpha == pytest.approx(res_kg.params.alpha, rel=1e-6)
        assert pb.beta == pytest.approx(res_kg.params.beta, rel=1e-6)
        assert pb.kappa == pytest.approx(res_kg.params.kappa, abs=1e-6)

    def test_no_positive_observations_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_mixture(WeightedSample(np.array([-1.0, -2.0, 0.0])),
                        FitConfig(model="mixture", multistart=1, seed=0))

    def test_small_branch_flagged(self):
        values = np.concatenate([[-0.5, -1.0, -1.5], np.linspace(0.5, 5, 200)])
        res = fit_mixture(WeightedSample(values),
                          FitConfig(model="mixture", multistart=1, seed=0))
        assert any("negative branch" in f for f in res.flags)

    def test_full_sample_loglik_computed_once(self, monkeypatch):
        s, _ = self.make_sample(2000, seed=12)
        full_calls = []
        original = kfit.loglik

        def counting(sample, model, params):
            if sample is s:
                full_calls.append(model)
            return original(sample, model, params)

        monkeypatch.setattr(kfit, "loglik", counting)
        res = fit_mixture(s, FitConfig(model="mixture", multistart=1, seed=0))
        assert full_calls == ["mixture"]
        assert res.loglik == res.gof.loglik == original(s, "mixture", res.params)

    def test_branch_results_combined(self):
        s, _ = self.make_sample(2000, seed=12)
        config = FitConfig(model="mixture", multistart=2, seed=0)
        res = fit_mixture(s, config)
        neg = s.values < 0.0
        pos = s.values > 0.0
        branches = [kfit._fit_transformed("weibull", WeightedSample(-s.values[neg]), config),
                    kfit._fit_transformed("kappagen", WeightedSample(s.values[pos]), config)]
        assert res.converged == all(b.converged for b in branches)
        assert res.iterations == sum(b.iterations for b in branches)
        assert res.score_norm == max(b.score_norm for b in branches)
        assert res.diagnostics.starts == sum((b.diagnostics.starts for b in branches), ())
        assert res.diagnostics.evaluations == sum(b.diagnostics.evaluations for b in branches)
        assert [st.model for st in res.diagnostics.starts] == ["weibull"] * 2 + ["kappagen"] * 2


class TestGoodnessOfFit:
    def test_self_fit_on_quantile_grid(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        n = 4000
        grid = (np.arange(1, n + 1) - 0.5) / n
        s = WeightedSample(kgen_quantile(grid, p))
        gof = goodness_of_fit(s, "kappagen", p)
        assert gof.lrsse == pytest.approx(0.0, abs=5e-3)
        assert gof.aeg == pytest.approx(0.0, abs=5e-3)

    def test_exponential_data_weibull_model(self):
        rng = np.random.default_rng(12)
        s = WeightedSample(rng.exponential(1.0, 20000))
        res = fit_mle(s, FitConfig(model="weibull", multistart=2, seed=0))
        assert res.gof.aeg < 0.02

    def test_wrong_kappa_scores_worse(self):
        p_true = KappaGenParams(2.0, 1.0, 0.7)
        s = WeightedSample(kgen_sample(20000, p_true, seed=13))
        gof_true = goodness_of_fit(s, "kappagen", p_true)
        gof_wrong = goodness_of_fit(s, "kappagen", KappaGenParams(2.0, 1.0, 0.0))
        assert gof_wrong.lrsse > gof_true.lrsse

    def test_gof_attached_to_fit(self):
        s = kgen_data(2000, seed=14)
        res = fit_mle(s, FAST)
        assert res.gof is not None
        assert math.isfinite(res.gof.lrsse)
        assert res.gof.loglik == pytest.approx(res.loglik, rel=1e-12)


def _per_call_sort_start(values, weights):
    """The start values computed with their own stable sort of the values."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cw = np.cumsum(w)
    cdf_mid = (cw - 0.5 * w) / cw[-1]
    bulk = (cdf_mid > 0.01) & (cdf_mid < 0.9) & (v > 0.0)
    slope, intercept = kfit._weighted_lstsq(np.log(v[bulk]), np.log(-np.log1p(-cdf_mid[bulk])),
                                            w[bulk])
    alpha0 = min(max(slope, 0.05), 50.0)
    tail = (cdf_mid >= 0.9) & (cdf_mid < 1.0) & (v > 0.0)
    tail_slope, _ = kfit._weighted_lstsq(np.log(v[tail]), np.log1p(-cdf_mid[tail]), w[tail])
    return alpha0, math.exp(-intercept / slope), min(max(alpha0 / -tail_slope, 0.01), 0.9)


class TestSortOnce:
    @staticmethod
    def tied_sample():
        rng = np.random.default_rng(9)
        values = np.round(kgen_sample(3000, KappaGenParams(2.0, 1.0, 0.5), seed=9), 1) + 0.05
        return WeightedSample(values, rng.integers(0, 4, values.size) * 0.3)

    def test_initial_kgen_same_bits_as_a_per_call_sort(self):
        s = self.tied_sample()
        assert kfit._initial_kgen(s) == _per_call_sort_start(s.values, s.weights)

    def test_goodness_of_fit_gini_is_the_empirical_gini(self):
        s = self.tied_sample()
        p = KappaGenParams(2.1, 0.9, 0.4)
        assert goodness_of_fit(s, "kappagen", p).aeg == abs(
            kfit.ineq.empirical_gini(s) - kgen_gini(p))


class TestConsistencyDrift:
    def test_error_shrinks_with_sample_size(self):
        errors = []
        for n in (1000, 10000, 100000):
            s = kgen_data(n, seed=15)
            res = fit_mle(s, FitConfig(model="kappagen", multistart=1, seed=0))
            p = res.params
            errors.append(abs(p.alpha - 2.0) + abs(p.beta - 1.0) + abs(p.kappa - 0.5))
        assert errors[2] < errors[0]


# One optimizer vector per family fitted on transformed coordinates.
TRANSFORM_VECTORS = {
    "kappagen": [0.7, 0.4, -0.4],
    "weibull": [0.7, -0.3],
    "ekg1": [0.7, 0.1, 0.4, -0.5],
    "ekg2": [0.7, 0.1, 0.2, 0.3],
    "kappagen_normalized": [0.9, -0.8],
}


class TestFamilyTransforms:
    def test_table_covers_the_fitted_families(self):
        assert set(TRANSFORM_VECTORS) == {m for m, f in FAMILIES.items() if f.decode}

    @pytest.mark.parametrize("model", sorted(TRANSFORM_VECTORS))
    def test_encode_inverts_decode(self, model):
        family = FAMILIES[model]
        vec = np.array(TRANSFORM_VECTORS[model])
        params = family.decode(vec)
        assert isinstance(params, family.params)
        assert family.encode(params) == pytest.approx(vec, rel=1e-12, abs=1e-12)


def mp_logpdf(x, alpha, beta, kappa):
    """The base model's log-density in mpmath; the Weibull form at kappa = 0."""
    y = (x / beta) ** alpha
    out = mp.log(alpha / beta) + (alpha - 1) * mp.log(x / beta)
    if kappa == 0:
        return out - y
    return out - mp.asinh(kappa * y) / kappa - mp.log1p((kappa * y) ** 2) / 2


def mp_unit_mean_log_beta(alpha, kappa):
    """ln beta of the unit-mean scale, -ln E[X] at beta = 1, in mpmath."""
    m = 1 / alpha
    c = 1 / (2 * kappa)
    return -(mp.loggamma(1 + m) - m * mp.log(2 * kappa) + mp.loggamma(c - m / 2)
             - mp.log(1 + m * kappa) - mp.loggamma(c + m / 2))


def mp_score(model, x, p):
    """(d ln f(x) / d v_i, scale_i) for decode's vector v, from mpmath
    derivatives of the log-density at 40 digits; scale_i sums the absolute
    chain-rule terms, the size rounding is measured against."""
    with mp.workdps(40):
        if model == "weibull":
            a, b, k = mp.mpf(p.shape), mp.mpf(p.scale), mp.mpf(0)
        else:
            a, b, k = mp.mpf(p.alpha), mp.mpf(p.beta), mp.mpf(p.kappa)
        x = mp.mpf(x)
        d_ln_a = a * mp.diff(lambda t: mp_logpdf(x, t, b, k), a)
        d_ln_b = b * mp.diff(lambda t: mp_logpdf(x, a, t, k), b)
        if model == "weibull":
            return [(d_ln_a, abs(d_ln_a)), (d_ln_b, abs(d_ln_b))]
        d_k = mp.diff(lambda t: mp_logpdf(x, a, b, t), k)
        # the kappa score is the sum of (asinh(u) - u/s)/kappa^2 and -kappa y^2/s^2,
        # u = kappa y, s^2 = 1 + u^2, which cancel to O(kappa) near y = 3
        u = k * (x / b) ** a
        s2 = 1 + u * u
        d_k_size = abs(mp.asinh(u) - u / mp.sqrt(s2)) / k ** 2 + u * u / (k * s2)
        dk_dc = k * (1 - k)
        if model == "kappagen":
            return [(d_ln_a, abs(d_ln_a)), (d_ln_b, abs(d_ln_b)), (dk_dc * d_k, dk_dc * d_k_size)]
        la = mp.log(a)
        beta_by_ln_a = mp.diff(lambda t: mp_unit_mean_log_beta(mp.exp(t), k), la)
        beta_by_k = mp.diff(lambda t: mp_unit_mean_log_beta(a, t), k)
        return [(d_ln_a + d_ln_b * beta_by_ln_a, abs(d_ln_a) + abs(d_ln_b * beta_by_ln_a)),
                (dk_dc * (d_k + d_ln_b * beta_by_k),
                 dk_dc * (d_k_size + abs(d_ln_b * beta_by_k)))]


SCORE_KAPPAS = (1e-12, 1e-6, 1e-3, 0.3, 0.9)


class TestScores:
    """The closed-form scores of the families fitted by quasi-Newton."""

    def test_scored_families(self):
        assert {m for m, f in FAMILIES.items() if f.score} == {
            "kappagen", "weibull", "kappagen_normalized"}

    @pytest.mark.parametrize("alpha", [0.5, 1.3, 2.5, 8.0])
    @pytest.mark.parametrize("model", ["weibull", "kappagen", "kappagen_normalized"])
    def test_against_mpmath(self, model, alpha):
        family = FAMILIES[model]
        for kappa in (0.0,) if model == "weibull" else SCORE_KAPPAS:
            if model == "weibull":
                p = WeibullParams(alpha, 1.7)
            elif model == "kappagen":
                p = KappaGenParams(alpha, 1.7, kappa)
            elif alpha / kappa > 1.05:
                p = kgen_from_normalized(alpha, kappa)
            else:
                continue
            beta = p.scale if model == "weibull" else p.beta
            # kappa y on both sides of the score's series switch at 1e-2
            ys = [1e-3, 0.5, 3.0] + ([0.5e-2 / kappa, 2e-2 / kappa] if kappa else [])
            for y in ys:
                x = beta * y ** (1.0 / alpha)
                if not x < 1e300:
                    continue
                ll, got = family.score(np.array([x]), np.array([1.0]), p)
                assert ll == family.logpdf(np.array([x]), p)[0]
                for i, (want, scale) in enumerate(mp_score(model, x, p)):
                    # the kappa score keeps ~2e-12 relative just above the series switch
                    tol = 1e-11 * float(scale) if i == 2 or model == "kappagen_normalized" and i == 1 \
                        else 1e-13 * max(1.0, float(scale))
                    assert abs(got[i] - float(want)) <= tol, (kappa, y, i, got[i], want)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(model=st.sampled_from(["kappagen", "weibull", "kappagen_normalized"]),
           alpha=st.floats(0.5, 8.0), kappa=st.floats(0.0, 0.9),
           beta=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
    def test_matches_central_difference_of_loglik(self, model, alpha, kappa, beta, seed):
        family = FAMILIES[model]
        rng = np.random.default_rng(seed)
        if model == "kappagen_normalized":
            if not alpha > 1.5 * kappa:
                return
            params = kgen_from_normalized(alpha, kappa)
        else:
            params = family.start(alpha, beta, kappa)
        # data from nearby parameters, so the score is not near zero
        draws = kgen_sample(200, KappaGenParams(alpha * 1.2, 1.1 * getattr(params, "beta", beta),
                                                kappa * 0.8), seed)
        s = WeightedSample(draws, rng.integers(1, 6, size=draws.size).astype(float))
        vec = family.encode(params)
        _, score = kfit.loglik_score(s, model, family.decode(vec))
        scale = float(np.sum(s.weights * np.abs(family.logpdf(s.values, family.decode(vec)))))
        f = lambda v: loglik(s, model, family.decode(v))
        for i in range(vec.size):
            step = np.zeros_like(vec)
            step[i] = 1e-4
            d1 = (f(vec + step) - f(vec - step)) / 2e-4
            d2 = (f(vec + step / 2) - f(vec - step / 2)) / 1e-4
            if abs(d1 - d2) <= 1e-7 * scale:  # a well-conditioned difference
                assert abs(score[i] - d2) <= abs(d1 - d2) + 1e-8 * scale, i

    def test_value_is_loglik_and_support_is_checked_first(self):
        s = kgen_data(500, seed=19)
        for model in ("kappagen", "weibull", "kappagen_normalized"):
            family = FAMILIES[model]
            params = family.decode(np.array(TRANSFORM_VECTORS[model]))
            assert kfit.loglik_score(s, model, params)[0] == loglik(s, model, params)
        bad = WeightedSample(np.array([1.0, -2.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SupportViolationError) as err:
                kfit.loglik_score(bad, "kappagen", KappaGenParams(2.0, 1.0, 0.5))
        assert err.value.index == 1


def mp_raw_hessian(x, alpha, beta, kappa):
    """(H, scale, l_k, scale of l_k) of ln f(x) in (ln alpha, ln beta, kappa)
    at 40 digits: H and the kappa score l_k from mpmath derivatives of the
    log-density, each scale from the absolute closed-form terms, the size
    rounding is measured against (the cancelling asinh(u) - u/s counted at
    the size of its parts above the series switch)."""
    with mp.workdps(40):
        a, b, k, x = (mp.mpf(v) for v in (alpha, beta, kappa, x))
        f = lambda la, lb, kk: mp_logpdf(x, mp.exp(la), mp.exp(lb), kk)
        z = (mp.log(a), mp.log(b), k)
        hess = mp.matrix(3, 3)
        for i in range(3):
            for j in range(i, 3):
                order = [0, 0, 0]
                order[i] += 1
                order[j] += 1
                hess[i, j] = hess[j, i] = mp.diff(f, z, tuple(order))
        ln_rel = mp.log(x / b)
        y = (x / b) ** a
        u = k * y
        s = mp.sqrt(1 + u * u)
        q, t = y / s, k * y / s
        al = abs(a * ln_rel)
        g = (q + 2 * t * t) / s ** 2
        h_k = k * q * q * (2 + q + 2 * t * t)
        y3s = (mp.asinh(u) + u / s) / k ** 3 if u >= 1e-2 else y ** 3 / 3
        scale = mp.matrix([
            [al * abs(1 - q - t * t) + al ** 2 * g, a * abs(1 - q - t * t) + a * al * g, al * h_k],
            [0, a * a * g, a * h_k],
            [0, 0, q ** 3 + q * q + 2 * t * t * q * q + 2 * y3s]])
        for i in range(3):
            for j in range(i):
                scale[i, j] = scale[j, i]
        # the kappa score, for the logit chain rule
        d_k = mp.diff(lambda kk: f(z[0], z[1], kk), k)
        d_k_size = k * y3s + t * q
    return hess, scale, d_k, d_k_size


def mp_hessian(model, x, p):
    """(H, scale) in decode's vector, through the chain rule for logit kappa:
    d2/dz2 = l_kk k'^2 + l_k k'' with k' = kappa (1 - kappa), k'' = k' (1 - 2 kappa)."""
    if model == "weibull":
        hess, scale, _, _ = mp_raw_hessian(x, p.shape, p.scale, 0.0)
        return hess[:2, :2], scale[:2, :2]
    hess, scale, d_k, d_k_size = mp_raw_hessian(x, p.alpha, p.beta, p.kappa)
    with mp.workdps(40):
        k = mp.mpf(p.kappa)
        d1 = k * (1 - k)
        d2 = d1 * (1 - 2 * k)
        hess[2, 2] = hess[2, 2] * d1 * d1 + d_k * d2
        scale[2, 2] = scale[2, 2] * d1 * d1 + d_k_size * abs(d2)
        for i in range(2):
            hess[i, 2] = hess[2, i] = hess[i, 2] * d1
            scale[i, 2] = scale[2, i] = scale[i, 2] * d1
    return hess, scale


def assert_same_value_and_score(got, want):
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


def assert_hessian_close(got, want, scale, context):
    for i in range(got.shape[0]):
        for j in range(got.shape[1]):
            # measured: within 1.7e-15 of the scale
            tol = 1e-14 * max(1.0, float(scale[i, j]))
            assert abs(got[i, j] - float(want[i, j])) <= tol, (context, i, j, got[i, j], want[i, j])


class TestHessian:
    """The closed-form Hessians that start the quasi-Newton stage."""

    def test_families_with_a_hessian(self):
        assert {m for m, f in FAMILIES.items() if f.hessian} == {"kappagen", "weibull"}

    @pytest.mark.parametrize("alpha", [0.5, 1.3, 2.5, 8.0])
    @pytest.mark.parametrize("model", ["raw", "weibull", "kappagen"])
    def test_against_mpmath(self, model, alpha):
        for kappa in (0.0,) if model == "weibull" else (0.0,) * (model == "raw") + SCORE_KAPPAS:
            if model == "weibull":
                p = WeibullParams(alpha, 1.7)
            else:
                p = KappaGenParams(alpha, 1.7, kappa)
            # kappa y on both sides of the series switch at 1e-2
            for y in [1e-3, 0.5, 3.0] + ([0.5e-2 / kappa, 2e-2 / kappa] if kappa else []):
                x = 1.7 * y ** (1.0 / alpha)
                if not x < 1e300:
                    continue
                one = np.array([x]), np.array([1.0])
                if model == "raw":
                    first, second = kfit._kgen_loglik_score, kfit._kgen_loglik_hessian
                    want, scale, _, _ = mp_raw_hessian(x, alpha, 1.7, kappa)
                else:
                    first, second = FAMILIES[model].score, FAMILIES[model].hessian
                    want, scale = mp_hessian(model, x, p)
                ll, grad, got = second(*one, p)
                assert_same_value_and_score((ll, grad), first(*one, p))
                assert np.array_equal(got, got.T)
                assert_hessian_close(got, want, scale, (kappa, y))

    @pytest.mark.parametrize("u", [1e100, 1e160, 1e300])
    def test_kappa_y_beyond_the_square_root_of_the_double_range(self, u):
        # (kappa y)^2 overflows above u ~ 1.3e154; s is then kappa y itself
        p = KappaGenParams(2.0, 1.0, 0.5)
        x = math.sqrt(u / p.kappa)
        one = np.array([x]), np.array([1.0])
        ll, grad, hess = kfit._kgen_loglik_hessian(*one, p)
        assert_same_value_and_score((ll, grad), kfit._kgen_loglik_score(*one, p))
        with mp.workdps(40):
            assert ll == pytest.approx(float(mp_logpdf(mp.mpf(x), 2, 1, mp.mpf(0.5))), rel=1e-15)
        assert FAMILIES["kappagen"].logpdf(x, p) == ll
        want, scale, d_k, _ = mp_raw_hessian(x, 2.0, 1.0, 0.5)
        for i, want_i in enumerate(mp_score("kappagen", x, p)):
            if i < 2:
                assert grad[i] == pytest.approx(float(want_i[0]), rel=1e-14, abs=1e-14)
        assert grad[2] == pytest.approx(float(d_k), rel=1e-14)
        assert_hessian_close(hess, want, scale, u)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(model=st.sampled_from(["kappagen", "weibull"]),
           alpha=st.floats(0.5, 8.0), kappa=st.floats(0.01, 0.95),
           beta=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
    def test_matches_central_difference_of_loglik_score(self, model, alpha, kappa, beta, seed):
        family = FAMILIES[model]
        rng = np.random.default_rng(seed)
        params = family.start(alpha, beta, kappa)
        draws = kgen_sample(200, KappaGenParams(alpha * 1.2, 1.1 * beta, kappa * 0.8), seed)
        s = WeightedSample(draws, rng.integers(1, 6, size=draws.size).astype(float))
        vec = family.encode(params)
        _, _, hess = kfit.loglik_hessian(s, model, family.decode(vec))
        assert np.array_equal(hess, hess.T)
        score = lambda v: kfit.loglik_score(s, model, family.decode(v))[1]
        scale = float(np.sum(s.weights * np.abs(family.logpdf(s.values, family.decode(vec)))))
        for i in range(vec.size):
            step = np.zeros_like(vec)
            step[i] = 1e-4
            d1 = (score(vec + step) - score(vec - step)) / 2e-4
            d2 = (score(vec + step / 2) - score(vec - step / 2)) / 1e-4
            ok = np.abs(d1 - d2) <= 1e-6 * scale  # a well-conditioned difference
            assert np.all(np.abs(hess[i] - d2)[ok] <= (np.abs(d1 - d2) + 1e-8 * scale)[ok]), i

    def test_support_is_checked_and_families_without_one_refuse(self):
        bad = WeightedSample(np.array([1.0, -2.0, 3.0]))
        with pytest.raises(SupportViolationError):
            kfit.loglik_hessian(bad, "kappagen", KappaGenParams(2.0, 1.0, 0.5))
        with pytest.raises(DomainError):
            kfit.loglik_hessian(kgen_data(50, seed=3), "kappagen_normalized",
                                kgen_from_normalized(2.0, 0.5))
