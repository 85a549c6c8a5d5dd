"""Weighted MLE: likelihood values, recovery, invariances, goodness of fit."""

import math

import numpy as np
import pytest

from kappagen import (
    DegenerateDataError,
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
    kgen_gini,
    kgen_mean,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    loglik,
    mixture_sample,
)
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
        a0, b0, k0 = _initial_kgen(s.values, s.weights)
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

    def test_non_convergence_is_result_not_exception(self):
        s = kgen_data(2000, seed=7)
        res = fit_mle(s, FitConfig(model="kappagen", max_iter=1, multistart=1, seed=0))
        assert res.converged is False

    def test_support_violation_raises(self):
        s = WeightedSample(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(SupportViolationError):
            fit_mle(s, FAST)


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
