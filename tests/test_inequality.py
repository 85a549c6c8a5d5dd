"""Inequality analytics: closed forms vs quadrature, dominance, empirical."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kappagen import (
    CurveNonexistenceError,
    DegenerateDataError,
    DegenerateNormalizationError,
    DomainError,
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    LorenzCurve,
    LorenzOrdering,
    MomentDivergenceError,
    NetWealthMixtureParams,
    WeibullParams,
    WeightedSample,
    ekg1_quantile,
    ekg2_lorenz,
    ekg2_quantile,
    empirical_gini,
    empirical_lorenz,
    kgen_ge,
    kgen_gini,
    kgen_inequality_report,
    kgen_lorenz,
    kgen_mean,
    kgen_mld,
    kgen_quantile,
    kgen_sample,
    kgen_theil,
    kgen_variance,
    lorenz_dominates,
    mixture_gini,
    mixture_lorenz,
    mixture_mean,
    quantile_gini,
    quantile_lorenz,
    quantile_mean,
)
from kappagen.deformed import _BLOCK
from kappagen.inequality import _LORENZ_BLOCK, DECILES, empirical_lorenz_summary

EULER_GAMMA = np.euler_gamma


def lorenz_by_quadrature(quantile_fn, u):
    mean, _ = quad(quantile_fn, 0, 1, limit=400)
    part, _ = quad(quantile_fn, 0, u, limit=400)
    return part / mean


def gini_by_quadrature(quantile_fn):
    mean, _ = quad(quantile_fn, 0, 1, limit=400)
    damped, _ = quad(lambda t: quantile_fn(t) * (1.0 - t), 0, 1, limit=400)
    return 1.0 - 2.0 * damped / mean


class TestKgenLorenz:
    def test_endpoints(self):
        p = KappaGenParams(2.0, 1.0, 0.75)
        assert kgen_lorenz(0.0, p) == 0.0
        assert kgen_lorenz(1.0, p) == 1.0

    def test_exponential_analytic_form(self):
        p = KappaGenParams(1.0, 2.0, 0.0)
        for u in (0.1, 0.5, 0.9):
            want = u + (1.0 - u) * math.log(1.0 - u)
            assert kgen_lorenz(u, p) == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle(self):
        p = KappaGenParams(2.0, 1.0, 0.75)
        want = lorenz_by_quadrature(lambda t: kgen_quantile(t, p), 0.5)
        assert kgen_lorenz(0.5, p) == pytest.approx(want, abs=1e-8)

    def test_below_diagonal_and_convex(self):
        p = KappaGenParams(1.7, 1.0, 0.4)
        u = np.linspace(0.0, 1.0, 201)
        ell = kgen_lorenz(u, p)
        assert np.all(ell <= u + 1e-12)
        second = ell[2:] - 2 * ell[1:-1] + ell[:-2]
        assert np.all(second >= -1e-10)

    def test_nonexistence(self):
        with pytest.raises(CurveNonexistenceError):
            kgen_lorenz(0.5, KappaGenParams(0.5, 1.0, 0.6))

    def test_domain(self):
        with pytest.raises(DomainError):
            kgen_lorenz(1.5, KappaGenParams(2.0, 1.0, 0.5))


class TestLorenzDominance:
    def test_identical_params_equivalent(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        q = KappaGenParams(2.0, 3.0, 0.5)  # scale does not matter
        assert lorenz_dominates(p, q) is LorenzOrdering.EQUIVALENT

    def test_clear_dominance_with_grid_check(self):
        p1 = KappaGenParams(3.0, 1.0, 0.3)
        p2 = KappaGenParams(2.0, 1.0, 0.5)
        assert lorenz_dominates(p1, p2) is LorenzOrdering.FIRST_DOMINATES
        u = np.linspace(0.001, 0.999, 1000)
        assert np.all(kgen_lorenz(u, p1) >= kgen_lorenz(u, p2) - 1e-12)

    def test_crossing_with_grid_check(self):
        # alpha1 > alpha2 but alpha1/kappa1 < alpha2/kappa2
        p1 = KappaGenParams(3.0, 1.0, 0.9)
        p2 = KappaGenParams(2.0, 1.0, 0.35)
        assert lorenz_dominates(p1, p2) is LorenzOrdering.CROSSING
        u = np.linspace(0.001, 0.9999, 2000)
        diff = kgen_lorenz(u, p1) - kgen_lorenz(u, p2)
        assert diff.min() < 0 < diff.max()

    def test_nonexistent_curve_rejected(self):
        with pytest.raises(CurveNonexistenceError):
            lorenz_dominates(KappaGenParams(0.5, 1.0, 0.6), KappaGenParams(2.0, 1.0, 0.5))


class TestKgenGini:
    def test_exponential_anchor(self):
        assert kgen_gini(KappaGenParams(1.0, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_weibull_anchor(self):
        for alpha in (0.8, 1.0, 2.0, 3.0):
            want = 1.0 - 2.0 ** (-1.0 / alpha)
            assert kgen_gini(KappaGenParams(alpha, 1.7, 0.0)) == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle(self):
        p = KappaGenParams(2.0, 1.0, 0.75)
        want = gini_by_quadrature(lambda t: kgen_quantile(t, p))
        assert kgen_gini(p) == pytest.approx(want, abs=1e-8)

    def test_monotonicity_in_shape_parameters(self):
        kappas = np.linspace(0.1, 0.8, 8)
        ginis = [kgen_gini(KappaGenParams(2.0, 1.0, k)) for k in kappas]
        assert np.all(np.diff(ginis) > 0)
        alphas = np.linspace(1.0, 4.0, 8)
        ginis = [kgen_gini(KappaGenParams(a, 1.0, 0.5)) for a in alphas]
        assert np.all(np.diff(ginis) < 0)

    def test_scale_invariance(self):
        p1 = KappaGenParams(2.0, 1.0, 0.6)
        p2 = KappaGenParams(2.0, 173.2, 0.6)
        assert kgen_gini(p1) == pytest.approx(kgen_gini(p2), abs=1e-10)

    def test_nonexistence(self):
        with pytest.raises(CurveNonexistenceError):
            kgen_gini(KappaGenParams(0.6, 1.0, 0.7))


class TestEntropyIndices:
    def test_mld_exponential_anchor(self):
        assert kgen_mld(KappaGenParams(1.0, 1.0, 0.0)) == pytest.approx(
            EULER_GAMMA, abs=1e-12)

    def test_theil_exponential_anchor(self):
        assert kgen_theil(KappaGenParams(1.0, 1.0, 0.0)) == pytest.approx(
            1.0 - EULER_GAMMA, abs=1e-12)

    def test_mld_quadrature(self):
        from kappagen import kgen_pdf
        p = KappaGenParams(2.0, 1.0, 0.5)
        m = kgen_mean(p)
        want, _ = quad(lambda x: math.log(m / x) * kgen_pdf(x, p), 0, np.inf, limit=400)
        assert kgen_mld(p) == pytest.approx(want, abs=1e-7)

    def test_theil_quadrature(self):
        from kappagen import kgen_pdf
        p = KappaGenParams(2.0, 3.0, 0.75)
        m = kgen_mean(p)
        want, _ = quad(lambda x: (x / m) * math.log(x / m) * kgen_pdf(x, p),
                       0, np.inf, limit=400)
        assert kgen_theil(p) == pytest.approx(want, abs=1e-7)

    def test_ge2_is_half_squared_cv(self):
        p = KappaGenParams(2.0, 1.0, 0.4)
        want = 0.5 * kgen_variance(p) / kgen_mean(p) ** 2
        assert kgen_ge(2.0, p) == pytest.approx(want, rel=1e-10)

    def test_ge_limits_dispatch(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        assert abs(kgen_ge(1e-6, p) - kgen_mld(p)) <= 1e-4
        assert abs(kgen_ge(1.0 - 1e-6, p) - kgen_theil(p)) <= 1e-4

    def test_ge_continuity_outside_window(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        assert kgen_ge(1e-4, p) == pytest.approx(kgen_mld(p), abs=1e-3)
        assert kgen_ge(1.0 + 1e-4, p) == pytest.approx(kgen_theil(p), abs=1e-3)

    def test_ge_divergence(self):
        p = KappaGenParams(2.0, 1.0, 0.5)  # tail exponent 4
        with pytest.raises(MomentDivergenceError):
            kgen_ge(5.0, p)

    def test_scale_invariance_of_indices(self):
        p1 = KappaGenParams(1.8, 1.0, 0.55)
        p2 = KappaGenParams(1.8, 42.0, 0.55)
        assert kgen_mld(p1) == pytest.approx(kgen_mld(p2), abs=1e-10)
        assert kgen_theil(p1) == pytest.approx(kgen_theil(p2), abs=1e-10)
        assert kgen_ge(2.0, p1) == pytest.approx(kgen_ge(2.0, p2), abs=1e-10)
        assert kgen_ge(-0.5, p1) == pytest.approx(kgen_ge(-0.5, p2), abs=1e-10)

    def test_report_bundle(self):
        p = KappaGenParams(2.0, 1.0, 0.3)
        rep = kgen_inequality_report(p, thetas=(-1.0, 2.0))
        assert rep.gini == kgen_gini(p)
        assert len(rep.ge_values) == 2
        assert rep.ge_values[0][0] == -1.0


FIG_MIXTURE = NetWealthMixtureParams(
    negative_branch=WeibullParams(0.7, 1.0),
    theta1=0.2, theta2=0.1, theta3=0.7,
    positive_branch=KappaGenParams(2.0, 10.0, 0.75))


def mixture_quantile(t, p):
    """Inverse of the mixture CDF, for quadrature oracles."""
    if t < p.theta1:
        return -p.negative_branch.scale * math.log(p.theta1 / t) ** (
            1.0 / p.negative_branch.shape)
    if t <= p.rho:
        return 0.0
    return float(kgen_quantile((t - p.rho) / (1.0 - p.rho), p.positive_branch))


class TestMixtureLorenz:
    def test_flat_branch_value(self):
        p = FIG_MIXTURE
        m = mixture_mean(p)
        s, lam = p.negative_branch.shape, p.negative_branch.scale
        want = -(lam * p.theta1 / m) * math.gamma(1.0 + 1.0 / s)
        for u in (p.theta1, 0.25, p.rho):
            assert mixture_lorenz(u, p) == pytest.approx(want, rel=1e-12)

    def test_reduction_to_base_lorenz(self):
        kp = KappaGenParams(2.0, 1.0, 0.5)
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 0.0, 1.0, kp)
        u = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(mixture_lorenz(u, p), kgen_lorenz(u, kp), atol=1e-12)

    def test_quadrature_oracle_at_half(self):
        p = FIG_MIXTURE
        m = mixture_mean(p)
        part, _ = quad(lambda t: mixture_quantile(t, p), 0, 0.5,
                       points=[p.theta1, p.rho], limit=400)
        assert mixture_lorenz(0.5, p) == pytest.approx(part / m, abs=1e-8)

    def test_endpoints_and_negativity(self):
        p = FIG_MIXTURE
        assert mixture_lorenz(0.0, p) == 0.0
        assert mixture_lorenz(1.0, p) == 1.0
        u = np.linspace(0.01, p.rho, 30)
        assert np.all(mixture_lorenz(u, p) < 0.0)  # m > 0 case

    def test_continuity_across_branches(self):
        p = FIG_MIXTURE
        eps = 1e-9
        assert mixture_lorenz(p.theta1 - eps, p) == pytest.approx(
            mixture_lorenz(p.theta1, p), abs=1e-6)
        assert mixture_lorenz(p.rho + eps, p) == pytest.approx(
            mixture_lorenz(p.rho, p), abs=1e-6)


class TestMixtureGini:
    def test_reduction(self):
        kp = KappaGenParams(2.0, 1.0, 0.5)
        p = NetWealthMixtureParams(WeibullParams(1.0, 1.0), 0.0, 0.0, 1.0, kp)
        assert mixture_gini(p) == pytest.approx(kgen_gini(kp), rel=1e-12)

    def test_numeric_form_agreement(self):
        p = FIG_MIXTURE
        integral, _ = quad(lambda u: mixture_lorenz(u, p), 0, 1,
                           points=[p.theta1, p.rho], limit=400)
        l_th1 = mixture_lorenz(p.theta1, p)
        want = (1.0 - 2.0 * integral) / (1.0 - p.rho * l_th1)
        assert mixture_gini(p) == pytest.approx(want, abs=1e-7)

    def test_negative_mean_reported_with_warning(self):
        p = NetWealthMixtureParams(WeibullParams(0.7, 30.0), 0.2, 0.1, 0.7,
                                   KappaGenParams(2.0, 10.0, 0.75))
        assert mixture_mean(p) < 0.0
        with pytest.warns(RuntimeWarning):
            g = mixture_gini(p)
        assert not 0.0 <= g <= 1.0  # reported, not clamped, no error

    def test_large_nonpositive_share_can_exceed_one(self):
        p = NetWealthMixtureParams(WeibullParams(0.7, 3.0), 0.45, 0.3, 0.25,
                                   KappaGenParams(2.0, 10.0, 0.75))
        g = mixture_gini(p)
        assert g > 1.0


class TestEkg2Lorenz:
    def test_reduction(self):
        alpha, kappa = 2.0, 0.6
        kp = KappaGenParams(alpha, 1.0, kappa)
        e2 = EKG2Params(a=alpha, b=1.0, p=1.0, q=1.0 / (2.0 * kappa))
        u = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(ekg2_lorenz(u, e2), kgen_lorenz(u, kp), atol=1e-10)

    def test_endpoints(self):
        p = EKG2Params(2.0, 1.0, 0.5, 1.0)
        assert ekg2_lorenz(0.0, p) == 0.0
        assert ekg2_lorenz(1.0, p) == 1.0

    def test_quadrature_oracle(self):
        p = EKG2Params(2.0, 1.0, 0.5, 1.0)
        want = lorenz_by_quadrature(lambda t: ekg2_quantile(t, p), 0.5)
        assert ekg2_lorenz(0.5, p) == pytest.approx(want, abs=1e-7)

    def test_nonexistence(self):
        with pytest.raises(CurveNonexistenceError):
            ekg2_lorenz(0.5, EKG2Params(2.0, 1.0, 0.5, 0.25))  # q = 1/(2a)


class TestQuantileFallback:
    def test_uniform_case(self):
        qf = lambda t: np.asarray(t, dtype=float)
        assert quantile_mean(qf) == pytest.approx(0.5, abs=1e-12)
        # L(u) = u^2 for the uniform quantile
        assert quantile_lorenz(0.3, qf, 0.5) == pytest.approx(0.09, abs=1e-10)
        assert quantile_gini(qf) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_matches_base_closed_forms(self):
        p = KappaGenParams(2.0, 1.3, 0.6)
        qf = lambda t: kgen_quantile(t, p)
        mean = quantile_mean(qf)
        assert mean == pytest.approx(kgen_mean(p), rel=1e-9)
        for u in (0.2, 0.5, 0.8):
            assert quantile_lorenz(u, qf, mean) == pytest.approx(
                kgen_lorenz(u, p), abs=1e-7)
        assert quantile_gini(qf) == pytest.approx(kgen_gini(p), abs=1e-7)

    def test_divergent_mean_detected(self):
        qf = lambda t: (1.0 - np.asarray(t, dtype=float)) ** (-1.2)
        with pytest.raises(MomentDivergenceError):
            quantile_mean(qf)

    def test_zero_mean_rejected(self):
        with pytest.raises(DegenerateNormalizationError):
            quantile_lorenz(0.5, lambda t: np.asarray(t, dtype=float), 0.0)

    @pytest.mark.parametrize("power", [-1.2, -1.0])  # -1: the log-divergent edge
    def test_divergent_gini_detected(self, power):
        qf = lambda t: (1.0 - np.asarray(t, dtype=float)) ** power
        with pytest.raises(MomentDivergenceError):
            quantile_mean(qf)
        with pytest.raises(MomentDivergenceError):
            quantile_gini(qf)

    def test_one_quantile_call_per_integral(self):
        p = KappaGenParams(2.0, 1.3, 0.6)
        calls = []

        def qf(t):
            calls.append(np.size(t))
            return kgen_quantile(t, p)

        mean = quantile_mean(qf)
        quantile_gini(qf)
        quantile_lorenz(np.array([0.0, 0.2, 0.9, 0.95, 1.0 - 1e-12, 1.0]), qf, mean)
        assert len(calls) == 3
        # a zero-width panel is never evaluated: the full integral has 29
        # panels of 64 nodes, the four interior u 14 head panels each plus
        # 0, 0, 1 and 11 tail panels
        assert calls == [29 * 64, 29 * 64, (4 * 14 + 12) * 64]

    def test_long_arrays_go_in_blocks(self):
        p = KappaGenParams(2.0, 1.3, 0.6)
        calls = []
        qf = lambda t: calls.append(np.size(t)) or kgen_quantile(t, p)
        u = np.linspace(0.0, 1.0, _LORENZ_BLOCK + 3)  # one interior point too many
        values = quantile_lorenz(u, qf, 1.0)
        assert len(calls) == 2
        for i in (1, _LORENZ_BLOCK, _LORENZ_BLOCK + 1):
            assert values[i] == quantile_lorenz(u[i], qf, 1.0)


# base model (kappa = 0.6, 0 and below _TINY_KAPPA), the mixture, ekg2, and
# the quantile integral on base-model and ekg1 quantiles
_KGEN = KappaGenParams(2.0, 1.3, 0.6)
_EKG1 = EKG1Params(2.0, 1.0, 1.5, 0.2)
LORENZ_CURVES = {
    "kgen": lambda u: kgen_lorenz(u, _KGEN),
    "kgen-weibull": lambda u: kgen_lorenz(u, KappaGenParams(2.0, 1.3, 0.0)),
    "kgen-tiny-kappa": lambda u: kgen_lorenz(u, KappaGenParams(2.0, 1.3, 1e-12)),
    "mixture": lambda u: mixture_lorenz(u, FIG_MIXTURE),
    "ekg2": lambda u: ekg2_lorenz(u, EKG2Params(2.0, 1.0, 2.0, 1.2)),
    "quantile-kgen": lambda u: quantile_lorenz(
        u, lambda t: kgen_quantile(t, _KGEN), kgen_mean(_KGEN)),
    "quantile-ekg1": lambda u: quantile_lorenz(
        u, lambda t: ekg1_quantile(t, _EKG1),
        quantile_mean(lambda t: ekg1_quantile(t, _EKG1))),
}


@pytest.mark.parametrize("name", sorted(LORENZ_CURVES))
def test_lorenz_scaffold(name):
    """Every Lorenz curve takes arrays entry by entry, is exactly 0 and 1 at
    the ends, returns a float for a scalar and rejects u outside [0, 1]."""
    curve = LORENZ_CURVES[name]
    u = np.array([0.0, 1e-9, 0.05, 0.2, 0.25, 0.5, 0.9, 0.93, 0.999, 1.0 - 1e-12, 1.0])
    values = curve(u)
    assert isinstance(values, np.ndarray) and values.shape == u.shape
    np.testing.assert_array_equal(values, [curve(float(x)) for x in u])
    assert values[0] == 0.0 and values[-1] == 1.0
    assert type(curve(0.0)) is float and type(curve(0.5)) is float
    assert curve(0.0) == 0.0 and curve(1.0) == 1.0
    for bad in (-1e-12, 1.0 + 1e-12, math.nan):
        with pytest.raises(DomainError):
            curve(bad)
    with pytest.raises(DomainError):
        curve(np.array([0.5, 1.5]))


def unique_reduceat_lorenz(values, weights):
    """The empirical Lorenz points by their own stable sort of the records
    of positive weight, np.unique's group starts and np.add.reduceat."""
    weights = np.ones_like(values) if weights is None else weights
    keep = weights > 0.0
    if not keep.any():
        raise DegenerateDataError("all weights are zero")
    order = np.argsort(values[keep], kind="stable")
    v, w = values[keep][order], weights[keep][order]
    _, start = np.unique(v, return_index=True)
    w_grouped, xw_grouped = np.add.reduceat(w, start), np.add.reduceat(v * w, start)
    if xw_grouped.sum() == 0.0:
        raise DegenerateNormalizationError("sample mean is zero")
    u = np.cumsum(w_grouped) / w_grouped.sum()
    ell = np.cumsum(xw_grouped) / xw_grouped.sum()
    u[-1] = ell[-1] = 1.0
    return np.column_stack([np.concatenate([[0.0], u]), np.concatenate([[0.0], ell])])


def _kgen_draws(rounding=None):
    x = kgen_sample(3000, KappaGenParams(2.0, 1.0, 0.5), seed=8)
    return x if rounding is None else np.round(x, rounding)


def _integer_weights(n, low=0):
    return np.random.default_rng(9).integers(low, 5, n).astype(float)


EMPIRICAL_CASES = {
    "tie-free": lambda: (_kgen_draws(), None),
    "tie-free, weighted": lambda: (_kgen_draws(), _integer_weights(3000, low=1)),
    "tie-free, zero weights": lambda: (_kgen_draws(), _integer_weights(3000)),
    "tied": lambda: (_kgen_draws(2), None),
    "one record": lambda: (np.array([2.5]), None),
    "signed zeros and negatives": lambda: (
        np.array([0.0, -0.0, 3.0, -1.0, 0.0, 2.0, -0.0, 3.0]), None),
    "all weights zero": lambda: (np.array([1.0, 2.0]), np.zeros(2)),
    "zero mean": lambda: (np.array([-1.0, 1.0]), None),
}


# Three blocks and five records: the walk's block boundaries fall inside runs
# of tied values when the draws are rounded to 2 decimals.
_BLOCKED_N = 3 * _BLOCK + 5
BLOCKED_CASES = {
    "tied": lambda: (np.round(kgen_sample(_BLOCKED_N, KappaGenParams(2.0, 1.0, 0.5), 8), 2),
                     None),
    "tied, zero weights": lambda: (
        np.round(kgen_sample(_BLOCKED_N, KappaGenParams(2.0, 1.0, 0.5), 8), 2),
        _integer_weights(_BLOCKED_N)),
    "tie-free, weighted": lambda: (kgen_sample(_BLOCKED_N, KappaGenParams(2.0, 1.0, 0.5), 8),
                                   _integer_weights(_BLOCKED_N, low=1)),
}


class TestEmpirical:
    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_blocked_walk_matches_the_single_array_curve(self, case):
        # the walk holds one block of records at a time; on more than one it
        # moves the curve, its decile ordinates and its Gini by rounding only,
        # and a run of equal values that a block boundary cuts is still one point
        values, weights = BLOCKED_CASES[case]()
        s = WeightedSample(values, weights)
        if case.startswith("tied"):
            ascending = s.nonzero.ascending[0]
            assert ascending[_BLOCK - 1] == ascending[_BLOCK]  # a run straddles a boundary
        want = unique_reduceat_lorenz(values, weights)
        curve = empirical_lorenz(s)
        assert curve.points.shape == want.shape
        np.testing.assert_allclose(curve.points, want, rtol=1e-15, atol=0.0)
        summary = empirical_lorenz_summary(s)
        u, ell = want[:, 0], want[:, 1]
        np.testing.assert_allclose(summary.ordinates, np.interp(DECILES, u, ell),
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(summary.ordinates, curve.interpolate(DECILES))
        gini = 1.0 - float(np.sum(np.diff(u) * (ell[1:] + ell[:-1])))
        assert summary.gini == pytest.approx(gini, rel=1e-15, abs=0.0)
        assert empirical_gini(s) == summary.gini

    def test_perfect_equality(self):
        s = WeightedSample(np.full(50, 3.0))
        assert empirical_gini(s) == pytest.approx(0.0, abs=1e-12)
        curve = empirical_lorenz(s)
        np.testing.assert_allclose(curve.interpolate([0.25, 0.5, 0.75]),
                                   [0.25, 0.5, 0.75], atol=1e-12)

    def test_two_unit_hand_value(self):
        s = WeightedSample(np.array([0.0, 1.0]))
        assert empirical_gini(s) == pytest.approx(0.5, abs=1e-12)

    def test_tie_grouping_matches_weight_merging(self):
        a = WeightedSample(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
        b = WeightedSample(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert empirical_gini(a) == pytest.approx(empirical_gini(b), abs=1e-14)
        np.testing.assert_allclose(empirical_lorenz(a).points,
                                   empirical_lorenz(b).points)

    def test_matches_model_gini_in_large_samples(self):
        p = KappaGenParams(2.0, 1.0, 0.5)
        x = kgen_sample(200000, p, seed=21)
        got = empirical_gini(WeightedSample(x))
        assert got == pytest.approx(kgen_gini(p), abs=0.005)

    def test_same_bits_as_a_per_call_sort(self):
        # ties and zero weights: the cached order, filtered to the positive
        # weights, must give the curve of a stable sort of that subset
        rng = np.random.default_rng(8)
        values = np.round(kgen_sample(3000, KappaGenParams(2.0, 1.0, 0.5), seed=8), 1)
        weights = rng.integers(0, 4, values.size) * 0.3
        want = unique_reduceat_lorenz(values, weights)
        got = empirical_lorenz(WeightedSample(values, weights)).points
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(EMPIRICAL_CASES))
    def test_same_bits_and_errors_as_the_unique_reduceat_reference(self, case):
        values, weights = EMPIRICAL_CASES[case]()
        try:
            want = unique_reduceat_lorenz(values, weights)
        except (DegenerateDataError, DegenerateNormalizationError) as exc:
            with pytest.raises(type(exc)):
                empirical_lorenz(WeightedSample(values, weights))
            return
        s = WeightedSample(values, weights)
        assert empirical_lorenz(s).points.tobytes() == want.tobytes()
        u, ell = want[:, 0], want[:, 1]
        assert empirical_gini(s) == 1.0 - float(np.sum(np.diff(u) * (ell[1:] + ell[:-1])))

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            empirical_lorenz(WeightedSample(np.array([1.0, 2.0]), np.array([0.0, 0.0])))
        with pytest.raises(DegenerateNormalizationError):
            empirical_gini(WeightedSample(np.array([-1.0, 1.0])))


class TestLorenzCurveType:
    def test_validation(self):
        with pytest.raises(DomainError):
            LorenzCurve(np.array([[0.0, 0.0], [0.5, 0.2], [0.9, 0.8]]))
        with pytest.raises(DomainError):
            LorenzCurve(np.array([[0.0, 0.1], [1.0, 1.0]]))

    def test_interpolation(self):
        curve = LorenzCurve(np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]))
        assert curve.interpolate(0.25) == pytest.approx(0.1)
