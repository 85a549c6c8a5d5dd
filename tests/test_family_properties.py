"""Properties every registered family must have, over random parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappagen import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    MomentDivergenceError,
    NetWealthMixtureParams,
    WeibullParams,
    kgen_moment,
)
from kappagen.fitting import FAMILIES

scale = st.floats(0.2, 5.0)

# A parameter strategy for every model that takes CLI flags.  Each keeps the
# mean finite, so the Lorenz curve exists, and moments up to the tail
# exponent within double range (kappa >= 0.025 or kappa = 0).
STRATEGIES = {
    "kappagen": st.builds(KappaGenParams, st.floats(0.5, 6.0), scale,
                          st.just(0.0) | st.floats(0.025, 0.95)).filter(
        lambda p: p.alpha > 1.2 * p.kappa),
    "weibull": st.builds(WeibullParams, st.floats(0.3, 6.0), scale),
    # upper tail exponent a / (1/(2q) - r) at least 2
    "ekg1": st.builds(lambda a, b, q, frac: EKG1Params(a, b, q, 1.0 / (2.0 * q) - a / (2.0 + frac)),
                      st.floats(0.8, 5.0), scale, st.floats(0.6, 5.0), st.floats(0.0, 20.0)),
    # upper tail exponent 2aq at least 2
    "ekg2": st.builds(lambda a, b, p, frac: EKG2Params(a, b, p, (1.0 + frac) / a),
                      st.floats(0.5, 5.0), scale, st.floats(0.3, 5.0), st.floats(0.0, 4.0)),
    # beta >= 5 keeps the mean positive: theta3 m_pos > 2.2 > theta1 m_neg
    "mixture": st.builds(
        lambda shape, sc, th1, th2, pos: NetWealthMixtureParams(
            WeibullParams(shape, sc), th1, th2, 1.0 - th1 - th2, pos),
        st.floats(0.5, 3.0), st.floats(0.2, 2.0), st.floats(0.0, 0.3), st.floats(0.0, 0.2),
        st.builds(KappaGenParams, st.floats(1.0, 5.0), st.floats(5.0, 20.0),
                  st.floats(0.0, 0.5))),
}

X = np.logspace(-3.0, 3.0, 61)
U = np.linspace(0.0, 1.0, 101)
EPS = np.spacing(1.0)


def test_every_family_has_a_strategy():
    assert set(STRATEGIES) == {m for m, f in FAMILIES.items() if f.flags}


@pytest.mark.parametrize("model", sorted(STRATEGIES))
def test_family_properties(model):
    family = FAMILIES[model]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(params=STRATEGIES[model])
    def check(params):
        x = X if family.positive else np.concatenate([-X[::-1], [0.0], X])
        cdf = np.asarray(family.cdf(x, params), dtype=float)
        ccdf = np.asarray(family.ccdf(x, params), dtype=float)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.max(np.abs(cdf + ccdf - 1.0)) <= 2.0 * EPS  # measured 1 EPS
        if family.quantile is not None:
            inner = (cdf >= 1e-6) & (ccdf >= 1e-6)
            xi = x[inner]
            back = np.asarray(family.quantile(cdf[inner], params), dtype=float)
            # a few ulps of x, plus the move of x when the CDF moves by a few
            # ulps of 1: measured at most 3.5 EPS (x + 1/f(x))
            pdf = np.asarray(family.pdf(xi, params), dtype=float)
            assert np.all(np.abs(back - xi) <= 8.0 * EPS * (xi + 1.0 / pdf))
        lorenz = np.asarray(family.lorenz(U, params), dtype=float)
        assert lorenz[0] == 0.0 and lorenz[-1] == 1.0
        assert np.min(np.diff(lorenz, 2)) >= -1e-15  # measured >= 0
        if model == "kappagen" and params.kappa > 0.0:
            tail = params.alpha / params.kappa
            value = kgen_moment(tail * (1.0 - 1e-12), params)
            assert math.isfinite(value) and value > 0.0
            with pytest.raises(MomentDivergenceError):
                kgen_moment(tail, params)
            try:  # an ulp below alpha/kappa: finite, or divergent after rounding
                assert math.isfinite(kgen_moment(np.nextafter(tail, 0.0), params))
            except MomentDivergenceError:
                pass

    check()
