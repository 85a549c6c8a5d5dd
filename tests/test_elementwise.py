"""Elementwise public functions give each entry one answer.

The blocked passes (the samplers, the quantiles, the kernel and value passes)
take an elementwise function over a sample a block at a time, and rely on it
giving the same bits on an array as on any split of it.  This property makes
that contract a test: an array, its pieces at random cut points and its
entries one by one as Python floats must give the same bytes.

The EKG1 CDF, survival function and log-density are left out: they invert the
closed-form quantile by Newton steps that stop when every entry of the call
has converged, so an entry can take one step more or less with other
entries beside it (CHANGES, FOUND).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappagen import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
    ekg1_quantile,
    ekg2_ccdf,
    ekg2_cdf,
    ekg2_quantile,
    inv_reg_inc_beta,
    kappa_exp,
    kappa_log,
    kgen_ccdf,
    kgen_cdf,
    kgen_logpdf,
    kgen_quantile,
    mixture_ccdf,
    mixture_cdf,
)
from kappagen.deformed import _BLOCK
from kappagen.distributions import ekg2_logpdf

shape = st.floats(0.05, 50.0)
scale = st.floats(0.2, 5.0)
kgen = st.builds(KappaGenParams, st.floats(0.3, 6.0), scale, st.floats(0.0, 0.95))
weibull = st.builds(WeibullParams, st.floats(0.3, 6.0), scale)
ekg1 = st.builds(lambda a, b, q, r: EKG1Params(a, b, q, r / (2.0 * q)),
                 st.floats(0.5, 5.0), scale, st.floats(0.3, 5.0), st.floats(-2.0, 0.99))
ekg2 = st.builds(EKG2Params, st.floats(0.3, 6.0), scale, shape, shape)
mixture = st.builds(
    lambda w, th1, th2, pos: NetWealthMixtureParams(w, th1, th2, 1.0 - th1 - th2, pos),
    weibull, st.floats(0.0, 0.4), st.floats(0.0, 0.3), kgen)

# (function of (array, params), params strategy, domain of the entries)
FUNCTIONS = {
    "kgen_quantile": (kgen_quantile, kgen, "unit"),
    "weibull_quantile": (kgen_quantile, weibull, "unit"),
    "ekg1_quantile": (ekg1_quantile, ekg1, "unit"),
    "ekg2_quantile": (ekg2_quantile, ekg2, "unit"),
    "kgen_cdf": (kgen_cdf, kgen, "real"),
    "kgen_ccdf": (kgen_ccdf, kgen, "real"),
    "ekg2_cdf": (ekg2_cdf, ekg2, "real"),
    "ekg2_ccdf": (ekg2_ccdf, ekg2, "real"),
    "mixture_cdf": (mixture_cdf, mixture, "real"),
    "mixture_ccdf": (mixture_ccdf, mixture, "real"),
    "kgen_logpdf": (kgen_logpdf, kgen, "positive"),
    "ekg2_logpdf": (ekg2_logpdf, ekg2, "positive"),
    "kappa_exp": (kappa_exp, st.floats(-0.99, 0.99), "real"),
    "kappa_log": (kappa_log, st.floats(-0.99, 0.99), "positive"),
    "inv_reg_inc_beta": (lambda u, ab: inv_reg_inc_beta(u, *ab), st.tuples(shape, shape),
                         "closed unit"),
}

EDGES = {
    "unit": [0.0, 5e-324, 1e-300, 2.0 ** -64, np.nextafter(2.0 ** -64, 0.0), 2.0 ** -53,
             0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53],
    "closed unit": [0.0, 5e-324, 1e-310, 2.0 ** -64, np.nextafter(2.0 ** -64, 0.0), 0.5,
                    np.nextafter(0.5, 1.0), 1.0],
    "real": [0.0, -0.0, 5e-324, -1.0, -1e300, 1e-300, 1e300, np.inf],
    "positive": [5e-324, 1e-300, 1.0, 1e300, np.inf],
}


@st.composite
def entries(draw, domain):
    """Uniform and log-uniform entries of the domain with its edge values,
    one or more blocks long, shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([40, 700, _BLOCK + 300]))
    logs = np.exp(rng.uniform(-60.0 * math.log(2.0), 0.0, n))
    if domain in ("unit", "closed unit"):
        x = np.concatenate([rng.random(n), logs, 1.0 - logs])
        if domain == "unit":
            x = np.minimum(x, 1.0 - 2.0 ** -53)
    elif domain == "positive":
        x = np.concatenate([np.exp(rng.uniform(-30.0, 30.0, n)), logs])
    else:
        x = np.concatenate([rng.normal(0.0, 3.0, n), np.exp(rng.uniform(-30.0, 30.0, n)),
                            -logs])
    x = np.concatenate([x, EDGES[domain]])
    rng.shuffle(x)
    cuts = np.sort(rng.choice(np.arange(1, x.size), draw(st.integers(1, 6)), replace=False))
    return x, cuts


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_one_answer_per_entry(name):
    f, params, domain = FUNCTIONS[name]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(p=params, inputs=entries(domain))
    def check(p, inputs):
        x, cuts = inputs
        with np.errstate(over="ignore", under="ignore"):
            whole = np.asarray(f(x, p), dtype=float)
            pieces = [np.asarray(f(part, p), dtype=float) for part in np.split(x, cuts)]
            picks = np.random.default_rng(cuts[0]).choice(x.size, 60, replace=False)
            one_by_one = np.array([f(float(x[i]), p) for i in picks])
            even = 2 * (x.size // 2)
            rows = np.asarray(f(x[:even].reshape(2, -1), p), dtype=float)
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        assert one_by_one.tobytes() == whole[picks].tobytes()
        assert rows.tobytes() == whole[:even].tobytes()

    check()
