"""Reference implementations of the four families, written from the paper.

Nothing here imports kappagen.  Densities, distribution functions and
quantiles are numpy transcriptions of the published formulas; the
incomplete-beta pieces use scipy.special, indices that the program computes
in closed form are recomputed by scipy.integrate.quad or, where double
precision is not enough (tiny kappa), by mpmath at 50 digits.  Parameters
are plain floats in the paper's order:

* base model:  (alpha, beta, kappa)
* EKG1:        (a, b, q, r), quantile b [2q e^(-rt) sinh(t/(2q))]^(1/a), t = -ln(1-u)
* EKG2:        (a, b, p, q), CDF I_z(p, q), z = y/D, D = (y + sqrt(y^2+4))/2, y = (x/b)^a
* mixture:     (shape, scale, theta1, theta2, theta3, alpha, beta, kappa)
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special

DKW_DELTA = 1e-9  # false-alarm probability of one DKW band check


def _quad(f, edges, epsrel=1e-12):
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate.quad(f, lo, hi, epsabs=0.0, epsrel=epsrel, limit=400)[0]
    return total


# ---------------------------------------------------------------------------
# base model


def kgen_log_survival(x, alpha, beta, kappa):
    """ln exp_k(-y) = -(1/k) ln(sqrt(1 + k^2 y^2) + k y), y = (x/beta)^alpha."""
    y = (np.asarray(x, dtype=float) / beta) ** alpha
    if kappa == 0.0:
        return -y
    ky = kappa * y
    return -np.log1p(ky + ky * ky / (np.hypot(1.0, ky) + 1.0)) / kappa


def kgen_logpdf(x, alpha, beta, kappa):
    x = np.asarray(x, dtype=float)
    y = (x / beta) ** alpha
    return (math.log(alpha / beta) + (alpha - 1.0) * np.log(x / beta)
            + kgen_log_survival(x, alpha, beta, kappa) - 0.5 * np.log1p((kappa * y) ** 2))


def kgen_cdf(x, alpha, beta, kappa):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -np.expm1(kgen_log_survival(x[pos], alpha, beta, kappa))
    return out


def _log_sinh(tau):
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(tau > 20.0, tau - math.log(2.0), np.log(np.sinh(np.minimum(tau, 20.0))))


def kgen_quantile_t(t, alpha, beta, kappa):
    """Quantile at u = 1 - e^(-t): beta * ln_k(e^t)^(1/alpha), ln_k(e^t) = sinh(kt)/k."""
    t = np.asarray(t, dtype=float)
    if kappa == 0.0:
        return beta * t ** (1.0 / alpha)
    return beta * np.exp((_log_sinh(kappa * t) - math.log(kappa)) / alpha)


def kgen_quantile(u, alpha, beta, kappa):
    return kgen_quantile_t(-np.log1p(-np.asarray(u, dtype=float)), alpha, beta, kappa)


def weibull_logpdf(z, shape, scale):
    z = np.asarray(z, dtype=float)
    return math.log(shape / scale) + (shape - 1.0) * np.log(z / scale) - (z / scale) ** shape


def _moment(r, alpha, beta, kappa):
    """E[X^r] in closed form at the working mpmath precision."""
    a, b, k, r = (mpmath.mpf(v) for v in (alpha, beta, kappa, r))
    if k == 0:
        return b ** r * mpmath.gamma(1 + r / a)
    return (b ** r * (2 * k) ** (-r / a) * mpmath.gamma(1 + r / a)
            * mpmath.gamma(1 / (2 * k) - r / (2 * a))
            / ((1 + r * k / a) * mpmath.gamma(1 / (2 * k) + r / (2 * a))))


def kgen_mean_mp(alpha, beta, kappa):
    with mpmath.workdps(50):
        return float(_moment(1, alpha, beta, kappa))


def kgen_gini_mp(alpha, kappa):
    with mpmath.workdps(50):
        a, k = mpmath.mpf(alpha), mpmath.mpf(kappa)
        if k == 0:
            return float(1 - mpmath.mpf(2) ** (-1 / a))
        ratio = (mpmath.gamma(1 / k - 1 / (2 * a)) * mpmath.gamma(1 / (2 * k) + 1 / (2 * a))
                 / (mpmath.gamma(1 / k + 1 / (2 * a)) * mpmath.gamma(1 / (2 * k) - 1 / (2 * a))))
        return float(1 - (2 * a + 2 * k) / (2 * a + k) * ratio)


def kgen_ge_mp(theta, alpha, beta, kappa):
    """GE(theta); the MLD and Theil limits at theta = 0 and 1 come from the
    derivative of the moment function E[X^r] in r."""
    moment = lambda r: _moment(r, alpha, beta, kappa)
    with mpmath.workdps(50):
        m = moment(1)
        if theta == 0.0:
            return float(mpmath.log(m) - mpmath.diff(moment, 0))
        if theta == 1.0:
            return float(mpmath.diff(moment, 1) / m - mpmath.log(m))
        th = mpmath.mpf(theta)
        return float((moment(th) / m ** th - 1) / (th * th - th))


def _positive_edges(quantile):
    qs = [float(quantile(u)) for u in (1e-9, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9)]
    return [0.0] + qs + [math.inf]


def kgen_expect_quad(g, alpha, beta, kappa):
    """E[g(X)] by quadrature of the density."""
    f = lambda x: g(x) * math.exp(float(kgen_logpdf(x, alpha, beta, kappa))) if x > 0 else 0.0
    return _quad(f, _positive_edges(lambda u: kgen_quantile(u, alpha, beta, kappa)))


def kgen_indices_quad(alpha, beta, kappa, thetas):
    """Gini, MLD, Theil and GE(theta) of the base model by quadrature."""
    edges = _positive_edges(lambda u: kgen_quantile(u, alpha, beta, kappa))
    surv = lambda x: math.exp(float(kgen_log_survival(x, alpha, beta, kappa)))
    mean = _quad(surv, edges)
    gini = _quad(lambda x: surv(x) * (1.0 - surv(x)), edges) / mean
    e_log = kgen_expect_quad(math.log, alpha, beta, kappa)
    e_xlog = kgen_expect_quad(lambda x: x * math.log(x), alpha, beta, kappa)
    ge = {}
    for th in thetas:
        moment = kgen_expect_quad(lambda x: x ** th, alpha, beta, kappa)
        ge[th] = (moment / mean ** th - 1.0) / (th * th - th)
    return {"gini": gini, "mld": math.log(mean) - e_log,
            "theil": e_xlog / mean - math.log(mean), "ge": ge}


# Quantile integrals are taken in t = -ln(1-u), where u -> 1 maps to a
# decaying integrand Q(t) e^(-t); beyond t = 700 it is below 1e-100 for
# every tail exponent used here.
_T_EDGES = (0.0, 0.5, 2.0, 8.0, 30.0, 100.0, 700.0)


def mean_from_quantile_t(quantile_t, extra_edges=()):
    edges = sorted(set(_T_EDGES) | set(extra_edges))
    return _quad(lambda t: quantile_t(t) * math.exp(-t), edges)


def gini_from_quantile_t(quantile_t, extra_edges=()):
    """(1/m) int_0^1 (2u - 1) Q(u) du."""
    edges = sorted(set(_T_EDGES) | set(extra_edges))
    mean = mean_from_quantile_t(quantile_t, extra_edges)
    f = lambda t: (1.0 - 2.0 * math.exp(-t)) * quantile_t(t) * math.exp(-t)
    return _quad(f, edges) / mean


def lorenz_from_quantile_t(quantile_t, u_grid, extra_edges=()):
    """L(u) = int_0^u Q / int_0^1 Q on an increasing grid inside (0, 1)."""
    edges = sorted(set(_T_EDGES) | set(extra_edges))
    mean = mean_from_quantile_t(quantile_t, extra_edges)
    f = lambda t: quantile_t(t) * math.exp(-t)
    out = []
    acc = 0.0
    prev = 0.0
    for u in u_grid:
        t_u = -math.log1p(-float(u))
        acc += _quad(f, [prev] + [e for e in edges if prev < e < t_u] + [t_u])
        out.append(acc / mean)
        prev = t_u
    return np.array(out)


# ---------------------------------------------------------------------------
# EKG1: quantile-defined extension


def ekg1_quantile_t(t, a, b, q, r):
    t = np.asarray(t, dtype=float)
    return b * np.exp((math.log(2.0 * q) - r * t + _log_sinh(t / (2.0 * q))) / a)


def ekg1_quantile(u, a, b, q, r):
    return ekg1_quantile_t(-np.log1p(-np.asarray(u, dtype=float)), a, b, q, r)


def ekg1_t_of_x(x, a, b, q, r, iterations=200):
    """Solve Q(1 - e^(-t)) = x for t by bisection in t."""
    x = np.asarray(x, dtype=float)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    for _ in range(2000):
        short = ekg1_quantile_t(hi, a, b, q, r) < x
        if not np.any(short):
            break
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = ekg1_quantile_t(mid, a, b, q, r) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def ekg1_logpdf(x, a, b, q, r):
    """f(x) = du/dx = a e^(-t) / (x (coth(t/2q)/(2q) - r))."""
    x = np.asarray(x, dtype=float)
    t = ekg1_t_of_x(x, a, b, q, r)
    slope = 1.0 / (2.0 * q * np.tanh(t / (2.0 * q))) - r
    return -t + math.log(a) - np.log(x) - np.log(slope)


# ---------------------------------------------------------------------------
# EKG2: incomplete-beta-defined extension


def _ekg2_y_d(x, a, b):
    y = (np.asarray(x, dtype=float) / b) ** a
    d = 0.5 * (y + np.sqrt(y * y + 4.0))
    return y, d


def ekg2_cdf(x, a, b, p, q):
    y, d = _ekg2_y_d(x, a, b)
    return special.betainc(p, q, y / d)


def ekg2_logpdf(x, a, b, p, q):
    x = np.asarray(x, dtype=float)
    y, d = _ekg2_y_d(x, a, b)
    z = y / d
    return (math.log(2.0 * a) - 2.0 * np.log(d) - 0.5 * np.log(y * y + 4.0) + np.log(y)
            - np.log(x) + (p - 1.0) * np.log(z) - 2.0 * (q - 1.0) * np.log(d)
            - special.betaln(p, q))


def ekg2_quantile(u, a, b, p, q):
    """x = b (z / sqrt(1 - z))^(1/a), z = I^-1_u(p, q).  Above the median
    1 - z is inverted directly from I_(1-z)(q, p) = 1 - u, which is exact
    there, so the upper tail keeps its relative precision."""
    u = np.asarray(u, dtype=float)
    upper = u > 0.5
    w = np.where(upper, special.betaincinv(q, p, np.where(upper, 1.0 - u, 0.5)), 0.0)
    z = np.where(upper, 1.0 - w, special.betaincinv(p, q, np.where(upper, 0.5, u)))
    w = np.where(upper, w, 1.0 - z)
    return b * (z / np.sqrt(w)) ** (1.0 / a)


def ekg2_quantile_t(t, a, b, p, q):
    """Quantile at u = 1 - e^(-t); for t >= 1 the complement 1 - z is
    inverted directly from I_(1-z)(q, p) = e^(-t)."""
    if t < 1.0:
        return float(ekg2_quantile(-math.expm1(-t), a, b, p, q))
    w = special.betaincinv(q, p, math.exp(-t))
    return b * ((1.0 - w) / math.sqrt(w)) ** (1.0 / a)


# ---------------------------------------------------------------------------
# net-wealth mixture


def mixture_logpdf_terms(w, shape, scale, th1, th2, th3, alpha, beta, kappa):
    """Log-likelihood terms: Weibull branch below 0, atom at 0, base model above."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    neg, zero, pos = w < 0.0, w == 0.0, w > 0.0
    out[neg] = math.log(th1) + weibull_logpdf(-w[neg], shape, scale) if th1 > 0 else -np.inf
    out[zero] = math.log(th2) if th2 > 0 else -np.inf
    out[pos] = math.log(th3) + kgen_logpdf(w[pos], alpha, beta, kappa)
    return out


def mixture_cdf(w, shape, scale, th1, th2, th3, alpha, beta, kappa):
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    neg = w < 0.0
    out[neg] = th1 * np.exp(-((-w[neg]) / scale) ** shape)
    out[~neg] = th1 + th2 + th3 * kgen_cdf(w[~neg], alpha, beta, kappa)
    return out


def mixture_quantile(u, shape, scale, th1, th2, th3, alpha, beta, kappa):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    rho = th1 + th2
    neg, pos = u < th1, u >= rho
    out[neg] = -scale * np.log(th1 / u[neg]) ** (1.0 / shape)
    out[pos] = kgen_quantile((u[pos] - rho) / th3, alpha, beta, kappa)
    return out


def mixture_quantile_t(t, shape, scale, th1, th2, th3, alpha, beta, kappa):
    """Scalar quantile at u = 1 - e^(-t); the base-model branch sits at
    1 - (u - rho)/theta3 = e^(-(t + ln theta3))."""
    u = -math.expm1(-t)
    if u < th1:
        return -scale * math.log(th1 / u) ** (1.0 / shape) if u > 0.0 else -math.inf
    if u < th1 + th2:
        return 0.0
    return float(kgen_quantile_t(t + math.log(th3), alpha, beta, kappa))


def mixture_mean(shape, scale, th1, th2, th3, alpha, beta, kappa):
    return (-th1 * scale * math.gamma(1.0 + 1.0 / shape)
            + th3 * kgen_mean_mp(alpha, beta, kappa))


# ---------------------------------------------------------------------------
# empirical counterparts and sampling bounds


def weighted_gini(values, weights=None):
    """sum_j s_j (2 P_(j-1) + p_j - 1) over the value-sorted sample, with
    p_j the weight share and s_j the amount share; with unit weights this
    is sum (2i - n - 1) x_(i) / (n sum x)."""
    x = np.asarray(values, dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    p = w / w.sum()
    s = w * x / np.sum(w * x)
    before = np.concatenate([[0.0], np.cumsum(p)[:-1]])
    return float(np.sum(s * (2.0 * before + p - 1.0)))


def dkw_epsilon(n, delta=DKW_DELTA):
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup |F_n - F| > eps) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def ecdf_at(sample, points):
    """Empirical CDF (fraction <= x) of sample at each point."""
    s = np.sort(np.asarray(sample, dtype=float))
    return np.searchsorted(s, np.asarray(points, dtype=float), side="right") / s.size
