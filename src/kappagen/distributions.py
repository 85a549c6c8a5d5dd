"""Parametric distribution families built on the deformed exponential.

Four families:

* the three-parameter base model (alpha, beta, kappa) with Weibull-like
  bulk and Pareto upper tail of exponent alpha/kappa;
* a net-wealth mixture of a Weibull branch for negative values, a point
  mass at zero, and the base model for positive values;
* two four-parameter extensions, one defined through its quantile
  function (ekg1_*) and one through an incomplete-beta CDF (ekg2_*).

Parameter objects are frozen dataclasses validated on construction;
evaluation functions accept scalars or numpy arrays and are pure.
Sampling takes an explicit seed and owns its generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed import _asarray, _restore, _scaled, kappa_exp, log_kappa_exp
from .errors import DomainError, MomentDivergenceError
from .special import digamma, inv_reg_inc_beta, log_gamma, reg_inc_beta


# ---------------------------------------------------------------------------
# parameter sets


@dataclass(frozen=True)
class KappaGenParams:
    """Shape alpha > 0, scale beta > 0 (income units), tail deformation
    kappa in [0, 1)."""

    alpha: float
    beta: float
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not (math.isfinite(self.kappa) and 0.0 <= self.kappa < 1.0):
            raise DomainError(f"kappa must lie in [0, 1), got {self.kappa}")

    @property
    def tail_exponent(self):
        """Pareto exponent alpha/kappa of the upper tail (inf when kappa=0)."""
        return math.inf if self.kappa == 0.0 else self.alpha / self.kappa


@dataclass(frozen=True)
class WeibullParams:
    """Weibull shape and scale, both strictly positive."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"shape must be positive, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be positive, got {self.scale}")


def _weibull_as_kgen(w: WeibullParams):
    """The Weibull law is the base model at kappa = 0."""
    return KappaGenParams(w.shape, w.scale, 0.0)


@dataclass(frozen=True)
class EKG1Params:
    """Quantile-defined four-parameter extension: a, b, q > 0 and r < 1/(2q)."""

    a: float
    b: float
    q: float
    r: float

    def __post_init__(self):
        for name in ("a", "b", "q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive, got {v}")
        if not (math.isfinite(self.r) and self.r < 1.0 / (2.0 * self.q)):
            raise DomainError(f"r must be below 1/(2q) = {1.0 / (2.0 * self.q)}, got {self.r}")


@dataclass(frozen=True)
class EKG2Params:
    """Incomplete-beta-defined four-parameter extension; all parameters
    positive, b is the scale."""

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("a", "b", "p", "q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class NetWealthMixtureParams:
    """Convex mixture: Weibull branch on negatives, atom at zero, base
    model on positives, with proportions (theta1, theta2, theta3)."""

    negative_branch: WeibullParams
    theta1: float
    theta2: float
    theta3: float
    positive_branch: KappaGenParams

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v}")
        total = self.theta1 + self.theta2 + self.theta3
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture proportions must sum to 1, got {total}")

    @property
    def rho(self):
        """Total mass at or below zero, theta1 + theta2."""
        return self.theta1 + self.theta2


# ---------------------------------------------------------------------------
# base family


def _kgen_log_terms(arr, p: KappaGenParams):
    """(log-density, ln(x/beta), y = (x/beta)^alpha, asinh(kappa y),
    s = sqrt(1 + (kappa y)^2)) at a one-dimensional array of x > 0.

    The one formula for the base model's log-density: kgen_logpdf, the
    score and the Hessian share it, so the objective a fit differentiates is
    the one it reports.  asinh(kappa y)/kappa is accurate for every
    kappa > 0, so only kappa = 0 takes the Weibull form (asinh_ky and s are
    then None).  s is formed once, without hypot: where (kappa y)^2
    overflows, s is kappa y itself, which it equals to the last bit there.
    """
    a, b, k = p.alpha, p.beta, p.kappa
    rel = arr / b
    with np.errstate(over="ignore", divide="ignore"):
        y = rel ** a
        ln_rel = np.log(rel, out=rel)
        base = (a - 1.0) * ln_rel
        base += math.log(a / b)
        if k == 0.0:
            return np.subtract(base, y, out=base), ln_rel, y, None, None
        u = k * y
        asinh_ky = np.arcsinh(u)
        s = np.square(u, out=u)
        s += 1.0
        s = np.sqrt(s, out=s)
        if s.max(initial=0.0) == np.inf:
            big = s == np.inf
            s[big] = k * y[big]
        base -= asinh_ky / k
        base -= np.log(s)
    return base, ln_rel, y, asinh_ky, s


def kgen_logpdf(x, p: KappaGenParams):
    """Log-density of the base model; requires x > 0, and is -inf at x = inf."""
    arr, scalar = _asarray(x)
    if np.any(~(arr > 0.0)):
        raise DomainError("kgen_logpdf requires x > 0")
    with np.errstate(invalid="ignore"):  # inf - inf at x = inf
        out = _kgen_log_terms(arr.reshape(-1), p)[0].reshape(arr.shape)
    if arr.max(initial=0.0) == np.inf:
        out = np.where(arr == np.inf, -np.inf, out)
    return _restore(out, scalar)


# (asinh(u) - u/sqrt(1 + u^2)) / u^3 = 1/3 - 3u^2/10 + 15u^4/56 - 35u^6/144 + O(u^8):
# the kappa derivatives' leading terms cancel to this for u = kappa y below 1e-2.
_SERIES_KY = 1e-2


def _asinh_rest(u):
    """S(u) = (asinh(u) - u/sqrt(1 + u^2)) / u^3 by its series, for u < _SERIES_KY."""
    u2 = np.square(u)
    return 1.0 / 3.0 - u2 * (3.0 / 10.0 - u2 * (15.0 / 56.0 - u2 * (35.0 / 144.0)))


def _kgen_loglik_score(values, weights, p: KappaGenParams, hessian=False):
    """Weighted log-likelihood sum(w ln f(x)) of the base model and its
    gradient in (ln alpha, ln beta, kappa), plus the 3x3 Hessian in the
    same coordinates when asked; requires x > 0.

    With y = (x/beta)^alpha, L = ln(x/beta), u = kappa y, s = sqrt(1 + u^2),
    q = y/s and t = kappa q, the per-record scores are 1 + alpha L (1 - h)
    and -alpha (1 - h) with h = q + t^2, and
    asinh(u)/kappa^2 - y/(kappa s) - kappa y^2/s^2 = kappa y^3 S(u) - t q for
    kappa, S(u) = (asinh(u) - u/s)/u^3.  S cancels as u -> 0, so below
    _SERIES_KY it is taken from its series, on that subset only.  At
    kappa = 0 the kappa score is 0 (the log-density is even in kappa).

    The second derivatives per record, with g = y dh/dy = (q + 2t^2)/s^2
    and h_k = dh/dkappa = kappa q^2 (2 - q - 2t^2), are
    alpha L (1 - h) - (alpha L)^2 g, -alpha (1 - h) + alpha^2 L g and
    -alpha^2 g in the (ln alpha, ln beta) block, -alpha L h_k and alpha h_k
    across to kappa, and q^3 - q^2 + 2 t^2 q^2 - 2 y^3 S(u) for kappa twice.
    q overwrites s in the score pass and y in the Hessian pass, which keeps
    s, and arrays are freed as soon as their sums are taken, so the Hessian
    pass holds no more record-length arrays at once than the score pass.
    """
    out, ln_rel, y, asinh_ky, s = _kgen_log_terms(values, p)
    ll = float(np.sum(weights * out))
    a, k = p.alpha, p.kappa
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 0.0:
            q = y
        else:
            small = np.flatnonzero(k * y < _SERIES_KY)
            ys = y[small]
            q = np.divide(y, s, out=y if hessian else s)
            t = k * q
        one_minus_h = np.subtract(1.0, q, out=out)
        if k != 0.0:
            one_minus_h -= t * t
        w_dh = np.multiply(weights, one_minus_h, out=one_minus_h)
        w_dh_ln, w_dh_sum = float(np.dot(w_dh, ln_rel)), float(np.sum(w_dh))
        del out, one_minus_h, w_dh
        grad = np.array([float(np.sum(weights)) + a * w_dh_ln, -a * w_dh_sum, 0.0])
        if k != 0.0:
            score_k = np.subtract(asinh_ky, t, out=asinh_ky)  # kappa y^3 S(u)
            score_k /= k * k
            if hessian:
                y3s = score_k / k
            if small.size:
                ys3, rest = ys ** 3, _asinh_rest(k * ys)
                score_k[small] = k * ys3 * rest
                if hessian:
                    y3s[small] = ys3 * rest
            score_k -= np.multiply(t, q, out=None if hessian else t)
            grad[2] = float(np.dot(weights, score_k))
            del score_k
    if not hessian:
        return ll, grad
    hess = np.zeros((3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 0.0:
            w_g = weights * q
            hess[2, 2] = float(np.dot(weights, y ** 3 / 3.0 - np.square(y)))
        else:
            t2 = np.square(t, out=t)
            m = 2.0 * t2  # q + 2 t^2
            m += q
            del t, t2
            w_g = weights * m
            w_g /= s
            w_g /= s
            del s
        w_g_ln = w_g * ln_rel
        hess[0, 0] = a * w_dh_ln - a * a * float(np.dot(w_g_ln, ln_rel))
        hess[0, 1] = -a * w_dh_sum + a * a * float(np.sum(w_g_ln))
        hess[1, 1] = -a * a * float(np.sum(w_g))
        del w_g_ln
        if k != 0.0:
            q2 = np.square(q, out=q)
            w_hk = np.subtract(2.0, m, out=w_g)
            w_hk *= q2
            w_hk *= weights
            hess[0, 2] = -a * k * float(np.dot(w_hk, ln_rel))
            hess[1, 2] = a * k * float(np.sum(w_hk))
            del w_hk, w_g
            m -= 1.0  # q^2 (q + 2 t^2 - 1) - 2 y^3 S(u)
            m *= q2
            y3s *= 2.0
            m -= y3s
            hess[2, 2] = float(np.dot(weights, m))
    hess += np.triu(hess, 1).T
    return ll, grad, hess


def _kgen_loglik_hessian(values, weights, p: KappaGenParams):
    """(sum(w ln f), its gradient, its Hessian) in (ln alpha, ln beta, kappa)
    from one pass over the records; see _kgen_loglik_score."""
    return _kgen_loglik_score(values, weights, p, hessian=True)


def kgen_pdf(x, p: KappaGenParams):
    """Density of the base model; requires x > 0, integrates to 1."""
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(np.asarray(kgen_logpdf(x, p), dtype=float))
    _, scalar = _asarray(x)
    return _restore(out, scalar)


def kgen_cdf(x, p: KappaGenParams):
    """Distribution function 1 - exp_k(-(x/beta)^alpha); 0 below the support."""
    arr, scalar = _asarray(x)
    pos = arr > 0.0
    out = np.zeros_like(arr)
    if np.any(pos):
        with np.errstate(over="ignore"):
            y = (arr[pos] / p.beta) ** p.alpha
        out[pos] = -np.expm1(np.asarray(log_kappa_exp(-y, p.kappa), dtype=float))
    return _restore(out, scalar)


def kgen_ccdf(x, p: KappaGenParams):
    """Survival function exp_k(-(x/beta)^alpha)."""
    arr, scalar = _asarray(x)
    pos = arr > 0.0
    out = np.ones_like(arr)
    if np.any(pos):
        with np.errstate(over="ignore"):
            y = (arr[pos] / p.beta) ** p.alpha
        out[pos] = kappa_exp(-y, p.kappa)
    return _restore(out, scalar)


def kgen_quantile(u, p: KappaGenParams):
    """Closed-form quantile beta * [ln_k(1/(1-u))]^(1/alpha) for u in [0, 1);
    ln_k(e^t) = sinh(kappa t)/kappa, which is t at kappa = 0."""
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr < 1.0))):
        raise DomainError("kgen_quantile requires 0 <= u < 1")
    core = _scaled(np.sinh, -np.log1p(-arr), p.kappa)
    out = p.beta * core ** (1.0 / p.alpha)
    return _restore(out, scalar)


_LOG_MAX = math.log(np.finfo(float).max)


def _check_moment_order(r, p: KappaGenParams):
    if not -p.alpha < r:
        raise MomentDivergenceError(
            f"moment of order {r} diverges: requires r > -alpha = {-p.alpha}")
    # and as the gamma argument 1/(2 kappa) - r/(2 alpha) sees it, to the ulp
    if p.kappa > 0.0 and not (r < p.alpha / p.kappa and 0.5 / p.kappa > 0.5 * (r / p.alpha)):
        raise MomentDivergenceError(
            f"moment of order {r} diverges: requires r < alpha/kappa = {p.alpha / p.kappa}")


# Stirling's series: Binet's remainder ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2
# is w sum_j B_2j w^(2j - 2) / (2j (2j - 1)) at w = 1/z, within 3e-17 for z >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _binet(w):
    return w * sum(coef * w ** (2 * j) for j, coef in enumerate(_STIRLING))


def _log_gamma_ratio(kappa, m):
    """ln[(2 kappa)^(-m) Gamma(c - m/2) / ((1 + m kappa) Gamma(c + m/2))],
    c = 1/(2 kappa): the kappa factor of the base model's moments and Gini.

    Exactly 0 at kappa = 0 (the Weibull limit) and O(kappa^2) near it.  For
    c - |m|/2 >= 10 the two Stirling expansions are subtracted term by term
    with m ln(2 kappa) folded in (Tricomi & Erdelyi 1951): with t = m kappa
    the elementary parts leave -(m + 1) ln(1 - t^2)/2 - (atanh(t) - t)/kappa,
    and 1/(c -+ m/2) = 2 kappa / (1 -+ t).  Nothing of the size of
    ln Gamma(c) cancels; the absolute error stays near 1e-16 |m|.
    """
    if kappa == 0.0:
        return 0.0
    t = m * kappa
    if (1.0 - abs(t)) / (2.0 * kappa) < 10.0:  # c - |m|/2 small: nothing large cancels
        c, h = 0.5 / kappa, 0.5 * m  # (1 + m kappa) Gamma(c + h) = 2 kappa Gamma(c + h + 1)
        return log_gamma(c - h) - log_gamma(c + h + 1.0) - (m + 1.0) * math.log(2.0 * kappa)
    return (-0.5 * (m + 1.0) * math.log1p(-t * t) - (math.atanh(t) - t) / kappa
            + _binet(2.0 * kappa / (1.0 - t)) - _binet(2.0 * kappa / (1.0 + t)))


def _log_gamma_ratio_grad(kappa, m):
    """(dL/dkappa, dL/dm) of L = _log_gamma_ratio(kappa, m), for m >= 0.

    Differentiates the same two forms.  In the Stirling form, with
    t = m kappa and w_-+ = 2 kappa / (1 -+ t), Binet's remainder B(w) gives
    dL/dm = [w_-^2 B'(w_-) + w_+^2 B'(w_+)]/2 plus elementary terms and
    dL/dkappa = [G(w_-) - G(w_+)] / (2 kappa^2) with G(w) = w^2 B'(w); the
    difference is summed as (w_- - w_+) / (2 kappa^2) = 2m / (1 - t^2) times
    divided differences of the powers, and (atanh(t) - t)/t^2 comes from its
    series below t = 0.3, so both derivatives keep their relative precision
    down to kappa -> 0, and nothing divides by kappa^2 once it underflows.
    """
    if kappa == 0.0:
        return 0.0, 0.0
    t = m * kappa
    if (1.0 - abs(t)) / (2.0 * kappa) < 10.0:
        c, h = 0.5 / kappa, 0.5 * m
        psi_lo, psi_hi = digamma(c - h), digamma(c + h + 1.0)
        return (-2.0 * c * c * (psi_lo - psi_hi) - (m + 1.0) / kappa,
                -0.5 * (psi_lo + psi_hi) - math.log(2.0 * kappa))
    one_m_t2 = 1.0 - t * t
    if t < 0.3:  # (atanh(t) - t)/t^2 = sum_j t^(2j - 1)/(2j + 1)
        atanh_rest = sum(t ** (2 * j - 1) / (2 * j + 1) for j in range(1, 18))
    else:
        atanh_rest = (math.atanh(t) - t) / (t * t)
    lo, hi = 2.0 * kappa / (1.0 - t), 2.0 * kappa / (1.0 + t)
    # G(w) = sum_j (2j + 1) coef_j w^(2j + 2); [G(lo) - G(hi)] / (2 kappa^2)
    # through lo^n - hi^n = (lo - hi) sum_i lo^i hi^(n - 1 - i)
    g_diff = 2.0 * m / one_m_t2 * sum(
        (2 * j + 1) * coef * sum(lo ** i * hi ** (2 * j + 1 - i) for i in range(2 * j + 2))
        for j, coef in enumerate(_STIRLING))
    w2_b_prime = lambda w: sum((2 * j + 1) * coef * w ** (2 * j + 2)
                               for j, coef in enumerate(_STIRLING))
    d_kappa = ((m + 1.0) * m * t / one_m_t2 + m * m * (atanh_rest - t / one_m_t2)
               + g_diff)
    d_m = (-0.5 * math.log1p(-t * t) + (m + 1.0) * kappa * t / one_m_t2 - t * t / one_m_t2
           + 0.5 * (w2_b_prime(lo) + w2_b_prime(hi)))
    return d_kappa, d_m


def kgen_moment(r, p: KappaGenParams):
    """Raw moment E[X^r]; exists only for -alpha < r < alpha/kappa."""
    r = float(r)
    _check_moment_order(r, p)
    if r == 0.0:
        return 1.0
    a, b, k = p.alpha, p.beta, p.kappa
    log_rest = log_gamma(1.0 + r / a) + _log_gamma_ratio(k, r / a)
    log_moment = r * math.log(b) + log_rest
    if log_moment > _LOG_MAX:  # finite, but beyond the double range
        return math.inf
    try:
        return b ** r * math.exp(log_rest)
    except OverflowError:  # one factor alone leaves the double range
        return math.exp(log_moment)


def kgen_mean(p: KappaGenParams):
    """Mean of the base model; requires alpha/kappa > 1."""
    return kgen_moment(1.0, p)


def kgen_variance(p: KappaGenParams):
    """Variance of the base model; requires alpha/kappa > 2."""
    m1 = kgen_moment(1.0, p)
    m2 = kgen_moment(2.0, p)
    return m2 - m1 * m1


def kgen_mode(p: KappaGenParams):
    """Interior mode for alpha > 1, None otherwise (pole at the origin):
    beta [2c^2 / (e (1 + sqrt(1 + d)))]^(1/(2 alpha)) with c = alpha - 1,
    e = alpha^2 + 2 kappa^2 c and d below; no cancellation, no 1/kappa^2."""
    a, b, k = p.alpha, p.beta, p.kappa
    if a <= 1.0:
        return None
    c = a - 1.0
    e = a * a + 2.0 * k * k * c
    d = 4.0 * k * k * (a * a - k * k) * c * c / (e * e)
    return b * (2.0 * c * c / (e * (1.0 + math.sqrt(1.0 + d)))) ** (0.5 / a)


def _uniforms(n, seed):
    """n >= 1 seeded uniforms on [0, 1), the draws of every inversion sampler."""
    n = int(n)
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    return np.random.default_rng(seed).random(n)


def kgen_sample(n, p: KappaGenParams, seed):
    """Inversion sampling: quantile applied to n uniforms, seed-deterministic."""
    return kgen_quantile(_uniforms(n, seed), p)


def kgen_from_normalized(alpha, kappa):
    """Parameters with unit mean for the given shape pair (alpha, kappa);
    the scale is the reciprocal of the mean at beta = 1, so alpha/kappa
    must exceed 1."""
    return KappaGenParams(alpha, 1.0 / kgen_mean(KappaGenParams(alpha, 1.0, kappa)), kappa)


def _unit_mean_log_scale_grad(alpha, kappa):
    """(d ln beta / d ln alpha, d ln beta / d kappa) of kgen_from_normalized's
    scale: ln beta = -ln Gamma(1 + m) - L(kappa, m) with m = 1/alpha and L
    the _log_gamma_ratio."""
    m = 1.0 / alpha
    d_kappa, d_m = _log_gamma_ratio_grad(kappa, m)
    return m * (float(digamma(1.0 + m)) + d_m), -d_kappa


# ---------------------------------------------------------------------------
# quantile-defined extension (ekg1)


_EKG1_MAX_STEPS = 60
_EKG1_STEP_TOL = 2.0 ** -40


def _ekg1_slope(p: EKG1Params):
    """1/(2q) - r, correctly rounded (int / int is).  The double difference
    keeps only ~log10((1/(2q) - r) / (r eps)) digits, 4 of them at
    r = (1 - 1e-12)/(2q)."""
    qn, qd = float(p.q).as_integer_ratio()
    rn, rd = float(p.r).as_integer_ratio()
    return (qd * rd - 2 * qn * rn) / (2 * qn * rd)


def _ekg1_log_bracket(t, p: EKG1Params):
    """Log of the quantile bracket 2q e^(-rt) sinh(t/(2q)) at t = -ln(1-u),
    as ln q + t (1/(2q) - r) + ln(1 - e^(-t/q)): no -rt + t/(2q)
    cancellation, and -expm1 keeps the last term exact at small t/q."""
    with np.errstate(divide="ignore"):
        return math.log(p.q) + t * _ekg1_slope(p) + np.log(-np.expm1(-t / p.q))


def ekg1_quantile(u, p: EKG1Params):
    """Closed-form quantile of the quantile-defined extension, u in [0, 1)."""
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr < 1.0))):
        raise DomainError("ekg1_quantile requires 0 <= u < 1")
    t = -np.log1p(-arr)
    out = np.zeros_like(arr)
    pos = t > 0.0
    if np.any(pos):
        with np.errstate(over="ignore"):
            out[pos] = p.b * np.exp(_ekg1_log_bracket(t[pos], p) / p.a)
    return _restore(out, scalar)


def _ekg1_t_from_x(x, p: EKG1Params):
    """Invert the quantile at x > 0 for t = -ln(1-u), by safeguarded Newton
    steps in s = ln t on G(s) = L(e^s) - a ln(x/b), L the log-bracket.

    With c = 1/(2q) - r > 0 and e = 1 - e^(-t/q), L = ln q + c t + ln e and
    dL/ds = c t + (t/q)(1 - e)/e > 0, so the root is unique.  Since
    ln e < 0, L < ln q + c t: the line's root (target - ln q)/c starts the
    iteration above target = ln q + 1, and s = target (L ~ ln t for small
    t) starts it below.  The bracket is [-700, ln max(2q, (target - ln q +
    0.15)/c)]: ln e >= ln(1 - e^-2) > -0.15 for t >= 2q, so L reaches the
    target at its upper end.  Each evaluation shrinks the bracket; a Newton
    step that leaves it is replaced by bisection, and one that lands on an
    end is kept (rejecting it would jump a converged entry to the middle).
    Steps stop once every entry's last Newton step is below 2^-40 of
    max(1, |s|), whose quadratic successor is below the rounding of s: six
    evaluations at the benchmark's parameters.  Below a target of -700 (x
    below about b e^(-700/a)) the lower end follows the target: there
    L(t) = ln t - r t + (t/q)^2/24 + ... is ln t to the last bit, so the
    root is s = target itself, and t = e^target underflows only where the
    CDF does (the steps, whose t would go subnormal, run on -700 instead).
    """
    top = x == np.inf  # t = inf there; invert a finite stand-in
    target = p.a * np.log(np.where(top, p.b, x) / p.b)
    deep = target < -700.0
    if deep.any():
        deep_target, target = target, np.maximum(target, -700.0)
    c = _ekg1_slope(p)
    ln_q = math.log(p.q)
    lo = np.full_like(target, -700.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.log(np.maximum((target - ln_q + 0.15) / c, 2.0 * p.q))
        s = np.where(target > ln_q + 1.0, np.log((target - ln_q) / c), target)
    s = np.clip(s, lo, hi)
    shift = ln_q - target
    for _ in range(_EKG1_MAX_STEPS):
        t = np.exp(s)
        tq = t / p.q
        e = -np.expm1(-tq)
        ct = c * t
        with np.errstate(divide="ignore", invalid="ignore"):  # t/q = 0: bisect
            g = ct + np.log(e) + shift
            newton = g / (ct + tq * (1.0 - e) / e)
        below = g < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        s_next = s - newton
        s = np.where((s_next >= lo) & (s_next <= hi), s_next, 0.5 * (lo + hi))
        if np.all(np.abs(newton) <= _EKG1_STEP_TOL * np.maximum(np.abs(s), 1.0)):
            break
    if deep.any():
        s = np.where(deep, deep_target, s)
    return np.where(top, np.inf, np.exp(s))


def ekg1_cdf(x, p: EKG1Params):
    """Distribution function by numeric inversion of the closed quantile."""
    arr, scalar = _asarray(x)
    if np.any(arr < 0.0):
        arr = np.maximum(arr, 0.0)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        t = _ekg1_t_from_x(arr[pos], p)
        out[pos] = -np.expm1(-t)
    return _restore(out, scalar)


def ekg1_ccdf(x, p: EKG1Params):
    """Survival function exp(-t), t = -ln(1-u) from the inverted quantile."""
    arr, scalar = _asarray(x)
    out = np.ones_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        out[pos] = np.exp(-_ekg1_t_from_x(arr[pos], p))
    return _restore(out, scalar)


def _ekg1_log_density_at_t(t, lg, p: EKG1Params):
    """Log density expressed through t = -ln(1-u) > 0 and its log-bracket lg."""
    a, b, q, r = p.a, p.b, p.q, p.r
    tau = t / (2.0 * q)
    # cosh(tau) - 2qr sinh(tau) = e^tau [(1-2qr)/2 + (1+2qr) e^(-2tau)/2] > 0,
    # with (1-2qr)/2 = q (1/(2q) - r)
    log_denom = tau + np.log(q * _ekg1_slope(p)
                             + (1.0 + 2.0 * q * r) * np.exp(-2.0 * tau) / 2.0)
    return math.log(a / b) + (1.0 - 1.0 / a) * lg - (1.0 - r) * t - log_denom


def ekg1_density_at_u(u, p: EKG1Params):
    """Density expressed in terms of the cumulative probability u in (0, 1)."""
    arr, scalar = _asarray(u)
    if np.any(~((arr > 0.0) & (arr < 1.0))):
        raise DomainError("ekg1_density_at_u requires 0 < u < 1")
    t = -np.log1p(-arr)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(_ekg1_log_density_at_t(t, _ekg1_log_bracket(t, p), p))
    return _restore(out, scalar)


def _ekg1_log_density_at_x(arr, p: EKG1Params, name):
    """Log density at x > 0 through the numeric inverse; -inf at x = inf.
    The log-bracket is the inversion's target a ln(x/b) itself, which stays
    exact where t = (x/b)^a is subnormal or underflows to 0."""
    if np.any(~(arr > 0.0)):
        raise DomainError(f"{name} requires x > 0")
    t = _ekg1_t_from_x(arr, p)
    with np.errstate(invalid="ignore"):  # inf - inf at t = inf
        log_density = _ekg1_log_density_at_t(t, p.a * np.log(arr / p.b), p)
        return np.where(t == np.inf, -np.inf, log_density)


def ekg1_pdf(x, p: EKG1Params):
    """Density at x > 0, evaluated through the numeric inverse of the quantile."""
    arr, scalar = _asarray(x)
    log_density = _ekg1_log_density_at_x(arr, p, "ekg1_pdf")
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(log_density)
    return _restore(out, scalar)


def ekg1_logpdf(x, p: EKG1Params):
    """Log-density at x > 0 (numeric inversion, used by the fitting engine)."""
    arr, scalar = _asarray(x)
    return _restore(_ekg1_log_density_at_x(arr, p, "ekg1_logpdf"), scalar)


def ekg1_sample(n, p: EKG1Params, seed):
    """Inversion sampling from the closed-form quantile."""
    return ekg1_quantile(_uniforms(n, seed), p)


# ---------------------------------------------------------------------------
# incomplete-beta-defined extension (ekg2)


def _ekg2_transform(x, p: EKG2Params):
    """Map x >= 0 to (z, ln z, ln(1-z)) with z = y/D, 1-z = 1/D^2,
    D = (y + sqrt(y^2 + 4))/2 and y = (x/b)^a; z lies in [0, 1].  ln D is
    asinh(y/2), which keeps its precision at small y and does not overflow;
    where y overflows, z = 1 and ln z = 0, their limits."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = (x / p.b) ** p.a
        ln_d = np.arcsinh(0.5 * y)
        log1mz = -2.0 * ln_d
        z = -np.expm1(log1mz)
        lnz = np.log(y) - ln_d
    if y.max(initial=0.0) == np.inf:
        lnz = np.where(y == np.inf, 0.0, lnz)
    return z, lnz, log1mz


def _ekg2_tail(x, p: EKG2Params):
    """(v, lower): v is the CDF I_z(p, q) where lower (z <= 1/2), else the
    survival function I_(1-z)(q, p), each side one minus the other: betainc
    loses digits at arguments near 1, so it only sees z or 1 - z up to 1/2."""
    z, _, log1mz = _ekg2_transform(np.maximum(np.asarray(x, dtype=float), 0.0), p)
    z = np.asarray(z)
    lower = z <= 0.5
    out = np.empty_like(z)
    out[lower] = reg_inc_beta(z[lower], p.p, p.q)
    out[~lower] = reg_inc_beta(np.exp(log1mz[~lower]), p.q, p.p)
    return out, lower


def ekg2_cdf(x, p: EKG2Params):
    """Distribution function I_z(p, q) through the algebraic z-transform."""
    v, lower = _ekg2_tail(x, p)
    return _restore(np.where(lower, v, 1.0 - v), np.ndim(x) == 0)


def ekg2_ccdf(x, p: EKG2Params):
    """Survival function I_(1-z)(q, p) through the same transform."""
    v, lower = _ekg2_tail(x, p)
    return _restore(np.where(lower, 1.0 - v, v), np.ndim(x) == 0)


def ekg2_quantile(u, p: EKG2Params):
    """Closed-form quantile b z^(1/a) (1-z)^(-1/(2a)) with z the inverse
    regularized incomplete beta of u.

    Above the median, w = 1 - z is inverted directly from
    I_w(q, p) = 1 - u, so the upper tail keeps its relative precision
    where z itself would round to 1.
    """
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr < 1.0))):
        raise DomainError("ekg2_quantile requires 0 <= u < 1")
    lnz = np.full_like(arr, -np.inf)
    log1mz = np.zeros_like(arr)
    upper = arr > 0.5
    lower = (arr > 0.0) & ~upper
    with np.errstate(divide="ignore"):
        if np.any(lower):
            z = inv_reg_inc_beta(arr[lower], p.p, p.q)
            lnz[lower] = np.log(z)
            log1mz[lower] = np.log1p(-z)
        if np.any(upper):
            w = inv_reg_inc_beta(1.0 - arr[upper], p.q, p.p)
            lnz[upper] = np.log1p(-w)
            log1mz[upper] = np.log(w)
    with np.errstate(over="ignore"):
        out = p.b * np.exp(lnz / p.a - log1mz / (2.0 * p.a))
    return _restore(out, scalar)


def ekg2_logpdf(x, p: EKG2Params):
    """Log-density at x > 0."""
    arr, scalar = _asarray(x)
    if np.any(~(arr > 0.0)):
        raise DomainError("ekg2_logpdf requires x > 0")
    a, b, pp, q = p.a, p.b, p.p, p.q
    z, lnz, log1mz = _ekg2_transform(arr, p)
    ln_beta = log_gamma(pp) + log_gamma(q) - log_gamma(pp + q)
    out = (math.log(a / b) - ln_beta + (pp - 1.0 / a) * lnz
           + (q + 1.0 / (2.0 * a)) * log1mz - np.log1p(-0.5 * z))
    return _restore(out, scalar)


def ekg2_pdf(x, p: EKG2Params):
    """Density at x > 0; lower tail ~ x^(ap-1), upper tail ~ x^(-2aq-1)."""
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(np.asarray(ekg2_logpdf(x, p), dtype=float))
    _, scalar = _asarray(x)
    return _restore(out, scalar)


def ekg2_sample(n, p: EKG2Params, seed):
    """Inversion sampling from the closed-form quantile."""
    return ekg2_quantile(_uniforms(n, seed), p)


# ---------------------------------------------------------------------------
# net-wealth mixture


def mixture_pdf(w, p: NetWealthMixtureParams):
    """Continuous density plus atom report: returns (density, atom).

    density carries theta1 * Weibull(|w|) below zero and theta3 * base
    density above; atom is theta2 exactly at w = 0 and 0 elsewhere.  The
    point mass is never folded into the density value.
    """
    arr, scalar = _asarray(w)
    dens = np.zeros_like(arr)
    atom = np.zeros_like(arr)
    neg = arr < 0.0
    pos = arr > 0.0
    if np.any(neg):
        dens[neg] = p.theta1 * kgen_pdf(-arr[neg], _weibull_as_kgen(p.negative_branch))
    if np.any(pos):
        dens[pos] = p.theta3 * kgen_pdf(arr[pos], p.positive_branch)
    atom[arr == 0.0] = p.theta2
    if scalar:
        return float(dens), float(atom)
    return dens, atom


def mixture_cdf(w, p: NetWealthMixtureParams):
    """Right-continuous mixture CDF with a jump of size theta2 at zero."""
    arr, scalar = _asarray(w)
    out = np.empty_like(arr)
    rho = p.rho
    neg = arr < 0.0
    pos = arr > 0.0
    if np.any(neg):
        out[neg] = p.theta1 * kgen_ccdf(-arr[neg], _weibull_as_kgen(p.negative_branch))
    out[arr == 0.0] = rho
    if np.any(pos):
        out[pos] = rho + (1.0 - rho) * np.asarray(
            kgen_cdf(arr[pos], p.positive_branch), dtype=float)
    return _restore(out, scalar)


def mixture_ccdf(w, p: NetWealthMixtureParams):
    """Survival function; above zero it is (1 - rho) times the positive
    branch's own survival function, so the upper tail does not cancel."""
    arr, scalar = _asarray(w)
    upper = (1.0 - p.rho) * np.asarray(kgen_ccdf(arr, p.positive_branch), dtype=float)
    out = np.where(arr > 0.0, upper, 1.0 - np.asarray(mixture_cdf(arr, p), dtype=float))
    return _restore(out, scalar)


def mixture_moment(r, p: NetWealthMixtureParams):
    """Raw moment of integer order r >= 1.

    theta1 (-1)^r times the Weibull branch's moment (the base model at
    kappa = 0) plus theta3 times the positive-branch moment; the atom
    contributes zero.
    """
    ri = int(r)
    if ri != r or ri < 1:
        raise DomainError(f"moment order must be a positive integer, got {r}")
    neg_part = (-1.0) ** ri * kgen_moment(ri, _weibull_as_kgen(p.negative_branch))
    pos_part = kgen_moment(ri, p.positive_branch) if p.theta3 > 0.0 else 0.0
    return p.theta1 * neg_part + p.theta3 * pos_part


def mixture_mean(p: NetWealthMixtureParams):
    """Mean net wealth; may be negative."""
    return mixture_moment(1, p)


def mixture_sample(n, p: NetWealthMixtureParams, seed):
    """Inversion sampling of the mixture CDF.

    A single uniform per draw selects the component and the value:
    Weibull inversion with sign flip below theta1, exact zeros on
    [theta1, rho), base-model inversion above.
    """
    u = _uniforms(n, seed)
    out = np.zeros(u.size)
    rho = p.rho
    neg = u < p.theta1
    pos = u >= rho
    if np.any(neg):
        # written out: kgen_quantile(1 - u/theta1) would round off tail bits
        s, lam = p.negative_branch.shape, p.negative_branch.scale
        un = np.maximum(u[neg], 1e-300)
        out[neg] = -lam * np.log(p.theta1 / un) ** (1.0 / s)
    if np.any(pos):
        v = (u[pos] - rho) / (1.0 - rho)
        out[pos] = kgen_quantile(v, p.positive_branch)
    return out
