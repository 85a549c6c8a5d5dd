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

from .deformed import _asarray, _blocks, _restore, _scaled, kappa_exp, log_kappa_exp
from .errors import DomainError, MomentDivergenceError
from .special import (_binet, _log_beta, _STIRLING, digamma, inv_reg_inc_beta, log_gamma,
                      reg_inc_beta, trigamma)


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


class WeibullParams(KappaGenParams):
    """Weibull shape and scale, both strictly positive: the base model pinned
    at kappa = 0, which every base-model function takes as it is."""

    def __init__(self, shape: float, scale: float):
        if not (math.isfinite(shape) and shape > 0.0):
            raise DomainError(f"shape must be positive, got {shape}")
        if not (math.isfinite(scale) and scale > 0.0):
            raise DomainError(f"scale must be positive, got {scale}")
        super().__init__(shape, scale, 0.0)

    shape = property(lambda self: self.alpha)
    scale = property(lambda self: self.beta)

    def __repr__(self):
        return f"WeibullParams(shape={self.shape!r}, scale={self.scale!r})"


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

    The one formula for the base model's log-density: kgen_logpdf and
    _kgen_loglik_hessian share it, so the objective a fit differentiates is
    the one it reports.  asinh(kappa y)/kappa is accurate for every
    kappa > 0, so only kappa = 0 takes the Weibull form (asinh_ky and s are
    then None).  s is formed once, without hypot: where (kappa y)^2
    overflows, s is kappa y itself, which it equals to the last bit there.
    The caller holds the np.errstate scope that ignores overflow and divide.
    """
    a, b, k = p.alpha, p.beta, p.kappa
    rel = arr / b
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf - inf at x = inf
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


def _kgen_loglik_hessian(values, weights, p: KappaGenParams):
    """Weighted log-likelihood sum(w ln f(x)) of the base model, its
    gradient and its 3x3 Hessian in (ln alpha, ln beta, kappa), from one
    pass over a sample's nonzero records (0 * inf would be nan), summed as
    loglik sums them; requires x > 0.

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
    q overwrites y, and arrays are freed as soon as their sums are taken.
    """
    a, k = p.alpha, p.kappa
    hess = np.zeros((3, 3))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out, ln_rel, y, asinh_ky, s = _kgen_log_terms(values, p)
        ll = float((weights * out).sum())
        if k == 0.0:
            q = y
        else:
            small = np.flatnonzero(k * y < _SERIES_KY)
            ys = y[small]
            q = np.divide(y, s, out=y)
            t = k * q
        one_minus_h = np.subtract(1.0, q, out=out)
        if k != 0.0:
            t2 = t * t
            one_minus_h -= t2
        w_dh = np.multiply(weights, one_minus_h, out=one_minus_h)
        w_dh_ln, w_dh_sum = float(np.dot(w_dh, ln_rel)), float(w_dh.sum())
        del out, one_minus_h, w_dh
        grad = np.array([float(weights.sum()) + a * w_dh_ln, -a * w_dh_sum, 0.0])
        if k != 0.0:
            score_k = np.subtract(asinh_ky, t, out=asinh_ky)  # kappa y^3 S(u)
            score_k /= k * k
            y3s = score_k / k
            if small.size:
                ys3, rest = ys ** 3, _asinh_rest(k * ys)
                score_k[small] = k * ys3 * rest
                y3s[small] = ys3 * rest
            score_k -= t * q
            grad[2] = float(np.dot(weights, score_k))
            del score_k, t
        if k == 0.0:
            w_g = weights * q
            hess[2, 2] = float(np.dot(weights, y ** 3 / 3.0 - np.square(y)))
        else:
            m = np.multiply(2.0, t2, out=t2)  # q + 2 t^2
            m += q
            del t2
            w_g = weights * m
            w_g /= s
            w_g /= s
            del s
        w_g_ln = w_g * ln_rel
        hess[0, 0] = a * w_dh_ln - a * a * float(np.dot(w_g_ln, ln_rel))
        hess[0, 1] = hess[1, 0] = -a * w_dh_sum + a * a * float(w_g_ln.sum())
        hess[1, 1] = -a * a * float(w_g.sum())
        del w_g_ln
        if k != 0.0:
            q2 = np.square(q, out=q)
            w_hk = np.subtract(2.0, m, out=w_g)
            w_hk *= q2
            w_hk *= weights
            hess[0, 2] = hess[2, 0] = -a * k * float(np.dot(w_hk, ln_rel))
            hess[1, 2] = hess[2, 1] = a * k * float(w_hk.sum())
            del w_hk, w_g
            m -= 1.0  # q^2 (q + 2 t^2 - 1) - 2 y^3 S(u)
            m *= q2
            y3s *= 2.0
            m -= y3s
            hess[2, 2] = float(np.dot(weights, m))
    return ll, grad, hess


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


def _blockwise(f, arr):
    """The elementwise f over arr, taken one _BLOCK of entries at a time:
    its one-call values bit for bit, with one block of temporaries."""
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    for part in _blocks(flat.size):
        out[part] = f(flat[part])
    return out.reshape(arr.shape)


def _check_unit_interval(arr, name):
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < 1.0):
        raise DomainError(f"{name} requires 0 <= u < 1")


def kgen_quantile(u, p: KappaGenParams):
    """Closed-form quantile beta * [ln_k(1/(1-u))]^(1/alpha) for u in [0, 1);
    ln_k(e^t) = sinh(kappa t)/kappa, which is t at kappa = 0."""
    arr, scalar = _asarray(u)
    _check_unit_interval(arr, "kgen_quantile")
    out = _blockwise(
        lambda v: p.beta * _scaled(np.sinh, -np.log1p(-v), p.kappa) ** (1.0 / p.alpha), arr)
    return _restore(out, scalar)


_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny


def _check_moment_order(r, p: KappaGenParams):
    if not -p.alpha < r:
        raise MomentDivergenceError(
            f"moment of order {r} diverges: requires r > -alpha = {-p.alpha}")
    # and as the gamma argument 1/(2 kappa) - r/(2 alpha) sees it, to the ulp
    if p.kappa > 0.0 and not (r < p.alpha / p.kappa and 0.5 / p.kappa > 0.5 * (r / p.alpha)):
        raise MomentDivergenceError(
            f"moment of order {r} diverges: requires r < alpha/kappa = {p.alpha / p.kappa}")


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
    _check_unit_interval(arr, "ekg1_quantile")

    def block(v):
        t = -np.log1p(-v)
        out = np.zeros_like(v)
        pos = t > 0.0
        if np.any(pos):
            with np.errstate(over="ignore"):
                out[pos] = p.b * np.exp(_ekg1_log_bracket(t[pos], p) / p.a)
        return out

    return _restore(_blockwise(block, arr), scalar)


def _ekg1_log_t(x, p: EKG1Params):
    """s = ln t at x > 0, t = -ln(1-u) the quantile's inverse (inf at
    x = inf), by safeguarded Newton steps on G(s) = L(e^s) - a ln(x/b), L
    the log-bracket.

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
    root is s = target itself, which stays finite where t = e^s is
    subnormal or underflows (the steps, whose t would go subnormal, run on
    -700 instead).
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
    return np.where(top, np.inf, s)


def ekg1_cdf(x, p: EKG1Params):
    """Distribution function by numeric inversion of the closed quantile."""
    arr, scalar = _asarray(x)
    if np.any(arr < 0.0):
        arr = np.maximum(arr, 0.0)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        out[pos] = -np.expm1(-np.exp(_ekg1_log_t(arr[pos], p)))
    return _restore(out, scalar)


def ekg1_ccdf(x, p: EKG1Params):
    """Survival function exp(-t), t = -ln(1-u) from the inverted quantile."""
    arr, scalar = _asarray(x)
    out = np.ones_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        out[pos] = np.exp(-np.exp(_ekg1_log_t(arr[pos], p)))
    return _restore(out, scalar)


def _ekg1_log_terms(s, ln_rel, p: EKG1Params):
    """(log-density, t, c t, t/q, m) at s = ln t and ln(x/b), x the
    quantile at t: the one EKG1 log-density formula, which ekg1_logpdf,
    ekg1_density_at_u and _ekg1_loglik_hessian share.

    f = e^(-t) dt/dx and x = b e^(L(t)/a), so ln f = ln a - ln x - t -
    ln L'(t), and t L'(t) = c t + m with c = 1/(2q) - r and m = tau/(e^tau - 1),
    tau = t/q (m = 1 at tau = 0).  In s, ln L'(t) = ln(c t + m) - s, which
    stays finite where t underflows."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = np.exp(s)
        ct = _ekg1_slope(p) * t
        tau = t / p.q
        m = np.where(tau > 0.0, tau / np.expm1(tau), 1.0)
        out = s - t
        out -= ln_rel
        out -= np.log(ct + m)
        out += math.log(p.a / p.b)
    return out, t, ct, tau, m


def ekg1_density_at_u(u, p: EKG1Params):
    """Density expressed in terms of the cumulative probability u in (0, 1)."""
    arr, scalar = _asarray(u)
    if np.any(~((arr > 0.0) & (arr < 1.0))):
        raise DomainError("ekg1_density_at_u requires 0 < u < 1")
    t = -np.log1p(-arr)
    log_density = _ekg1_log_terms(np.log(t), _ekg1_log_bracket(t, p) / p.a, p)[0]
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(log_density)
    return _restore(out, scalar)


def _ekg1_log_density_at_x(arr, p: EKG1Params, name):
    """Log density at x > 0 through the numeric inverse; -inf at x = inf."""
    if np.any(~(arr > 0.0)):
        raise DomainError(f"{name} requires x > 0")
    log_density = _ekg1_log_terms(_ekg1_log_t(arr, p), np.log(arr / p.b), p)[0]
    return np.where(arr == np.inf, -np.inf, log_density)


def _ekg1_loglik_hessian(values, weights, p: EKG1Params):
    """Weighted log-likelihood sum(w ln f(x)) of the quantile-defined
    extension, its gradient and its 4x4 Hessian in (ln a, ln b, ln q, ln c),
    c = 1/(2q) - r (the fit's vector), from one inversion and one pass over
    a sample's nonzero records, summed as loglik sums them; requires x > 0.

    ln f = ln a - ln x - t + s - ln D with s = ln t and D = c t + m(tau),
    tau = t/q, where s solves G = ln q + c e^s + ln(1 - e^(-tau)) - eta = 0,
    eta = a ln(x/b).  With m1 = dm/ds = m (1 - tau - m) and
    m2 = d2m/ds2 = m1 (1 - tau - 2m) - m tau, G's partials are G_s = D,
    G_ss = c t + m1 and, along the vector, (-eta, a, 1 - m, c t), so
    s' = -G'/D (implicit differentiation), and once more
    s'' = -(G'' + G_s' s'^T + s' G_s'^T + G_ss s' s'^T)/D.  The total
    derivatives are l' + l_s s' and
    l'' + l_s' s'^T + s' l_s'^T + l_ss s' s'^T + l_s s''; per record, with
    u = m1/D, v = c t/D, n = m2/D, l_s = 1 - t - u - v and
    k = l_s - u - v, they gather to (1, 0, u, -v) + l_s s' and
    A + B s'^T + s' B^T + C s' s'^T with B = (0, 0, n + u k, -v (1 + k)),
    C = -t - v - n - (u + v) k and A's nonzero entries l_s eta/D,
    -l_s a/D, -n - u (l_s - u), -u v and -v (1 - v + l_s) at (0, 0),
    (0, 1), (2, 2), (2, 3) and (3, 3).  One triangle is mirrored, as the
    products round asymmetrically.
    """
    a = p.a
    s = _ekg1_log_t(values, p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ln_rel = np.log(values / p.b)
        out, t, ct, tau, m = _ekg1_log_terms(s, ln_rel, p)
        ll = float((weights * out).sum())
        d = ct + m
        m1 = m * (1.0 - tau - m)
        n = (m1 * (1.0 - tau - 2.0 * m) - m * tau) / d
        u = m1 / d
        v = ct / d
        l_s = 1.0 - t - u - v
        k = l_s - u - v
        eta_d = a * ln_rel / d
        ds = np.stack([eta_d, -a / d, (m - 1.0) / d, -v])
        grad = ds @ (weights * l_s)
        grad[0] += float(weights.sum())
        grad[2] += float(np.dot(weights, u))
        grad[3] -= float(np.dot(weights, v))
        hess = (ds * (weights * (-t - v - n - (u + v) * k))) @ ds.T
        cross = (np.stack([n + u * k, -v * (1.0 + k)]) * weights) @ ds.T
        hess[2:] += cross
        hess[:, 2:] += cross.T
        hess[0, 0] += float(np.dot(weights, l_s * eta_d))
        hess[0, 1] -= a * float(np.dot(weights, l_s / d))
        hess[2, 2] -= float(np.dot(weights, n + u * (l_s - u)))
        hess[2, 3] -= float(np.dot(weights, u * v))
        hess[3, 3] -= float(np.dot(weights, v * (1.0 - v + l_s)))
    return ll, grad, np.triu(hess) + np.triu(hess, 1).T


def ekg1_pdf(x, p: EKG1Params):
    """Density at x > 0, evaluated through the numeric inverse of the quantile."""
    arr, scalar = _asarray(x)
    log_density = _ekg1_log_density_at_x(arr, p, "ekg1_pdf")
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(log_density)
    return _restore(out, scalar)


def ekg1_logpdf(x, p: EKG1Params):
    """Log-density at x > 0, through the numeric inverse of the quantile."""
    arr, scalar = _asarray(x)
    return _restore(_ekg1_log_density_at_x(arr, p, "ekg1_logpdf"), scalar)


def ekg1_sample(n, p: EKG1Params, seed):
    """Inversion sampling from the closed-form quantile."""
    return ekg1_quantile(_uniforms(n, seed), p)


# ---------------------------------------------------------------------------
# incomplete-beta-defined extension (ekg2)


def _ekg2_transform(x, p: EKG2Params):
    """(ln(x/b), A, w) at x >= 0, with A = asinh(y/2), y = (x/b)^a, and
    w = 1 - z = e^(-2A): z = y/D = -expm1(-2A) lies in [0, 1], D = e^A =
    (y + sqrt(y^2 + 4))/2.  A keeps its precision at small y and does not
    overflow; where y overflows, A = eta = a ln(x/b), its value to the last
    bit there.  From them, ln z = eta - A stays exact where y is subnormal
    or underflows."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ln_rel = np.log(x / p.b)
        y = (x / p.b) ** p.a
        ln_d = np.arcsinh(0.5 * y)
        if y.max(initial=0.0) == np.inf:
            ln_d = np.where(y == np.inf, p.a * ln_rel, ln_d)
        return ln_rel, ln_d, np.exp(-2.0 * ln_d)


def _ekg2_tail(x, p: EKG2Params):
    """(v, lower): v is the CDF I_z(p, q) where lower (z <= 1/2), else the
    survival function I_(1-z)(q, p), each side one minus the other: betainc
    loses digits at arguments near 1, so it only sees z or 1 - z up to 1/2.
    Below the normal range of z, where z has lost digits or is 0, and where
    the CDF is subnormal, which betainc returns as 0, the CDF is the
    expansion z^p / (p B(p, q)) (1 + p (1 - q) z / (p + 1)) that
    inv_reg_inc_beta inverts at tiny roots, from ln z = eta - A below the
    normal range of z."""
    arr = np.maximum(np.asarray(x, dtype=float).reshape(-1), 0.0)
    ln_rel, ln_d, w = _ekg2_transform(arr, p)
    z = -np.expm1(-2.0 * ln_d)
    lower = z <= 0.5
    below, above = np.flatnonzero(lower), np.flatnonzero(~lower)
    out = np.empty_like(z)
    out[below] = reg_inc_beta(z.take(below), p.p, p.q)
    out[above] = reg_inc_beta(w.take(above), p.q, p.p)
    deep = np.flatnonzero(lower & ((z < _TINY) | (out < _TINY)))
    if deep.size:
        zd = z.take(deep)
        with np.errstate(divide="ignore"):  # -inf at x = 0
            lnz = np.where(zd < _TINY, p.a * ln_rel.take(deep) - ln_d.take(deep), np.log(zd))
        lead = np.exp(p.p * lnz - math.log(p.p) - _log_beta(p.p, p.q))
        out[deep] = lead * (1.0 + p.p * (1.0 - p.q) * zd / (p.p + 1.0))
    return out.reshape(np.shape(x)), lower.reshape(np.shape(x))


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
    where z itself would round to 1.  inv_reg_inc_beta is elementwise, so
    the quantile is taken in blocks like the others.
    """
    arr, scalar = _asarray(u)
    _check_unit_interval(arr, "ekg2_quantile")

    def block(v):
        out = np.zeros_like(v)
        with np.errstate(divide="ignore", over="ignore"):
            lower = np.flatnonzero((v > 0.0) & (v <= 0.5))
            if lower.size:
                z = inv_reg_inc_beta(v.take(lower), p.p, p.q)
                out[lower] = p.b * np.exp(np.log(z) / p.a - np.log1p(-z) / (2.0 * p.a))
            del lower
            upper = np.flatnonzero(v > 0.5)
            if upper.size:
                w = inv_reg_inc_beta(1.0 - v.take(upper), p.q, p.p)
                out[upper] = p.b * np.exp(np.log1p(-w) / p.a - np.log(w) / (2.0 * p.a))
        return out

    return _restore(_blockwise(block, arr), scalar)


def _ekg2_log_terms(arr, p: EKG2Params):
    """(log-density, ln(x/b), A, w) at a one-dimensional array of x > 0,
    with _ekg2_transform's A and w: the one EKG2 log-density formula, which
    ekg2_logpdf and _ekg2_loglik_hessian share.

    With eta = a ln(x/b), ln z = eta - A, ln(1 - z) = -2A and
    1 - z/2 = (1 + w)/2, the density
    a/b z^(p - 1/a) (1 - z)^(q + 1/(2a)) / (B(p, q) (1 - z/2)) gives
    ln f = ln(2a/b) - ln B(p, q) + (a p - 1) ln(x/b) - (p + 2q) A - log1p(w),
    finite where y = (x/b)^a is subnormal, underflows or overflows."""
    ln_rel, ln_d, w = _ekg2_transform(arr, p)
    out = (p.a * p.p - 1.0) * ln_rel
    out -= (p.p + 2.0 * p.q) * ln_d
    out -= np.log1p(w)
    out += math.log(2.0 * p.a / p.b) - _log_beta(p.p, p.q)
    return out, ln_rel, ln_d, w


def ekg2_logpdf(x, p: EKG2Params):
    """Log-density at x > 0; -inf at x = inf."""
    arr, scalar = _asarray(x)
    if np.any(~(arr > 0.0)):
        raise DomainError("ekg2_logpdf requires x > 0")
    with np.errstate(invalid="ignore"):  # inf - inf at x = inf
        out = _ekg2_log_terms(arr.reshape(-1), p)[0].reshape(arr.shape)
    if arr.max(initial=0.0) == np.inf:
        out = np.where(arr == np.inf, -np.inf, out)
    return _restore(out, scalar)


def _ekg2_loglik_hessian(values, weights, p: EKG2Params):
    """Weighted log-likelihood sum(w ln f(x)) of the incomplete-beta
    extension, its gradient and its 4x4 Hessian in (ln a, ln b, ln p, ln q)
    (the fit's vector), from one pass over a sample's nonzero records,
    summed as loglik sums them; requires x > 0.

    ln f depends on a and b through ln a and eta = a ln(x/b) (d eta/d ln a
    = eta, d eta/d ln b = -a), and with s = tanh A = z/(2 - z),
    1 - s = 2w/(1 + w) and dA/deta = s, its eta derivatives are
    l1 = p - (p + 2q - 1) s - s^2 and l2 = -s (1 - s^2) (p + 2q - 1 + 2s).
    The per-record scores are 1 + l1 eta, -a l1, p (ln z - psi(p) + psi(p + q))
    and q (-2A - psi(q) + psi(p + q)); the Hessian is l1 eta + l2 eta^2,
    -a (l1 + l2 eta) and a^2 l2 in the (ln a, ln b) block, p (1 - s) eta,
    -a p (1 - s), -2q s eta and 2a q s across to (ln p, ln q), and
    the ln p, ln q scores plus p^2 (psi'(p + q) - psi'(p)),
    q^2 (psi'(p + q) - psi'(q)) and p q psi'(p + q) in the (ln p, ln q) block.
    """
    a, pp, q = p.a, p.p, p.q
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out, ln_rel, ln_d, w = _ekg2_log_terms(values, p)
        ll = float((weights * out).sum())
        z = -np.expm1(-2.0 * ln_d)
        eta = a * ln_rel
        lnz = eta - ln_d
        upper = z > 0.5
        lnz[upper] = np.log1p(-w[upper])  # where eta - A cancels
        s = z / (1.0 + w)
        one_m_s = 2.0 * w / (1.0 + w)
        k = pp + 2.0 * q - 1.0
        l1 = pp - (k + s) * s
        l2 = -s * one_m_s * (1.0 + s) * (k + 2.0 * s)
        terms = np.stack([l1, l2, one_m_s, s])
        by_w, by_we = terms @ weights, terms @ (weights * eta)
        total = float(weights.sum())
        l2_ee = float(np.dot(weights * eta, l2 * eta))
        sum_lnz, sum_a = float(np.dot(weights, lnz)), float(np.dot(weights, ln_d))
    psi_pq, tri_pq = digamma(pp + q), trigamma(pp + q)
    grad = np.array([total + by_we[0], -a * by_w[0],
                     pp * (sum_lnz - total * (digamma(pp) - psi_pq)),
                     q * (-2.0 * sum_a - total * (digamma(q) - psi_pq))])
    hess = np.zeros((4, 4))
    hess[0] = by_we[0] + l2_ee, -a * (by_w[0] + by_we[1]), pp * by_we[2], -2.0 * q * by_we[3]
    hess[1, 1:] = a * a * by_w[1], -a * pp * by_w[2], 2.0 * a * q * by_w[3]
    hess[2, 2:] = (grad[2] + pp * pp * total * (tri_pq - trigamma(pp)),
                   pp * q * total * tri_pq)
    hess[3, 3] = grad[3] + q * q * total * (tri_pq - trigamma(q))
    return ll, grad, np.triu(hess) + np.triu(hess, 1).T


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
    flat = arr.reshape(-1)
    dens = np.zeros_like(flat)
    atom = np.zeros_like(flat)
    neg, pos = np.flatnonzero(flat < 0.0), np.flatnonzero(flat > 0.0)
    if neg.size:
        dens[neg] = p.theta1 * kgen_pdf(-flat.take(neg), p.negative_branch)
    if pos.size:
        dens[pos] = p.theta3 * kgen_pdf(flat.take(pos), p.positive_branch)
    atom[flat == 0.0] = p.theta2
    if scalar:
        return float(dens[0]), float(atom[0])
    return dens.reshape(arr.shape), atom.reshape(arr.shape)


def mixture_cdf(w, p: NetWealthMixtureParams):
    """Right-continuous mixture CDF with a jump of size theta2 at zero."""
    arr, scalar = _asarray(w)
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    rho = p.rho
    neg, pos = np.flatnonzero(flat < 0.0), np.flatnonzero(flat > 0.0)
    if neg.size:
        out[neg] = p.theta1 * kgen_ccdf(-flat.take(neg), p.negative_branch)
    out[flat == 0.0] = rho
    if pos.size:
        out[pos] = rho + (1.0 - rho) * kgen_cdf(flat.take(pos), p.positive_branch)
    return _restore(out.reshape(arr.shape), scalar)


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
    neg_part = (-1.0) ** ri * kgen_moment(ri, p.negative_branch)
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
    rho = p.rho
    s, lam = p.negative_branch.shape, p.negative_branch.scale

    def block(u):
        out = np.zeros(u.size)
        neg, pos = np.flatnonzero(u < p.theta1), np.flatnonzero(u >= rho)
        if neg.size:
            # written out: kgen_quantile(1 - u/theta1) would round off tail bits
            un = np.maximum(u.take(neg), 1e-300)
            out[neg] = -lam * np.log(p.theta1 / un) ** (1.0 / s)
        if pos.size:
            out[pos] = kgen_quantile((u.take(pos) - rho) / (1.0 - rho), p.positive_branch)
        return out

    return _blockwise(block, _uniforms(n, seed))
