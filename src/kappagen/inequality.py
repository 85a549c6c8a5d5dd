"""Lorenz curves, dominance ordering, and scalar inequality indices.

Closed forms are used wherever the families admit them; the generic
quantile-integral fallback (Gauss-Legendre panels with geometric
refinement toward both endpoints) covers everything else, including the
quantile-defined four-parameter extension.  Empirical counterparts
operate on weighted unit-record samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import WeightedSample
from .deformed import _asarray, _restore
from .distributions import (
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    _log_gamma_ratio,
    _log_gamma_ratio_grad,
    _weibull_as_kgen,
    kgen_mean,
    kgen_moment,
)
from .errors import (
    CurveNonexistenceError,
    DegenerateDataError,
    DegenerateNormalizationError,
    DomainError,
    MomentDivergenceError,
)
from .special import (
    digamma,
    inv_reg_inc_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_inc_gamma,
    upper_inc_gamma,
)

_EULER_GAMMA = np.euler_gamma
_GE_LIMIT_WINDOW = 1e-5
# kgen_lorenz takes the Weibull form, a regularized lower incomplete gamma,
# below this kappa: scipy's betainc returns nan by b = 1/(2 kappa) -
# 1/(2 alpha) = 4e154 (kappa ~ 1e-155), and from kappa = 1e-50 to 1e-10 the
# two forms agree within 3.7e-15, the incomplete gamma's own error.
_TINY_KAPPA = 1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


# ---------------------------------------------------------------------------
# curve and report containers


@dataclass(frozen=True)
class LorenzCurve:
    """Ordered (u, L) pairs from (0, 0) to (1, 1) plus a source tag."""

    points: np.ndarray
    source: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise DomainError("LorenzCurve needs an (n, 2) array with n >= 2")
        u = pts[:, 0]
        if np.any(np.diff(u) <= 0.0):
            raise DomainError("LorenzCurve abscissae must be strictly increasing")
        if abs(u[0]) > 1e-12 or abs(pts[0, 1]) > 1e-12:
            raise DomainError("LorenzCurve must start at (0, 0)")
        if abs(u[-1] - 1.0) > 1e-9 or abs(pts[-1, 1] - 1.0) > 1e-9:
            raise DomainError("LorenzCurve must end at (1, 1)")
        object.__setattr__(self, "points", pts)

    def interpolate(self, u):
        """Linear interpolation of L at population share u."""
        return np.interp(u, self.points[:, 0], self.points[:, 1])


@dataclass(frozen=True)
class InequalityReport:
    """Scalar inequality summary: Gini, MLD, Theil, and GE(theta) entries."""

    gini: float
    mld: float
    theil: float
    ge_values: tuple = ()


class LorenzOrdering(Enum):
    """Outcome of a Lorenz-dominance comparison."""

    FIRST_DOMINATES = "first-dominates"
    SECOND_DOMINATES = "second-dominates"
    EQUIVALENT = "equivalent"
    CROSSING = "crossing"


# ---------------------------------------------------------------------------
# quadrature helpers


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * float(np.sum(_GL_WEIGHTS * f(x)))


def _integral_zero_to(f, u):
    """Integral of f over [0, u] with geometric refinement toward 0."""
    if u <= 0.0:
        return 0.0
    edges = [0.0] + [u * 10.0 ** (-k) for k in range(13, 0, -1)] + [u]
    return sum(_gl_panel(f, a, b) for a, b in zip(edges[:-1], edges[1:]))


def _upper_tail_edges():
    return [1.0 - 10.0 ** (-k) for k in range(2, 17)]


def _integral_with_tail(f):
    """Integral of f over [0, 1) with geometric refinement at both ends.

    Raises MomentDivergenceError when successive tail-panel contributions
    stop decaying, the signature of a divergent quantile integral.
    """
    total = _integral_zero_to(f, 0.9)
    edges = [0.9] + _upper_tail_edges()
    prev = math.inf
    for a, b in zip(edges[:-1], edges[1:]):
        part = _gl_panel(f, a, b)
        if not math.isfinite(part):
            raise MomentDivergenceError("quantile integral diverges near u = 1")
        if abs(part) >= abs(prev) and abs(part) > 1e-9 * max(abs(total), 1e-300):
            raise MomentDivergenceError(
                "quantile integral shows no tail decay; mean appears divergent")
        total += part
        prev = part
    return total


def quantile_mean(quantile_fn):
    """Mean as the integral of the quantile function over [0, 1)."""
    return _integral_with_tail(lambda t: np.asarray(quantile_fn(t), dtype=float))


def quantile_lorenz(u, quantile_fn, mean):
    """Generic Lorenz value L(u) = (1/mean) * integral of the quantile to u."""
    if not math.isfinite(mean) or mean == 0.0:
        raise DegenerateNormalizationError(
            f"Lorenz curve needs a finite nonzero mean, got {mean}")
    uf = float(u)
    if not 0.0 <= uf <= 1.0:
        raise DomainError("quantile_lorenz requires 0 <= u <= 1")
    if uf == 1.0:
        return 1.0
    f = lambda t: np.asarray(quantile_fn(t), dtype=float)
    if uf <= 0.9:
        value = _integral_zero_to(f, uf)
    else:
        value = _integral_zero_to(f, 0.9)
        edges = [e for e in [0.9] + _upper_tail_edges() if e < uf] + [uf]
        value += sum(_gl_panel(f, a, b) for a, b in zip(edges[:-1], edges[1:]))
    return value / mean


def quantile_gini(quantile_fn):
    """Generic Gini 1 - 2 * integral of L; computed as 1 - (2/m) E[(1-U) Q(U)]."""
    f = lambda t: np.asarray(quantile_fn(t), dtype=float)
    mean = _integral_with_tail(f)
    if not math.isfinite(mean) or mean == 0.0:
        raise DegenerateNormalizationError(
            f"Gini needs a finite nonzero mean, got {mean}")
    damped = _integral_with_tail(lambda t: f(t) * (1.0 - t))
    return 1.0 - 2.0 * damped / mean


# ---------------------------------------------------------------------------
# base family indices


def _require_curve(p: KappaGenParams):
    if p.kappa > 0.0 and not p.alpha / p.kappa > 1.0:
        raise CurveNonexistenceError(
            f"Lorenz curve exists only for alpha/kappa > 1, got {p.alpha / p.kappa}")


def kgen_lorenz(u, p: KappaGenParams):
    """Closed-form Lorenz curve of the base model; needs alpha/kappa > 1."""
    _require_curve(p)
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("kgen_lorenz requires 0 <= u <= 1")
    a, k = p.alpha, p.kappa
    out = np.empty_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    if np.any(interior):
        ui = arr[interior]
        if k < _TINY_KAPPA:
            out[interior] = reg_lower_inc_gamma(1.0 + 1.0 / a, -np.log1p(-ui))
        else:
            pa = 1.0 + 1.0 / a
            pb = 1.0 / (2.0 * k) - 1.0 / (2.0 * a)
            log_y = 2.0 * k * np.log1p(-ui)  # y = (1-u)^(2k) = 1 - X
            vals = np.empty_like(ui)
            # complement form keeps the deep upper tail when X collides with 1
            low = log_y > math.log(0.5)
            if np.any(low):
                vals[low] = reg_inc_beta(-np.expm1(log_y[low]), pa, pb)
            if np.any(~low):
                vals[~low] = 1.0 - np.asarray(
                    reg_inc_beta(np.exp(log_y[~low]), pb, pa), dtype=float)
            out[interior] = vals
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    return _restore(out, scalar)


def lorenz_dominates(p1: KappaGenParams, p2: KappaGenParams):
    """Exact dominance ordering of two base-model Lorenz curves.

    The curves do not intersect iff the higher-alpha distribution also has
    the higher tail exponent alpha/kappa; the comparison is non-strict, so
    EQUIVALENT is returned when both conditions hold with equality (the
    curves coincide).
    """
    _require_curve(p1)
    _require_curve(p2)
    first = p1.alpha >= p2.alpha and p1.tail_exponent >= p2.tail_exponent
    second = p2.alpha >= p1.alpha and p2.tail_exponent >= p1.tail_exponent
    if first and second:
        return LorenzOrdering.EQUIVALENT
    if first:
        return LorenzOrdering.FIRST_DOMINATES
    if second:
        return LorenzOrdering.SECOND_DOMINATES
    return LorenzOrdering.CROSSING


def kgen_gini(p: KappaGenParams):
    """Closed-form Gini of the base model; needs alpha/kappa > 1.  Its
    kappa = 0 value is the Weibull 1 - 2^(-1/alpha)."""
    _require_curve(p)
    a, k = p.alpha, p.kappa
    return 1.0 - 2.0 ** (-1.0 / a) * math.exp(
        _log_gamma_ratio(0.5 * k, 1.0 / a) - _log_gamma_ratio(k, 1.0 / a))


def _log_mean_over_scale(p: KappaGenParams):
    """ln(m/beta) = ln Gamma(1 + 1/alpha) + L(kappa, 1/alpha), L = _log_gamma_ratio.
    MLD and Theil are the r-derivatives of ln E[X^r] = r ln beta +
    ln Gamma(1 + r/alpha) + L(kappa, r/alpha) at r = 0 and r = 1."""
    return log_gamma(1.0 + 1.0 / p.alpha) + _log_gamma_ratio(p.kappa, 1.0 / p.alpha)


def kgen_mld(p: KappaGenParams):
    """Mean logarithmic deviation E[ln(m/X)] in closed form:
    ln(m/beta) + (gamma - dL/dm(kappa, 0))/alpha."""
    _require_curve(p)
    d_m = _log_gamma_ratio_grad(p.kappa, 0.0)[1]
    return _log_mean_over_scale(p) + (_EULER_GAMMA - d_m) / p.alpha


def kgen_theil(p: KappaGenParams):
    """Theil index E[(X/m) ln(X/m)] in closed form:
    ln(beta/m) + (psi(1 + 1/alpha) + dL/dm(kappa, 1/alpha))/alpha."""
    _require_curve(p)
    a = p.alpha
    d_m = _log_gamma_ratio_grad(p.kappa, 1.0 / a)[1]
    return (digamma(1.0 + 1.0 / a) + d_m) / a - _log_mean_over_scale(p)


def kgen_ge(theta, p: KappaGenParams):
    """Generalized entropy GE(theta) = (E[(X/m)^theta] - 1) / (theta^2 - theta).

    theta within 1e-5 of the removable singularities 0 and 1 dispatches to
    the closed-form MLD and Theil limits to avoid cancellation.
    """
    theta = float(theta)
    if abs(theta) < _GE_LIMIT_WINDOW:
        return kgen_mld(p)
    if abs(theta - 1.0) < _GE_LIMIT_WINDOW:
        return kgen_theil(p)
    _require_curve(p)
    m = kgen_mean(p)
    moment = kgen_moment(theta, p)
    return (moment / m ** theta - 1.0) / (theta * theta - theta)


def kgen_inequality_report(p: KappaGenParams, thetas=()):
    """Bundle Gini, MLD, Theil and requested GE(theta) values."""
    ge_values = tuple((float(t), kgen_ge(t, p)) for t in thetas)
    return InequalityReport(gini=kgen_gini(p), mld=kgen_mld(p),
                            theil=kgen_theil(p), ge_values=ge_values)


# ---------------------------------------------------------------------------
# net-wealth mixture


def _mixture_means(p: NetWealthMixtureParams):
    """Overall, positive-branch and Weibull-branch (kappa = 0) means."""
    try:
        m_pos = kgen_mean(p.positive_branch) if p.theta3 > 0.0 else 0.0
    except MomentDivergenceError:
        raise MomentDivergenceError(
            "mixture Lorenz/Gini require the positive-branch mean to exist") from None
    m_neg = kgen_mean(_weibull_as_kgen(p.negative_branch))
    return -p.theta1 * m_neg + p.theta3 * m_pos, m_pos, m_neg


def mixture_lorenz(u, p: NetWealthMixtureParams):
    """Three-branch net-wealth Lorenz curve.

    Upper-incomplete-gamma branch below theta1, flat branch on
    [theta1, rho], incomplete-beta branch above rho; negative for
    u <= rho whenever the overall mean is positive.
    """
    m, m_pos, m_neg = _mixture_means(p)
    if m == 0.0:
        raise DegenerateNormalizationError("mixture mean is zero; Lorenz undefined")
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("mixture_lorenz requires 0 <= u <= 1")
    s, lam = p.negative_branch.shape, p.negative_branch.scale
    th1, rho = p.theta1, p.rho
    out = np.empty_like(arr)

    lower = (arr > 0.0) & (arr < th1)
    flat = (arr >= th1) & (arr <= rho)
    upper = (arr > rho) & (arr < 1.0)
    if np.any(lower):
        # partial Weibull mean: an upper incomplete gamma the base model lacks
        out[lower] = -(lam * th1 / m) * np.asarray(
            upper_inc_gamma(1.0 + 1.0 / s, np.log(th1 / arr[lower])), dtype=float)
    out[flat] = -(th1 / m) * m_neg
    if np.any(upper):
        v = (arr[upper] - rho) / (1.0 - rho)
        pos_lorenz = np.asarray(kgen_lorenz(v, p.positive_branch), dtype=float)
        out[upper] = (p.theta3 * m_pos * pos_lorenz - th1 * m_neg) / m
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    return _restore(out, scalar)


def mixture_gini(p: NetWealthMixtureParams):
    """Closed-form net-wealth Gini, normalized by 1 - rho * L(theta1).

    Not clamped to [0, 1]: a large nonpositive-wealth share can push it
    above one, and a negative mean makes it negative.  The negative-mean
    normalization is ambiguous in the source material, so that case is
    flagged with a warning.
    """
    m, m_pos, m_neg = _mixture_means(p)
    s = p.negative_branch.shape
    th1, th3 = p.theta1, p.theta3
    denominator = m + p.rho * th1 * m_neg
    if abs(denominator) < 1e-300:
        raise DegenerateNormalizationError("mixture Gini normalization vanishes")
    if m < 0.0:
        warnings.warn("mixture mean is negative; Gini normalization follows "
                      "1 - rho*L(theta1), which is ambiguous for m < 0",
                      RuntimeWarning, stacklevel=2)
    gini_pos = kgen_gini(p.positive_branch) if th3 > 0.0 else 0.0
    positive_area = th3 * th3 * m_pos * (1.0 - gini_pos)
    negative_area = 2.0 * th1 * (1.0 - th1 * 2.0 ** (-1.0 - 1.0 / s)) * m_neg
    return (m - positive_area + negative_area) / denominator


# ---------------------------------------------------------------------------
# incomplete-beta-defined extension


def ekg2_lorenz(u, p: EKG2Params):
    """Closed-form Lorenz curve of the beta-CDF extension.

    Exists only when q - 1/(2a) > 0 (finite mean).
    """
    b2 = p.q - 1.0 / (2.0 * p.a)
    if not b2 > 0.0:
        raise CurveNonexistenceError(
            f"ekg2 Lorenz curve requires q > 1/(2a), got q={p.q}, a={p.a}")
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("ekg2_lorenz requires 0 <= u <= 1")
    z = np.asarray(inv_reg_inc_beta(arr, p.p, p.q), dtype=float)
    out = np.asarray(reg_inc_beta(z, p.p + 1.0 / p.a, b2), dtype=float)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    return _restore(out, scalar)


# ---------------------------------------------------------------------------
# empirical counterparts


def empirical_lorenz(sample: WeightedSample):
    """Weight-sorted cumulative-share Lorenz curve from unit records.

    Equal values are grouped before cumulating; weights are normalized to
    sum to one.
    """
    mask = sample.weights > 0.0
    if not np.any(mask):
        raise DegenerateDataError("all weights are zero")
    values = sample.values[mask]
    weights = sample.weights[mask]
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    distinct, start = np.unique(values, return_index=True)
    w_grouped = np.add.reduceat(weights, start)
    xw_grouped = np.add.reduceat(values * weights, start)
    total_w = w_grouped.sum()
    total_xw = xw_grouped.sum()
    if total_xw == 0.0:
        raise DegenerateNormalizationError("sample mean is zero; Lorenz undefined")
    u = np.cumsum(w_grouped) / total_w
    ell = np.cumsum(xw_grouped) / total_xw
    u[-1] = 1.0
    ell[-1] = 1.0
    points = np.column_stack([np.concatenate([[0.0], u]),
                              np.concatenate([[0.0], ell])])
    return LorenzCurve(points=points, source="empirical")


def empirical_gini(sample: WeightedSample):
    """Trapezoid-rule Gini of the empirical Lorenz curve."""
    curve = empirical_lorenz(sample)
    u = curve.points[:, 0]
    ell = curve.points[:, 1]
    area = float(np.sum(np.diff(u) * (ell[1:] + ell[:-1])))
    return 1.0 - area
