"""Lorenz curves, dominance ordering, and scalar inequality indices.

Closed forms are used wherever the families admit them; the generic
quantile-integral fallback (Gauss-Legendre panels with geometric
refinement toward both endpoints) covers everything else, including the
quantile-defined four-parameter extension; each integral calls the quantile
once (quantile_lorenz takes arrays, 1024 points a call), and stops at
u = 1 - 1e-16 (base-model mean off by -5.8e-6 relative at alpha/kappa = 1.5,
-1.7e-12 at 4).  Empirical counterparts operate on weighted unit-record
samples, one block of sorted records at a time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import WeightedSample
from .deformed import _asarray, _blocks, _restore
from .distributions import (
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    _log_gamma_ratio,
    _log_gamma_ratio_grad,
    kgen_mean,
    kgen_moment,
)
from .errors import (
    CurveNonexistenceError,
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
# Lorenz scaffold and quadrature


def _lorenz_at(u, name, interior):
    """L(u) for 0 <= u <= 1 (else DomainError naming the function): exactly
    0 and 1 at the ends, interior(v) on the entries 0 < v < 1, and a float
    for a scalar u."""
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError(f"{name} requires 0 <= u <= 1")
    out = np.where(arr == 1.0, 1.0, 0.0)
    inside = (arr > 0.0) & (arr < 1.0)
    if np.any(inside):
        out[inside] = interior(arr[inside])
    return _restore(out, scalar)


# Panel edges of [0, u]: thirteen decades toward 0 below min(u, 0.9), then
# from 0.9 the decades toward 1 below u, and u; [0, 1) stops at 1 - 1e-16.
_HEAD = np.array([0.0] + [10.0 ** (-k) for k in range(13, 0, -1)] + [1.0])
_TAIL = np.array([0.9] + [1.0 - 10.0 ** (-k) for k in range(2, 17)])
_JOIN = _HEAD.size - 1  # the zero-width panel from the head's end to the tail's start
_LORENZ_BLOCK = 1024  # points a quantile call: ~1000 nodes each, tens of MB


def _edges(u):
    """Rows of panel edges of [0, u], u in (0, 1]: the head, a zero-width join
    and the tail, whose panels above u have zero width."""
    u = np.asarray(u, dtype=float)[..., None]
    return np.concatenate((np.minimum(u, 0.9) * _HEAD, np.minimum(_TAIL, u)), axis=-1)


def _panels(f, edges):
    """64-point Gauss-Legendre integrals of f (or of a stack of integrands
    f returns) over the panels between consecutive edges, from one call of
    f on the nodes of every panel of nonzero width; the others are 0."""
    a, b = edges[..., :-1], edges[..., 1:]
    live = b > a
    half = 0.5 * (b[live] - a[live])
    x = (0.5 * (a[live] + b[live]))[:, None] + half[:, None] * _GL_NODES
    values = np.asarray(f(x.ravel()), dtype=float)
    values = values.reshape(values.shape[:-1] + x.shape)
    out = np.zeros(values.shape[:-2] + a.shape)
    out[..., live] = half * np.sum(_GL_WEIGHTS * values, axis=-1)
    return out


def _in_order(parts):
    """Sum over the last axis, one panel after another (np.sum would pair)."""
    return np.cumsum(parts, axis=-1)[..., -1]


def _integral(parts):
    """The integral over [0, 1) from its panels, summed in order.  Raises
    MomentDivergenceError if a tail panel is not finite, or is no smaller
    than the one before it while adding more than 1e-9 of the total so far."""
    total = np.cumsum(parts)
    tail = parts[_JOIN + 1:]
    stalled = (np.abs(tail) >= np.abs(np.append(math.inf, tail[:-1]))) & (
        np.abs(tail) > 1e-9 * np.maximum(np.abs(total[_JOIN:-1]), 1e-300))
    if np.any(stalled | ~np.isfinite(tail)):
        raise MomentDivergenceError("quantile integral diverges near u = 1")
    return float(total[-1])


def quantile_mean(quantile_fn):
    """Mean as the integral of the quantile function over [0, 1)."""
    return _integral(_panels(quantile_fn, _edges(1.0)))


def quantile_lorenz(u, quantile_fn, mean):
    """Generic Lorenz curve L(u) = (1/mean) * integral of the quantile to u,
    for a scalar or an array u."""
    if not math.isfinite(mean) or mean == 0.0:
        raise DegenerateNormalizationError(
            f"Lorenz curve needs a finite nonzero mean, got {mean}")

    def block(v):
        parts = _panels(quantile_fn, _edges(v))
        return (_in_order(parts[:, :_JOIN]) + _in_order(parts[:, _JOIN + 1:])) / mean

    return _lorenz_at(u, "quantile_lorenz", lambda v: np.concatenate(
        [block(v[i:i + _LORENZ_BLOCK]) for i in range(0, v.size, _LORENZ_BLOCK)]))


def quantile_gini(quantile_fn):
    """Generic Gini 1 - 2 * integral of L; computed as 1 - (2/m) E[(1-U) Q(U)]."""
    # the integrands of the mean, Q, and of E[(1-U) Q(U)], from one call
    both = lambda t: quantile_fn(t) * np.stack((np.ones_like(t), 1.0 - t))
    parts = _panels(both, _edges(1.0))
    mean = _integral(parts[0])
    if not math.isfinite(mean) or mean == 0.0:
        raise DegenerateNormalizationError(
            f"Gini needs a finite nonzero mean, got {mean}")
    return 1.0 - 2.0 * _integral(parts[1]) / mean


# ---------------------------------------------------------------------------
# base family indices


def _require_curve(p: KappaGenParams):
    if p.kappa > 0.0 and not p.alpha / p.kappa > 1.0:
        raise CurveNonexistenceError(
            f"Lorenz curve exists only for alpha/kappa > 1, got {p.alpha / p.kappa}")


def kgen_lorenz(u, p: KappaGenParams):
    """Closed-form Lorenz curve of the base model; needs alpha/kappa > 1."""
    _require_curve(p)
    a, k = p.alpha, p.kappa

    def interior(v):
        if k < _TINY_KAPPA:
            return reg_lower_inc_gamma(1.0 + 1.0 / a, -np.log1p(-v))
        pa, pb = 1.0 + 1.0 / a, 1.0 / (2.0 * k) - 1.0 / (2.0 * a)
        log_y = 2.0 * k * np.log1p(-v)  # y = (1-u)^(2k) = 1 - X
        vals = np.empty_like(v)
        # complement form keeps the deep upper tail when X collides with 1
        low = log_y > math.log(0.5)
        vals[low] = reg_inc_beta(-np.expm1(log_y[low]), pa, pb)
        vals[~low] = 1.0 - reg_inc_beta(np.exp(log_y[~low]), pb, pa)
        return vals

    return _lorenz_at(u, "kgen_lorenz", interior)


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
    m_neg = kgen_mean(p.negative_branch)
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
    s, lam = p.negative_branch.shape, p.negative_branch.scale
    th1, rho = p.theta1, p.rho

    def interior(v):
        out = np.full_like(v, -(th1 / m) * m_neg)  # the flat branch
        lower, upper = v < th1, v > rho
        # partial Weibull mean: an upper incomplete gamma the base model lacks
        out[lower] = -(lam * th1 / m) * upper_inc_gamma(1.0 + 1.0 / s, np.log(th1 / v[lower]))
        if np.any(upper):  # only then need the positive branch have a curve
            w = (v[upper] - rho) / (1.0 - rho)
            pos_lorenz = np.asarray(kgen_lorenz(w, p.positive_branch), dtype=float)
            out[upper] = (p.theta3 * m_pos * pos_lorenz - th1 * m_neg) / m
        return out

    return _lorenz_at(u, "mixture_lorenz", interior)


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
    return _lorenz_at(u, "ekg2_lorenz", lambda v: reg_inc_beta(
        inv_reg_inc_beta(v, p.p, p.q), p.p + 1.0 / p.a, b2))


# ---------------------------------------------------------------------------
# empirical counterparts


# the population shares at which the goodness of fit compares Lorenz curves
DECILES = np.arange(1, 10) / 10.0


@dataclass(frozen=True)
class EmpiricalLorenzSummary:
    """What the goodness of fit and the empirical Gini read of an empirical
    Lorenz curve: its ordinates at DECILES and its trapezoid-rule Gini."""

    ordinates: np.ndarray
    gini: float


def _runs(sample: WeightedSample):
    """(weights, weighted values) summed over each run of equal values of
    sample.nonzero in ascending order, one _BLOCK of records at a time, with
    whether the block is the last; sample.nonzero.ascending is the only
    sort, and each block a slice of it.  A block's last run is held back
    as one record in front of the next block, so a run that a block
    boundary cuts is still one run."""
    ascending, ascending_weights = sample.nonzero.ascending
    held = None  # the value, weight and weighted value of the run held back
    for part in _blocks(ascending.size):
        values, weights = ascending[part], ascending_weights[part]
        weighted = values * weights
        if held is not None:
            values, weights, weighted = (np.concatenate(((h,), a)) for h, a in
                                         zip(held, (values, weights, weighted)))
        changes = values[1:] != values[:-1]
        if not changes.all():  # a tie: sum each run of equal values
            start = np.flatnonzero(np.concatenate(([True], changes)))
            values = values[start]
            weights = np.add.reduceat(weights, start)
            weighted = np.add.reduceat(weighted, start)
        last = part.stop >= ascending.size
        if not last:
            held = values[-1], weights[-1], weighted[-1]
            weights, weighted = weights[:-1], weighted[:-1]
        if weights.size:
            yield weights, weighted, last


def _lorenz_blocks(sample: WeightedSample):
    """The points (u, L) of the empirical Lorenz curve of sample.nonzero,
    one block of _runs (slices of sample.nonzero.ascending, the only sort)
    at a time, as (k + 1, 2) arrays that start at the point before the
    block ((0, 0) for the first) and end, in the last block, at exactly
    (1, 1).  A first walk takes the total weight and
    weighted value, a second the cumulative shares, taking the first walk's
    last block as it is (a sample of one block is walked once): each
    block's cumulative sums are one np.cumsum with the running sums added
    to its first run, the same sequential fold as a cumsum of all runs, so
    a sample of one block gives the single-array curve bit for bit."""
    total_w = total_xw = 0.0
    walked = 0
    for runs in _runs(sample):
        total_w += runs[0].sum()
        total_xw += runs[1].sum()
        walked += 1
    if total_xw == 0.0:
        raise DegenerateNormalizationError("sample mean is zero; Lorenz undefined")
    before, carry = np.zeros(2), np.zeros(2)  # the point before a block, and its sums
    for weights, weighted, last in itertools.chain(
            itertools.islice(_runs(sample), walked - 1), (runs,)):
        points = np.empty((weights.size + 1, 2))
        points[0] = before
        points[1:, 0] = weights
        points[1:, 1] = weighted
        points[1] += carry
        np.cumsum(points[1:], axis=0, out=points[1:])
        carry = points[-1].copy()
        points[1:] /= (total_w, total_xw)
        if last:
            points[-1] = 1.0
        before = points[-1]
        yield points


def empirical_lorenz(sample: WeightedSample):
    """Weight-sorted cumulative-share Lorenz curve of sample.nonzero, the
    records of nonzero weight, whose cached ascending copy is the only sort
    (a fit of the same sample shares it).  Equal values are grouped before
    cumulating; weights are normalized to sum to one.  The whole curve, for
    plotting; the goodness of fit and the Gini read empirical_lorenz_summary."""
    blocks = [points[i > 0:] for i, points in enumerate(_lorenz_blocks(sample))]
    return LorenzCurve(points=np.concatenate(blocks), source="empirical")


def empirical_lorenz_summary(sample: WeightedSample):
    """The empirical Lorenz curve's ordinates at DECILES (linear
    interpolation, as LorenzCurve.interpolate) and its trapezoid-rule Gini,
    one minus twice the area under it, from one blocked walk that holds a
    block of the curve at a time, never the whole (n + 1) x 2 curve.  Each
    block starts at the point before it, so every decile is interpolated
    between the same two points as on the whole curve, and the trapezoids
    are summed block by block in order."""
    ordinates = np.empty(DECILES.size)
    area = 0.0
    for points in _lorenz_blocks(sample):
        u, ell = points[:, 0], points[:, 1]
        area += np.sum(np.diff(u) * (ell[1:] + ell[:-1]))
        here = (DECILES > u[0]) & (DECILES <= u[-1])
        ordinates[here] = np.interp(DECILES[here], u, ell)
    return EmpiricalLorenzSummary(ordinates, 1.0 - float(area))


def empirical_gini(sample: WeightedSample):
    """Trapezoid-rule Gini of the empirical Lorenz curve, from
    empirical_lorenz_summary's blocked walk."""
    return empirical_lorenz_summary(sample).gini
