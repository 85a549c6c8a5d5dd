"""Gamma- and beta-family special functions.

Thin wrappers over ``scipy.special`` that keep the package's argument
order and domain checks: shape parameters (a, b) are scalars, the
evaluation point may be a scalar or a numpy array, and arguments outside
the mathematical domain raise ``DomainError`` instead of returning nan.
This module is the one place that knows which backend evaluates them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

from .deformed import _asarray, _restore
from .errors import DomainError


def log_gamma(z):
    """Natural log of the gamma function for z > 0."""
    arr, scalar = _asarray(z)
    if np.any(~(arr > 0.0)):
        raise DomainError("log_gamma requires z > 0")
    return _restore(sc.gammaln(arr), scalar)


def gamma_fn(z):
    """Gamma function on the reals; poles at nonpositive integers are errors."""
    arr, scalar = _asarray(z)
    if np.any((arr <= 0.0) & (arr == np.floor(arr))):
        raise DomainError("gamma function pole at nonpositive integer")
    return _restore(sc.gamma(arr), scalar)


def digamma(z):
    """Digamma psi(z) = Gamma'(z)/Gamma(z) for z > 0."""
    arr, scalar = _asarray(z)
    if np.any(~(arr > 0.0)):
        raise DomainError("digamma requires z > 0")
    return _restore(sc.digamma(arr), scalar)


def _check_shapes(name, a, b):
    a = float(a)
    b = float(b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"{name} requires a > 0 and b > 0")
    return a, b


def beta_fn(a, b):
    """Complete beta function B(a, b)."""
    a, b = _check_shapes("beta_fn", a, b)
    return float(sc.beta(a, b))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b) on [0, 1]."""
    a, b = _check_shapes("reg_inc_beta", a, b)
    arr, scalar = _asarray(x)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("reg_inc_beta requires 0 <= x <= 1")
    return _restore(sc.betainc(a, b, arr), scalar)


def inc_beta(x, a, b):
    """Unregularized incomplete beta B_x(a, b) = I_x(a, b) * B(a, b)."""
    return reg_inc_beta(x, a, b) * beta_fn(a, b)


def inv_reg_inc_beta(u, a, b):
    """Inverse of reg_inc_beta in its first argument.

    Where the root x is tiny it comes from the two-term expansion
    I_x(a, b) = x^a / (a B(a, b)) * (1 + a (1 - b) x / (a + 1) + O(x^2)),
    which is exact in double once x0 (1 + |1 - b|) < 1e-9 (x0 the
    leading-term root).  scipy's betaincinv returns nan for some shapes
    there, e.g. 1 < a < 1.05, b < 1 and u < 5.4e-17.  Where u a B falls
    below the normal range, x0 comes from logarithms instead.

    The other entries with 2^-64 <= u <= 1/2 come from _tabulated_inverse
    when there are more of them than its table has nodes, and those with
    subnormal u from _subnormal_inverse (betaincinv's answer there can be
    off by a factor of 2); everything else, scalars included, comes from
    betaincinv.
    """
    a, b = _check_shapes("inv_reg_inc_beta", a, b)
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("inv_reg_inc_beta requires 0 <= u <= 1")
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        lead = arr * (a * sc.beta(a, b))
        x0 = lead ** (1.0 / a)
        # below the normal range the product u a B has lost digits, or is 0
        low = (lead < _TINY) & (arr > 0.0)
        if low.any():
            x0 = np.where(low, np.exp((np.log(arr) + math.log(a) + sc.betaln(a, b)) / a), x0)
        out = np.asarray(x0 * (1.0 - (1.0 - b) * x0 / (a + 1.0)))
        rest = np.asarray(~(x0 * (1.0 + abs(1.0 - b)) < 1e-9))
        lower = rest & (arr >= _TABLE_FLOOR) & (arr <= 0.5)
        z = _tabulated_inverse(arr[lower], a, b) if lower.any() else None
        if z is not None:
            out[lower] = z
            rest &= ~lower
        sub = rest & (arr < _TINY)
        if sub.any():
            out[sub] = _subnormal_inverse(arr[sub], x0[sub], a, b)
            rest &= ~sub
        out[rest] = sc.betaincinv(a, b, arr[rest])
    return _restore(out, scalar)


def _subnormal_inverse(u, z, a, b):
    """z with I_z(a, b) = u for subnormal u, by Newton's method in ln z from
    the leading-term root z on
    ln I_z = a ln z + b ln(1 - z) - ln a - ln B(a, b) + ln F,
    F = 2F1(a + b, 1; a + 1; z) (DLMF 8.17.8), whose slope in ln z is
    a / ((1 - z) F).  Each step is capped at halving |ln z|, so z stays in
    (0, 1)."""
    ln_u = np.log(u)
    ln_lead = math.log(a) + sc.betaln(a, b)
    y = np.log(z)
    for _ in range(20):  # two to five steps at the shapes tested
        z = np.exp(y)
        f = sc.hyp2f1(a + b, 1.0, a + 1.0, z)
        step = (a * y + b * np.log1p(-z) - ln_lead + np.log(f) - ln_u) * (1.0 - z) * f / a
        y = np.minimum(y - step, 0.5 * y)
        if np.all(np.abs(step) <= np.finfo(float).eps * np.abs(y)):
            break
    return np.exp(y)


_TINY = np.finfo(float).tiny
_LN_HALF = math.log(0.5)
# Below u = 2^-64 the residuals after a Halley step on betainc drift from
# betaincinv's (by ~26 ulp of z near u = e^-50, ~100 below e^-100), and the
# table would need more than 1400 nodes.
_TABLE_FLOOR = 2.0 ** -64
_NODE_STEP = 1.0 / 32.0  # table spacing in ln u
_CHUNK = 1 << 16  # entries polished at a time, to bound the temporaries
# A Halley step on betainc cannot beat betainc's own error, which reaches
# ~2000 ulp for some shapes, e.g. (43.5, 8); the table is kept only where
# betainc reproduces every node to this many ulp of z.
_BETAINC_ULPS = 32.0


def _tabulated_inverse(u, a, b):
    """z with I_z(a, b) = u for a 1-d array of 0 < u <= 1/2, or None when u
    has no more entries than the table would have nodes, or when betainc
    misses a node's u by more than _BETAINC_ULPS ulp of z.

    Fast numerical inversion (Hoermann & Leydold 2003): nodes equally
    spaced in ln u from min(u) to ln 1/2 take z from betaincinv and the
    exact slope d ln z / d ln u = u / (z f(z)), f the beta density; a cubic
    Hermite interpolant in (ln u, ln z) gives each start z0, and one Halley
    step on g(z) = I_z(a, b) - u, with g''/g' = (a-1)/z - (b-1)/(1-z),
    polishes it.  Halley's error after a step of size d is about
    |rho^2/12 - rho'/6| d^3 (rho = g''/g'); where that bound is not below
    1e-17 z, a twentieth of an ulp (starts near a pole of rho, or too far for
    one step), the entry goes back to betaincinv.  At spacing 1/32 that
    happens to ~5% of the entries at shapes (0.05, 0.05) and to none at
    (0.1, 0.1) or (2, 1.2).
    """
    ln_u = np.log(u)
    lo = min(float(ln_u.min()), _LN_HALF - _NODE_STEP)
    n = math.ceil((_LN_HALF - lo) / _NODE_STEP)  # intervals
    if u.size <= n + 1:
        return None
    nodes = np.linspace(lo, _LN_HALF, n + 1)
    step = (_LN_HALF - lo) / n
    ln_beta = sc.betaln(a, b)
    un = np.exp(nodes)
    zn = sc.betaincinv(a, b, un)
    y = np.log(zn)
    h_slope = step * np.exp(nodes - a * y - (b - 1.0) * np.log1p(-zn) + ln_beta)
    miss = np.abs(sc.betainc(a, b, zn) - un) / un * np.minimum(1.0, h_slope / step)
    if not miss.max() <= _BETAINC_ULPS * np.finfo(float).eps:
        return None
    dy = np.diff(y)
    # y(t) = c0 + t (c1 + t (c2 + t c3)) on each interval, t in [0, 1]
    coef = np.stack([y[:-1], h_slope[:-1],
                     3.0 * dy - 2.0 * h_slope[:-1] - h_slope[1:],
                     h_slope[:-1] + h_slope[1:] - 2.0 * dy], axis=1)
    out = np.empty_like(u)
    for k in range(0, u.size, _CHUNK):
        part = slice(k, k + _CHUNK)
        pos = (ln_u[part] - lo) / step
        i = np.minimum(pos.astype(np.intp), n - 1)
        t = pos - i
        c = coef[i]
        lnz = c[:, 0] + t * (c[:, 1] + t * (c[:, 2] + t * c[:, 3]))
        z = np.exp(lnz)
        density = np.exp((a - 1.0) * lnz + (b - 1.0) * np.log1p(-z) - ln_beta)
        newton = (sc.betainc(a, b, z) - u[part]) / density
        rho = (a - 1.0) / z - (b - 1.0) / (1.0 - z)
        halley = newton / (1.0 - 0.5 * newton * rho)
        d_rho = (1.0 - a) / (z * z) + (1.0 - b) / ((1.0 - z) * (1.0 - z))
        error = np.abs(rho * rho / 12.0 - d_rho / 6.0) * np.abs(halley) ** 3
        z -= halley
        far = ~(error <= 1e-17 * z)
        if far.any():
            z[far] = sc.betaincinv(a, b, u[part][far])
        out[part] = z
    return out


def _check_gamma_args(name, a, x):
    a = float(a)
    if a <= 0.0:
        raise DomainError(f"{name} requires a > 0")
    arr, scalar = _asarray(x)
    if np.any(arr < 0.0):
        raise DomainError(f"{name} requires x >= 0")
    return a, arr, scalar


def reg_lower_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    a, arr, scalar = _check_gamma_args("reg_lower_inc_gamma", a, x)
    return _restore(sc.gammainc(a, arr), scalar)


def upper_inc_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x); Gamma(a, 0) equals Gamma(a)."""
    a, arr, scalar = _check_gamma_args("upper_inc_gamma", a, x)
    return _restore(sc.gammaincc(a, arr) * sc.gamma(a), scalar)
