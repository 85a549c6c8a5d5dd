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

from .deformed import _asarray, _blocks, _restore
from .errors import DomainError


def log_gamma(z):
    """Natural log of the gamma function for z > 0."""
    if isinstance(z, float):  # the same ufunc, without the array round trip
        if not z > 0.0:
            raise DomainError("log_gamma requires z > 0")
        return float(sc.gammaln(z))
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


def trigamma(z):
    """Trigamma psi'(z), the derivative of digamma, for z > 0."""
    arr, scalar = _asarray(z)
    if np.any(~(arr > 0.0)):
        raise DomainError("trigamma requires z > 0")
    return _restore(sc.polygamma(1, arr), scalar)


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
    when there are more of them than its table has nodes: a tabulated start
    and one Halley step whose residual integrates the beta density from the
    nearest node by Gauss-Legendre quadrature (Derflinger, Hoermann &
    Leydold 2010), so that betainc is evaluated at the nodes and not at each
    entry.  Those with subnormal u come from _subnormal_inverse
    (betaincinv's answer there can be off by a factor of 2); everything
    else, scalars included, comes from betaincinv.
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
# A Halley step cannot beat the error of the betainc values that anchor its
# residual at the nodes, which reaches ~2000 ulp for some shapes, e.g.
# (43.5, 8); the table is kept only where betainc reproduces every node to
# this many ulp of z.
_BETAINC_ULPS = 32.0
# A twentieth of an ulp, relative: the most that the quadrature may add to
# the residual, and the Halley step to z, before an entry takes betainc or
# betaincinv instead.
_TWENTIETH_ULP = 1e-17
# The residual's increment from the nearer node is an m-point Gauss-Legendre
# rule in s = ln t.  On an interval of width w its error is
# c_m w^(2m+1) F^(2m)(xi), c_m = (m!)^4 / ((2m + 1) ((2m)!)^3)
# (Abramowitz & Stegun 25.4.30).
_GL_M = 4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_M)  # on [-1, 1]
_GL_S, _GL_W = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS  # on [0, 1]
_GL_CONST = math.factorial(_GL_M) ** 4 / ((2 * _GL_M + 1) * math.factorial(2 * _GL_M) ** 3)


def _density_increment(a, b, ln_beta, y, width):
    """I_z(a, b) - I_t(a, b) for ln t = y and ln z = y + width, by the m-point
    Gauss-Legendre rule for the integral of t f(t) over s = ln t, f the beta
    density."""
    s = np.multiply.outer(_GL_S, width)
    s += y
    # ln(-expm1(s)) keeps ln(1 - e^s) to an ulp or so as t -> 1, where
    # 1 - exp(s) would lose digits
    log_w = np.expm1(s)
    np.negative(log_w, out=log_w)
    np.log(log_w, out=log_w)
    log_w *= b - 1.0
    s *= a
    s += log_w
    s -= ln_beta
    np.exp(s, out=s)
    return width * (_GL_W @ s)


def _polylog_numerators(count):
    """P_k with sum_(n >= 1) n^(k-1) t^n = P_k(t) / (1 - t)^k for k = 1..count,
    from P_1 = t and P_(k+1) = t ((1 - t) P_k' + k P_k), which is t d/dt of
    the sum."""
    t = np.polynomial.Polynomial([0.0, 1.0])
    out = [t]
    for k in range(1, count):
        out.append(t * ((1.0 - t) * out[-1].deriv() + k * out[-1]))
    return out


_POLYLOG = _polylog_numerators(2 * _GL_M)


def _quadrature_rate(a, b, zn, y):
    """Per table interval [z_i, z_(i+1)], a rate R such that the Gauss-Legendre
    increment Q over any [ln z_j, ln z] of width w inside it errs by at most
    (w R)^(2m) |Q|.

    The integrand is F = e^phi, phi(s) = a s + (b - 1) ln(1 - e^s) - ln B, so
    phi' = a - (b - 1) t / (1 - t), monotone in t, and for k >= 2
    |phi^(k)| = |b - 1| sum_n n^(k-1) t^n, increasing in t.  Their largest
    values on the interval, at its nodes, bound |F^(2m)| / F by the complete
    Bell polynomial Y_2m of them (its coefficients are positive), and max F
    by e^(w |phi'|) |Q| / w.
    """
    t1 = zn[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.abs(a - (b - 1.0) * zn / (1.0 - zn))
        big = np.maximum(slope[:-1], slope[1:])
        bounds = [big] + [abs(b - 1.0) * p(t1) / (1.0 - t1) ** k
                          for k, p in enumerate(_POLYLOG[1:], 2)]
        bell = [np.ones_like(t1)]  # Y_(n+1) = sum_i C(n, i) Y_(n-i) bound_(i+1)
        for n in range(2 * _GL_M):
            bell.append(sum(math.comb(n, i) * bell[n - i] * bounds[i] for i in range(n + 1)))
        return (_GL_CONST * bell[-1] * np.exp(np.diff(y) * big)) ** (1.0 / (2 * _GL_M))


def _quadrature_bound(width, rate, increment):
    """_quadrature_rate's bound (w R)^(2m) |Q|, the power 2m = 8 by squaring
    three times."""
    return np.square(np.square(np.square(width * rate))) * np.abs(increment)


def _anchor_corrections(a, b, ln_beta, zn, y, un, i_nodes, rate):
    """Per node j, c_j with I(z_j) = i_nodes_j + c_j: the mean of betainc at
    z_j and at its neighbours, each carried to z_j by the rule across the
    interval between where the rule's bound allows.  betainc's errors at
    distinct nodes are independent, and the mean error of the nodes against
    30-digit mpmath falls to 0.6-0.85 of betainc's at (50, 50), (1.2, 2),
    (5, 0.3) and (2, 1.2).  c_j is kept apart from i_nodes_j so that
    I(z_j) - u stays exact."""
    width = np.log1p(np.diff(zn) / zn[:-1])
    rise = _density_increment(a, b, ln_beta, y[:-1], width)  # I(z_(i+1)) - I(z_i)
    ok = _quadrature_bound(width, rate, rise) < _TWENTIETH_ULP * un[:-1]
    # the node below carried up, less the node above
    gap = np.where(ok, (i_nodes[:-1] - i_nodes[1:]) + rise, 0.0)
    total = np.zeros_like(i_nodes)
    total[1:] += gap
    total[:-1] -= gap
    count = np.ones_like(i_nodes)
    count[1:] += ok
    count[:-1] += ok
    return total / count


def _tabulated_inverse(u, a, b):
    """z with I_z(a, b) = u for a 1-d array of 0 < u <= 1/2, or None when u
    has no more entries than the table would have nodes, or when betainc
    misses a node's u by more than _BETAINC_ULPS ulp of z.

    Fast numerical inversion (Hoermann & Leydold 2003): nodes equally
    spaced in ln u from min(u) to ln 1/2 take z from betaincinv and the
    exact slope d ln z / d ln u = u / (z f(z)), f the beta density; a cubic
    Hermite interpolant in (ln u, ln z) gives each start z0, and one Halley
    step on g(z) = I_z(a, b) - u, with g''/g' = (a-1)/z - (b-1)/(1-z),
    polishes it.

    The residual needs no betainc per entry (the density-integration step of
    Derflinger, Hoermann & Leydold 2010, the PINV method):
    g(z0) = (I(z_j) - u) + (c_j + Q), where z_j is the node nearer z0 in
    ln u, I(z_j) the betainc value that the node check computes, c_j its
    correction from _anchor_corrections, and Q an m-point Gauss-Legendre
    rule for the integral of t f(t) over s = ln t in [ln z_j, ln z0].
    I(z_j) - u is exact, and _quadrature_rate bounds Q's error; where that
    bound is not below a twentieth of an ulp of u, the entry takes
    betainc's residual instead.

    Halley's error after a step of size d is about
    |rho^2/12 - rho'/6| d^3 (rho = g''/g'); where that bound is not below
    a twentieth of an ulp of z (starts near a pole of rho, or too far for
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
    i_nodes = sc.betainc(a, b, zn)
    miss = np.abs(i_nodes - un) / un * np.minimum(1.0, h_slope / step)
    if not miss.max() <= _BETAINC_ULPS * np.finfo(float).eps:
        return None
    dy = np.diff(y)
    # y(t) = y_i + t (c1 + t (c2 + t c3)) on interval i, t in [0, 1]; column
    # 2i of the table holds it from node i for t < 1/2, column 2i + 1 from
    # node i + 1 in t - 1, each with that node's z, I(z) and correction and
    # the interval's quadrature rate
    c2 = 3.0 * dy - 2.0 * h_slope[:-1] - h_slope[1:]
    c3 = h_slope[:-1] + h_slope[1:] - 2.0 * dy
    rate = _quadrature_rate(a, b, zn, y)
    corr = _anchor_corrections(a, b, ln_beta, zn, y, un, i_nodes, rate)
    table = np.empty((8, 2 * n))
    table[:, 0::2] = y[:-1], h_slope[:-1], c2, c3, zn[:-1], i_nodes[:-1], corr[:-1], rate
    table[:, 1::2] = y[1:], h_slope[1:], c2 + 3.0 * c3, c3, zn[1:], i_nodes[1:], corr[1:], rate
    out = np.empty_like(u)
    for part in _blocks(u.size):  # entries polished at a time, to bound the temporaries
        up = u[part]
        pos = (ln_u[part] - lo) / step
        column = np.minimum((2.0 * pos).astype(np.intp), 2 * n - 1)
        tau = pos - (column + 1) // 2  # from the nearer node, in node spacings
        y_j, c1, c2, c3, z_j, i_j, corr_j, rate_j = (np.take(row, column) for row in table)
        lnz = y_j + tau * (c1 + tau * (c2 + tau * c3))
        z = np.exp(lnz)
        # ln z - ln z_j to an ulp of itself: z - z_j is exact, z and z_j being
        # within a factor of 2, and neither log's rounding enters
        width = np.log1p((z - z_j) / z_j)
        increment = _density_increment(a, b, ln_beta, y_j, width)
        g = (i_j - up) + (corr_j + increment)
        coarse = ~(_quadrature_bound(width, rate_j, increment) < _TWENTIETH_ULP * up)
        if coarse.any():
            g[coarse] = sc.betainc(a, b, z[coarse]) - up[coarse]
        density = np.exp((a - 1.0) * lnz + (b - 1.0) * np.log1p(-z) - ln_beta)
        newton = g / density
        rho = (a - 1.0) / z - (b - 1.0) / (1.0 - z)
        halley = newton / (1.0 - 0.5 * newton * rho)
        d_rho = (1.0 - a) / (z * z) + (1.0 - b) / ((1.0 - z) * (1.0 - z))
        error = np.abs(rho * rho / 12.0 - d_rho / 6.0) * np.abs(halley) ** 3
        z -= halley
        far = ~(error <= _TWENTIETH_ULP * z)
        if far.any():
            z[far] = sc.betaincinv(a, b, up[far])
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
