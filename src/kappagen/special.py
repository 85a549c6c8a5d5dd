"""Gamma- and beta-family special functions.

Thin wrappers over ``scipy.special`` that keep the package's argument
order and domain checks: shape parameters (a, b) are scalars, the
evaluation point may be a scalar or a numpy array, and arguments outside
the mathematical domain raise ``DomainError`` instead of returning nan.
This module is the one place that knows which backend evaluates them.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as sc

from .deformed import _BLOCK, _asarray, _restore
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


# Stirling's series: Binet's remainder ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2
# is w sum_j B_2j w^(2j - 2) / (2j (2j - 1)) at w = 1/z, within 3e-17 for z >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _binet(w):
    return w * sum(coef * w ** (2 * j) for j, coef in enumerate(_STIRLING))


def _log_beta(a, b):
    """ln B(a, b) for a, b > 0.  Below max(a, b) = 10 it is ln Gamma(a) +
    ln Gamma(b) - ln Gamma(a + b), within an ulp or two of each term there.
    From 10 on, with s = min(a, b) and t = max(a, b), ln Gamma(t) -
    ln Gamma(t + s) is the difference of their Stirling expansions,
    s - (t - 1/2) log1p(s/t) - s ln(t + s) + B(1/t) - B(1/(t + s)), B
    Binet's remainder (within 3e-17 from 10 on): nothing of the size of
    ln Gamma(t) cancels, so for t >> s the error stays near eps s ln(t + s)
    where the three-term form's grows as eps t ln t.  scipy's betaln is
    1.1e-14 relative off at (0.05, 50); this is within 4 ulp of
    max(|ln B|, 1) there."""
    s, t = min(a, b), max(a, b)
    if t < 10.0:
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    return (log_gamma(s) + (s - (t - 0.5) * math.log1p(s / t)) - s * math.log(t + s)
            + (_binet(1.0 / t) - _binet(1.0 / (t + s))))


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
    """Inverse of reg_inc_beta in its first argument, elementwise: an entry's
    root does not depend on the other entries of the call.

    Where the root x is tiny it comes from the two-term expansion
    I_x(a, b) = x^a / (a B(a, b)) * (1 + a (1 - b) x / (a + 1) + O(x^2)),
    which is exact in double once x0 (1 + |1 - b|) < 1e-9 (x0 the
    leading-term root), with B from _log_beta.  scipy's betaincinv returns
    nan for some shapes there, e.g. 1 < a < 1.05, b < 1 and u < 5.4e-17.
    Where u a B falls below the normal range, x0 comes from logarithms
    instead.

    The other entries with 2^-64 <= u <= 1/2 come from _tabulated_inverse,
    whatever the size of the call: a tabulated start on the shape's fixed
    grid and one Halley step whose residual integrates the beta density from
    the nearest node by Gauss-Legendre quadrature (Derflinger, Hoermann &
    Leydold 2010), so that betainc is evaluated at the nodes, once per shape,
    and not at each entry.  Those with subnormal u come from
    _subnormal_inverse (betaincinv's answer there can be off by a factor of
    2); everything else comes from betaincinv.
    """
    a, b = _check_shapes("inv_reg_inc_beta", a, b)
    arr, scalar = _asarray(u)
    flat = arr.reshape(-1)
    if not (flat.min(initial=0.5) >= 0.0 and flat.max(initial=0.5) <= 1.0):
        raise DomainError("inv_reg_inc_beta requires 0 <= u <= 1")
    ln_beta = _log_beta(a, b)
    rest = np.ones(flat.shape, dtype=bool)  # the entries not yet answered
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # x0 grows with u, and from the u where it is twice the series'
        # threshold on, no entry needs it; subnormal u all do
        cut = np.exp(a * math.log(2e-9 / (1.0 + abs(1.0 - b))) - math.log(a) - ln_beta)
        small = np.flatnonzero(flat < max(cut, _TINY))
        us = flat.take(small)
        lead = us * (a * np.exp(ln_beta))
        x0 = lead ** (1.0 / a)
        # below the normal range the product u a B has lost digits, or is 0
        low = (lead < _TINY) & (us > 0.0)
        if low.any():
            x0 = np.where(low, np.exp((np.log(us) + math.log(a) + ln_beta) / a), x0)
        series = x0 * (1.0 + abs(1.0 - b)) < 1e-9
        head = x0 * (1.0 - (1.0 - b) * x0 / (a + 1.0))
        sub = ~series & (us < _TINY)
        if sub.any():
            head[sub] = _subnormal_inverse(us[sub], x0[sub], a, b)
        rest[small[series | sub]] = False
        lower = np.flatnonzero(rest & (flat >= _TABLE_FLOOR) & (flat <= 0.5))
        z = _tabulated_inverse(flat.take(lower), a, b) if lower.size else None
        # made after the table's call, so as not to add to its peak
        out = np.empty_like(flat)
        out[small] = head  # the table and betaincinv overwrite the entries left
        if z is not None:
            out[lower] = z
            rest[lower] = False
        rest = np.flatnonzero(rest)
        out[rest] = sc.betaincinv(a, b, flat.take(rest))
    return _restore(out.reshape(arr.shape), scalar)


def _subnormal_inverse(u, z, a, b):
    """z with I_z(a, b) = u for subnormal u, by Newton's method in ln z from
    the leading-term root z on
    ln I_z = a ln z + b ln(1 - z) - ln a - ln B(a, b) + ln F,
    F = 2F1(a + b, 1; a + 1; z) (DLMF 8.17.8), whose slope in ln z is
    a / ((1 - z) F).  Each step is capped at halving |ln z|, so z stays in
    (0, 1), and each entry stops at its own last step."""
    ln_u = np.log(u)
    ln_lead = math.log(a) + _log_beta(a, b)
    y = np.log(z)
    active = np.arange(y.size)
    for _ in range(20):  # two to five steps at the shapes tested
        ya = y[active]
        z = np.exp(ya)
        f = sc.hyp2f1(a + b, 1.0, a + 1.0, z)
        step = (a * ya + b * np.log1p(-z) - ln_lead + np.log(f) - ln_u[active]) * (1.0 - z) * f / a
        ya = np.minimum(ya - step, 0.5 * ya)
        y[active] = ya
        active = active[~(np.abs(step) <= np.finfo(float).eps * np.abs(ya))]
        if not active.size:
            break
    return np.exp(y)


_TINY = np.finfo(float).tiny
_LN_HALF = math.log(0.5)
# Below u = 2^-64 the residuals after a Halley step on betainc drift from
# betaincinv's (by ~26 ulp of z near u = e^-50, ~100 below e^-100), and the
# table would need more than 1400 nodes.
_TABLE_FLOOR = 2.0 ** -64
_NODE_STEP = 1.0 / 32.0  # table spacing in ln u
# Every shape's table has the same nodes: ln u = _TABLE_LOW + k _NODE_STEP,
# k = 0..1398, the first at or below ln 2^-64 and the last at ln 1/2.
_TABLE_INTERVALS = math.ceil((_LN_HALF - math.log(_TABLE_FLOOR)) / _NODE_STEP)
_TABLE_LOW = _LN_HALF - _TABLE_INTERVALS * _NODE_STEP
# A Halley step cannot beat the error of the betainc values that anchor its
# residual at the nodes, which reaches ~2000 ulp for some shapes, e.g.
# (43.5, 8); an interval of the table is kept only where betainc reproduces
# both its nodes to this many ulp of z.
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
# Entries polished at a time: a quarter block, so that a polish's
# temporaries, the table's eight lookups among them, stay within a few
# blocks' bytes.
_POLISH = _BLOCK // 4


def _density_increment(a, b, ln_beta, y, width):
    """I_z(a, b) - I_t(a, b) for ln t = y and ln z = y + width, by the m-point
    Gauss-Legendre rule for the integral of t f(t) over s = ln t, f the beta
    density.  The terms are summed in a fixed order, node by node, so that
    an entry's value does not depend on the others (a matrix product's
    rounding does)."""
    total = np.zeros_like(width)
    for node, weight in zip(_GL_S, _GL_W):
        s = width * node
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
        s *= weight
        total += s
    total *= width
    return total


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


@functools.lru_cache(maxsize=8)
def _shape_table(a, b):
    """(table, declined, ln B(a, b)) for _tabulated_inverse at the shape
    (a, b), built at its first use and cached for the last 8 shapes (179 kB
    each); None when no interval of the grid is usable.

    Fast numerical inversion (Hoermann & Leydold 2003): the nodes, equally
    spaced in ln u from _TABLE_LOW to ln 1/2, take z from betaincinv and the
    exact slope d ln z / d ln u = u / (z f(z)), f the beta density, for a
    cubic Hermite interpolant in (ln u, ln z).  betainc at the nodes gives
    the anchors of the residual.  A node passes the check where betainc
    reproduces its u to _BETAINC_ULPS ulp of z, and an interval is usable
    where both its nodes pass; a failing node anchors no correction.
    Column 2i of the table holds interval i from node i, for the half
    t < 1/2 of it, and column 2i + 1 from node i + 1 in t - 1: the rows are
    that node's ln z and the interpolant's coefficients c1, c2, c3 in
    y(t) = y_node + t (c1 + t (c2 + t c3)), then its z, I(z) and correction,
    and the interval's quadrature rate.  declined marks the columns of the
    unusable intervals, or is None when every interval is usable.
    """
    n = _TABLE_INTERVALS
    nodes = _TABLE_LOW + _NODE_STEP * np.arange(n + 1)
    ln_beta = _log_beta(a, b)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        un = np.exp(nodes)
        zn = sc.betaincinv(a, b, un)
        y = np.log(zn)
        h_slope = _NODE_STEP * np.exp(nodes - a * y - (b - 1.0) * np.log1p(-zn) + ln_beta)
        i_nodes = sc.betainc(a, b, zn)
        miss = np.abs(i_nodes - un) / un * np.minimum(1.0, h_slope / _NODE_STEP)
        passed = miss <= _BETAINC_ULPS * np.finfo(float).eps
        usable = passed[:-1] & passed[1:]
        if not usable.any():
            return None
        dy = np.diff(y)
        c2 = 3.0 * dy - 2.0 * h_slope[:-1] - h_slope[1:]
        c3 = h_slope[:-1] + h_slope[1:] - 2.0 * dy
        rate = _quadrature_rate(a, b, zn, y)
        # no rate, no carried anchor: an unusable interval links no nodes
        corr = _anchor_corrections(a, b, ln_beta, zn, y, un, i_nodes,
                                   np.where(usable, rate, np.nan))
        table = np.empty((8, 2 * n))
        table[:, 0::2] = y[:-1], h_slope[:-1], c2, c3, zn[:-1], i_nodes[:-1], corr[:-1], rate
        table[:, 1::2] = y[1:], h_slope[1:], c2 + 3.0 * c3, c3, zn[1:], i_nodes[1:], corr[1:], rate
    declined = None if usable.all() else np.repeat(~usable, 2)
    for cached in (table, declined):
        if cached is not None:
            cached.flags.writeable = False
    return table, declined, ln_beta


def _tabulated_inverse(u, a, b):
    """z with I_z(a, b) = u for a 1-d array of 2^-64 <= u <= 1/2, or None
    when the node check leaves the shape no usable interval (_shape_table).
    Each entry's root depends on its u and the shape alone.

    Each start z0 comes from the shape's table, and one Halley step on
    g(z) = I_z(a, b) - u, with g''/g' = (a-1)/z - (b-1)/(1-z), polishes it.
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
    one step), the entry goes back to betaincinv, and so does every entry
    in an interval that the node check declined.  At spacing 1/32 the
    bound sends back ~5% of the entries at shapes (0.05, 0.05) and none at
    (0.1, 0.1) or (2, 1.2).
    """
    shape = _shape_table(a, b)
    if shape is None:
        return None
    table, declined, ln_beta = shape
    out = np.empty_like(u)
    for k in range(0, u.size, _POLISH):  # a quarter block at a time, to bound the temporaries
        out[k:k + _POLISH] = _polish(u[k:k + _POLISH], a, b, table, declined, ln_beta)
    return out


def _polish(up, a, b, table, declined, ln_beta):
    """_tabulated_inverse's roots for the entries up: the table's start, its
    residual and the Halley step, with the entries that a bound or the node
    check sends back answered by betainc's residual or by betaincinv.

    It works in place: each array below is pos or one of the take's eight
    rows, given a new name (out=) once its old value is used up.  The same
    expressions written plainly hold 1.75 blocks more at the peak, which
    takes ekg2_sample at 2^18 draws from 2 arrays + 7.4 blocks to 9.1,
    past the 2 arrays + 8 blocks that tests/test_memory.py allows a
    sampler, and take 9% longer (114.2 against 104.6 ms for 10^6 draws, on
    one thread of a shared two-core x86-64 host)."""
    pos = np.log(up)
    pos -= _TABLE_LOW
    pos /= _NODE_STEP
    column = (2.0 * pos).astype(np.intp)
    np.minimum(column, 2 * _TABLE_INTERVALS - 1, out=column)
    pos -= (column + 1) // 2  # tau: from the nearer node, in node spacings
    rows = np.take(table, column, axis=1)
    off = None if declined is None else declined.take(column)
    del column
    # the take's rows are this call's own, and turn into its temporaries as
    # they are used up
    y_j, c1, c2, lnz, z_j, g, corr_j, rate_j = rows
    lnz *= pos  # y_j + tau (c1 + tau (c2 + tau c3))
    lnz += c2
    lnz *= pos
    lnz += c1
    lnz *= pos
    lnz += y_j
    z = np.exp(lnz, out=pos)
    # ln z - ln z_j to an ulp of itself: z - z_j is exact, z and z_j being
    # within a factor of 2, and neither log's rounding enters
    width = np.subtract(z, z_j, out=c1)
    width /= z_j
    np.log1p(width, out=width)
    increment = _density_increment(a, b, ln_beta, y_j, width)
    g -= up  # (I(z_j) - u) + (c_j + Q)
    corr_j += increment
    g += corr_j
    coarse = _quadrature_bound(width, rate_j, increment)
    del increment
    coarse = ~(coarse < _TWENTIETH_ULP * up)
    if off is not None:
        coarse &= ~off
    coarse = np.flatnonzero(coarse)
    if coarse.size:
        g[coarse] = sc.betainc(a, b, z.take(coarse)) - up.take(coarse)
    one_m_z = np.subtract(1.0, z, out=z_j)
    density = np.log1p(np.negative(z, out=c2), out=c2)  # ln(1 - z)
    density *= b - 1.0
    lnz *= a - 1.0
    density += lnz
    density -= ln_beta
    np.exp(density, out=density)
    newton = np.divide(g, density, out=g)
    rho = np.divide(a - 1.0, z, out=corr_j)
    rho -= np.divide(b - 1.0, one_m_z, out=density)
    halley = np.multiply(0.5, newton, out=density)
    halley *= rho
    np.subtract(1.0, halley, out=halley)
    np.divide(newton, halley, out=halley)
    # Halley's error |rho^2/12 - rho'/6| |d|^3, with
    # rho' = (1 - a)/z^2 + (1 - b)/(1 - z)^2
    d_rho = np.multiply(z, z, out=lnz)
    np.divide(1.0 - a, d_rho, out=d_rho)
    one_m_z *= one_m_z
    np.divide(1.0 - b, one_m_z, out=one_m_z)
    d_rho += one_m_z
    d_rho /= 6.0
    error = np.multiply(rho, rho, out=rho)
    error /= 12.0
    error -= d_rho
    np.abs(error, out=error)
    size = np.abs(halley, out=g)
    for _ in range(3):
        error *= size
    z -= halley
    far = ~(error <= _TWENTIETH_ULP * z)
    if off is not None:
        far |= off
    far = np.flatnonzero(far)
    if far.size:
        z[far] = sc.betaincinv(a, b, up.take(far))
    return z


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
