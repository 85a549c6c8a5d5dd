"""Deformed exponential and logarithm core.

The one-parameter deformation exp_k(x) = (sqrt(1 + k^2 x^2) + k x)^(1/k)
interpolates between the ordinary exponential (k -> 0) and power-law
asymptotics |2kx|^(+-1/|k|).  All functions here are pure, accept scalars
or numpy arrays, and saturate to inf/0 instead of raising on overflow.

Everything is computed through exp(arcsinh(k*x)/k), which is stable over
the whole real line; the direct radical form cancels catastrophically for
large |k*x|, and keeps its relative precision down to the smallest k > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny  # the smallest normal double


def _check_kappa(kappa):
    """Validate a deformation parameter; |kappa| < 1, sign-symmetric."""
    k = float(kappa)
    if not math.isfinite(k) or not -1.0 < k < 1.0:
        raise DomainError(f"deformation parameter must satisfy |kappa| < 1, got {kappa}")
    return abs(k)


def _asarray(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _restore(arr, scalar):
    return float(arr) if scalar else arr


# Records per block of every pass over a sample's records (the kernel and
# value passes, the initializer, the empirical Lorenz walk, the sample
# writer and the samplers' quantiles, whose tabulated incomplete-beta
# inverse polishes a quarter block at a time): a fixed size, so that
# results do not depend on the machine.  Of 2^12, 2^14, 2^16 and the whole
# array, a base-model kernel pass over 10^6 records was fastest at 2^14.
# A sample of at most one block takes one call.
_BLOCK = 1 << 14


def _blocks(n):
    """Slices of _BLOCK consecutive indices covering range(n), in order."""
    return (slice(k, k + _BLOCK) for k in range(0, n, _BLOCK))


def _scaled(f, x, k):
    """f(k x)/k for an odd f with f(t) = t + O(t^3); its limit x, exact there,
    is taken at k = 0 and where k x underflows below the smallest normal."""
    if k == 0.0:
        return x + 0.0
    t = np.asarray(k * x)
    small = np.abs(t) < _TINY
    with np.errstate(over="ignore"):
        out = f(t, out=t)
        out /= k
    if small.any():
        out[small] = x[small]
    return out


def log_kappa_exp(x, kappa):
    """Natural logarithm of the deformed exponential, arcsinh(k*x)/k.

    The k -> 0 limit is x itself, taken exactly at k = 0 (see _scaled).
    """
    k = _check_kappa(kappa)
    arr, scalar = _asarray(x)
    return _restore(_scaled(np.arcsinh, arr, k), scalar)


def kappa_exp(x, kappa):
    """Deformed exponential exp_k(x); strictly increasing, positive.

    Values beyond the floating range saturate to inf (or 0 on the other
    side); callers must treat those as valid limits.
    """
    with np.errstate(over="ignore"):
        out = np.exp(np.asarray(log_kappa_exp(x, kappa), dtype=float))
    _, scalar = _asarray(x)
    return _restore(out, scalar)


def kappa_log(x, kappa):
    """Deformed logarithm (x^k - x^-k) / (2k), the inverse of kappa_exp.

    Requires x > 0.  Evaluated as sinh(k*ln(x))/k, which is ln(x) at k = 0
    and avoids the cancellation in the power difference.
    """
    k = _check_kappa(kappa)
    arr, scalar = _asarray(x)
    if np.any(~(arr > 0.0)):
        raise DomainError("kappa_log requires x > 0")
    return _restore(_scaled(np.sinh, np.log(arr), k), scalar)


def kappa_sum(x, y, kappa):
    """Deformed addition under which kappa_exp factorizes.

    x (+) y = x*sqrt(1 + k^2 y^2) + y*sqrt(1 + k^2 x^2); commutative with
    identity element 0, and kappa_exp(x (+) y) = kappa_exp(x)*kappa_exp(y).
    """
    k = _check_kappa(kappa)
    xa, xs = _asarray(x)
    ya, ys = _asarray(y)
    out = xa * np.sqrt(1.0 + (k * ya) ** 2) + ya * np.sqrt(1.0 + (k * xa) ** 2)
    return _restore(out, xs and ys)


def xi_coefficients(n_max, kappa):
    """Taylor coefficients xi_0 .. xi_n_max of the deformed exponential.

    Generated by xi_{n+2} = (1 - n^2 k^2) xi_n with xi_0 = xi_1 = 1.
    """
    k = _check_kappa(kappa)
    n = int(n_max)
    if n != n_max or n < 0:
        raise DomainError(f"n_max must be a nonnegative integer, got {n_max}")
    xi = np.ones(n + 1)
    k2 = k * k
    for i in range(n - 1):
        xi[i + 2] = (1.0 - i * i * k2) * xi[i]
    return xi


def kappa_exp_taylor(x, kappa, n_terms):
    """Partial Taylor sum of kappa_exp with n_terms terms.

    Only defined inside the convergence region k^2 x^2 < 1.
    """
    k = _check_kappa(kappa)
    xf = float(x)
    m = int(n_terms)
    if m != n_terms or m < 1:
        raise DomainError(f"n_terms must be a positive integer, got {n_terms}")
    if (k * xf) ** 2 >= 1.0:
        raise DomainError(
            f"kappa_exp_taylor requires kappa^2 x^2 < 1, got {(k * xf) ** 2}")
    xi = xi_coefficients(m - 1, k)
    total = 0.0
    power_over_fact = 1.0  # x^n / n!
    for n in range(m):
        total += xi[n] * power_over_fact
        power_over_fact *= xf / (n + 1)
    return total


def kappa_exp_asymptote(x, kappa):
    """Power-law asymptote |2kx|^(+-1/|k|) of the deformed exponential.

    Requires kappa != 0 (no power-law regime otherwise) and x != 0.  The
    ratio kappa_exp(x)/kappa_exp_asymptote(x) tends to 1 as |x| -> inf.
    """
    k = _check_kappa(kappa)
    if k == 0.0:
        raise DomainError("kappa_exp_asymptote requires kappa != 0")
    arr, scalar = _asarray(x)
    if np.any(arr == 0.0):
        raise DomainError("kappa_exp_asymptote requires x != 0")
    sign = np.sign(arr)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(sign * np.log(2.0 * k * np.abs(arr)) / k)
    return _restore(out, scalar)
