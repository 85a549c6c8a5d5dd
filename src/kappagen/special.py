"""Gamma- and beta-family special functions.

Thin wrappers over ``scipy.special`` that keep the package's argument
order and domain checks: shape parameters (a, b) are scalars, the
evaluation point may be a scalar or a numpy array, and arguments outside
the mathematical domain raise ``DomainError`` instead of returning nan.
This module is the one place that knows which backend evaluates them.
"""

from __future__ import annotations

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
    there, e.g. 1 < a < 1.05, b < 1 and u < 5.4e-17.
    """
    a, b = _check_shapes("inv_reg_inc_beta", a, b)
    arr, scalar = _asarray(u)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("inv_reg_inc_beta requires 0 <= u <= 1")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x0 = (arr * (a * sc.beta(a, b))) ** (1.0 / a)
        series = x0 * (1.0 - (1.0 - b) * x0 / (a + 1.0))
        out = np.where(x0 * (1.0 + abs(1.0 - b)) < 1e-9, series, sc.betaincinv(a, b, arr))
    return _restore(out, scalar)


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
