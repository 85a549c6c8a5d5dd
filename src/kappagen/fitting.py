"""Weighted maximum-likelihood estimation, goodness of fit, and the family
registry.

FAMILIES describes each model once, keyed by its tag: parameter class,
CLI flags, distribution functions, Lorenz curve and Gini, and the
transform the fitting engine optimizes over.  The Weibull law is the base
model at kappa = 0 by type: WeibullParams subclasses KappaGenParams.

Every family is fitted on transformed coordinates (log for positive
parameters, logit for the tail deformation, shifted log for the extension
parameter bounded above), and every start runs one Newton stage straight
from the survival-plot initializer, and nothing else.  Every fitted family
gives it its closed-form gradient and Hessian (Family.hessian, one pass
over the records: the base model's kernel for kappagen, Weibull and, through
the chain rule on its pinned scale, the unit-mean model; ekg1's and ekg2's
own kernels), so every point the stage evaluates, a trial step's included,
is one kernel call.  loglik, loglik_hessian and a fit all sum over
sample.nonzero, the records of nonzero weight.  Once a fit has checked the
support, before its first start, the objective calls the kernel on those
records, not through loglik and loglik_hessian, so a tracer of the public
fitting functions sees no call per point.  Every pass over the records
(kernel, value, initializer) takes one deformed._BLOCK of them at a time
and adds the blocks' sums in index order (_block_sums), so its temporaries
are a block's, not the sample's.  The stage's steps take the Hessian's
eigenvalues in absolute value, so a start where the Hessian is indefinite,
as perturbed starts can be, still descends, and move at most _MAX_STEP
along any eigen-direction, so a step along near-zero curvature neither
overshoots nor stalls short of the kappa cap.
The mixture gets the stage through its two branch fits.  It stops at a
max-abs gradient of _GTOL = 1e-8.  Convergence is judged by the max-abs
gradient of the weight-normalized log-likelihood that the winning start's
stage ended on, with no further evaluation.  FitResult.diagnostics records
how each start got there.

Every fit takes one result path: _fit_transformed returns a FitResult
without goodness of fit, and each entry point (fit_mle, fit_normalized,
fit_mixture, which combines its two branch results) finishes it through
_with_gof, which attaches the goodness of fit and takes loglik from it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import WeightedSample
from .deformed import _BLOCK, _asarray, _blocks, _restore
from .distributions import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
    _ekg1_loglik_hessian,
    _ekg2_loglik_hessian,
    _kgen_loglik_hessian,
    _unit_mean_log_scale_grad,
    ekg1_ccdf,
    ekg1_cdf,
    ekg1_logpdf,
    ekg1_pdf,
    ekg1_quantile,
    ekg1_sample,
    ekg2_ccdf,
    ekg2_cdf,
    ekg2_logpdf,
    ekg2_pdf,
    ekg2_quantile,
    ekg2_sample,
    kgen_ccdf,
    kgen_cdf,
    kgen_from_normalized,
    kgen_logpdf,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    mixture_ccdf,
    mixture_cdf,
    mixture_pdf,
    mixture_sample,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    MomentDivergenceError,
    SupportViolationError,
)
from . import inequality as ineq

_SCORE_TOL = 1e-4
_MIN_EFFECTIVE_BRANCH = 30.0
_PENALTY = 1e12  # objective value where the log-likelihood cannot be evaluated
_EPS = float(np.finfo(float).eps)
_KAPPA_MAX = 1.0 - 1e-12  # the fitted families' decode caps kappa here
_GTOL = 1e-8  # the Newton stage's max-abs gradient stop, on the mean log-likelihood
_MAX_STEP = 4.0  # the longest Newton step along any eigen-direction of the Hessian


@dataclass(frozen=True)
class FitConfig:
    """Controls for a maximum-likelihood fit."""

    model: str = "kappagen"
    max_iter: int = 500
    multistart: int = 5
    seed: int = 0

    def __post_init__(self):
        _family(self.model)
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.multistart < 1:
            raise DomainError("multistart must be at least 1")


@dataclass(frozen=True)
class GoodnessOfFit:
    """Log-likelihood plus money-amount measures on the decile grid."""

    loglik: float
    lrsse: float
    aeg: float


@dataclass(frozen=True)
class StartTrace:
    """One start of a multistart fit, a Newton stage: the model fitted (a
    mixture fit has a weibull and a kappagen branch), the log-likelihood it
    reached and its objective evaluations."""

    model: str
    loglik: float
    evaluations: int


@dataclass(frozen=True)
class FitDiagnostics:
    """How a fit reached its answer.  evaluations counts every objective
    evaluation, the sum of its starts'; penalties counts, by cause, the
    evaluations that returned the objective's penalty value: an exception's
    type name, "out-of-range" for an optimizer coordinate beyond +-60, and
    "non-finite" for a nan or infinite log-likelihood."""

    starts: tuple
    evaluations: int
    penalties: tuple  # (cause, count) pairs, sorted by cause


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters with convergence and fit diagnostics."""

    model: str
    params: object
    loglik: float
    converged: bool
    iterations: int
    score_norm: float
    gof: GoodnessOfFit | None = None
    scale: float | None = None
    flags: tuple = field(default_factory=tuple)
    diagnostics: FitDiagnostics | None = None


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """Everything the fitting engine and the CLI know about one model.

    Entries call layer functions through their module-level names, so a
    rebinding of those names (such as a tracing wrapper) reaches every
    call.  decode, encode, start and hessian, the closed-form gradient and
    Hessian, are set for the families fitted on transformed coordinates:
    every family but the mixture, which is fitted through its branches.  A
    fit calls hessian on its own nonzero records after its one support
    check, not through loglik or loglik_hessian.  Families whose params
    subclass KappaGenParams share the base model's functions.
    """

    params: type
    flags: tuple  # CLI parameter flags, in the order from_flags takes them
    from_flags: Callable | None
    to_dict: Callable
    logpdf: Callable
    pdf: Callable
    cdf: Callable
    ccdf: Callable
    quantile: Callable | None
    sample: Callable
    lorenz: Callable
    gini: Callable
    decode: Callable | None = None  # optimizer vector -> parameters
    encode: Callable | None = None  # parameters -> optimizer vector
    start: Callable | None = None  # (alpha0, beta0, kappa0) -> initial parameters
    # (values, weights, parameters) -> (sum(w ln f), gradient, Hessian) in decode's vector
    hessian: Callable | None = None
    positive: bool = True  # support is x > 0


def _family(model):
    try:
        return FAMILIES[model]
    except KeyError:
        raise DomainError(
            f"unknown model {model!r}; expected one of {tuple(FAMILIES)}") from None


def _attrs(*names):
    return lambda p: {name: getattr(p, name) for name in names}


def _sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t)) if t > -500.0 else 0.0


def _logit(x):
    x = min(max(x, 1e-12), _KAPPA_MAX)
    return math.log(x / (1.0 - x))


def _ekg1_decode(vec):
    q = math.exp(vec[2])
    return EKG1Params(math.exp(vec[0]), math.exp(vec[1]), q,
                      1.0 / (2.0 * q) - math.exp(vec[3]))


def _ekg1_lorenz(u, p: EKG1Params):
    qf = lambda t: ekg1_quantile(t, p)
    return ineq.quantile_lorenz(u, qf, ineq.quantile_mean(qf))


def _dkappa_dlogit(kappa):
    """d kappa / d logit(kappa) of the decode, which holds kappa at _KAPPA_MAX."""
    return kappa * (1.0 - kappa) if kappa < _KAPPA_MAX else 0.0


def _block_sums(kernel, values, weights, *args):
    """The tuple of sums kernel(values, weights, *args) returns (for a
    kernel: sum(w ln f), gradient, Hessian), taken over one _BLOCK of records
    at a time and added entry by entry in index order: one call where the
    records fit in one block, so a pass holds one block's temporaries."""
    sums = kernel(values[:_BLOCK], weights[:_BLOCK], *args)
    for k in range(_BLOCK, values.size, _BLOCK):
        block = kernel(values[k:k + _BLOCK], weights[k:k + _BLOCK], *args)
        sums = tuple(a + b for a, b in zip(sums, block))
    return sums


def _kgen_hessian(values, weights, p: KappaGenParams):
    """Chain rule through logit(kappa), on the base model's blocked sums:
    with k' = dkappa/dlogit = kappa (1 - kappa) and k'' = k' (1 - 2 kappa),
    d2/dlogit2 = l_kk k'^2 + l_k k''; every logit entry is 0 where the
    decode caps kappa."""
    ll, grad, hess = _block_sums(_kgen_loglik_hessian, values, weights, p)
    d1 = _dkappa_dlogit(p.kappa)
    hess[2, 2] = hess[2, 2] * d1 * d1 + grad[2] * d1 * (1.0 - 2.0 * p.kappa)
    hess[:2, 2] *= d1
    hess[2, :2] *= d1
    grad[2] *= d1
    return ll, grad, hess


def _weibull_hessian(values, weights, p: WeibullParams):
    ll, grad, hess = _block_sums(_kgen_loglik_hessian, values, weights, p)
    return ll, grad[:2], hess[:2, :2]


def _unit_mean_log_scale_jac(alpha, kappa):
    """The gradient of psi = ln beta of the unit-mean scale in the unit-mean
    model's vector (ln alpha, logit kappa)."""
    d_ln_alpha, d_kappa = _unit_mean_log_scale_grad(alpha, kappa)
    return np.array([d_ln_alpha, d_kappa * _dkappa_dlogit(kappa)])


def _normalized_hessian(values, weights, p: KappaGenParams):
    """The base model's Hessian composed with ln beta = psi(ln alpha, logit kappa):
    gradient J^T g and Hessian J^T H J + g_beta (d2 psi), J = [[1, 0], psi', [0, 1]].
    d2 psi holds no data, so it is taken as central differences of the
    closed-form psi' (1e-9 relative or better, 2e-8 where the gamma ratio
    switches form, at c - m/2 = 10); it only shapes Newton's steps, and the
    stop tests and the convergence check use exact gradients.  One triangle
    is mirrored, as J^T H J rounds asymmetrically."""
    ll, grad, hess = _kgen_hessian(values, weights, p)
    jac = np.array([[1.0, 0.0], _unit_mean_log_scale_jac(p.alpha, p.kappa), [0.0, 1.0]])
    vec = np.array([math.log(p.alpha), _logit(p.kappa)])
    psi_grad = lambda v: _unit_mean_log_scale_jac(math.exp(v[0]),
                                                  min(_sigmoid(v[1]), _KAPPA_MAX))
    d2_psi = np.empty((2, 2))
    for i in range(2):
        h = np.zeros(2)
        h[i] = 1e-5 * max(1.0, abs(vec[i]))
        d2_psi[i] = (psi_grad(vec + h) - psi_grad(vec - h)) / (2.0 * h[i])
    hess = jac.T @ hess @ jac + grad[1] * d2_psi
    return ll, grad @ jac, np.triu(hess) + np.triu(hess, 1).T


def _mixture_logpdf(x, p: NetWealthMixtureParams):
    values, scalar = _asarray(x)
    out = np.empty_like(values)
    neg = values < 0.0
    zero = values == 0.0
    pos = values > 0.0
    with np.errstate(divide="ignore"):
        if np.any(neg):
            out[neg] = math.log(p.theta1) if p.theta1 > 0.0 else -math.inf
            if p.theta1 > 0.0:
                out[neg] += kgen_logpdf(-values[neg], p.negative_branch)
        out[zero] = math.log(p.theta2) if p.theta2 > 0.0 else -math.inf
        if np.any(pos):
            out[pos] = math.log(p.theta3) if p.theta3 > 0.0 else -math.inf
            if p.theta3 > 0.0:
                out[pos] += kgen_logpdf(values[pos], p.positive_branch)
    return _restore(out, scalar)


def _mixture_from_flags(shape, scale, theta1, theta2, alpha, beta, kappa):
    return NetWealthMixtureParams(
        negative_branch=WeibullParams(shape, scale),
        theta1=theta1, theta2=theta2, theta3=1.0 - theta1 - theta2,
        positive_branch=KappaGenParams(alpha, beta, kappa))


def _mixture_to_dict(p: NetWealthMixtureParams):
    return {"weibull_shape": p.negative_branch.shape, "weibull_scale": p.negative_branch.scale,
            "theta1": p.theta1, "theta2": p.theta2, "theta3": p.theta3,
            **_KAPPAGEN.to_dict(p.positive_branch)}


_KAPPAGEN = Family(
    params=KappaGenParams, flags=("alpha", "beta", "kappa"), from_flags=KappaGenParams,
    to_dict=_attrs("alpha", "beta", "kappa"),
    logpdf=lambda x, p: kgen_logpdf(x, p), pdf=lambda x, p: kgen_pdf(x, p),
    cdf=lambda x, p: kgen_cdf(x, p), ccdf=lambda x, p: kgen_ccdf(x, p),
    quantile=lambda u, p: kgen_quantile(u, p),
    sample=lambda n, p, seed: kgen_sample(n, p, seed),
    lorenz=lambda u, p: ineq.kgen_lorenz(u, p), gini=lambda p: ineq.kgen_gini(p),
    decode=lambda v: KappaGenParams(math.exp(v[0]), math.exp(v[1]),
                                    min(_sigmoid(v[2]), _KAPPA_MAX)),
    encode=lambda p: np.array([math.log(p.alpha), math.log(p.beta), _logit(p.kappa)]),
    start=KappaGenParams, hessian=_kgen_hessian,
)

FAMILIES = {
    "kappagen": _KAPPAGEN,
    "weibull": replace(
        _KAPPAGEN, params=WeibullParams, flags=("shape", "scale"), from_flags=WeibullParams,
        to_dict=_attrs("shape", "scale"),
        decode=lambda v: WeibullParams(math.exp(v[0]), math.exp(v[1])),
        encode=lambda p: np.array([math.log(p.shape), math.log(p.scale)]),
        start=lambda alpha0, beta0, kappa0: WeibullParams(alpha0, beta0),
        hessian=_weibull_hessian,
    ),
    "ekg1": Family(
        params=EKG1Params, flags=("a", "b", "q", "r"), from_flags=EKG1Params,
        to_dict=_attrs("a", "b", "q", "r"),
        logpdf=lambda x, p: ekg1_logpdf(x, p), pdf=lambda x, p: ekg1_pdf(x, p),
        cdf=lambda x, p: ekg1_cdf(x, p), ccdf=lambda x, p: ekg1_ccdf(x, p),
        quantile=lambda u, p: ekg1_quantile(u, p),
        sample=lambda n, p, seed: ekg1_sample(n, p, seed),
        lorenz=_ekg1_lorenz,
        gini=lambda p: ineq.quantile_gini(lambda t: ekg1_quantile(t, p)),
        decode=_ekg1_decode,
        encode=lambda p: np.array([math.log(p.a), math.log(p.b), math.log(p.q),
                                   math.log(max(1.0 / (2.0 * p.q) - p.r, 1e-12))]),
        start=lambda alpha0, beta0, kappa0: EKG1Params(alpha0, beta0,
                                                       1.0 / (2.0 * kappa0), 0.0),
        hessian=lambda values, weights, p: _block_sums(_ekg1_loglik_hessian, values, weights, p),
    ),
    "ekg2": Family(
        params=EKG2Params, flags=("a", "b", "p", "q"), from_flags=EKG2Params,
        to_dict=_attrs("a", "b", "p", "q"),
        logpdf=lambda x, p: ekg2_logpdf(x, p), pdf=lambda x, p: ekg2_pdf(x, p),
        cdf=lambda x, p: ekg2_cdf(x, p), ccdf=lambda x, p: ekg2_ccdf(x, p),
        quantile=lambda u, p: ekg2_quantile(u, p),
        sample=lambda n, p, seed: ekg2_sample(n, p, seed),
        lorenz=lambda u, p: ineq.ekg2_lorenz(u, p),
        gini=lambda p: ineq.quantile_gini(lambda t: ekg2_quantile(t, p)),
        decode=lambda v: EKG2Params(*(math.exp(t) for t in v)),
        encode=lambda p: np.array([math.log(t) for t in (p.a, p.b, p.p, p.q)]),
        # the base model is ekg2 at p = 1, q = 1/(2 kappa), b = beta (2 kappa)^(-1/alpha)
        start=lambda alpha0, beta0, kappa0: EKG2Params(
            alpha0, beta0 * (2.0 * kappa0) ** (-1.0 / alpha0), 1.0, 1.0 / (2.0 * kappa0)),
        hessian=lambda values, weights, p: _block_sums(_ekg2_loglik_hessian, values, weights, p),
    ),
    "mixture": Family(
        params=NetWealthMixtureParams,
        flags=("shape", "scale", "theta1", "theta2", "alpha", "beta", "kappa"),
        from_flags=_mixture_from_flags, to_dict=_mixture_to_dict,
        logpdf=_mixture_logpdf, pdf=lambda x, p: mixture_pdf(x, p)[0],
        cdf=lambda x, p: mixture_cdf(x, p), ccdf=lambda x, p: mixture_ccdf(x, p),
        quantile=None, sample=lambda n, p, seed: mixture_sample(n, p, seed),
        lorenz=lambda u, p: ineq.mixture_lorenz(u, p), gini=lambda p: ineq.mixture_gini(p),
        positive=False,
    ),
    # two parameters on mean-scaled data, with the scale pinned to unit mean
    "kappagen_normalized": replace(
        _KAPPAGEN, flags=(), from_flags=None,
        decode=lambda v: kgen_from_normalized(math.exp(v[0]),
                                              min(_sigmoid(v[1]), _KAPPA_MAX)),
        encode=lambda p: np.array([math.log(p.alpha), _logit(p.kappa)]),
        # the unit mean needs alpha/kappa > 1: a start outside it is the penalty
        start=lambda alpha0, beta0, kappa0: KappaGenParams(alpha0, beta0,
                                                           min(kappa0, alpha0 / 1.25)),
        hessian=_normalized_hessian,
    ),
}


# ---------------------------------------------------------------------------
# log-likelihood


def _check_support(values, model):
    if not np.all(values > 0.0):
        idx = int(np.argmin(values > 0.0))
        raise SupportViolationError(
            f"observation {idx} (value {values[idx]}) outside the positive support "
            f"of model {model!r}", index=idx, value=float(values[idx]))


def _records(sample: WeightedSample, model):
    """sample.nonzero, the records a log-likelihood sums over, once the
    support is checked on the caller's indices where the family's is x > 0."""
    if _family(model).positive:
        _check_support(sample.values, model)
    return sample.nonzero


def loglik(sample: WeightedSample, model, params):
    """Weighted log-likelihood sum(w_i * ln f(x_i)) over sample.nonzero, in
    log space, summed over the blocks of records that loglik_hessian sums
    over: its value bit for bit, where it has one."""
    records = _records(sample, model)
    logpdf = _family(model).logpdf

    def block(values, weights):
        terms = logpdf(values, params)
        with np.errstate(over="ignore", invalid="ignore"):
            return (float((weights * terms).sum()),)

    return _block_sums(block, records.values, records.weights)[0]


def loglik_score(sample: WeightedSample, model, params):
    """The weighted log-likelihood and its gradient: loglik_hessian's first
    two entries, from the same one pass."""
    return loglik_hessian(sample, model, params)[:2]


def loglik_hessian(sample: WeightedSample, model, params):
    """The weighted log-likelihood, summed as a fit sums it, with its
    gradient and Hessian in the coordinates the family is fitted on
    (FAMILIES[model].decode's vector), from one pass over sample.nonzero,
    for every family a fit evaluates: all but the mixture, whose fit takes
    its branches' kernels."""
    hessian = _family(model).hessian
    if hessian is None:
        raise DomainError(f"model {model!r} has no closed-form Hessian")
    records = _records(sample, model)
    return hessian(records.values, records.weights, params)


# ---------------------------------------------------------------------------
# initial values


def _line_sums(x, y, w):
    """(sum w, the weighted means of x and y, sum w dx^2, sum w dx dy), with
    dx and dy the deviations from those means: a weighted least-squares
    line's sums over the points (x, y) of one block."""
    sw = w.sum()
    mx = (w * x).sum() / sw
    my = (w * y).sum() / sw
    dx = x - mx
    return sw, mx, my, (w * dx ** 2).sum(), (w * dx * (y - my)).sum()


def _pooled(a, b):
    """The _line_sums of two sets of points together from each set's own
    (Chan, Golub & LeVeque 1979, the pairwise update): b where a is None."""
    if a is None:
        return b
    sa, xa, ya, sxx, sxy = a
    sb, xb, yb, sxx_b, sxy_b = b
    sw = sa + sb
    share = sb / sw
    dx, dy = xb - xa, yb - ya
    return (sw, xa + dx * share, ya + dy * share, sxx + sxx_b + dx * dx * sa * share,
            sxy + sxy_b + dx * dy * sa * share)


def _weighted_lstsq(sums):
    """(slope, intercept) of a weighted least-squares line from its
    _line_sums; nan where x does not vary."""
    _, mx, my, sxx, sxy = sums
    if sxx <= 0.0:
        return math.nan, math.nan
    slope = sxy / sxx
    return slope, my - slope * mx


def _survival_lines(sample: WeightedSample):
    """The double-log survival plot's two least-squares lines of a sample
    of positive values, as (count, _line_sums or None) pairs: ln(-ln S) on
    ln x over the bulk, 0.01 < F < 0.9, and ln S on ln x over the upper
    decile, 0.9 <= F < 1, where F is the midpoint CDF (cw - w/2) / sum w
    and S = 1 - F.

    Two walks of sample.ascending, one _BLOCK of records at a time: the
    first takes the total weight, the second each block's points, taking
    the first walk's last block as it is.  Each block's cumulative weights
    cw are one np.cumsum with the running total added to its first weight,
    the same sequential fold as a cumsum of all of them, so a sample of one
    block gives the single-array sums bit for bit.
    """
    values, weights = sample.ascending

    def cumulative(parts):  # each block's slice, weights and cumulative weights
        carry = 0.0
        for part in parts:
            w = weights[part]
            cw = w.copy()
            cw[0] += carry
            np.cumsum(cw, out=cw)
            carry = cw[-1]
            yield part, w, cw

    parts = list(_blocks(values.size))
    for last in cumulative(parts):
        pass
    total = last[2][-1]
    lines = [[0, None], [0, None]]
    for part, w, cw in itertools.chain(cumulative(parts[:-1]), (last,)):
        v = values[part]
        cdf_mid = (cw - 0.5 * w) / total
        bulk = (cdf_mid > 0.01) & (cdf_mid < 0.9)
        tail = (cdf_mid >= 0.9) & (cdf_mid < 1.0)
        points = ((bulk, np.log(-np.log1p(-cdf_mid[bulk]))), (tail, np.log1p(-cdf_mid[tail])))
        for line, (mask, y) in zip(lines, points):
            if y.size:
                line[0] += y.size
                line[1] = _pooled(line[1], _line_sums(np.log(v[mask]), y, w[mask]))
    return lines


def _initial_kgen(sample: WeightedSample):
    """(alpha0, beta0, kappa0) from _survival_lines: the bulk line pins the
    shape and scale (with its slope and intercept, where it has at least 5
    points and a positive slope, else 1 and the weighted mean), the upper
    decile's slope, with at least 10 points, the tail deformation."""
    (n_bulk, bulk), (n_tail, tail) = _survival_lines(sample)
    alpha0 = None
    if n_bulk >= 5:
        slope, intercept = _weighted_lstsq(bulk)
        if math.isfinite(slope) and slope > 0.0:
            beta0 = math.exp(-intercept / slope)
            if math.isfinite(beta0) and beta0 > 0.0:
                alpha0 = min(max(slope, 0.05), 50.0)
    if alpha0 is None:
        alpha0, beta0 = 1.0, max(sample.weighted_mean(), 1e-12)
    kappa0 = 0.25
    if n_tail >= 10:
        slope, _ = _weighted_lstsq(tail)
        if math.isfinite(slope) and slope < 0.0:
            kappa0 = alpha0 / (-slope)
    return alpha0, beta0, min(max(kappa0, 0.01), 0.9)


# ---------------------------------------------------------------------------
# optimizer core


def _newton(evaluate, x0, config):
    """Newton's method from x0.

    evaluate(x) returns (f, g, H) at x, from one pass of the family's
    closed-form kernel.  Each step is -H^-1 g with H's eigenvalues replaced by
    their absolute values (Nocedal & Wright, Numerical Optimization, 2006,
    sec. 3.4), so a step from an indefinite start still descends, each
    floored at |g_i|/_MAX_STEP, g_i the gradient along its eigenvector, so
    that no eigen-direction moves further than _MAX_STEP (a bounded step, as
    in a trust region: ibid., ch. 4); one with neither curvature nor slope,
    as on the kappa cap, does not move.  The step is halved until f falls by
    1e-4 |g.p| (Armijo).  The stage stops once max |g| <= _GTOL, or once H
    is positive definite and Newton's predicted decrease g.H^-1.g/2 is below
    the rounding of f, eps max(|f|, 1), from where a step could only move
    the last bits of f; or at a penalty value or a non-finite H, 40 halvings
    or max_iter steps.  Returns (x, f, g, steps), g the gradient at x.
    """
    x = x0
    f, g, hess = evaluate(x)
    for steps in range(config.max_iter + 1):
        if (hess is None or steps == config.max_iter or np.abs(g).max() <= _GTOL
                or not np.isfinite(hess).all()):
            break
        lam, vecs = np.linalg.eigh(hess)
        along = vecs.T @ g
        if lam[0] > 0.0 and 0.5 * (along * along / lam).sum() <= _EPS * max(abs(f), 1.0):
            break
        floor = np.maximum(np.abs(lam), np.abs(along) / _MAX_STEP)
        step = -vecs @ np.divide(along, floor, out=np.zeros(along.shape), where=floor > 0.0)
        decrease = 1e-4 * abs(float(g @ step))
        for _ in range(40):
            trial = evaluate(x + step)
            if trial[0] <= f - decrease:
                break
            step /= 2.0
            decrease /= 2.0
        else:
            break
        x = x + step
        f, g, hess = trial
    return x, f, g, steps


def _fit_transformed(model, sample, config):
    """Multistart maximization of the mean log-likelihood over sample.nonzero,
    whose support the caller has checked, one Newton stage per start.  Returns
    a FitResult whose loglik is the optimizer's, with no goodness of fit."""
    family = FAMILIES[model]
    sample = sample.nonzero
    if np.ptp(sample.values) == 0.0:
        raise DegenerateDataError("sample has a single distinct value")
    values, weights, total_w = sample.values, sample.weights, sample.total_weight
    penalties = Counter()
    evaluations = 0

    def evaluate(vec):
        """The negative mean log-likelihood at vec with its gradient and
        Hessian, (f, g, H), from one kernel call; a penalty value, with g = 0
        and H = None, where the log-likelihood or its gradient cannot be had."""
        nonlocal evaluations
        evaluations += 1
        cause = None
        if (np.abs(vec) > 60.0).any():
            cause = "out-of-range"
        else:
            try:
                ll, grad, hess = family.hessian(values, weights, family.decode(vec))
            except (DomainError, MomentDivergenceError, OverflowError) as exc:
                cause = type(exc).__name__
            else:
                if not (math.isfinite(ll) and np.isfinite(grad).all()):
                    cause = "non-finite"
        if cause is not None:
            penalties[cause] += 1
            return _PENALTY, np.zeros_like(vec), None
        return -ll / total_w, -grad / total_w, -hess / total_w

    x0 = family.encode(family.start(*_initial_kgen(sample)))
    best = None
    iterations = 0
    starts = []
    for replicate in range(config.multistart):
        start = x0 if replicate == 0 else x0 + np.random.default_rng(
            [config.seed, replicate]).normal(0.0, 0.35, size=x0.size)
        before = evaluations
        x_opt, f_opt, g_opt, nit = _newton(evaluate, start, config)
        iterations += nit
        starts.append(StartTrace(model, -f_opt * total_w, evaluations - before))
        if best is None or f_opt < best[1]:
            best = (x_opt, f_opt, g_opt)
    x_opt, f_opt, g_opt = best
    score_norm = float(np.max(np.abs(g_opt)))
    converged = math.isfinite(f_opt) and f_opt < 1e11 and score_norm <= _SCORE_TOL
    diagnostics = FitDiagnostics(tuple(starts), evaluations, tuple(sorted(penalties.items())))
    return FitResult(model, family.decode(x_opt), -f_opt * total_w, converged, iterations,
                     score_norm, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# public fitting entry points


def fit_mle(sample: WeightedSample, config: FitConfig, lorenz=None):
    """Maximize the weighted log-likelihood for the configured family.
    lorenz, the sample's inequality.empirical_lorenz_summary if the caller
    already has it, spares the goodness of fit its own walk of the sample;
    the mixture and the unit-mean model take their own."""
    if config.model == "mixture":
        return fit_mixture(sample, config)
    if config.model == "kappagen_normalized":
        return fit_normalized(sample, config)
    records = _records(sample, config.model)
    return _with_gof(sample, _fit_transformed(config.model, records, config), lorenz)


def _with_gof(sample, fit: FitResult, lorenz=None, **changes):
    """fit with its goodness of fit on sample, loglik taken from that."""
    gof = goodness_of_fit(sample, fit.model, fit.params, lorenz)
    return replace(fit, loglik=gof.loglik, gof=gof, **changes)


def fit_normalized(sample: WeightedSample, config: FitConfig):
    """Two-parameter fit on mean-scaled data with the scale pinned to
    give unit mean; returns unit-mean-scale parameters plus the scaling
    factor used."""
    _check_support(sample.values, "kappagen_normalized")
    scale = sample.weighted_mean()
    scaled = sample.rescaled(scale)
    return _with_gof(scaled, _fit_transformed("kappagen_normalized", scaled, config),
                     scale=scale)


def fit_mixture(sample: WeightedSample, config: FitConfig):
    """Net-wealth mixture fit.

    The component proportions are the weighted shares of the support
    partition (their closed-form maximum-likelihood values); the Weibull
    branch is fitted on |negatives| and the positive branch on the
    positives with the shared machinery.  The branch fits combine into one
    result: converged if every branch is, iterations summed, the largest
    score norm, and their diagnostics concatenated.
    """
    values = sample.values
    weights = sample.weights
    total_w = sample.total_weight
    neg = values < 0.0
    zero = values == 0.0
    pos = values > 0.0
    w_neg = float(weights[neg].sum())
    w_zero = float(weights[zero].sum())
    w_pos = float(weights[pos].sum())
    if w_pos <= 0.0:
        raise DegenerateDataError(
            "mixture fit needs positive observations; positive branch unidentifiable")

    flags = []
    branches = []
    if w_neg > 0.0:
        neg_sample = WeightedSample(-values[neg], weights[neg])
        if neg_sample.effective_size() < _MIN_EFFECTIVE_BRANCH:
            flags.append("negative branch has fewer than 30 effective observations")
        try:
            branches.append(_fit_transformed("weibull", neg_sample, config))
            wb_params = branches[-1].params
        except DegenerateDataError:
            # one distinct magnitude cannot pin two parameters; fall back to
            # an exponential branch matching the weighted mean magnitude
            wb_params = WeibullParams(1.0, neg_sample.weighted_mean())
            flags.append("negative branch degenerate; exponential fallback used")
    else:
        wb_params = WeibullParams(1.0, 1.0)
        flags.append("no negative observations; negative branch fixed at defaults")

    pos_sample = WeightedSample(values[pos], weights[pos])
    if pos_sample.effective_size() < _MIN_EFFECTIVE_BRANCH:
        flags.append("positive branch has fewer than 30 effective observations")
    branches.append(_fit_transformed("kappagen", pos_sample, config))

    params = NetWealthMixtureParams(negative_branch=wb_params, theta1=w_neg / total_w,
                                    theta2=w_zero / total_w, theta3=w_pos / total_w,
                                    positive_branch=branches[-1].params)
    penalties = Counter()
    for fit in branches:
        penalties.update(dict(fit.diagnostics.penalties))
    diagnostics = FitDiagnostics(sum((fit.diagnostics.starts for fit in branches), ()),
                                 sum(fit.diagnostics.evaluations for fit in branches),
                                 tuple(sorted(penalties.items())))
    return _with_gof(sample, FitResult(  # loglik (nan here) comes from the GOF pass
        "mixture", params, math.nan, all(fit.converged for fit in branches),
        sum(fit.iterations for fit in branches), max(fit.score_norm for fit in branches),
        flags=tuple(flags), diagnostics=diagnostics))


# ---------------------------------------------------------------------------
# goodness of fit


def goodness_of_fit(sample: WeightedSample, model, params, lorenz=None):
    """Log-likelihood plus Lorenz-curve and Gini discrepancy measures.

    LRSSE is the root of the summed squared gaps between the observed and
    model Lorenz curves on the interior decile grid; AEG is the absolute
    gap between the observed and model Gini.  The observed side is lorenz,
    the sample's inequality.empirical_lorenz_summary (ten floats), taken
    here by one blocked walk of the sample unless the caller hands it in;
    the log-likelihood is loglik's blocked value pass, so no step holds
    more than a block of per-record temporaries.
    """
    family = _family(model)
    ll = loglik(sample, model, params)
    if lorenz is None:
        lorenz = ineq.empirical_lorenz_summary(sample)
    l_mod = np.asarray(family.lorenz(ineq.DECILES, params), dtype=float)
    lrsse = float(np.sqrt(np.sum((lorenz.ordinates - l_mod) ** 2)))
    aeg = abs(lorenz.gini - family.gini(params))
    return GoodnessOfFit(loglik=ll, lrsse=lrsse, aeg=aeg)
