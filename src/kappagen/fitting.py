"""Weighted maximum-likelihood estimation, goodness of fit, and the family
registry.

FAMILIES describes each model once, keyed by its tag: parameter class,
CLI flags, distribution functions, Lorenz curve and Gini, and the
transform the fitting engine optimizes over.  The Weibull law is the base
model at kappa = 0 throughout.

Every family is fitted on transformed coordinates (log for positive
parameters, logit for the tail deformation, shifted log for the extension
parameter bounded above).  The base model, Weibull and the unit-mean model
have a closed-form score (loglik_score), so each start runs one BFGS stage
on exact gradients straight from the survival-plot initializer.  The base
model and Weibull also have a closed-form Hessian (loglik_hessian): its
inverse, where it is positive definite at the start, is BFGS's starting
inverse-Hessian estimate, so the first steps are Newton steps and a fit
takes about six evaluations instead of about fifteen.  The mixture gets
both through its two branch fits.  The two-stage scheme --
derivative-free simplex descent into the basin, then BFGS polish on
central-difference gradients -- is the fallback when that stage fails,
and the only scheme for ekg1 and ekg2.  Both BFGS stages stop at a fixed
max-abs gradient of _GTOL = 1e-8.  Convergence is judged by the max-abs
central-difference gradient of the weight-normalized log-likelihood, the
numerical surrogate for the score equations, and FitResult.diagnostics
records how each start got there.

Every fit takes one result path: _fit_transformed returns a FitResult
without goodness of fit, and each entry point (fit_mle, fit_normalized,
fit_mixture, which combines its two branch results) finishes it through
_with_gof, which attaches the goodness of fit and takes loglik from it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .data import WeightedSample
from .deformed import _asarray, _restore
from .distributions import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
    _kgen_loglik_hessian,
    _kgen_loglik_score,
    _unit_mean_log_scale_grad,
    _weibull_as_kgen,
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
_GTOL = 1e-8  # BFGS's max-abs gradient test, on the mean log-likelihood


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
    """One start of a multistart fit: the model fitted (a mixture fit has a
    weibull and a kappagen branch), the log-likelihood it reached, the stage
    that reached it ("quasi-newton", or "fallback" for the two-stage scheme,
    which families without a score always take) and its objective
    evaluations."""

    model: str
    loglik: float
    stage: str
    evaluations: int


@dataclass(frozen=True)
class FitDiagnostics:
    """How a fit reached its answer.  evaluations counts every objective
    evaluation, the convergence check's included; penalties counts, by
    cause, the evaluations that returned the objective's penalty value:
    an exception's type name, "out-of-range" for an optimizer coordinate
    beyond +-60, and "non-finite" for a nan or infinite log-likelihood."""

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
    call.  decode, encode and start are set for the families fitted on
    transformed coordinates, score for those of them with a closed-form
    score and hessian for those with a closed-form Hessian too; as_kgen for
    those the closed-form base-model indices cover.
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
    # (values, weights, parameters) -> (sum(w ln f), its gradient in decode's vector)
    score: Callable | None = None
    # (values, weights, parameters) -> (sum(w ln f), gradient, Hessian), same vector
    hessian: Callable | None = None
    as_kgen: Callable | None = None
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
    mean = ineq.quantile_mean(qf)
    return np.array([ineq.quantile_lorenz(float(ui), qf, mean) for ui in u])


def _dkappa_dlogit(kappa):
    """d kappa / d logit(kappa) of the decode, which holds kappa at _KAPPA_MAX."""
    return kappa * (1.0 - kappa) if kappa < _KAPPA_MAX else 0.0


def _kgen_score(values, weights, p: KappaGenParams):
    ll, grad = _kgen_loglik_score(values, weights, p)
    grad[2] *= _dkappa_dlogit(p.kappa)
    return ll, grad


def _kgen_hessian(values, weights, p: KappaGenParams):
    """Chain rule through logit(kappa): with k' = dkappa/dlogit = kappa (1 - kappa)
    and k'' = k' (1 - 2 kappa), d2/dlogit2 = l_kk k'^2 + l_k k''; every
    logit entry is 0 where the decode caps kappa."""
    ll, grad, hess = _kgen_loglik_hessian(values, weights, p)
    d1 = _dkappa_dlogit(p.kappa)
    hess[2, 2] = hess[2, 2] * d1 * d1 + grad[2] * d1 * (1.0 - 2.0 * p.kappa)
    hess[:2, 2] *= d1
    hess[2, :2] *= d1
    grad[2] *= d1
    return ll, grad, hess


def _weibull_score(values, weights, p: WeibullParams):
    ll, grad = _kgen_loglik_score(values, weights, _weibull_as_kgen(p))
    return ll, grad[:2]


def _weibull_hessian(values, weights, p: WeibullParams):
    ll, grad, hess = _kgen_loglik_hessian(values, weights, _weibull_as_kgen(p))
    return ll, grad[:2], hess[:2, :2]


def _normalized_score(values, weights, p: KappaGenParams):
    ll, (g_alpha, g_beta, g_kappa) = _kgen_loglik_score(values, weights, p)
    dbeta_dalpha, dbeta_dkappa = _unit_mean_log_scale_grad(p.alpha, p.kappa)
    return ll, np.array([g_alpha + g_beta * dbeta_dalpha,
                         (g_kappa + g_beta * dbeta_dkappa) * _dkappa_dlogit(p.kappa)])


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
                out[neg] += kgen_logpdf(-values[neg], _weibull_as_kgen(p.negative_branch))
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
    start=KappaGenParams, score=_kgen_score, hessian=_kgen_hessian, as_kgen=lambda p: p,
)

FAMILIES = {
    "kappagen": _KAPPAGEN,
    "weibull": Family(
        params=WeibullParams, flags=("shape", "scale"), from_flags=WeibullParams,
        to_dict=_attrs("shape", "scale"),
        logpdf=lambda x, p: kgen_logpdf(x, _weibull_as_kgen(p)),
        pdf=lambda x, p: kgen_pdf(x, _weibull_as_kgen(p)),
        cdf=lambda x, p: kgen_cdf(x, _weibull_as_kgen(p)),
        ccdf=lambda x, p: kgen_ccdf(x, _weibull_as_kgen(p)),
        quantile=lambda u, p: kgen_quantile(u, _weibull_as_kgen(p)),
        sample=lambda n, p, seed: kgen_sample(n, _weibull_as_kgen(p), seed),
        lorenz=lambda u, p: ineq.kgen_lorenz(u, _weibull_as_kgen(p)),
        gini=lambda p: ineq.kgen_gini(_weibull_as_kgen(p)),
        decode=lambda v: WeibullParams(math.exp(v[0]), math.exp(v[1])),
        encode=lambda p: np.array([math.log(p.shape), math.log(p.scale)]),
        start=lambda alpha0, beta0, kappa0: WeibullParams(alpha0, beta0),
        score=_weibull_score, hessian=_weibull_hessian,
        as_kgen=_weibull_as_kgen,
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
        # the unit-mean scale's second derivatives are not in closed form
        score=_normalized_score, hessian=None,
    ),
}


# ---------------------------------------------------------------------------
# log-likelihood


def _check_support(values, model):
    bad = ~(values > 0.0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SupportViolationError(
            f"observation {idx} (value {values[idx]}) outside the positive support "
            f"of model {model!r}", index=idx, value=float(values[idx]))


def loglik(sample: WeightedSample, model, params):
    """Weighted log-likelihood sum(w_i * ln f(x_i)), computed in log space."""
    family = _family(model)
    if family.positive:
        _check_support(sample.values, model)
    terms = family.logpdf(sample.values, params)
    return float(np.sum(sample.weights * np.asarray(terms, dtype=float)))


def loglik_score(sample: WeightedSample, model, params):
    """The weighted log-likelihood, computed as loglik does, and its
    gradient in the coordinates the family is fitted on (FAMILIES[model]
    .decode's vector), for the families with a closed-form score."""
    return _closed_form(sample, model, params, "score")


def loglik_hessian(sample: WeightedSample, model, params):
    """loglik_score's value and gradient plus the Hessian in the same
    coordinates, from one pass over the records, for the families with a
    closed-form Hessian."""
    return _closed_form(sample, model, params, "hessian")


def _closed_form(sample, model, params, entry):
    derivatives = getattr(_family(model), entry)
    if derivatives is None:
        raise DomainError(f"model {model!r} has no closed-form {entry}")
    _check_support(sample.values, model)
    return derivatives(sample.values, sample.weights, params)


# ---------------------------------------------------------------------------
# initial values


def _weighted_lstsq(x, y, w):
    sw = w.sum()
    mx = np.sum(w * x) / sw
    my = np.sum(w * y) / sw
    sxx = np.sum(w * (x - mx) ** 2)
    if sxx <= 0.0:
        return math.nan, math.nan
    slope = np.sum(w * (x - mx) * (y - my)) / sxx
    return slope, my - slope * mx


def _initial_shape_scale(sample: WeightedSample):
    """Shape and scale from a weighted least-squares line on the
    double-log survival plot, restricted to the distribution bulk."""
    v = sample.values[sample.order]
    w = sample.weights[sample.order]
    cw = np.cumsum(w)
    total = cw[-1]
    cdf_mid = (cw - 0.5 * w) / total
    bulk = (cdf_mid > 0.01) & (cdf_mid < 0.9) & (v > 0.0)
    if bulk.sum() >= 5:
        x = np.log(v[bulk])
        y = np.log(-np.log1p(-cdf_mid[bulk]))
        slope, intercept = _weighted_lstsq(x, y, w[bulk])
        if math.isfinite(slope) and slope > 0.0:
            alpha0 = min(max(slope, 0.05), 50.0)
            beta0 = math.exp(-intercept / slope)
            if math.isfinite(beta0) and beta0 > 0.0:
                return alpha0, beta0, (v, w, cdf_mid)
    mean = float(np.sum(sample.values * sample.weights) / sample.weights.sum())
    return 1.0, max(mean, 1e-12), (v, w, cdf_mid)


def _initial_kgen(sample: WeightedSample):
    """(alpha0, beta0, kappa0): bulk regression pins the shape and scale,
    the upper-decile survival slope pins the tail deformation."""
    alpha0, beta0, (v, w, cdf_mid) = _initial_shape_scale(sample)
    kappa0 = 0.25
    tail = (cdf_mid >= 0.9) & (cdf_mid < 1.0) & (v > 0.0)
    if tail.sum() >= 10:
        slope, _ = _weighted_lstsq(np.log(v[tail]), np.log1p(-cdf_mid[tail]), w[tail])
        if math.isfinite(slope) and slope < 0.0:
            kappa0 = alpha0 / (-slope)
    return alpha0, beta0, min(max(kappa0, 0.01), 0.9)


# ---------------------------------------------------------------------------
# optimizer core


def _central_gradient(fun, x, step=6e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def _two_stage_minimize(fun, x0, config):
    """Simplex descent into the basin, then quasi-Newton polish."""
    stage1 = minimize(fun, x0, method="Nelder-Mead",
                      options={"maxiter": config.max_iter,
                               "xatol": 1e-6, "fatol": 1e-10})
    grad = lambda x: _central_gradient(fun, x)
    stage2 = minimize(fun, stage1.x, method="BFGS", jac=grad,
                      options={"maxiter": config.max_iter,
                               "gtol": _GTOL})
    best = stage2 if stage2.fun <= stage1.fun else stage1
    iterations = int(stage1.nit) + int(stage2.nit)
    return best.x, float(best.fun), iterations


def _inverse_if_positive_definite(hess):
    """The inverse of a finite, symmetric positive-definite matrix, else None."""
    if hess is None or not np.all(np.isfinite(hess)):
        return None
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(hess))
    except np.linalg.LinAlgError:
        return None
    inverse = l_inv.T @ l_inv
    return inverse if np.all(np.isfinite(inverse)) else None


def _quasi_newton(fun_and_grad, x0, config, second_order=None):
    """BFGS on the closed-form gradient, straight from x0.

    second_order, when given, returns (f, g, Hessian of f) at x0 from one
    pass over the records: (f, g) serve as BFGS's first evaluation, and the
    inverse of the Hessian, where it is positive definite, as its starting
    inverse-Hessian estimate, so the first steps are Newton steps.  Without
    it, or where the Hessian is not positive definite, BFGS starts from the
    identity.

    Besides scipy's max-abs gradient test, the stage ends once the next
    step's predicted decrease g.H.g/2 is below the rounding of f, eps
    max(|f|, 1): from there the line search could only zoom on the last
    bits of f.  H is the inverse-Hessian estimate, updated here from each
    iterate's step and gradient change as BFGS updates its own, from the
    same start.  Returns (x, f, iterations, reached); reached is False when
    the stage ended any other way (failed line search, max_iter, a penalty
    value).
    """
    track = {}
    h0 = None
    if second_order is not None:
        f0, g0, hess0 = second_order(x0)
        h0 = _inverse_if_positive_definite(hess0)
        track["first"] = (x0.copy(), f0, g0)
    if h0 is None:
        h0 = np.eye(x0.size)

    def evaluate(x):
        first = track.pop("first", None)
        if first is not None and np.array_equal(x, first[0]):
            f, g = first[1:]
        else:
            f, g = fun_and_grad(x)
        if "h" not in track:  # the start
            track.update(x=x.copy(), g=g, h=h0)
        track["last"] = (x.copy(), g)
        return f, g

    def at_floor(intermediate_result):
        x = intermediate_result.x
        last_x, g = track["last"]
        if not np.array_equal(x, last_x):
            return
        s, y = x - track["x"], g - track["g"]
        sy = float(s @ y)
        rho = 1.0 / sy if sy != 0.0 else 1000.0  # scipy's choice for sy = 0
        a = np.eye(x.size) - rho * np.outer(s, y)
        h = a @ track["h"] @ a.T + rho * np.outer(s, s)
        track.update(x=x, g=g, h=h)
        if 0.5 * float(g @ h @ g) <= _EPS * max(abs(intermediate_result.fun), 1.0):
            track["floor"] = True
            raise StopIteration

    res = minimize(evaluate, x0, method="BFGS", jac=True, callback=at_floor,
                   options={"maxiter": config.max_iter, "gtol": _GTOL,
                            "hess_inv0": h0})
    reached = (res.status == 0 or "floor" in track) and res.fun < 1e11
    return res.x, float(res.fun), int(res.nit), bool(reached)


def _fit_transformed(model, sample, config):
    """Multistart maximization of the mean log-likelihood: one quasi-Newton
    stage on the closed-form score per start, started from the closed-form
    Hessian where the family has one, with the two-stage scheme as the
    fallback (and the only scheme for families without a score).  Returns
    a FitResult whose loglik is the optimizer's, with no goodness of fit."""
    family = FAMILIES[model]
    values = sample.values
    weights = sample.weights
    total_w = sample.total_weight
    if np.ptp(values[weights > 0.0]) == 0.0:  # max == min, and no copy outlives the test
        raise DegenerateDataError("sample has a single distinct value")
    penalties = Counter()
    evaluations = 0
    # loglik, loglik_score and loglik_hessian by the order of derivatives asked for
    closed_forms = (lambda p: (loglik(sample, model, p),),
                    lambda p: loglik_score(sample, model, p),
                    lambda p: loglik_hessian(sample, model, p))

    def evaluate(vec, order):
        """The negative mean log-likelihood and its first `order` derivatives
        at vec: f, (f, g) or (f, g, H); a penalty value, with g = 0 and
        H = None, where the log-likelihood or its gradient cannot be had."""
        nonlocal evaluations
        evaluations += 1
        cause = None
        if np.any(np.abs(vec) > 60.0):
            cause = "out-of-range"
        else:
            try:
                out = closed_forms[order](family.decode(vec))
            except (DomainError, MomentDivergenceError, OverflowError) as exc:
                cause = type(exc).__name__
            else:
                if not all(np.all(np.isfinite(part)) for part in out[:2]):
                    cause = "non-finite"
        if cause is not None:
            penalties[cause] += 1
            out = (_PENALTY, np.zeros_like(vec), None)
        else:
            out = tuple(-part / total_w for part in out)
        return out[0] if order == 0 else out[:order + 1]

    negative_mean_loglik = lambda vec: evaluate(vec, 0)
    x0 = family.encode(family.start(*_initial_kgen(sample)))

    best = None
    iterations = 0
    starts = []
    for replicate in range(config.multistart):
        rng = np.random.default_rng([config.seed, replicate])
        start = x0 if replicate == 0 else x0 + rng.normal(0.0, 0.35, size=x0.size)
        before = evaluations
        reached = False
        if family.score is not None:
            second_order = None if family.hessian is None else lambda vec: evaluate(vec, 2)
            x_opt, f_opt, nit, reached = _quasi_newton(
                lambda vec: evaluate(vec, 1), start, config, second_order)
            iterations += nit
        stage = "quasi-newton"
        if not reached:
            x_fb, f_fb, nit = _two_stage_minimize(negative_mean_loglik, start, config)
            iterations += nit
            if family.score is None or f_fb <= f_opt:
                x_opt, f_opt, stage = x_fb, f_fb, "fallback"
        starts.append(StartTrace(model, -f_opt * total_w, stage, evaluations - before))
        if best is None or f_opt < best[1]:
            best = (x_opt, f_opt)
    x_opt, f_opt = best
    score = _central_gradient(negative_mean_loglik, x_opt)
    score_norm = float(np.max(np.abs(score)))
    converged = math.isfinite(f_opt) and f_opt < 1e11 and score_norm <= _SCORE_TOL
    diagnostics = FitDiagnostics(tuple(starts), evaluations, tuple(sorted(penalties.items())))
    return FitResult(model, family.decode(x_opt), -f_opt * total_w, converged, iterations,
                     score_norm, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# public fitting entry points


def fit_mle(sample: WeightedSample, config: FitConfig):
    """Maximize the weighted log-likelihood for the configured family."""
    if config.model == "mixture":
        return fit_mixture(sample, config)
    if config.model == "kappagen_normalized":
        return fit_normalized(sample, config)
    return _with_gof(sample, _fit_transformed(config.model, sample, config))


def _with_gof(sample, fit: FitResult, **changes):
    """fit with its goodness of fit on sample, loglik taken from that."""
    gof = goodness_of_fit(sample, fit.model, fit.params)
    return replace(fit, loglik=gof.loglik, gof=gof, **changes)


def fit_normalized(sample: WeightedSample, config: FitConfig):
    """Two-parameter fit on mean-scaled data with the scale pinned to
    give unit mean; returns unit-mean-scale parameters plus the scaling
    factor used."""
    _check_support(sample.values, "kappagen_normalized")
    scale = sample.weighted_mean()
    scaled = WeightedSample(sample.values / scale, sample.weights)
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


def goodness_of_fit(sample: WeightedSample, model, params):
    """Log-likelihood plus Lorenz-curve and Gini discrepancy measures.

    LRSSE is the root of the summed squared gaps between the observed and
    model Lorenz curves on the interior decile grid; AEG is the absolute
    gap between the observed and model Gini.
    """
    family = _family(model)
    ll = loglik(sample, model, params)
    deciles = np.arange(1, 10) / 10.0
    curve = ineq.empirical_lorenz(sample)
    l_emp = curve.interpolate(deciles)
    l_mod = np.asarray(family.lorenz(deciles, params), dtype=float)
    lrsse = float(np.sqrt(np.sum((l_emp - l_mod) ** 2)))
    aeg = abs(ineq._trapezoid_gini(curve) - family.gini(params))
    return GoodnessOfFit(loglik=ll, lrsse=lrsse, aeg=aeg)
