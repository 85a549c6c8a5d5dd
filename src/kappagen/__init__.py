"""Deformed-exponential income and wealth distributions.

A math core for the one-parameter deformed exponential, the distribution
families built on it (base three-parameter model, net-wealth mixture, and
two four-parameter extensions), Lorenz/Gini/entropy inequality analytics,
and a weighted maximum-likelihood fitting engine with goodness-of-fit
reporting.
"""

__version__ = "0.1.0"

from .data import WeightedSample, load_dataset
from .deformed import (
    kappa_exp,
    kappa_exp_asymptote,
    kappa_exp_taylor,
    kappa_log,
    kappa_sum,
    log_kappa_exp,
    xi_coefficients,
)
from .distributions import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
    ekg1_ccdf,
    ekg1_cdf,
    ekg1_density_at_u,
    ekg1_pdf,
    ekg1_quantile,
    ekg1_sample,
    ekg2_ccdf,
    ekg2_cdf,
    ekg2_pdf,
    ekg2_quantile,
    ekg2_sample,
    kgen_cdf,
    kgen_ccdf,
    kgen_from_normalized,
    kgen_logpdf,
    kgen_mean,
    kgen_mode,
    kgen_moment,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    kgen_variance,
    mixture_ccdf,
    mixture_cdf,
    mixture_mean,
    mixture_moment,
    mixture_pdf,
    mixture_sample,
)
from .errors import (
    CurveNonexistenceError,
    DataFormatError,
    DegenerateDataError,
    DegenerateNormalizationError,
    DomainError,
    KappagenError,
    MomentDivergenceError,
    SupportViolationError,
)
from .fitting import (
    FitConfig,
    FitDiagnostics,
    FitResult,
    GoodnessOfFit,
    StartTrace,
    fit_mixture,
    fit_mle,
    fit_normalized,
    goodness_of_fit,
    loglik,
    loglik_hessian,
    loglik_score,
)
from .inequality import (
    DECILES,
    EmpiricalLorenzSummary,
    InequalityReport,
    LorenzCurve,
    LorenzOrdering,
    ekg2_lorenz,
    empirical_gini,
    empirical_lorenz,
    empirical_lorenz_summary,
    kgen_ge,
    kgen_gini,
    kgen_inequality_report,
    kgen_lorenz,
    kgen_mld,
    kgen_theil,
    lorenz_dominates,
    mixture_gini,
    mixture_lorenz,
    quantile_gini,
    quantile_lorenz,
    quantile_mean,
)
from .special import (
    beta_fn,
    digamma,
    gamma_fn,
    inc_beta,
    inv_reg_inc_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_inc_gamma,
    upper_inc_gamma,
)
