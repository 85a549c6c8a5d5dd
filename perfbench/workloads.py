"""The four benchmark workloads.

Each workload makes its inputs from the seed in its constructor (the set-up
that setup_s times, together with warmup()), then run_round() calls into
kappagen's public functions, timing every call from outside, and returns
one Op per operation.  Every round repeats the same operations on the same
inputs, so the share of failed operations is the same in every run.
check() compares one round's outputs with the independent oracle, or with
a property the method must have, and returns (failed, problems): failed
counts operations that missed their reference through a known fault of the
program; any entry in problems makes the run incorrect.

Calls go through module attributes (``kfit.fit_mle``), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import kappagen.cli as kcli
import kappagen.deformed as kdef
import kappagen.distributions as kdist
import kappagen.fitting as kfit
import kappagen.inequality as kineq
from kappagen.data import WeightedSample
from kappagen.distributions import (
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
)

import oracle

# Generating parameters, fixed so that the cost of a round depends on the
# seed only through the drawn records.
BASE = (2.5, 1.0, 0.6)  # alpha, beta, kappa: tail exponent alpha/kappa ~ 4.2
MIXTURE = (0.8, 0.5, 0.15, 0.05, 0.8) + BASE  # Weibull branch, theta1..3, base branch
EKG1 = (2.0, 1.0, 1.5, 0.2)  # a, b, q, r
EKG2 = (2.0, 1.0, 2.0, 1.2)  # a, b, p, q

REL_LOGLIK = 1e-9  # reported log-likelihood against the oracle's, relative
TOL_MEAN_LOGLIK = 1e-5  # optimiser tolerance on the weight-normalised log-likelihood
TOL_CLOSED_FORM = 1e-7  # the README's accuracy claim for closed forms
TOL_GINI_EMPIRICAL = 1e-9


@dataclass
class Op:
    """One timed call: its name, its output (or the exception it raised)."""

    name: str
    value: object
    seconds: float
    error: str | None = None


def timed(name, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # a failing call is a failed operation, not a crash
        return Op(name, None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    return Op(name, value, time.perf_counter() - start)


def fingerprint(value):
    """A comparable digest of an output, exact to the last bit."""
    if isinstance(value, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return repr(value)


def kgen(p):
    return KappaGenParams(*p)


def mixture(p):
    return NetWealthMixtureParams(negative_branch=WeibullParams(p[0], p[1]), theta1=p[2],
                                  theta2=p[3], theta3=p[4], positive_branch=KappaGenParams(*p[5:]))


def params_tuple(model, params):
    """The program's parameter object as the oracle's tuple."""
    if model in ("kappagen", "kappagen_normalized"):
        return (params.alpha, params.beta, params.kappa)
    if model == "weibull":
        return (params.shape, params.scale)
    return (params.negative_branch.shape, params.negative_branch.scale, params.theta1,
            params.theta2, params.theta3, params.positive_branch.alpha,
            params.positive_branch.beta, params.positive_branch.kappa)


def oracle_loglik(model, p, values, weights):
    """Weighted log-likelihood from the oracle's densities."""
    if model in ("kappagen", "kappagen_normalized"):
        terms = oracle.kgen_logpdf(values, *p)
    elif model == "weibull":
        terms = oracle.weibull_logpdf(values, *p)
    else:
        terms = oracle.mixture_logpdf_terms(values, *p)
    return float(np.sum(weights * terms))


def close(a, b, rel=0.0, abs_=0.0):
    return abs(a - b) <= max(abs_, rel * abs(b))


class Workload:
    name = ""
    ops_per_round = 0
    # Round r works on input set r % variants; rounds of one set repeat
    # exactly, and each set's first round is checked.
    variants = 1

    def __init__(self, seed, toy=False, workdir=None):
        self.seed = seed
        self.workdir = workdir

    def warmup(self):
        pass

    def run_round(self, variant=0):
        raise NotImplementedError

    def check(self, ops, variant=0):
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline(Workload):
    """sample -> fit -> inequality --input through kappagen.cli.main on a
    text file, one start per fit: the only workload that formats, writes
    and parses text.

    The optimiser's path on some samples of 10^6 records is 50-60% longer
    than on most (2 of 20 seeds), so rounds cycle through four samples and
    the median round is robust to one slow sample.
    """

    name = "cli-pipeline"
    ops_per_round = 3
    variants = 4
    thetas = (-1.0, 0.5, 2.0)

    def __init__(self, seed, toy=False, workdir=None):
        super().__init__(seed, toy, workdir)
        self.n = 2_000 if toy else 1_000_000
        seeds = np.random.default_rng(seed).integers(2**31, size=self.variants)
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        self.argv = []
        a, b, k = BASE
        for v, sample_seed in enumerate(int(s) for s in seeds):
            data, fit, ineq = (os.path.join(workdir, f"{name}-{v}{ext}") for name, ext in
                               (("incomes", ".txt"), ("fit", ".json"), ("inequality", ".json")))
            seed_flag = ["--seed", str(sample_seed)]
            self.files.append((data, fit, ineq))
            self.argv.append([
                ("sample", ["sample", "--model", "kappagen", "--alpha", repr(a), "--beta",
                            repr(b), "--kappa", repr(k), "--n", str(self.n), *seed_flag,
                            "-o", data]),
                ("fit", ["fit", data, "--model", "kappagen", *seed_flag, "--multistart", "1",
                         "-o", fit]),
                ("inequality", ["inequality", "--input", data, "--model", "kappagen",
                                *seed_flag, "--multistart", "1",
                                "--theta=" + ",".join(repr(t) for t in self.thetas),
                                "-o", ineq]),
            ])

    def warmup(self):
        kcli.main(["eval", "--model", "kappagen", "--alpha", "2", "--beta", "1", "--kappa",
                   "0.5", "--x", "1.0", "-o", os.path.join(self.workdir, "warmup.tsv")])

    def run_round(self, variant=0):
        ops = []
        for name, argv in self.argv[variant]:
            # a fresh file each time: truncating a file that the kernel is
            # still writing back makes ext4 flush it, which is disk noise
            out = argv[-1]
            if os.path.exists(out):
                os.remove(out)
            op = timed(name, kcli.main, argv)
            if op.error is None:
                with open(out, "rb") as fh:
                    op.value = (op.value, hashlib.sha1(fh.read()).hexdigest())
            ops.append(op)
        return ops

    def check(self, ops, variant=0):
        problems = []
        for op in ops:
            if op.error is not None or op.value[0] != 0:
                problems.append(f"{op.name}: exit {op.value and op.value[0]} {op.error or ''}")
        if problems:
            return 0, problems
        return 0, [f"sample {variant}: {p}" for p in self.check_outputs(*self.load_outputs(variant))]

    def load_outputs(self, variant=0):
        """The sample file, parsed apart from the program, and both reports."""
        data, fit_report, ineq_report = self.files[variant]
        with open(data, encoding="utf-8") as fh:
            x = np.array(fh.read().split(), dtype=float)
        with open(fit_report, encoding="utf-8") as fh:
            fit = json.load(fh)
        with open(ineq_report, encoding="utf-8") as fh:
            ineq = json.load(fh)
        return x, fit, ineq

    def check_outputs(self, x, fit, ineq):
        problems = []
        if x.size != self.n or not np.all(np.isfinite(x)) or not np.all(x > 0.0):
            return [f"sample: {x.size} records, expected {self.n} positive finite values"]
        u = np.arange(1, 100) / 100.0
        gap = np.max(np.abs(oracle.ecdf_at(x, oracle.kgen_quantile(u, *BASE)) - u))
        if gap > oracle.dkw_epsilon(x.size):
            problems.append(f"sample: empirical CDF off by {gap:.3g} at the oracle's quantiles")
        if not fit["converged"]:
            problems.append("fit: not converged")
        p = fit["params"]
        fitted = (p["alpha"], p["beta"], p["kappa"])
        ll_oracle = oracle_loglik("kappagen", fitted, x, 1.0)
        if not close(fit["loglik"], ll_oracle, rel=REL_LOGLIK):
            problems.append(f"fit: loglik {fit['loglik']!r} vs oracle {ll_oracle!r}")
        ll_gen = oracle_loglik("kappagen", BASE, x, 1.0)
        if fit["loglik"] < ll_gen - TOL_MEAN_LOGLIK * x.size:
            problems.append(f"fit: loglik {fit['loglik']!r} below the generating {ll_gen!r}")
        if ineq.get("fitted") != p or not ineq.get("converged"):
            problems.append("inequality: refit differs from the fit command's parameters")
        g_emp = oracle.weighted_gini(x)
        if not close(ineq["empirical"]["gini"], g_emp, abs_=TOL_GINI_EMPIRICAL):
            problems.append(f"inequality: empirical gini {ineq['empirical']['gini']!r} "
                            f"vs sorted-sample formula {g_emp!r}")
        got = ineq["inequality"]
        if [e["theta"] for e in got["ge"]] != list(self.thetas):
            return problems + ["inequality: GE orders differ from the request"]
        ref = oracle.kgen_indices_quad(*fitted, self.thetas)
        pairs = [("gini", got["gini"], ref["gini"]), ("mld", got["mld"], ref["mld"]),
                 ("theil", got["theil"], ref["theil"])]
        pairs += [(f"ge({e['theta']})", e["value"], ref["ge"][e["theta"]]) for e in got["ge"]]
        for name, value, want in pairs:
            if not close(value, want, rel=TOL_CLOSED_FORM, abs_=TOL_CLOSED_FORM):
                problems.append(f"inequality: {name} {value!r} vs quadrature {want!r}")
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# fit-families


class FitFamilies(Workload):
    """fit_mle on survey-weighted microdata from sixteen regions: kappagen,
    weibull and kappagen_normalized on 10^4 base-model records per region
    and the net-wealth mixture on 10^4 records with negatives and a zero
    atom.  The cost is per-record log-density work times the number of
    evaluations.  The optimiser's path length varies from one sample to the
    next (the unit-mean fit by ~30%), so sixteen regions give a steadier
    total than one fit at 1.6 x 10^5 records with the same likelihood work.

    The four-parameter families are left out: an ekg2 fit on these samples
    raises in its goodness of fit on some seeds (see README), and one ekg1
    fit costs ~0.7 s with a spread of 25-60% between samples, which no
    affordable number of regions averages out.
    """

    name = "fit-families"
    models = ("kappagen", "weibull", "kappagen_normalized")

    def __init__(self, seed, toy=False, workdir=None):
        super().__init__(seed, toy, workdir)
        regions, n = (1, 2_000) if toy else (16, 10_000)
        rng = np.random.default_rng(seed)

        def weighted(values):
            return WeightedSample(values, rng.integers(1, 6, size=values.size).astype(float))

        self.regions = [(weighted(oracle.kgen_quantile(rng.random(n), *BASE)),
                         weighted(oracle.mixture_quantile(rng.random(n), *MIXTURE)))
                        for _ in range(regions)]
        self.ops_per_round = regions * (len(self.models) + 1)

    def warmup(self):
        income = self.regions[0][0]
        kfit.fit_mle(WeightedSample(income.values[:200], income.weights[:200]),
                     kfit.FitConfig(model="weibull", multistart=1))

    def run_round(self, variant=0):
        ops = []
        for i, (income, wealth) in enumerate(self.regions):
            for model, sample in [(m, income) for m in self.models] + [("mixture", wealth)]:
                config = kfit.FitConfig(model=model, multistart=1, seed=i)
                ops.append(timed(f"{model}[{i}]", kfit.fit_mle, sample, config))
        return ops

    def check(self, ops, variant=0):
        problems = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
        if problems:
            return 0, problems
        per_region = len(self.models) + 1
        for i, (income, wealth) in enumerate(self.regions):
            results = [op.value for op in ops[i * per_region:(i + 1) * per_region]]
            fits = dict(zip(self.models + ("mixture",), results))
            problems += self.check_region(i, income, wealth, fits)
        return 0, problems

    @staticmethod
    def check_region(i, income, wealth, fits):
        problems = []
        for model, r in fits.items():
            s = wealth if model == "mixture" else income
            if not r.converged:
                problems.append(f"region {i} {model}: not converged")
            values = s.values / r.scale if r.scale is not None else s.values
            ll = oracle_loglik(model, params_tuple(model, r.params), values, s.weights)
            if not close(r.loglik, ll, rel=REL_LOGLIK):
                problems.append(f"region {i} {model}: loglik {r.loglik!r} vs oracle {ll!r}")

        def at_least(s, lower, upper, what):
            if upper < lower - TOL_MEAN_LOGLIK * s.total_weight:
                problems.append(f"region {i}: {what}: {upper!r} < {lower!r}")

        ll = {model: r.loglik for model, r in fits.items()}
        norm = fits["kappagen_normalized"]
        a, _, k = BASE
        # nesting on one sample: weibull is kappagen at kappa -> 0, and the
        # unit-mean model is kappagen with its scale pinned, fitted on
        # values / scale (which adds W ln(scale) to the log-likelihood)
        at_least(income, ll["weibull"], ll["kappagen"], "weibull <= kappagen")
        at_least(income, norm.loglik - income.total_weight * math.log(norm.scale),
                 ll["kappagen"], "normalized <= kappagen")
        # each fit reaches at least the likelihood of the generating parameters
        at_least(income, oracle_loglik("kappagen", BASE, income.values, income.weights),
                 ll["kappagen"], "kappagen >= generating parameters")
        at_least(wealth, oracle_loglik("mixture", MIXTURE, wealth.values, wealth.weights),
                 ll["mixture"], "mixture >= generating parameters")
        unit_beta = 1.0 / oracle.kgen_mean_mp(a, 1.0, k)
        at_least(income, oracle_loglik("kappagen", (a, unit_beta, k), income.values / norm.scale,
                                       income.weights),
                 norm.loglik, "kappagen_normalized >= generating shape pair")
        return problems


# ---------------------------------------------------------------------------
# bootstrap-gini


class BootstrapGini(Workload):
    """Hundreds of kappagen fits to resamples of samples of 10^3 records,
    each with its fitted and empirical Gini: per-fit set-up, optimiser and
    validation overhead dominate, the opposite cost split to fit-families.

    The optimiser's path length depends on the sample being resampled, so
    the replicates are spread over eight samples: one sample per run would
    make the cost of a round follow that one draw.
    """

    name = "bootstrap-gini"

    def __init__(self, seed, toy=False, workdir=None):
        super().__init__(seed, toy, workdir)
        groups, n, per_group = (1, 200, 5) if toy else (8, 1_000, 25)
        rng = np.random.default_rng(seed)
        self.bases = []
        self.samples = []  # (index into bases, resample as weights)
        for g in range(groups):
            values = oracle.kgen_quantile(rng.random(n), *BASE)
            self.bases.append(values)
            for _ in range(per_group):
                counts = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
                self.samples.append((g, WeightedSample(values, counts)))
        self.ops_per_round = len(self.samples)
        self.config = kfit.FitConfig(model="kappagen", multistart=1)
        self.full_fits = []

    def warmup(self):
        self.full_fits = [kfit.fit_mle(WeightedSample(v), self.config) for v in self.bases]

    def replicate(self, sample):
        result = kfit.fit_mle(sample, self.config)
        return result, kineq.kgen_gini(result.params), kineq.empirical_gini(sample)

    def run_round(self, variant=0):
        return [timed(f"replicate[{b}]", self.replicate, s)
                for b, (_, s) in enumerate(self.samples)]

    def check(self, ops, variant=0):
        problems = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
        if problems:
            return 0, problems
        full = [params_tuple("kappagen", fit.params) for fit in self.full_fits]
        for op, (g, s) in zip(ops, self.samples):
            problems += self.check_replicate(op.name, s, full[g], *op.value)
        return 0, problems

    @staticmethod
    def check_replicate(name, s, full, result, gini_fit, gini_emp):
        problems = []
        fitted = params_tuple("kappagen", result.params)
        ll = oracle_loglik("kappagen", fitted, s.values, s.weights)
        if not close(result.loglik, ll, rel=REL_LOGLIK):
            problems.append(f"{name}: loglik {result.loglik!r} vs oracle {ll!r}")
        ll_full = oracle_loglik("kappagen", full, s.values, s.weights)
        if result.loglik < ll_full - TOL_MEAN_LOGLIK * s.total_weight:
            problems.append(f"{name}: loglik {result.loglik!r} below the full-sample "
                            f"parameters' {ll_full!r}")
        want = oracle.kgen_gini_mp(fitted[0], fitted[2])
        if not close(gini_fit, want, abs_=TOL_CLOSED_FORM):
            problems.append(f"{name}: fitted gini {gini_fit!r} vs mpmath {want!r}")
        want = oracle.weighted_gini(s.values, s.weights)
        if not close(gini_emp, want, abs_=TOL_GINI_EMPIRICAL):
            problems.append(f"{name}: empirical gini {gini_emp!r} vs sorted-sample {want!r}")
        return problems


# ---------------------------------------------------------------------------
# sample-inequality


# (alpha, kappa) cells of the closed-form grid; the seed moves each point
# by up to 5% in both coordinates, which keeps alpha/kappa > 2.4 so every
# GE order below exists.
GRID_ALPHA = (1.5, 2.0, 2.5, 3.0, 4.0)
GRID_KAPPA = (0.05, 0.2, 0.4, 0.55)
GE_THETAS = (-1.0, 0.5, 2.0)
# Tiny-kappa points, the same in every run: the log-gamma difference in
# kgen_gini and kgen_moment cancels there and misses the 50-digit value
# by more than 1e-7.
SMALL_KAPPA_POINTS = tuple((a, k) for k in (2e-10, 5e-10, 1e-9) for a in (1.5, 2.0, 3.0))


class SampleInequality(Workload):
    """Inversion sampling of all four families, EKG1 CDF inversion, the
    deformed core, and closed-form and quadrature inequality indices; no
    fitting."""

    name = "sample-inequality"

    def __init__(self, seed, toy=False, workdir=None):
        super().__init__(seed, toy, workdir)
        self.draws = 10_000 if toy else 1_000_000
        n_points = 1_000 if toy else 100_000
        n_quantiles = 1_000 if toy else 10_000
        rng = np.random.default_rng(seed)
        self.sampler_seeds = [int(s) for s in rng.integers(2**31, size=4)]
        self.u_kgen = rng.random(self.draws)
        self.x_kgen = oracle.kgen_quantile(self.u_kgen, *BASE)
        self.deformed_kappa = 0.5
        self.x_deformed = rng.uniform(-5.0, 5.0, self.draws)
        self.y_deformed = np.exp(rng.uniform(math.log(0.1), math.log(10.0), self.draws))
        self.u_ekg1 = rng.random(n_points)
        self.x_ekg1 = oracle.ekg1_quantile(self.u_ekg1, *EKG1)
        self.u_ekg2 = rng.random(n_quantiles)
        cells = [(a, k) for a in GRID_ALPHA for k in GRID_KAPPA][: 4 if toy else None]
        jitter = rng.uniform(0.95, 1.05, size=(len(cells), 2))
        self.grid = [(a * ja, k * jk) for (a, k), (ja, jk) in zip(cells, jitter)]
        self.u_lorenz = np.arange(1, 100) / 100.0
        self.ops_per_round = len(self.plan())

    def plan(self):
        """(name, function, args) for every operation of a round."""
        seeds = self.sampler_seeds
        ops = [
            ("kgen_sample", kdist.kgen_sample, (self.draws, kgen(BASE), seeds[0])),
            ("mixture_sample", kdist.mixture_sample, (self.draws, mixture(MIXTURE), seeds[1])),
            ("ekg1_sample", kdist.ekg1_sample, (self.draws, EKG1Params(*EKG1), seeds[2])),
            ("ekg2_sample", kdist.ekg2_sample, (self.draws, EKG2Params(*EKG2), seeds[3])),
            ("kgen_cdf", kdist.kgen_cdf, (self.x_kgen, kgen(BASE))),
            ("kappa_exp", kdef.kappa_exp, (self.x_deformed, self.deformed_kappa)),
            ("kappa_log", kdef.kappa_log, (self.y_deformed, self.deformed_kappa)),
            ("ekg1_cdf", kdist.ekg1_cdf, (self.x_ekg1, EKG1Params(*EKG1))),
            ("ekg2_quantile", kdist.ekg2_quantile, (self.u_ekg2, EKG2Params(*EKG2))),
        ]
        for j, (a, k) in enumerate(self.grid):
            p = KappaGenParams(a, 1.0, k)
            ops += [
                (f"kgen_lorenz[{j}]", kineq.kgen_lorenz, (self.u_lorenz, p)),
                (f"kgen_gini[{j}]", kineq.kgen_gini, (p,)),
                (f"kgen_mean[{j}]", kdist.kgen_mean, (p,)),
                (f"kgen_mld[{j}]", kineq.kgen_mld, (p,)),
                (f"kgen_theil[{j}]", kineq.kgen_theil, (p,)),
            ] + [(f"kgen_ge[{j}]({th})", kineq.kgen_ge, (th, p)) for th in GE_THETAS]
        e1, e2 = EKG1Params(*EKG1), EKG2Params(*EKG2)
        ops += [
            ("ekg2_lorenz", kineq.ekg2_lorenz, (self.u_lorenz, e2)),
            ("mixture_lorenz", kineq.mixture_lorenz, (self.u_lorenz, mixture(MIXTURE))),
            ("mixture_gini", kineq.mixture_gini, (mixture(MIXTURE),)),
            ("quantile_gini_ekg1", kineq.quantile_gini, (lambda t: kdist.ekg1_quantile(t, e1),)),
            ("quantile_gini_ekg2", kineq.quantile_gini, (lambda t: kdist.ekg2_quantile(t, e2),)),
        ]
        for j, (a, k) in enumerate(SMALL_KAPPA_POINTS):
            p = KappaGenParams(a, 1.0, k)
            ops += [(f"small_kgen_gini[{j}]", kineq.kgen_gini, (p,)),
                    (f"small_kgen_mean[{j}]", kdist.kgen_mean, (p,))]
        return ops

    def warmup(self):
        kdist.kgen_sample(100, kgen(BASE), 0)

    def run_round(self, variant=0):
        return [timed(name, fn, *args) for name, fn, args in self.plan()]

    def check(self, ops, variant=0):
        problems = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
        if problems:
            return 0, problems
        out = {op.name: op.value for op in ops}
        problems += self.check_samplers(out)
        problems += self.check_evaluations(out)
        problems += self.check_indices(out)
        failed = 0
        for j, (a, k) in enumerate(SMALL_KAPPA_POINTS):
            gini = out[f"small_kgen_gini[{j}]"]
            mean = out[f"small_kgen_mean[{j}]"]
            failed += not close(gini, oracle.kgen_gini_mp(a, k), abs_=TOL_CLOSED_FORM)
            failed += not close(mean, oracle.kgen_mean_mp(a, 1.0, k), rel=TOL_CLOSED_FORM)
        return failed, problems

    def check_samplers(self, out):
        problems = []
        u = np.arange(1, 100) / 100.0
        th1, rho = MIXTURE[2], MIXTURE[2] + MIXTURE[3]
        u_mix = u[(u < th1) | (u > rho)]
        cases = [
            ("kgen_sample", oracle.kgen_quantile(u, *BASE), u),
            ("ekg1_sample", oracle.ekg1_quantile(u, *EKG1), u),
            ("ekg2_sample", oracle.ekg2_quantile(u, *EKG2), u),
            ("mixture_sample", oracle.mixture_quantile(u_mix, *MIXTURE), u_mix),
        ]
        eps = oracle.dkw_epsilon(self.draws)
        for name, points, want in cases:
            draws = out[name]
            if draws.shape != (self.draws,) or not np.all(np.isfinite(draws)):
                problems.append(f"{name}: {draws.shape} draws, expected {self.draws} finite")
                continue
            gap = float(np.max(np.abs(oracle.ecdf_at(draws, points) - want)))
            if gap > eps:
                problems.append(f"{name}: empirical CDF off by {gap:.3g} > DKW {eps:.3g}")
        zeros = float(np.mean(out["mixture_sample"] == 0.0))
        if abs(zeros - MIXTURE[3]) > eps:
            problems.append(f"mixture_sample: zero share {zeros} vs atom {MIXTURE[3]}")
        return problems

    def check_evaluations(self, out):
        problems = []
        k = self.deformed_kappa
        x, y = self.x_deformed, self.y_deformed
        want_exp = (np.sqrt(1.0 + k * k * x * x) + k * x) ** (1.0 / k)
        want_log = (y ** k - y ** (-k)) / (2.0 * k)
        x_ekg2 = oracle.ekg2_quantile(self.u_ekg2, *EKG2)
        # relative 1e-10, plus how far x moves when u moves by 1e-11 (du / f(x)):
        # inv_reg_inc_beta leaves |I_z - u| up to ~6e-13, which in the tails
        # (u below ~1e-3, 1 - u below ~1e-5) is more than 1e-10 of x
        slack = (1e-11 + 4.0 * np.spacing(self.u_ekg2)) / np.exp(
            oracle.ekg2_logpdf(x_ekg2, *EKG2))
        checks = [
            ("kgen_cdf", out["kgen_cdf"], self.u_kgen, 1e-12),
            ("kappa_exp", out["kappa_exp"], want_exp, 1e-11 * np.abs(want_exp)),
            ("kappa_log", out["kappa_log"], want_log, 1e-14 + 1e-11 * np.abs(want_log)),
            ("ekg1_cdf", out["ekg1_cdf"], self.u_ekg1, 1e-10),
            ("ekg2_quantile", out["ekg2_quantile"], x_ekg2, 1e-10 * x_ekg2 + slack),
        ]
        for name, got, want, tol in checks:
            bad = ~(np.abs(np.asarray(got) - want) <= tol)
            if np.any(bad):
                j = int(np.argmax(bad))
                problems.append(f"{name}: {got[j]!r} vs oracle {want[j]!r}")
        return problems

    def check_indices(self, out):
        problems = []

        def expect(name, got, want, rel=False):
            if not close(got, want, rel=TOL_CLOSED_FORM if rel else 0.0,
                         abs_=0.0 if rel else TOL_CLOSED_FORM):
                problems.append(f"{name}: {got!r} vs reference {want!r}")

        for j, (a, k) in enumerate(self.grid):
            lorenz = oracle.lorenz_from_quantile_t(
                lambda t: float(oracle.kgen_quantile_t(t, a, 1.0, k)), self.u_lorenz)
            err = np.max(np.abs(out[f"kgen_lorenz[{j}]"] - lorenz))
            if err > TOL_CLOSED_FORM:
                problems.append(f"kgen_lorenz[{j}] at {a, k}: off quadrature by {err:.3g}")
            references = [(f"kgen_gini[{j}]", oracle.kgen_gini_mp(a, k), False),
                          (f"kgen_mean[{j}]", oracle.kgen_mean_mp(a, 1.0, k), True),
                          (f"kgen_mld[{j}]", oracle.kgen_ge_mp(0.0, a, 1.0, k), False),
                          (f"kgen_theil[{j}]", oracle.kgen_ge_mp(1.0, a, 1.0, k), False)]
            references += [(f"kgen_ge[{j}]({th})", oracle.kgen_ge_mp(th, a, 1.0, k), False)
                           for th in GE_THETAS]
            for name, want, rel in references:
                expect(f"{name} at {a, k}", out[name], want, rel=rel)

        e1_t = lambda t: float(oracle.ekg1_quantile_t(t, *EKG1))
        e2_t = lambda t: oracle.ekg2_quantile_t(t, *EKG2)
        mix_t = lambda t: oracle.mixture_quantile_t(t, *MIXTURE)
        shape, scale, th1, th2 = MIXTURE[:4]
        mix_edges = (-math.log1p(-th1), -math.log1p(-(th1 + th2)))
        for name, qt, edges in (("ekg2_lorenz", e2_t, ()), ("mixture_lorenz", mix_t, mix_edges)):
            err = np.max(np.abs(out[name] - oracle.lorenz_from_quantile_t(qt, self.u_lorenz,
                                                                         edges)))
            if err > TOL_CLOSED_FORM:
                problems.append(f"{name}: off quadrature by {err:.3g}")
        # net-wealth Gini normalised by 1 - rho L(theta1), L(theta1) = -scale theta1 G / m
        mean = oracle.mixture_mean(*MIXTURE)
        floor = (th1 + th2) * scale * th1 * math.gamma(1.0 + 1.0 / shape)
        expect("mixture_gini", out["mixture_gini"],
               oracle.gini_from_quantile_t(mix_t, mix_edges) * mean / (mean + floor))
        expect("quantile_gini_ekg1", out["quantile_gini_ekg1"], oracle.gini_from_quantile_t(e1_t))
        expect("quantile_gini_ekg2", out["quantile_gini_ekg2"], oracle.gini_from_quantile_t(e2_t))
        return problems


WORKLOADS = {w.name: w for w in (CliPipeline, FitFamilies, BootstrapGini, SampleInequality)}


def make(name, seed, toy=False, workdir=None):
    return WORKLOADS[name](seed, toy=toy, workdir=workdir)
