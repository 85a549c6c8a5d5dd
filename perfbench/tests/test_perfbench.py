"""Tests of the benchmark itself: toy-sized workloads pass their checks,
perturbed outputs fail every check, and traced counts repeat exactly.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import kappagen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3


def toy_round(name, tmp_path):
    workload = W.make(name, SEED, toy=True, workdir=str(tmp_path / name))
    workload.warmup()
    return workload, workload.run_round()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_toy_workload_passes_its_checks(name, tmp_path):
    workload, _ = toy_round(name, tmp_path)
    # only the tiny-kappa closed forms may miss their reference
    limit = 2 * len(W.SMALL_KAPPA_POINTS) if name == "sample-inequality" else 0
    for variant in range(workload.variants):
        ops = workload.run_round(variant)
        assert len(ops) == workload.ops_per_round
        failed, problems = workload.check(ops, variant)
        assert problems == []
        assert 0 <= failed <= limit


# ---------------------------------------------------------------------------
# every check bites


def test_cli_checks_reject_perturbed_outputs(tmp_path):
    workload, ops = toy_round("cli-pipeline", tmp_path)
    x, fit, ineq = workload.load_outputs()
    assert workload.check_outputs(x, fit, ineq) == []

    def perturbed(edit):
        x2, fit2, ineq2 = x.copy(), json.loads(json.dumps(fit)), json.loads(json.dumps(ineq))
        edit(x2, fit2, ineq2)
        return workload.check_outputs(x2, fit2, ineq2)

    edits = {
        "sample drawn from another scale": lambda x, f, i: x.__imul__(1.3),
        "loglik off in the 8th digit": lambda x, f, i: f.__setitem__("loglik", f["loglik"] * (1 + 1e-8)),
        "not converged": lambda x, f, i: f.__setitem__("converged", False),
        "refit disagrees": lambda x, f, i: i["fitted"].__setitem__("alpha", i["fitted"]["alpha"] * 1.01),
        "empirical gini": lambda x, f, i: i["empirical"].__setitem__("gini", i["empirical"]["gini"] + 1e-8),
        "fitted gini": lambda x, f, i: i["inequality"].__setitem__("gini", i["inequality"]["gini"] + 1e-6),
        "theil": lambda x, f, i: i["inequality"].__setitem__("theil", i["inequality"]["theil"] + 1e-6),
        "ge(2)": lambda x, f, i: i["inequality"]["ge"][-1].__setitem__(
            "value", i["inequality"]["ge"][-1]["value"] * (1 + 1e-6)),
    }
    for what, edit in edits.items():
        assert perturbed(edit), what
    # a fit at worse parameters, reported consistently, is below the generating likelihood
    worse = json.loads(json.dumps(fit))
    worse["params"]["beta"] *= 1.2
    p = worse["params"]
    worse["loglik"] = W.oracle_loglik("kappagen", (p["alpha"], p["beta"], p["kappa"]), x, 1.0)
    ineq2 = json.loads(json.dumps(ineq))
    ineq2["fitted"] = worse["params"]
    assert any("generating" in msg for msg in workload.check_outputs(x, worse, ineq2))


def _consistent(result, sample, model, params):
    """A FitResult at other parameters whose loglik matches the oracle."""
    values = sample.values / result.scale if result.scale is not None else sample.values
    ll = W.oracle_loglik(model, W.params_tuple(model, params), values, sample.weights)
    return dataclasses.replace(result, params=params, loglik=ll)


def test_fit_family_checks_reject_perturbed_outputs(tmp_path):
    workload, ops = toy_round("fit-families", tmp_path)
    income, wealth = workload.regions[0]
    fits = dict(zip(workload.models + ("mixture",), (op.value for op in ops)))
    assert W.FitFamilies.check_region(0, income, wealth, fits) == []

    def problems(model, result):
        return W.FitFamilies.check_region(0, income, wealth, {**fits, model: result})

    k = fits["kappagen"]
    assert problems("kappagen", dataclasses.replace(k, loglik=k.loglik * (1 + 1e-8)))
    assert problems("kappagen", dataclasses.replace(k, converged=False))
    # worse parameters, reported consistently: nesting or the generating bound fails
    w = fits["weibull"]
    assert problems("weibull", dataclasses.replace(w, loglik=w.loglik * (1 + 1e-8)))
    # worse parameters, reported consistently: nesting or the generating bound fails
    for model in ("kappagen", "kappagen_normalized"):
        r = fits[model]
        bad = dataclasses.replace(r.params, alpha=r.params.alpha * 0.8)
        assert problems(model, _consistent(r, income, model, bad)), model
    m = fits["mixture"]
    bad = dataclasses.replace(m.params, positive_branch=dataclasses.replace(
        m.params.positive_branch, kappa=0.3))
    assert any("generating" in msg for msg in problems("mixture",
                                                       _consistent(m, wealth, "mixture", bad)))


def test_bootstrap_checks_reject_perturbed_outputs(tmp_path):
    workload, ops = toy_round("bootstrap-gini", tmp_path)
    group, sample = workload.samples[0]
    full = W.params_tuple("kappagen", workload.full_fits[group].params)
    result, gini_fit, gini_emp = ops[0].value
    check = lambda *out: W.BootstrapGini.check_replicate("r", sample, full, *out)
    assert check(result, gini_fit, gini_emp) == []
    assert check(dataclasses.replace(result, loglik=result.loglik * (1 + 1e-8)), gini_fit, gini_emp)
    assert check(result, gini_fit + 1e-6, gini_emp)
    assert check(result, gini_fit, gini_emp + 1e-8)
    bad = dataclasses.replace(result.params, beta=result.params.beta * 1.3)
    worse = _consistent(result, sample, "kappagen", bad)
    assert any("full-sample" in m for m in check(worse, W.kineq.kgen_gini(bad), gini_emp))


def test_sample_inequality_checks_reject_perturbed_outputs(tmp_path):
    workload, ops = toy_round("sample-inequality", tmp_path)
    failed, problems = workload.check(ops)
    assert problems == []

    def check_with(name, edit):
        changed = [dataclasses.replace(op, value=edit(op.value)) if op.name == name else op
                   for op in ops]
        return workload.check(changed)

    edits = {
        "kgen_sample": lambda v: v * 1.3,
        "mixture_sample": lambda v: np.where(v == 0.0, 1e-3, v),
        "ekg1_sample": lambda v: v * 1.3,
        "ekg2_sample": lambda v: v * 1.3,
        "kgen_cdf": lambda v: v + 1e-11,
        "kappa_exp": lambda v: v * (1 + 1e-10),
        "kappa_log": lambda v: v + 1e-10,
        "ekg1_cdf": lambda v: v + 1e-9,
        "ekg2_quantile": lambda v: v * (1 + 1e-9),
        "kgen_lorenz[0]": lambda v: v + 1e-6,
        "kgen_gini[0]": lambda v: v + 1e-6,
        "kgen_mean[0]": lambda v: v * (1 + 1e-6),
        "kgen_mld[0]": lambda v: v + 1e-6,
        "kgen_theil[0]": lambda v: v + 1e-6,
        "kgen_ge[0](2.0)": lambda v: v + 1e-6,
        "ekg2_lorenz": lambda v: v + 1e-6,
        "mixture_lorenz": lambda v: v + 1e-6,
        "mixture_gini": lambda v: v + 1e-6,
        "quantile_gini_ekg1": lambda v: v + 1e-6,
        "quantile_gini_ekg2": lambda v: v + 1e-6,
    }
    assert set(edits) <= {op.name for op in ops}
    for name, edit in edits.items():
        assert check_with(name, edit)[1], name
    # the failure count measures: a tiny-kappa Gini at its 50-digit value is not counted
    a, k = W.SMALL_KAPPA_POINTS[0]
    exact = oracle.kgen_gini_mp(a, k)
    was_failing = abs(next(op.value for op in ops if op.name == "small_kgen_gini[0]") - exact) > 1e-7
    assert check_with("small_kgen_gini[0]", lambda v: exact) == (failed - was_failing, [])
    assert check_with("small_kgen_gini[0]", lambda v: v + 1.0) == (failed + 1 - was_failing, [])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_restores_them():
    import kappagen.distributions as kdist
    import kappagen.fitting as kfit
    import kappagen.inequality as kineq
    import kappagen.special as kspecial

    original = kdist.kgen_logpdf
    t = tracing.Tracer()
    t.install()
    try:
        assert kfit.kgen_logpdf is kdist.kgen_logpdf is kappagen.kgen_logpdf
        assert kfit.kgen_logpdf.__wrapped__ is original
        assert kineq.reg_inc_beta is kspecial.reg_inc_beta
        assert kineq.reg_inc_beta.__wrapped__ is not None
        kineq.kgen_gini(kdist.KappaGenParams(2.0, 1.0, 0.5))
    finally:
        t.uninstall()
    assert kfit.kgen_logpdf is original
    assert [s.key for s in t.spans][:2] == ["inequality.kgen_gini", "special.log_gamma"]
    assert t.spans[1].parent is t.spans[0]
    assert t.spans[0].self_ns == t.spans[0].duration_ns - sum(
        s.duration_ns for s in t.spans if s.parent is t.spans[0])


@pytest.mark.parametrize("name", ["fit-families", "sample-inequality", "cli-pipeline"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    counts = []
    for attempt in range(2):
        workload = W.make(name, SEED, toy=True, workdir=str(tmp_path / f"{name}{attempt}"))
        workload.warmup()
        t = tracing.Tracer()
        t.install()
        try:
            workload.run_round()
        finally:
            t.uninstall()
        metrics = tracing.layer_metrics(t.spans)
        counts.append({k: metrics[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    if name != "sample-inequality":
        assert counts[0]["fitting.fit_calls"] > 0 and counts[0]["fitting.loglik_calls"] > 0
    else:
        assert counts[0]["special.inv_reg_inc_beta_calls"] > 0


def test_worker_traced_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "--workload",
                           "bootstrap-gini", "--seed", str(SEED), "--seconds", "0",
                           "--trace", "1", "--toy"], capture_output=True, text=True,
                          env=run.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["rounds"] == 2
    assert set(run.LAYER_UNITS) <= set(result["layers"])
    assert result["layers"]["fitting.fit_calls"] == result["ops_per_round"]
    assert result["layers"]["fitting.fit_tail_ms"] == 0.0  # under forty fits
    assert math.isfinite(result["layers"]["trace.overhead_s"])


def test_wall_s_sums_fastest_repeats_within_an_input_set():
    import worker

    def record(variant, a, b):
        return {"variant": variant, "op_seconds": {"a": a, "b": b}}

    # one input set: each operation at its fastest round, even across rounds
    assert worker.wall_seconds([record(0, 1.0, 5.0), record(0, 3.0, 2.0),
                                record(0, 2.0, 4.0)]) == 3.0
    # input sets that each ran once: the median over rounds
    assert worker.wall_seconds([record(0, 1.0, 1.0), record(1, 4.0, 4.0),
                                record(2, 2.0, 1.0)]) == 3.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bootstrap-gini",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# the oracle agrees with itself


@pytest.mark.parametrize("family", ["kappagen", "ekg1", "ekg2", "mixture"])
def test_oracle_density_cdf_and_quantile_agree(family):
    from scipy import integrate

    u = np.array([0.05, 0.3, 0.5, 0.8, 0.97])
    if family == "kappagen":
        p, logpdf, cdf, quantile = W.BASE, oracle.kgen_logpdf, oracle.kgen_cdf, oracle.kgen_quantile
    elif family == "ekg1":
        p, logpdf, quantile = W.EKG1, oracle.ekg1_logpdf, oracle.ekg1_quantile
        cdf = lambda x, *q: -np.expm1(-oracle.ekg1_t_of_x(x, *q))
    elif family == "ekg2":
        p, logpdf, cdf, quantile = W.EKG2, oracle.ekg2_logpdf, oracle.ekg2_cdf, oracle.ekg2_quantile
    else:
        p, cdf, quantile = W.MIXTURE, oracle.mixture_cdf, oracle.mixture_quantile
        logpdf = oracle.mixture_logpdf_terms
        u = u[(u < p[2]) | (u > p[2] + p[3])]
    x = quantile(u, *p)
    assert np.allclose(cdf(x, *p), u, rtol=0, atol=1e-12)
    h = 1e-6 * np.abs(x)
    slope = (cdf(x + h, *p) - cdf(x - h, *p)) / (2 * h)
    assert np.allclose(np.exp(logpdf(x, *p)), slope, rtol=1e-6)
    if family != "mixture":
        f = lambda t: math.exp(float(logpdf(np.array([t]), *p)[0]))
        total = sum(integrate.quad(f, a, b, limit=200)[0] for a, b in
                    zip([0.0, *quantile(np.array([0.5, 0.99]), *p)],
                        [*quantile(np.array([0.5, 0.99]), *p), np.inf]))
        assert total == pytest.approx(1.0, abs=1e-8)
