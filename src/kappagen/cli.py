"""Command-line front-end: fit, evaluate, sample, compare, and export.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a fit fails
to converge.  Reports are JSON documents whose floats round-trip exactly;
tables are tab-separated with 15 significant digits.  Every command is
deterministic given input bytes, flags, and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import __version__
from .data import load_dataset
from .deformed import _blocks
from .distributions import KappaGenParams
from .errors import KappagenError
from .fitting import FAMILIES, FitConfig, FitResult, fit_mle
from .text import _format_draws
from . import inequality as ineq

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NOCONV = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the exit-code
    contract reserves 2 for non-convergence, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(x):
    return f"{x:.15g}"


def _add_param_flags(parser):
    parser.add_argument("--alpha", type=float, help="shape of the base model")
    parser.add_argument("--beta", type=float, help="scale of the base model")
    parser.add_argument("--kappa", type=float, help="tail deformation in [0, 1)")
    parser.add_argument("--shape", type=float, help="Weibull shape")
    parser.add_argument("--scale", type=float, help="Weibull scale")
    parser.add_argument("--a", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--r", type=float)
    parser.add_argument("--theta1", type=float)
    parser.add_argument("--theta2", type=float)


def _params_from_args(args):
    family = FAMILIES[args.model]
    missing = [n for n in family.flags if getattr(args, n) is None]
    if missing:
        raise UsageError(
            f"model {args.model!r} needs flags: {', '.join('--' + n for n in missing)}")
    return family.from_flags(*(getattr(args, n) for n in family.flags))


def _fit_config(args, model):
    return FitConfig(model=model, max_iter=args.max_iter, multistart=args.multistart,
                     seed=args.seed)


def _write_text(path, text):
    """Write text, a str or an iterable of strs written in turn, to path
    (stdout for None or "-")."""
    to_stdout = path is None or path == "-"
    with (contextlib.nullcontext(sys.stdout) if to_stdout
          else open(path, "w", encoding="utf-8")) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _report_json(report):
    return json.dumps(report, indent=2) + "\n"


def _float_list(raw):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {raw!r}")


def _fit_report(args, result: FitResult, input_path):
    report = {
        "model": result.model,
        "params": FAMILIES[result.model].to_dict(result.params),
        "loglik": result.loglik,
        "converged": result.converged,
        "iterations": result.iterations,
        "score_norm": result.score_norm,
        "gof": {"loglik": result.gof.loglik, "lrsse": result.gof.lrsse,
                "aeg": result.gof.aeg},
        "provenance": {"input": input_path, "seed": args.seed,
                       "tool_version": __version__},
    }
    if result.scale is not None:
        report["scale"] = result.scale
    if result.flags:
        report["flags"] = list(result.flags)
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args):
    sample = load_dataset(args.input, no_header=args.no_header)
    result = fit_mle(sample, _fit_config(args, args.model))
    report = _fit_report(args, result, args.input)
    _write_text(args.output, _report_json(report))
    return _EXIT_OK if result.converged else _EXIT_NOCONV


def _cmd_eval(args):
    family = FAMILIES[args.model]
    params = _params_from_args(args)
    funcs = [f.strip() for f in args.funcs.split(",") if f.strip()]
    rows = []
    if args.x is not None:
        xs = _float_list(args.x)
        header = ["x"] + funcs
        for x in xs:
            row = [x]
            for f in funcs:
                if f not in ("pdf", "cdf", "ccdf"):
                    raise UsageError(f"with --x, funcs must be pdf/cdf/ccdf, got {f!r}")
                row.append(getattr(family, f)(x, params))
            rows.append(row)
    else:
        us = _float_list(args.u)
        if funcs != ["quantile"]:
            raise UsageError("with --u, the only supported func is 'quantile'")
        if family.quantile is None:
            raise UsageError("quantile evaluation is not supported for the mixture")
        header = ["u", "quantile"]
        for u in us:
            rows.append([u, family.quantile(u, params)])
    lines = ["\t".join(header)]
    lines += ["\t".join(_fmt(v) for v in row) for row in rows]
    _write_text(args.output, "\n".join(lines) + "\n")
    return _EXIT_OK


def _indices(params, thetas):
    rep = ineq.kgen_inequality_report(params, thetas)
    return {"gini": rep.gini, "mld": rep.mld, "theil": rep.theil,
            "ge": [{"theta": t, "value": v} for t, v in rep.ge_values]}


def _cmd_inequality(args):
    family = FAMILIES[args.model]
    thetas = _float_list(args.theta) if args.theta else []
    report = {"model": args.model, "provenance": {"seed": args.seed,
                                                  "tool_version": __version__}}
    if args.input is not None:
        sample = load_dataset(args.input, no_header=args.no_header)
        report["provenance"]["input"] = args.input
        lorenz = ineq.empirical_lorenz_summary(sample)  # one walk, for both Ginis
        report["empirical"] = {"gini": lorenz.gini}
        exit_code = _EXIT_OK
        try:
            result = fit_mle(sample, _fit_config(args, args.model), lorenz)
        except KappagenError as exc:
            report["fit_error"] = str(exc)
        else:
            report["fitted"] = family.to_dict(result.params)
            report["converged"] = result.converged
            report["inequality"] = _indices(result.params, thetas)
            if not result.converged:
                exit_code = _EXIT_NOCONV
    else:
        if not family.flags:
            raise UsageError("parameter-based inequality supports kappagen and weibull")
        params = _params_from_args(args)
        report["params"] = FAMILIES["kappagen"].to_dict(params)
        report["inequality"] = _indices(params, thetas)
        exit_code = _EXIT_OK
    _write_text(args.output, _report_json(report))
    return exit_code


def _cmd_sample(args):
    """Draw the sample and write one %.17g value a line, a block of draws
    at a time, so the text held at once is one block's, not the sample's.

    The bytes are those of "%.17g" % value.  A draw whose magnitude lies
    in [1e-4, 1e17) gets its 17 digits from exact integer arithmetic on its
    binary significand and exponent (text._format_draws); any other draw
    is formatted by "%" itself.
    """
    params = _params_from_args(args)
    if args.n < 1:
        raise UsageError(f"sample size must be at least 1, got {args.n}")
    draws = np.asarray(FAMILIES[args.model].sample(args.n, params, args.seed))
    _write_text(args.output, (_format_draws(draws[part]) for part in _blocks(draws.size)))
    return _EXIT_OK


def _cmd_compare(args):
    sample = load_dataset(args.input, no_header=args.no_header)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if len(models) < 2:
        raise UsageError("compare needs at least 2 models")
    rows = []
    for model in models:
        entry = {"model": model}
        try:
            result = fit_mle(sample, _fit_config(args, model))
            entry.update(loglik=result.gof.loglik, lrsse=result.gof.lrsse,
                         aeg=result.gof.aeg, converged=result.converged,
                         params=FAMILIES[model].to_dict(result.params))
        except KappagenError as exc:
            entry.update(error=str(exc))
        rows.append(entry)

    fitted = [row for row in rows if "error" not in row]
    for key, reverse in (("loglik", True), ("lrsse", False), ("aeg", False)):
        for rank, row in enumerate(sorted(fitted, key=lambda r: r[key], reverse=reverse),
                                   start=1):
            row["rank_" + key] = rank

    header = ["model", "loglik", "lrsse", "aeg", "rank_loglik", "rank_lrsse",
              "rank_aeg", "status"]
    lines = ["\t".join(header)]
    for row in rows:
        if "error" in row:
            lines.append("\t".join([row["model"], "nan", "nan", "nan", "-", "-", "-",
                                    "error: " + row["error"]]))
        else:
            lines.append("\t".join([
                row["model"], _fmt(row["loglik"]), _fmt(row["lrsse"]), _fmt(row["aeg"]),
                str(row["rank_loglik"]), str(row["rank_lrsse"]), str(row["rank_aeg"]),
                "ok" if row["converged"] else "not-converged"]))
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.output:
        report = {"input": args.input, "seed": args.seed,
                  "tool_version": __version__, "results": rows}
        _write_text(args.output, _report_json(report))
    return _EXIT_OK


def _cmd_plotdata(args):
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    if args.input is not None:
        sample = load_dataset(args.input, no_header=args.no_header)
        if args.kind == "lorenz":
            curve = ineq.empirical_lorenz(sample)
            pairs = curve.points
        elif args.kind == "ccdf-loglog":
            v, w = sample.nonzero.ascending
            ccdf = 1.0 - (np.cumsum(w) - 0.5 * w) / w.sum()
            keep = (v > 0.0) & (ccdf > 0.0)
            pairs = np.column_stack([np.log10(v[keep]), np.log10(ccdf[keep])])
        else:
            raise UsageError("pdf plot data needs model parameters, not a file")
    else:
        family = FAMILIES[args.model]
        params = _params_from_args(args)
        if args.kind != "lorenz" and family.quantile is None:
            kind = args.kind.split("-")[0]
            raise UsageError(f"{kind} plot data for the mixture is not supported")
        if args.kind == "pdf":
            grid = np.linspace(0.005, 0.995, args.points)
            xs = np.asarray(family.quantile(grid, params), dtype=float)
            ys = np.asarray(family.pdf(xs, params), dtype=float)
            pairs = np.column_stack([xs, ys])
        elif args.kind == "ccdf-loglog":
            grid = np.linspace(0.005, 0.9995, args.points)
            xs = np.asarray(family.quantile(grid, params), dtype=float)
            cc = np.asarray(family.ccdf(xs, params), dtype=float)
            keep = (xs > 0.0) & (cc > 0.0)
            pairs = np.column_stack([np.log10(xs[keep]), np.log10(cc[keep])])
        else:  # lorenz
            grid = np.linspace(0.0, 1.0, args.points)
            ys = np.asarray(family.lorenz(grid, params), dtype=float)
            pairs = np.column_stack([grid, ys])
    lines = ["\t".join(_fmt(v) for v in row) for row in pairs]
    _write_text(args.output, "\n".join(lines) + "\n")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser():
    parser = _Parser(prog="kappagen",
                     description="Deformed-exponential income/wealth distribution toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    param_models = tuple(m for m, f in FAMILIES.items() if f.flags)

    def common_fit_flags(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-iter", type=int, default=500)
        sp.add_argument("--multistart", type=int, default=5)
        sp.add_argument("--no-header", action="store_true",
                        help="treat every line as data, never as a header")
        sp.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    sp = sub.add_parser("fit", help="fit a model to a dataset")
    sp.add_argument("input")
    sp.add_argument("--model", default="kappagen", choices=tuple(FAMILIES))
    common_fit_flags(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("eval", help="tabulate pdf/cdf/ccdf or quantiles")
    sp.add_argument("--model", default="kappagen", choices=param_models)
    _add_param_flags(sp)
    points = sp.add_mutually_exclusive_group(required=True)
    points.add_argument("--x", help="comma-separated evaluation points")
    points.add_argument("--u", help="comma-separated probabilities for quantiles")
    sp.add_argument("--funcs", default="pdf,cdf",
                    help="comma list of pdf,cdf,ccdf (or quantile with --u)")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("inequality", help="inequality indices from parameters or data")
    sp.add_argument("--input", default=None)
    sp.add_argument("--model", default="kappagen",
                    choices=tuple(m for m, f in FAMILIES.items()
                                  if issubclass(f.params, KappaGenParams)))
    _add_param_flags(sp)
    sp.add_argument("--theta", default=None,
                    help="comma-separated generalized-entropy orders")
    common_fit_flags(sp)
    sp.set_defaults(func=_cmd_inequality)

    sp = sub.add_parser("sample", help="draw seed-deterministic samples")
    sp.add_argument("--model", default="kappagen", choices=param_models)
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("compare", help="fit several models and rank them")
    sp.add_argument("input")
    sp.add_argument("--models", required=True,
                    help="comma list with at least two model tags")
    common_fit_flags(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("plotdata", help="two-column tables for plotting")
    sp.add_argument("--input", default=None)
    sp.add_argument("--model", default="kappagen", choices=param_models)
    _add_param_flags(sp)
    sp.add_argument("--kind", required=True, choices=("ccdf-loglog", "lorenz", "pdf"))
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--no-header", action="store_true")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, KappagenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
