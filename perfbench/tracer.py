"""In-memory spans around the public functions of each kappagen layer.

The package imports with ``from .x import y``, so one function object is
bound under its name in several modules (``kappagen.fitting.kgen_logpdf``
is the same object as ``kappagen.distributions.kgen_logpdf``).  install()
replaces every binding of each public function, in every kappagen module,
with one wrapper; uninstall() puts the originals back.  A span records its
key (``layer.function``), its parent span, start and end, its self time
(duration minus the durations of its direct children) and whether the call
raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "data", "fitting", "distributions", "special", "inequality", "deformed")

# Work sizes recorded with a span, for the throughput metrics.
_SIZE = {
    "data.load_dataset": lambda args, kwargs, ret: len(ret),
    "distributions.kgen_logpdf": lambda args, kwargs, ret: _length(args[0]),
    "distributions.ekg1_logpdf": lambda args, kwargs, ret: _length(args[0]),
    "distributions.ekg2_logpdf": lambda args, kwargs, ret: _length(args[0]),
    "distributions.kgen_sample": lambda args, kwargs, ret: _length(ret),
    "distributions.mixture_sample": lambda args, kwargs, ret: _length(ret),
    "distributions.ekg1_sample": lambda args, kwargs, ret: _length(ret),
    "distributions.ekg2_sample": lambda args, kwargs, ret: _length(ret),
}


def _length(x):
    return int(getattr(x, "size", 1))


class Span:
    __slots__ = ("key", "parent", "start", "end", "child_ns", "size", "raised", "mask")

    def __init__(self, key, parent, start):
        self.key = key
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0
        self.size = 0
        self.raised = False
        self.mask = 0

    @property
    def duration_ns(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns


class Tracer:
    """Wraps the public functions of kappagen's LAYERS modules."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self._modules = [importlib.import_module("kappagen")] + [
            importlib.import_module(f"kappagen.{layer}") for layer in LAYERS]

    def public_functions(self):
        """(layer, name, function) for every public function defined in a layer."""
        out = []
        for layer, module in zip(LAYERS, self._modules[1:]):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    out.append((layer, name, obj))
        return out

    def install(self):
        if self._patches:
            return
        wrappers = {id(fn): self._wrap(f"{layer}.{name}", fn)
                    for layer, name, fn in self.public_functions()}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, key, fn):
        size_of = _SIZE.get(key)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span = Span(key, parent, clock())
            self.spans.append(span)
            stack.append(span)
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
            if size_of is not None:
                span.size = size_of(args, kwargs, ret)
            return ret

        return wrapper

    def dump(self, path):
        """Write the spans as JSON lines: key, parent index, start, end (ns), raised."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps([s.key, parent, s.start, s.end, s.raised]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one round of spans

_GROUPS = {
    "fit": {"fitting.fit_mle", "fitting.fit_mixture", "fitting.fit_normalized"},
    "loglik_gof": {"fitting.loglik", "fitting.goodness_of_fit"},
    "gof": {"fitting.goodness_of_fit"},
    "logpdf": {"distributions.kgen_logpdf", "distributions.ekg1_logpdf",
               "distributions.ekg2_logpdf"},
    # the public EKG1 functions that invert the quantile numerically
    "ekg1_inversion": {"distributions.ekg1_cdf", "distributions.ekg1_pdf",
                       "distributions.ekg1_logpdf"},
    "sample": {"distributions.kgen_sample", "distributions.mixture_sample",
               "distributions.ekg1_sample", "distributions.ekg2_sample"},
    "inv_beta": {"special.inv_reg_inc_beta"},
    "reg_beta": {"special.reg_inc_beta"},
    "empirical": {"inequality.empirical_lorenz", "inequality.empirical_gini"},
    "closed_form": {"inequality.kgen_lorenz", "inequality.kgen_gini", "inequality.kgen_mld",
                    "inequality.kgen_theil", "inequality.kgen_ge",
                    "inequality.kgen_inequality_report", "inequality.lorenz_dominates",
                    "inequality.mixture_lorenz", "inequality.mixture_gini",
                    "inequality.ekg2_lorenz"},
    "quadrature": {"inequality.quantile_mean", "inequality.quantile_lorenz",
                   "inequality.quantile_gini"},
}
_BIT = {name: 1 << i for i, name in enumerate(list(_GROUPS) + ["deformed"])}

COUNT_METRICS = ("fitting.fit_calls", "fitting.loglik_calls", "fitting.loglik_failed",
                 "special.inv_reg_inc_beta_calls", "special.log_gamma_calls")


def _key_bits(key):
    bits = sum(_BIT[g] for g, keys in _GROUPS.items() if key in keys)
    return bits | (_BIT["deformed"] if key.startswith("deformed.") else 0)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def tail_index(n):
    """Index, in ascending order, of the highest order statistic with at
    least ten samples beyond it; None below forty samples."""
    return n - 11 if n >= 40 else None


def layer_metrics(spans):
    """Per-layer metrics of one round, keyed by metric name.

    Times named after a group of functions count only the outermost call
    of the group, so nested calls are not counted twice.
    """
    bits_of = {}
    outer = {g: [] for g in _BIT}
    covered_in_fits = 0
    by_key = {}
    for s in spans:  # spans are in start order, so parents come first
        kb = bits_of.get(s.key)
        if kb is None:
            kb = bits_of[s.key] = _key_bits(s.key)
        s.mask = 0 if s.parent is None else s.parent.mask | bits_of[s.parent.key]
        for g, bit in _BIT.items():
            if kb & bit and not s.mask & bit:
                outer[g].append(s)
        if kb & _BIT["loglik_gof"] and s.mask & _BIT["fit"] and not s.mask & _BIT["loglik_gof"]:
            covered_in_fits += s.duration_ns
        by_key.setdefault(s.key, []).append(s)

    def seconds(group):
        return sum(s.duration_ns for s in outer[group]) / 1e9

    def size(group):
        return sum(s.size for s in outer[group])

    m = {}
    m["cli.self_s"] = sum(s.self_ns for k, v in by_key.items() if k.startswith("cli.")
                          for s in v) / 1e9
    loads = by_key.get("data.load_dataset", [])
    m["data.load_dataset_s"] = sum(s.duration_ns for s in loads) / 1e9
    m["data.records_per_s"] = _ratio(sum(s.size for s in loads), m["data.load_dataset_s"])

    fits = outer["fit"]
    logliks = by_key.get("fitting.loglik", [])
    fit_ms = sorted(s.duration_ns / 1e6 for s in fits)
    m["fitting.fit_calls"] = len(fits)
    m["fitting.fit_s"] = seconds("fit")
    m["fitting.loglik_calls"] = len(logliks)
    m["fitting.loglik_calls_per_fit"] = _ratio(len(logliks), len(fits))
    m["fitting.loglik_s"] = sum(s.duration_ns for s in logliks) / 1e9
    m["fitting.loglik_failed"] = sum(1 for s in logliks if s.raised)
    m["fitting.self_s"] = m["fitting.fit_s"] - covered_in_fits / 1e9
    m["fitting.gof_s"] = seconds("gof")
    m["fitting.fit_p50_ms"] = fit_ms[(len(fit_ms) - 1) // 2] if fit_ms else 0.0
    tail = tail_index(len(fit_ms))
    m["fitting.fit_tail_ms"] = fit_ms[tail] if tail is not None else 0.0

    m["distributions.logpdf_s"] = seconds("logpdf")
    m["distributions.logpdf_records_per_s"] = _ratio(size("logpdf"), m["distributions.logpdf_s"])
    m["distributions.ekg1_inversion_s"] = seconds("ekg1_inversion")
    m["distributions.sample_s"] = seconds("sample")
    m["distributions.sample_draws_per_s"] = _ratio(size("sample"), m["distributions.sample_s"])

    m["special.inv_reg_inc_beta_calls"] = len(by_key.get("special.inv_reg_inc_beta", []))
    m["special.inv_reg_inc_beta_s"] = seconds("inv_beta")
    m["special.reg_inc_beta_s"] = seconds("reg_beta")
    m["special.log_gamma_calls"] = len(by_key.get("special.log_gamma", []))

    m["inequality.empirical_s"] = seconds("empirical")
    m["inequality.closed_form_s"] = seconds("closed_form")
    m["inequality.quadrature_s"] = seconds("quadrature")
    m["deformed.s"] = seconds("deformed")
    return m
