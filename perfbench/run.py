"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-pipeline, fit-families, bootstrap-gini, sample-inequality
(see README.md).  Run from anywhere; kappagen is imported from the src/
directory next to this one, and the run fails when it is not there.

Set-up is timed from outside: SETUP_PROBES fresh interpreters each import
kappagen, make the workload's inputs and make one warm-up call, and the
interval from spawn to their READY line is one sample; the measuring
process gives one more, and setup_s is the median.  The measuring process
then runs whole rounds for S seconds.  With --trace 0 the last line of
output is the end-to-end result (setup_s, wall_s, peak_rss_mb); with
--trace 1 it carries the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-pipeline", "fit-families", "bootstrap-gini", "sample-inequality")
SETUP_PROBES = 4
DEADLINE_S = 170.0

# Units of the per-layer metrics, in the order they are printed.
LAYER_UNITS = {
    "cli.self_s": "s",
    "data.load_dataset_s": "s",
    "data.records_per_s": "1/s",
    "fitting.fit_calls": "count",
    "fitting.fit_s": "s",
    "fitting.loglik_calls": "count",
    "fitting.loglik_calls_per_fit": "count",
    "fitting.loglik_s": "s",
    "fitting.loglik_failed": "count",
    "fitting.self_s": "s",
    "fitting.gof_s": "s",
    "fitting.fit_p50_ms": "ms",
    "fitting.fit_tail_ms": "ms",
    "distributions.logpdf_s": "s",
    "distributions.logpdf_records_per_s": "1/s",
    "distributions.ekg1_inversion_s": "s",
    "distributions.sample_s": "s",
    "distributions.sample_draws_per_s": "1/s",
    "special.inv_reg_inc_beta_calls": "count",
    "special.inv_reg_inc_beta_s": "s",
    "special.reg_inc_beta_s": "s",
    "special.log_gamma_calls": "count",
    "inequality.empirical_s": "s",
    "inequality.closed_form_s": "s",
    "inequality.quadrature_s": "s",
    "deformed.s": "s",
    "trace.overhead_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # one thread for every numerical library: the load is a single process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # glibc raises its mmap threshold (up to 32 MiB) and trim threshold as
    # large blocks are freed, so whether numpy temporaries are page-faulted
    # afresh depends on the allocation history of the process.  Pinning both
    # at the values the raise converges to gives every run the allocator's
    # steady state from the start.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 * 1024 * 1024)
    return env


def spawn(args, deadline):
    """Start a worker; return (process, seconds from spawn to its READY line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args} failed during set-up")
    if time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up exceeded the deadline")
    return proc, setup


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kappagen", "__init__.py")):
        print(f"error: no kappagen sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = spawn(common + ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = spawn(common + ["--seconds", repr(args.seconds),
                                      "--trace", str(args.trace)], deadline)
        setups.append(setup)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    for name, seconds in result["op_seconds"].items():
        print(f"op {name} {seconds:.6f} s", file=sys.stderr)
    print("round seconds " + " ".join(f"{s:.4f}" for s in result["round_seconds"]),
          file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    rounds = result["rounds"]
    attempted = rounds * result["ops_per_round"]
    failed = rounds * result["failed_per_round"]
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not result["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
