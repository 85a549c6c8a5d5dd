"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                                [--setup-only] [--toy]

Imports kappagen from the checkout's src/, makes the workload's inputs and
makes one warm-up call, then prints READY; run.py times the interval from
spawning this process to that line as one set-up sample.  Unless
--setup-only, it then runs whole rounds until S seconds have passed (at
least two, so peak memory always includes the first round's kept outputs
and one more round), checks the first round on each input set and prints
one JSON line with the round times, peak resident memory and the check
results.
With --trace 1 each input set runs untraced and then traced, and the JSON
line also carries the per-layer metrics of the traced rounds on the first
input set and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def _import_program():
    sys.path.insert(0, SRC)
    import kappagen

    if not os.path.abspath(kappagen.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kappagen imported from {kappagen.__file__}, not from {SRC}")


def _rounds(workload, seconds, trace):
    """Run rounds until the time is up; returns (the first round of each
    input set, per-round records, whether every round's outputs matched the
    first round on the same inputs)."""
    from tracer import Tracer, layer_metrics
    from workloads import fingerprint

    tracer = Tracer() if trace else None
    records = []
    firsts = {}
    references = {}
    same = True
    start = time.perf_counter()
    while True:
        # traced runs take each input set twice, untraced and then traced
        variant = (len(records) // 2 if trace else len(records)) % workload.variants
        traced = trace and len(records) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            ops = workload.run_round(variant)
        finally:
            if traced:
                tracer.uninstall()
        record = {"seconds": sum(op.seconds for op in ops), "traced": traced,
                  "variant": variant, "op_seconds": {op.name: op.seconds for op in ops}}
        if traced:
            record["layers"] = layer_metrics(tracer.spans)
            if not any(r["traced"] for r in records):
                os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
                tracer.dump(os.path.join(WORK, "traces",
                                         f"{workload.name}-seed{workload.seed}.jsonl"))
        records.append(record)
        prints = [fingerprint((op.value, op.error)) for op in ops]
        if variant not in firsts:
            firsts[variant], references[variant] = ops, prints
        else:
            same &= prints == references[variant]
        if len(records) >= 2 and time.perf_counter() - start >= seconds:
            return firsts, records, same


def wall_seconds(records):
    """The time of one round, from each operation's fastest repeat.

    Every round on one input set repeats the same calls on the same inputs
    and returns the same outputs, bit for bit, so an operation's fastest
    time over those rounds is its cost with the least interference from
    the rest of the host (timeit's best-of-N).  A shared virtual machine
    can run every call 10-50% slower for tens of seconds at a time; a median
    over rounds follows those periods, and the fastest repeat much less so.
    A round's time is the sum of those times over its operations, and
    wall_s is the median over rounds: with one input set that is the sum
    itself; with several (cli-pipeline), it is the median over the rounds
    of their input sets.
    """
    totals = {}
    for variant in {r["variant"] for r in records}:
        same = [r["op_seconds"] for r in records if r["variant"] == variant]
        totals[variant] = sum(min(s[name] for s in same) for name in same[0])
    return statistics.median(totals[r["variant"]] for r in records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, toy=args.toy, workdir=workdir)
    try:
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        firsts, records, same = _rounds(workload, args.seconds, args.trace == 1)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = [workload.check(ops, variant) for variant, ops in sorted(firsts.items())]
    finally:
        workload.close()
    failed = checked[0][0]
    problems = [p for _, found in checked for p in found]
    if any(f != failed for f, _ in checked):
        problems.append("input sets differ in their count of failed operations")
    if not same:
        problems.append("a later round's outputs differ from the first round on its inputs")
    plain = [r for r in records if not r["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(records),
        "ops_per_round": len(firsts[0]),
        "failed_per_round": failed,
        "problems": problems[:20],
        "round_seconds": [r["seconds"] for r in records],
        "wall_s": wall_seconds(plain),
        "peak_rss_mb": peak_mb,
        "op_seconds": {name: statistics.median(r["op_seconds"][name] for r in records
                                               if not r["traced"])
                       for name in records[0]["op_seconds"]},
    }
    traced = [r for r in records if r["traced"]]
    if traced:
        # the first input set only, so that counts repeat exactly
        first_set = [r for r in traced if r["variant"] == 0]
        layers = {name: statistics.median(r["layers"][name] for r in first_set)
                  for name in first_set[0]["layers"]}
        # traced against untraced wall_s, on the input sets that ran both ways
        both = {r["variant"] for r in traced}
        layers["trace.overhead_s"] = wall_seconds(traced) - wall_seconds(
            [r for r in plain if r["variant"] in both])
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
