#!/usr/bin/env python3
"""End-to-end benchmark of the fault-injection testbed.

Builds the repository's library and the e2e_worker binary from source, then
runs one workload and prints its metrics. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

  python3 e2ebench/run.py --workload fig3-steady --seed 1 --seconds 30 --trace 0

Two helper modes serve the agreement check between two sets of runs:

  python3 e2ebench/run.py --collect A.json              # 10 seeds x workloads
  python3 e2ebench/run.py --compare A.json B.json        # against the bounds

See e2ebench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKER = os.path.join(BUILD, "e2e_worker")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_JSON = os.path.join(HERE, "golden.json")

WORKLOADS = ("fig3-steady", "ivshmem-domains", "short-window-grid")
# The seed the committed golden hashes were taken with.
GOLDEN_SEED = 1
# Fresh processes timing the zero-tick set-up campaign, besides the one the
# measuring process does itself; setup_s is the median of all of them.
SETUP_PROCESSES = 20
# Seeds 1..AGREEMENT_SEEDS per workload in one --collect set.
AGREEMENT_SEEDS = 10
# Percentile ladder for the tail metric. p99 needs 1000 samples in a run,
# which no workload reaches at the committed run length, so a level above
# the ladder would only appear on faster hosts and make runs incomparable.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
WORKER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. False when either fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("e2ebench: build step failed: " + " ".join(step))
            return False
    return os.path.exists(WORKER)


def worker(mode, workload, seed, seconds=None, tmp=None, spans=None, timeout=WORKER_TIMEOUT_S):
    """Run one e2e_worker process to completion and parse its JSON line."""
    cmd = [WORKER, mode, "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(float(seconds))]
    if tmp is not None:
        cmd += ["--tmp", tmp]
    if spans is not None:
        cmd += ["--spans", spans]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=timeout)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("e2e_worker %s exited with %d" % (mode, result.returncode))
    return json.loads(lines[-1])


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest-rank), as (level, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LADDER:
        rank = math.ceil(level / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return level, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def load_golden():
    try:
        with open(GOLDEN_JSON) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def golden_checks(workload, seed, hashes):
    """Compare hashes with the committed golden on the golden seed."""
    if seed != GOLDEN_SEED:
        return []
    expected = load_golden().get(workload, {})
    checks = []
    for key, value in hashes.items():
        if expected.get(key) != value:
            checks.append("%s %s is %s, golden is %s" % (workload, key, value, expected.get(key)))
    return checks


def print_table(rows, checks):
    for name, value, unit, note in rows:
        print("%-30s %16.6g %-10s %s" % (name, value, unit, note))
    for check in checks:
        print("CHECK FAILED: " + check)


def end_to_end(args, tmp):
    setups = [worker("setup", args.workload, args.seed, timeout=60)
              for _ in range(SETUP_PROCESSES)]
    result = worker("measure", args.workload, args.seed, args.seconds, tmp)
    checks = list(result["checks"])
    for setup in setups:
        checks += setup["checks"]
    checks += golden_checks(args.workload, args.seed,
                            {"aggregate_hash": result["aggregate_hash"]})

    samples = result["samples_ms"]
    level, tail = tail_percentile(samples)
    setup_s = statistics.median([s["setup_s"] for s in setups] + [result["setup_s"]])
    runs, failed, passes = result["runs"], result["failed"], result["passes"]
    wall_s = sum(result["pass_s"])
    metrics = {
        "runs_per_s": (runs / wall_s, "1/s"),
        "sim_mticks_per_s": (result["window_ticks"] / wall_s / 1e6, "Mticks/s"),
        "run_ms_p50": (statistics.median(samples), "ms"),
        "run_ms_tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    rows = [(k, v, u, "") for k, (v, u) in metrics.items()]
    rows[3] = ("run_ms_tail", tail, "ms", "p%g of %d samples" % (level, len(samples)))
    rows.append(("failed_share", failed / runs if runs else 1.0, "ratio",
                 "%d of %d runs" % (failed, runs)))
    print("workload %s seed %d: %d passes in %.2f s, aggregate %s"
          % (args.workload, args.seed, passes, wall_s, result["aggregate_hash"]))
    print_table(rows, checks)
    if checks:
        failed = runs
    return checks, runs, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(args, tmp):
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    spans = os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    result = worker("traced", args.workload, args.seed, args.seconds, tmp, spans)
    checks = list(result["checks"])
    checks += golden_checks(args.workload, args.seed,
                            {"aggregate_hash": result["aggregate_hash"],
                             "simstats_hash": result["simstats_hash"]})
    values = dict(result["metrics"])
    samples = result["run_ms_samples"]
    level, tail = tail_percentile(samples)
    values["trace.run_ms_p50"] = statistics.median(samples)
    values["trace.run_ms_tail"] = tail
    values["trace.run_ms_tail_pct"] = level
    values["trace.run_ms_samples"] = len(samples)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        checks.append("per-layer metrics out of step with BENCHMARK.json: missing %s, extra %s"
                      % (missing, extra))
    print("workload %s seed %d traced: %d passes, %d runs, %d spans in %s, aggregate %s, simstats %s"
          % (args.workload, args.seed, result["passes"], result["runs"], result["spans"],
             os.path.relpath(spans, ROOT), result["aggregate_hash"], result["simstats_hash"]))
    print_table([(k, values[k], units.get(k, "?"), "") for k in sorted(values)], checks)
    runs, failed = result["runs"], result["failed"]
    if checks:
        failed = runs
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    return checks, runs, failed, metrics


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def run_once(args):
    if not build():
        return 2
    tmp = os.path.join(BUILD, "tmp-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        measure = per_layer if args.trace else end_to_end
        checks, attempted, failed, metrics = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = not checks and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# --- agreement between two sets of runs ----------------------------------------

def collect(args):
    """Run every workload for seeds 1..AGREEMENT_SEEDS (trace 0) and save
    the results."""
    seconds = args.seconds or load_benchmark()["run_seconds"]
    results = {}
    for workload in WORKLOADS:
        results[workload] = []
        for seed in range(1, AGREEMENT_SEEDS + 1):
            start = time.time()
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                  "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not last.get("correct"):
                log("e2ebench: %s seed %d failed:\n%s" % (workload, seed, out.stdout))
                return 1
            results[workload].append(last)
            log("%s seed %d: %.1f s" % (workload, seed, time.time() - start))
    with open(args.collect, "w") as f:
        json.dump({"seconds": seconds, "results": results}, f, indent=1)
    print_spreads(results)
    return 0


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_spreads(results):
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    print("%-18s %-18s %12s %12s %12s %8s %8s" % ("workload", "metric", "q1", "median", "q3",
                                                  "spread", "bound"))
    for workload, runs in results.items():
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            print("%-18s %-18s %12.6g %12.6g %12.6g %8.4f %8.3f"
                  % (workload, name, q1, statistics.median(values), q3, spread(values),
                     metric["bound"]))


def compare(args):
    """Name every metric x workload on which two result sets disagree: a
    spread wider than the metric's bound in either set, or medians that differ
    by more than the bound in either direction."""
    with open(args.compare[0]) as f:
        first = json.load(f)["results"]
    with open(args.compare[1]) as f:
        second = json.load(f)["results"]
    disagreements = []
    for metric in load_benchmark()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sorted(set(first) & set(second)):
            a = [r["metrics"][name]["value"] for r in first[workload]]
            b = [r["metrics"][name]["value"] for r in second[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            # Share by which the second median is worse (negative: better).
            change = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            problems = []
            for label, values in (("first", a), ("second", b)):
                if spread(values) > bound:
                    problems.append("%s spread %.4f > bound" % (label, spread(values)))
            if abs(change) > bound:
                problems.append("medians differ by %.4f" % abs(change))
            status = "DISAGREE " + "; ".join(problems) if problems else "agree"
            print("%-18s %-18s %12.6g %12.6g worse by %+8.4f bound %.3f  %s"
                  % (workload, name, ma, mb, change, bound, status))
            if problems:
                disagreements.append((workload, name))
    for workload, name in disagreements:
        print("disagrees: %s x %s" % (name, workload))
    return 1 if disagreements else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", metavar="OUT")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.collect:
        return collect(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
