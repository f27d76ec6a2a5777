#!/usr/bin/env python3
"""Benchmark regression guard for the committed BENCH_*.json baselines.

Runs a bench binary several times, parses the one-line `JSON {...}` report
each run emits, folds the runs into a single best-of dict (direction-aware:
throughput-style metrics take the max across runs, latency-style metrics the
min, so scheduler noise can only make the measurement look *worse*, never
better), and compares the result against a committed baseline file.

Comparison rules:
  * ratio/percentage metrics (``*_pct``) compare in absolute percentage
    points (default budget 5.0) — relative tolerances misbehave near zero;
  * every other guarded metric compares relatively (default 10%);
  * bookkeeping keys (bench, scale, runs, days, cpu_ghz, nproc, cpu_model,
    ...) are recorded but never guarded.

Every comparison prints the baseline's host and the current one (``nproc``
and ``cpu_model``, which each report records) and warns when they differ:
timings from different hardware are not like for like.

``--keys REGEX`` restricts guarding to matching metric names; CI guards the
scale-free metrics (speedups and percentages) so the committed baseline stays
meaningful across machines. ``--update`` rewrites the baseline from the
current run instead of comparing (the regeneration recipe in EXPERIMENTS.md).

Exit status: 0 = no regression, 1 = regression or bad invocation.
"""

import argparse
import json
import re
import subprocess
import sys

# Metrics where larger is better; everything else directional is
# smaller-is-better (timings, cycle counts, overheads).
HIGHER_BETTER = re.compile(
    r"(rows_per_sec|_speedup|improvement_pct|hit_rate|_ratio)$")
LOWER_BETTER = re.compile(r"(_ms|_ns|_seconds|cycles_per_tuple|overhead_pct)$")
# Run parameters and identifiers: recorded in the baseline, never guarded.
BOOKKEEPING = {"bench", "scale", "runs", "days", "cpu_ghz", "queries", "jobs",
               "nproc", "cpu_model"}


def direction(key):
    """Returns +1 (higher is better), -1 (lower is better), or 0 (ignore)."""
    if key in BOOKKEEPING:
        return 0
    if HIGHER_BETTER.search(key):
        return +1
    if LOWER_BETTER.search(key):
        return -1
    return 0


def host(report):
    """The host a report was measured on, as far as it records one."""
    return (f"{report.get('cpu_model', 'unrecorded')}, "
            f"nproc {report.get('nproc', 'unrecorded')}")


def run_bench(cmd):
    """Runs the bench once and returns its parsed JSON report dict."""
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"bench exited {proc.returncode}: {' '.join(cmd)}")
    for line in proc.stdout.splitlines():
        if line.startswith("JSON "):
            return json.loads(line[len("JSON "):])
    raise RuntimeError(f"no `JSON {{...}}` line in output of {' '.join(cmd)}")


def fold(reports):
    """Best-of across runs: max for higher-better, min for lower-better."""
    best = dict(reports[0])
    for report in reports[1:]:
        for key, value in report.items():
            if not isinstance(value, (int, float)) or key not in best:
                best[key] = value
                continue
            sense = direction(key)
            if sense > 0:
                best[key] = max(best[key], value)
            elif sense < 0:
                best[key] = min(best[key], value)
    return best


def compare(baseline, current, keys_re, rel_tol, pct_points):
    """Returns a list of regression description strings."""
    regressions = []
    for key, base in sorted(baseline.items()):
        sense = direction(key)
        if sense == 0 or not isinstance(base, (int, float)):
            continue
        if keys_re is not None and not keys_re.search(key):
            continue
        if key not in current:
            regressions.append(f"{key}: missing from current run")
            continue
        cur = current[key]
        if key.endswith("_pct"):
            delta = (base - cur) * sense
            if delta > pct_points:
                regressions.append(
                    f"{key}: {cur:.2f} vs baseline {base:.2f} "
                    f"({delta:.2f} points worse, budget {pct_points})")
            continue
        floor = base * (1.0 - rel_tol) if sense > 0 else base * (1.0 + rel_tol)
        worse = cur < floor if sense > 0 else cur > floor
        if worse:
            regressions.append(
                f"{key}: {cur:.4g} vs baseline {base:.4g} "
                f"(>{rel_tol:.0%} regression)")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to the bench binary")
    parser.add_argument("--baseline", required=True,
                        help="path to the committed BENCH_*.json baseline")
    parser.add_argument("--runs", type=int, default=3,
                        help="guard-level repetitions (each bench may also "
                             "take its own --runs= flag via --args)")
    parser.add_argument("--args", default="",
                        help="extra arguments passed to the bench binary")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative regression tolerance (default 0.10)")
    parser.add_argument("--pct-points", type=float, default=5.0,
                        help="absolute budget for *_pct metrics, in points")
    parser.add_argument("--keys", default=None,
                        help="regex restricting which metrics are guarded")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline instead of comparing")
    opts = parser.parse_args()

    cmd = [opts.bench] + opts.args.split()
    reports = [run_bench(cmd) for _ in range(max(1, opts.runs))]
    current = fold(reports)

    if opts.update:
        with open(opts.baseline, "w") as fp:
            json.dump(current, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"bench_guard: baseline {opts.baseline} updated "
              f"({len(current)} metrics, best of {len(reports)} runs)")
        return 0

    with open(opts.baseline) as fp:
        baseline = json.load(fp)
    print(f"bench_guard: baseline host: {host(baseline)}")
    print(f"bench_guard: current host:  {host(current)}")
    if host(baseline) != host(current):
        print("bench_guard: WARNING: the hosts differ; timings compare "
              "different hardware")
    keys_re = re.compile(opts.keys) if opts.keys else None
    regressions = compare(baseline, current, keys_re,
                          opts.tolerance, opts.pct_points)
    guarded = sum(1 for k in baseline
                  if direction(k) != 0 and (keys_re is None or keys_re.search(k)))
    if regressions:
        print(f"bench_guard: {len(regressions)} regression(s) vs "
              f"{opts.baseline}:")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print(f"bench_guard: OK — {guarded} guarded metric(s) within tolerance "
          f"of {opts.baseline} (best of {len(reports)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
