#!/usr/bin/env python3
"""The benchmark's own test: exact counters and traced-pass fidelity.

    python3 perfbench/check_counters.py [--workload <name> ...]

Run from the root of a source checkout (it builds through run.py). For each
workload it makes a fixed number of steady runs twice on one seed and once on
a second seed, and asserts that every deterministic counter -- garbled
non-XOR gates, the comm split, plan/cone hits and misses, evictions, base
OTs and OT bytes -- repeats exactly: the trajectory is public, so these
never depend on the private inputs or on timing. It also checks the counters
each workload was chosen for, and makes one traced run per workload, which
fails unless the hook-timed replica matches the lock-step driver byte for
byte and its hook timers cover at least 95% of its wall time.

Exit code 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

RECORDS = os.path.join(".bench_build", "check")
# Steady runs per call: enough to cross the warm sessions' OT refill points.
RUNS = {
    "hamming160-warm": 24,
    "matmult3-warm": 6,
    "hamming160-oneshot": 8,
    "hamming160-served": 12,
}
SEEDS = (11, 11, 29)
MIN_COVERAGE_PCT = 95.0


def per_run(c, key):
    return c[key] / c["runs"]


def ratio(c, hits, misses):
    total = c[hits] + c[misses]
    return c[hits] / total if total else 0.0


# What each workload was chosen to exercise, read from its exact counters.
EXPECT = {
    "hamming160-warm": [
        ("plan-cache hit ratio 1.00", lambda c: ratio(c, "plan_cache_hits", "plan_cache_misses") == 1.0),
        ("315 garbled tables per run", lambda c: per_run(c, "garbled_non_xor") == 315),
    ],
    "matmult3-warm": [
        ("plan-cache hit ratio 0.00", lambda c: c["plan_cache_hits"] == 0),
        ("27,369 garbled tables per run", lambda c: per_run(c, "garbled_non_xor") == 27369),
    ],
    "hamming160-oneshot": [
        ("128 base OTs per run", lambda c: per_run(c, "ot_base_ots") == 128),
    ],
    "hamming160-served": [
        ("no rejected hellos", lambda c: c["hello_rejected"] == 0),
        ("every arrival served", lambda c: c["runs"] == RUNS["hamming160-served"]),
    ],
}


class RunFailed(Exception):
    pass


def run(workload, seed, trace, runs, tag):
    record_dir = os.path.join(RECORDS, tag)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--runs", str(runs), "--record-dir", record_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed(f"seed {seed} trace {trace}: exit {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(record_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return result, json.load(f)


def check(workload):
    problems = []
    try:
        check_runs(workload, problems)
    except RunFailed as exc:
        problems.append(str(exc))
    return problems


def check_runs(workload, problems):
    runs = RUNS[workload]
    counters = []
    for i, seed in enumerate(SEEDS):
        result, record = run(workload, seed, 0, runs, f"untraced{i}")
        if not result["correct"] or result["failed"]:
            problems.append(f"seed {seed}: {result['failed']} failed runs: {record['failures']}")
        counters.append(record["counters"])
    first = counters[0]
    for i, c in enumerate(counters[1:], 1):
        for key in sorted(set(first) | set(c)):
            if first.get(key) != c.get(key):
                problems.append(f"counter {key}: {first.get(key)} (seed {SEEDS[0]}) != "
                                f"{c.get(key)} (call {i + 1}, seed {SEEDS[i]})")
    for what, ok in EXPECT[workload]:
        if not ok(first):
            problems.append(f"expected {what}; counters {first}")

    result, record = run(workload, SEEDS[0], 1, max(2, runs // 3), "traced")
    if not result["correct"] or result["failed"]:
        problems.append(f"traced pass: {result['failed']} failed runs: {record['failures']}")
    coverage = result["metrics"]["party.coverage_pct"]["value"]
    if coverage < MIN_COVERAGE_PCT:
        problems.append(f"traced pass: hook timers cover {coverage:.1f}% < {MIN_COVERAGE_PCT}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(RUNS))
    args = ap.parse_args()
    failed = False
    for workload in args.workload or list(RUNS):
        problems = check(workload)
        print(f"{'FAIL' if problems else 'ok  '} {workload}")
        for p in problems:
            print(f"     {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
