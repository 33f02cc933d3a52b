#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

One run (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 15 --trace 0

Steadiness mode: N runs with seeds 1..N, then, per end-to-end metric, the
median, quartiles, max/min ratio and inter-quartile spread, with each
*_rel metric printed next to its absolute counterpart:
    python3 perfbench/run.py --steadiness 10 --workload all --seconds 15

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; span dumps of traced runs go to .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["paper-serial", "batch-mixed", "daemon-edit"]
# *_rel metric -> its absolute counterpart on the "absolute:" line.
COUNTERPARTS = {
    "verdict_rel_geomean": "verdict_geomean_ms",
    "suite_rel": "suite_ms",
    "makespan_rel": "makespan_ms",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = out if os.path.isabs(out) else os.path.join(ROOT, out)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("error: build failed:", " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if echo:
        return subprocess.run(cmd, cwd=ROOT).returncode, None, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    absolute = {}
    for line in lines:
        if line.startswith("absolute: "):
            absolute = json.loads(line[len("absolute: "):])
    return proc.returncode, result, absolute


def spread_row(name, unit, values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0 else float("inf")
    iqr = (q3 - q1) / med if med else 0.0
    return (f"  {name:<24} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
            f"{ratio:>8.3f} {iqr:>8.4f}  {unit}")


def steadiness(binary, workloads, runs, seconds, first_seed):
    ok = True
    header = (f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'max/min':>8} {'iqr/med':>8}")
    for workload in workloads:
        values, absolute = {}, {}
        for i in range(runs):
            seed = first_seed + i
            code, result, abs_line = run_once(binary, workload, seed, seconds,
                                              0, False)
            if code != 0 or result is None or not result["correct"]:
                log(f"error: {workload} seed {seed} failed (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, m in abs_line.items():
                absolute.setdefault(name, (m["unit"], []))[1].append(m["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()))
        if len(next(iter(values.values()), ("", []))[1]) < 2:
            continue
        print(f"{workload}: {runs} runs of {seconds} s")
        print(header)
        for name, (unit, vals) in values.items():
            print(spread_row(name, unit, vals))
            if name in COUNTERPARTS and COUNTERPARTS[name] in absolute:
                unit_a, vals_a = absolute[COUNTERPARTS[name]]
                print(spread_row("  abs " + COUNTERPARTS[name], unit_a, vals_a))
        for name, (unit, vals) in absolute.items():
            if name.endswith(("_raw_ms", "_norm_ms", "_raw_rps", "_raw_s",
                              "ref_ms", "ref_par_ms")):
                print(spread_row("abs " + name, unit, vals))
        sys.stdout.flush()
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run N times (seeds --seed..--seed+N-1) and print spreads")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.steadiness:
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        return 0 if steadiness(binary, workloads, args.steadiness,
                               args.seconds, args.seed) else 1
    if args.workload == "all":
        log("error: --workload all needs --steadiness")
        return 2
    code, _, _ = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
