#!/usr/bin/env python3
"""Host-performance benchmark of the simulator: one command per run.

    python3 perfbench/run.py --workload evset-cloud --seed 1 \\
        --seconds 20 --trace 0

Builds the perfbench driver and the repository's core library from
source (Release, into .bench_build/perfbench), runs one workload for
--seconds of host time with a fixed worker count, checks the outputs,
prints a table of every metric and, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json,
--trace 1 the per-layer metrics of a traced run.  Each run also leaves
its raw result and metrics under .bench_out/ for compare.py.  See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
# blind-e2e is not in BENCHMARK.json: its host time is too
# heavy-tailed to gate (see README.md), but its traced run profiles the
# whole attack.
WORKLOADS = ("evset-cloud", "fleet-fork", "calib-tiny", "blind-e2e")
# One process, a fixed worker count: at most the 4 cores of the
# reference host, and the same on every host so runs compare.
THREADS = 4
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout):
    """Run cmd in its own process group with output on stderr, so the
    result line stays last on stdout.  Whether it ends, times out or
    this script is stopped, no process of the group outlives the call.
    Returns the exit code, or None on a timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {cmd[0]} exceeded {timeout} s; stopping it")
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    """Configure once, then build incrementally."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            log(f"perfbench: {ROOT / needed} is missing; run from a "
                "checkout of the repository")
            return None
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(THREADS)])
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S) != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return BUILD / "perfbench"


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def report(doc, values, units):
    """Human-readable table on stdout."""
    print(f"perfbench {doc['workload']} ({doc['cell']}), seed "
          f"{doc['seed']}, {doc['threads']} workers, trace {int(doc['trace'])}")
    print(f"  {doc['rounds']} rounds of {doc['round_trials']} trials, "
          f"{doc['trials']} trials, {doc['successes']} succeeded "
          f"(ground truth), {doc['aborted_trials']} lost to aborts, "
          f"digest {doc['digest']}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")


def main():
    # Turn SIGTERM into SystemExit so run_group stops its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = stem.with_suffix(".raw.json")
    if raw.exists():
        raw.unlink()
    rc = run_group([str(binary), f"--workload={args.workload}",
                    f"--seed={args.seed}", f"--seconds={args.seconds}",
                    f"--threads={THREADS}", f"--trace={args.trace}",
                    f"--out={raw}"], RUN_TIMEOUT_S)
    if rc is None or not raw.exists():
        log("perfbench: the driver produced no result")
        return 1
    with open(raw) as f:
        doc = json.load(f)

    spec = bench_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    gated = list(units)
    problems = []
    if not doc["correct"]:
        problems.append(doc["why"])
    if rc != 0:
        problems.append(f"driver exit code {rc}")
    if doc["trials"] < 1 or doc["sim_accesses"] <= 0:
        problems.append("no trials or no simulated accesses")
    if doc["setup_aborts"]:
        log(f"perfbench: {doc['setup_aborts']} set-up sample(s) aborted")
    try:
        values = (metrics.end_to_end(doc) if args.trace == 0
                  else metrics.per_layer(doc))
    except (ValueError, ZeroDivisionError) as err:
        log(f"perfbench: cannot derive the metrics: {err}")
        return 1
    if args.trace == 0:
        for name in gated:
            if not (math.isfinite(values[name]) and values[name] > 0):
                problems.append(f"{name} is {values[name]}")
    else:
        p95, count = metrics.trial_tail(doc)
        if p95 is not None:
            values["trial_p95_s"] = p95
    report(doc, values, {**metrics.EXTRA_UNITS, **units})
    if args.trace == 1:
        print(f"  trial times: {count} samples"
              + ("" if p95 is not None else
                 "; p95 withheld (fewer than 10 samples beyond it)"))
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    with open(stem.with_suffix(".metrics.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "digest": doc["digest"],
                   "metrics": values}, f, indent=1)
    result = {
        "correct": not problems,
        "attempted": doc["trials"],
        # Trials the program did not complete; wrong answers are a
        # simulated outcome, reported as fail_frac.
        "failed": doc["aborted_trials"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in gated},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
