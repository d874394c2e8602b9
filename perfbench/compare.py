#!/usr/bin/env python3
"""Compare two sets of perfbench runs, one row per workload x metric.

    python3 perfbench/compare.py DIR_A DIR_B

Each directory holds the *.metrics.json files run.py leaves in
.bench_out/ (copy them aside between the two sets).  For every
workload and metric present on both sides the table gives each side's
median and quartiles and a verdict against the metric's bound in
BENCHMARK.json:

  worse / better  B's median moved past the bound (in the metric's
                  "better" direction)
  unresolved      a side's inter-quartile spread is wider than the
                  bound, so the data cannot tell; such a metric is
                  "better" only when every run of B beats every run
                  of A
  same            within the bound
  -               the metric has no bound (per-layer and extra ones)
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} from one run set."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.metrics.json")):
        with open(path) as f:
            doc = json.load(f)
        for name, value in doc["metrics"].items():
            runs[doc["workload"]][name].append(value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, bound, higher_better):
    if bound is None:
        return "-"
    sign = 1.0 if higher_better else -1.0
    if len(a) < 2 or len(b) < 2 or max(metrics.spread(a),
                                       metrics.spread(b)) > bound:
        return ("better" if min(x * sign for x in b) >
                max(x * sign for x in a) else "unresolved")
    med_a = statistics.median(a)
    change = (statistics.median(b) - med_a) / med_a * sign
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: (m.get("bound"), m["better"] == "higher")
              for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load(argv[1]), load(argv[2])
    header = (f"{'workload':12s} {'metric':30s} {'n':>5s} "
              f"{'A q1':>11s} {'A median':>11s} {'A q3':>11s} "
              f"{'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
              f"{'bound':>6s}  verdict")
    print(header)
    regressed = False
    for workload in sorted(set(a_runs) & set(b_runs)):
        for name in sorted(set(a_runs[workload]) & set(b_runs[workload])):
            a, b = a_runs[workload][name], b_runs[workload][name]
            bound, higher = bounds.get(name, (None, True))
            v = verdict(a, b, bound, higher)
            regressed |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:12s} {name:30s} {len(a):>2d}/{len(b):<2d} "
                  + " ".join(f"{x:11.5g}" for x in qa + qb)
                  + f" {'' if bound is None else bound:>6}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
