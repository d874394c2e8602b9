"""Turns a perfbench result document into the benchmark's metrics.

The C++ driver (perfbench.cc) writes raw measurements: host wall time
of every round, set-up samples, trial and success counts, simulated
accesses and, for a traced run, per-layer span aggregates.  Everything
derived from them lives here, so the derivations can be tested without
running the simulator.
"""

import math
import statistics

# Layers whose spans issue simulated accesses; each gets a host
# ns-per-access figure.
ACCESS_LAYERS = {
    "evset.build": "evset.ns_per_access",
    "calib.calibrate": "calib.ns_per_access",
    "ml.train": "ml.ns_per_access",
    "attack.scan": "attack.scan_ns_per_access",
    "attack.monitor": "attack.monitor_ns_per_access",
}

# Per-trial self seconds of each layer span.
SELF_TIME = {
    "scenario.rig_s": "scenario.rig",
    "evset.build_s": "evset.build",
    "calib.calibrate_s": "calib.calibrate",
    "ml.train_s": "ml.train",
    "attack.scan_s": "attack.scan",
    "victim.keygen_s": "victim.keygen",
    "victim.serve_s": "victim.serve",
    "attack.monitor_s": "attack.monitor",
    "attack.extract_s": "attack.extract",
    "sim.snapshot_restore_s": "sim.snapshot_restore",
}

# Units of the metrics printed beside the ones BENCHMARK.json names.
EXTRA_UNITS = {"keys_per_s": "1/s", "fail_frac": "ratio",
               "trial_p95_s": "s"}


def fail_frac(attempted, successes):
    """Failed trials over trials attempted, by the ground-truth outcome
    (a valid eviction set, or a recovered key).  A trial lost to a
    program abort never succeeded, so it counts as failed."""
    if attempted <= 0:
        raise ValueError("no trials attempted")
    return (attempted - successes) / attempted


def tail_percentile(samples, q, min_beyond=10):
    """The q-quantile of samples, or None unless at least min_beyond
    samples lie beyond it; a percentile resting on fewer is noise."""
    if not samples:
        return None
    ordered = sorted(samples)
    # Nearest rank: the smallest sample with at least q of the mass
    # at or below it.
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    return value if beyond >= min_beyond else None


def spread(values):
    """Inter-quartile distance as a share of the median, the way
    statistics.quantiles(values, n=4) places the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def end_to_end(doc):
    """Untraced metrics.  The rates are medians over the run's rounds,
    so a rare round held up by one failing, long-running trial does
    not swing them; keys_per_s and fail_frac are whole-run figures
    that keep such trials in, and are printed and compared but not
    gated, because they can be 0 on a workload."""
    if not doc["setup_s"]:
        raise ValueError("no set-up sample completed")
    walls = doc["round_wall_s"]
    return {
        "setup_s": statistics.median(doc["setup_s"]),
        "trials_per_s": statistics.median(
            d / w for d, w in zip(doc["round_done"], walls)),
        "sim_macc_per_s": statistics.median(
            a / w for a, w in zip(doc["round_accesses"], walls)) / 1e6,
        "peak_rss_mb": doc["peak_rss_mb"],
        "keys_per_s": doc["successes"] / doc["round_wall_sum_s"],
        "fail_frac": fail_frac(doc["trials"], doc["successes"]),
    }


def per_layer(doc):
    """Traced metrics: per-trial self time, counts and ratios of each
    layer, the harness's idle share and the tracing overhead."""
    layers = doc["layers"]
    n = max(1, doc["trials"] - doc["aborted_trials"])
    out = {}
    for metric, layer in SELF_TIME.items():
        out[metric] = layers[layer]["self_s"] / n

    def ratio(a, b):
        return a / b if b else 0.0

    ev = layers["evset.build"]
    out["evset.test_evictions"] = ev["tests"] / n
    out["evset.us_per_test"] = ratio(ev["self_s"] * 1e6, ev["tests"])
    out["evset.valid_ratio"] = ratio(ev["ok"], ev["items"])
    out["calib.test_evictions"] = layers["calib.calibrate"]["tests"] / n
    out["attack.sets_scanned"] = layers["attack.scan"]["items"] / n
    out["victim.requests"] = layers["victim.serve"]["items"] / n
    ex = layers["attack.extract"]
    out["attack.recovered_fraction"] = ratio(ex["ok"], ex["items"])

    accesses = sum(v["accesses"] for v in layers.values())
    hits = sum(v["hits"] for v in layers.values())
    out["sim.accesses"] = accesses / n
    out["sim.hit_ratio"] = ratio(hits, accesses)
    out["cache.llc_evictions"] = (
        sum(v["llc_evictions"] for v in layers.values()) / n)
    out["cache.sf_evictions"] = (
        sum(v["sf_evictions"] for v in layers.values()) / n)
    sim_self = 0.0
    sim_acc = 0
    for layer, metric in ACCESS_LAYERS.items():
        v = layers[layer]
        out[metric] = ratio(v["self_s"] * 1e9, v["accesses"])
        sim_self += v["self_s"]
        sim_acc += v["accesses"]
    out["sim.ns_per_access"] = ratio(sim_self * 1e9, sim_acc)

    wall = doc["round_wall_sum_s"]
    out["harness.worker_idle_frac"] = max(
        0.0, 1.0 - ratio(doc["busy_s"], doc["threads"] * wall))
    out["harness.trial_p50_s"] = (
        statistics.median(doc["trial_s"]) if doc["trial_s"] else 0.0)
    # Overhead over the rounds that were replayed untraced.
    out["trace.overhead_s"] = (doc["replayed_traced_wall_s"]
                               - doc["untraced_wall_s"])
    out["trace.overhead_frac"] = ratio(out["trace.overhead_s"],
                                       doc["untraced_wall_s"])
    return out


def trial_tail(doc):
    """p95 of the traced trial times and the sample count, with p95
    None when fewer than ten samples lie beyond it."""
    samples = doc.get("trial_s", [])
    return tail_percentile(samples, 0.95), len(samples)
