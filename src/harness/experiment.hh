/**
 * @file
 * Deterministic parallel experiment runner.
 *
 * An experiment is N independent trials of one procedure (build an
 * eviction set, monitor a victim, ...).  The runner fans trials across
 * a thread pool, hands each trial its own positionally-derived RNG
 * stream (streamSeed(master, trial)), buffers every trial's recorded
 * samples in a per-trial slot, and only after the last trial finishes
 * merges the slots *in trial order* into SampleStats / SuccessRate
 * aggregates.  Consequently the aggregate — and the JSON serialisation
 * of it — is bit-identical whatever the worker count or OS schedule:
 * `LLCF_THREADS=1` and `LLCF_THREADS=8` runs of a bench produce the
 * same BENCH_*.json.
 */

#ifndef LLCF_HARNESS_EXPERIMENT_HH
#define LLCF_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/json.hh"

namespace llcf {

/** Identity and per-trial randomness of one running trial. */
struct TrialContext
{
    std::size_t index; //!< trial number in [0, trials)
    std::uint64_t seed; //!< this trial's stream seed
    Rng rng;            //!< generator already seeded with @p seed
};

/**
 * Per-trial sample sink.  Metrics accumulate scalar samples (a name
 * may be recorded any number of times per trial); outcomes accumulate
 * boolean trial results into success rates.
 */
class TrialRecorder
{
  public:
    /** Record one scalar sample under @p name. */
    void metric(std::string_view name, double v);

    /** Record one boolean outcome under @p name. */
    void outcome(std::string_view name, bool success);

    /** Recorded samples in record order (campaign shard folding). */
    const std::vector<std::pair<std::string, double>> &
    metrics() const
    {
        return metrics_;
    }

    /** Recorded outcomes in record order (campaign shard folding). */
    const std::vector<std::pair<std::string, bool>> &
    outcomes() const
    {
        return outcomes_;
    }

  private:
    friend class ExperimentRunner;

    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, bool>> outcomes_;
};

/** Configuration of one experiment run. */
struct ExperimentConfig
{
    std::string name;         //!< row label, e.g. "SingleSet Gt @ cloud"
    std::size_t trials = 1;   //!< independent repetitions
    unsigned threads = 0;     //!< 0: LLCF_THREADS or hardware concurrency
    std::uint64_t masterSeed = 42; //!< root of the per-trial streams
};

/** Aggregated result of one experiment. */
class ExperimentResult
{
  public:
    const std::string &name() const { return name_; }
    std::size_t trials() const { return trials_; }
    std::uint64_t masterSeed() const { return masterSeed_; }

    /** Worker threads actually used (not serialised to JSON). */
    unsigned threadsUsed() const { return threadsUsed_; }

    /** Aggregate for @p name, or nullptr if never recorded. */
    const SampleStats *metric(std::string_view name) const;

    /** Success rate for @p name, or nullptr if never recorded. */
    const SuccessRate *outcome(std::string_view name) const;

    /** Metric aggregates in first-recorded order. */
    const std::vector<std::pair<std::string, SampleStats>> &
    metrics() const
    {
        return metrics_;
    }

    /** Outcome aggregates in first-recorded order. */
    const std::vector<std::pair<std::string, SuccessRate>> &
    outcomes() const
    {
        return outcomes_;
    }

    /**
     * Serialise as one entry of a BENCH_*.json "benchmarks" array:
     * name, trials, seed, then {count, mean, stddev, min, p10, median,
     * p90, max} per metric and {trials, successes, rate} per outcome.
     * Thread count is deliberately omitted so runs at different
     * parallelism stay byte-identical.
     */
    void writeJson(JsonWriter &w) const;

    /**
     * The members of writeJson() without the surrounding object, for
     * wrappers (e.g. campaign results) that append members of their
     * own to the same benchmark entry.
     */
    void writeJsonMembers(JsonWriter &w) const;

  private:
    friend class ExperimentRunner;

    std::string name_;
    std::size_t trials_ = 0;
    unsigned threadsUsed_ = 0;
    std::uint64_t masterSeed_ = 0;
    std::vector<std::pair<std::string, SampleStats>> metrics_;
    std::vector<std::pair<std::string, SuccessRate>> outcomes_;
};

/**
 * Runs experiments.  Construct once per bench (the pool is created
 * per run() or runAll() call, sized to its thread setting).
 */
class ExperimentRunner
{
  public:
    using TrialFn = std::function<void(TrialContext &, TrialRecorder &)>;

    explicit ExperimentRunner(ExperimentConfig cfg);

    const ExperimentConfig &config() const { return cfg_; }

    /**
     * Execute all trials of @p fn and aggregate: runAll() of this one
     * experiment, on cfg.threads workers.
     */
    ExperimentResult run(const TrialFn &fn) const;

    /**
     * Run several experiments' trials on one pool of @p threads
     * workers (0: LLCF_THREADS or hardware concurrency), so an
     * experiment with fewer trials than workers leaves the rest of the
     * pool to the next.  Result i depends only on cfgs[i]'s name,
     * trials and seed and on fns[i]; the configs' own thread counts
     * are ignored.  Each experiment is merged, and its per-trial
     * samples freed, as soon as its last trial finishes.  A trial
     * that throws aborts the batch by rethrowing after the pool
     * drains.
     */
    static std::vector<ExperimentResult> runAll(
        const std::vector<ExperimentConfig> &cfgs,
        const std::vector<TrialFn> &fns, unsigned threads = 0);

  private:
    /** Fold per-trial recordings, in trial order, into one result. */
    static ExperimentResult merge(const ExperimentConfig &cfg,
                                  unsigned threads,
                                  const std::vector<TrialRecorder> &slots);

    ExperimentConfig cfg_;
};

/**
 * An ordered collection of experiment results destined for one
 * BENCH_*.json file.
 */
class ExperimentSuite
{
  public:
    /** @param bench Bench identifier, e.g. "table4". */
    explicit ExperimentSuite(std::string bench);

    /**
     * Add a numeric entry to the suite's "context" object (e.g. the
     * tolerance a regression gate applies to this suite's metrics).
     * Rendered after the standard context members, in insertion order.
     */
    void contextValue(std::string key, double v);

    /** Append one result (rendered in insertion order). */
    void add(ExperimentResult result);

    const std::vector<ExperimentResult> &results() const { return results_; }

    /** Whole-suite JSON document (context + benchmarks array). */
    std::string toJson() const;

    /**
     * Write toJson() to @p path, or to the default path when empty:
     * $LLCF_JSON_OUT if set, else BENCH_<bench>.json in the working
     * directory.  Returns the path written, or "" on I/O failure.
     */
    std::string writeFile(const std::string &path = "") const;

  private:
    std::string bench_;
    std::vector<std::pair<std::string, double>> contextValues_;
    std::vector<ExperimentResult> results_;
};

/**
 * Write @p doc plus a trailing newline to @p path, or to the default
 * destination when @p path is empty: $LLCF_JSON_OUT if set, else
 * BENCH_<bench>.json in the working directory.  Returns the path
 * written, or "" on I/O failure.  Shared by every suite writer.
 */
std::string writeBenchDocument(const std::string &bench,
                               const std::string &doc,
                               const std::string &path = "");

} // namespace llcf

#endif // LLCF_HARNESS_EXPERIMENT_HH
