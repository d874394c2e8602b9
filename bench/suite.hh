/**
 * @file
 * The shared driver of the registry suite benches: bench_matrix,
 * bench_e2e, bench_calib, bench_defense and bench_traffic.
 *
 * Each of those binaries is a thin main() handing its SuiteDomain to
 * runSuite().  A domain is data: which registry cells it owns (see
 * scenarioSuite()), which cells --scenario= may name, its --smoke
 * trial cap, and its gate — per-series baseline bands plus named
 * invariants checked on every run.  Selection, --list, row printing,
 * gating and writing are the driver's, identical for every suite.
 *
 * Suite flags (on top of the shared ones in bench_common.hh):
 *
 *   --list                 enumerate the cells the run would take
 *   --scenario=<globs>     run a named subset instead of the default
 *   --smoke                trials capped per cell (the CI size)
 *   --baseline=<json>      gate against a committed baseline (gated
 *                          suites only); exits 1 on a violation
 *   --checkpoint=<path> [--resume] [--stop-after-shards=N]
 *                          shard checkpoints (campaign suites only);
 *                          an interrupted run exits 3, writing no JSON
 *
 * Exit codes: 0 ok, 1 gate violation / empty selection / write
 * failure, 2 usage error, 3 checkpointed run stopped early.
 */

#ifndef LLCF_BENCH_SUITE_HH
#define LLCF_BENCH_SUITE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "scenario/registry.hh"

namespace llcf {

/**
 * A JSON path inside one "benchmarks" entry.  The elements "$outcome"
 * and "$cycles" stand for the cell stage's headline attack outcome
 * and cost metric (e.g. "target_correct" and "scan_cycles" for a
 * Scan cell).
 */
using SuitePath = std::vector<std::string>;

/** One banded series of a baseline gate. */
struct SuiteBand
{
    SuitePath path; //!< e.g. {"outcomes", "$outcome", "rate"}

    /** Relative band baseline * (1 +- cycles_tolerance); otherwise
     *  the absolute band baseline +- rate_tolerance. */
    bool relative = false;

    /** The series missing from the run and the baseline alike passes
     *  (a stage neither side reached); missing on one side fails. */
    bool bothAbsentPasses = false;
};

/** How an invariant's value must relate to its bound. */
enum class SuiteCmp { Below, AtMost, AtLeast, Above };

/** A property one cell must hold on every run, baseline or not. */
struct SuiteInvariant
{
    const char *cell; //!< registry cell name
    SuitePath series; //!< must be present: a missing series fails
    SuiteCmp cmp;
    double bound;
    const char *why; //!< what a violation means, printed with it
};

/** Parsed suite command line (shared and campaign-only flags). */
struct SuiteArgs
{
    bool list = false;
    bool smoke = false;
    bool scenarioGiven = false;
    std::string selection; //!< comma-joined --scenario= values
    std::string baseline;
    std::string checkpoint;
    bool resume = false;
    std::size_t stopAfterShards = 0;
};

struct SuiteDomain;

/**
 * A domain-specific cell runner (bench_e2e's campaigns).  Runs
 * @p cells and fills @p json with the suite document; returns false
 * when a checkpointed run stopped early.
 */
using SuiteRunner = bool (*)(const SuiteDomain &d,
                             const std::vector<const ScenarioSpec *> &cells,
                             const SuiteArgs &args, std::string &json);

/** One suite bench, as data. */
struct SuiteDomain
{
    ScenarioSuite suite = ScenarioSuite::Matrix; //!< default run's owner
    const char *binary = nullptr; //!< e.g. "bench_calib", for messages
    const char *id = nullptr;     //!< JSON context.bench, BENCH_<id>.json
    const char *title = nullptr;  //!< stdout header

    /** Cells --scenario= may name (null: any registry cell). */
    bool (*accepts)(const ScenarioSpec &) = nullptr;
    const char *acceptsWhat = nullptr; //!< e.g. "a calibration"

    std::size_t smokeTrials = 2; //!< --smoke per-cell trial cap

    /** Gate tolerances, serialized into the suite's context (a
     *  baseline's own context values take precedence when gating). */
    double rateTolerance = 0.0;
    double cyclesTolerance = 0.0;

    /** Baseline bands; empty means the suite takes no --baseline. */
    std::vector<SuiteBand> bands;

    std::vector<SuiteInvariant> invariants;

    /** Domain columns for --list and stdout rows. */
    std::string (*label)(const ScenarioSpec &) = nullptr;

    /** Null: each cell runs through runScenario(). */
    SuiteRunner runner = nullptr;

    /** The domain a --full-scale run switches to (null: stay). */
    const SuiteDomain *fullScaleTier = nullptr;
};

/** The bench for @p suite (FullScale is bench_e2e's tier). */
const SuiteDomain &suiteDomain(ScenarioSuite suite);

/** Parse argv, run the selected cells, gate, write; the exit code. */
int runSuite(const SuiteDomain &domain, int argc, char **argv);

/** @p path with "$outcome"/"$cycles" resolved for @p stage. */
SuitePath suiteSeries(const SuitePath &path, ScenarioStage stage);

/** The per-cell trial count of a (smoke) run. */
std::size_t suiteTrials(const SuiteDomain &d, const ScenarioSpec &spec,
                        bool smoke);

/**
 * Gate a run's suite document: every invariant of @p d, plus — when
 * @p baseline_path is non-empty — every band of every cell against
 * that baseline (an unreadable baseline or a cell missing from it
 * counts as a violation).  Returns the number of violations; the
 * driver exits 1 on any.
 */
unsigned gateSuite(const SuiteDomain &d, const JsonValue &run,
                   const std::string &baseline_path);

/** Record @p d's gate tolerances in a suite's context. */
template <typename Suite>
void
recordTolerances(const SuiteDomain &d, Suite &suite)
{
    if (d.bands.empty())
        return;
    suite.contextValue("rate_tolerance", d.rateTolerance);
    suite.contextValue("cycles_tolerance", d.cyclesTolerance);
}

} // namespace llcf

#endif // LLCF_BENCH_SUITE_HH
