/**
 * @file
 * Shared plumbing for the bench binaries.
 *
 * Times reported are *virtual* (simulated cycles at 2 GHz) — the
 * reproduction target is the shape of each result, not wall-clock.
 *
 * All benches run on the deterministic experiment harness and accept
 * the shared CLI flags parsed by benchParseArgs() (which exports them
 * to the environment so library-level knobs see them too):
 *
 *   --seed=<n>       base RNG seed            (LLCF_SEED, default 42)
 *   --trials=<n>     per-cell trial override  (LLCF_TRIALS)
 *   --threads=<n>    harness worker threads   (LLCF_THREADS)
 *   --json-out=<p>   BENCH_*.json output path (LLCF_JSON_OUT)
 *   --full-scale     paper-scale machines     (LLCF_FULL_SCALE=1)
 *   --counters       record pc_* PerfCounter metrics (LLCF_COUNTERS=1)
 *
 * --seed takes any decimal uint64, --trials and --threads a positive
 * decimal count (threads must fit in unsigned); anything else exits 2.
 */

#ifndef LLCF_BENCH_BENCH_COMMON_HH
#define LLCF_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace llcf {

/** A positive decimal count; false on anything else (sign, junk,
 *  zero, overflow). */
bool parseCount(const std::string &text, std::size_t &out);

/**
 * Parse the shared bench flags out of argv, exporting recognised ones
 * into the environment (so envU64/baseSeed/... observe them), and
 * return the arguments the common parser did not consume.  Prints
 * usage and exits on --help or a malformed common flag.
 */
std::vector<std::string> benchParseArgs(int argc, char **argv);

/**
 * Report leftover args as an error.  Returns true if @p extra is
 * empty; otherwise prints the offenders to stderr and returns false.
 */
bool benchRejectExtraArgs(const std::vector<std::string> &extra);

/** Print the standard bench header (thread count + seed). */
void benchPrintHeader(const char *title);

/**
 * Write @p suite to its BENCH_*.json destination (honouring
 * LLCF_JSON_OUT) and report the path.  Returns the process exit code.
 */
int benchWriteSuite(const ExperimentSuite &suite);

// ------------------------------------------------- baseline gates
//
// Shared plumbing for benches that gate --smoke runs against a
// checked-in BENCH_*.json baseline (bench_hotpath and the suite
// driver in suite.cc).  Gates run *before* the suite is written so a
// run whose output path equals the baseline cannot gate against
// itself.

/**
 * Load a baseline document and verify it has a "benchmarks" array.
 * Prints the reason to stderr and returns false on failure, so a
 * stale or unreadable baseline counts as a gate violation rather
 * than a silent pass.
 */
bool benchLoadBaseline(const std::string &path, JsonValue &doc);

/**
 * A gate tolerance recorded in the baseline's "context" object, or
 * @p def when absent — baselines carry their own bands so regenerated
 * documents and gate code cannot drift apart.
 */
double benchBaselineTolerance(const JsonValue &doc, const char *key,
                              double def);

/** The "benchmarks" entry named @p name, or nullptr. */
const JsonValue *benchBaselineEntry(const JsonValue &doc,
                                    const std::string &name);

} // namespace llcf

#endif // LLCF_BENCH_BENCH_COMMON_HH
