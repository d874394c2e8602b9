/**
 * @file
 * Step-0 blind topology calibration accuracy/cost and its CI gate.
 *
 * Runs the Stage::Calibrate cells it owns (see src/calib/) and writes
 * one BENCH_calib.json entry per cell: per-field match rates against
 * the true machine configuration (w_llc_match, w_sf_match,
 * slices_match, uncertainty_match, topology_match), the measured
 * geometry, and the calibration cost in simulated cycles and
 * TestEviction executions.
 *
 *   bench_calib --list                   enumerate calibration cells
 *   bench_calib                          run every cell, full trials
 *   bench_calib --scenario=calib-skl-*   run a named subset (globs ok)
 *   bench_calib --smoke                  trials capped at 2 per cell
 *   bench_calib --smoke --baseline=BENCH_calib.json
 *                                        + regression gate: match
 *                                        rates inside the baseline's
 *                                        absolute band, calibration
 *                                        cycles inside the relative
 *                                        band; exits 1 on a violation
 *
 * The driver and the gate are shared (suite.hh); this suite's bands
 * live in domains.cc.  For a fixed seed the JSON is byte-identical at
 * any worker-thread count (CI diffs 1-thread vs 8-thread --smoke
 * runs).  The checked-in baseline at the repository root is
 * regenerated with:
 *   ./build/bench_calib --smoke --json-out=BENCH_calib.json
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(llcf::suiteDomain(llcf::ScenarioSuite::Calib),
                          argc, argv);
}
