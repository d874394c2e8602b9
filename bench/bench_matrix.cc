/**
 * @file
 * The scenario matrix driver: runs any named subset of the registered
 * attack scenarios (machine x replacement policy x noise x pruning
 * algorithm x pipeline stage) on the deterministic experiment harness
 * and writes per-scenario metrics to BENCH_scenarios.json.
 *
 *   bench_matrix --list                 enumerate registered scenarios
 *   bench_matrix                        run the cells it owns: the
 *                                       single-victim build/scan/e2e
 *                                       stages (scenarioSuite())
 *   bench_matrix --scenario=build-*     run a named subset (globs ok;
 *                                       any registered cell)
 *   bench_matrix --smoke                1 trial per scenario (CI gate)
 *
 * Selection and output are the shared suite driver's (suite.hh).
 * For a fixed seed the JSON output is byte-identical at any
 * worker-thread count — CI diffs 1-thread vs 8-thread --smoke runs on
 * every push.
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(llcf::suiteDomain(llcf::ScenarioSuite::Matrix),
                          argc, argv);
}
