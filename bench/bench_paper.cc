/**
 * @file
 * The paper's figures and tables as registry cells, with each claim
 * they support checked on every run.
 *
 * Runs the cells it owns (every spec naming a paperItem; see
 * src/scenario/registry.cc): Fig. 2 (background accesses on Cloud Run
 * vs a quiescent host), Fig. 3 (parallel vs sequential TestEviction),
 * Fig. 6 and Table 5 (monitor detection rate and prime/probe
 * latencies), Table 3 (the raw pruning algorithms) and Table 4
 * (filtered SingleSet, PageOffset and sampled WholeSys construction).
 * Each claim is a named invariant in domains.cc, so a run whose
 * numbers contradict the paper's qualitative result exits 1.
 *
 *   bench_paper --list                   enumerate the paper cells
 *   bench_paper                          run every cell (= --smoke)
 *   bench_paper --scenario=paper-fig6-*  run a named subset (globs ok)
 *   bench_paper --smoke --baseline=BENCH_paper.json
 *                                        + per-cell bands (CI)
 *
 * Cells run on the scaled 4- or 8-slice Skylake-SP; there is no
 * full-scale tier.  For a fixed seed the JSON is byte-identical at any
 * worker-thread count.  The checked-in baseline at the repository
 * root is regenerated with:
 *   ./build/bench_paper --smoke --json-out=BENCH_paper.json
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(llcf::suiteDomain(llcf::ScenarioSuite::Paper),
                          argc, argv);
}
