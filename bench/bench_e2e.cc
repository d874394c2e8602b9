/**
 * @file
 * Fleet-scale end-to-end key-recovery campaigns and their CI gate.
 *
 * Runs the Stage::Campaign cells it owns (see src/campaign/) through
 * KeyRecoveryCampaign and writes one BENCH_e2e.json entry per
 * campaign: the per-victim aggregates plus the fleet summary (keys
 * recovered, fleet success rate, simulated cycles per recovered key).
 *
 *   bench_e2e --list                    enumerate campaign scenarios
 *   bench_e2e                           run every campaign, full fleets
 *   bench_e2e --scenario=campaign-skl-* run a named subset (globs ok)
 *   bench_e2e --smoke                   fleets capped at 2 victims
 *   bench_e2e --smoke --baseline=BENCH_e2e.json
 *                                       + regression gate: fleet
 *                                       success rates inside the
 *                                       baseline's absolute band,
 *                                       per-victim total cycles inside
 *                                       the relative band; exits 1
 *                                       on a violation
 *   bench_e2e --full-scale              the paper-scale tier: runs the
 *                                       fullScaleOnly fork campaigns
 *                                       (>= 10^5 victims) and writes
 *                                       BENCH_fullscale.json with a
 *                                       simulated keys/hour headline
 *   bench_e2e --checkpoint=cp.json [--resume] [--stop-after-shards=N]
 *                                       shard-boundary checkpointing
 *                                       for one selected campaign; an
 *                                       interrupted run exits 3 and
 *                                       writes no JSON — resume it
 *
 * The driver and the gate are shared (suite.hh); the campaign runner
 * and this suite's bands live in domains.cc.  For a fixed seed the
 * JSON is byte-identical at any worker-thread count, and a resumed
 * run's JSON is byte-identical to an uninterrupted one (CI diffs
 * 1-thread vs 8-thread --smoke runs plus an interrupt/resume pair).
 * Wall-clock numbers stay on stdout.  The checked-in baselines at the
 * repository root are regenerated with:
 *   ./build/bench_e2e --smoke --json-out=BENCH_e2e.json
 *   ./build/bench_e2e --full-scale --trials=2000 \
 *       --json-out=BENCH_fullscale.json
 * (the committed full-scale baseline uses a 2,000-victim fleet: its
 * per-victim bands cover both CI's 200-victim gate and the nightly
 * true 10^5 fleet, which regenerating at full scale would take hours
 * to reproduce).
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(llcf::suiteDomain(llcf::ScenarioSuite::E2e),
                          argc, argv);
}
