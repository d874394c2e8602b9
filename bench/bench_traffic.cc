/**
 * @file
 * The heavy-traffic matrix and its CI gate.
 *
 * Runs the traffic-* cells it owns (the traffic axis in
 * src/scenario/registry.cc: open-loop victim arrivals, bursty
 * co-tenant load, the AES T-table victim family, mid-campaign key
 * rotation and the adaptive scanner) and writes one
 * BENCH_traffic.json entry per cell: the stage's headline success
 * rate under load, the attack cost in simulated cycles, and the
 * traffic_* series (offered rate, arrivals served, queue delay,
 * co-tenant accesses, key epochs) that price the load itself.  The
 * traffic-budget-* cells clone the rotation campaign at three Step-2
 * budgets — the keys-per-cycle-budget curve (see README).
 *
 *   bench_traffic --list                     enumerate traffic cells
 *   bench_traffic                            run every cell, full trials
 *   bench_traffic --scenario=traffic-aes-*   run a named subset
 *   bench_traffic --smoke                    trials capped at 2 per cell
 *   bench_traffic --smoke --baseline=BENCH_traffic.json
 *                                            + regression gate; exits 1
 *                                            on violation
 *
 * Three properties are gated unconditionally, baseline or not:
 *
 *  - the AES cell (traffic-aes-tiny-e2e) must recover at least one
 *    key-byte nibble block per trial on average — the line-granular
 *    extractor stays demonstrated end to end;
 *  - the saturated sparse cell (traffic-sparse-tiny-scan) must record
 *    an explicit target_found outcome — degrading under load must
 *    produce a scored miss, never a crash or a missing series;
 *  - the rotation campaign (traffic-rotate-tiny-campaign-2) must
 *    observe more than one key epoch, so per-epoch scoring is
 *    actually exercised.
 *
 * The driver and the gate are shared (suite.hh); the bands and the
 * invariants live in domains.cc.  For a fixed seed the JSON is
 * byte-identical at any worker-thread count (CI diffs 1-thread vs
 * 8-thread --smoke runs).  The checked-in baseline at the repository
 * root is regenerated with:
 *   ./build/bench_traffic --smoke --json-out=BENCH_traffic.json
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(
        llcf::suiteDomain(llcf::ScenarioSuite::Traffic), argc, argv);
}
