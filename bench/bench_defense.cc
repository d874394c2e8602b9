/**
 * @file
 * The defense-vs-attacker matrix and its CI gate.
 *
 * Runs the defense-* cells it owns (see src/defense/ and the defense
 * axis in src/scenario/registry.cc) and writes one BENCH_defense.json
 * entry per cell: the stage's headline success rate under the
 * deployed defense, the attack cost in simulated cycles, and the
 * def_* series (re-keys executed, lines remapped, watchdog
 * probe/miss/fire counts, victim working-set residency) that price
 * the defense itself.
 *
 *   bench_defense --list                    enumerate defense cells
 *   bench_defense                           run every cell, full trials
 *   bench_defense --scenario=defense-rekey-* run a named subset
 *   bench_defense --smoke                   trials capped at 2 per cell
 *   bench_defense --smoke --baseline=BENCH_defense.json
 *                                           + regression gate: success
 *                                           rates inside the baseline's
 *                                           absolute band, attack
 *                                           cycles inside the relative
 *                                           band; exits 1 on violation
 *
 * Two properties are gated unconditionally, baseline or not:
 *
 *  - the kill cell (defense-rekey-fast-tiny-build) must keep the
 *    attack's success rate below 10% — the measured re-key interval
 *    at which eviction-set construction dies stays demonstrated;
 *  - the undefended baseline row (defense-none-tiny-e2e) must keep
 *    succeeding, so "defense wins" can never be an artifact of the
 *    attack being broken everywhere.
 *
 * The driver and the gate are shared (suite.hh); the bands and the
 * invariants live in domains.cc.  For a fixed seed the JSON is
 * byte-identical at any worker-thread count (CI diffs 1-thread vs
 * 8-thread --smoke runs).  The checked-in baseline at the repository
 * root is regenerated with:
 *   ./build/bench_defense --smoke --json-out=BENCH_defense.json
 */

#include "suite.hh"

int
main(int argc, char **argv)
{
    return llcf::runSuite(
        llcf::suiteDomain(llcf::ScenarioSuite::Defense), argc, argv);
}
