/**
 * The six registry suite benches as SuiteDomain data (see suite.hh):
 * their --scenario= filters, smoke caps, gate bands and invariants,
 * --list/row labels, and bench_e2e's campaign runner.
 */

#include <cstdio>
#include <limits>

#include "bench_common.hh"
#include "campaign/campaign.hh"
#include "suite.hh"
#include "traffic/traffic.hh"
#include "victim/victim.hh"

namespace llcf {
namespace {

/** Absolute drift allowed on success rates: one trial of a 2-3 trial
 *  smoke cell may flip without failing CI. */
constexpr double kCellRateTolerance = 0.51;

/** Absolute drift allowed on fleet success rates: one victim of a
 *  smoke fleet may flip (the pipeline is deterministic per seed but
 *  not per libm). */
constexpr double kFleetRateTolerance = 0.5;

/** Relative drift allowed on attack-cycle means. */
constexpr double kCyclesTolerance = 0.5;

std::string
machineLabel(const ScenarioSpec &s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s/%usl",
                  scenarioMachineName(s.machine), s.slices);
    return buf;
}

std::string
matrixLabel(const ScenarioSpec &s)
{
    return machineLabel(s) + " " + replKindName(s.sharedRepl) + " " +
           pruneAlgoName(s.algo) + " " + s.noise;
}

std::string
calibLabel(const ScenarioSpec &s)
{
    return machineLabel(s) + " " + replKindName(s.sharedRepl) + " " +
           s.noise;
}

std::string
e2eLabel(const ScenarioSpec &s)
{
    return machineLabel(s) + " x" + std::to_string(s.fleetSize) + " " +
           s.noise;
}

std::string
defenseLabel(const ScenarioSpec &s)
{
    return std::string(defenseKindName(s.defense.kind)) + " " +
           machineLabel(s);
}

/** Victim family plus offered load, e.g. "aes poisson 200/s rot4". */
std::string
trafficLabel(const ScenarioSpec &s)
{
    char buf[48];
    std::string label = victimFamilyName(s.victimFamily);
    if (s.victimArrival.active()) {
        std::snprintf(buf, sizeof(buf), " %s %.0f/s",
                      arrivalKindName(s.victimArrival.kind),
                      s.victimArrival.ratePerSec);
        label += buf;
    } else {
        label += " closed";
    }
    if (s.coTenants > 0) {
        std::snprintf(buf, sizeof(buf), " +%ux%.0f/s", s.coTenants,
                      s.coTenantRps);
        label += buf;
    }
    if (s.rotateKeys > 0)
        label += " rot" + std::to_string(s.rotateKeys);
    if (s.adaptiveScan)
        label += " ucb";
    return label;
}

/** Recovered keys per *simulated* hour of attack time, the paper's
 *  fleet-cost headline (0 when nothing was recovered). */
double
simulatedKeysPerHour(const CampaignSummary &s)
{
    if (s.keysRecovered == 0 || s.totalAttackCycles <= 0.0)
        return 0.0;
    const double hours =
        s.totalAttackCycles / (kCpuGhz * 1e9) / 3600.0;
    return static_cast<double>(s.keysRecovered) / hours;
}

void
printCampaignRow(const CampaignResult &r)
{
    const CampaignSummary &s = r.summary;
    std::printf("  %-32s fleet %7zu  keys %6zu  succ %5.1f%%  ",
                r.name.c_str(), s.fleet, s.keysRecovered,
                s.fleetSuccessRate * 100.0);
    if (s.keysRecovered > 0) {
        std::printf("%10s/key  %8.1f keys/h",
                    formatDuration(s.cyclesPerRecoveredKey).c_str(),
                    simulatedKeysPerHour(s));
    } else {
        std::printf("%14s  %15s", "-", "-");
    }
    // Host wall clock lives on stdout only; the JSON stays a pure
    // function of (spec, seed, fleet).
    std::printf("  wall %6.1f s\n", s.wallSeconds);
}

/** bench_e2e's runner: every cell through KeyRecoveryCampaign, with
 *  shard checkpointing for a single selected campaign. */
bool
runCampaigns(const SuiteDomain &d,
             const std::vector<const ScenarioSpec *> &cells,
             const SuiteArgs &args, std::string &json)
{
    CampaignSuite suite(d.id);
    recordTolerances(d, suite);
    for (const ScenarioSpec *spec : cells) {
        CampaignRunOptions opts;
        opts.fleet = suiteTrials(d, *spec, args.smoke);
        opts.masterSeed = baseSeed();
        opts.checkpointPath = args.checkpoint;
        opts.resume = args.resume;
        opts.stopAfterShards = args.stopAfterShards;
        CampaignResult result = KeyRecoveryCampaign(*spec).run(opts);
        printCampaignRow(result);
        if (result.interrupted) {
            std::printf("  %-32s interrupted at trial %zu/%zu; "
                        "checkpoint %s — resume with --resume\n",
                        result.name.c_str(),
                        result.aggregate.trials(), result.trials,
                        args.checkpoint.c_str());
            return false;
        }
        suite.add(std::move(result));
    }
    json = suite.toJson();
    return true;
}

/** Outcome + cost bands of the defense and traffic matrices: a stage
 *  a cell never reaches leaves its series unrecorded in the run and
 *  the baseline alike, which is the expected band, not a failure. */
std::vector<SuiteBand>
stageBands()
{
    return {{{"outcomes", "$outcome", "rate"}, false, true},
            {{"metrics", "$cycles", "mean"}, true, true}};
}

SuiteDomain
makeDomain(ScenarioSuite suite, const char *binary, const char *id,
           const char *title)
{
    SuiteDomain d;
    d.suite = suite;
    d.binary = binary;
    d.id = id;
    d.title = title;
    return d;
}

SuiteDomain
makeMatrix()
{
    SuiteDomain d = makeDomain(ScenarioSuite::Matrix, "bench_matrix",
                               "scenarios", "Scenario matrix");
    d.smokeTrials = 1;
    d.label = matrixLabel;
    return d;
}

SuiteDomain
makeE2e(ScenarioSuite suite)
{
    const bool full = suite == ScenarioSuite::FullScale;
    SuiteDomain d =
        makeDomain(suite, "bench_e2e", full ? "fullscale" : "e2e",
                   full ? "Full-scale key-recovery campaigns"
                        : "End-to-end key-recovery campaigns");
    d.accepts = [](const ScenarioSpec &s) {
        return s.stage == ScenarioStage::Campaign;
    };
    d.acceptsWhat = "a campaign";
    d.rateTolerance = kFleetRateTolerance;
    d.cyclesTolerance = kCyclesTolerance;
    // A fleet can legitimately record no per-victim cycle aggregates
    // (every victim failed blind Step 0 on the fork path).
    d.bands = {{{"campaign", "fleet_success_rate"}, false, false},
               {{"metrics", "total_cycles", "mean"}, true, true}};
    d.label = e2eLabel;
    d.runner = runCampaigns;
    return d;
}

SuiteDomain
makeCalib()
{
    SuiteDomain d = makeDomain(ScenarioSuite::Calib, "bench_calib",
                               "calib",
                               "Step-0 blind topology calibration");
    d.accepts = [](const ScenarioSpec &s) {
        return s.stage == ScenarioStage::Calibrate;
    };
    d.acceptsWhat = "a calibration";
    d.rateTolerance = kCellRateTolerance;
    d.cyclesTolerance = kCyclesTolerance;
    for (const char *field : {"calibrated", "w_llc_match", "w_sf_match",
                              "slices_match", "topology_match"})
        d.bands.push_back({{"outcomes", field, "rate"}, false, false});
    d.bands.push_back({{"metrics", "calib_cycles", "mean"}, true, false});
    d.label = calibLabel;
    return d;
}

SuiteDomain
makeDefense()
{
    SuiteDomain d = makeDomain(ScenarioSuite::Defense, "bench_defense",
                               "defense", "Defense-vs-attacker matrix");
    d.accepts = [](const ScenarioSpec &s) {
        return s.defense.recordsMetrics();
    };
    d.acceptsWhat = "a defense cell";
    d.rateTolerance = kCellRateTolerance;
    d.cyclesTolerance = kCyclesTolerance;
    d.bands = stageBands();
    d.invariants = {
        {"defense-rekey-fast-tiny-build", {"outcomes", "success", "rate"},
         SuiteCmp::Below, 0.10,
         "the re-key interval no longer kills eviction-set "
         "construction"},
        {"defense-none-tiny-e2e", {"outcomes", "target_correct", "rate"},
         SuiteCmp::AtLeast, 0.50,
         "the undefended attack itself is broken, defense results are "
         "meaningless"},
    };
    d.label = defenseLabel;
    return d;
}

SuiteDomain
makeTraffic()
{
    SuiteDomain d = makeDomain(ScenarioSuite::Traffic, "bench_traffic",
                               "traffic", "Heavy-traffic matrix");
    d.accepts = [](const ScenarioSpec &s) { return s.trafficDomain(); };
    d.acceptsWhat = "a traffic cell";
    d.rateTolerance = kCellRateTolerance;
    d.cyclesTolerance = kCyclesTolerance;
    d.bands = stageBands();
    d.invariants = {
        {"traffic-aes-tiny-e2e", {"metrics", "aes_nibbles_correct", "mean"},
         SuiteCmp::AtLeast, 1.0,
         "the AES line-granular extractor no longer recovers key "
         "material"},
        {"traffic-sparse-tiny-scan", {"outcomes", "target_found", "rate"},
         SuiteCmp::AtMost, 0.5,
         "the starved cell must degrade to an explicit scored miss, and "
         "the sparse victim must keep starving the scan budget"},
        {"traffic-rotate-tiny-campaign-2",
         {"metrics", "traffic_epochs", "mean"}, SuiteCmp::Above, 1.0,
         "rotation never advanced, per-epoch scoring is untested"},
    };
    d.label = trafficLabel;
    return d;
}

/** "paper-<item>-<key>": the cell names addPaperCells() registers. */
std::string
paperCell(const char *item, const std::string &key)
{
    return std::string("paper-") + item + "-" + key;
}

/**
 * The paper's qualitative claims (DESIGN.md §14).  Each holds on the
 * committed run and fails the gate when it flips; cross-cell claims
 * compare two cells' values of one series.
 */
std::vector<SuiteInvariant>
paperInvariants()
{
    const SuitePath build = {"metrics", "build_cycles", "mean"};
    const SuitePath success = {"outcomes", "success", "rate"};
    const SuitePath detect = {"metrics", "detection_rate", "mean"};
    std::vector<SuiteInvariant> inv;

    // Fig. 2: Cloud Run's tenants hit a set far more often.
    inv.push_back({paperCell("fig2", "cloud"),
                   {"metrics", "gap_cycles", "median"}, SuiteCmp::AtMost,
                   0.1,
                   "Cloud Run background accesses are no longer much "
                   "denser than on a quiescent host",
                   paperCell("fig2", "local")});

    // Fig. 3: parallel TestEviction is over 10x faster at every size.
    for (unsigned mult : {1u, 3u, 5u, 7u, 9u, 11u}) {
        const std::string n = std::to_string(mult) + "u";
        inv.push_back({paperCell("fig3", "parallel-" + n),
                       {"metrics", "test_cycles", "mean"},
                       SuiteCmp::AtMost, 0.1,
                       "parallel TestEviction is no longer an order of "
                       "magnitude faster than sequential",
                       paperCell("fig3", "sequential-" + n)});
    }

    // Fig. 6: from a 2,000-cycle interval on, Parallel Probing detects
    // nearly every access and the monitors keep the paper's order.
    for (unsigned cyc : {2000u, 5000u, 7000u, 10000u, 50000u, 100000u}) {
        const std::string at = std::to_string(cyc);
        const std::string par = paperCell("fig6", "parallel-" + at);
        const std::string flush = paperCell("fig6", "psflush-" + at);
        const std::string alt = paperCell("fig6", "psalt-" + at);
        inv.push_back({par, detect, SuiteCmp::AtLeast, 0.95,
                       "Parallel Probing misses sender accesses"});
        inv.push_back({par, detect, SuiteCmp::AtLeast, 1.0,
                       "Parallel Probing detects less than PS-Flush",
                       flush});
        inv.push_back({flush, detect, SuiteCmp::AtLeast, 1.0,
                       "PS-Flush detects less than PS-Alt", alt});
    }

    // Table 5 (the Fig. 6 cells at 10,000 cycles): Parallel primes
    // fastest, and pays for it with the slowest probe.
    const std::string par = paperCell("fig6", "parallel-10000");
    const std::string flush = paperCell("fig6", "psflush-10000");
    const std::string alt = paperCell("fig6", "psalt-10000");
    const SuitePath prime = {"metrics", "prime_cycles", "mean"};
    inv.push_back({flush, prime, SuiteCmp::Above, 1.0,
                   "PS-Flush no longer primes slower than PS-Alt", alt});
    inv.push_back({alt, prime, SuiteCmp::Above, 1.0,
                   "PS-Alt no longer primes slower than Parallel", par});
    inv.push_back({par, {"metrics", "probe_cycles", "mean"},
                   SuiteCmp::Above, 1.0,
                   "Parallel's probe is no longer slower than PS-Flush's",
                   flush});

    // Table 3: every raw pruner works on a quiescent host; under Cloud
    // Run noise Prime+Scope pruning collapses while group testing
    // holds up.
    for (const char *algo : {"gt", "gtop", "ps", "psop"}) {
        inv.push_back({paperCell("table3", std::string(algo) + "-local"),
                       success, SuiteCmp::AtLeast, 0.9,
                       "a raw pruner fails on a quiescent host"});
    }
    for (const char *env : {"-cloud", "-quiet"}) {
        for (const char *weak : {"ps", "psop"}) {
            for (const char *strong : {"gt", "gtop"}) {
                inv.push_back(
                    {paperCell("table3", weak + std::string(env)), success,
                     SuiteCmp::AtMost, 0.5,
                     "Prime+Scope pruning no longer collapses under "
                     "Cloud Run noise relative to group testing",
                     paperCell("table3", strong + std::string(env))});
            }
        }
    }

    // Table 4: with filtering BinS is fastest and GtOp beats Gt on
    // bulk builds, Cloud Run is slower than local, and builds succeed.
    for (const char *row : {"page-", "whole-"}) {
        auto cell = [row](const char *algo, const char *env) {
            return paperCell("table4", row + std::string(algo) + env);
        };
        for (const char *env : {"-local", "-cloud"}) {
            inv.push_back({cell("bins", env), build, SuiteCmp::AtMost,
                           1.0, "BinS is slower than GtOp",
                           cell("gtop", env)});
            inv.push_back({cell("gtop", env), build, SuiteCmp::Below, 1.0,
                           "GtOp is no faster than Gt", cell("gt", env)});
            inv.push_back({cell("bins", env), build, SuiteCmp::Below, 1.0,
                           "BinS is no faster than PsBst",
                           cell("psbst", env)});
            for (const char *algo : {"gt", "gtop", "psbst", "bins"}) {
                inv.push_back({cell(algo, env), success, SuiteCmp::AtLeast,
                               0.9, "a filtered bulk build fails"});
            }
        }
        for (const char *algo : {"gt", "gtop", "psbst", "bins"}) {
            inv.push_back({cell(algo, "-cloud"), build, SuiteCmp::Above,
                           1.0, "Cloud Run noise no longer slows the build",
                           cell(algo, "-local")});
        }
    }
    return inv;
}

SuiteDomain
makePaper()
{
    SuiteDomain d = makeDomain(ScenarioSuite::Paper, "bench_paper",
                               "paper", "Paper figures and tables");
    d.accepts = [](const ScenarioSpec &s) { return !s.paperItem.empty(); };
    d.acceptsWhat = "a paper cell";
    // The default run is the CI size: --smoke caps nothing.
    d.smokeTrials = std::numeric_limits<std::size_t>::max();
    d.rateTolerance = kCellRateTolerance;
    d.cyclesTolerance = kCyclesTolerance;
    d.bands = stageBands();
    d.invariants = paperInvariants();
    d.label = calibLabel; // the cell name carries the swept knob
    return d;
}

} // namespace

const SuiteDomain &
suiteDomain(ScenarioSuite suite)
{
    static const SuiteDomain matrix = makeMatrix();
    static const SuiteDomain full = makeE2e(ScenarioSuite::FullScale);
    static const SuiteDomain e2e = [] {
        SuiteDomain d = makeE2e(ScenarioSuite::E2e);
        d.fullScaleTier = &full;
        return d;
    }();
    static const SuiteDomain calib = makeCalib();
    static const SuiteDomain defense = makeDefense();
    static const SuiteDomain traffic = makeTraffic();
    static const SuiteDomain paper = makePaper();
    switch (suite) {
      case ScenarioSuite::Matrix:
        return matrix;
      case ScenarioSuite::E2e:
        return e2e;
      case ScenarioSuite::FullScale:
        return full;
      case ScenarioSuite::Calib:
        return calib;
      case ScenarioSuite::Defense:
        return defense;
      case ScenarioSuite::Traffic:
        return traffic;
      case ScenarioSuite::Paper:
        return paper;
    }
    return matrix;
}

} // namespace llcf
