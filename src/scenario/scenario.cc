#include "scenario.hh"

#include <algorithm>

#include "attack/covert.hh"
#include "attack/e2e.hh"
#include "campaign/campaign.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "common/rng.hh"

namespace llcf {
namespace {

/** Positional sub-seed: trial seed -> per-actor stream. */
std::uint64_t
actorSeed(std::uint64_t trial_seed, std::uint64_t actor)
{
    return streamSeed(trial_seed, actor);
}

constexpr std::uint64_t kMachineActor = 0;
constexpr std::uint64_t kAttackerActor = 1;
constexpr std::uint64_t kVictimActor = 2;

/** Counters hook shared by the trial bodies (opt-in via env). */
void
maybeRecordCounters(const ScenarioRig &rig, TrialRecorder &rec)
{
    if (countersEnabled())
        recordPerfCounters(rec, rig.machine.perfCounters());
}

/** The victim lines a defense watches: target + decoys. */
std::vector<Addr>
victimWorkingSet(const Victim &victim)
{
    std::vector<Addr> lines;
    lines.reserve(1 + victim.decoyPas().size());
    lines.push_back(victim.targetLinePa());
    lines.insert(lines.end(), victim.decoyPas().begin(),
                 victim.decoyPas().end());
    return lines;
}

/**
 * Defense hook shared by the trial bodies: record the "def_*" series
 * iff the spec asks for them (active defense, or an undefended
 * baseline cell with measure set).  Gated here so the existing cells'
 * serialized records stay byte-identical.
 */
void
maybeRecordDefense(const ScenarioSpec &spec, const ScenarioRig &rig,
                   TrialRecorder &rec, const Victim *victim)
{
    if (!spec.defense.recordsMetrics())
        return;
    if (victim) {
        const std::vector<Addr> ws = victimWorkingSet(*victim);
        recordDefenseMetrics(rec, rig.machine, &ws);
    } else {
        recordDefenseMetrics(rec, rig.machine, nullptr);
    }
}

/**
 * Step 0 for blind single-victim stages: calibrate, record, adopt.
 * Returns false when calibration failed and the attack stages cannot
 * run; the caller then records its stage outcomes and cycle metrics
 * as explicit zeros so suite aggregates keep counting failed trials.
 * @p calib_cycles receives the Step-0 cost either way — stages with
 * a total-cost metric charge it there, exactly like the campaign
 * flow in src/campaign/ charges it to the per-key cost.
 */
bool
maybeCalibrateBlind(const ScenarioSpec &spec, ScenarioRig &rig,
                    TrialRecorder &rec, Cycles *calib_cycles)
{
    *calib_cycles = 0;
    if (!spec.blind())
        return true;
    CalibratedTopology calib = runScenarioCalibration(spec, rig);
    recordCalibration(rec, calib,
                      compareToOracle(calib, rig.machine.config()));
    *calib_cycles = calib.cycles;
    return calib.valid;
}

void
runEvsetBuildTrial(const ScenarioSpec &spec, TrialContext &ctx,
                   TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    Cycles calibCycles = 0;
    if (!maybeCalibrateBlind(spec, rig, rec, &calibCycles)) {
        rec.outcome("success", false);
        rec.metric("build_cycles", 0.0);
        rec.metric("attempts", 0.0);
        maybeRecordDefense(spec, rig, rec, nullptr);
        maybeRecordCounters(rig, rec);
        return;
    }
    const std::size_t t = ctx.index;
    auto cands = rig.pool->candidatesAt(
        static_cast<unsigned>((3 * t) % kLinesPerPage));
    const Addr ta = cands[t % cands.size()];
    cands.erase(cands.begin() + static_cast<long>(t % cands.size()));

    EvictionSetBuilder builder(*rig.session, spec.algo, spec.useFilter);
    auto out = builder.buildForTarget(ta, cands);
    rec.outcome("success", out.success && out.groundTruthValid);
    rec.metric("build_cycles", static_cast<double>(out.elapsed));
    rec.metric("attempts", static_cast<double>(out.attempts));
    maybeRecordDefense(spec, rig, rec, nullptr);
    maybeRecordCounters(rig, rec);
}

void
runScanTrial(const ScenarioSpec &spec, TrialContext &ctx,
             TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    Cycles calibCycles = 0;
    if (!maybeCalibrateBlind(spec, rig, rec, &calibCycles)) {
        rec.outcome("evsets_built", false);
        rec.outcome("target_found", false);
        rec.outcome("target_correct", false);
        rec.metric("build_cycles", 0.0);
        rec.metric("scan_cycles", 0.0);
        rec.metric("sets_scanned", 0.0);
        maybeRecordDefense(spec, rig, rec, nullptr);
        maybeRecordCounters(rig, rec);
        return;
    }
    Machine &m = rig.machine;
    auto victim = makeScenarioVictim(spec, m, rig.victimSeed(),
                                     VictimConfig{}.targetLineIndex, 0);
    maybeArmScenarioWatchdog(m, *victim);
    TraceClassifier classifier = trainScenarioClassifier(spec, rig,
                                                         *victim);
    auto load = makeScenarioLoad(spec, m, rig.victimSeed());

    Cycles t0 = m.now();
    EvictionSetBuilder builder(*rig.session, spec.algo, spec.useFilter);
    auto bulk = builder.buildAtLineIndex(*rig.pool,
                                         victim->targetLineIndex());
    rec.metric("build_cycles", static_cast<double>(m.now() - t0));
    rec.outcome("evsets_built", !bulk.evsets.empty());
    if (bulk.evsets.empty()) {
        maybeRecordDefense(spec, rig, rec, victim.get());
        return;
    }

    // Keep the victim serving requests across the scan window.  Open
    // loop sizes the request count from the arrival rate; closed loop
    // keeps the historical fixed batch.
    const unsigned scanRequests =
        victim->config().arrival.active()
            ? EndToEndAttack::scanRequestCount(*victim,
                                               classifier.params())
            : 8;
    victim->serveRequests(m.now(), scanRequests);
    t0 = m.now();
    TargetSetScanner scanner(*rig.session, classifier);
    auto res = scanner.scan(bulk.evsets);
    m.clearStreams();
    rec.metric("scan_cycles", static_cast<double>(m.now() - t0));
    rec.metric("sets_scanned", static_cast<double>(res.setsScanned));
    rec.outcome("target_found", res.found);
    rec.outcome("target_correct",
                res.found &&
                    m.sharedSetOf(bulk.evsets[res.evsetIndex].target) ==
                        m.sharedSetOf(victim->targetLinePa()));
    maybeRecordDefense(spec, rig, rec, victim.get());
    maybeRecordTraffic(spec, rec, *victim, load.get());
    maybeRecordCounters(rig, rec);
}

void
runEndToEndTrial(const ScenarioSpec &spec, TrialContext &ctx,
                 TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    Cycles calibCycles = 0;
    if (!maybeCalibrateBlind(spec, rig, rec, &calibCycles)) {
        rec.outcome("evsets_built", false);
        rec.outcome("target_found", false);
        rec.outcome("target_correct", false);
        rec.metric("build_cycles", 0.0);
        rec.metric("scan_cycles", 0.0);
        rec.metric("extract_cycles", 0.0);
        rec.metric("total_cycles", static_cast<double>(calibCycles));
        maybeRecordDefense(spec, rig, rec, nullptr);
        maybeRecordCounters(rig, rec);
        return;
    }
    auto victim = makeScenarioVictim(spec, rig.machine,
                                     rig.victimSeed(),
                                     VictimConfig{}.targetLineIndex, 0);
    maybeArmScenarioWatchdog(rig.machine, *victim);
    TraceClassifier classifier = trainScenarioClassifier(spec, rig,
                                                         *victim);
    auto load = makeScenarioLoad(spec, rig.machine, rig.victimSeed());
    NonceExtractor extractor; // rule-based boundary detection

    E2EParams params;
    params.algo = spec.algo;
    params.useFilter = spec.useFilter;
    params.tracesPerVictim = spec.tracesPerVictim;
    params.scanner.timeout = secToCycles(spec.scanTimeoutSec);
    EndToEndAttack attack(*rig.session, *victim, classifier, extractor,
                          params);
    auto res = attack.run(*rig.pool);

    rec.outcome("evsets_built", res.evsetsBuilt);
    rec.outcome("target_found", res.targetFound);
    rec.outcome("target_correct", res.targetCorrect);
    rec.metric("build_cycles", static_cast<double>(res.buildTime));
    rec.metric("scan_cycles", static_cast<double>(res.scanTime));
    rec.metric("extract_cycles", static_cast<double>(res.extractTime));
    // Blind trials charge Step 0 into the total, as campaigns do.
    rec.metric("total_cycles",
               static_cast<double>(res.totalTime() + calibCycles));
    for (double v : res.recoveredFraction.samples())
        rec.metric("recovered_fraction", v);
    for (double v : res.bitErrorRate.samples())
        rec.metric("bit_error_rate", v);
    if (spec.victimFamily == VictimFamily::AesTable) {
        rec.metric("aes_nibbles_total",
                   static_cast<double>(res.aesNibblesTotal));
        rec.metric("aes_nibbles_correct",
                   static_cast<double>(res.aesNibblesCorrect));
    }
    maybeRecordDefense(spec, rig, rec, victim.get());
    maybeRecordTraffic(spec, rec, *victim, load.get());
    maybeRecordCounters(rig, rec);
}

void
runCalibrateTrial(const ScenarioSpec &spec, TrialContext &ctx,
                  TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    CalibratedTopology calib = runScenarioCalibration(spec, rig);
    recordCalibration(rec, calib,
                      compareToOracle(calib, rig.machine.config()));
    maybeRecordDefense(spec, rig, rec, nullptr);
    maybeRecordCounters(rig, rec);
}

/**
 * Fig. 2: a Parallel Probing monitor on one SF set, built from ground
 * truth, timestamps other tenants' accesses; records each gap between
 * consecutive detections and the trial's detection rate.
 */
void
runBackgroundTrial(const ScenarioSpec &spec, TrialContext &ctx,
                   TrialRecorder &rec)
{
    // Background accesses the watch window is sized for (the paper
    // collects 1,000 detections).
    constexpr double kAccesses = 400.0;
    ScenarioRig rig(spec, ctx.seed);
    Machine &m = rig.machine;
    const Addr target = rig.pool->at(5 + ctx.index, 44);
    auto monitor = PrimeProbeMonitor::make(
        MonitorKind::Parallel, *rig.session,
        groundTruthEvictionSet(m, *rig.pool, target, m.config().sf.ways));
    // Watch for as long as the profile needs to issue kAccesses
    // background accesses to the set, at most 400 ms (34.8 ms on
    // cloud, 400 ms on local).  The monitor detects about half of
    // them: a cloud trial records ~200 gaps, a local one ~75.
    const double rate = spec.noiseProfile().accessesPerSetPerMs;
    const double window_ms =
        rate > 0.0 ? std::min(400.0, kAccesses / rate) : 400.0;
    const Cycles start = m.now();
    auto detections = monitor->collectTrace(start + msToCycles(window_ms));
    for (std::size_t i = 1; i < detections.size(); ++i) {
        rec.metric("gap_cycles",
                   static_cast<double>(detections[i] - detections[i - 1]));
    }
    rec.metric("accesses_per_ms",
               static_cast<double>(detections.size()) /
                   cyclesToMs(m.now() - start));
    maybeRecordCounters(rig, rec);
}

/**
 * Fig. 3: one TestEviction of candidateMultiple x U candidates, either
 * the parallel implementation or a sequential pointer chase, plus the
 * Section 4.3 estimate of other tenants' accesses to the set during it.
 */
void
runTestEvictionTrial(const ScenarioSpec &spec, TrialContext &ctx,
                     TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    Machine &m = rig.machine;
    const std::size_t n =
        std::size_t{m.config().sf.uncertainty()} * spec.candidateMultiple;
    auto cands = rig.pool->candidatesAt(13);
    if (cands.size() <= n)
        fatal("scenario '%s': candidate pool (%zu) smaller than the "
              "test size %zu",
              spec.name.c_str(), cands.size(), n);
    const Addr ta = cands.back();
    cands.pop_back();
    cands.resize(n);

    const Cycles start = m.now();
    if (spec.parallelTest) {
        rig.session->testEvictionLlcParallel(ta, cands, n);
    } else {
        m.clflush(0, ta);
        m.loadShared(0, 1, ta);
        for (Addr a : cands)
            m.chaseLoad(0, a);
        m.probeLoad(0, ta);
    }
    const Cycles elapsed = m.now() - start;
    rec.metric("test_cycles", static_cast<double>(elapsed));
    rec.metric("expected_bg_accesses",
               cyclesToMs(elapsed) *
                   spec.noiseProfile().accessesPerSetPerMs);
    maybeRecordCounters(rig, rec);
}

/**
 * Fig. 6 / Table 5: a sender on another core accesses one SF set every
 * senderInterval cycles while the spec's monitor watches it; records
 * the detection rate and the monitor's prime and probe latencies.
 */
void
runCovertTrial(const ScenarioSpec &spec, TrialContext &ctx,
               TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    const unsigned w = rig.machine.config().sf.ways;
    const Addr sender = rig.pool->at(23 + ctx.index, 31);
    auto evset = groundTruthEvictionSet(rig.machine, *rig.pool, sender, w);
    std::vector<Addr> alt;
    if (spec.monitor == MonitorKind::PsAlt)
        alt = groundTruthEvictionSet(rig.machine, *rig.pool, sender, w, w);
    CovertParams params;
    params.accessInterval = spec.senderInterval;
    params.accesses = 400;
    auto out = runCovertExperiment(*rig.session, spec.monitor,
                                   std::move(evset), std::move(alt),
                                   sender, params);
    rec.metric("detection_rate", out.detectionRate);
    for (double v : out.primeLatency.samples())
        rec.metric("prime_cycles", v);
    for (double v : out.probeLatency.samples())
        rec.metric("probe_cycles", v);
    maybeRecordCounters(rig, rec);
}

/**
 * Table 4: bulk eviction-set construction, PageOffset (every SF set
 * at one page offset) or WholeSys sampled at sampledOffsets offsets.
 * Records one "success" outcome per SF set the build should cover.
 */
void
runEvsetBulkTrial(const ScenarioSpec &spec, TrialContext &ctx,
                  TrialRecorder &rec)
{
    ScenarioRig rig(spec, ctx.seed);
    EvictionSetBuilder builder(*rig.session, spec.algo, spec.useFilter);
    BulkOutcome out;
    if (spec.sampledOffsets == 0) {
        out = builder.buildAtLineIndex(
            *rig.pool,
            static_cast<unsigned>((7 * ctx.index + 1) % kLinesPerPage));
    } else {
        std::vector<unsigned> line_indices;
        for (unsigned i = 0; i < spec.sampledOffsets; ++i)
            line_indices.push_back(i * (kLinesPerPage / spec.sampledOffsets));
        out = builder.buildWholeSystem(*rig.pool, line_indices);
    }
    for (unsigned i = 0; i < out.expectedSets; ++i)
        rec.outcome("success", i < out.validSets);
    rec.metric("build_cycles", static_cast<double>(out.elapsed));
    maybeRecordCounters(rig, rec);
}

} // namespace

TraceClassifier
trainScenarioClassifier(const ScenarioSpec &spec, ScenarioRig &rig,
                        Victim &victim)
{
    ScannerParams sparams;
    sparams.timeout = secToCycles(spec.scanTimeoutSec);
    sparams.adaptive = spec.adaptiveScan;
    TraceClassifier classifier(sparams);
    ScannerTrainer trainer(*rig.session, victim, *rig.pool);
    classifier.train(trainer.collect(classifier, spec.trainTargetTraces,
                                     spec.trainNontargetTraces));
    return classifier;
}

const char *
scenarioStageName(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "evset-build";
      case ScenarioStage::Scan:
        return "scan";
      case ScenarioStage::EndToEnd:
        return "end-to-end";
      case ScenarioStage::Campaign:
        return "campaign";
      case ScenarioStage::Calibrate:
        return "calibrate";
      case ScenarioStage::Background:
        return "background";
      case ScenarioStage::TestEviction:
        return "test-evict";
      case ScenarioStage::Covert:
        return "covert";
      case ScenarioStage::EvsetBulk:
        return "evset-bulk";
    }
    return "?";
}

const char *
scenarioMachineName(ScenarioMachine machine)
{
    switch (machine) {
      case ScenarioMachine::SkylakeSp:
        return "skylake-sp";
      case ScenarioMachine::IceLakeSp:
        return "icelake-sp";
      case ScenarioMachine::ScaledSkylake:
        return "skylake-scaled";
      case ScenarioMachine::TinyTest:
        return "tiny";
    }
    return "?";
}

MachineConfig
ScenarioSpec::machineConfig() const
{
    MachineConfig cfg;
    switch (machine) {
      case ScenarioMachine::SkylakeSp:
        cfg = skylakeSp(slices);
        break;
      case ScenarioMachine::IceLakeSp:
        cfg = iceLakeSp(slices);
        break;
      case ScenarioMachine::ScaledSkylake:
        cfg = scaledSkylake(slices);
        break;
      case ScenarioMachine::TinyTest:
        cfg = tinyTest(slices);
        break;
    }
    cfg.withSharedRepl(sharedRepl);
    // The defense axis composes with every machine/policy/stage cell;
    // an inactive spec leaves cfg.defense all-off (no re-check cost).
    defense.applyTo(cfg);
    cfg.check();
    return cfg;
}

NoiseProfile
ScenarioSpec::noiseProfile() const
{
    NoiseProfile p;
    if (!noiseProfileByName(noise, p))
        fatal("scenario '%s': unknown noise profile '%s'", name.c_str(),
              noise.c_str());
    return p;
}

CalibrationConfig
ScenarioSpec::calibrationConfig() const
{
    CalibrationConfig c;
    c.budgetMs = calibBudgetMs;
    c.samplePages = calibSamplePages;
    // Sanity-cap measured associativities by the spec's own prior,
    // with 2x slack: assumedMaxWays sizes the pool and may sit below
    // the true W_SF (Ice Lake's 16-way SF vs the default prior of
    // 14), but a noise-stalled reduction claiming twice the prior is
    // a broken measurement, not a surprising host.
    c.maxWays = std::min(c.maxWays, 2 * assumedMaxWays);
    return c;
}

ScenarioRig::ScenarioRig(const ScenarioSpec &spec, std::uint64_t seed)
    : machine(spec.machineConfig(), spec.noiseProfile(),
              actorSeed(seed, kMachineActor))
{
    AttackerConfig acfg;
    acfg.seed = actorSeed(seed, kAttackerActor);
    acfg.evsetBudget = msToCycles(spec.evsetBudgetMs);
    acfg.blindTopology = spec.blind();
    session = std::make_unique<AttackSession>(machine, acfg);
    // A blind attacker cannot size its pool from the machine's true
    // geometry; it falls back to the spec's assumed upper bounds.
    pool = std::make_unique<CandidatePool>(
        *session,
        spec.blind()
            ? CandidatePool::requiredPagesBlind(
                  spec.assumedMaxUncertainty, spec.assumedMaxWays,
                  acfg.candidateFactor)
            : CandidatePool::requiredPages(machine,
                                           acfg.candidateFactor));
    victimSeed_ = actorSeed(seed, kVictimActor);
}

CalibratedTopology
runScenarioCalibration(const ScenarioSpec &spec, ScenarioRig &rig)
{
    if (rig.session->topologyKnown())
        fatal("scenario '%s': calibration on a non-blind session "
              "(set blindTopology, or drop the Step-0 run)",
              spec.name.c_str());
    TopologyProber prober(*rig.session, *rig.pool,
                          spec.calibrationConfig());
    CalibratedTopology calib = prober.calibrate();
    if (calib.valid)
        rig.session->adoptTopology(calib.view);
    return calib;
}

void
recordCalibration(TrialRecorder &rec, const CalibratedTopology &calib,
                  const CalibrationReport &report)
{
    rec.outcome("calibrated", calib.valid);
    for (const CalibrationFieldReport &f : report.fields) {
        rec.outcome(std::string(f.field) + "_match", f.match);
        rec.metric(f.field, f.measured);
    }
    rec.outcome("topology_match", report.allMatch);
    rec.metric("calib_cycles", static_cast<double>(calib.cycles));
    rec.metric("calib_test_evictions",
               static_cast<double>(calib.testEvictions));
    rec.metric("calib_confidence", calib.confidence);
    rec.metric("calib_uncertainty_raw", calib.uncertaintyRaw);
    rec.metric("calib_slices_raw", calib.slicesRaw);
    if (calib.recallTests) {
        rec.metric("calib_test_recall",
                   static_cast<double>(calib.recallPasses) /
                       static_cast<double>(calib.recallTests));
    }
}

void
runScenarioTrial(const ScenarioSpec &spec, TrialContext &ctx,
                 TrialRecorder &rec)
{
    switch (spec.stage) {
      case ScenarioStage::EvsetBuild:
        runEvsetBuildTrial(spec, ctx, rec);
        return;
      case ScenarioStage::Scan:
        runScanTrial(spec, ctx, rec);
        return;
      case ScenarioStage::EndToEnd:
        runEndToEndTrial(spec, ctx, rec);
        return;
      case ScenarioStage::Campaign:
        runCampaignVictimTrial(spec, ctx, rec);
        return;
      case ScenarioStage::Calibrate:
        runCalibrateTrial(spec, ctx, rec);
        return;
      case ScenarioStage::Background:
        runBackgroundTrial(spec, ctx, rec);
        return;
      case ScenarioStage::TestEviction:
        runTestEvictionTrial(spec, ctx, rec);
        return;
      case ScenarioStage::Covert:
        runCovertTrial(spec, ctx, rec);
        return;
      case ScenarioStage::EvsetBulk:
        runEvsetBulkTrial(spec, ctx, rec);
        return;
    }
    fatal("scenario '%s': unknown stage", spec.name.c_str());
}

void
recordPerfCounters(TrialRecorder &rec, const PerfCounters &pc)
{
    rec.metric("pc_accesses", static_cast<double>(pc.accesses));
    rec.metric("pc_hits", static_cast<double>(pc.hits));
    rec.metric("pc_misses", static_cast<double>(pc.misses));
    rec.metric("pc_l1_evictions", static_cast<double>(pc.l1.evictions));
    rec.metric("pc_l2_evictions", static_cast<double>(pc.l2.evictions));
    rec.metric("pc_llc_evictions",
               static_cast<double>(pc.llc.evictions));
    rec.metric("pc_sf_evictions", static_cast<double>(pc.sf.evictions));
    rec.metric("pc_coh_downgrades",
               static_cast<double>(pc.cohDowngrades));
    rec.metric("pc_sim_cycles", static_cast<double>(pc.simCycles));
    if (pc.accesses) {
        rec.metric("pc_cycles_per_access",
                   static_cast<double>(pc.simCycles) /
                       static_cast<double>(pc.accesses));
    }
}

void
recordDefenseMetrics(TrialRecorder &rec, const Machine &machine,
                     const std::vector<Addr> *working_set)
{
    const DefenseStats ds = machine.defenseStats();
    rec.metric("def_rekeys", static_cast<double>(ds.rekeys));
    rec.metric("def_rekey_lines",
               static_cast<double>(ds.rekeyLinesMoved));
    rec.metric("def_wd_probes", static_cast<double>(ds.wdProbes));
    rec.metric("def_wd_misses", static_cast<double>(ds.wdMisses));
    rec.metric("def_wd_fires", static_cast<double>(ds.wdFires));
    rec.metric("def_wd_selfmiss_rate",
               ds.wdProbes ? static_cast<double>(ds.wdMisses) /
                                 static_cast<double>(ds.wdProbes)
                           : 0.0);
    if (!working_set || working_set->empty())
        return;
    // Residency of the victim's working set at trial end: ground-truth
    // introspection only, so recording perturbs nothing.  Re-key line
    // movement and partition pressure show up here as lost residency —
    // the victim-side overhead the defense matrix reports.
    const unsigned core = machine.config().defense.partition.protectedCore;
    std::size_t resident = 0;
    for (Addr pa : *working_set) {
        if (machine.inL1(core, pa) || machine.inL2(core, pa) ||
            machine.inLlc(pa) || machine.inSf(pa))
            ++resident;
    }
    rec.metric("def_victim_resident",
               static_cast<double>(resident) /
                   static_cast<double>(working_set->size()));
}

void
maybeArmScenarioWatchdog(Machine &machine, const Victim &victim)
{
    if (!machine.config().defense.watchdog.enabled)
        return;
    machine.armWatchdog(victim.config().core,
                        victimWorkingSet(victim));
}

std::unique_ptr<Victim>
makeScenarioVictim(const ScenarioSpec &spec, Machine &machine,
                   std::uint64_t seed, unsigned line_index,
                   std::uint64_t quota)
{
    VictimConfig vcfg;
    vcfg.family = spec.victimFamily;
    vcfg.arrival = spec.victimArrival;
    vcfg.rotateKeys = spec.rotateKeys;
    vcfg.targetLineIndex = line_index;
    vcfg.requestQuota = quota;
    vcfg.seed = seed;
    return makeVictim(machine, vcfg);
}

std::unique_ptr<CoTenantLoad>
makeScenarioLoad(const ScenarioSpec &spec, Machine &machine,
                 std::uint64_t seed)
{
    if (spec.coTenants == 0)
        return nullptr;
    CoTenantLoadConfig lcfg;
    lcfg.tenants = spec.coTenants;
    // Co-tenants reuse the victim's arrival shape at their own rate;
    // a cell with a closed-loop victim still offers Poisson load.
    lcfg.arrival = spec.victimArrival;
    if (!lcfg.arrival.active())
        lcfg.arrival.kind = ArrivalKind::Poisson;
    lcfg.arrival.ratePerSec = spec.coTenantRps;
    lcfg.seed = streamSeed(seed, 3);
    // The horizon covers training echoes, Step 1 and the scan window
    // with slack; Step 3 monitors windows the victim itself times.
    const Cycles horizon = secToCycles(4.0 * spec.scanTimeoutSec + 1.0);
    return std::make_unique<CoTenantLoad>(machine, lcfg, machine.now(),
                                          horizon);
}

void
maybeRecordTraffic(const ScenarioSpec &spec, TrialRecorder &rec,
                   const Victim &victim, const CoTenantLoad *load)
{
    if (!spec.trafficDomain())
        return;
    rec.metric("traffic_offered_rps",
               spec.victimArrival.active()
                   ? spec.victimArrival.ratePerSec
                   : 0.0);
    rec.metric("traffic_victim_arrivals",
               static_cast<double>(victim.arrivalCount()));
    rec.metric("traffic_queue_delay_cycles",
               victim.meanQueueDelayCycles());
    rec.metric("traffic_cotenant_accesses",
               load ? static_cast<double>(load->scheduledAccesses())
                    : 0.0);
    rec.metric("traffic_key_epochs",
               static_cast<double>(victim.keyEpoch()) + 1.0);
}

ExperimentResult
runScenario(const ScenarioSpec &spec, std::size_t trials,
            unsigned threads, std::uint64_t masterSeed)
{
    return runScenarios({&spec}, {trials}, threads, masterSeed).front();
}

std::vector<ExperimentResult>
runScenarios(const std::vector<const ScenarioSpec *> &specs,
             const std::vector<std::size_t> &trials, unsigned threads,
             std::uint64_t masterSeed)
{
    std::vector<ExperimentConfig> cfgs;
    std::vector<ExperimentRunner::TrialFn> fns;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ScenarioSpec &spec = *specs[i];
        ExperimentConfig cfg;
        cfg.name = spec.name;
        cfg.trials = trials[i] ? trials[i] : spec.defaultTrials;
        cfg.masterSeed = masterSeed;
        cfgs.push_back(std::move(cfg));
        fns.push_back([&spec](TrialContext &ctx, TrialRecorder &rec) {
            runScenarioTrial(spec, ctx, rec);
        });
    }
    return ExperimentRunner::runAll(cfgs, fns, threads);
}

} // namespace llcf
