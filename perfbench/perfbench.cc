/**
 * @file
 * Host-performance benchmark driver.
 *
 * Runs one named workload for a fixed host-time budget and writes a
 * result document with host wall time, trial counts, ground-truth
 * outcomes, simulated accesses and a digest of every simulated result
 * it produced.  perfbench/run.py builds this program, turns the
 * document into the benchmark's metrics and checks it.
 *
 * A workload runs in rounds.  A round is one call of the program's
 * real entry point on a registry cell — runScenario() for evset-cloud
 * and calib-tiny, KeyRecoveryCampaign::run() for fleet-fork and
 * blind-e2e — with masterSeed = streamSeed(--seed, round), in a
 * forked child process.  Rounds start until --seconds of host time
 * have passed.
 *
 * With --trace 1 the rounds instead run a copy of each entry point's
 * trial body, assembled from public calls and wrapped in spans (one
 * per layer, named after the src/ module that owns the call).  The
 * spans stay in memory and are written at exit.  The traced rounds
 * are then replayed untraced through the real entry point (shortest
 * first, at least one, as many as the time limit allows); their
 * results must be byte-identical, which proves the copy faithful, and
 * the wall-time difference is the tracing overhead.
 *
 * Every trial builds a fresh world (machine, attacker, candidate
 * pool), so the modelled caches start empty; fleet-fork victims fork
 * from one warmed world per worker and round.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "attack/e2e.hh"
#include "campaign/campaign.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/thread_pool.hh"
#include "scenario/registry.hh"
#include "scenario/scenario.hh"
#include "victim/victim.hh"

namespace llcf {
namespace {

/** Host monotonic time in seconds. */
double
hostSeconds()
{
    // detlint: allow(wallclock) -- host time is what this benchmark measures; it never reaches simulated state
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(t).count();
}

// ------------------------------------------------------------ spans

/** The span taxonomy: one name per layer boundary the trace wraps. */
enum Layer : unsigned {
    kTrial,    // one trial (eviction-set build or victim)
    kWorld,    // fleet-fork: one worker's warmed world
    kRig,      // ScenarioRig construction
    kCalib,    // runScenarioCalibration (Step 0)
    kTrain,    // trainScenarioClassifier
    kEvset,    // EvictionSetBuilder (Step 1)
    kScan,     // TargetSetScanner::scan (Step 2)
    kSnapshot, // Machine/AttackSession::snapshot
    kRestore,  // Machine/AttackSession::restore
    kKeygen,   // makeScenarioVictim (key generation)
    kServe,    // Victim::serveRequests (ECDSA signing)
    kMonitor,  // PrimeProbeMonitor::collectTrace (Step 3)
    kExtract,  // NonceExtractor::extract + score
    kLayerCount
};

constexpr const char *kLayerNames[kLayerCount] = {
    "trial",        "world",           "scenario.rig",
    "calib.calibrate", "ml.train",     "evset.build",
    "attack.scan",  "sim.snapshot",    "sim.snapshot_restore",
    "victim.keygen", "victim.serve",   "attack.monitor",
    "attack.extract",
};

/** Simulated-event counters read at a span boundary. */
struct SpanCounters
{
    std::int64_t accesses = 0;
    std::int64_t hits = 0;
    std::int64_t llcEvictions = 0;
    std::int64_t sfEvictions = 0;
    std::int64_t tests = 0; // TestEviction executions
};

SpanCounters
readCounters(const Machine *m, const AttackSession *s)
{
    SpanCounters c;
    if (m) {
        const PerfCounters pc = m->perfCounters();
        c.accesses = static_cast<std::int64_t>(pc.accesses);
        c.hits = static_cast<std::int64_t>(pc.hits);
        c.llcEvictions = static_cast<std::int64_t>(pc.llc.evictions);
        c.sfEvictions = static_cast<std::int64_t>(pc.sf.evictions);
    }
    if (s)
        c.tests = static_cast<std::int64_t>(s->testCount());
    return c;
}

/** One closed span.  Counters are deltas over the span. */
struct SpanRecord
{
    Layer layer = kTrial;
    std::int64_t trial = -1;  // round-local trial index; -1 = none
    std::int64_t round = 0;
    std::int64_t parent = -1; // index in the same thread's buffer
    unsigned thread = 0;
    double start = 0.0;
    double end = 0.0;
    SpanCounters delta;
    double items = 0.0; // layer work units (sets scanned, requests...)
    double ok = 0.0;    // useful outcomes among items
};

/** Per-thread span buffers, merged when the run ends. */
class Tracer
{
  public:
    struct Buffer
    {
        unsigned thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<std::int64_t> open; // stack of open span indices
    };

    /** The calling thread's buffer (created on first use). */
    Buffer &
    local()
    {
        thread_local Buffer *mine = nullptr;
        if (!mine) {
            std::lock_guard<std::mutex> g(mutex_);
            buffers_.push_back(std::make_unique<Buffer>());
            mine = buffers_.back().get();
            mine->thread = static_cast<unsigned>(buffers_.size() - 1);
        }
        return *mine;
    }

    /** Take over spans recorded by another process. */
    void
    adopt(std::vector<SpanRecord> spans)
    {
        auto buf = std::make_unique<Buffer>();
        buf->thread = static_cast<unsigned>(buffers_.size());
        for (SpanRecord &r : spans)
            r.thread = buf->thread;
        buf->spans = std::move(spans);
        buffers_.push_back(std::move(buf));
    }

    /** All buffers; call only after every traced thread joined. */
    const std::vector<std::unique_ptr<Buffer>> &
    buffers() const
    {
        return buffers_;
    }

    std::int64_t round = 0; // round the spans being opened belong to

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer tracer;

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Layer layer, std::int64_t trial, const Machine *m = nullptr,
         const AttackSession *s = nullptr)
        : buf_(tracer.local()), m_(m), s_(s)
    {
        SpanRecord r;
        r.layer = layer;
        r.trial = trial;
        r.round = tracer.round;
        r.parent = buf_.open.empty() ? -1 : buf_.open.back();
        r.thread = buf_.thread;
        before_ = readCounters(m_, s_);
        index_ = static_cast<std::int64_t>(buf_.spans.size());
        buf_.spans.push_back(r);
        buf_.open.push_back(index_);
        buf_.spans.back().start = hostSeconds();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach counters to a span opened before its world existed.
     *  They cover everything since construction, or, with @p rebase,
     *  everything from this call on. */
    void
    bind(const Machine *m, const AttackSession *s, bool rebase = false)
    {
        m_ = m;
        s_ = s;
        if (rebase)
            before_ = readCounters(m_, s_);
    }

    void
    work(double items, double ok = 0.0)
    {
        SpanRecord &r = buf_.spans[static_cast<std::size_t>(index_)];
        r.items += items;
        r.ok += ok;
    }

    ~Span()
    {
        const double end = hostSeconds();
        const SpanCounters after = readCounters(m_, s_);
        SpanRecord &r = buf_.spans[static_cast<std::size_t>(index_)];
        r.end = end;
        r.delta.accesses = after.accesses - before_.accesses;
        r.delta.hits = after.hits - before_.hits;
        r.delta.llcEvictions = after.llcEvictions - before_.llcEvictions;
        r.delta.sfEvictions = after.sfEvictions - before_.sfEvictions;
        r.delta.tests = after.tests - before_.tests;
        buf_.open.pop_back();
    }

  private:
    Tracer::Buffer &buf_;
    const Machine *m_;
    const AttackSession *s_;
    SpanCounters before_;
    std::int64_t index_ = 0;
};

// ------------------------------------------------------- rounds

/** What one round (one entry-point call) produced. */
struct Round
{
    std::uint64_t masterSeed = 0;
    std::size_t trials = 0;
    std::size_t successes = 0; // ground truth: valid set / key
    double accesses = 0.0;     // simulated demand accesses of trials
    double wall = 0.0;
    std::string json;          // the entry point's result entry
    bool ok = true;            // structural output checks
    bool aborted = false;      // the program ended the round's process
    std::string why;           // first failed check
};

void
check(Round &r, bool cond, const char *what)
{
    if (!cond && r.ok) {
        r.ok = false;
        r.why = what;
    }
}

std::uint64_t
fnv1a(std::uint64_t h, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// ---------------------------------------------- scenario rounds

/**
 * runEvsetBuildTrial / runCalibrateTrial (src/scenario/scenario.cc)
 * assembled from public calls, with spans.  Valid for undefended
 * cells; only calibration cells are blind.
 */
void
tracedScenarioTrial(const ScenarioSpec &spec, TrialContext &ctx,
                    TrialRecorder &rec)
{
    const auto t = static_cast<std::int64_t>(ctx.index);
    // Declared before the trial span, which reads the rig's machine
    // when it closes.
    std::unique_ptr<ScenarioRig> rig;
    Span trial(kTrial, t);
    {
        Span s(kRig, t);
        rig = std::make_unique<ScenarioRig>(spec, ctx.seed);
        s.bind(&rig->machine, rig->session.get());
    }
    trial.bind(&rig->machine, rig->session.get());
    if (spec.stage == ScenarioStage::Calibrate) {
        CalibratedTopology calib;
        CalibrationReport report;
        {
            Span s(kCalib, t, &rig->machine, rig->session.get());
            calib = runScenarioCalibration(spec, *rig);
            report = compareToOracle(calib, rig->machine.config());
            s.work(1.0, report.allMatch ? 1.0 : 0.0);
        }
        recordCalibration(rec, calib, report);
        recordPerfCounters(rec, rig->machine.perfCounters());
        return;
    }
    const std::size_t i = ctx.index;
    auto cands = rig->pool->candidatesAt(
        static_cast<unsigned>((3 * i) % kLinesPerPage));
    const Addr ta = cands[i % cands.size()];
    cands.erase(cands.begin() + static_cast<long>(i % cands.size()));

    EvictionSetBuilder builder(*rig->session, spec.algo, spec.useFilter);
    BuildOutcome out;
    {
        Span s(kEvset, t, &rig->machine, rig->session.get());
        out = builder.buildForTarget(ta, std::move(cands));
        s.work(1.0, out.success && out.groundTruthValid ? 1.0 : 0.0);
    }
    rec.outcome("success", out.success && out.groundTruthValid);
    rec.metric("build_cycles", static_cast<double>(out.elapsed));
    rec.metric("attempts", static_cast<double>(out.attempts));
    recordPerfCounters(rec, rig->machine.perfCounters());
}

/** One runScenario call (evset-cloud, calib-tiny).  The ground-truth
 *  outcome is a valid eviction set, or a calibration matching the
 *  true topology. */
Round
scenarioRound(const ScenarioSpec &spec, std::size_t trials,
              unsigned threads, std::uint64_t masterSeed, bool traced)
{
    Round r;
    r.masterSeed = masterSeed;
    r.trials = trials;
    const double t0 = hostSeconds();
    ExperimentResult res;
    if (traced) {
        ExperimentConfig cfg;
        cfg.name = spec.name;
        cfg.trials = trials;
        cfg.threads = threads;
        cfg.masterSeed = masterSeed;
        res = ExperimentRunner(cfg).run(
            [&spec](TrialContext &ctx, TrialRecorder &rec) {
                tracedScenarioTrial(spec, ctx, rec);
            });
    } else {
        res = runScenario(spec, trials, threads, masterSeed);
    }
    r.wall = hostSeconds() - t0;

    JsonWriter w;
    res.writeJson(w);
    r.json = w.str();
    const SuccessRate *success = res.outcome(
        spec.stage == ScenarioStage::Calibrate ? "topology_match"
                                               : "success");
    const SampleStats *acc = res.metric("pc_accesses");
    check(r, res.trials() == trials, "trial count");
    check(r, success && success->trials() == trials,
          "a trial recorded no ground-truth outcome");
    check(r, acc && acc->count() == trials && acc->sum() > 0.0,
          "no simulated accesses recorded");
    r.successes = success ? success->successes() : 0;
    r.accesses = acc ? acc->sum() : 0.0;
    return r;
}

// --------------------------------------------- campaign copies

/** Sub-streams of a victim trial's seed (src/campaign/campaign.cc). */
constexpr std::uint64_t kProductionVictim = 0;
constexpr std::uint64_t kTrainingReplica = 1;
constexpr std::uint64_t kWorldStream = 0xFFFFFFFFFFFFFFFFull;

E2EParams
paramsFor(const ScenarioSpec &spec)
{
    E2EParams p;
    p.algo = spec.algo;
    p.useFilter = spec.useFilter;
    p.tracesPerVictim = spec.tracesPerVictim;
    p.scanner.timeout = secToCycles(spec.scanTimeoutSec);
    return p;
}

std::unique_ptr<Victim>
tracedVictim(const ScenarioSpec &spec, Machine &m, std::uint64_t seed,
             unsigned line_index, std::uint64_t quota, std::int64_t t)
{
    Span s(kKeygen, t, &m);
    return makeScenarioVictim(spec, m, seed, line_index, quota);
}

std::vector<Victim::Execution>
tracedServe(Victim &victim, Machine &m, Cycles start, std::size_t n,
            std::int64_t t)
{
    Span s(kServe, t, &m);
    auto execs = victim.serveRequests(start, n);
    s.work(static_cast<double>(execs.size()));
    return execs;
}

/** EndToEndAttack::collectTraces (ECDSA family) with spans. */
void
tracedCollectTraces(AttackSession &session, Victim &victim,
                    const NonceExtractor &extractor,
                    const E2EParams &params, const BuiltEvictionSet &evset,
                    E2EResult &res, std::int64_t t)
{
    Machine &m = session.machine();
    const Cycles tail_slack = extractor.params().minIteration / 2;
    for (unsigned i = 0; i < params.tracesPerVictim; ++i) {
        auto execs = tracedServe(victim, m, m.now() + 1000, 1, t);
        if (execs.empty()) {
            warn("e2e: victim produced no execution for request "
                 "%u/%u; returning a partial result",
                 i + 1, params.tracesPerVictim);
            break;
        }
        const auto &exec = execs[0];
        std::vector<Cycles> detections;
        {
            Span s(kMonitor, t, &m, &session);
            auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                                   session, evset.sfSet);
            if (exec.ladderStart > m.now())
                m.idle(exec.ladderStart - m.now());
            detections = monitor->collectTrace(exec.ladderEnd + tail_slack);
            m.clearStreams();
        }
        ExtractionScore sc;
        {
            Span s(kExtract, t);
            sc = extractor.score(extractor.extract(detections), exec);
            s.work(1.0, sc.recoveredFraction());
        }
        ++res.tracesCollected;
        res.recoveredFraction.add(sc.recoveredFraction());
        if (sc.recoveredBits > 0)
            res.bitErrorRate.add(sc.bitErrorRate());
        res.traceRecords.push_back({exec.keyEpoch, sc.recoveredFraction(),
                                    sc.recoveredBits > 0,
                                    sc.bitErrorRate()});
    }
}

/** recordVictimResult (src/campaign/campaign.cc), no key rotation. */
void
recordVictim(const ScenarioSpec &spec, TrialRecorder &rec,
             const E2EResult &res, Cycles totalCycles)
{
    rec.outcome("evsets_built", res.evsetsBuilt);
    rec.outcome("target_found", res.targetFound);
    rec.outcome("target_correct", res.targetCorrect);
    const bool recovered =
        res.targetCorrect && !res.recoveredFraction.empty() &&
        !res.bitErrorRate.empty() &&
        res.recoveredFraction.mean() >= spec.keyMinRecoveredFraction &&
        res.bitErrorRate.mean() <= spec.keyMaxBitErrorRate;
    rec.outcome("key_recovered", recovered);
    rec.metric("build_cycles", static_cast<double>(res.buildTime));
    rec.metric("scan_cycles", static_cast<double>(res.scanTime));
    rec.metric("extract_cycles", static_cast<double>(res.extractTime));
    rec.metric("total_cycles", static_cast<double>(totalCycles));
    rec.metric("traces_collected",
               static_cast<double>(res.tracesCollected));
    for (double v : res.recoveredFraction.samples())
        rec.metric("recovered_fraction", v);
    for (double v : res.bitErrorRate.samples())
        rec.metric("bit_error_rate", v);
}

/** recordFailedVictim (src/campaign/campaign.cc). */
void
recordFailed(TrialRecorder &rec, Cycles totalCycles)
{
    rec.outcome("evsets_built", false);
    rec.outcome("target_found", false);
    rec.outcome("target_correct", false);
    rec.outcome("key_recovered", false);
    rec.metric("build_cycles", 0.0);
    rec.metric("scan_cycles", 0.0);
    rec.metric("extract_cycles", 0.0);
    rec.metric("total_cycles", static_cast<double>(totalCycles));
    rec.metric("traces_collected", 0.0);
}

/** CampaignWorld (src/campaign/campaign.cc) for non-blind cells: the
 *  fork path's warmed world with spans, or, with @p forkPointOnly,
 *  untraced and stopped at the snapshot. */
struct World
{
    World(const ScenarioSpec &s, std::uint64_t masterSeed,
          bool forkPointOnly);

    ScenarioSpec spec;
    std::unique_ptr<ScenarioRig> rig;
    TraceClassifier classifier;
    NonceExtractor extractor;
    E2EParams params;
    BuiltEvictionSet evset;
    Machine::Snapshot machineSnap;
    AttackSession::Snapshot sessionSnap;
    bool scanOk = false;
    Cycles warmupCycles = 0;
};

World::World(const ScenarioSpec &s, std::uint64_t masterSeed,
             bool forkPointOnly)
    : spec(s), params(paramsFor(s))
{
    const bool traced = !forkPointOnly;
    std::unique_ptr<Span> root;
    if (traced)
        root = std::make_unique<Span>(kWorld, -1);
    auto span = [traced](Layer l, const Machine *m = nullptr,
                         const AttackSession *a = nullptr) {
        return traced ? std::make_unique<Span>(l, -1, m, a) : nullptr;
    };
    {
        auto sp = span(kRig);
        rig = std::make_unique<ScenarioRig>(
            spec, streamSeed(masterSeed, kWorldStream));
    }
    Machine &m = rig->machine;
    AttackSession &session = *rig->session;
    if (root)
        root->bind(&m, &session);

    const unsigned lineIndex = spec.fleetLineIndexBase % kLinesPerPage;
    std::unique_ptr<Victim> replica;
    {
        auto sp = span(kKeygen, &m);
        replica = makeScenarioVictim(
            spec, m, streamSeed(rig->victimSeed(), kTrainingReplica),
            lineIndex, 0);
    }
    {
        auto sp = span(kTrain, &m, &session);
        classifier = trainScenarioClassifier(spec, *rig, *replica);
    }
    EvictionSetBuilder builder(session, spec.algo, spec.useFilter);
    BulkOutcome built;
    {
        auto sp = span(kEvset, &m, &session);
        built = builder.buildAtLineIndex(*rig->pool, lineIndex);
        if (sp)
            sp->work(built.expectedSets, built.validSets);
    }
    if (built.evsets.empty()) {
        warmupCycles = m.now();
        return;
    }
    {
        auto sp = span(kSnapshot);
        machineSnap = m.snapshot();
        sessionSnap = session.snapshot();
    }
    if (forkPointOnly)
        return;
    std::unique_ptr<Victim> scanVictim;
    {
        auto sp = span(kKeygen, &m);
        scanVictim = makeScenarioVictim(
            spec, m, streamSeed(rig->victimSeed(), kProductionVictim),
            lineIndex, 0);
    }
    {
        auto sp = span(kServe, &m);
        auto execs = scanVictim->serveRequests(
            m.now(),
            EndToEndAttack::scanRequestCount(*scanVictim, params.scanner));
        if (sp)
            sp->work(static_cast<double>(execs.size()));
    }
    ScanResult scan;
    {
        auto sp = span(kScan, &m, &session);
        TargetSetScanner scanner(session, classifier);
        scan = scanner.scan(built.evsets);
        if (sp)
            sp->work(scan.setsScanned);
    }
    m.clearStreams();
    warmupCycles = m.now();
    if (!scan.found)
        return;
    evset = built.evsets[scan.evsetIndex];
    scanOk = true;
}

std::atomic<std::uint64_t> worldToken{0};

/** This worker's world for round @p token (workerWorld's copy). */
World &
workerWorld(const ScenarioSpec &spec, std::uint64_t masterSeed,
            std::uint64_t token)
{
    struct Slot
    {
        std::uint64_t token = 0;
        std::unique_ptr<World> world;
    };
    thread_local Slot slot;
    if (slot.token != token || !slot.world) {
        slot.world.reset();
        slot.world = std::make_unique<World>(spec, masterSeed, false);
        slot.token = token;
    }
    return *slot.world;
}

/** runForkedVictimTrial (src/campaign/campaign.cc) with spans. */
void
tracedForkedVictim(World &world, const ScenarioSpec &spec,
                   TrialContext &ctx, TrialRecorder &rec)
{
    const auto t = static_cast<std::int64_t>(ctx.index);
    if (!world.scanOk) {
        recordFailed(rec, 0);
        if (ctx.index == 0)
            rec.metric("warmup_cycles",
                       static_cast<double>(world.warmupCycles));
        return;
    }
    Machine &m = world.rig->machine;
    AttackSession &session = *world.rig->session;
    Span trial(kTrial, t);
    {
        Span s(kRestore, t);
        m.restore(world.machineSnap);
        session.restore(world.sessionSnap);
    }
    // The restore rewinds the counters to the fork point.
    trial.bind(&m, &session, true);
    const Cycles start = m.now();
    auto victim = tracedVictim(
        spec, m, streamSeed(ctx.seed, kProductionVictim),
        spec.fleetLineIndexBase % kLinesPerPage, spec.victimRequestQuota,
        t);

    // EndToEndAttack::runFromScan.
    E2EResult res;
    res.evsetsBuilt = true;
    res.targetFound = true;
    res.targetCorrect = m.sharedSetOf(world.evset.target) ==
                        m.sharedSetOf(victim->targetLinePa());
    const Cycles t0 = m.now();
    tracedCollectTraces(session, *victim, world.extractor, world.params,
                        world.evset, res, t);
    res.extractTime = m.now() - t0;

    recordVictim(spec, rec, res, m.now() - start);
    maybeRecordTraffic(spec, rec, *victim, nullptr);
    recordPerfCounters(rec, m.perfCounters());
    if (ctx.index == 0)
        rec.metric("warmup_cycles",
                   static_cast<double>(world.warmupCycles));
}

/** runCampaignVictimTrial + EndToEndAttack::run with spans. */
void
tracedRebuildVictim(const ScenarioSpec &spec, TrialContext &ctx,
                    TrialRecorder &rec)
{
    const auto t = static_cast<std::int64_t>(ctx.index);
    const unsigned lineIndex = static_cast<unsigned>(
        (spec.fleetLineIndexBase +
         static_cast<std::uint64_t>(spec.fleetLineIndexStep) * ctx.index) %
        kLinesPerPage);
    std::unique_ptr<ScenarioRig> rig; // outlives the trial span
    Span trial(kTrial, t);
    {
        Span s(kRig, t);
        rig = std::make_unique<ScenarioRig>(spec, ctx.seed);
        s.bind(&rig->machine, rig->session.get());
    }
    Machine &m = rig->machine;
    AttackSession &session = *rig->session;
    trial.bind(&m, &session);

    Cycles calibCycles = 0;
    if (spec.blind()) {
        CalibratedTopology calib;
        {
            Span s(kCalib, t, &m, &session);
            calib = runScenarioCalibration(spec, *rig);
        }
        recordCalibration(rec, calib, compareToOracle(calib, m.config()));
        calibCycles = calib.cycles;
        if (!calib.valid) {
            recordFailed(rec, calibCycles);
            recordPerfCounters(rec, m.perfCounters());
            return;
        }
    }
    auto victim = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kProductionVictim),
        lineIndex, spec.victimRequestQuota, t);
    maybeArmScenarioWatchdog(m, *victim);
    auto replica = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kTrainingReplica),
        lineIndex, 0, t);
    TraceClassifier classifier;
    {
        Span s(kTrain, t, &m, &session);
        classifier = trainScenarioClassifier(spec, *rig, *replica);
    }
    auto load = makeScenarioLoad(spec, m, rig->victimSeed());
    NonceExtractor extractor;
    const E2EParams params = paramsFor(spec);

    // EndToEndAttack::run.
    E2EResult res;
    Cycles c0 = m.now();
    BulkOutcome built;
    {
        Span s(kEvset, t, &m, &session);
        EvictionSetBuilder builder(session, params.algo, params.useFilter);
        built = builder.buildAtLineIndex(*rig->pool,
                                         victim->targetLineIndex());
        s.work(built.expectedSets, built.validSets);
    }
    res.buildTime = m.now() - c0;
    if (!built.evsets.empty()) {
        res.evsetsBuilt = true;
        c0 = m.now();
        tracedServe(*victim, m, m.now(),
                    EndToEndAttack::scanRequestCount(*victim,
                                                     params.scanner),
                    t);
        ScanResult scan;
        {
            Span s(kScan, t, &m, &session);
            TargetSetScanner scanner(session, classifier);
            scan = scanner.scan(built.evsets);
            s.work(scan.setsScanned);
        }
        res.scanTime = m.now() - c0;
        m.clearStreams();
        if (scan.found) {
            res.targetFound = true;
            res.targetCorrect =
                m.sharedSetOf(built.evsets[scan.evsetIndex].target) ==
                m.sharedSetOf(victim->targetLinePa());
            c0 = m.now();
            tracedCollectTraces(session, *victim, extractor, params,
                                built.evsets[scan.evsetIndex], res, t);
            res.extractTime = m.now() - c0;
        }
    }
    recordVictim(spec, rec, res, res.totalTime() + calibCycles);
    maybeRecordTraffic(spec, rec, *victim, load.get());
    recordPerfCounters(rec, m.perfCounters());
}

/** KeyRecoveryCampaign::run's shard loop over the traced bodies. */
CampaignResult
tracedCampaign(const ScenarioSpec &spec, std::size_t fleet,
               unsigned threads, std::uint64_t masterSeed)
{
    CampaignResult out;
    out.name = spec.name;
    out.trials = fleet;
    out.masterSeed = masterSeed;
    out.threadsUsed = threads;
    const std::uint64_t token = ++worldToken;
    ThreadPool pool(threads);
    for (std::size_t next = 0; next < fleet;) {
        const std::size_t end = std::min(fleet, next + kCampaignShardTrials);
        std::vector<TrialRecorder> slots(end - next);
        pool.parallelFor(end - next, [&, next](std::size_t i) {
            const std::size_t trial = next + i;
            TrialContext ctx{trial, streamSeed(masterSeed, trial),
                             Rng::forStream(masterSeed, trial)};
            if (spec.forkVictims) {
                World &w = workerWorld(spec, masterSeed, token);
                tracedForkedVictim(w, spec, ctx, slots[i]);
            } else {
                tracedRebuildVictim(spec, ctx, slots[i]);
            }
        });
        for (const TrialRecorder &slot : slots)
            out.aggregate.fold(slot);
        next = end;
    }
    out.summary = summarizeCampaign(out.aggregate);
    return out;
}

/** Accesses a forked victim's counters inherit from the snapshot. */
double
forkPointAccesses(const ScenarioSpec &spec, std::uint64_t masterSeed)
{
    const World w(spec, masterSeed, true);
    // perfCounters() derives accesses from the machine stats.
    return static_cast<double>(w.machineSnap.stats.loads +
                               w.machineSnap.stats.stores);
}

Round
campaignRound(const ScenarioSpec &spec, std::size_t fleet,
              unsigned threads, std::uint64_t masterSeed, bool traced)
{
    Round r;
    r.masterSeed = masterSeed;
    r.trials = fleet;
    const double t0 = hostSeconds();
    const CampaignResult res =
        traced ? tracedCampaign(spec, fleet, threads, masterSeed)
               : KeyRecoveryCampaign(spec).run(fleet, threads, masterSeed);
    r.wall = hostSeconds() - t0;

    JsonWriter w;
    res.writeJson(w);
    r.json = w.str();
    const SuccessRate *keys = res.aggregate.outcome("key_recovered");
    const StreamingStats *acc = res.aggregate.metric("pc_accesses");
    check(r, res.aggregate.trials() == fleet && res.summary.fleet == fleet,
          "fleet size");
    check(r, keys && keys->trials() == fleet,
          "a victim recorded no key_recovered outcome");
    check(r, res.summary.keysRecovered <= fleet, "keys > fleet");
    // A fork-path round whose warm-up found no target set records
    // every victim as failed, without counters.
    check(r, acc ? acc->sum() > 0.0 : res.summary.keysRecovered == 0,
          "no simulated accesses recorded");
    r.successes = res.summary.keysRecovered;
    r.accesses = acc ? acc->sum() : 0.0;
    if (spec.forkVictims && acc) {
        // Forked victims restore the snapshot's counters; count only
        // the accesses each victim made itself.
        const double inherited = forkPointAccesses(spec, masterSeed);
        check(r, inherited <= acc->min(), "fork-point accesses");
        r.accesses -= inherited * static_cast<double>(acc->count());
    }
    return r;
}

// ------------------------------------------------------- workloads

/** Fewest rounds an untraced, time-bounded run takes. */
constexpr std::size_t kMinRounds = 4;

/** A traced run stops replaying rounds once it would pass this many
 *  host seconds, staying clear of the benchmark's 180 s run limit. */
constexpr double kReplayLimitS = 130.0;

/** One benchmark workload: a registry cell and its round shape. */
struct Workload
{
    const char *name;
    const char *cell;
    std::size_t roundTrials; // trials (or victims) per round
};

// Round sizes keep a round short against the run budget while giving
// every worker several trials per round (see perfbench/README.md).
constexpr Workload kWorkloads[] = {
    {"evset-cloud", "build-bins-skl-lru-cloud", 64},
    {"fleet-fork", "campaign-fork-tiny-silent-96", 256},
    {"calib-tiny", "calib-tiny-lru-silent", 512},
    {"blind-e2e", "campaign-blind-skl-quiet-2", 8},
};

Round
runRound(const Workload &wl, const ScenarioSpec &spec, unsigned threads,
         std::uint64_t masterSeed, bool traced)
{
    return spec.stage == ScenarioStage::Campaign
               ? campaignRound(spec, wl.roundTrials, threads, masterSeed,
                               traced)
               : scenarioRound(spec, wl.roundTrials, threads, masterSeed,
                               traced);
}

/** Fatal when a cell no longer has the shape the traced copies of
 *  its trial body assume. */
void
checkCellShape(const ScenarioSpec &spec)
{
    const bool ok =
        !spec.defense.active() && !spec.defense.recordsMetrics() &&
        !spec.trafficDomain() && spec.coTenants == 0 &&
        spec.rotateKeys == 0 &&
        (spec.stage == ScenarioStage::Campaign
             ? spec.fleetNoises.empty() &&
                   !(spec.forkVictims && spec.blind())
             : spec.stage == ScenarioStage::Calibrate ||
                   (spec.stage == ScenarioStage::EvsetBuild &&
                    !spec.blind()));
    if (!ok)
        fatal("perfbench: cell '%s' changed shape; update the traced "
              "trial bodies in perfbench.cc",
              spec.name.c_str());
}

// ------------------------------------------------------ isolation

/** Length-prefixed byte stream between a round's child and parent. */
class Wire
{
  public:
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes_.append(reinterpret_cast<const char *>(&v), sizeof v);
    }

    void
    putString(const std::string &s)
    {
        put<std::uint64_t>(s.size());
        bytes_ += s;
    }

    template <typename T>
    bool
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (bytes_.size() - pos_ < sizeof v)
            return false;
        std::memcpy(&v, bytes_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint64_t n = 0;
        if (!get(n) || bytes_.size() - pos_ < n)
            return false;
        s.assign(bytes_, pos_, n);
        pos_ += n;
        return true;
    }

    std::string bytes_;

  private:
    std::size_t pos_ = 0;
};

/**
 * Run @p fn in a forked child and return the bytes it produced, or
 * nothing when the child did not exit cleanly.  The program reports
 * some conditions with fatal(), which ends the process; isolation
 * turns that into one failed operation instead of a lost run.  Call
 * only while this process runs no other thread.
 */
std::optional<std::string>
isolated(const std::function<std::string()> &fn)
{
    int fds[2];
    if (pipe(fds) != 0)
        fatal("perfbench: pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0)
        fatal("perfbench: fork failed");
    if (pid == 0) {
        close(fds[0]);
        const std::string out = fn();
        std::size_t done = 0;
        while (done < out.size()) {
            const ssize_t k =
                write(fds[1], out.data() + done, out.size() - done);
            if (k < 0 && errno == EINTR)
                continue;
            if (k <= 0)
                _exit(3);
            done += static_cast<std::size_t>(k);
        }
        std::fflush(stdout);
        _exit(0);
    }
    close(fds[1]);
    std::string in;
    char buf[1 << 16];
    for (;;) {
        const ssize_t k = read(fds[0], buf, sizeof buf);
        if (k < 0 && errno == EINTR)
            continue;
        if (k <= 0)
            break;
        in.append(buf, static_cast<std::size_t>(k));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return in;
}

/**
 * One round in a child process.  The child sends the round and the
 * spans it recorded; a child that died yields a round whose trials
 * all count as failed.
 */
Round
isolatedRound(const Workload &wl, const ScenarioSpec &spec,
              unsigned threads, std::uint64_t masterSeed, bool traced)
{
    const double t0 = hostSeconds();
    const auto bytes = isolated([&] {
        const std::size_t firstBuffer = tracer.buffers().size();
        const Round r = runRound(wl, spec, threads, masterSeed, traced);
        Wire w;
        w.put(r.trials);
        w.put(r.successes);
        w.put(r.accesses);
        w.put(r.wall);
        w.put(r.ok);
        w.putString(r.json);
        w.putString(r.why);
        const auto &bufs = tracer.buffers();
        w.put<std::uint64_t>(bufs.size() - firstBuffer);
        for (std::size_t b = firstBuffer; b < bufs.size(); ++b) {
            w.put<std::uint64_t>(bufs[b]->spans.size());
            for (const SpanRecord &rec : bufs[b]->spans)
                w.put(rec);
        }
        return std::move(w.bytes_);
    });
    Round r;
    r.masterSeed = masterSeed;
    if (bytes) {
        Wire w;
        w.bytes_ = *bytes;
        std::uint64_t nbuf = 0;
        bool ok = w.get(r.trials) && w.get(r.successes) &&
                  w.get(r.accesses) && w.get(r.wall) && w.get(r.ok) &&
                  w.getString(r.json) && w.getString(r.why) && w.get(nbuf);
        for (std::uint64_t b = 0; ok && b < nbuf; ++b) {
            std::uint64_t n = 0;
            ok = w.get(n);
            std::vector<SpanRecord> spans(ok ? n : 0);
            for (SpanRecord &rec : spans)
                ok = ok && w.get(rec);
            if (ok)
                tracer.adopt(std::move(spans));
        }
        if (ok)
            return r;
        r = Round{};
        r.masterSeed = masterSeed;
    }
    // The child died: every trial of the round failed.
    r.trials = wl.roundTrials;
    r.aborted = true;
    r.wall = hostSeconds() - t0;
    return r;
}

/**
 * Host seconds of set-up, several samples; a sample whose child died
 * is left out and counted in @p aborted.  fleet-fork: a campaign with
 * one victim per worker (each worker warms its world).  The rebuild
 * workloads have no one-time set-up, because every trial first builds
 * its own world, so their sample is one ScenarioRig construction.
 */
std::vector<double>
measureSetup(const ScenarioSpec &spec, unsigned threads,
             std::uint64_t seed, std::size_t &aborted)
{
    constexpr std::uint64_t kSetupStream = 0x5e7u;
    const bool fork = spec.stage == ScenarioStage::Campaign &&
                      spec.forkVictims;
    const unsigned samples = fork ? 3 : 31;
    std::vector<double> out;
    aborted = 0;
    for (unsigned i = 0; i < samples; ++i) {
        const std::uint64_t s =
            streamSeed(streamSeed(seed, kSetupStream), i);
        const auto bytes = isolated([&] {
            const double t0 = hostSeconds();
            if (fork)
                KeyRecoveryCampaign(spec).run(threads, threads, s);
            else
                ScenarioRig rig(spec, s);
            Wire w;
            w.put(hostSeconds() - t0);
            return std::move(w.bytes_);
        });
        Wire w;
        double t = 0.0;
        if (bytes) {
            w.bytes_ = *bytes;
        }
        if (bytes && w.get(t))
            out.push_back(t);
        else
            ++aborted;
    }
    return out;
}

// ------------------------------------------------------- output

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Per-layer aggregates over the merged span buffers. */
void
writeLayers(JsonWriter &w, std::vector<double> &rootDurations,
            double &busy)
{
    struct Agg
    {
        double self = 0.0, total = 0.0, items = 0.0, ok = 0.0;
        std::uint64_t spans = 0;
        SpanCounters self_c;
    };
    Agg agg[kLayerCount];
    busy = 0.0;
    for (const auto &buf : tracer.buffers()) {
        const auto &spans = buf->spans;
        std::vector<double> childTime(spans.size(), 0.0);
        std::vector<SpanCounters> childC(spans.size());
        for (const SpanRecord &s : spans) {
            if (s.parent < 0)
                continue;
            const auto p = static_cast<std::size_t>(s.parent);
            childTime[p] += s.end - s.start;
            childC[p].accesses += s.delta.accesses;
            childC[p].hits += s.delta.hits;
            childC[p].llcEvictions += s.delta.llcEvictions;
            childC[p].sfEvictions += s.delta.sfEvictions;
            childC[p].tests += s.delta.tests;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &s = spans[i];
            Agg &a = agg[s.layer];
            const double dur = s.end - s.start;
            a.total += dur;
            a.self += dur - childTime[i];
            a.items += s.items;
            a.ok += s.ok;
            ++a.spans;
            // A restore rewinds the counters; it does no simulated work.
            if (s.layer != kRestore) {
                a.self_c.accesses += s.delta.accesses - childC[i].accesses;
                a.self_c.hits += s.delta.hits - childC[i].hits;
                a.self_c.llcEvictions +=
                    s.delta.llcEvictions - childC[i].llcEvictions;
                a.self_c.sfEvictions +=
                    s.delta.sfEvictions - childC[i].sfEvictions;
                a.self_c.tests += s.delta.tests - childC[i].tests;
            }
            if (s.parent < 0) {
                busy += dur;
                if (s.layer == kTrial)
                    rootDurations.push_back(dur);
            }
        }
    }
    w.key("layers").beginObject();
    for (unsigned l = 0; l < kLayerCount; ++l) {
        const Agg &a = agg[l];
        w.key(kLayerNames[l]).beginObject();
        w.member("spans", a.spans);
        w.member("self_s", a.self);
        w.member("total_s", a.total);
        w.member("accesses", a.self_c.accesses);
        w.member("hits", a.self_c.hits);
        w.member("llc_evictions", a.self_c.llcEvictions);
        w.member("sf_evictions", a.self_c.sfEvictions);
        w.member("tests", a.self_c.tests);
        w.member("items", a.items);
        w.member("ok", a.ok);
        w.endObject();
    }
    w.endObject();
}

/** Raw spans as Chrome trace events (microseconds from run start). */
bool
writeTraceEvents(const std::string &path, double origin)
{
    std::ofstream f(path);
    if (!f)
        return false;
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const auto &buf : tracer.buffers()) {
        for (const SpanRecord &s : buf->spans) {
            w.beginObject();
            w.member("name", kLayerNames[s.layer]);
            w.member("ph", "X");
            w.member("pid", std::uint64_t{1});
            w.member("tid", static_cast<std::uint64_t>(s.thread));
            w.member("ts", (s.start - origin) * 1e6);
            w.member("dur", (s.end - s.start) * 1e6);
            w.key("args").beginObject();
            w.member("round", s.round);
            w.member("trial", s.trial);
            w.member("parent", s.parent);
            w.member("accesses", s.delta.accesses);
            w.member("tests", s.delta.tests);
            w.member("items", s.items);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    f << w.str() << '\n';
    return static_cast<bool>(f);
}

/** Peak resident set of this process and of the largest round or
 *  set-up child it waited for. */
double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned threads = 4;
    bool trace = false;
    std::size_t rounds = 0; // fixed round count (0 = time-bounded)
    std::size_t roundTrials = 0; // 0 = the workload's round size
    bool setup = true;
    std::string out;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload=NAME --seed=N --out=FILE\n"
                 "         [--seconds=S] [--threads=T] [--trace=0|1]\n"
                 "         [--rounds=R] [--round-trials=N] [--setup=0|1]\n"
                 "workloads: evset-cloud fleet-fork blind-e2e\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage(("bad argument: " + arg).c_str());
        const std::string key = arg.substr(2, eq - 2);
        const std::string val = arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "workload" || key == "out") {
            (key == "workload" ? a.workload : a.out) = val;
            continue;
        }
        const double num = std::strtod(val.c_str(), &end);
        if (val.empty() || *end != '\0' || num < 0)
            usage(("bad value: " + arg).c_str());
        if (key == "seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "seconds")
            a.seconds = num;
        else if (key == "threads")
            a.threads = static_cast<unsigned>(num);
        else if (key == "trace")
            a.trace = num != 0;
        else if (key == "rounds")
            a.rounds = static_cast<std::size_t>(num);
        else if (key == "round-trials")
            a.roundTrials = static_cast<std::size_t>(num);
        else if (key == "setup")
            a.setup = num != 0;
        else
            usage(("unknown option: " + arg).c_str());
    }
    if (a.workload.empty() || a.out.empty() || a.threads == 0)
        usage("--workload, --out and a positive --threads are required");
    return a;
}

int
benchMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::optional<Workload> wl;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wl = w;
    if (!wl)
        usage(("unknown workload: " + args.workload).c_str());
    if (args.roundTrials)
        wl->roundTrials = args.roundTrials; // the tests' small rounds
    const ScenarioSpec *cell = builtinScenarios().find(wl->cell);
    if (!cell)
        fatal("perfbench: registry cell '%s' is gone", wl->cell);
    const ScenarioSpec spec = *cell;
    checkCellShape(spec);

    const double origin = hostSeconds();
    std::size_t setupAborts = 0;
    const std::vector<double> setup =
        args.setup ? measureSetup(spec, args.threads, args.seed, setupAborts)
                   : std::vector<double>{};

    // Measured phase.  A traced run spends half its budget traced and
    // the rest replaying the same rounds untraced.  An untraced run
    // takes at least kMinRounds rounds, so the median over rounds can
    // set aside one round slowed by a costly world (fleet-fork's
    // warm-up takes 2-8 s depending on the seed).
    std::vector<Round> rounds;
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    const std::size_t minRounds = args.trace ? 1 : kMinRounds;
    const double t0 = hostSeconds();
    for (std::size_t r = 0;; ++r) {
        if (args.rounds ? r >= args.rounds
                        : (r >= minRounds && hostSeconds() - t0 >= budget))
            break;
        tracer.round = static_cast<std::int64_t>(r);
        rounds.push_back(isolatedRound(*wl, spec, args.threads,
                                       streamSeed(args.seed, r),
                                       args.trace));
    }
    const double wall = hostSeconds() - t0;

    // Replay traced rounds untraced, shortest first, while the run
    // stays inside its time limit; at least one is always replayed.
    std::vector<std::optional<Round>> replay(rounds.size());
    double tracedWall = 0.0, replayWall = 0.0;
    std::size_t replayed = 0;
    if (args.trace) {
        std::vector<std::size_t> order(rounds.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](auto a, auto b) {
            return rounds[a].wall < rounds[b].wall;
        });
        for (std::size_t i : order) {
            if (replayed > 0 &&
                hostSeconds() - origin + rounds[i].wall > kReplayLimitS)
                break;
            replay[i] = isolatedRound(*wl, spec, args.threads,
                                      rounds[i].masterSeed, false);
            tracedWall += rounds[i].wall;
            replayWall += replay[i]->wall;
            ++replayed;
        }
    }

    // Digest over every round's serialized result, in round order.
    std::uint64_t digest = kFnvBasis;
    bool ok = true;
    std::string why;
    std::size_t trials = 0, successes = 0, aborted = 0;
    double accesses = 0.0, roundWall = 0.0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        digest = fnv1a(digest, r.aborted ? "aborted" : r.json);
        digest = fnv1a(digest, "\n");
        trials += r.trials;
        successes += r.successes;
        accesses += r.accesses;
        roundWall += r.wall;
        aborted += r.aborted ? r.trials : 0;
        if (ok && !r.ok) {
            ok = false;
            why = "round " + std::to_string(i) + ": " + r.why;
        }
        if (ok && replay[i] &&
            (replay[i]->json != r.json || replay[i]->ok != r.ok ||
             replay[i]->aborted != r.aborted)) {
            ok = false;
            why = "round " + std::to_string(i) +
                  ": traced result differs from the entry point's";
        }
    }

    JsonWriter w;
    w.beginObject();
    w.member("workload", wl->name);
    w.member("cell", wl->cell);
    w.member("seed", args.seed);
    w.member("threads", static_cast<std::uint64_t>(args.threads));
    w.member("trace", args.trace);
    w.member("round_trials", static_cast<std::uint64_t>(wl->roundTrials));
    w.member("rounds", static_cast<std::uint64_t>(rounds.size()));
    w.member("trials", static_cast<std::uint64_t>(trials));
    w.member("successes", static_cast<std::uint64_t>(successes));
    w.member("aborted_trials", static_cast<std::uint64_t>(aborted));
    w.member("sim_accesses", accesses);
    w.member("wall_s", wall);
    w.member("round_wall_sum_s", roundWall);
    w.key("setup_s").beginArray();
    for (double s : setup)
        w.value(s);
    w.endArray();
    w.member("setup_aborts", static_cast<std::uint64_t>(setupAborts));
    w.key("round_wall_s").beginArray();
    for (const Round &r : rounds)
        w.value(r.wall);
    w.endArray();
    w.key("round_done").beginArray();
    for (const Round &r : rounds)
        w.value(static_cast<std::uint64_t>(r.aborted ? 0 : r.trials));
    w.endArray();
    w.key("round_accesses").beginArray();
    for (const Round &r : rounds)
        w.value(r.accesses);
    w.endArray();
    w.member("digest", hex64(digest));
    w.member("correct", ok);
    w.member("why", why);
    if (args.trace) {
        w.member("replayed_rounds", static_cast<std::uint64_t>(replayed));
        w.member("replayed_traced_wall_s", tracedWall);
        w.member("untraced_wall_s", replayWall);
        std::vector<double> trialDurations;
        double busy = 0.0;
        writeLayers(w, trialDurations, busy);
        w.member("busy_s", busy);
        w.key("trial_s").beginArray();
        for (double d : trialDurations)
            w.value(d);
        w.endArray();
    }
    w.member("peak_rss_mb", peakRssMb());
    w.endObject();

    std::ofstream f(args.out);
    f << w.str() << '\n';
    if (!f)
        fatal("perfbench: cannot write %s", args.out.c_str());
    if (args.trace && !writeTraceEvents(args.out + ".trace.json", origin))
        fatal("perfbench: cannot write %s.trace.json", args.out.c_str());
    std::printf("%s: %zu rounds, %zu trials, digest %s%s\n", wl->name,
                rounds.size(), trials, hex64(digest).c_str(),
                ok ? "" : (" — CHECK FAILED: " + why).c_str());
    return ok ? 0 : 1;
}

} // namespace
} // namespace llcf

int
main(int argc, char **argv)
{
    // Scenario trials record the pc_* hierarchy counters only when
    // asked; the benchmark needs them for its access counts.
    setenv("LLCF_COUNTERS", "1", 1);
    return llcf::benchMain(argc, argv);
}
