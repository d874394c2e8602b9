#include "monitor.hh"

#include <algorithm>

#include "common/log.hh"

namespace llcf {

const char *
monitorKindName(MonitorKind kind)
{
    switch (kind) {
      case MonitorKind::Parallel:
        return "Parallel";
      case MonitorKind::PsFlush:
        return "PS-Flush";
      case MonitorKind::PsAlt:
        return "PS-Alt";
    }
    return "?";
}

void
PrimeProbeMonitor::record(SampleStats &stats, Cycles value)
{
    // The paper excludes outliers above 20,000 cycles (interrupts /
    // context switches).
    if (value <= 20000)
        stats.add(static_cast<double>(value));
}

PrimeProbeMonitor::ProbeResult
PrimeProbeMonitor::probe()
{
    const ProbeBatch pb = probeBatch();
    const Cycles d = session_.machine().accessBatch(
        session_.config().mainCore, pb.lines, pb.spec);
    record(probeStats_, d);
    return {d > pb.threshold, d};
}

std::vector<Cycles>
PrimeProbeMonitor::collectTrace(Cycles deadline)
{
    Machine &m = session_.machine();
    const unsigned core = session_.config().mainCore;
    std::vector<Cycles> detections;
    prime();
    while (m.now() < deadline) {
        // Probe until a detection or the deadline.
        const ProbeBatch pb = probeBatch();
        Cycles last = 0;
        m.repeatBatch(core, pb.lines, pb.spec, ~std::uint64_t{0}, deadline,
                      pb.threshold, [this, &last](Cycles d) {
                          record(probeStats_, d);
                          last = d;
                      });
        if (last > pb.threshold) {
            detections.push_back(m.now());
            prime();
        }
    }
    return detections;
}

std::unique_ptr<PrimeProbeMonitor>
PrimeProbeMonitor::make(MonitorKind kind, AttackSession &session,
                        std::vector<Addr> evset,
                        std::vector<Addr> alt_evset)
{
    if (evset.empty())
        fatal("%s needs a non-empty eviction set", monitorKindName(kind));
    switch (kind) {
      case MonitorKind::Parallel:
        return std::make_unique<ParallelMonitor>(session,
                                                 std::move(evset));
      case MonitorKind::PsFlush:
        return std::make_unique<PsFlushMonitor>(session,
                                                std::move(evset));
      case MonitorKind::PsAlt:
        if (alt_evset.empty())
            fatal("PS-Alt needs a second eviction set");
        return std::make_unique<PsAltMonitor>(session, std::move(evset),
                                              std::move(alt_evset));
    }
    panic("unknown monitor kind");
}

// ------------------------------------------------------ Parallel

ParallelMonitor::ParallelMonitor(AttackSession &session,
                                 std::vector<Addr> evset)
    : PrimeProbeMonitor(session), evset_(std::move(evset))
{
    Machine &m = session_.machine();
    const unsigned core = session_.config().mainCore;

    // Calibrate the all-hit probe duration, then set the detection
    // threshold above its spread but below a memory-level miss.
    const BatchSpec stores{BatchOp::Store, true, -1};
    const BatchSpec loads{BatchOp::Load, true, -1};
    m.accessBatch(core, evset_, stores);
    SampleStats baseline;
    for (int i = 0; i < 16; ++i) {
        m.accessBatch(core, evset_, stores);
        baseline.add(static_cast<double>(
            m.accessBatch(core, evset_, loads)));
    }
    threshold_ = wholeCycles(std::max(baseline.median() + 120.0,
                                      baseline.percentile(90.0) + 60.0));
}

Cycles
ParallelMonitor::prime()
{
    Machine &m = session_.machine();
    const unsigned core = session_.config().mainCore;
    // Traverse the eviction set 12 times with overlapped accesses;
    // no replacement-state preparation needed (Section 6.1).
    Cycles total = 0;
    m.repeatBatch(core, evset_, {BatchOp::Store, true, -1}, 12,
                  kNeverCycles, kNeverCycles,
                  [&total](Cycles d) { total += d; });
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeBatch
ParallelMonitor::probeBatch() const
{
    return {evset_, {BatchOp::Load, true, -1}, threshold_};
}

// ------------------------------------------------------- PS-Flush

PsFlushMonitor::PsFlushMonitor(AttackSession &session,
                               std::vector<Addr> evset)
    : PrimeProbeMonitor(session), evset_(std::move(evset))
{
}

Cycles
PsFlushMonitor::prime()
{
    Machine &m = session_.machine();
    const unsigned core = session_.config().mainCore;
    // Load, flush, and sequentially reload so the first line ends up
    // as the set's eviction candidate.
    Cycles total = m.accessBatch(core, evset_, {BatchOp::Load});
    total += m.accessBatch(core, evset_, {BatchOp::Flush});
    total += m.accessBatch(core, evset_, {BatchOp::Load});
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeBatch
PsFlushMonitor::probeBatch() const
{
    // Scope: check only whether the EVC is still in the private
    // caches; a hit leaves the set's state untouched.  A one-element
    // ProbeLoad batch is exactly one probeLoad.
    return {std::span<const Addr>(evset_.data(), 1),
            {BatchOp::ProbeLoad},
            wholeCycles(session_.config().thresholds.privateMiss)};
}

// --------------------------------------------------------- PS-Alt

PsAltMonitor::PsAltMonitor(AttackSession &session,
                           std::vector<Addr> evset,
                           std::vector<Addr> alt_evset)
    : PrimeProbeMonitor(session)
{
    sets_[0] = std::move(evset);
    sets_[1] = std::move(alt_evset);
}

Cycles
PsAltMonitor::prime()
{
    Machine &m = session_.machine();
    const unsigned core = session_.config().mainCore;
    // Switch to the other eviction set and prime it with a dependent
    // pointer chase; its lines displace the previous set's entries,
    // leaving the first-chased line as the EVC.
    active_ ^= 1;
    const Cycles total = m.accessBatch(core, sets_[active_],
                                       {BatchOp::Load});
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeBatch
PsAltMonitor::probeBatch() const
{
    return {std::span<const Addr>(sets_[active_].data(), 1),
            {BatchOp::ProbeLoad},
            wholeCycles(session_.config().thresholds.privateMiss)};
}

} // namespace llcf
