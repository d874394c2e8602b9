/**
 * @file
 * Prime+Probe monitors over one SF set (paper Section 6.1).
 *
 *  - Parallel: the paper's Parallel Probing — prime by traversing the
 *    eviction set 12 times with overlapped stores, probe all W lines
 *    with one overlapped load burst.  No replacement-state
 *    preparation needed, so priming is fast.
 *  - PsFlush: Prime+Scope "flush" strategy — load, clflush and
 *    sequentially reload the eviction set so its first line is the
 *    eviction candidate (EVC); probe only the EVC.
 *  - PsAlt: Prime+Scope "alternating" strategy — two eviction sets
 *    primed alternately with dependent loads; probe the active set's
 *    EVC.
 *
 * Monitors keep prime/probe latency statistics (Table 5) and expose a
 * trace-collection loop producing detection timestamps (the input to
 * the PSD pipeline and the nonce extractor).  Each strategy only
 * supplies its prime and its probe batch with a detection threshold;
 * the one probe loop lives in PrimeProbeMonitor::collectTrace.
 */

#ifndef LLCF_ATTACK_MONITOR_HH
#define LLCF_ATTACK_MONITOR_HH

#include <memory>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "evset/session.hh"

namespace llcf {

/** Monitoring strategies evaluated in the paper. */
enum class MonitorKind { Parallel, PsFlush, PsAlt };

/** Human-readable strategy name (paper nomenclature). */
const char *monitorKindName(MonitorKind kind);

/**
 * Base class: the prime/probe state machine and statistics.
 */
class PrimeProbeMonitor
{
  public:
    /** Outcome of one probe. */
    struct ProbeResult
    {
        bool detected = false;
        Cycles duration = 0;
    };

    virtual ~PrimeProbeMonitor() = default;

    virtual MonitorKind kind() const = 0;

    /** What one probe issues, and when it counts as a detection. */
    struct ProbeBatch
    {
        std::span<const Addr> lines;
        BatchSpec spec;
        Cycles threshold = 0; //!< a probe taking longer detects
    };

    /** Prepare the monitored set; returns the prime duration. */
    virtual Cycles prime() = 0;

    /** The current probe batch (valid until the next prime()). */
    virtual ProbeBatch probeBatch() const = 0;

    /** One probe of probeBatch(); records latency statistics. */
    ProbeResult probe();

    /**
     * Monitor until @p deadline (absolute): prime once, then probe
     * continuously, re-priming after each detection.  Exactly the
     * loop `prime(); while (now < deadline) { if (probe().detected)
     * { record now; prime(); } }`, run through Machine::repeatBatch so
     * the quiet stretches between background events cost closed-form
     * time on a noise-free machine (DESIGN.md §13).
     * @return detection timestamps (probe completion times).
     */
    std::vector<Cycles> collectTrace(Cycles deadline);

    /** Prime latencies (interrupt outliers > 20k cycles excluded). */
    const SampleStats &primeStats() const { return primeStats_; }

    /** Probe latencies (outliers excluded). */
    const SampleStats &probeStats() const { return probeStats_; }

    /**
     * Build a monitor.  @p evset must be a minimal SF eviction set;
     * @p alt_evset is required by PsAlt (a second eviction set for
     * the same SF set) and ignored otherwise.  Fatal on an empty
     * set, which has nothing to prime or probe.
     */
    static std::unique_ptr<PrimeProbeMonitor> make(
        MonitorKind kind, AttackSession &session,
        std::vector<Addr> evset, std::vector<Addr> alt_evset = {});

  protected:
    explicit PrimeProbeMonitor(AttackSession &session)
        : session_(session)
    {
    }

    /** Record a latency sample, dropping >20k-cycle outliers. */
    static void record(SampleStats &stats, Cycles value);

    /**
     * The integer threshold equivalent to "latency > @p t" for a
     * real-valued @p t (latencies are whole, positive cycles).
     */
    static Cycles
    wholeCycles(double t)
    {
        return t <= 0.0 ? 0 : static_cast<Cycles>(t);
    }

    AttackSession &session_;
    SampleStats primeStats_;
    SampleStats probeStats_;
};

/** The paper's Parallel Probing monitor. */
class ParallelMonitor : public PrimeProbeMonitor
{
  public:
    ParallelMonitor(AttackSession &session, std::vector<Addr> evset);

    MonitorKind kind() const override { return MonitorKind::Parallel; }
    Cycles prime() override;
    ProbeBatch probeBatch() const override;

  private:
    std::vector<Addr> evset_;
    Cycles threshold_ = 0; //!< calibrated probe-duration threshold
};

/** Prime+Scope with the flush-based prime pattern. */
class PsFlushMonitor : public PrimeProbeMonitor
{
  public:
    PsFlushMonitor(AttackSession &session, std::vector<Addr> evset);

    MonitorKind kind() const override { return MonitorKind::PsFlush; }
    Cycles prime() override;
    ProbeBatch probeBatch() const override;

  private:
    std::vector<Addr> evset_;
};

/** Prime+Scope with the alternating two-set prime pattern. */
class PsAltMonitor : public PrimeProbeMonitor
{
  public:
    PsAltMonitor(AttackSession &session, std::vector<Addr> evset,
                 std::vector<Addr> alt_evset);

    MonitorKind kind() const override { return MonitorKind::PsAlt; }
    Cycles prime() override;
    ProbeBatch probeBatch() const override;

  private:
    std::vector<Addr> sets_[2];
    unsigned active_ = 0;
};

} // namespace llcf

#endif // LLCF_ATTACK_MONITOR_HH
