/**
 * @file
 * Machine::repeatBatch: a repeated batch whose periodic private-hit
 * repetitions are applied in closed form (DESIGN.md §13).
 *
 * Kept apart from machine.cc so the access path's hot loops compile
 * exactly as before; the slow path here *is* accessBatch, and the
 * code only ever skips repetitions it has proven identical to ones it
 * just simulated.
 */

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "sim/machine.hh"

namespace llcf {

namespace {

/** Earlier repetitions the period detector compares against. */
constexpr unsigned kRepeatHistory = 8;

/** Mark slots: the current repetition plus its history. */
constexpr unsigned kRepeatSlots = kRepeatHistory + 1;

/**
 * @p n more periods of a counter that went from @p then to @p cur in
 * one period: the same value, wrap-around included, as n × (cur −
 * then) single increments.
 */
template <typename T>
void
addPeriods(T &cur, T then, std::uint64_t n)
{
    cur = static_cast<T>(cur + n * (cur - then));
}

/** Counter delta of @p n periods that each went from @p then to @p cur. */
ArrayCounters
periodsDelta(const ArrayCounters &cur, const ArrayCounters &then,
             std::uint64_t n)
{
    ArrayCounters d;
    d.hits = n * (cur.hits - then.hits);
    d.fills = n * (cur.fills - then.fills);
    d.evictions = n * (cur.evictions - then.evictions);
    d.invalidations = n * (cur.invalidations - then.invalidations);
    d.tagScans = n * (cur.tagScans - then.tagScans);
    return d;
}

/** Sort and deduplicate a set-id list in place. */
void
uniqueSets(std::vector<unsigned> &sets)
{
    std::sort(sets.begin(), sets.end());
    sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
}

/** a + b, saturating at kNeverCycles. */
Cycles
saturatingAdd(Cycles a, Cycles b)
{
    return b > kNeverCycles - a ? kNeverCycles : a + b;
}

} // namespace

void
Machine::captureRepeatMark(unsigned core, RepeatMark &mark,
                           std::uint64_t *rows) const
{
    mark.rng = rng_;
    mark.jitterRng = jitterRng_;
    mark.clock = clock_;
    mark.stats = stats_;
    std::copy(std::begin(perf_.levelAccesses), std::end(perf_.levelAccesses),
              std::begin(mark.levelAccesses));
    mark.cohDowngrades = perf_.cohDowngrades;
    mark.l1 = l1_[core].counters();
    mark.l2 = l2_[core].counters();
    mark.sharedScans = llc_.counters().tagScans + sf_.counters().tagScans;
    mark.defenseEvents = rekeys_ + watchdog_.probes();
    mark.privateHitStreak = privateHitStreak_;
    const auto copy_rows = [&rows](const CacheArray &a,
                                   const std::vector<unsigned> &sets) {
        for (const unsigned s : sets) {
            std::memcpy(rows, a.tagRow(s), a.tagRowWords() * sizeof(Addr));
            rows += a.tagRowWords();
            std::memcpy(rows, a.metaRow(s),
                        a.metaRowWords() * sizeof(std::uint64_t));
            rows += a.metaRowWords();
        }
    };
    copy_rows(l1_[core], repeatL1Sets_);
    copy_rows(l2_[core], repeatL2Sets_);
}

bool
Machine::privateOnlySince(const RepeatMark &mark) const
{
    const auto served = [&](HitLevel level) {
        const auto i = static_cast<unsigned>(level);
        return perf_.levelAccesses[i] - mark.levelAccesses[i];
    };
    // Counters only grow, so a zero delta over the span means zero in
    // every repetition of it.
    return served(HitLevel::SfTransfer) == 0 &&
           served(HitLevel::Llc) == 0 && served(HitLevel::Dram) == 0 &&
           stats_.streamAccesses == mark.stats.streamAccesses &&
           stats_.noiseAccesses == mark.stats.noiseAccesses &&
           stats_.interrupts == mark.stats.interrupts &&
           perf_.cohDowngrades == mark.cohDowngrades &&
           llc_.counters().tagScans + sf_.counters().tagScans ==
               mark.sharedScans &&
           rekeys_ + watchdog_.probes() == mark.defenseEvents;
}

void
Machine::applyPeriods(unsigned core, const RepeatMark &mark,
                      std::uint64_t n)
{
    const Cycles period = clock_ - mark.clock;
    // Every repetition synced each line's shared set (when replay is
    // live at all), so each stamp moves with the clock.
    for (const unsigned s : repeatSharedSets_)
        lastSync_[s] += n * period;
    clock_ += n * period;

    addPeriods(stats_.loads, mark.stats.loads, n);
    addPeriods(stats_.stores, mark.stats.stores, n);
    addPeriods(stats_.l1Hits, mark.stats.l1Hits, n);
    addPeriods(stats_.l2Hits, mark.stats.l2Hits, n);
    // The remaining MachineStats fields and cohDowngrades are
    // unchanged over a private-only period (privateOnlySince).

    for (unsigned i = 0; i < kHitLevelCount; ++i) {
        const std::uint64_t k =
            n * (perf_.levelAccesses[i] - mark.levelAccesses[i]);
        // The same additions serve() makes, one by one: a product
        // would round differently from the sum.
        const double lat = effLatency(static_cast<HitLevel>(i));
        for (std::uint64_t j = 0; j < k; ++j)
            perf_.levelCycles[i] += lat;
        perf_.levelAccesses[i] += k;
    }
    l1_[core].addCounters(periodsDelta(l1_[core].counters(), mark.l1, n));
    l2_[core].addCounters(periodsDelta(l2_[core].counters(), mark.l2, n));
    addPeriods(privateHitStreak_, mark.privateHitStreak, n);
}

Machine::RepeatResult
Machine::repeatBatch(unsigned core, std::span<const Addr> pas,
                     const BatchSpec &spec, std::uint64_t max_reps,
                     Cycles until, Cycles max_duration,
                     const std::function<void(Cycles)> &on_rep)
{
    if (pas.empty())
        fatal("repeatBatch: empty batch (it would advance no clock)");
    RepeatResult res;

    // Noise, jitter and interrupts draw RNG on every sync or op, so
    // such a machine's state never repeats; a helper batch touches a
    // second core and a flush never reaches the private caches.  All
    // of them run the contract loop with no capture cost.
    if (noisePerCycle_ != 0.0 || noise_.latencyJitter != 0.0 ||
        noise_.interruptRate != 0.0 || spec.helper >= 0 ||
        spec.op == BatchOp::Flush) {
        while (res.reps < max_reps && clock_ < until) {
            const Cycles d = accessBatch(core, pas, spec);
            ++res.reps;
            on_rep(d);
            if (d > max_duration)
                break;
        }
        return res;
    }

    // The state a private-hit repetition reads: the lines' L1/L2 sets
    // on this core.  Their shared sets only matter for stream replay
    // and its sync stamps, which a quiescent machine never touches.
    repeatL1Sets_.clear();
    repeatL2Sets_.clear();
    for (const Addr pa : pas) {
        const Addr line = lineAlign(pa);
        repeatL1Sets_.push_back(cfg_.l1.setIndex(line));
        repeatL2Sets_.push_back(cfg_.l2.setIndex(line));
    }
    uniqueSets(repeatL1Sets_);
    uniqueSets(repeatL2Sets_);
    const auto resolve_shared = [&] {
        repeatSharedSets_.clear();
        if (quiescent_)
            return;
        for (const Addr pa : pas)
            repeatSharedSets_.push_back(sharedSetOf(pa));
        uniqueSets(repeatSharedSets_);
    };
    resolve_shared();
    const CacheArray &l1 = l1_[core];
    const CacheArray &l2 = l2_[core];
    const std::size_t row_words =
        repeatL1Sets_.size() * (l1.tagRowWords() + l1.metaRowWords()) +
        repeatL2Sets_.size() * (l2.tagRowWords() + l2.metaRowWords());
    repeatRows_.resize(kRepeatSlots * row_words);
    repeatMarks_.resize(kRepeatSlots);
    const auto slot_rows = [&](unsigned slot) {
        return repeatRows_.data() + slot * row_words;
    };

    // Earliest pending stream event on the lines' shared sets: the
    // first background access that could touch them.
    const auto next_stream_event = [&] {
        Cycles next = kNeverCycles;
        for (const unsigned s : repeatSharedSets_) {
            if (!hasStream_[s])
                continue;
            for (const std::size_t idx : setStreams_[s]) {
                const Stream &st = streams_[idx];
                if (st.cursor < st.times.size())
                    next = std::min(next, st.times[st.cursor]);
            }
        }
        return next;
    };

    std::uint64_t rekeys_seen = rekeys_;
    unsigned head = 0;    // slot of the current repetition's mark
    unsigned history = 0; // valid marks behind it
    while (res.reps < max_reps && clock_ < until) {
        RepeatMark &cur = repeatMarks_[head];
        captureRepeatMark(core, cur, slot_rows(head));
        const auto back = [&](unsigned p) {
            return (head + kRepeatSlots - p) % kRepeatSlots;
        };

        // Smallest period p: the last p repetitions were private-only
        // and the state is back where it was p repetitions ago.  An
        // impure repetition rules out every longer period too.
        unsigned period = 0;
        for (unsigned p = 1; p <= history; ++p) {
            const RepeatMark &m = repeatMarks_[back(p)];
            if (!privateOnlySince(m))
                break;
            if (m.rng == rng_ && m.jitterRng == jitterRng_ &&
                std::memcmp(slot_rows(back(p)), slot_rows(head),
                            row_words * sizeof(std::uint64_t)) == 0) {
                period = p;
                break;
            }
        }

        if (period != 0) {
            const RepeatMark &start = repeatMarks_[back(period)];
            const Cycles period_cycles = clock_ - start.clock;
            // Cycles the skipped repetitions may span: each must start
            // before until, end at or before the next stream event on
            // the lines' sets and end before the next defense tick.
            Cycles room = saturatingAdd(until - clock_ - 1,
                                        repeatMarks_[back(1)].duration);
            const Cycles event = next_stream_event();
            room = std::min(room, event > clock_ ? event - clock_ : 0);
            room = std::min(room, nextDefenseEvent_ > clock_
                                      ? nextDefenseEvent_ - clock_ - 1
                                      : 0);
            const std::uint64_t n =
                std::min(room / period_cycles,
                         (max_reps - res.reps) / period);
            if (n > 0) {
                applyPeriods(core, start, n);
                for (std::uint64_t i = 0; i < n; ++i) {
                    for (unsigned p = period; p >= 1; --p)
                        on_rep(repeatMarks_[back(p)].duration);
                }
                res.reps += n * period;
                res.closedForm += n * period;
                // The marks' clocks and counters predate the skip.
                history = 0;
                continue;
            }
        }

        const Cycles d = accessBatch(core, pas, spec);
        cur.duration = d;
        ++res.reps;
        on_rep(d);
        if (d > max_duration)
            break;
        head = (head + 1) % kRepeatSlots;
        history = std::min(history + 1, kRepeatHistory);
        if (rekeys_ != rekeys_seen) {
            // The index key moved the lines' shared sets.
            rekeys_seen = rekeys_;
            resolve_shared();
            history = 0;
        }
    }
    return res;
}

} // namespace llcf
