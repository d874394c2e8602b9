/**
 * @file
 * Field-by-field equality of two Machine snapshots for the tests that
 * prove a fast path exact: every cache plane, clock, both RNG streams,
 * sync stamps, stream cursors, counters (per-level cycle sums
 * bitwise) and defense state.
 */

#ifndef LLCF_TESTS_MACHINE_STATE_HH
#define LLCF_TESTS_MACHINE_STATE_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/machine.hh"

namespace llcf {

/** Equal event counters of one cache structure. */
inline void
expectSameCounters(const ArrayCounters &a, const ArrayCounters &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.tagScans, b.tagScans);
}

/** Equal machine-wide counters, per-level cycle sums bitwise. */
inline void
expectSamePerf(const PerfCounters &a, const PerfCounters &b)
{
    expectSameCounters(a.l1, b.l1);
    expectSameCounters(a.l2, b.l2);
    expectSameCounters(a.llc, b.llc);
    expectSameCounters(a.sf, b.sf);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    for (unsigned i = 0; i < kHitLevelCount; ++i) {
        EXPECT_EQ(a.levelAccesses[i], b.levelAccesses[i]) << i;
        // Bitwise: the closed form must replay the same additions.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.levelCycles[i]),
                  std::bit_cast<std::uint64_t>(b.levelCycles[i]))
            << i;
    }
    EXPECT_EQ(a.cohDowngrades, b.cohDowngrades);
    EXPECT_EQ(a.simCycles, b.simCycles);
}

/** Equal planes and counters of one cache structure. */
inline void
expectSameArray(const CacheArrayState &a, const CacheArrayState &b)
{
    EXPECT_EQ(a.tags, b.tags);
    EXPECT_EQ(a.meta, b.meta);
    expectSameCounters(a.counters, b.counters);
}

/** Equal snapshots, every field. */
inline void
expectSameState(const Machine::Snapshot &a, const Machine::Snapshot &b)
{
    EXPECT_TRUE(a.rng == b.rng);
    EXPECT_TRUE(a.jitterRng == b.jitterRng);
    EXPECT_EQ(a.allocator.freeFrames(), b.allocator.freeFrames());
    EXPECT_EQ(a.nextAsid, b.nextAsid);
    ASSERT_EQ(a.l1.size(), b.l1.size());
    for (std::size_t c = 0; c < a.l1.size(); ++c)
        expectSameArray(a.l1[c], b.l1[c]);
    ASSERT_EQ(a.l2.size(), b.l2.size());
    for (std::size_t c = 0; c < a.l2.size(); ++c)
        expectSameArray(a.l2[c], b.l2[c]);
    expectSameArray(a.llc, b.llc);
    expectSameArray(a.sf, b.sf);
    EXPECT_EQ(a.privateHitStreak, b.privateHitStreak);
    EXPECT_EQ(a.clock, b.clock);
    EXPECT_EQ(a.lastSync, b.lastSync);
    EXPECT_EQ(a.hasStream, b.hasStream);
    EXPECT_EQ(a.setStreams, b.setStreams);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        const MachineStream &x = a.streams[i];
        const MachineStream &y = b.streams[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.core, y.core);
        EXPECT_EQ(x.line, y.line);
        EXPECT_EQ(x.isStore, y.isStore);
        EXPECT_EQ(x.pinned, y.pinned);
        EXPECT_EQ(x.times, y.times);
        EXPECT_EQ(x.cursor, y.cursor);
    }
    EXPECT_EQ(a.nextStreamId, b.nextStreamId);
    EXPECT_EQ(a.noiseCounter, b.noiseCounter);
    EXPECT_EQ(a.quiescent, b.quiescent);
    EXPECT_EQ(a.stats.loads, b.stats.loads);
    EXPECT_EQ(a.stats.stores, b.stats.stores);
    EXPECT_EQ(a.stats.l1Hits, b.stats.l1Hits);
    EXPECT_EQ(a.stats.l2Hits, b.stats.l2Hits);
    EXPECT_EQ(a.stats.sfTransfers, b.stats.sfTransfers);
    EXPECT_EQ(a.stats.llcHits, b.stats.llcHits);
    EXPECT_EQ(a.stats.dramFills, b.stats.dramFills);
    EXPECT_EQ(a.stats.noiseAccesses, b.stats.noiseAccesses);
    EXPECT_EQ(a.stats.streamAccesses, b.stats.streamAccesses);
    EXPECT_EQ(a.stats.interrupts, b.stats.interrupts);
    expectSamePerf(a.perf, b.perf);
    EXPECT_EQ(a.indexMasks, b.indexMasks);
    EXPECT_EQ(a.indexHashParams.kind, b.indexHashParams.kind);
    EXPECT_EQ(a.indexHashParams.slices, b.indexHashParams.slices);
    EXPECT_EQ(a.indexHashParams.salt, b.indexHashParams.salt);
    EXPECT_EQ(a.indexHashParams.masks, b.indexHashParams.masks);
    EXPECT_TRUE(a.rekeyRng == b.rekeyRng);
    EXPECT_EQ(a.nextRekey, b.nextRekey);
    EXPECT_EQ(a.rekeyPending, b.rekeyPending);
    EXPECT_EQ(a.rekeys, b.rekeys);
    EXPECT_EQ(a.rekeyLinesMoved, b.rekeyLinesMoved);
    EXPECT_EQ(a.watchdog.armed(), b.watchdog.armed());
    EXPECT_EQ(a.watchdog.core(), b.watchdog.core());
    EXPECT_EQ(a.watchdog.lines(), b.watchdog.lines());
    EXPECT_EQ(a.watchdog.nextProbeAt(), b.watchdog.nextProbeAt());
    EXPECT_EQ(a.watchdog.probes(), b.watchdog.probes());
    EXPECT_EQ(a.watchdog.misses(), b.watchdog.misses());
    EXPECT_EQ(a.watchdog.fires(), b.watchdog.fires());
}

} // namespace llcf

#endif // LLCF_TESTS_MACHINE_STATE_HH
