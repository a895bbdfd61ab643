/**
 * @file
 * Determinism regression for the simulation kernel: repeat runs must be
 * bit-identical — same cycle counts, same aggregate processor
 * statistics, same network and NI statistics — and must land on golden
 * architectural numbers, on both an open traffic workload (fig3 random
 * traffic) and a halting application (radix sort), from 16 to 4096
 * nodes. The host-side strategies (superblocks, wake scheduler) must
 * not move a single number.
 */

#include <gtest/gtest.h>

#include "trace/counter_registry.hh"
#include "workloads/driver.hh"
#include "workloads/micro.hh"

namespace jmsim
{
namespace
{

using workloads::TrafficProbe;

/** Pin the superblock override for a scope, restoring default (on). */
struct SuperblockGuard
{
    explicit SuperblockGuard(int on) { workloads::setSuperblock(on); }
    ~SuperblockGuard() { workloads::setSuperblock(-1); }
};

void
expectEqualProcStats(const ProcessorStats &a, const ProcessorStats &b)
{
    for (std::size_t c = 0; c < a.cyclesByClass.size(); ++c)
        EXPECT_EQ(a.cyclesByClass[c], b.cyclesByClass[c]) << "class " << c;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.instructionsOs, b.instructionsOs);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.suspends, b.suspends);
    for (std::size_t f = 0; f < kNumFaults; ++f)
        EXPECT_EQ(a.faults[f], b.faults[f]) << "fault " << f;
    EXPECT_EQ(a.queueStallCycles, b.queueStallCycles);
    EXPECT_EQ(a.runCycles, b.runCycles);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.segCacheHits, b.segCacheHits);
    EXPECT_EQ(a.segCacheMisses, b.segCacheMisses);
    EXPECT_EQ(a.xlateCacheHits, b.xlateCacheHits);
    EXPECT_EQ(a.xlateCacheMisses, b.xlateCacheMisses);
}

void
expectEqualProbes(const TrafficProbe &a, const TrafficProbe &b)
{
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.reason, b.run.reason);
    EXPECT_EQ(a.instructions, b.instructions);
    expectEqualProcStats(a.procStats, b.procStats);
    EXPECT_EQ(a.netStats.messagesDelivered, b.netStats.messagesDelivered);
    EXPECT_EQ(a.netStats.wordsDelivered, b.netStats.wordsDelivered);
    EXPECT_EQ(a.netStats.bisectionFlitsPos, b.netStats.bisectionFlitsPos);
    EXPECT_EQ(a.netStats.bisectionFlitsNeg, b.netStats.bisectionFlitsNeg);
    EXPECT_EQ(a.niStats.messagesSent, b.niStats.messagesSent);
    EXPECT_EQ(a.niStats.wordsSent, b.niStats.wordsSent);
    EXPECT_EQ(a.niStats.sendFullEvents, b.niStats.sendFullEvents);
    EXPECT_EQ(a.niStats.deliveryStallCycles, b.niStats.deliveryStallCycles);
    EXPECT_EQ(a.niStats.messagesBounced, b.niStats.messagesBounced);
    // Message-pool alloc/release counts are architectural (one alloc
    // per message created, one release per tail delivered).
    EXPECT_EQ(counterValue(a.run.counters, "pool.allocs"),
              counterValue(b.run.counters, "pool.allocs"));
    EXPECT_EQ(counterValue(a.run.counters, "pool.released"),
              counterValue(b.run.counters, "pool.released"));
}

void
expectEqualAppResults(const workloads::AppResult &a,
                      const workloads::AppResult &b)
{
    EXPECT_EQ(a.runCycles, b.runCycles);
    EXPECT_EQ(a.answer, b.answer);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.instructionsOs, b.instructionsOs);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.xlates, b.xlates);
    EXPECT_EQ(a.xlateFaults, b.xlateFaults);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    for (std::size_t c = 0; c < a.cyclesByClass.size(); ++c)
        EXPECT_EQ(a.cyclesByClass[c], b.cyclesByClass[c]) << "class " << c;
    ASSERT_EQ(a.threadClasses.size(), b.threadClasses.size());
    for (std::size_t i = 0; i < a.threadClasses.size(); ++i) {
        EXPECT_EQ(a.threadClasses[i].name, b.threadClasses[i].name);
        EXPECT_EQ(a.threadClasses[i].threads, b.threadClasses[i].threads);
        EXPECT_EQ(a.threadClasses[i].instructions,
                  b.threadClasses[i].instructions);
        EXPECT_EQ(a.threadClasses[i].messageWords,
                  b.threadClasses[i].messageWords);
    }
}

TrafficProbe
trafficAt(unsigned nodes, Cycle window)
{
    return workloads::runFig3Traffic(nodes, 6, 40, window);
}

TrafficProbe
fig4At(unsigned nodes, Cycle window)
{
    return workloads::runFig4Load(nodes, window);
}

/** Golden architectural numbers of one fig3 traffic window. */
struct TrafficGolden
{
    std::uint64_t instructions;
    std::uint64_t runCycles;
    std::uint64_t dispatches;
    std::uint64_t messagesDelivered;
    std::uint64_t wordsDelivered;
    std::uint64_t bisectionFlitsPos;
    std::uint64_t bisectionFlitsNeg;
    std::uint64_t messagesSent;
    std::uint64_t sendFullEvents;
    std::uint64_t poolAllocs;
};

void
expectTrafficGolden(const TrafficProbe &p, Cycle window,
                    const TrafficGolden &g)
{
    EXPECT_EQ(p.run.cycles, window);
    EXPECT_EQ(p.run.reason, StopReason::CycleLimit);
    EXPECT_EQ(p.instructions, g.instructions);
    EXPECT_EQ(p.procStats.runCycles, g.runCycles);
    EXPECT_EQ(p.procStats.dispatches, g.dispatches);
    EXPECT_EQ(p.netStats.messagesDelivered, g.messagesDelivered);
    EXPECT_EQ(p.netStats.wordsDelivered, g.wordsDelivered);
    EXPECT_EQ(p.netStats.bisectionFlitsPos, g.bisectionFlitsPos);
    EXPECT_EQ(p.netStats.bisectionFlitsNeg, g.bisectionFlitsNeg);
    EXPECT_EQ(p.niStats.messagesSent, g.messagesSent);
    EXPECT_EQ(p.niStats.sendFullEvents, g.sendFullEvents);
    EXPECT_EQ(counterValue(p.run.counters, "pool.allocs"), g.poolAllocs);
}

TEST(DeterminismSerial, RepeatRunsIdentical)
{
    const TrafficProbe first = trafficAt(64, 2000);
    const TrafficProbe second = trafficAt(64, 2000);
    EXPECT_GT(first.instructions, 0u);
    EXPECT_GT(first.netStats.messagesDelivered, 0u);
    expectEqualProbes(first, second);
}

// Golden architectural numbers captured from the fetch/switch
// interpreter before the predecoded dispatch-table rewrite, the
// translation caches, and the machine-wide idle skip. Those are pure
// host-side optimizations: any drift in these values is an
// architectural regression, not noise.
TEST(DeterminismSerial, TrafficMatchesPreDecodeGolden)
{
    const TrafficProbe p = trafficAt(64, 2000);
    EXPECT_EQ(p.run.cycles, 2000u);
    EXPECT_EQ(p.instructions, 93827u);
    EXPECT_EQ(p.procStats.runCycles, 128012u);
    EXPECT_EQ(p.netStats.messagesDelivered, 618u);
}

TEST(DeterminismSerial, RadixMatchesPreDecodeGolden)
{
    workloads::RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    const auto r = workloads::runRadixSort(c);
    EXPECT_EQ(r.answer, 1024);
    EXPECT_EQ(r.runCycles, 61436u);
    EXPECT_EQ(r.instructions, 551751u);
    EXPECT_EQ(r.dispatches, 7378u);
}

// Superblock span execution is a host-side strategy, not a model
// change: with spans forced off (one op interpreted per cycle) the
// golden numbers above must still hold exactly.
TEST(DeterminismSerial, TrafficGoldenHoldsWithSuperblocksOff)
{
    SuperblockGuard sb(0);
    const TrafficProbe p = trafficAt(64, 2000);
    EXPECT_EQ(p.run.cycles, 2000u);
    EXPECT_EQ(p.instructions, 93827u);
    EXPECT_EQ(p.procStats.runCycles, 128012u);
    EXPECT_EQ(p.netStats.messagesDelivered, 618u);
}

TEST(DeterminismSerial, RadixGoldenHoldsWithSuperblocksOff)
{
    SuperblockGuard sb(0);
    workloads::RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    const auto r = workloads::runRadixSort(c);
    EXPECT_EQ(r.answer, 1024);
    EXPECT_EQ(r.runCycles, 61436u);
    EXPECT_EQ(r.instructions, 551751u);
    EXPECT_EQ(r.dispatches, 7378u);
}

TEST(DeterminismSerial, RadixSuperblocksOffMatchesOn)
{
    workloads::RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    const workloads::AppResult on = workloads::runRadixSort(c);
    workloads::AppResult off;
    {
        SuperblockGuard sb(0);
        off = workloads::runRadixSort(c);
    }
    EXPECT_EQ(on.answer, 1024);
    expectEqualAppResults(on, off);
}

TEST(DeterminismSerial, RadixRepeatRunsIdentical)
{
    workloads::RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    const auto first = workloads::runRadixSort(c);
    const auto second = workloads::runRadixSort(c);
    EXPECT_EQ(first.answer, 1024);
    expectEqualAppResults(first, second);
}

// Golden numbers for the fig4 saturation workload, captured from the
// shared_ptr-message / serial-fabric implementation immediately before
// the arena-backed network fabric landed. The fabric rewrite is a pure
// host-side optimization: any drift here is an architectural
// regression.
TEST(DeterminismSerial, Fig4LoadMatchesPreArenaGolden)
{
    const TrafficProbe p = fig4At(64, 2500);
    EXPECT_EQ(p.run.cycles, 2500u);
    EXPECT_EQ(p.instructions, 100000u);
    EXPECT_EQ(p.procStats.runCycles, 160030u);
    EXPECT_EQ(p.netStats.messagesDelivered, 880u);
    EXPECT_EQ(p.netStats.wordsDelivered, 21120u);
    EXPECT_EQ(p.netStats.bisectionFlitsPos, 9980u);
    EXPECT_EQ(p.netStats.bisectionFlitsNeg, 9797u);
    EXPECT_EQ(p.niStats.messagesSent, 889u);
    EXPECT_EQ(p.niStats.wordsSent, 21336u);
    EXPECT_EQ(p.niStats.sendFullEvents, 1813u);
    EXPECT_EQ(p.niStats.deliveryStallCycles, 0u);
    // Steady-state zero allocation: under saturation the pool recycles
    // instead of growing — 880 deliveries fed 913 sends from a single
    // 256-slot slab, and the high water is exactly one in-flight
    // message per node.
    EXPECT_EQ(counterValue(p.run.counters, "pool.allocs"), 913u);
    EXPECT_EQ(counterValue(p.run.counters, "pool.released"), 880u);
    EXPECT_EQ(counterValue(p.run.counters, "pool.capacity"), 256u);
    EXPECT_EQ(counterValue(p.run.counters, "pool.live_high_water"), 64u);
}

// The goldens below were recorded from the serial kernel at 256, 1K
// (8x16x8) and 4K (16x16x16) nodes. Short windows keep the large meshes
// inside the ctest budget.
TEST(DeterminismSerial, Fig4LoadGoldenAt256Nodes)
{
    const TrafficProbe p = fig4At(256, 2500);
    EXPECT_EQ(p.run.cycles, 2500u);
    EXPECT_EQ(p.instructions, 356400u);
    EXPECT_EQ(p.netStats.messagesDelivered, 2284u);
    EXPECT_EQ(p.netStats.wordsDelivered, 54816u);
    EXPECT_EQ(p.niStats.messagesSent, 2329u);
    EXPECT_EQ(p.niStats.sendFullEvents, 20253u);
}

TEST(DeterminismSerial, TrafficGoldenAt256Nodes)
{
    expectTrafficGolden(trafficAt(256, 1500), 1500,
                        {.instructions = 280695,
                         .runCycles = 384086,
                         .dispatches = 1592,
                         .messagesDelivered = 1571,
                         .wordsDelivered = 9426,
                         .bisectionFlitsPos = 5152,
                         .bisectionFlitsNeg = 5171,
                         .messagesSent = 1592,
                         .sendFullEvents = 0,
                         .poolAllocs = 1635});
}

TEST(DeterminismSerial, RadixGoldenAt256Nodes)
{
    workloads::RadixConfig c;
    c.nodes = 256;
    c.keys = 4096;
    const workloads::AppResult r = workloads::runRadixSort(c);
    EXPECT_EQ(r.answer, 4096);
    EXPECT_EQ(r.runCycles, 66590u);
    EXPECT_EQ(r.instructions, 10372733u);
    EXPECT_EQ(r.instructionsOs, 59661u);
    EXPECT_EQ(r.dispatches, 32242u);
}

/** Pin the wake-scheduler override for a scope, restoring default. */
struct WakeGuard
{
    explicit WakeGuard(int on) { workloads::setWakeScheduler(on); }
    ~WakeGuard() { workloads::setWakeScheduler(-1); }
};

TEST(DeterminismSerial, TrafficGoldenAt1KNodes)
{
    expectTrafficGolden(trafficAt(1024, 600), 600,
                        {.instructions = 437762,
                         .runCycles = 614629,
                         .dispatches = 2032,
                         .messagesDelivered = 2024,
                         .wordsDelivered = 12144,
                         .bisectionFlitsPos = 6086,
                         .bisectionFlitsNeg = 6060,
                         .messagesSent = 2046,
                         .sendFullEvents = 41,
                         .poolAllocs = 2048});
}

TEST(DeterminismSerial, TrafficSchedulerOffMatchesOnAt1KNodes)
{
    TrafficProbe on, off;
    {
        WakeGuard w(1);
        on = trafficAt(1024, 600);
    }
    {
        WakeGuard w(0);
        off = trafficAt(1024, 600);
    }
    expectEqualProbes(on, off);
}

TEST(DeterminismSerial, TrafficGoldenAt4KNodes)
{
    const TrafficProbe on = trafficAt(4096, 400);
    expectTrafficGolden(on, 400,
                        {.instructions = 1219537,
                         .runCycles = 1638422,
                         .dispatches = 509,
                         .messagesDelivered = 2,
                         .wordsDelivered = 12,
                         .bisectionFlitsPos = 1918,
                         .bisectionFlitsNeg = 2083,
                         .messagesSent = 4096,
                         .sendFullEvents = 0,
                         .poolAllocs = 4546});
    TrafficProbe off;
    {
        WakeGuard w(0);
        off = trafficAt(4096, 400);
    }
    expectEqualProbes(on, off);
    // The memory-audit acceptance bound: a 4096-node mesh stays far
    // under 1 GB of simulator state.
    EXPECT_GT(on.run.footprintBytes, 0u);
    EXPECT_LT(on.run.footprintBytes, 1ull << 30);
}

} // namespace
} // namespace jmsim
