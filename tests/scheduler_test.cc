/**
 * @file
 * Unit tests for the event-driven wake scheduler: parked nodes cost
 * zero step calls, the stepped/skipped cycle accounting is exact, the
 * footprint audit reports sane numbers, the wake queue holds exactly
 * one entry per parked node, and — the hard invariant — a
 * scheduler-off run is bit-identical to a scheduler-on one.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "netops/netops.hh"
#include "trace/counter_registry.hh"
#include "workloads/driver.hh"
#include "workloads/innet.hh"
#include "workloads/micro.hh"

namespace jmsim
{
namespace
{

using workloads::TrafficProbe;

struct WakeGuard
{
    explicit WakeGuard(int on) { workloads::setWakeScheduler(on); }
    ~WakeGuard() { workloads::setWakeScheduler(-1); }
};

TrafficProbe
trafficAt(unsigned nodes, Cycle window)
{
    return workloads::runFig3Traffic(nodes, 6, 40, window);
}

/** High-grain traffic: long compute phases between sends, so almost
 *  every node spends almost every cycle parked mid-instruction. */
TrafficProbe
sparseTrafficAt(unsigned nodes, Cycle window)
{
    return workloads::runFig3Traffic(nodes, 6, 2000, window);
}

void
expectIdenticalRuns(const TrafficProbe &a, const TrafficProbe &b)
{
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.reason, b.run.reason);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.procStats.runCycles, b.procStats.runCycles);
    EXPECT_EQ(a.procStats.idleCycles, b.procStats.idleCycles);
    EXPECT_EQ(a.procStats.dispatches, b.procStats.dispatches);
    EXPECT_EQ(a.netStats.messagesDelivered, b.netStats.messagesDelivered);
    EXPECT_EQ(a.netStats.wordsDelivered, b.netStats.wordsDelivered);
    EXPECT_EQ(a.niStats.messagesSent, b.niStats.messagesSent);
    EXPECT_EQ(a.niStats.sendFullEvents, b.niStats.sendFullEvents);
}

// The scheduler may only skip cycles/nodes that provably step to a
// no-op, so turning it off must not change a single architectural
// number.
TEST(WakeScheduler, OffMatchesOn)
{
    TrafficProbe on, off;
    {
        WakeGuard w(1);
        on = trafficAt(64, 2000);
    }
    {
        WakeGuard w(0);
        off = trafficAt(64, 2000);
    }
    EXPECT_GT(on.instructions, 0u);
    expectIdenticalRuns(on, off);
    // The pre-scheduler golden (see determinism_test.cc) holds both ways.
    EXPECT_EQ(on.run.cycles, 2000u);
    EXPECT_EQ(on.instructions, 93827u);
    EXPECT_EQ(on.procStats.runCycles, 128012u);
    EXPECT_EQ(on.netStats.messagesDelivered, 618u);
}

TEST(WakeScheduler, SparseWorkloadOffMatchesOn)
{
    TrafficProbe on, off;
    {
        WakeGuard w(1);
        on = sparseTrafficAt(64, 4000);
    }
    {
        WakeGuard w(0);
        off = sparseTrafficAt(64, 4000);
    }
    EXPECT_GT(on.instructions, 0u);
    expectIdenticalRuns(on, off);
}

/** The BENCH sparse-activity workload: a token ring over 8 hot nodes
 *  while every other node poll-spins (see runSparseActivity). */
TrafficProbe
ringAt(unsigned nodes, Cycle window)
{
    return workloads::runSparseActivity(nodes, 8, window);
}

// The heterogeneous-activity shape the scheduler's BENCH row measures:
// the hot ring keeps the fabric busy while thousands of poll-spinning
// nodes park. Turning the scheduler off must not move a single number.
TEST(WakeScheduler, SparseRingOffMatchesOn)
{
    TrafficProbe on, off;
    {
        WakeGuard w(1);
        on = ringAt(256, 10000);
    }
    {
        WakeGuard w(0);
        off = ringAt(256, 10000);
    }
    EXPECT_GT(on.instructions, 0u);
    EXPECT_GT(on.netStats.messagesDelivered, 0u);
    expectIdenticalRuns(on, off);
}

// On the ring workload nearly every node is parked nearly every ticked
// cycle, so avoided step calls must dwarf the made ones.
TEST(WakeScheduler, SparseRingParksNodes)
{
    WakeGuard w(1);
    const TrafficProbe p = ringAt(256, 10000);
    const std::uint64_t steps =
        counterValue(p.run.counters, "kernel.node_steps");
    const std::uint64_t skipped =
        counterValue(p.run.counters, "kernel.skipped_node_steps");
    EXPECT_GT(steps, 0u);
    EXPECT_GT(skipped, 10 * steps)
        << "the poll-spinning majority should park, not step";
    EXPECT_EQ(p.run.profile.steppedCycles + p.run.profile.skippedCycles,
              p.run.cycles);
}

// Stepped and skipped cycles partition the run exactly: every cycle of
// a fresh run was either ticked by the kernel or jumped by idle-skip.
TEST(WakeScheduler, SteppedPlusSkippedSumToCycles)
{
    const TrafficProbe p = sparseTrafficAt(64, 4000);
    EXPECT_EQ(p.run.profile.steppedCycles + p.run.profile.skippedCycles,
              p.run.cycles);
    // The sparse workload actually exercises the skip path.
    EXPECT_GT(p.run.profile.skippedCycles, 0u);
}

// On the high-grain workload the scheduler parks compute-phase nodes,
// so the kernel must report far fewer step calls than a tick-everything
// loop would make — and account every avoided call.
TEST(WakeScheduler, SparseWorkloadParksNodes)
{
    WakeGuard w(1);
    const TrafficProbe p = sparseTrafficAt(64, 4000);
    const std::uint64_t steps =
        counterValue(p.run.counters, "kernel.node_steps");
    const std::uint64_t skipped =
        counterValue(p.run.counters, "kernel.skipped_node_steps");
    EXPECT_GT(steps, 0u);
    EXPECT_GT(skipped, steps)
        << "high-grain traffic should skip more node steps than it makes";
}

// An all-idle machine must cost zero node steps per cycle: after a
// traffic window every node has drained, and running the quiescent
// mesh further makes no step calls at all.
TEST(WakeScheduler, QuiescentMeshDoesZeroNodeSteps)
{
    auto m = workloads::buildMachine(
        16, "noop.jasm", "boot:\n    CALL A2, jos_init\n    SUSPEND\n");
    const RunResult first = m->runFor(20000);
    EXPECT_EQ(first.reason, StopReason::Quiescent);
    EXPECT_EQ(m->parkedNodes(), 0u);
    const std::uint64_t steps_after_drain =
        m->counters().value("kernel.node_steps");
    const RunResult more = m->runFor(100);
    EXPECT_EQ(more.reason, StopReason::Quiescent);
    EXPECT_EQ(m->counters().value("kernel.node_steps"), steps_after_drain)
        << "stepping a quiescent mesh must not call node.step";
}

// The footprint audit: a small machine reports a small, non-zero
// number, and the count responds to real allocations (a bigger mesh
// costs more).
TEST(WakeScheduler, FootprintBytesReported)
{
    const TrafficProbe small = trafficAt(16, 500);
    const TrafficProbe large = trafficAt(64, 500);
    EXPECT_GT(small.run.footprintBytes, 0u);
    EXPECT_GT(large.run.footprintBytes, small.run.footprintBytes);
    // 64 nodes is dominated by 64 * 4K-word SRAMs (~2 MB array data);
    // anything past tens of MB means eager allocation crept back in.
    EXPECT_LT(large.run.footprintBytes, 32ull << 20);
}

/** A combining fetch-and-add hotspot run in slices, with the wake
 *  queue checked against the parked-node count at every boundary. */
struct HotspotSlices
{
    RunResult last;
    std::int32_t finalValue = 0;
    std::vector<std::int32_t> out;
    std::size_t maxParked = 0;
};

constexpr unsigned kHotspotNodes = 64;
constexpr unsigned kHotspotOps = 16;

HotspotSlices
hotspotInSlices(int wake_sched)
{
    WakeGuard w(wake_sched);
    auto m = workloads::buildFaaHotspotMachine(kHotspotNodes, kHotspotOps,
                                               /*combining=*/true);
    HotspotSlices h;
    do {
        h.last = m->runFor(97);
        EXPECT_EQ(m->wakeQueueSize(), m->parkedNodes())
            << "stale or missing wake entries at cycle " << m->now();
        h.maxParked = std::max(h.maxParked, m->parkedNodes());
    } while (h.last.reason == StopReason::CycleLimit && m->now() < 2'000'000);
    h.finalValue = m->netops()->slotValue(0);
    h.out = workloads::outInts(*m, 0);
    return h;
}

// Every hotspot node parks on its fetch-and-add reply and the reply
// wakes it early. The queue must drop each early-woken entry at once:
// between run() calls it holds exactly one entry per parked node.
TEST(WakeQueue, HoldsOneEntryPerParkedNodeThroughHotspot)
{
    const HotspotSlices h = hotspotInSlices(1);
    EXPECT_EQ(h.last.reason, StopReason::AllHalted);
    EXPECT_EQ(h.finalValue,
              static_cast<std::int32_t>(kHotspotNodes * kHotspotOps));
    EXPECT_GT(h.maxParked, 0u);
    const std::uint64_t parks = counterValue(h.last.counters, "kernel.parks");
    const std::uint64_t early =
        counterValue(h.last.counters, "kernel.early_wakes");
    EXPECT_GT(early, 0u);
    EXPECT_LE(early, parks);
}

// The same sliced hotspot with the scheduler off: no node ever parks,
// and every architectural number matches the scheduler-on run.
TEST(WakeQueue, HotspotOffMatchesOn)
{
    const HotspotSlices on = hotspotInSlices(1);
    const HotspotSlices off = hotspotInSlices(0);
    EXPECT_EQ(off.maxParked, 0u);
    EXPECT_EQ(counterValue(off.last.counters, "kernel.parks"), 0u);
    EXPECT_EQ(on.last.cycles, off.last.cycles);
    EXPECT_EQ(on.last.reason, off.last.reason);
    EXPECT_EQ(on.finalValue, off.finalValue);
    EXPECT_EQ(on.out, off.out);
    ASSERT_EQ(on.last.counters.size(), off.last.counters.size());
    for (std::size_t i = 0; i < on.last.counters.size(); ++i) {
        const CounterSample &a = on.last.counters[i];
        ASSERT_EQ(a.name, off.last.counters[i].name);
        if (a.name.rfind("kernel.", 0) == 0)
            continue;  // the scheduler's own work accounting
        EXPECT_EQ(a.value, off.last.counters[i].value) << a.name;
    }
}

} // namespace
} // namespace jmsim
