/**
 * @file
 * Tests for the event-driven fabric scheduler: nextEventCycle() is
 * exact on crafted in-flight configurations, a quiet fabric makes zero
 * router steps, the router-step accounting partitions routers x cycles
 * exactly, and — the hard invariant — a `--net-sched off` run is
 * bit-identical to an event-driven one.
 */

#include <gtest/gtest.h>

#include "net/mesh_network.hh"
#include "trace/counter_registry.hh"
#include "workloads/driver.hh"
#include "workloads/micro.hh"

namespace jmsim
{
namespace
{

using workloads::TrafficProbe;

struct NetGuard
{
    explicit NetGuard(int on) { workloads::setNetScheduler(on); }
    ~NetGuard() { workloads::setNetScheduler(-1); }
};

// ---------------------------------------------------------------------
// Crafted in-flight configurations on a bare mesh.
// ---------------------------------------------------------------------

/** Sink that can refuse delivery (wormhole back-pressure at the
 *  delivery port) and counts tails it accepted. */
class GateSink : public DeliverSink
{
  public:
    bool refuse = false;
    MeshNetwork *net = nullptr;
    unsigned tails = 0;

    bool canAcceptFlit(const Flit &) override { return !refuse; }

    void
    acceptFlit(const Flit &flit, Cycle now) override
    {
        Message &msg = net->pool().get(flit.msg);
        if (msg.tailAt(flit.index)) {
            ++tails;
            msg.deliverCycle = now;
            net->noteMessageDelivered(msg);
        }
    }
};

struct BareMesh
{
    explicit BareMesh(unsigned nodes)
        : dims(MeshDims::forNodeCount(nodes)), net(dims),
          sinks(dims.nodes())
    {
        for (NodeId id = 0; id < dims.nodes(); ++id) {
            sinks[id].net = &net;
            net.setDeliverSink(id, &sinks[id]);
        }
    }

    void
    inject(NodeId src, NodeId dest, unsigned words, Cycle &now)
    {
        const MsgHandle h = net.pool().alloc();
        Message &msg = net.pool().get(h);
        msg.src = src;
        msg.dest = dest;
        msg.destAddr = net.dims().toCoord(dest);
        msg.priority = 0;
        MsgHeader hdr;
        hdr.handlerIp = 0;
        hdr.length = words;
        msg.words.push_back(hdr.encode());
        for (unsigned i = 1; i < words; ++i)
            msg.words.push_back(Word::makeInt(static_cast<std::int32_t>(i)));
        msg.finalized = true;
        for (std::uint32_t i = 0; i < msg.flitCount(); ++i) {
            unsigned spins = 0;
            while (!net.canInject(src, 0)) {
                net.step(now++);
                ASSERT_LT(++spins, 5000u)
                    << "injection port never freed — fabric wedged";
            }
            Flit f;
            f.msg = h;
            f.index = i;
            f.vn = 0;
            f.tail = msg.tailAt(i);
            net.injectFlit(src, f);
        }
    }

    /** Step until the fabric compacts back to quiet (bounded). */
    void
    drain(Cycle &now)
    {
        unsigned spins = 0;
        while (net.anyActive()) {
            net.step(now++);
            ASSERT_LT(++spins, 5000u) << "fabric never drained";
        }
    }

    MeshDims dims;
    MeshNetwork net;
    std::vector<GateSink> sinks;
};

TEST(FabricNextEvent, QuietMeshHasNoEvent)
{
    BareMesh m(64);
    EXPECT_FALSE(m.net.anyActive());
    EXPECT_EQ(m.net.nextEventCycle(0), kNoFabricEvent);
    EXPECT_EQ(m.net.nextEventCycle(12345), kNoFabricEvent);
}

TEST(FabricNextEvent, InFlightFlitMeansNextCycle)
{
    BareMesh m(64);
    Cycle now = 0;
    m.inject(0, 63, 4, now);
    // From injection until the tail retires, the fabric must report
    // work next cycle — a conservative verdict on any intermediate
    // state (flit in a FIFO, in a channel register, or parked on the
    // back-pressure retry list) would let the machine skip a live
    // cycle.
    ASSERT_TRUE(m.net.anyActive());
    unsigned live_cycles = 0;
    while (m.sinks[63].tails == 0) {
        ASSERT_EQ(m.net.nextEventCycle(now), now + 1)
            << "fabric with in-flight flits must have an event next cycle";
        m.net.step(now++);
        ASSERT_LT(++live_cycles, 200u);
    }
    // Drain: after the tail is consumed the mesh compacts back to
    // quiet and the verdict flips to "no event".
    m.drain(now);
    EXPECT_EQ(m.net.nextEventCycle(now), kNoFabricEvent);
    EXPECT_FALSE(m.net.busy());
}

TEST(FabricNextEvent, BackPressuredFlitsKeepTheFabricLive)
{
    BareMesh m(64);
    Cycle now = 0;
    m.sinks[63].refuse = true;
    // Two worms to a refusing sink on disjoint approach ports: the
    // destination's input FIFOs fill, commits get refused (the
    // retry-list path), and the worms block in the fabric. The fabric
    // must stay live the whole time — a blocked worm is work waiting
    // on the sink. (Worms are kept short enough for the fabric's
    // buffering to absorb them whole; injection itself must not wedge.)
    m.inject(0, 63, 4, now);   // arrives on the +z port after 9 hops
    m.inject(62, 63, 2, now);  // arrives on the +x port after 1 hop
    for (unsigned i = 0; i < 100; ++i) {
        ASSERT_EQ(m.net.nextEventCycle(now), now + 1)
            << "back-pressured fabric must not report quiet";
        m.net.step(now++);
    }
    EXPECT_EQ(m.sinks[63].tails, 0u);
    m.sinks[63].refuse = false;
    m.drain(now);
    EXPECT_EQ(m.sinks[63].tails, 2u);
    EXPECT_EQ(m.net.nextEventCycle(now), kNoFabricEvent);
}

TEST(FabricNextEvent, LegacyModeTracksTheSameActivity)
{
    // The activity tracking (and so the next-event verdict) is shared
    // state, not an event-mode feature: the legacy scan keeps it too.
    BareMesh m(64);
    m.net.setEventDriven(false);
    Cycle now = 0;
    EXPECT_EQ(m.net.nextEventCycle(0), kNoFabricEvent);
    m.inject(0, 9, 4, now);
    EXPECT_EQ(m.net.nextEventCycle(now), now + 1);
    m.drain(now);
    EXPECT_EQ(m.sinks[9].tails, 1u);
    EXPECT_EQ(m.net.nextEventCycle(now), kNoFabricEvent);
}

// ---------------------------------------------------------------------
// Machine-level bit-identity: --net-sched off vs on.
// ---------------------------------------------------------------------

TrafficProbe
fig3At(unsigned nodes, Cycle window)
{
    return workloads::runFig3Traffic(nodes, 6, 40, window);
}

TrafficProbe
fig4At(unsigned nodes, Cycle window)
{
    return workloads::runFig4Load(nodes, window);
}

TrafficProbe
ringAt(unsigned nodes, Cycle window)
{
    return workloads::runSparseActivity(nodes, 8, window);
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
    EXPECT_EQ(a.netStats.bisectionFlitsPos, b.netStats.bisectionFlitsPos);
    EXPECT_EQ(a.netStats.bisectionFlitsNeg, b.netStats.bisectionFlitsNeg);
    EXPECT_EQ(a.niStats.messagesSent, b.niStats.messagesSent);
    EXPECT_EQ(a.niStats.sendFullEvents, b.niStats.sendFullEvents);
}

TEST(NetScheduler, Fig3OffMatchesOn)
{
    TrafficProbe on, off;
    {
        NetGuard g(1);
        on = fig3At(64, 2000);
    }
    {
        NetGuard g(0);
        off = fig3At(64, 2000);
    }
    EXPECT_GT(on.instructions, 0u);
    expectIdenticalRuns(on, off);
    // The pre-scheduler golden (see determinism_test.cc) holds both
    // ways: the fabric scheduler is a host-side strategy, not a model
    // change.
    EXPECT_EQ(on.run.cycles, 2000u);
    EXPECT_EQ(on.instructions, 93827u);
    EXPECT_EQ(on.netStats.messagesDelivered, 618u);
}

TEST(NetScheduler, Fig4SaturationOffMatchesOn)
{
    TrafficProbe on, off;
    {
        NetGuard g(1);
        on = fig4At(64, 2500);
    }
    {
        NetGuard g(0);
        off = fig4At(64, 2500);
    }
    expectIdenticalRuns(on, off);
    // Saturation golden (see determinism_test.cc).
    EXPECT_EQ(on.instructions, 100000u);
    EXPECT_EQ(on.netStats.messagesDelivered, 880u);
    EXPECT_EQ(on.netStats.wordsDelivered, 21120u);
}

TEST(NetScheduler, SparseRingOffMatchesOn)
{
    // The heterogeneous-activity shape of the BENCH fabric_quiet A/B
    // row: the event-driven fabric steps a few routers per ticked cycle.
    TrafficProbe on, off;
    {
        NetGuard g(1);
        on = ringAt(256, 10000);
    }
    {
        NetGuard g(0);
        off = ringAt(256, 10000);
    }
    EXPECT_GT(on.netStats.messagesDelivered, 0u);
    expectIdenticalRuns(on, off);
}

// ---------------------------------------------------------------------
// Router-step accounting.
// ---------------------------------------------------------------------

/** The partition invariant: every (router, cycle) pair was either
 *  visited or skipped, with nothing counted twice. */
void
expectExactStepAccounting(const TrafficProbe &p, unsigned nodes)
{
    const std::uint64_t steps =
        counterValue(p.run.counters, "net.router_steps");
    const std::uint64_t skipped =
        counterValue(p.run.counters, "net.skipped_router_steps");
    EXPECT_EQ(steps + skipped,
              static_cast<std::uint64_t>(nodes) * p.run.cycles);
}

TEST(NetScheduler, RouterStepInvariantExact)
{
    NetGuard g(1);
    const TrafficProbe fig4 = fig4At(64, 2500);
    expectExactStepAccounting(fig4, 64);
    EXPECT_GT(counterValue(fig4.run.counters, "net.router_steps"), 0u);

    // High-grain traffic: long compute phases, so most router steps
    // are skipped and whole fabric-quiet cycles are event-skipped.
    const TrafficProbe sparse = workloads::runFig3Traffic(64, 6, 2000, 4000);
    expectExactStepAccounting(sparse, 64);
    const std::uint64_t steps =
        counterValue(sparse.run.counters, "net.router_steps");
    const std::uint64_t skipped =
        counterValue(sparse.run.counters, "net.skipped_router_steps");
    EXPECT_GT(skipped, steps)
        << "high-grain traffic should skip more router steps than it makes";
    EXPECT_GT(counterValue(sparse.run.counters, "net.event_skipped_cycles"),
              0u);
}

TEST(NetScheduler, RouterStepInvariantHoldsWithSchedulerOff)
{
    // The legacy path keeps the same books: steps it makes are counted,
    // cycles its anyActive() early-out skips are event-skipped.
    NetGuard g(0);
    expectExactStepAccounting(fig4At(64, 2500), 64);
    expectExactStepAccounting(fig3At(64, 2000), 64);
}

TEST(NetScheduler, FabricQuietCostsZeroRouterSteps)
{
    // A machine whose nodes never send: every fabric cycle is quiet,
    // so the mesh makes no router steps at all — the step cost tracks
    // in-flight flits, not mesh size.
    auto m = workloads::buildMachine(
        64, "noop.jasm", "boot:\n    CALL A2, jos_init\n    SUSPEND\n");
    const RunResult r = m->runFor(20000);
    EXPECT_EQ(r.reason, StopReason::Quiescent);
    EXPECT_EQ(m->counters().value("net.router_steps"), 0u);
    EXPECT_EQ(m->counters().value("net.skipped_router_steps"),
              64u * m->now());
}

} // namespace
} // namespace jmsim
