/**
 * @file
 * In-network computing tests: combine-table hit/miss semantics, FAA
 * correctness under either NI arbitration policy, barrier-tree wave
 * determinism across host kernels, mid-barrier checkpoint round-trips,
 * cross-config restore rejection, and the event calendar's overflow
 * path (DESIGN.md §3k).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
#include "netops/netops.hh"
#include "runtime/jos.hh"
#include "trace/counter_registry.hh"
#include "workloads/driver.hh"
#include "workloads/innet.hh"

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

constexpr unsigned kNodes = 16;
constexpr unsigned kOpsPerNode = 8;
constexpr Cycle kRunLimit = 10'000'000;

/** Run a tree-barrier machine to completion; return (cycles, out[0]). */
struct BarrierRun
{
    Cycle cycles = 0;
    std::int32_t elapsed = 0;
    std::uint64_t waves = 0;
};

BarrierRun
runTreeBarrier(unsigned nodes, unsigned iterations)
{
    auto m = buildTreeBarrierMachine(nodes, iterations);
    const RunResult r = m->run(kRunLimit);
    BarrierRun out;
    EXPECT_EQ(r.reason, StopReason::AllHalted);
    out.cycles = r.cycles;
    const auto ints = outInts(*m, 0);
    EXPECT_EQ(ints.size(), 1u);
    if (!ints.empty())
        out.elapsed = ints[0];
    out.waves = m->netops()->waves();
    return out;
}

// Every node fetch-and-adds variable 0 K times and prints the sum and
// the last of the values it fetched. Without combining each value
// 0..N*K-1 is fetched exactly once, and which node got which one is
// the home memory's service order. Param +0: K.
const char *kFetchSource = R"(
boot:
    CALL A2, jos_init
    LDL A1, seg(APP_SCRATCH, 64)
    LD R0, [A1+0]
    ST [A1+10], R0          ; ops remaining
    MOVEI R0, 0
    ST [A1+11], R0          ; sum of fetched values
ops:
    MOVEI R0, 0
    MOVEI R1, 1
    MOVEI R2, 0
    CALL A2, nop_faa
    ST [A1+12], R0          ; last fetched value
    LD R1, [A1+11]
    ADD R1, R1, R0
    ST [A1+11], R1
    LD R0, [A1+10]
    ADDI R0, R0, #-1
    ST [A1+10], R0
    GTI R1, R0, #0
    BT R1, ops
    LD R0, [A1+11]
    OUT R0
    LD R0, [A1+12]
    OUT R0
    HALT
)";

constexpr unsigned kQueueNodes = 64;
constexpr unsigned kQueueOps = 4;

/** Uncombined hotspot behind a slow home memory: 64 requesters queue
 *  at one memory port @p mem_cycles apiece, so completions are
 *  scheduled thousands of cycles ahead — past the event calendar's
 *  ring. */
std::unique_ptr<JMachine>
buildSlowHomeMachine(std::uint32_t mem_cycles = 64)
{
    NetOpsConfig nops;
    nops.faa = true;
    nops.combining = false;
    nops.memCycles = mem_cycles;
    setNetOpsConfig(nops);
    auto m = buildMachine(kQueueNodes, "faafetch.jasm", kFetchSource);
    clearNetOpsConfig();
    for (NodeId id = 0; id < m->nodeCount(); ++id) {
        for (Addr a = jos::kAppScratchBase; a < 4096; ++a)
            m->pokeInt(id, a, 0);
    }
    pokeParamAll(*m, 0, static_cast<std::int32_t>(kQueueOps));
    return m;
}

/** Every node's OUT words, in node order. */
std::vector<std::int32_t>
allOuts(const JMachine &m)
{
    std::vector<std::int32_t> out;
    for (NodeId id = 0; id < m.nodeCount(); ++id) {
        const auto ints = outInts(m, id);
        out.insert(out.end(), ints.begin(), ints.end());
    }
    return out;
}

std::uint64_t
fnv(const std::vector<std::int32_t> &v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::int32_t x : v) {
        h ^= static_cast<std::uint32_t>(x);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over every counter's name and value except the kernel's own
 *  work accounting (kernel.*), which may grow new counters. */
std::uint64_t
counterFnv(const std::vector<CounterSample> &counters)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const CounterSample &c : counters) {
        if (c.name.rfind("kernel.", 0) == 0)
            continue;
        for (const char ch : c.name)
            mix(static_cast<unsigned char>(ch));
        for (unsigned i = 0; i < 8; ++i)
            mix((c.value >> (8 * i)) & 0xff);
    }
    return h;
}

} // namespace

TEST(NetOpsCombine, HotspotHitsAndCorrectTotal)
{
    const HotspotResult on = runFaaHotspot(kNodes, kOpsPerNode, true);
    EXPECT_GT(on.combineHits, 0u);
    EXPECT_EQ(on.finalValue,
              static_cast<std::int32_t>(kNodes * kOpsPerNode));
    // faa_ops counts every merged request at apply time, so the total
    // covers all N*K increments plus node 0's completion polls.
    EXPECT_GE(on.faaOps, static_cast<std::uint64_t>(kNodes * kOpsPerNode));
}

TEST(NetOpsCombine, OffMeansNoHitsAndHigherLatency)
{
    const HotspotResult off = runFaaHotspot(kNodes, kOpsPerNode, false);
    const HotspotResult on = runFaaHotspot(kNodes, kOpsPerNode, true);
    EXPECT_EQ(off.combineHits, 0u);
    EXPECT_EQ(off.finalValue, on.finalValue);
    // Combining merges hotspot requests in flight, so the serialized
    // home-memory bottleneck relaxes and per-op latency drops.
    EXPECT_LT(on.cyclesPerOp, off.cyclesPerOp);
}

TEST(NetOpsCombine, ResultIdenticalUnderEitherArbitration)
{
    const HotspotResult fixed = runFaaHotspot(kNodes, kOpsPerNode, true,
                                              false);
    const HotspotResult rr = runFaaHotspot(kNodes, kOpsPerNode, true, true);
    EXPECT_EQ(fixed.finalValue,
              static_cast<std::int32_t>(kNodes * kOpsPerNode));
    EXPECT_EQ(rr.finalValue, fixed.finalValue);
}

TEST(NetOpsBarrier, WaveCountMatchesIterations)
{
    const unsigned iters = 5;
    const BarrierRun r = runTreeBarrier(kNodes, iters);
    EXPECT_EQ(r.waves, iters);
    EXPECT_GT(r.elapsed, 0);
}

TEST(NetOpsBarrier, DeterministicAcrossKernels)
{
    const BarrierRun serial = runTreeBarrier(kNodes, 4);
    setSuperblock(0);
    setWakeScheduler(0);
    setNetScheduler(0);
    const BarrierRun plain = runTreeBarrier(kNodes, 4);
    setSuperblock(-1);
    setWakeScheduler(-1);
    setNetScheduler(-1);
    EXPECT_EQ(plain.cycles, serial.cycles);
    EXPECT_EQ(plain.elapsed, serial.elapsed);
    EXPECT_EQ(plain.waves, serial.waves);
}

TEST(NetOpsCkpt, MidBarrierRoundTripMatchesUninterrupted)
{
    const unsigned iters = 6;
    auto a = buildTreeBarrierMachine(kNodes, iters);

    // Advance until a release wave has happened AND tree events are in
    // flight: the image then carries a barrier caught mid-climb.
    while (a->netops()->waves() < 1 || a->netops()->idle()) {
        const RunResult r = a->runFor(1);
        ASSERT_NE(r.reason, StopReason::AllHalted);
        ASSERT_LT(a->now(), 200'000u);
    }
    ckpt::Snapshot snap;
    a->save(snap);
    const Cycle snapCycle = a->now();
    const RunResult full = a->run(kRunLimit);
    ASSERT_EQ(full.reason, StopReason::AllHalted);

    // Continue the restored machine under a different kernel mix.
    auto b = buildTreeBarrierMachine(kNodes, iters);
    b->setSuperblock(false);
    std::string err;
    ASSERT_TRUE(b->restore(snap, &err)) << err;
    EXPECT_EQ(b->now(), snapCycle);
    const RunResult cont = b->run(kRunLimit);

    EXPECT_EQ(cont.cycles, full.cycles);
    EXPECT_EQ(outInts(*b, 0), outInts(*a, 0));
    EXPECT_EQ(b->netops()->waves(), iters);

    // And the image itself is stable: save-restore-save round-trips.
    auto c = buildTreeBarrierMachine(kNodes, iters);
    ASSERT_TRUE(c->restore(snap, &err)) << err;
    ckpt::Snapshot second;
    c->save(second);
    EXPECT_EQ(snap.bytes, second.bytes);
}

TEST(NetOpsCkpt, MidHotspotRoundTripKeepsCombineState)
{
    auto a = buildFaaHotspotMachine(kNodes, kOpsPerNode, true);
    while (a->netops()->idle() || a->netops()->faaOps() == 0) {
        const RunResult r = a->runFor(1);
        ASSERT_NE(r.reason, StopReason::AllHalted);
        ASSERT_LT(a->now(), 200'000u);
    }
    ckpt::Snapshot snap;
    a->save(snap);
    const RunResult full = a->run(kRunLimit);
    ASSERT_EQ(full.reason, StopReason::AllHalted);

    auto b = buildFaaHotspotMachine(kNodes, kOpsPerNode, true);
    std::string err;
    ASSERT_TRUE(b->restore(snap, &err)) << err;
    const RunResult cont = b->run(kRunLimit);

    EXPECT_EQ(cont.cycles, full.cycles);
    EXPECT_EQ(b->netops()->slotValue(0),
              static_cast<std::int32_t>(kNodes * kOpsPerNode));
    EXPECT_EQ(b->netops()->combineHits(), a->netops()->combineHits());
    EXPECT_EQ(b->netops()->faaOps(), a->netops()->faaOps());
}

TEST(NetOpsCkpt, CrossConfigRestoreIsRejected)
{
    // Combining is architectural: an image saved with it on must not
    // restore into a machine with it off (or vice versa).
    auto a = buildFaaHotspotMachine(kNodes, kOpsPerNode, true);
    a->runFor(200);
    ckpt::Snapshot snap;
    a->save(snap);

    auto b = buildFaaHotspotMachine(kNodes, kOpsPerNode, false);
    std::string err;
    EXPECT_FALSE(b->restore(snap, &err));
    EXPECT_NE(err.find("configuration"), std::string::npos) << err;
    EXPECT_EQ(b->now(), 0u);

    // A netops image also refuses a netops-free machine of the same
    // mesh (different digest, and the section would be unparseable).
    auto c = buildFaaHotspotMachine(kNodes, kOpsPerNode, true);
    EXPECT_TRUE(c->restore(snap, &err)) << err;
}

// Golden for the calendar's overflow path, recorded on the binary-heap
// engine it replaced: same fetched values per node, same cycle count,
// same counters. The counter hash was re-recorded on the serial kernel:
// pool.capacity and pool.recycled depend on how many free lists the
// pool kept, and the old value came from a two-shard run.
TEST(NetOpsCalendar, OverflowRunMatchesHeapGolden)
{
    auto m = buildSlowHomeMachine();
    const RunResult r = m->run(kRunLimit);
    ASSERT_EQ(r.reason, StopReason::AllHalted);
    EXPECT_GT(m->netops()->calendarOverflows(), 0u)
        << "the run must push events past the calendar ring";

    const std::vector<std::int32_t> out = allOuts(*m);
    ASSERT_EQ(out.size(), 2u * kQueueNodes);
    std::int64_t total = 0;
    for (unsigned i = 0; i < kQueueNodes; ++i)
        total += out[2 * i];
    const std::int64_t n = kQueueNodes * kQueueOps;
    EXPECT_EQ(total, n * (n - 1) / 2) << "each value fetched once";
    EXPECT_EQ(m->netops()->slotValue(0), static_cast<std::int32_t>(n));

    EXPECT_EQ(r.cycles, 16786u);
    EXPECT_EQ(fnv(out), 16488533617757284221ull);
    EXPECT_EQ(m->counters().value("net.faa_ops"), 256u);
    EXPECT_EQ(m->counters().value("netops.reply_retries"), 0u);
    EXPECT_EQ(m->counters().value("proc.instructions"), 543248u);
    EXPECT_EQ(m->counters().value("proc.dispatches"), 256u);
    EXPECT_EQ(counterFnv(r.counters), 5958965940327870149ull);
}

// An image taken while events wait in the overflow heap round-trips
// byte for byte and continues to the uninterrupted result.
TEST(NetOpsCalendar, MidOverflowRoundTrip)
{
    auto a = buildSlowHomeMachine();
    while (a->netops()->calendarOverflows() < kQueueNodes / 2) {
        const RunResult r = a->runFor(1);
        ASSERT_NE(r.reason, StopReason::AllHalted);
        ASSERT_LT(a->now(), 200'000u);
    }
    a->runFor(100);
    ckpt::Snapshot snap;
    a->save(snap);
    const RunResult full = a->run(kRunLimit);
    ASSERT_EQ(full.reason, StopReason::AllHalted);

    auto b = buildSlowHomeMachine();
    std::string err;
    ASSERT_TRUE(b->restore(snap, &err)) << err;
    EXPECT_GT(b->netops()->calendarOverflows(), 0u)
        << "the image must carry events past the ring";
    ckpt::Snapshot second;
    b->save(second);
    EXPECT_EQ(snap.bytes, second.bytes);
    const RunResult cont = b->run(kRunLimit);
    EXPECT_EQ(cont.cycles, full.cycles);
    EXPECT_EQ(allOuts(*b), allOuts(*a));
    EXPECT_EQ(b->netops()->faaOps(), a->netops()->faaOps());
}

// Restore at the start of every gap between pending events over a
// stretch in which replies arrive and nodes issue again, while memory
// applies wait up to 12800 cycles ahead, past the ring. Each image is
// taken before its earliest pending event, and a restored node may
// issue before that event: the restored window must not start after
// the machine's cycle, or the new events share ring buckets with events
// a window later and those run 1024 cycles early.
TEST(NetOpsCalendar, RestoreBeforeEarliestEventContinuesExactly)
{
    constexpr std::uint32_t kMem = 200;
    auto full = buildSlowHomeMachine(kMem);
    const RunResult done = full->run(kRunLimit);
    ASSERT_EQ(done.reason, StopReason::AllHalted);
    const std::vector<std::int32_t> want = allOuts(*full);

    auto a = buildSlowHomeMachine(kMem);
    while (a->netops()->faaOps() < kQueueNodes) {
        ASSERT_NE(a->runFor(1).reason, StopReason::AllHalted);
    }
    ASSERT_GT(a->netops()->calendarOverflows(), 0u);
    const Cycle stop = a->now() + 8 * kMem;
    Cycle last_next = kNoNetOpsEvent;
    unsigned images = 0;
    while (a->now() < stop) {
        const Cycle next = a->netops()->nextEventCycle();
        if (next > a->now() + 1 && next != last_next) {
            last_next = next;
            images += 1;
            ckpt::Snapshot snap;
            a->save(snap);
            auto b = buildSlowHomeMachine(kMem);
            std::string err;
            ASSERT_TRUE(b->restore(snap, &err)) << err;
            const RunResult cont = b->run(kRunLimit);
            EXPECT_EQ(cont.cycles, done.cycles) << "restored at " << a->now();
            EXPECT_EQ(allOuts(*b), want) << "restored at " << a->now();
        }
        ASSERT_NE(a->runFor(1).reason, StopReason::AllHalted);
    }
    EXPECT_GE(images, 8u);
}
