/**
 * @file
 * Checkpoint round-trip tests: a machine restored from a snapshot must
 * continue bit-identically to the uninterrupted run — same final cycle
 * count, same counter-registry snapshot, same jtrace stream — across
 * every host execution strategy (serial, threaded, wake scheduler and
 * superblocks on or off), because the image carries architectural
 * state only. The kernel wake queue is not in the image at all: a
 * restore rebuilds it from the parked flags and doze horizons. Plus
 * header rejection (bad magic, bad version, config digest mismatch)
 * and body-corruption detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
#include "sim/logging.hh"
#include "trace/counter_registry.hh"
#include "workloads/driver.hh"
#include "workloads/innet.hh"
#include "workloads/micro.hh"

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

/** Counters that depend on pool free-list sharding, not architecture:
 *  a restored pool starts from a compact rebuild, so its recycle
 *  count and slab capacity legitimately diverge. */
bool
poolHostCounter(const std::string &name)
{
    return name == "pool.recycled" || name == "pool.capacity";
}

/** Counters that measure the host execution strategy itself (kernel
 *  and fabric scheduler work accounting): equal for same-toggle runs,
 *  legitimately different across toggles. */
bool
strategyCounter(const std::string &name)
{
    return name.rfind("kernel.", 0) == 0 ||
           name == "net.router_steps" ||
           name == "net.skipped_router_steps" ||
           name == "net.event_skipped_cycles";
}

void
expectEqualCounters(const std::vector<CounterSample> &a,
                    const std::vector<CounterSample> &b,
                    bool architectural_only)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        if (poolHostCounter(a[i].name))
            continue;
        if (architectural_only && strategyCounter(a[i].name))
            continue;
        EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
    }
}

constexpr unsigned kNodes = 64;
constexpr Cycle kSnapCycle = 1200;   // mid-flight: fabric full of worms
constexpr Cycle kEndCycle = 2500;

/** Fig4 machine run to the snapshot point, plus its image. */
std::unique_ptr<JMachine>
fig4AtSnapPoint(ckpt::Snapshot &snap)
{
    auto m = buildFig4Machine(kNodes);
    m->run(kSnapCycle);
    m->save(snap);
    return m;
}

} // namespace

TEST(CkptFormat, SaveRestoreSaveIsBitIdentical)
{
    ckpt::Snapshot first;
    auto a = fig4AtSnapPoint(first);
    EXPECT_GT(first.sizeBytes(), 16u);

    auto b = buildFig4Machine(kNodes);
    std::string err;
    ASSERT_TRUE(b->restore(first, &err)) << err;
    EXPECT_EQ(b->now(), kSnapCycle);

    ckpt::Snapshot second;
    b->save(second);
    EXPECT_EQ(first.bytes, second.bytes);
}

TEST(CkptFormat, SnapshotFileRoundTrip)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const std::string path = "ckpt_test_image.jmck";
    ASSERT_TRUE(snap.writeFile(path));
    ckpt::Snapshot loaded;
    ASSERT_TRUE(loaded.readFile(path));
    std::remove(path.c_str());
    EXPECT_EQ(snap.bytes, loaded.bytes);
}

TEST(CkptRoundTrip, Fig4ContinuationMatchesUninterrupted)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const RunResult full = a->run(kEndCycle);

    auto b = buildFig4Machine(kNodes);
    ASSERT_TRUE(b->restore(snap));
    const RunResult cont = b->run(kEndCycle);

    EXPECT_EQ(full.cycles, cont.cycles);
    EXPECT_EQ(full.reason, cont.reason);
    expectEqualCounters(full.counters, cont.counters, false);
}

TEST(CkptRoundTrip, Fig4RestoresAcrossThreadCounts)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const RunResult full = a->run(kEndCycle);

    for (const unsigned threads : {2u, 4u}) {
        auto b = buildFig4Machine(kNodes);
        b->setThreads(threads);
        ASSERT_TRUE(b->restore(snap));
        const RunResult cont = b->run(kEndCycle);
        EXPECT_EQ(full.cycles, cont.cycles) << threads << " shards";
        expectEqualCounters(full.counters, cont.counters, false);
    }
}

// Restore the sched-on serial image into every off-default strategy:
// the image is architectural, so each continuation must land on the
// same architectural counters.
TEST(CkptRoundTrip, Fig4RestoresWithWakeSchedulerOff)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const RunResult full = a->run(kEndCycle);

    auto b = buildFig4Machine(kNodes);
    b->setWakeScheduler(false);
    b->setIdleSkip(false);
    ASSERT_TRUE(b->restore(snap));
    const RunResult cont = b->run(kEndCycle);
    EXPECT_EQ(full.cycles, cont.cycles);
    expectEqualCounters(full.counters, cont.counters, true);
}

TEST(CkptRoundTrip, Fig4RestoresWithSuperblockAndNetSchedulerOff)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const RunResult full = a->run(kEndCycle);

    auto b = buildFig4Machine(kNodes);
    b->setSuperblock(false);
    b->setNetScheduler(false);
    b->setThreads(2);
    ASSERT_TRUE(b->restore(snap));
    const RunResult cont = b->run(kEndCycle);
    EXPECT_EQ(full.cycles, cont.cycles);
    expectEqualCounters(full.counters, cont.counters, true);
}

TEST(CkptRoundTrip, ThreadedSnapshotRestoresIntoSerial)
{
    // Save out of a 4-shard machine mid-run, restore into a serial
    // one: the image must not depend on the saving side's sharding.
    auto a = buildFig4Machine(kNodes);
    a->setThreads(4);
    a->run(kSnapCycle);
    ckpt::Snapshot snap;
    a->save(snap);
    const RunResult full = a->run(kEndCycle);

    auto b = buildFig4Machine(kNodes);
    b->setThreads(1);
    ASSERT_TRUE(b->restore(snap));
    const RunResult cont = b->run(kEndCycle);
    EXPECT_EQ(full.cycles, cont.cycles);
    expectEqualCounters(full.counters, cont.counters, true);
}

TEST(CkptRoundTrip, TraceSuffixMatchesUninterrupted)
{
    TraceConfig tc;
    tc.enabled = true;
    setTraceConfig(tc);
    auto a = buildFig4Machine(kNodes);
    a->run(kSnapCycle);
    ckpt::Snapshot snap;
    a->save(snap);
    a->run(kEndCycle);
    std::vector<TraceEvent> fullTrace = a->tracer()->collect();

    auto b = buildFig4Machine(kNodes);
    clearTraceConfig();
    ASSERT_TRUE(b->restore(snap));
    b->run(kEndCycle);
    const std::vector<TraceEvent> contTrace = b->tracer()->collect();

    // The uninterrupted stream from the snapshot cycle onward must be
    // the restored machine's stream, event for event.
    fullTrace.erase(std::remove_if(fullTrace.begin(), fullTrace.end(),
                                   [](const TraceEvent &ev) {
                                       return ev.cycle < kSnapCycle;
                                   }),
                    fullTrace.end());
    ASSERT_FALSE(contTrace.empty());
    ASSERT_EQ(fullTrace.size(), contTrace.size());
    for (std::size_t i = 0; i < fullTrace.size(); ++i)
        EXPECT_TRUE(fullTrace[i] == contTrace[i]) << "event " << i;
}

TEST(CkptRoundTrip, RadixMidRunRestoreFinishesAndValidates)
{
    PreparedApp a;
    {
        RadixConfig c;
        c.nodes = 16;
        c.keys = 1024;
        a = prepareRadixSort(c);
    }
    a.machine->run(30000);  // mid-sort: tree and reorder traffic live
    ckpt::Snapshot snap;
    a.machine->save(snap);
    const AppResult full = finishApp(a);
    EXPECT_EQ(full.answer, 1024);

    // Finish the restored machine under a different strategy mix.
    RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    PreparedApp b = prepareRadixSort(c);
    b.machine->setThreads(4);
    b.machine->setWakeScheduler(false);
    ASSERT_TRUE(b.machine->restore(snap));
    const AppResult cont = finishApp(b);

    EXPECT_EQ(cont.answer, 1024);
    EXPECT_EQ(full.runCycles, cont.runCycles);
    EXPECT_EQ(full.instructions, cont.instructions);
    EXPECT_EQ(full.dispatches, cont.dispatches);
    EXPECT_EQ(full.idleCycles, cont.idleCycles);
    for (std::size_t cls = 0; cls < full.cyclesByClass.size(); ++cls)
        EXPECT_EQ(full.cyclesByClass[cls], cont.cyclesByClass[cls]);
}

// The fork-farm path: no snapshot at all — a booted machine runs a
// shared prefix under the default strategies, then a worker flips
// toggles on the live machine and finishes. The flip must re-home the
// strategy-private state (parked nodes onto the step list, undrained
// channel flits onto the legacy pull bits) or the continuation
// diverges.
TEST(CkptRoundTrip, LiveToggleFlipMatchesUninterrupted)
{
    RadixConfig c;
    c.nodes = 16;
    c.keys = 1024;
    PreparedApp a = prepareRadixSort(c);
    const AppResult full = finishApp(a);

    PreparedApp b = prepareRadixSort(c);
    b.machine->run(30000);
    b.machine->setWakeScheduler(false);
    b.machine->setNetScheduler(false);
    b.machine->setSuperblock(false);
    const AppResult cont = finishApp(b);

    EXPECT_EQ(full.answer, cont.answer);
    EXPECT_EQ(full.runCycles, cont.runCycles);
    EXPECT_EQ(full.instructions, cont.instructions);
    EXPECT_EQ(full.dispatches, cont.dispatches);
    EXPECT_EQ(full.idleCycles, cont.idleCycles);
}

TEST(CkptReject, BadMagicLeavesMachineUntouched)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    ckpt::Snapshot bad = snap;
    bad.bytes[0] ^= 0xFF;

    auto b = buildFig4Machine(kNodes);
    std::string err;
    EXPECT_FALSE(b->restore(bad, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_EQ(b->now(), 0u);
    // The untouched machine still accepts the good image.
    EXPECT_TRUE(b->restore(snap, &err)) << err;
    EXPECT_EQ(b->now(), kSnapCycle);
}

TEST(CkptReject, VersionMismatch)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    snap.bytes[4] += 1;

    auto b = buildFig4Machine(kNodes);
    std::string err;
    EXPECT_FALSE(b->restore(snap, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_EQ(b->now(), 0u);
}

TEST(CkptReject, ConfigDigestMismatch)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);

    // A different mesh (and so a different machine) must refuse the
    // image at the header, before touching any state.
    auto b = buildFig4Machine(8);
    std::string err;
    EXPECT_FALSE(b->restore(snap, &err));
    EXPECT_NE(err.find("configuration"), std::string::npos) << err;
    EXPECT_EQ(b->now(), 0u);
}

TEST(CkptReject, TruncatedHeader)
{
    ckpt::Snapshot tiny;
    tiny.bytes.assign(8, 0);
    auto b = buildFig4Machine(8);
    std::string err;
    EXPECT_FALSE(b->restore(tiny, &err));
    EXPECT_EQ(b->now(), 0u);
}

TEST(CkptReject, TruncatedBodyIsFatal)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    snap.bytes.resize(snap.bytes.size() / 2);

    auto b = buildFig4Machine(kNodes);
    EXPECT_THROW(b->restore(snap), FatalError);
}

TEST(CkptReject, TrailingGarbageIsFatal)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    snap.bytes.push_back(0);

    auto b = buildFig4Machine(kNodes);
    EXPECT_THROW(b->restore(snap), FatalError);
}

// Fuzz-lite: a valid image truncated at every 64-byte boundary must be
// refused cleanly — restore() returns false (header cuts) or throws a
// recoverable FatalError (body cuts) — and must never read out of
// bounds or corrupt the machine beyond re-restoring. The ubsan preset
// runs this same binary, so decode-side UB trips there.
TEST(CkptReject, TruncationAtEveryBlockBoundaryIsClean)
{
    ckpt::Snapshot snap;
    auto a = buildFig4Machine(4);
    a->run(600);
    a->save(snap);

    auto b = buildFig4Machine(4);
    std::string err;
    for (std::size_t cut = 0; cut < snap.bytes.size(); cut += 64) {
        ckpt::Snapshot trunc;
        trunc.bytes.assign(snap.bytes.begin(), snap.bytes.begin() + cut);
        bool ok = true;
        try {
            ok = b->restore(trunc, &err);
        } catch (const FatalError &) {
            continue; // body cut: detected and reported
        }
        EXPECT_FALSE(ok) << "truncated image accepted at byte " << cut;
    }
    // Whatever the truncated attempts did, the full image still lands.
    ASSERT_TRUE(b->restore(snap, &err)) << err;
    EXPECT_EQ(b->now(), 600u);
}

// A mid-hotspot image taken while nodes are parked on their fetch-and-
// add replies, after many parks were already cut short by a reply.
// The saver's wake-queue array reflects that history; the restorer
// rebuilds its queue from the parked flags in a different array order.
// Neither may show in the image or in the continuation.
TEST(CkptWakeQueue, MidHotspotParkedImageRoundTrips)
{
    constexpr unsigned kHotNodes = 64;
    constexpr unsigned kHotOps = 16;
    constexpr Cycle kLimit = 2'000'000;
    auto a = buildFaaHotspotMachine(kHotNodes, kHotOps, true);
    while (a->parkedNodes() < kHotNodes / 2 ||
           a->counters().value("kernel.early_wakes") < kHotNodes) {
        const RunResult r = a->runFor(1);
        ASSERT_NE(r.reason, StopReason::AllHalted);
        ASSERT_LT(a->now(), 100'000u);
    }
    const std::size_t parked = a->parkedNodes();
    ckpt::Snapshot snap;
    a->save(snap);
    const RunResult full = a->run(kLimit);
    ASSERT_EQ(full.reason, StopReason::AllHalted);

    auto b = buildFaaHotspotMachine(kHotNodes, kHotOps, true);
    std::string err;
    ASSERT_TRUE(b->restore(snap, &err)) << err;
    EXPECT_EQ(b->parkedNodes(), parked);
    EXPECT_EQ(b->wakeQueueSize(), parked);
    ckpt::Snapshot second;
    b->save(second);
    EXPECT_EQ(snap.bytes, second.bytes);

    const RunResult cont = b->run(kLimit);
    EXPECT_EQ(cont.cycles, full.cycles);
    EXPECT_EQ(cont.reason, full.reason);
    EXPECT_EQ(outInts(*b, 0), outInts(*a, 0));
    expectEqualCounters(full.counters, cont.counters, false);

    // The same image continues identically on the sharded kernel and
    // with the scheduler off (architectural counters only there).
    for (const bool sched : {true, false}) {
        auto c = buildFaaHotspotMachine(kHotNodes, kHotOps, true);
        c->setThreads(4);
        c->setWakeScheduler(sched);
        ASSERT_TRUE(c->restore(snap, &err)) << err;
        EXPECT_EQ(c->wakeQueueSize(), c->parkedNodes());
        const RunResult other = c->run(kLimit);
        EXPECT_EQ(other.cycles, full.cycles) << "sched " << sched;
        expectEqualCounters(full.counters, other.counters, true);
    }
}

// A v2 image (it carried the wake queue array) is refused at the
// header, leaving the machine untouched.
TEST(CkptReject, VersionTwoImageIsRefused)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    const std::uint32_t v2 = 2;
    for (unsigned i = 0; i < 4; ++i)
        snap.bytes[4 + i] = static_cast<std::uint8_t>(v2 >> (8 * i));

    auto b = buildFig4Machine(kNodes);
    std::string err;
    EXPECT_FALSE(b->restore(snap, &err));
    EXPECT_NE(err.find("version 2"), std::string::npos) << err;
    EXPECT_EQ(b->now(), 0u);
    EXPECT_EQ(b->parkedNodes(), 0u);
}
