/**
 * @file
 * Checkpoint round-trip tests: a machine restored from a snapshot must
 * continue bit-identically to the uninterrupted run — same final cycle
 * count, same counter-registry snapshot, same jtrace stream — across
 * every host execution strategy (wake scheduler, fabric scheduler and
 * superblocks on or off), because the image carries architectural
 * state only. The kernel wake queue is not in the image at all: a
 * restore rebuilds it from the parked flags and doze horizons. Plus
 * header rejection (bad magic, bad version, config digest mismatch)
 * and body-corruption detection (truncation, corrupt counts).
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

/** Counters that depend on pool free-list history, not architecture:
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

// Restore the sched-on image into every off-default strategy:
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

namespace
{

std::uint32_t
imageU32(const ckpt::Snapshot &snap, std::size_t at)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(snap.bytes.at(at + i)) << (8 * i);
    return v;
}

/** Restore @p snap with the u32 at @p at overwritten by 0xFFFFFFFF
 *  and return the FatalError message ("" if restore did not throw). */
std::string
restoreWithMaxCount(JMachine &m, const ckpt::Snapshot &snap, std::size_t at)
{
    ckpt::Snapshot bad = snap;
    for (unsigned i = 0; i < 4; ++i)
        bad.bytes.at(at + i) = 0xFF;
    try {
        m.restore(bad);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

// Count fields set to 0xFFFFFFFF in a valid image: restore must refuse
// each with the count check's FatalError before it sizes anything by
// the count (the
// pool's message count and a message's word count, then the netops
// request, free-list, event and combine-table counts). The offsets are
// found by walking the image layout, and each walk is checked against
// values the machine reports, so a mutation always hits its field.
TEST(CkptReject, OversizedCountsAreFatal)
{
    ckpt::Snapshot snap;
    auto a = fig4AtSnapPoint(snap);
    // Kernel section: header (16), then 52 bytes of counters before the
    // active-list length; then the list, and 11 bytes per node.
    const std::size_t activeAt = 16 + 52;
    const std::size_t msgCountAt =
        activeAt + 4 + 4 * std::size_t{imageU32(snap, activeAt)} + 11 * kNodes;
    const std::uint32_t msgCount = imageU32(snap, msgCountAt);
    ASSERT_GT(msgCount, 0u);
    const std::size_t wordCountAt = msgCountAt + 4 + 12;
    std::size_t at = msgCountAt + 4;
    for (std::uint32_t i = 0; i < msgCount; ++i)
        at += 16 + 5 * std::size_t{imageU32(snap, at + 12)} + 22;
    // The walk must land on the pool counters: allocs ... liveNow.
    const PoolStats ps = a->network().pool().stats();
    ASSERT_EQ(imageU32(snap, at), ps.allocs);
    ASSERT_EQ(imageU32(snap, at + 24), ps.liveNow);

    for (const std::size_t field : {msgCountAt, wordCountAt}) {
        auto b = buildFig4Machine(kNodes);
        EXPECT_NE(restoreWithMaxCount(*b, snap, field)
                      .find("count 4294967295 at offset " +
                            std::to_string(field)),
                  std::string::npos);
    }

    // The netops section closes the image. Run a combining hotspot until
    // a combine table holds an entry, then find the section's start from
    // its own size.
    constexpr unsigned kHotNodes = 64;
    auto h = buildFaaHotspotMachine(kHotNodes, 16, true);
    std::size_t reqsAt = 0, freeAt = 0, eventsAt = 0, tableAt = 0;
    while (tableAt == 0) {
        ASSERT_LT(h->runFor(1).reason, StopReason::AllHalted);
        ASSERT_LT(h->now(), 100'000u);
        h->save(snap);
        std::vector<MsgHandle> held;
        h->netops()->collectHandles(held);
        ckpt::HandleMap map;
        for (const MsgHandle m : held)
            map.toOrdinal.emplace(m, 0);
        ckpt::Writer section;
        h->netops()->save(section, map);
        const std::size_t start = snap.bytes.size() - section.buffer().size();
        reqsAt = start + 4 + 4 * std::size_t{imageU32(snap, start)};
        freeAt = reqsAt + 4 + 47 * std::size_t{imageU32(snap, reqsAt)};
        eventsAt = freeAt + 4 + 4 * std::size_t{imageU32(snap, freeAt)};
        const std::size_t nonemptyAt =
            eventsAt + 4 + 42 * std::size_t{imageU32(snap, eventsAt)} + 8 +
            16 * kHotNodes;
        std::size_t end = nonemptyAt + 4;
        for (std::uint32_t t = 0; t < imageU32(snap, nonemptyAt); ++t)
            end += 8 + 12 * std::size_t{imageU32(snap, end + 4)};
        // Barrier tree (9 bytes per node) and five u64 counters close
        // the section: the walk must account for every byte.
        ASSERT_EQ(end + 9 * kHotNodes + 40, snap.bytes.size());
        if (imageU32(snap, nonemptyAt) > 0)
            tableAt = nonemptyAt + 4 + 4;
    }
    ASSERT_GT(imageU32(snap, reqsAt), 0u);
    ASSERT_GT(imageU32(snap, tableAt), 0u);

    for (const std::size_t field : {reqsAt, freeAt, eventsAt, tableAt}) {
        auto b = buildFaaHotspotMachine(kHotNodes, 16, true);
        EXPECT_NE(restoreWithMaxCount(*b, snap, field)
                      .find("count 4294967295 at offset " +
                            std::to_string(field)),
                  std::string::npos);
    }
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

    // The same image continues identically with the scheduler off
    // (architectural counters only there).
    auto c = buildFaaHotspotMachine(kHotNodes, kHotOps, true);
    c->setWakeScheduler(false);
    ASSERT_TRUE(c->restore(snap, &err)) << err;
    EXPECT_EQ(c->wakeQueueSize(), c->parkedNodes());
    const RunResult other = c->run(kLimit);
    EXPECT_EQ(other.cycles, full.cycles);
    expectEqualCounters(full.counters, other.counters, true);
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
