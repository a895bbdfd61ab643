/**
 * @file
 * jtrace subsystem tests: ring wrap/drop accounting, canonical
 * collect() ordering, the counter registry, the Chrome trace-event
 * writer/parser (golden string + file round-trip), bit-identical
 * streams from repeat runs, and the latency reconstruction
 * guarantee (summarizeTrace vs the fabric's own histogram).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace/chrome_trace.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"
#include "workloads/driver.hh"
#include "workloads/micro.hh"

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

TraceEvent
makeEvent(Cycle cycle, std::uint32_t node, TraceKind kind,
          std::uint8_t arg8, std::uint64_t a0, std::uint64_t a1)
{
    TraceEvent ev;
    ev.cycle = cycle;
    ev.node = node;
    ev.kind = kind;
    ev.arg8 = arg8;
    ev.a0 = a0;
    ev.a1 = a1;
    return ev;
}

/** One traced fig3 run. */
TrafficProbe
tracedRun(Cycle window)
{
    TraceConfig tc;
    tc.enabled = true;
    setTraceConfig(tc);
    TrafficProbe p = runFig3Traffic(64, 6, 40, window);
    clearTraceConfig();
    return p;
}

} // namespace

TEST(TraceRingTest, WrapOverwritesOldestAndCountsDrops)
{
    TraceRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    for (Cycle c = 0; c < 10; ++c)
        ring.push(makeEvent(c, 1, TraceKind::Dispatch, 0, c, 0));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);

    std::vector<TraceEvent> out;
    ring.appendTo(out);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].cycle, 6 + i) << "slot " << i;

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    out.clear();
    ring.appendTo(out);
    EXPECT_TRUE(out.empty());
}

TEST(TracerTest, CollectSortsByCyclePhaseNode)
{
    TraceConfig tc;
    tc.enabled = true;
    Tracer tracer(tc);
    // Recorded deliberately out of canonical order. MsgRecv is a
    // move-phase (1) kind, Dispatch a node-phase (0) kind, IdleSkip a
    // kernel (2) kind.
    tracer.record(makeEvent(5, 9, TraceKind::MsgRecv, 0, 1, 0));
    tracer.record(makeEvent(5, 2, TraceKind::Dispatch, 0, 2, 0));
    tracer.record(makeEvent(3, 7, TraceKind::IdleSkip, 0, 3, 0));
    tracer.record(makeEvent(3, 1, TraceKind::MsgSend, 0, 4, 0));
    tracer.record(makeEvent(5, 2, TraceKind::MsgSend, 0, 5, 0));

    const std::vector<TraceEvent> got = tracer.collect();
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0].a0, 4u);  // cycle 3 phase 0
    EXPECT_EQ(got[1].a0, 3u);  // cycle 3 phase 2
    EXPECT_EQ(got[2].a0, 2u);  // cycle 5 phase 0 node 2
    EXPECT_EQ(got[3].a0, 5u);  // cycle 5 phase 0 node 2 (stable)
    EXPECT_EQ(got[4].a0, 1u);  // cycle 5 phase 1
    // collect() is non-destructive.
    EXPECT_EQ(tracer.collect().size(), 5u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, CategoryMaskFiltersKinds)
{
    TraceConfig tc;
    tc.enabled = true;
    tc.categories = kTraceCatNet;
    Tracer tracer(tc);
    EXPECT_TRUE(tracer.wants(TraceKind::FlitForward));
    EXPECT_TRUE(tracer.wants(TraceKind::FlitBlock));
    EXPECT_FALSE(tracer.wants(TraceKind::Dispatch));
    EXPECT_FALSE(tracer.wants(TraceKind::MsgSend));
    EXPECT_FALSE(tracer.wants(TraceKind::IdleSkip));
}

TEST(TraceKindTest, NamesRoundTrip)
{
    for (unsigned k = 0; k < kNumTraceKinds; ++k) {
        const TraceKind kind = static_cast<TraceKind>(k);
        TraceKind back;
        ASSERT_TRUE(traceKindFromName(traceKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    TraceKind out;
    EXPECT_FALSE(traceKindFromName("no.such.kind", out));

    std::uint32_t mask = 0;
    ASSERT_TRUE(parseTraceCategories("proc,net", mask));
    EXPECT_EQ(mask, kTraceCatProc | kTraceCatNet);
    ASSERT_TRUE(parseTraceCategories("all", mask));
    EXPECT_EQ(mask, kTraceCatAll);
    EXPECT_FALSE(parseTraceCategories("proc,bogus", mask));
}

TEST(CounterRegistryTest, SumsSourcesAndSnapshots)
{
    CounterRegistry reg;
    std::uint64_t a = 3, b = 4;
    reg.addCounter("x.same", &a);
    reg.addCounter("x.same", &b);
    reg.addCounter("a.callback", [] { return std::uint64_t{10}; });
    EXPECT_TRUE(reg.hasCounter("x.same"));
    EXPECT_FALSE(reg.hasCounter("x.other"));
    EXPECT_EQ(reg.value("x.same"), 7u);
    a = 30;
    EXPECT_EQ(reg.value("x.same"), 34u);  // pull model: live values

    const std::vector<CounterSample> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "a.callback");  // name-sorted
    EXPECT_EQ(snap[0].value, 10u);
    EXPECT_EQ(snap[1].name, "x.same");
    EXPECT_EQ(snap[1].value, 34u);
    EXPECT_EQ(counterValue(snap, "x.same"), 34u);
    EXPECT_EQ(counterValue(snap, "missing"), 0u);

    reg.addHistogram("h", [] {
        Histogram h{1, 8};
        h.add(2);
        h.add(4);
        return h;
    });
    const Histogram h = reg.histogram("h");
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), 4u);
}

TEST(ChromeTraceTest, GoldenJson)
{
    const std::vector<TraceEvent> events = {
        makeEvent(10, 3, TraceKind::Dispatch, 1, 100, 2),
        makeEvent(11, 3, TraceKind::QueueDepth, 0, 5, 1),
        makeEvent(20, kMachineTrack, TraceKind::IdleSkip, 0, 32, 0),
    };
    const char *golden =
        R"({"displayTimeUnit":"ms","otherData":{"droppedEvents":"7","cyclesPerUs":"1"},"traceEvents":[
{"name":"process_name","ph":"M","pid":3,"args":{"name":"node 3"}},
{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"proc"}},
{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"ni"}},
{"name":"thread_name","ph":"M","pid":3,"tid":2,"args":{"name":"router"}},
{"name":"process_name","ph":"M","pid":4294967295,"args":{"name":"machine"}},
{"name":"dispatch","ph":"i","ts":10,"dur":0,"pid":3,"tid":0,"args":{"k":0,"v":1,"a0":100,"a1":2}},
{"name":"queue.p0","ph":"C","ts":11,"pid":3,"args":{"words":5,"msgs":1}},
{"name":"idle.skip","ph":"X","ts":20,"dur":12,"pid":4294967295,"tid":0,"args":{"k":9,"v":0,"a0":32,"a1":0}}
]}
)";
    EXPECT_EQ(chromeTraceJson(events, 7), golden);
}

TEST(ChromeTraceTest, FileRoundTrip)
{
    const std::vector<TraceEvent> events = {
        makeEvent(10, 3, TraceKind::Dispatch, 1, 100, 2),
        makeEvent(11, 3, TraceKind::MsgSend, 0,
                  42, (std::uint64_t{17} << 32) | 6),
        makeEvent(15, 17, TraceKind::FlitForward, 4,
                  (std::uint64_t{3} << 32) | 42, 0),
        makeEvent(18, 17, TraceKind::MsgRecv, 0,
                  (std::uint64_t{3} << 32) | 42, 7),
        makeEvent(18, 17, TraceKind::QueueDepth, 1, 9, 2),
        makeEvent(20, kMachineTrack, TraceKind::IdleSkip, 0, 32, 0),
    };
    const std::string path =
        testing::TempDir() + "jmsim_trace_roundtrip.json";
    ASSERT_TRUE(writeChromeTrace(path, events, 5));

    ParsedTrace back;
    ASSERT_TRUE(parseChromeTrace(path, back));
    std::remove(path.c_str());
    EXPECT_EQ(back.dropped, 5u);
    ASSERT_EQ(back.events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_TRUE(back.events[i] == events[i]) << "event " << i;
}

TEST(ChromeTraceTest, ParseRejectsGarbage)
{
    const std::string path = testing::TempDir() + "jmsim_trace_bad.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace\n", f);
    std::fclose(f);
    ParsedTrace out;
    EXPECT_FALSE(parseChromeTrace(path, out));
    std::remove(path.c_str());
    EXPECT_FALSE(parseChromeTrace(path, out));  // missing file
}

TEST(TraceSummaryTest, MatchesSendsToRecvs)
{
    // node 1 sends seq 1 and 2; only seq 1 is delivered (to node 2);
    // one recv arrives with no matching send.
    const std::vector<TraceEvent> events = {
        makeEvent(5, 1, TraceKind::MsgSend, 0, 1,
                  (std::uint64_t{2} << 32) | 6),
        makeEvent(6, 1, TraceKind::MsgSend, 0, 2,
                  (std::uint64_t{2} << 32) | 6),
        makeEvent(12, 2, TraceKind::MsgRecv, 0,
                  (std::uint64_t{1} << 32) | 1, 7),
        makeEvent(14, 2, TraceKind::MsgRecv, 0,
                  (std::uint64_t{9} << 32) | 8, 3),
        makeEvent(30, kMachineTrack, TraceKind::IdleSkip, 0, 42, 0),
    };
    const TraceSummary s = summarizeTrace(events);
    EXPECT_EQ(s.firstCycle, 5u);
    EXPECT_EQ(s.lastCycle, 30u);
    EXPECT_EQ(s.countByKind[static_cast<unsigned>(TraceKind::MsgSend)], 2u);
    EXPECT_EQ(s.countByKind[static_cast<unsigned>(TraceKind::MsgRecv)], 2u);
    EXPECT_EQ(s.matchedMessages, 1u);
    EXPECT_EQ(s.unmatchedSends, 1u);
    EXPECT_EQ(s.unmatchedRecvs, 1u);
    EXPECT_EQ(s.latency.count(), 2u);
    EXPECT_EQ(s.latency.max(), 7u);
    EXPECT_EQ(s.idleSkippedCycles, 12u);
}

TEST(TraceDeterminism, RepeatRunsEmitIdenticalStreams)
{
    const TrafficProbe first = tracedRun(1200);
    ASSERT_EQ(first.traceDropped, 0u);
    ASSERT_FALSE(first.trace.empty());
    // The run must actually exercise the interesting kinds.
    const TraceSummary s = summarizeTrace(first.trace);
    EXPECT_GT(s.countByKind[static_cast<unsigned>(TraceKind::MsgSend)], 0u);
    EXPECT_GT(s.countByKind[static_cast<unsigned>(TraceKind::MsgRecv)], 0u);
    EXPECT_GT(s.countByKind[static_cast<unsigned>(TraceKind::Dispatch)], 0u);
    EXPECT_GT(
        s.countByKind[static_cast<unsigned>(TraceKind::FlitForward)], 0u);

    const TrafficProbe second = tracedRun(1200);
    ASSERT_EQ(second.trace.size(), first.trace.size());
    std::size_t first_mismatch = first.trace.size();
    for (std::size_t i = 0; i < first.trace.size(); ++i) {
        if (!(second.trace[i] == first.trace[i])) {
            first_mismatch = i;
            break;
        }
    }
    EXPECT_EQ(first_mismatch, first.trace.size())
        << "streams diverge at event " << first_mismatch;
}

TEST(TraceLatency, SummaryMatchesFabricHistogram)
{
    const TrafficProbe p = tracedRun(2000);
    ASSERT_EQ(p.traceDropped, 0u);
    const TraceSummary s = summarizeTrace(p.trace);

    // Every delivery emits exactly one msg.recv, and the summarizer's
    // histogram shares the fabric's {1-cycle, 1024-bucket} geometry, so
    // the reconstruction is exact (the PR's acceptance bound is 1 cycle).
    EXPECT_EQ(s.countByKind[static_cast<unsigned>(TraceKind::MsgRecv)],
              p.netStats.messagesDelivered);
    ASSERT_GT(p.netLatency.count(), 0u);
    ASSERT_EQ(s.latency.count(), p.netLatency.count());
    EXPECT_NEAR(s.latency.mean(), p.netLatency.mean(), 1.0);
    for (const double q : {0.50, 0.90, 0.99}) {
        EXPECT_NEAR(static_cast<double>(s.latency.percentile(q)),
                    static_cast<double>(p.netLatency.percentile(q)), 1.0)
            << "quantile " << q;
    }
    EXPECT_NEAR(static_cast<double>(s.latency.max()),
                static_cast<double>(p.netLatency.max()), 1.0);
    EXPECT_EQ(s.unmatchedRecvs, 0u);
}
