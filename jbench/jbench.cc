/**
 * @file
 * jbench: one measured run of one benchmark workload, in a fresh process.
 *
 * This program boots the workload's machine through the public
 * `workloads::` API with the serial kernel (threads = 1), runs it to
 * completion (or to a fixed window), checks the answer against the C++
 * reference, and prints one JSON line of raw measurements: host
 * seconds around each call it makes into a layer (boot, run, validate,
 * save, restore), the run's KernelProfile buckets, and the
 * CounterRegistry snapshot. run.py starts many of these processes and
 * turns their lines into the benchmark's metrics; see README.md.
 *
 * Usage: jbench --workload NAME --seed N [--traced] [--corrupt]
 *               [--boot-only]
 *
 *   --traced   also turn on the jtrace rings for the measured run, then
 *              boot a second machine in the same process (warm boot),
 *              run it to half the measured run's cycles, and time
 *              save/restore of that snapshot.
 *   --corrupt  perturb the value each answer check reads, to prove the
 *              check fires (the line then reports ok = false).
 *   --boot-only  stop after the cold boot (more setup_s samples).
 *
 * Exit status: 0 when the answer check passed, 1 when it failed or the
 * run threw (the JSON line is still printed), 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
#include "machine/jmachine.hh"
#include "sim/host_timer.hh"
#include "workloads/apps.hh"
#include "workloads/driver.hh"
#include "workloads/innet.hh"
#include "workloads/micro.hh"

namespace
{

using namespace jmsim;
using Clock = std::chrono::steady_clock;

// Workload sizes. Changing any of these changes what every metric
// means, so they are fixed for the life of the benchmark.
constexpr unsigned kNodes = 512;               // 8 x 8 x 8
constexpr unsigned kQueens = 13;
constexpr unsigned kRadixKeys = 65536;
constexpr unsigned kRadixKeyBits = 28;
constexpr Cycle kSaturateWindow = 50'000;      // simulated cycles
constexpr unsigned kHotspotOpsPerNode = 1024;
constexpr Cycle kHotspotCycleLimit = 80'000'000;

/** One timed interval of this process, around a call into a layer. */
struct Span
{
    std::string name;
    int parent;     ///< index into the span list, -1 for the root
    double start;   ///< seconds since process start
    double end;
};

/** Spans kept in memory and written out with the result line. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    int
    open(const std::string &name, int parent)
    {
        spans_.push_back({name, parent, now(), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span @p id and return its duration in seconds. */
    double
    close(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        return s.end - s.start;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * A workload's machine at its run-ready state, with the cycle limit its
 * run() uses and the answer check. The check returns an empty string
 * when the machine's final state is right, else what was wrong.
 */
struct Booted
{
    std::unique_ptr<JMachine> machine;
    Cycle limit = 0;
    std::function<std::string(JMachine &, const RunResult &, bool corrupt)>
        check;
};

std::string
mismatch(const char *what, std::int64_t got, std::int64_t want)
{
    return std::string(what) + ": got " + std::to_string(got) +
           ", want " + std::to_string(want);
}

Booted
bootNQueens()
{
    workloads::NQueensConfig cfg;
    cfg.nodes = kNodes;
    cfg.queens = kQueens;
    workloads::PreparedApp app = workloads::prepareNQueens(cfg);
    Booted b;
    b.machine = std::move(app.machine);
    b.limit = app.cycleLimit;
    b.check = [](JMachine &m, const RunResult &r, bool corrupt) {
        if (r.reason == StopReason::CycleLimit)
            return std::string("nqueens hit the cycle limit");
        const auto out = workloads::outInts(m, 0);
        if (out.size() != 2)
            return std::string("nqueens printed no count");
        const std::int64_t got = out[0] + (corrupt ? 1 : 0);
        const auto want = static_cast<std::int64_t>(
            workloads::referenceNQueens(kQueens));
        return got == want ? std::string() : mismatch("nqueens count", got,
                                                      want);
    };
    return b;
}

Booted
bootRadix(std::uint32_t seed)
{
    workloads::RadixConfig cfg;
    cfg.nodes = kNodes;
    cfg.keys = kRadixKeys;
    cfg.keyBits = kRadixKeyBits;
    cfg.seed = seed;
    workloads::PreparedApp app = workloads::prepareRadixSort(cfg);
    Booted b;
    b.machine = std::move(app.machine);
    b.limit = app.cycleLimit;
    b.check = [cfg](JMachine &m, const RunResult &r, bool corrupt) {
        if (r.reason != StopReason::AllHalted)
            return std::string("radix did not halt on every node");
        // The sort ping-pongs between BUFA and BUFB once per 4-bit
        // digit pass, so an odd pass count leaves the keys in BUFB.
        const unsigned passes = (cfg.keyBits + cfg.digitBits - 1) /
                                cfg.digitBits;
        const Addr buf = static_cast<Addr>(
            m.program().symbol(passes % 2 ? "BUFB" : "BUFA"));
        const auto want = workloads::referenceSort(
            workloads::radixKeys(cfg.keys, cfg.keyBits, cfg.seed));
        const unsigned per_node = cfg.keys / cfg.nodes;
        for (unsigned rank = 0; rank < cfg.keys; ++rank) {
            std::int64_t got = m.peekInt(static_cast<NodeId>(rank / per_node),
                                         buf + rank % per_node);
            if (corrupt && rank == cfg.keys / 2)
                got ^= 1;
            if (got != static_cast<std::int64_t>(want[rank]))
                return mismatch(("radix key at rank " +
                                 std::to_string(rank)).c_str(),
                                got, want[rank]);
        }
        return std::string();
    };
    return b;
}

Booted
bootSaturate(std::uint32_t seed)
{
    Booted b;
    b.machine = workloads::buildFig4Machine(kNodes, seed);
    b.limit = kSaturateWindow;
    // No reference answer exists for random traffic, so the check is
    // conservation: every message an NI sent was delivered or is still
    // in the fabric, and every node made progress. run.py adds the
    // exact-repeat check of the counter signature per seed.
    b.check = [](JMachine &m, const RunResult &r, bool corrupt) {
        if (r.reason != StopReason::CycleLimit || r.cycles != kSaturateWindow)
            return std::string("saturate did not run its whole window");
        const CounterRegistry &reg = m.counters();
        // Sent messages not yet delivered are held by pool handles in
        // the sender's NI or in the fabric (one sighting per flit, so
        // deduplicate); handles of messages still being built do not
        // count as sent.
        std::vector<MsgHandle> held;
        for (NodeId id = 0; id < m.nodeCount(); ++id)
            m.node(id).collectHandles(held);
        m.network().collectHandles(held);
        std::sort(held.begin(), held.end());
        held.erase(std::unique(held.begin(), held.end()), held.end());
        std::int64_t in_flight = 0;
        for (const MsgHandle h : held)
            in_flight += m.network().pool().get(h).finalized ? 1 : 0;
        const auto sent =
            static_cast<std::int64_t>(reg.value("ni.messages_sent"));
        const auto accounted =
            static_cast<std::int64_t>(reg.value("net.messages_delivered")) +
            in_flight + (corrupt ? 1 : 0);
        if (sent != accounted)
            return mismatch("saturate messages delivered + in flight",
                            accounted, sent);
        for (NodeId id = 0; id < m.nodeCount(); ++id) {
            if (m.node(id).ni().stats().messagesSent == 0)
                return "saturate node " + std::to_string(id) +
                       " sent nothing";
        }
        return std::string();
    };
    return b;
}

Booted
bootHotspot()
{
    Booted b;
    b.machine = workloads::buildFaaHotspotMachine(kNodes, kHotspotOpsPerNode,
                                                  /*combining=*/true);
    b.limit = kHotspotCycleLimit;
    b.check = [](JMachine &m, const RunResult &r, bool corrupt) {
        if (r.reason == StopReason::CycleLimit)
            return std::string("hotspot hit the cycle limit");
        if (workloads::outInts(m, 0).size() != 1)
            return std::string("hotspot printed no elapsed time");
        const std::int64_t got = m.netops()->slotValue(0) + (corrupt ? 1 : 0);
        const std::int64_t want =
            static_cast<std::int64_t>(kNodes) * kHotspotOpsPerNode;
        return got == want ? std::string()
                           : mismatch("hotspot counter", got, want);
    };
    return b;
}

const char *const kWorkloads[] = {"nqueens_512", "radix_512",
                                  "saturate_512", "hotspot_512"};

/** Boot @p workload, one of kWorkloads. */
Booted
boot(const std::string &workload, std::uint32_t seed)
{
    if (workload == "nqueens_512")
        return bootNQueens();
    if (workload == "radix_512")
        return bootRadix(seed);
    if (workload == "saturate_512")
        return bootSaturate(seed);
    return bootHotspot();
}

/** FNV-1a over the stop cycle and every counter, name and value. */
std::uint64_t
signature(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    };
    mix(&r.cycles, sizeof r.cycles);
    for (const CounterSample &s : r.counters) {
        mix(s.name.data(), s.name.size());
        mix(&s.value, sizeof s.value);
    }
    return h;
}

/** Minimal JSON object writer for the one result line. */
class JsonLine
{
  public:
    void
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        raw(key, buf);
    }

    void
    count(const char *key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }

    void
    str(const char *key, const std::string &v)
    {
        raw(key, quote(v));
    }

    void
    boolean(const char *key, bool v)
    {
        raw(key, v ? "true" : "false");
    }

    /** Add @p key with an already-encoded JSON value. */
    void
    raw(const std::string &key, const std::string &json)
    {
        out_ += out_.empty() ? "{" : ",";
        out_ += quote(key) + ":" + json;
    }

    std::string
    finish() const
    {
        return out_.empty() ? "{}" : out_ + "}";
    }

    static std::string
    quote(const std::string &s)
    {
        std::string q = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                q += ' ';
            } else {
                q += c;
            }
        }
        return q + "\"";
    }

  private:
    std::string out_;
};

std::string
countersJson(const std::vector<CounterSample> &counters)
{
    JsonLine j;
    for (const CounterSample &s : counters)
        j.count(s.name.c_str(), s.value);
    return j.finish();
}

std::string
spansJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        JsonLine j;
        j.str("name", spans[i].name);
        j.raw("parent", std::to_string(spans[i].parent));
        j.num("start_s", spans[i].start);
        j.num("end_s", spans[i].end);
        if (i)
            out += ',';
        out += j.finish();
    }
    return out + "]";
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: jbench --workload "
                 "nqueens_512|radix_512|saturate_512|hotspot_512 "
                 "--seed N [--traced] [--corrupt] [--boot-only]\n");
    return 2;
}

/**
 * Boot, run and check one workload, writing its measurements into
 * @p j. Returns the answer-check failure, or an empty string.
 */
std::string
measure(const std::string &workload, std::uint32_t seed, bool traced,
        bool corrupt, bool boot_only, SpanLog &spans, JsonLine &j)
{
    const int root = spans.open("process", -1);

    int span = spans.open("boot.cold", root);
    Booted cold = boot(workload, seed);
    j.num("setup_s", spans.close(span));
    JMachine &m = *cold.machine;
    j.count("resolved_threads", m.resolvedThreads());
    if (m.resolvedThreads() != 1)
        return "machine resolved " + std::to_string(m.resolvedThreads()) +
               " kernel threads, not 1";
    if (boot_only) {
        spans.close(root);
        return "";
    }

    span = spans.open("run", root);
    const RunResult r = m.run(cold.limit);
    const double run_s = spans.close(span);

    span = spans.open("validate", root);
    std::string failure = cold.check(m, r, corrupt);
    j.num("validate_s", spans.close(span));

    const Histogram latency = m.network().latencyHistogram();
    j.num("run_s", run_s);
    j.count("sim_cycles", r.cycles);
    j.num("node_s", r.profile.nodeSeconds);
    j.num("net_s", r.profile.netSeconds);
    j.num("commit_s", r.profile.commitSeconds);
    j.count("stepped_cycles", r.profile.steppedCycles);
    j.count("skipped_cycles", r.profile.skippedCycles);
    j.count("footprint_bytes", r.footprintBytes);
    j.count("latency_p50", latency.count() ? latency.percentile(0.50) : 0);
    j.count("latency_p99", latency.count() ? latency.percentile(0.99) : 0);
    char sig[20];
    std::snprintf(sig, sizeof sig, "%016" PRIx64, signature(r));
    j.str("signature", sig);
    j.raw("counters", countersJson(r.counters));
    if (traced)
        j.count("trace_dropped", m.tracer() ? m.tracer()->dropped() : 0);
    cold.machine.reset();

    if (traced && failure.empty()) {
        span = spans.open("boot.warm", root);
        Booted warm = boot(workload, seed);
        j.num("warm_s", spans.close(span));

        span = spans.open("run.to_snapshot", root);
        warm.machine->run(r.cycles / 2);
        spans.close(span);

        ckpt::Snapshot image;
        span = spans.open("ckpt.save", root);
        warm.machine->save(image);
        j.num("save_s", spans.close(span));
        j.count("image_bytes", image.sizeBytes());

        std::string err;
        span = spans.open("ckpt.restore", root);
        const bool restored = warm.machine->restore(image, &err);
        j.num("restore_s", spans.close(span));
        if (!restored)
            failure = "snapshot restore refused: " + err;

        ckpt::Snapshot again;
        warm.machine->save(again);
        if (failure.empty() && again.bytes != image.bytes)
            failure = "snapshot changed across a save/restore round trip";
    }

    spans.close(root);
    return failure;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool traced = false;
    bool corrupt = false;
    bool boot_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end && *end == '\0';
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--corrupt") {
            corrupt = true;
        } else if (arg == "--boot-only") {
            boot_only = true;
        } else {
            return usage();
        }
    }
    bool known = false;
    for (const char *name : kWorkloads)
        known = known || workload == name;
    if (!have_seed || !known)
        return usage();

    // The first TSC read calibrates the host timer (a 5 ms spin); do it
    // before any timed span so the cold boot does not pay for it.
    hostTicksPerSecond();
    workloads::setSimThreads(1);
    if (traced) {
        TraceConfig trace;
        trace.enabled = true;
        workloads::setTraceConfig(trace);
    }

    JsonLine j;
    j.str("workload", workload);
    j.count("seed", seed);
    j.boolean("traced", traced);
    j.str("compiler", JBENCH_COMPILER);
    j.str("build_type", JBENCH_BUILD_TYPE);

    SpanLog spans;
    std::string failure;
    try {
        failure = measure(workload, static_cast<std::uint32_t>(seed), traced,
                          corrupt, boot_only, spans, j);
    } catch (const std::exception &e) {
        failure = std::string("exception: ") + e.what();
    }
    j.count("peak_rss_kb", peakRssKb());
    if (traced)
        j.raw("spans", spansJson(spans.spans()));
    j.boolean("ok", failure.empty());
    j.str("error", failure);
    std::printf("%s\n", j.finish().c_str());
    return failure.empty() ? 0 : 1;
}
