/**
 * @file
 * Host-side performance harness for the simulation kernel itself: runs
 * a fixed workload mix (fig3 random traffic, fig4 saturation load,
 * radix sort) at several machine sizes, best of three runs per point,
 * and reports simulated-instructions-per-host-second. Every row runs
 * the serial kernel, so the JSON `threads` column is always 1 (kept so
 * old baselines still parse). Each traffic row also carries the kernel's phase
 * breakdown (node/net/commit host seconds), the message-pool counters,
 * the machine's audited simulator-state bytes (footprint_bytes), and
 * the process peak RSS. Emits `BENCH_host_perf.json` next to the
 * working directory for tooling.
 *
 * Four scheduler rows ride along: sparse_ring (a token ring over eight
 * hot nodes of a 4096-node mesh while every other node poll-spins,
 * wake scheduler on) against sparse_ring_nosched (same workload,
 * scheduler off) — the A/B proof that kernel cost tracks active nodes
 * — fabric_quiet against fabric_quiet_nosched (same ring, the
 * *network* scheduler as the knob — the A/B proof that mesh step cost
 * tracks in-flight flits) — and a timeout-bounded 4096-node (16x16x16)
 * fig3 smoke row that pins the large-mesh footprint.
 *
 * `--check <baseline.json>` runs a small perf-smoke instead: the
 * 64-node serial workloads, best of three, compared against the
 * committed BENCH_host_perf.json. A drop of more than 20% in
 * sim-instructions/host-second against the baseline fails the run, as
 * does a >20% growth of a row's fabric phase (net_sec + commit_sec)
 * or of the 4096-node fig3 footprint over its baseline row
 * (registered in ctest as `perf_smoke`).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "ckpt/snapshot.hh"
#include "sim/run_result_json.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"
#include "workloads/driver.hh"
#include "workloads/micro.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

struct Sample
{
    std::string workload;
    unsigned nodes = 0;
    unsigned threads = 1;  ///< always 1: the kernel is serial
    double hostSeconds = 0;
    Cycle simCycles = 0;
    std::uint64_t simInstructions = 0;
    double speedup = 1.0;
    KernelProfile profile;  ///< phase breakdown (traffic workloads)
    // Message-pool counters (traffic workloads), read back from the
    // run's counter-registry snapshot.
    std::uint64_t poolLiveHighWater = 0;
    std::uint64_t poolAllocs = 0;
    std::uint64_t poolRecycled = 0;
    std::uint64_t footprintBytes = 0;  ///< audited simulator-state bytes
    /** Process-lifetime peak RSS at sample time. Cumulative, not
     *  per-run: getrusage reports a high-water mark that never falls,
     *  so rows sampled later in the process are >= earlier rows (and
     *  same-sized workloads report the same value). Useful as a
     *  whole-bench memory ceiling, not as a per-row footprint — that
     *  is what footprintBytes audits. */
    std::uint64_t peakRssBytes = 0;
    double bootSeconds = 0;  ///< host seconds booting before cycle 0

    double
    instrPerHostSec() const
    {
        return hostSeconds > 0 ? simInstructions / hostSeconds : 0;
    }

    RunRow
    toRow() const
    {
        RunRow row;
        row.workload = workload;
        row.nodes = nodes;
        row.threads = threads;
        row.hostSeconds = hostSeconds;
        row.simCycles = simCycles;
        row.simInstructions = simInstructions;
        row.speedup = speedup;
        row.nodeSec = profile.nodeSeconds;
        row.netSec = profile.netSeconds;
        row.commitSec = profile.commitSeconds;
        row.netopsSec = profile.netopsSeconds;
        row.poolLiveHighWater = poolLiveHighWater;
        row.poolAllocs = poolAllocs;
        row.poolRecycled = poolRecycled;
        row.footprintBytes = footprintBytes;
        row.peakRssBytes = peakRssBytes;
        row.bootSec = bootSeconds;
        return row;
    }
};

/** Process peak resident-set size, in bytes (0 where unsupported). */
std::uint64_t
peakRssBytes()
{
#if defined(__APPLE__)
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#else
    return 0;
#endif
}

/** peakRssBytes() with its invariant enforced: the kernel's high-water
 *  mark is monotone over the process lifetime, so a sample below an
 *  earlier one means the probe (or its unit scaling) broke. */
std::uint64_t
samplePeakRss()
{
    static std::uint64_t last = 0;
    const std::uint64_t now = peakRssBytes();
    if (now < last)
        std::fprintf(stderr,
                     "peak_rss_bytes went backwards (%llu -> %llu): "
                     "the probe is broken\n",
                     static_cast<unsigned long long>(last),
                     static_cast<unsigned long long>(now));
    last = std::max(last, now);
    return now;
}

Sample
fromProbe(const char *workload, unsigned nodes, const TrafficProbe &p)
{
    Sample s;
    s.workload = workload;
    s.nodes = nodes;
    s.hostSeconds = p.hostSeconds;
    s.simCycles = p.run.cycles;
    s.simInstructions = p.instructions;
    s.profile = p.run.profile;
    s.poolLiveHighWater = counterValue(p.run.counters, "pool.live_high_water");
    s.poolAllocs = counterValue(p.run.counters, "pool.allocs");
    s.poolRecycled = counterValue(p.run.counters, "pool.recycled");
    s.footprintBytes = p.run.footprintBytes;
    s.peakRssBytes = samplePeakRss();
    s.bootSeconds = p.bootSeconds;
    return s;
}

/** Heterogeneous-activity token ring (runSparseActivity): a handful
 *  of hot nodes keep the fabric busy while thousands sit in a poll
 *  spin — the sparse-activity workload the wake scheduler exists for,
 *  sampled with the scheduler on or off for the A/B rows. */
Sample
sampleSparse(unsigned nodes, Cycle window, bool sched_on)
{
    setWakeScheduler(sched_on ? 1 : 0);
    const TrafficProbe p = runSparseActivity(nodes, 8, window);
    setWakeScheduler(-1);
    return fromProbe(sched_on ? "sparse_ring" : "sparse_ring_nosched",
                     nodes, p);
}

/** The same token ring, but the A/B knob is the *fabric* scheduler:
 *  wake scheduling stays at its default so node cost is identical in
 *  both rows, and the gap isolates the event-driven mesh stepping
 *  (next-event skip, fused commit+push, serial fast path). */
Sample
sampleFabricQuiet(unsigned nodes, Cycle window, bool sched_on)
{
    setNetScheduler(sched_on ? 1 : 0);
    const TrafficProbe p = runSparseActivity(nodes, 8, window);
    setNetScheduler(-1);
    return fromProbe(sched_on ? "fabric_quiet" : "fabric_quiet_nosched",
                     nodes, p);
}

Sample
sampleTraffic(unsigned nodes, Cycle window)
{
    return fromProbe("fig3_traffic", nodes,
                     runFig3Traffic(nodes, 8, 80, window));
}

Sample
sampleTrafficTraced(unsigned nodes, Cycle window)
{
    TraceConfig tc;
    tc.enabled = true;
    setTraceConfig(tc);
    const TrafficProbe p = runFig3Traffic(nodes, 8, 80, window);
    clearTraceConfig();
    return fromProbe("fig3_traffic_traced", nodes, p);
}

Sample
sampleFig4(unsigned nodes, Cycle window)
{
    return fromProbe("fig4_load", nodes, runFig4Load(nodes, window));
}

Sample
sampleRadix(unsigned nodes, unsigned keys)
{
    RadixConfig c;
    c.nodes = nodes;
    c.keys = keys;
    const auto t0 = std::chrono::steady_clock::now();
    const AppResult r = runRadixSort(c);
    const auto t1 = std::chrono::steady_clock::now();
    Sample s;
    s.workload = "radix_sort";
    s.nodes = nodes;
    s.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    s.simCycles = r.runCycles;
    s.simInstructions = r.instructions;
    s.profile = r.profile;
    s.poolLiveHighWater = counterValue(r.counters, "pool.live_high_water");
    s.poolAllocs = counterValue(r.counters, "pool.allocs");
    s.poolRecycled = counterValue(r.counters, "pool.recycled");
    s.footprintBytes = r.footprintBytes;
    s.peakRssBytes = samplePeakRss();
    s.bootSeconds = r.bootSeconds;
    return s;
}

/** Shared toggle tuple of one sweep variant (defaults = machine
 *  defaults; every field is applied on every job so variants never
 *  leak into each other through a reused machine). */
struct SweepVariant
{
    const char *tag;
    bool wakeScheduler = true;
    bool netScheduler = true;
    bool superblock = true;
};

constexpr SweepVariant kSweepVariants[] = {
    {"default"},
    {"nosched", false},
    {"nosb", true, true, false},
};

/** One boot group of the farm sweep: a workload size plus the
 *  warmup prefix its variants share (parked near the end of the run,
 *  where the amortization headroom is). */
struct SweepGroup
{
    const char *workload;
    Cycle warmup;
};

constexpr SweepGroup kSweepGroups[] = {
    {"radix_sort", 59000},   // full run 61436 cycles at 16/1024
    {"nqueens", 27000},      // full run 28575 cycles at 16 nodes, 8 queens
    {"tsp", 205000},         // full run 208489 cycles at 16 nodes, 8 cities
};

constexpr double kSweepJobs =
    std::size(kSweepGroups) * std::size(kSweepVariants);

PreparedApp
prepareSweepApp(const char *workload)
{
    if (workload == std::string("radix_sort")) {
        RadixConfig c;
        c.nodes = 16;
        c.keys = 1024;
        return prepareRadixSort(c);
    }
    if (workload == std::string("nqueens")) {
        NQueensConfig c;
        c.nodes = 16;
        c.queens = 8;
        return prepareNQueens(c);
    }
    TspConfig c;
    c.nodes = 16;
    c.cities = 8;
    return prepareTsp(c);
}

void
applySweepVariant(JMachine &m, const SweepVariant &v)
{
    m.setWakeScheduler(v.wakeScheduler);
    m.setNetScheduler(v.netScheduler);
    m.setSuperblock(v.superblock);
}

/**
 * The 9-job config sweep (3 workload groups x 3 toggle variants),
 * run two ways: cold boots every job from scratch (what the sweep
 * scripts used to do); farm boots each group once, advances it
 * through the shared warmup prefix, checkpoints, and restores the
 * image per variant — the in-process equivalent of what
 * `tools/jrun_server` does with fork(). The farm row's speedup column
 * is the end-to-end win over the cold row.
 */
Sample
sampleSweep(bool farm)
{
    Sample s;
    s.workload = farm ? "sweep_farm" : "sweep_cold";
    s.nodes = 16;
    const auto t0 = std::chrono::steady_clock::now();
    for (const SweepGroup &group : kSweepGroups) {
        if (!farm) {
            for (const SweepVariant &v : kSweepVariants) {
                PreparedApp app = prepareSweepApp(group.workload);
                s.bootSeconds += app.bootSeconds;
                applySweepVariant(*app.machine, v);
                const AppResult r = finishApp(app);
                s.simCycles += r.runCycles;
                s.simInstructions += r.instructions;
            }
            continue;
        }
        PreparedApp app = prepareSweepApp(group.workload);
        s.bootSeconds += app.bootSeconds;
        app.machine->run(group.warmup);
        ckpt::Snapshot image;
        app.machine->save(image);
        bool first = true;
        for (const SweepVariant &v : kSweepVariants) {
            std::string err;
            if (!first && !app.machine->restore(image, &err)) {
                std::fprintf(stderr, "sweep restore failed: %s\n",
                             err.c_str());
                std::exit(2);
            }
            first = false;
            applySweepVariant(*app.machine, v);
            const AppResult r = finishApp(app);
            s.simCycles += r.runCycles;
            s.simInstructions += r.instructions;
        }
    }
    s.hostSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    s.peakRssBytes = samplePeakRss();
    return s;
}

void
writeJson(const std::vector<Sample> &samples, unsigned hw)
{
    std::FILE *f = std::fopen("BENCH_host_perf.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_host_perf.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n  \"samples\": [\n",
                 hw);
    // Sample lines use the shared run-result schema (see
    // sim/run_result_json.hh) that jrun_server streams too; the rigid
    // readBaseline() parser below matches its leading prefix.
    for (std::size_t i = 0; i < samples.size(); ++i)
        std::fprintf(f, "    %s%s\n", runRowJson(samples[i].toRow()).c_str(),
                     i + 1 < samples.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

/** One baseline sample parsed back out of BENCH_host_perf.json. */
struct BaselineEntry
{
    char workload[32] = {};
    unsigned nodes = 0;
    unsigned threads = 0;
    double rate = 0;
    std::uint64_t footprintBytes = 0;  ///< 0 in pre-footprint baselines
    double fabricSec = -1;  ///< net_sec + commit_sec; -1 in old baselines
};

/**
 * Parse the samples of a BENCH_host_perf.json written by writeJson().
 * Deliberately rigid: one sample per line, fields in the writer's
 * order — this reads our own artifact, not arbitrary JSON.
 */
std::vector<BaselineEntry>
readBaseline(const char *path)
{
    std::vector<BaselineEntry> entries;
    std::FILE *f = std::fopen(path, "r");
    if (!f)
        return entries;
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
        BaselineEntry e;
        double secs = 0;
        unsigned long long cycles = 0, instr = 0;
        if (std::sscanf(line,
                        " {\"workload\": \"%31[^\"]\", \"nodes\": %u, "
                        "\"threads\": %u, \"host_seconds\": %lf, "
                        "\"sim_cycles\": %llu, \"sim_instructions\": %llu, "
                        "\"instr_per_host_sec\": %lf",
                        e.workload, &e.nodes, &e.threads, &secs, &cycles,
                        &instr, &e.rate) == 7) {
            // Appended fields are located by name so the prefix parse
            // above keeps accepting pre-footprint baselines.
            unsigned long long fp = 0;
            if (const char *at = std::strstr(line, "\"footprint_bytes\": "))
                std::sscanf(at, "\"footprint_bytes\": %llu", &fp);
            e.footprintBytes = fp;
            double net = -1, commit = 0;
            if (const char *at = std::strstr(line, "\"net_sec\": "))
                std::sscanf(at, "\"net_sec\": %lf", &net);
            if (const char *at = std::strstr(line, "\"commit_sec\": "))
                std::sscanf(at, "\"commit_sec\": %lf", &commit);
            e.fabricSec = net >= 0 ? net + commit : -1;
            entries.push_back(e);
        }
    }
    std::fclose(f);
    return entries;
}

/**
 * Perf smoke: rerun the 64-node serial workloads at the default scale
 * (same parameters the committed baseline was generated with), best of
 * three to ride out host noise, and fail on a drop below @p floor of
 * the baseline's sim-instructions/host-second (default 0.8, i.e. a
 * >20% regression; CI on shared runners passes a relaxed --floor).
 */
int
runCheck(const char *baseline_path, double floor)
{
    const std::vector<BaselineEntry> base = readBaseline(baseline_path);
    if (base.empty()) {
        std::fprintf(stderr, "perf-check: cannot read baseline %s\n",
                     baseline_path);
        return 2;
    }
    constexpr unsigned kNodes = 64;
    constexpr Cycle kWindow = 8000;
    constexpr unsigned kKeys = 8192;
    constexpr unsigned kReps = 3;
    const double kFloor = floor;

    bench::header("Host performance smoke vs " + std::string(baseline_path));
    std::printf("%-14s %6s %16s %16s %7s\n", "workload", "nodes",
                "base instr/sec", "best instr/sec", "ratio");
    bool ok = true;
    for (const char *workload : {"fig3_traffic", "radix_sort"}) {
        const BaselineEntry *ref = nullptr;
        for (const BaselineEntry &e : base) {
            if (workload == std::string(e.workload) && e.nodes == kNodes &&
                e.threads == 1)
                ref = &e;
        }
        if (!ref || ref->rate <= 0) {
            std::fprintf(stderr,
                         "perf-check: no %s nodes=%u threads=1 sample in "
                         "baseline\n",
                         workload, kNodes);
            return 2;
        }
        double best = 0;
        double best_fabric = -1;
        for (unsigned rep = 0; rep < kReps; ++rep) {
            const Sample s = workload == std::string("fig3_traffic")
                                 ? sampleTraffic(kNodes, kWindow)
                                 : sampleRadix(kNodes, kKeys);
            best = std::max(best, s.instrPerHostSec());
            const double fabric =
                s.profile.netSeconds + s.profile.commitSeconds;
            if (best_fabric < 0 || fabric < best_fabric)
                best_fabric = fabric;
        }
        const double ratio = best / ref->rate;
        std::printf("%-14s %6u %16.0f %16.0f %6.2fx\n", workload, kNodes,
                    ref->rate, best, ratio);
        if (ratio < kFloor) {
            std::fprintf(stderr,
                         "perf-check: %s regressed to %.2fx of baseline "
                         "(floor %.2fx)\n",
                         workload, ratio, kFloor);
            ok = false;
        }
        // Fabric-phase gate: the mesh phases (net + commit host
        // seconds, best of the reps) may not grow past 1/floor of the
        // baseline row's. Tiny baseline phases are exempt — below a
        // few milliseconds the host timer's noise exceeds the signal.
        if (ref->fabricSec >= 0.005 && best_fabric >= 0) {
            const double fratio = best_fabric / ref->fabricSec;
            std::printf("%-14s %6u %16.6f %16.6f %6.2fx  (fabric sec)\n",
                        workload, kNodes, ref->fabricSec, best_fabric,
                        fratio);
            if (fratio > 1.0 / kFloor) {
                std::fprintf(stderr,
                             "perf-check: %s fabric phase grew to %.2fx of "
                             "baseline (limit %.2fx)\n",
                             workload, fratio, 1.0 / kFloor);
                ok = false;
            }
        }
    }

    // Sweep-throughput check: rerun the farm sweep and hold its
    // sim-instructions/host-second to the same floor (skipped against
    // baselines from before the farm rows existed).
    const BaselineEntry *refSweep = nullptr;
    for (const BaselineEntry &e : base) {
        if (std::string(e.workload) == "sweep_farm" && e.threads == 1)
            refSweep = &e;
    }
    if (refSweep && refSweep->rate > 0) {
        double best = 0;
        for (unsigned rep = 0; rep < kReps; ++rep)
            best = std::max(best, sampleSweep(true).instrPerHostSec());
        const double ratio = best / refSweep->rate;
        std::printf("%-14s %6u %16.0f %16.0f %6.2fx\n", "sweep_farm", 16u,
                    refSweep->rate, best, ratio);
        if (ratio < kFloor) {
            std::fprintf(stderr,
                         "perf-check: sweep_farm regressed to %.2fx of "
                         "baseline (floor %.2fx)\n",
                         ratio, kFloor);
            ok = false;
        }
    }

    // Footprint check: one 4096-node fig3 smoke run; the audited
    // simulator-state bytes may not grow more than 20% over the
    // committed 4K baseline row (skipped against older baselines that
    // carry no such row).
    const BaselineEntry *ref4k = nullptr;
    for (const BaselineEntry &e : base) {
        if (std::string(e.workload) == "fig3_traffic" && e.nodes == 4096 &&
            e.threads == 1 && e.footprintBytes > 0)
            ref4k = &e;
    }
    if (ref4k) {
        const Sample s = sampleTraffic(4096, 400);
        const double ratio =
            static_cast<double>(s.footprintBytes) / ref4k->footprintBytes;
        std::printf("%-14s %6u %16llu %16llu %6.2fx  (footprint bytes)\n",
                    "fig3_traffic", 4096u,
                    static_cast<unsigned long long>(ref4k->footprintBytes),
                    static_cast<unsigned long long>(s.footprintBytes), ratio);
        if (ratio > 1.20) {
            std::fprintf(stderr,
                         "perf-check: 4K-node footprint grew to %.2fx of "
                         "baseline (limit 1.20x)\n",
                         ratio);
            ok = false;
        }
    }
    std::printf("%s\n", ok ? "perf-check OK" : "perf-check FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *check_path = nullptr;
    double floor = 0.8;
    for (int i = 1; i + 1 < argc; ++i) {
        if (!std::strcmp(argv[i], "--check"))
            check_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--floor"))
            floor = std::atof(argv[i + 1]);
    }
    if (check_path)
        return runCheck(check_path, floor);
    const auto scale = bench::parseScale(argc, argv);
    std::vector<unsigned> sizes = {64, 256, 512};
    Cycle window = 8000;
    unsigned radix_keys = 8192;
    if (scale == bench::Scale::Quick) {
        sizes = {64, 256};
        window = 2500;
        radix_keys = 2048;
    } else if (scale == bench::Scale::Full) {
        window = 20000;
        radix_keys = 32768;
    }

    // Recorded in the JSON as part of the host fingerprint.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;

    bench::header("Host performance: simulated instructions per host "
                  "second (hw concurrency " + std::to_string(hw) + ")");
    std::printf("%-14s %6s %8s %10s %14s %16s %9s\n", "workload", "nodes",
                "threads", "host sec", "sim cycles", "instr/host-sec",
                "speedup");

    // Best of N runs per point: the sweep measures the kernel, not the
    // host's scheduling noise (quick mode keeps a single rep).
    const unsigned reps = scale == bench::Scale::Quick ? 1 : 3;
    std::vector<Sample> samples;
    for (const unsigned nodes : sizes) {
        for (const char *workload :
             {"fig3_traffic", "fig4_load", "radix_sort"}) {
            Sample s;
            for (unsigned rep = 0; rep < reps; ++rep) {
                Sample r = workload == std::string("fig3_traffic")
                               ? sampleTraffic(nodes, window)
                           : workload == std::string("fig4_load")
                               ? sampleFig4(nodes, window)
                               : sampleRadix(nodes, radix_keys);
                if (rep == 0 || r.hostSeconds < s.hostSeconds)
                    s = std::move(r);
            }
            std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx\n",
                        s.workload.c_str(), s.nodes, s.threads,
                        s.hostSeconds,
                        static_cast<unsigned long long>(s.simCycles),
                        s.instrPerHostSec(), s.speedup);
            samples.push_back(std::move(s));
        }
    }

    // Tracing-on datapoint: the 64-node fig3 traffic again, serial,
    // with every trace category recording (no file export). The gap
    // between this row and the untraced one is the taps' cost.
    {
        Sample s;
        for (unsigned rep = 0; rep < reps; ++rep) {
            Sample r = sampleTrafficTraced(64, window);
            if (rep == 0 || r.hostSeconds < s.hostSeconds)
                s = std::move(r);
        }
        std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx\n",
                    s.workload.c_str(), s.nodes, s.threads, s.hostSeconds,
                    static_cast<unsigned long long>(s.simCycles),
                    s.instrPerHostSec(), s.speedup);
        samples.push_back(std::move(s));
    }

    // Sparse-activity A/B rows: a token ring over eight hot nodes of a
    // 4096-node mesh while every other node sits in a poll spin. The
    // nosched row rescans all of them each ticked cycle; the sched
    // row's speedup column reports the wake scheduler's win over it.
    {
        const unsigned sparse_nodes = 4096;
        const Cycle sparse_window =
            scale == bench::Scale::Quick ? 10000 : 25000;
        Sample off, on;
        for (unsigned rep = 0; rep < reps; ++rep) {
            Sample r = sampleSparse(sparse_nodes, sparse_window, false);
            if (rep == 0 || r.hostSeconds < off.hostSeconds)
                off = std::move(r);
        }
        for (unsigned rep = 0; rep < reps; ++rep) {
            Sample r = sampleSparse(sparse_nodes, sparse_window, true);
            if (rep == 0 || r.hostSeconds < on.hostSeconds)
                on = std::move(r);
        }
        on.speedup = on.hostSeconds > 0 && off.hostSeconds > 0
                         ? off.hostSeconds / on.hostSeconds
                         : 1.0;
        for (const Sample *s : {&off, &on}) {
            std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx\n",
                        s->workload.c_str(), s->nodes, s->threads,
                        s->hostSeconds,
                        static_cast<unsigned long long>(s->simCycles),
                        s->instrPerHostSec(), s->speedup);
        }
        samples.push_back(std::move(off));
        samples.push_back(std::move(on));
    }

    // Fabric-scheduler A/B rows: the same heterogeneous ring, wake
    // scheduling at its default in both, only the mesh stepping
    // strategy differs. The nosched row walks the legacy full-scan
    // pull/move/commit; the sched row's speedup column reports the
    // event-driven fabric's end-to-end win (the fabric-phase win is
    // larger — compare the rows' net_sec + commit_sec).
    {
        const unsigned sparse_nodes = 4096;
        const Cycle sparse_window =
            scale == bench::Scale::Quick ? 10000 : 25000;
        Sample off, on;
        for (unsigned rep = 0; rep < reps; ++rep) {
            Sample r = sampleFabricQuiet(sparse_nodes, sparse_window, false);
            if (rep == 0 || r.hostSeconds < off.hostSeconds)
                off = std::move(r);
        }
        for (unsigned rep = 0; rep < reps; ++rep) {
            Sample r = sampleFabricQuiet(sparse_nodes, sparse_window, true);
            if (rep == 0 || r.hostSeconds < on.hostSeconds)
                on = std::move(r);
        }
        on.speedup = on.hostSeconds > 0 && off.hostSeconds > 0
                         ? off.hostSeconds / on.hostSeconds
                         : 1.0;
        for (const Sample *s : {&off, &on}) {
            std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx  "
                        "(fabric %.4fs)\n",
                        s->workload.c_str(), s->nodes, s->threads,
                        s->hostSeconds,
                        static_cast<unsigned long long>(s->simCycles),
                        s->instrPerHostSec(), s->speedup,
                        s->profile.netSeconds + s->profile.commitSeconds);
        }
        samples.push_back(std::move(off));
        samples.push_back(std::move(on));
    }

    // Large-mesh smoke row: one serial 4096-node (16x16x16) fig3 run
    // over a short, timeout-bounded window. Pins the mesh's audited
    // footprint for the --check regression gate.
    {
        const Sample s =
            sampleTraffic(4096, scale == bench::Scale::Quick ? 300 : 400);
        std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx  "
                    "(footprint %.1f MB)\n",
                    s.workload.c_str(), s.nodes, s.threads, s.hostSeconds,
                    static_cast<unsigned long long>(s.simCycles),
                    s.instrPerHostSec(), s.speedup,
                    s.footprintBytes / (1024.0 * 1024.0));
        samples.push_back(s);
    }

    // Sweep-throughput A/B rows: the 9-job radix/nqueens/tsp config
    // sweep, cold-booted per job vs farmed from warmed checkpoints
    // (the in-process equivalent of tools/jrun_server). The farm row's
    // speedup column is the end-to-end amortization win; both rows
    // simulate identical cycles and instructions.
    {
        Sample cold = sampleSweep(false);
        Sample farmed = sampleSweep(true);
        farmed.speedup = farmed.hostSeconds > 0 && cold.hostSeconds > 0
                             ? cold.hostSeconds / farmed.hostSeconds
                             : 1.0;
        for (const Sample *s : {&cold, &farmed}) {
            std::printf("%-14s %6u %8u %10.3f %14llu %16.0f %8.2fx  "
                        "(%.0f jobs/min, boot %.3fs)\n",
                        s->workload.c_str(), s->nodes, s->threads,
                        s->hostSeconds,
                        static_cast<unsigned long long>(s->simCycles),
                        s->instrPerHostSec(), s->speedup,
                        s->hostSeconds > 0 ? kSweepJobs * 60.0 / s->hostSeconds
                                           : 0.0,
                        s->bootSeconds);
        }
        samples.push_back(std::move(cold));
        samples.push_back(std::move(farmed));
    }

    writeJson(samples, hw);
    std::printf("\nwrote BENCH_host_perf.json (%zu samples)\n",
                samples.size());
    return 0;
}
