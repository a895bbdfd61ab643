/**
 * @file
 * jasm command-line tool: assemble .jasm files and print a listing,
 * the symbol table, or image statistics — or run them on a simulated
 * machine. Useful when developing workloads outside the C++ drivers.
 *
 *   jasm_tool [--no-kernel] [--symbols] [--listing] file.jasm...
 *   jasm_tool --run [--nodes N] [--max-cycles C]
 *             [--superblock on|off] [--wake-sched on|off]
 *             [--net-sched on|off] [--faa on|off] [--combining on|off]
 *             [--barrier-tree on|off] [--trace out.json]
 *             [--trace-filter cats] file.jasm
 *
 * `--superblock off` disables fused span execution and interprets one
 * op per cycle (bit-identical results, slower host time) — an A/B
 * switch for verifying or triaging the span engine.
 *
 * `--wake-sched off` disables the event-driven wake scheduler and
 * rescans every non-halted node each cycle (bit-identical results,
 * slower host time on sparse-activity workloads) — the A/B switch for
 * the kernel's park/wake machinery.
 *
 * `--net-sched off` disables the event-driven fabric scheduler and
 * steps the mesh with the legacy full-scan pull/commit phases
 * (bit-identical results, slower host time when few routers carry
 * flits) — the A/B switch for the fabric's worklist machinery.
 *
 * `--faa on`, `--combining on`, and `--barrier-tree on` enable the
 * in-network computing options (fetch-and-add requests, router-level
 * combining, and the hardware barrier tree). Unlike the host toggles
 * above these are ARCHITECTURAL — they change cycle counts — and they
 * bundle the netops jasm library so programs can CALL nop_faa and
 * nop_barrier.
 *
 * `--trace <file>` records a cycle-accurate event trace of the run and
 * writes it as Chrome trace-event JSON (open in chrome://tracing or
 * ui.perfetto.dev). `--trace-filter` narrows the recorded categories
 * to a comma list of proc,ni,net,kernel (default all).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jasm/assembler.hh"
#include "sim/logging.hh"
#include "runtime/jos.hh"
#include "trace/tracer.hh"
#include "workloads/driver.hh"

using namespace jmsim;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
printListing(const Program &prog)
{
    std::string last_label;
    for (IAddr i = 0; i < prog.codeEndWord() * 2; ++i) {
        if (!prog.validIaddr(i))
            continue;
        const std::string label = prog.nearestLabel(i);
        if (label != last_label) {
            std::printf("%s:\n", label.c_str());
            last_label = label;
        }
        std::printf("  %6u.%u  [%-5s] %s\n", i / 2, i % 2,
                    statClassName(prog.klassAt(i)),
                    prog.fetch(i).toString().c_str());
    }
}

/** Assemble + run one program on a machine; print the outcome. */
int
runProgram(const std::string &path, unsigned nodes, int superblock,
           int wake_sched, int net_sched, const NetOpsConfig &netops,
           Cycle max_cycles, const TraceConfig &trace)
{
    workloads::setSuperblock(superblock);
    workloads::setWakeScheduler(wake_sched);
    workloads::setNetScheduler(net_sched);
    workloads::setNetOpsConfig(netops);
    workloads::setTraceConfig(trace);
    auto m = workloads::buildMachine(nodes, path, readFile(path));
    std::printf("running %s on %u nodes\n", path.c_str(), m->nodeCount());
    const RunResult r = m->run(max_cycles);
    workloads::clearTraceConfig();
    workloads::clearNetOpsConfig();
    workloads::setSuperblock(-1);
    workloads::setWakeScheduler(-1);
    workloads::setNetScheduler(-1);
    if (trace.enabled && m->exportTrace())
        std::printf("wrote %s (%zu events, %llu dropped)\n",
                    trace.outPath.c_str(), m->tracer()->collect().size(),
                    static_cast<unsigned long long>(m->tracer()->dropped()));

    if (const NetOps *nops = m->netops())
        std::printf("netops: %llu faa ops, %llu combine hits, "
                    "%llu barrier waves\n",
                    static_cast<unsigned long long>(nops->faaOps()),
                    static_cast<unsigned long long>(nops->combineHits()),
                    static_cast<unsigned long long>(nops->waves()));
    const char *reason = r.reason == StopReason::AllHalted ? "all-halted"
                         : r.reason == StopReason::Quiescent ? "quiescent"
                                                             : "cycle-limit";
    const ProcessorStats stats = m->aggregateStats();
    std::printf("stopped after %llu cycles (%s); %llu instructions, "
                "%llu dispatches, %llu messages delivered\n",
                static_cast<unsigned long long>(r.cycles), reason,
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.dispatches),
                static_cast<unsigned long long>(
                    m->network().stats().messagesDelivered));
    for (NodeId id = 0; id < m->nodeCount(); ++id) {
        const auto &out = m->node(id).processor().hostOut();
        if (out.empty())
            continue;
        std::printf("node %u OUT:", id);
        for (const Word &w : out)
            std::printf(" %d", w.asInt());
        std::printf("\n");
    }
    return r.reason == StopReason::CycleLimit ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool with_kernel = true;
    bool symbols = false;
    bool listing = false;
    bool run = false;
    unsigned nodes = 64;
    int superblock = -1;    // -1 = driver default (on)
    int wake_sched = -1;    // -1 = driver default (on)
    int net_sched = -1;     // -1 = driver default (on)
    Cycle max_cycles = 50'000'000;
    NetOpsConfig netops;
    TraceConfig trace;
    std::vector<std::string> files;
    // On/off flags sharing the --superblock parse shape.
    struct BoolFlag
    {
        const char *name;
        bool *value;
    };
    const BoolFlag netops_flags[] = {
        {"--faa", &netops.faa},
        {"--combining", &netops.combining},
        {"--barrier-tree", &netops.barrierTree},
    };
    for (int i = 1; i < argc; ++i) {
        bool matched = false;
        for (const BoolFlag &f : netops_flags) {
            if (std::strcmp(argv[i], f.name) || i + 1 >= argc)
                continue;
            const char *v = argv[++i];
            if (!std::strcmp(v, "on"))
                *f.value = true;
            else if (!std::strcmp(v, "off"))
                *f.value = false;
            else {
                std::fprintf(stderr, "bad %s '%s' (want on or off)\n",
                             f.name, v);
                return 2;
            }
            matched = true;
            break;
        }
        if (matched)
            continue;
        if (!std::strcmp(argv[i], "--no-kernel"))
            with_kernel = false;
        else if (!std::strcmp(argv[i], "--symbols"))
            symbols = true;
        else if (!std::strcmp(argv[i], "--listing"))
            listing = true;
        else if (!std::strcmp(argv[i], "--run"))
            run = true;
        else if (!std::strcmp(argv[i], "--nodes") && i + 1 < argc)
            nodes = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--max-cycles") && i + 1 < argc)
            max_cycles = static_cast<Cycle>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--superblock") && i + 1 < argc) {
            const char *v = argv[++i];
            if (!std::strcmp(v, "on"))
                superblock = 1;
            else if (!std::strcmp(v, "off"))
                superblock = 0;
            else {
                std::fprintf(stderr,
                             "bad --superblock '%s' (want on or off)\n", v);
                return 2;
            }
        }
        else if (!std::strcmp(argv[i], "--wake-sched") && i + 1 < argc) {
            const char *v = argv[++i];
            if (!std::strcmp(v, "on"))
                wake_sched = 1;
            else if (!std::strcmp(v, "off"))
                wake_sched = 0;
            else {
                std::fprintf(stderr,
                             "bad --wake-sched '%s' (want on or off)\n", v);
                return 2;
            }
        }
        else if (!std::strcmp(argv[i], "--net-sched") && i + 1 < argc) {
            const char *v = argv[++i];
            if (!std::strcmp(v, "on"))
                net_sched = 1;
            else if (!std::strcmp(v, "off"))
                net_sched = 0;
            else {
                std::fprintf(stderr,
                             "bad --net-sched '%s' (want on or off)\n", v);
                return 2;
            }
        }
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            trace.enabled = true;
            trace.outPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace-filter") && i + 1 < argc) {
            if (!parseTraceCategories(argv[++i], trace.categories)) {
                std::fprintf(stderr,
                             "bad --trace-filter '%s' (want a comma list "
                             "of all,proc,ni,net,kernel)\n",
                             argv[i]);
                return 2;
            }
        } else
            files.push_back(argv[i]);
    }
    if (files.empty() || (run && files.size() != 1)) {
        std::fprintf(stderr,
                     "usage: jasm_tool [--no-kernel] [--symbols] "
                     "[--listing] file.jasm...\n"
                     "       jasm_tool --run [--nodes N] "
                     "[--max-cycles C] [--superblock on|off] "
                     "[--wake-sched on|off] [--net-sched on|off] "
                     "[--faa on|off] [--combining on|off] "
                     "[--barrier-tree on|off] "
                     "[--trace out.json] [--trace-filter cats] "
                     "file.jasm\n");
        return 2;
    }
    if (run) {
        try {
            return runProgram(files[0], nodes, superblock, wake_sched,
                              net_sched, netops, max_cycles, trace);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    try {
        std::vector<SourceFile> sources;
        if (with_kernel) {
            sources.push_back({"jos.jasm", jos::kernelSource()});
            sources.push_back({"barrier.jasm", jos::barrierSource()});
        }
        for (const auto &f : files)
            sources.push_back({f, readFile(f)});
        const Program prog = assemble(sources);

        std::printf("%llu instructions, code through word %u, %zu "
                    "initialized data words\n",
                    static_cast<unsigned long long>(
                        prog.instructionCount()),
                    prog.codeEndWord(), prog.data().size());
        if (symbols) {
            // The symbol map is not directly iterable; print the
            // labels via the listing machinery instead.
            std::printf("(use --listing for label positions)\n");
        }
        if (listing)
            printListing(prog);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
