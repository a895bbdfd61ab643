#include "workloads/driver.hh"

#include <cstdlib>
#include <map>

#include "sim/logging.hh"

namespace jmsim
{
namespace workloads
{

namespace
{
unsigned dispatchOverride = 0;
int superblockOverride = -1;
int wakeSchedulerOverride = -1;
int netSchedulerOverride = -1;
NetOpsConfig netopsOverride;
TraceConfig traceOverride;
} // namespace

void
setDispatchCyclesForTesting(unsigned cycles)
{
    dispatchOverride = cycles;
}

void
setSimThreads(int threads)
{
    if (threads != 1)
        fatal("setSimThreads(" + std::to_string(threads) +
              "): the simulation kernel is serial; only 1 is accepted");
}

void
setSuperblock(int enabled)
{
    superblockOverride = enabled;
}

void
setWakeScheduler(int enabled)
{
    wakeSchedulerOverride = enabled;
}

void
setNetScheduler(int enabled)
{
    netSchedulerOverride = enabled;
}

void
setNetOpsConfig(const NetOpsConfig &cfg)
{
    netopsOverride = cfg;
}

void
clearNetOpsConfig()
{
    netopsOverride = NetOpsConfig{};
}

void
setTraceConfig(const TraceConfig &config)
{
    traceOverride = config;
}

void
clearTraceConfig()
{
    traceOverride = TraceConfig{};
}

MachineConfig
standardConfig(unsigned nodes)
{
    MachineConfig cfg;
    cfg.dims = MeshDims::forNodeCount(nodes);
    if (dispatchOverride)
        cfg.proc.dispatchCycles = dispatchOverride;
    if (superblockOverride >= 0)
        cfg.proc.superblock = superblockOverride != 0;
    if (wakeSchedulerOverride >= 0)
        cfg.wakeScheduler = wakeSchedulerOverride != 0;
    if (netSchedulerOverride >= 0)
        cfg.netScheduler = netSchedulerOverride != 0;
    cfg.netops = netopsOverride;
    cfg.trace = traceOverride;
    return cfg;
}

std::string
routerTablePrologue(unsigned nodes, unsigned small_len)
{
    // 32 header/constant words plus one router address per node. The
    // external-memory base sits just past the largest on-chip-address
    // user (radix's BUFB key buffer ends at word 204800) and is
    // 64-word aligned as the large segment format requires.
    const unsigned need = 32 + nodes;
    if (need <= small_len) {
        return ".equ TBL, 1024\n.equ TBLS, " + std::to_string(small_len) +
               "\n";
    }
    return ".equ TBL, 204800\n.equ TBLS, " + std::to_string(need) + "\n";
}

std::unique_ptr<JMachine>
buildMachine(unsigned nodes, const std::string &app_name,
             const std::string &app_source, bool with_barrier)
{
    Program prog = assemble(jos::withKernel(app_name, app_source, with_barrier,
                                            netopsOverride.enabled()));
    auto m = std::make_unique<JMachine>(standardConfig(nodes),
                                        std::move(prog));
    // Zero the application scratch area so programs can keep counters
    // there without their own init loops.
    for (NodeId id = 0; id < m->nodeCount(); ++id) {
        for (Addr a = jos::kAppScratchBase; a < 4096; ++a)
            m->pokeInt(id, a, 0);
    }
    // Debug hook: JMSIM_TRACE_NODE=<id> streams that node's execution.
    if (const char *tn = std::getenv("JMSIM_TRACE_NODE"))
        m->node(static_cast<NodeId>(std::atoi(tn))).processor().setTrace(true);
    return m;
}

void
pokeParam(JMachine &m, NodeId node, unsigned index, std::int32_t value)
{
    m.pokeInt(node, jos::kAppScratchBase + index, value);
}

void
pokeParamAll(JMachine &m, unsigned index, std::int32_t value)
{
    for (NodeId id = 0; id < m.nodeCount(); ++id)
        pokeParam(m, id, index, value);
}

std::vector<std::int32_t>
outInts(const JMachine &m, NodeId node)
{
    std::vector<std::int32_t> out;
    for (const Word &w : m.node(node).processor().hostOut())
        out.push_back(w.asInt());
    return out;
}

AppResult
collectAppResult(const JMachine &m)
{
    AppResult result;
    std::map<std::string, ThreadClassStats> classes;
    const Program &prog = m.program();
    for (NodeId id = 0; id < m.nodeCount(); ++id) {
        const Processor &proc = m.node(id).processor();
        const ProcessorStats &s = proc.stats();
        result.instructions += s.instructions;
        result.instructionsOs += s.instructionsOs;
        result.dispatches += s.dispatches;
        result.xlates += proc.xlate().stats().lookups;
        result.xlateFaults +=
            s.faults[static_cast<unsigned>(FaultKind::XlateMiss)];
        for (std::size_t c = 0; c < result.cyclesByClass.size(); ++c)
            result.cyclesByClass[c] += s.cyclesByClass[c];
        result.idleCycles += proc.idleCyclesAt(m.now());
        for (const auto &[entry, hs] : proc.handlerStats()) {
            ThreadClassStats &tc = classes[prog.nearestLabel(entry)];
            tc.threads += hs.dispatches;
            tc.instructions += hs.instructions;
            tc.messageWords += hs.messageWords;
        }
    }
    for (auto &[name, tc] : classes) {
        tc.name = name;
        result.threadClasses.push_back(tc);
    }
    return result;
}

AppResult
collectAppResult(const JMachine &m, const RunResult &run)
{
    AppResult result = collectAppResult(m);
    result.profile = run.profile;
    result.footprintBytes = run.footprintBytes;
    result.counters = run.counters;
    return result;
}

AppResult
finishApp(PreparedApp &app)
{
    JMachine &m = *app.machine;
    const RunResult r = m.run(app.cycleLimit);
    const bool finished = app.requireAllHalted
                              ? r.reason == StopReason::AllHalted
                              : r.reason != StopReason::CycleLimit;
    if (!finished)
        fatal(app.name + " did not finish");

    AppResult result = collectAppResult(m, r);
    result.runCycles = r.cycles;
    if (app.validate)
        result.answer = app.validate(m);
    result.bootSeconds = app.bootSeconds;
    return result;
}

} // namespace workloads
} // namespace jmsim
