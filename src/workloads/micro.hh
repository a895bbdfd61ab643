/**
 * @file
 * Micro-benchmark workloads: the paper's Section 3 experiments.
 *
 * Each function assembles a small jasm program, runs it on a simulated
 * machine, and returns the measured quantities used by the bench
 * binaries to regenerate Figure 2 (latency vs distance), Table 1
 * (message overhead), Figure 3 (latency vs load / efficiency vs grain),
 * Figure 4 (terminal bandwidth), Table 2 (producer-consumer
 * synchronization), and Table 3 (barrier synchronization).
 */

#ifndef JMSIM_WORKLOADS_MICRO_HH
#define JMSIM_WORKLOADS_MICRO_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/jmachine.hh"
#include "sim/types.hh"

namespace jmsim
{
namespace workloads
{

/** Remote-operation flavours of Figure 2. */
enum class PingKind : std::uint8_t
{
    Ping,      ///< 2-word request, 1-word acknowledgment
    Read1,     ///< 4-word read request, 2-word reply
    Read6,     ///< 4-word read request, 7-word reply
};

/** One Figure 2 measurement. */
struct PingResult
{
    unsigned hops = 0;
    double roundTripCycles = 0;  ///< averaged over iterations
};

/**
 * Round-trip latency from node 0 to @p target.
 * @param emem_data remote reads touch external (true) or internal memory
 */
PingResult measurePing(unsigned nodes, NodeId target, PingKind kind,
                       bool emem_data, unsigned iterations = 4);

/** Measured one-way message overhead (Table 1's J-Machine row). */
struct OverheadResult
{
    double sendCyclesPerMsg = 0;    ///< formatting + injection
    double receiveCyclesPerMsg = 0; ///< dispatch + null handler
    double cyclesPerByte = 0;       ///< channel occupancy per payload byte

    double cyclesPerMsg() const { return sendCyclesPerMsg + receiveCyclesPerMsg; }
    double usPerMsg() const { return cyclesPerMsg() * kUsPerCycle; }
    double usPerByte() const { return cyclesPerByte * kUsPerCycle; }
};

OverheadResult measureOverhead();

/** One point of Figure 3's load sweep. */
struct LoadPoint
{
    double bisectionMbits = 0;      ///< measured one-direction crossing rate
    double oneWayLatency = 0;       ///< cycles
    double msgsPerNodePerKcycle = 0;
    double efficiency = 0;          ///< idle (compute) fraction of loop time
    double grainCycles = 0;         ///< modeled computation per exchange
};

/**
 * Random-traffic latency vs load (Figure 3).
 * @param msg_words   total message length L (header included), >= 2
 * @param idle_iters  modelled computation: iterations of a 3-cycle loop
 * @param window      measurement window in cycles (after equal warmup)
 */
LoadPoint measureLoadPoint(unsigned nodes, unsigned msg_words,
                           unsigned idle_iters, Cycle window,
                           std::uint32_t seed = 1);

/** Simulator host-performance / determinism probe over the Figure 3
 *  traffic program: one fixed-window run, with the wall-clock time of
 *  the run() call and the machine's complete statistics signature. */
struct TrafficProbe
{
    RunResult run;                   ///< stop state after the window
    std::uint64_t instructions = 0;  ///< simulated instructions executed
    double hostSeconds = 0;          ///< wall-clock time inside run()
    /** Host seconds spent booting (assemble, predecode, build, poke)
     *  before the first stepped cycle. */
    double bootSeconds = 0;
    ProcessorStats procStats;        ///< aggregate over every node
    NetworkStats netStats;           ///< fabric statistics
    NiStats niStats;                 ///< aggregate NI statistics
    /** Per-message inject->deliver latency (net.latency_cycles). */
    Histogram netLatency{1, kLatencyHistBuckets};
    /** Collected trace stream, when the driver's trace override is on. */
    std::vector<TraceEvent> trace;
    std::uint64_t traceDropped = 0;
};

/** Run fig3-style random traffic for @p window cycles; the machine is
 *  built by standardConfig, so it honours the driver's overrides. */
TrafficProbe runFig3Traffic(unsigned nodes, unsigned msg_words,
                            unsigned idle_iters, Cycle window,
                            std::uint32_t seed = 1);

/** Fig4-style saturation probe: maximum-length (24-word) random-target
 *  messages with zero modelled computation, so every node offers load
 *  as fast as its NI drains — the fabric-bound stress case for the
 *  host-perf sweep and the high-load determinism golden. */
TrafficProbe runFig4Load(unsigned nodes, Cycle window,
                         std::uint32_t seed = 1);

/** Build (but do not run) the fig4 saturation-load machine: the
 *  checkpoint tests snapshot it mid-flight, with the fabric full of
 *  in-transit worms. Run it with runFor() and collect stats by hand. */
std::unique_ptr<JMachine> buildFig4Machine(unsigned nodes,
                                           std::uint32_t seed = 1);

/** Heterogeneous-activity probe for the wake scheduler: @p hot_nodes
 *  nodes (spread across the id range) exchange fig3 traffic
 *  back-to-back while every other node sinks into a compute phase far
 *  longer than the window after one boot-time exchange.  The fabric
 *  stays busy — the global idle-skip never fires — but almost every
 *  node is parked almost every cycle, so per-cycle kernel cost is
 *  O(hot), not O(nodes).  This is the nqueens-tail activity shape as
 *  a repeatable microbenchmark. */
TrafficProbe runSparseActivity(unsigned nodes, unsigned hot_nodes,
                               Cycle window, std::uint32_t seed = 1);

/** Delivery handling for Figure 4. */
enum class BlastMode : std::uint8_t
{
    Discard,
    CopyToImem,
    CopyToEmem,
};

/** Sustained two-node transfer rate in Mbits/s (32-bit data words). */
double measureBlast(unsigned msg_words, BlastMode mode,
                    unsigned messages = 64);

/** Table 2: cycle costs of producer-consumer synchronization. */
struct SyncCosts
{
    // with hardware presence tags
    double tagSuccess = 0;   ///< read of a present value
    double tagFailure = 0;   ///< read of an absent value, up to trap entry
    double tagWrite = 0;     ///< producer store via jos_put (value present path)
    double tagSave = 0;      ///< thread save: fault entry -> suspension
    double tagRestore = 0;   ///< jos_put restart -> thread resumed
    // without tags (explicit flag variable)
    double noTagSuccess = 0;
    double noTagFailure = 0; ///< flag test fails (before any save)
    double noTagWrite = 0;   ///< store data + set flag
};

SyncCosts measureSyncCosts();

/** Table 3: microseconds per barrier for a machine size. */
double measureBarrierUs(unsigned nodes, unsigned iterations = 8);

} // namespace workloads
} // namespace jmsim

#endif // JMSIM_WORKLOADS_MICRO_HH
