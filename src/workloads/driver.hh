/**
 * @file
 * Shared helpers for workload drivers: build a machine around a jasm
 * application, poke parameters, run, and collect OUT results.
 */

#ifndef JMSIM_WORKLOADS_DRIVER_HH
#define JMSIM_WORKLOADS_DRIVER_HH

#include <memory>
#include <string>
#include <vector>

#include "jasm/assembler.hh"
#include "machine/jmachine.hh"
#include "runtime/jos.hh"
#include "workloads/apps.hh"

namespace jmsim
{
namespace workloads
{

/** Build the standard machine configuration for @p nodes. */
MachineConfig standardConfig(unsigned nodes);

/** Ablation hook: override the dispatch cost used by standardConfig
 *  (0 restores the architectural default of 4 cycles). */
void setDispatchCyclesForTesting(unsigned cycles);

/** jbench contract: jbench pins the simulation kernel to one thread
 *  with setSimThreads(1) and checks JMachine::resolvedThreads() == 1.
 *  The kernel is always serial, so 1 is a no-op and any other value is
 *  refused with a FatalError. */
void setSimThreads(int threads);

/** Override superblock span execution used by standardConfig:
 *  0 = force per-op interpretation, 1 = force span fusion,
 *  -1 restores the default (on). Spans are a host-side execution
 *  strategy only — counters and timing are bit-identical either way —
 *  so this exists for A/B verification and perf triage. */
void setSuperblock(int enabled);

/** Override the event-driven wake scheduler used by standardConfig:
 *  0 = tick-everything kernel, 1 = park provably-idle nodes in the
 *  wake heap, -1 restores the default (on). Pure host-side execution
 *  strategy — runs are bit-identical either way — so this exists for
 *  A/B verification and perf triage. */
void setWakeScheduler(int enabled);

/** Override the event-driven fabric scheduler used by standardConfig:
 *  0 = legacy full-scan mesh stepping, 1 = pull worklists, dirty-word
 *  commits, and the fused sparse fast path, -1 restores the default
 *  (on). Pure host-side execution strategy — runs are bit-identical
 *  either way — so this exists for A/B verification and perf triage. */
void setNetScheduler(int enabled);

/** Override the in-network computing options used by standardConfig.
 *  Unlike the host-side toggles above this is ARCHITECTURAL: it turns
 *  on router combining / fetch-and-add / the hardware barrier tree,
 *  changes the config digest, and makes buildMachine bundle the netops
 *  jasm library. Benches and jasm_tool route their --combining /
 *  --faa / --barrier-tree flags through this. */
void setNetOpsConfig(const NetOpsConfig &cfg);

/** Restore the default (all in-network computing off). */
void clearNetOpsConfig();

/** Trace every machine built by standardConfig with @p config (tools
 *  and benches route their --trace flags through this). */
void setTraceConfig(const TraceConfig &config);

/** Restore the default (tracing off). */
void clearTraceConfig();

/**
 * Jasm prologue placing an application's node->router address table
 * (32 header/constant words plus one router address per node, read
 * with `seg(TBL, TBLS)`). Meshes the table fits on-chip keep the
 * historical layout — TBL at SRAM word 1024, length @p small_len — so
 * those programs assemble bit-identically to the old fixed-length
 * sources; larger meshes relocate the table to external memory, where
 * the 64-word-aligned large segment format reaches thousands of
 * entries (at DRAM access cost).
 */
std::string routerTablePrologue(unsigned nodes, unsigned small_len);

/** Assemble kernel(+barrier)+app and build a machine. */
std::unique_ptr<JMachine> buildMachine(unsigned nodes,
                                       const std::string &app_name,
                                       const std::string &app_source,
                                       bool with_barrier = false);

/** Poke an application parameter word (APP_SCRATCH + index). */
void pokeParam(JMachine &m, NodeId node, unsigned index, std::int32_t value);

/** Poke a parameter on every node. */
void pokeParamAll(JMachine &m, unsigned index, std::int32_t value);

/** Host-output words of one node as ints. */
std::vector<std::int32_t> outInts(const JMachine &m, NodeId node);

/** Aggregate the machine's statistics into an AppResult (Figure 6 /
 *  Table 4 material). runCycles and answer are filled by the caller. */
AppResult collectAppResult(const JMachine &m);

/** As above, but also attach the run's kernel profile and
 *  counter-registry snapshot (pool traffic etc.) to the result. */
AppResult collectAppResult(const JMachine &m, const RunResult &run);

} // namespace workloads
} // namespace jmsim

#endif // JMSIM_WORKLOADS_DRIVER_HH
