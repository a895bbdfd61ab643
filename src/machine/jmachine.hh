/**
 * @file
 * The top-level machine: an X*Y*Z mesh of nodes plus the interconnect.
 *
 * The run loop is cycle-stepped but only touches active components:
 * nodes deactivate when their processor has nothing runnable and their
 * NI has drained, and reactivate when a message header arrives. A run
 * ends at a cycle limit, when every node has executed HALT, or when
 * the whole machine is quiescent (nothing running, nothing in flight).
 *
 * On top of that, the event-driven wake scheduler (on by default)
 * parks nodes whose next steps are provably no-ops — core burning a
 * multi-cycle instruction or a fused superblock span, NI quiescent —
 * in a cycle-keyed min-heap keyed on Processor::nextEventCycle(). A
 * parked node is not scanned at all until its wake cycle pops, or a
 * message header arrives and wakes it early. Per-cycle kernel cost is
 * therefore proportional to the nodes with actual work this cycle
 * (plus the fabric's own active-router bins), not to the mesh size,
 * which is what makes 4K-node (16x16x16) meshes affordable. The
 * machine-wide idle skip degenerates to reading the heap top: when
 * the step list is empty and the fabric is idle, the clock jumps
 * straight to the earliest scheduled wake.
 *
 * Every run goes through one serial loop over one deterministic
 * timeline: nodes step in active-list order, then the fabric, then the
 * netops engine. Host parallelism lives outside the machine, in the
 * jrun_server fork farm (one booted machine, one forked worker per
 * job).
 */

#ifndef JMSIM_MACHINE_JMACHINE_HH
#define JMSIM_MACHINE_JMACHINE_HH

#include <memory>
#include <vector>

#include "jasm/program.hh"
#include "machine/node.hh"
#include "net/mesh_network.hh"
#include "netops/netops.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"

namespace jmsim
{

namespace ckpt
{
struct Snapshot;
} // namespace ckpt

/** Everything configurable about a machine. */
struct MachineConfig
{
    MeshDims dims{2, 1, 1};
    MemoryConfig memory;
    NetworkInterface::Config ni;
    ProcessorConfig proc;
    bool roundRobinArbitration = false;
    /** Jump the clock straight to the next processor event when the
     *  network is empty, every NI is drained, and every active core is
     *  burning a multi-cycle instruction — a pure host-side
     *  optimization with no architectural effect (off for A/B tests). */
    bool idleSkip = true;
    /** Event-driven wake scheduler: nodes whose next step is provably
     *  a no-op (core mid-instruction or mid-span, NI quiescent) are
     *  parked in a cycle-keyed wake heap instead of being rescanned
     *  every cycle, so per-cycle kernel cost tracks nodes with actual
     *  work. A message header arrival wakes a parked node early. Pure
     *  host-side: runs are bit-identical on or off (off for A/B). */
    bool wakeScheduler = true;
    /** Event-driven fabric scheduling: the mesh steps off commit-
     *  produced pull worklists and dirty-word commit lists (cost
     *  proportional to routers with work), the serial kernel fuses
     *  sparse cycles into a single-pass fast step, and the idle skip
     *  consults MeshNetwork::nextEventCycle. Pure host-side: runs are
     *  bit-identical on or off (off = legacy full-scan paths, the
     *  `--net-sched off` A/B). */
    bool netScheduler = true;
    /** In-network computing: router combining, fetch-and-add, hardware
     *  barrier tree (all off by default; see netops/netops.hh). Unlike
     *  the kernel toggles above these are *architectural* — they change
     *  simulated behavior and are covered by the config digest. */
    NetOpsConfig netops;
    /** Event tracing (off by default: taps reduce to a null test). */
    TraceConfig trace;
};

/** Why a run() returned. */
enum class StopReason : std::uint8_t
{
    CycleLimit,
    AllHalted,
    Quiescent,   ///< nothing running and nothing in flight
};

/** Host-time breakdown of a run, by kernel phase. */
struct KernelProfile
{
    double nodeSeconds = 0.0;    ///< node stepping
    double netSeconds = 0.0;     ///< fabric step (move phase when legacy)
    double commitSeconds = 0.0;  ///< legacy fabric commit (0 in event mode)
    double netopsSeconds = 0.0;  ///< in-network computing engine step
    std::uint64_t steppedCycles = 0;  ///< cycles actually ticked (this run)
    std::uint64_t skippedCycles = 0;  ///< cycles jumped by idle-skip (this run)
};

/** Result of a run() call. */
struct RunResult
{
    Cycle cycles = 0;        ///< absolute cycle count at stop
    StopReason reason = StopReason::CycleLimit;
    KernelProfile profile;   ///< where the host time of this run went
    /** Host-memory footprint of the whole machine at stop (simulator
     *  state only: node memories, fabric, pool, rings — not the host
     *  process). See JMachine::footprintBytes. */
    std::uint64_t footprintBytes = 0;
    /** Name-sorted snapshot of every registered counter at stop. */
    std::vector<CounterSample> counters;
};

/** One simulated J-Machine. */
class JMachine
{
  public:
    /**
     * Build a machine and load @p prog on every node.
     * @param boot_label program symbol where background threads start
     */
    JMachine(const MachineConfig &config, Program prog,
             const std::string &boot_label = "boot");
    ~JMachine();

    JMachine(const JMachine &) = delete;
    JMachine &operator=(const JMachine &) = delete;

    /** Run until @p max_cycles (absolute), all-halt, or quiescence. */
    RunResult run(Cycle max_cycles);

    /** Run for @p cycles more cycles. */
    RunResult runFor(Cycle cycles) { return run(now_ + cycles); }

    Node &node(NodeId id) { return nodes_[id]; }
    const Node &node(NodeId id) const { return nodes_[id]; }
    MeshNetwork &network() { return net_; }
    const Program &program() const { return prog_; }
    const MachineConfig &config() const { return config_; }
    Cycle now() const { return now_; }
    unsigned nodeCount() const { return config_.dims.nodes(); }

    /** Host threads a run() uses: always 1, since the kernel is serial.
     *  Kept for jbench, which records it and refuses any other value. */
    unsigned resolvedThreads() const { return 1; }

    /** Mark a node as needing stepping (message arrival etc.). */
    void activateNode(NodeId id);

    // ---- host (driver) access to node memory ----
    void poke(NodeId id, Addr addr, Word value);
    Word peek(NodeId id, Addr addr) const;
    void pokeInt(NodeId id, Addr addr, std::int32_t v);
    std::int32_t peekInt(NodeId id, Addr addr) const;

    /** Aggregate processor statistics over every node (reads the
     *  counter registry: every field is a registered machine-wide sum). */
    ProcessorStats aggregateStats() const;

    /** The machine-wide counter registry (every node and the fabric
     *  register their stats here at construction). */
    const CounterRegistry &counters() const { return counters_; }

    /** The machine's tracer, or null when tracing is off. */
    Tracer *tracer() { return tracer_.get(); }
    const Tracer *tracer() const { return tracer_.get(); }

    /** The in-network computing engine, or null when netops is off. */
    NetOps *netops() { return netops_.get(); }
    const NetOps *netops() const { return netops_.get(); }

    /** Write the collected trace to config().trace.outPath as Chrome
     *  trace-event JSON. Returns false if tracing is off, the path is
     *  empty, or the write failed. Runs automatically at destruction
     *  for any machine that traced but never exported. */
    bool exportTrace();

    /** Cycles the run loop never ticked thanks to idle-skip. */
    Cycle idleSkippedCycles() const { return idleSkipped_; }

    /** Nodes currently parked in the wake queue (mid-instruction or
     *  mid-span with a quiescent NI; not scanned until their wake
     *  cycle or an early message arrival). */
    std::size_t parkedNodes() const { return parkedCount_; }

    /** Entries in the kernel wake queue. Equals parkedNodes() between
     *  run() calls: the queue holds one entry per parked node. */
    std::size_t wakeQueueSize() const { return wakeHeap_.size(); }

    /** Total host bytes behind the simulated machine: node memories,
     *  cores, NIs, fabric, message pool, trace rings, and kernel
     *  bookkeeping. The 4K-node memory-audit number BENCH tracks. */
    std::uint64_t footprintBytes() const;

    /** Reset all statistics (nodes, NIs, network) for a fresh window. */
    void resetStats();

    // ---- checkpointing (src/ckpt) ----

    /**
     * Serialize the complete architectural state into @p out (between
     * run() calls only). The image is deterministic — two machines in
     * the same architectural state produce identical bytes — and is
     * independent of the host toggles (idleSkip, schedulers,
     * superblock, trace), so it restores into a machine running any
     * execution strategy.
     */
    void save(ckpt::Snapshot &out) const;

    /**
     * Restore from @p snap. Header problems (bad magic/version, or a
     * digest from a different machine configuration or program) leave
     * the machine untouched, set @p err if non-null, and return false.
     * Body corruption past a valid header is fatal.
     */
    bool restore(const ckpt::Snapshot &snap, std::string *err = nullptr);

    /** FNV-1a digest over the architectural configuration and program
     *  image (host toggles excluded) — the snapshot compatibility key. */
    std::uint64_t configDigest() const;

    // ---- post-boot host-toggle setters (checkpoint farm: one booted
    // machine serves jobs with different execution strategies) ----

    void setIdleSkip(bool on) { config_.idleSkip = on; }

    /** Switch wake scheduling between cycles. Turning it off hands
     *  every parked node back to the step list (the scheduler-off
     *  kernel tracks dozing nodes there against dozeUntil_, and its
     *  idle-skip scan consults only the step list), so a live flip
     *  never strands a parked node past its wake cycle. */
    void setWakeScheduler(bool on);

    void
    setNetScheduler(bool on)
    {
        config_.netScheduler = on;
        net_.setEventDriven(on);
    }

    /** Propagates to every core (each holds its own config copy). */
    void setSuperblock(bool on);

  private:
    /** Move every parked node back onto the step list (see
     *  setWakeScheduler) and drop the wake heap. */
    void unparkAllNodes();

    /** Advance now_ over provably dead cycles (see MachineConfig::idleSkip). */
    void maybeIdleSkip(Cycle max_cycles);

    // ---- event-driven wake scheduler (MachineConfig::wakeScheduler) ----

    /** One scheduled wake: node @p id steps again at cycle @p at. */
    struct Wake
    {
        Cycle at;
        NodeId id;
    };

    /** Heap order on (cycle, id) — deterministic pop order. */
    static bool
    wakeBefore(const Wake &a, const Wake &b)
    {
        return a.at < b.at || (a.at == b.at && a.id < b.id);
    }

    /** heapPos_ value of a node with no wake-queue entry. */
    static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};

    /** Park an active node until @p until (its step is a provable
     *  no-op before then). The node leaves the step list but stays
     *  architecturally awake — noteSleep is NOT called. */
    void parkNode(NodeId id, Cycle until);

    /** Pop every wake due at or before now_ back onto the step list. */
    void wakeDueNodes();

    /** Earliest scheduled wake cycle, or ~0 when nothing is parked. */
    Cycle
    nextParkedWake() const
    {
        return wakeHeap_.empty() ? ~Cycle{0} : wakeHeap_.front().at;
    }

    // Indexed binary heap primitives (heapPos_ tracks every move).
    void wakePush(Wake w);
    void wakeRemove(std::uint32_t pos);
    void wakeSiftUp(std::uint32_t pos);
    void wakeSiftDown(std::uint32_t pos);
    void
    wakePlace(std::uint32_t pos, const Wake &w)
    {
        wakeHeap_[pos] = w;
        heapPos_[w.id] = pos;
    }

    /** Rebuild the wake queue from parkedFlag_ and dozeUntil_ (the
     *  state it is derived from) after a restore. */
    void rebuildWakeQueue();

    MachineConfig config_;
    Program prog_;
    MeshNetwork net_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<NetOps> netops_;
    CounterRegistry counters_;
    bool traceExported_ = false;
    /** Contiguous node arena (cache-friendly sequential stepping). */
    std::unique_ptr<Node[]> nodes_;
    std::vector<NodeId> activeNodes_;
    std::vector<std::uint8_t> activeFlag_;
    /** Per-node doze horizon: while `now_ < dozeUntil_[id]` the node's
     *  step() is a provable no-op (core mid-instruction or mid-span,
     *  NI quiescent), so the run loop skips the call entirely. Cleared
     *  whenever a message header reaches the node (activateNode), which
     *  also covers optimistic-span rollbacks shortening busyUntil.
     *  With the wake scheduler on, a parked node's entry doubles as
     *  its scheduled wake cycle (restore rebuilds the wake queue from
     *  it). */
    std::vector<Cycle> dozeUntil_;
    /** Cycle-keyed wake queue: an indexed binary min-heap holding
     *  exactly one entry per parked node (heapPos_[id] is the entry's
     *  slot, kNotQueued when the node is not parked). An early wake
     *  removes its node's entry, so the queue never holds stale work
     *  and its size is parkedCount_. Derived from parkedFlag_ +
     *  dozeUntil_, so snapshots do not carry it. */
    std::vector<Wake> wakeHeap_;
    std::vector<std::uint32_t> heapPos_;
    std::vector<std::uint8_t> parkedFlag_;
    std::size_t parkedCount_ = 0;
    /** Kernel work counters (registered as kernel.*): node.step calls
     *  made vs. calls avoided by parking/dozing, parks, and parks cut
     *  short by a message arrival. */
    std::uint64_t nodeSteps_ = 0;
    std::uint64_t skippedNodeSteps_ = 0;
    std::uint64_t parks_ = 0;
    std::uint64_t earlyWakes_ = 0;
    Cycle now_ = 0;
    Cycle idleSkipped_ = 0;
    unsigned haltedCount_ = 0;
    std::vector<std::uint8_t> haltedFlag_;
};

} // namespace jmsim

#endif // JMSIM_MACHINE_JMACHINE_HH
