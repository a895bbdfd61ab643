#include "machine/jmachine.hh"

#include <algorithm>

#include "ckpt/snapshot.hh"
#include "machine/loader.hh"
#include "sim/host_timer.hh"
#include "sim/logging.hh"
#include "trace/chrome_trace.hh"

namespace jmsim
{

JMachine::JMachine(const MachineConfig &config, Program prog,
                   const std::string &boot_label)
    : config_(config),
      prog_(std::move(prog)),
      net_(config.dims),
      activeFlag_(config.dims.nodes(), 0),
      dozeUntil_(config.dims.nodes(), 0),
      heapPos_(config.dims.nodes(), kNotQueued),
      parkedFlag_(config.dims.nodes(), 0),
      haltedFlag_(config.dims.nodes(), 0)
{
    const unsigned n = config_.dims.nodes();
    net_.setEventDriven(config_.netScheduler);
    // Translate the instruction store into the interpreter's flat
    // DecodedOp array before any node captures a pointer to it.
    prog_.predecode(kEmemBase);
    nodes_ = std::make_unique<Node[]>(n);
    net_.setRoundRobin(config_.roundRobinArbitration);
    for (NodeId id = 0; id < n; ++id) {
        nodes_[id].init(id, config_.dims, config_.memory, config_.ni,
                        config_.proc, &net_, &prog_,
                        [this, id] { activateNode(id); });
    }
    if (config_.netops.enabled()) {
        netops_ = std::make_unique<NetOps>(config_.netops, &net_);
        std::vector<NetworkInterface *> nis;
        nis.reserve(n);
        for (NodeId id = 0; id < n; ++id)
            nis.push_back(&nodes_[id].ni());
        netops_->attachNis(std::move(nis));
        for (NodeId id = 0; id < n; ++id)
            nodes_[id].ni().setNetOps(netops_.get());
    }
    loadProgram(*this, boot_label);
    if (kTraceCompiledIn && config_.trace.enabled) {
        tracer_ = std::make_unique<Tracer>(config_.trace);
        net_.setTracer(tracer_.get());
        for (NodeId id = 0; id < n; ++id)
            nodes_[id].setTracer(tracer_.get());
        if (netops_)
            netops_->setTracer(tracer_.get());
    }
    for (NodeId id = 0; id < n; ++id)
        nodes_[id].registerCounters(counters_);
    net_.registerCounters(counters_);
    if (netops_)
        netops_->registerCounters(counters_);
    counters_.addCounter("kernel.node_steps", &nodeSteps_);
    counters_.addCounter("kernel.skipped_node_steps", &skippedNodeSteps_);
    counters_.addCounter("kernel.idle_skipped_cycles", &idleSkipped_);
    counters_.addCounter("kernel.parks", &parks_);
    counters_.addCounter("kernel.early_wakes", &earlyWakes_);
    for (NodeId id = 0; id < n; ++id)
        activateNode(id);
}

JMachine::~JMachine()
{
    // A machine that traced to a file but was torn down without an
    // explicit export still writes its trace (the common driver path).
    if (tracer_ && !traceExported_ && !config_.trace.outPath.empty())
        exportTrace();
}

bool
JMachine::exportTrace()
{
    if (!tracer_ || config_.trace.outPath.empty())
        return false;
    traceExported_ = true;
    return writeChromeTrace(config_.trace.outPath, tracer_->collect(),
                            tracer_->dropped());
}

void
JMachine::activateNode(NodeId id)
{
    // A header arrival (or rollback) invalidates any doze horizon: the
    // node may need stepping as early as the next cycle.
    dozeUntil_[id] = 0;
    if (!activeFlag_[id]) {
        activeFlag_[id] = 1;
        activeNodes_.push_back(id);
        nodes_[id].processor().noteWake(now_);
    } else if (parkedFlag_[id]) {
        // Early wake of a parked node: back on the step list now, and
        // its wake-queue entry goes with it. The core was never put to
        // sleep, so there is no noteWake here.
        parkedFlag_[id] = 0;
        --parkedCount_;
        ++earlyWakes_;
        wakeRemove(heapPos_[id]);
        activeNodes_.push_back(id);
    }
}

void
JMachine::parkNode(NodeId id, Cycle until)
{
    // The node comes off the step list, so it holds no queue entry.
    parkedFlag_[id] = 1;
    ++parkedCount_;
    ++parks_;
    dozeUntil_[id] = until;
    wakePush({until, id});
}

void
JMachine::wakeDueNodes()
{
    while (!wakeHeap_.empty() && wakeHeap_.front().at <= now_) {
        const NodeId id = wakeHeap_.front().id;
        wakeRemove(0);
        parkedFlag_[id] = 0;
        --parkedCount_;
        activeNodes_.push_back(id);
    }
}

void
JMachine::wakePush(Wake w)
{
    wakeHeap_.push_back(w);
    const auto pos = static_cast<std::uint32_t>(wakeHeap_.size() - 1);
    heapPos_[w.id] = pos;
    wakeSiftUp(pos);
}

void
JMachine::wakeRemove(std::uint32_t pos)
{
    heapPos_[wakeHeap_[pos].id] = kNotQueued;
    const Wake last = wakeHeap_.back();
    wakeHeap_.pop_back();
    if (pos == wakeHeap_.size())
        return;
    // Refill the hole with the last entry, which may belong above or
    // below it.
    wakePlace(pos, last);
    wakeSiftUp(pos);
    wakeSiftDown(heapPos_[last.id]);
}

void
JMachine::wakeSiftUp(std::uint32_t pos)
{
    const Wake w = wakeHeap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        if (!wakeBefore(w, wakeHeap_[parent]))
            break;
        wakePlace(pos, wakeHeap_[parent]);
        pos = parent;
    }
    wakePlace(pos, w);
}

void
JMachine::wakeSiftDown(std::uint32_t pos)
{
    const Wake w = wakeHeap_[pos];
    const auto n = static_cast<std::uint32_t>(wakeHeap_.size());
    while (true) {
        std::uint32_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            wakeBefore(wakeHeap_[child + 1], wakeHeap_[child]))
            child += 1;
        if (!wakeBefore(wakeHeap_[child], w))
            break;
        wakePlace(pos, wakeHeap_[child]);
        pos = child;
    }
    wakePlace(pos, w);
}

void
JMachine::rebuildWakeQueue()
{
    for (const Wake &w : wakeHeap_)
        heapPos_[w.id] = kNotQueued;
    wakeHeap_.clear();
    parkedCount_ = 0;
    for (NodeId id = 0; id < nodeCount(); ++id) {
        if (!parkedFlag_[id])
            continue;
        ++parkedCount_;
        wakePush({dozeUntil_[id], id});
    }
}

void
JMachine::maybeIdleSkip(Cycle max_cycles)
{
    // Skippable state: no flit anywhere in the fabric (blocked worms
    // keep their routers on the active list, so anyActive() covers
    // them), every active node's NI drained, and every active core
    // inside a multi-cycle instruction or dispatch. Until the earliest
    // busyUntil_, each tick would step nothing and change nothing, so
    // jumping the clock there is exact.
    //
    // The fabric's verdict comes from its deterministic next-event
    // cycle: any in-flight flit (or committed flit awaiting its pull)
    // means the mesh has work no later than next cycle, so there is
    // nothing to skip.
    if (net_.nextEventCycle(now_) <= now_ + 1)
        return;
    // Same reasoning for the netops engine: its event calendar names the
    // next cycle anything in it can happen.
    if (netops_ && netops_->nextEventCycle() <= now_ + 1)
        return;
    Cycle target;
    if (config_.wakeScheduler) {
        // Parked nodes carry their wake cycles in the heap; anything
        // still on the step list needs stepping now or next cycle, so
        // only an empty list can skip — one heap-top read instead of
        // the all-active-nodes scan.
        if (!activeNodes_.empty() || parkedCount_ == 0)
            return;
        target = nextParkedWake();
    } else {
        if (activeNodes_.empty())
            return;
        target = ~Cycle{0};
        for (const NodeId id : activeNodes_) {
            const Node &node = nodes_[id];
            if (!node.ni().quiescent())
                return;
            const Cycle ready = node.processor().nextEventCycle();
            if (ready <= now_ + 1)
                return;  // issues this cycle or the next: nothing to save
            target = std::min(target, ready);
        }
    }
    if (netops_)
        target = std::min(target, netops_->nextEventCycle());
    if (target > max_cycles)
        target = max_cycles;
    if (target <= now_)
        return;
    if (kTraceCompiledIn && tracer_ &&
        tracer_->wants(TraceKind::IdleSkip)) {
        TraceEvent ev;
        ev.cycle = now_;
        ev.node = kMachineTrack;
        ev.kind = TraceKind::IdleSkip;
        ev.a0 = target;
        tracer_->record(ev);
    }
    // The whole jumped span is fabric-quiet by the check above: account
    // the avoided router visits so steps + skipped stays exact.
    net_.noteQuietCycles(target - now_);
    idleSkipped_ += target - now_;
    now_ = target;
}

RunResult
JMachine::run(Cycle max_cycles)
{
    RunResult result;
    result.reason = StopReason::CycleLimit;
    std::uint64_t node_ticks = 0, net_ticks = 0, commit_ticks = 0;
    std::uint64_t netops_ticks = 0;
    std::uint64_t stepped = 0;
    const Cycle skipped_at_entry = idleSkipped_;
    bool stopped = false;
    while (!stopped && now_ < max_cycles) {
        if (config_.idleSkip) {
            maybeIdleSkip(max_cycles);
            if (now_ >= max_cycles)
                break;
        }
        if (!wakeHeap_.empty())
            wakeDueNodes();
        const std::uint64_t t0 = hostTicks();
        // With one active node, no parked node, and an empty fabric
        // nothing can preempt that node: its core may fuse superblock
        // spans unconditionally (bounded by the run horizon).
        const bool exclusive = activeNodes_.size() == 1 &&
                               parkedCount_ == 0 && !net_.anyActive() &&
                               (!netops_ || netops_->idle());
        // The step calls this cycle avoids entirely: every parked node
        // would have been a scan-and-skip in the tick-everything loop.
        skippedNodeSteps_ += parkedCount_;
        // Step active nodes; compact the list as nodes go idle.
        std::size_t keep = 0;
        const std::size_t n = activeNodes_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const NodeId id = activeNodes_[i];
            // Dozing node: the core is mid-span with a quiescent NI, so
            // its step() would be a no-op (see dozeUntil_). With the
            // wake scheduler such nodes are parked instead, so this
            // only triggers in scheduler-off mode (or on the cycle a
            // wake raced a re-activation).
            if (now_ < dozeUntil_[id]) {
                skippedNodeSteps_ += 1;
                activeNodes_[keep++] = id;
                continue;
            }
            Node &node = nodes_[id];
            nodeSteps_ += 1;
            if (node.step(now_, max_cycles, exclusive)) {
                const Cycle doze = node.dozeHint(now_);
                if (doze != 0 && config_.wakeScheduler) {
                    parkNode(id, doze);
                } else {
                    dozeUntil_[id] = doze;
                    activeNodes_[keep++] = id;
                }
            } else {
                activeFlag_[id] = 0;
                node.processor().noteSleep(now_);
                if (node.processor().halted() && !haltedFlag_[id]) {
                    haltedFlag_[id] = 1;
                    haltedCount_ += 1;
                }
            }
        }
        // Nodes woken during this loop (by activateNode) were appended
        // past n; keep them.
        for (std::size_t i = n; i < activeNodes_.size(); ++i)
            activeNodes_[keep++] = activeNodes_[i];
        activeNodes_.resize(keep);
        const std::uint64_t t1 = hostTicks();

        std::uint64_t t2 = t1, t3 = t1;
        if (net_.anyActive()) {
            net_.noteStepBegin();
            if (net_.eventDriven()) {
                // One fused pass (move the active routers, commit dirty
                // words inline). The whole step bills to the net phase.
                net_.stepFast(now_);
                t2 = hostTicks();
                t3 = t2;
            } else {
                net_.pullPhase();
                net_.movePhase(now_);
                t2 = hostTicks();
                net_.commitPhase(now_);
                t3 = hostTicks();
            }
        } else {
            net_.noteQuietCycles(1);
        }
        if (netops_) {
            netops_->step(now_);
            netops_ticks += hostTicks() - t3;
        }
        net_.pool().sampleHighWater();
        stepped += 1;
        now_ += 1;
        node_ticks += t1 - t0;
        net_ticks += t2 - t1;
        commit_ticks += t3 - t2;

        if (haltedCount_ == nodeCount()) {
            result.reason = StopReason::AllHalted;
            stopped = true;
        } else if (activeNodes_.empty() && parkedCount_ == 0 &&
                   !net_.anyActive() && (!netops_ || netops_->idle())) {
            result.reason = StopReason::Quiescent;
            stopped = true;
        }
    }
    result.cycles = now_;
    result.profile.nodeSeconds = hostSeconds(node_ticks);
    result.profile.netSeconds = hostSeconds(net_ticks);
    result.profile.commitSeconds = hostSeconds(commit_ticks);
    result.profile.netopsSeconds = hostSeconds(netops_ticks);
    result.profile.steppedCycles = stepped;
    result.profile.skippedCycles = idleSkipped_ - skipped_at_entry;
    result.footprintBytes = footprintBytes();
    result.counters = counters_.snapshot();
    return result;
}

void
JMachine::poke(NodeId id, Addr addr, Word value)
{
    nodes_[id].memory().write(addr, value);
}

Word
JMachine::peek(NodeId id, Addr addr) const
{
    return nodes_[id].memory().read(addr);
}

void
JMachine::pokeInt(NodeId id, Addr addr, std::int32_t v)
{
    poke(id, addr, Word::makeInt(v));
}

std::int32_t
JMachine::peekInt(NodeId id, Addr addr) const
{
    return peek(id, addr).asInt();
}

ProcessorStats
JMachine::aggregateStats() const
{
    // Every ProcessorStats field is registered per node under a shared
    // name, so the registry's summed view is exactly the old hand-
    // gathered aggregate.
    ProcessorStats total;
    for (std::size_t c = 0; c < total.cyclesByClass.size(); ++c)
        total.cyclesByClass[c] = counters_.value(
            std::string("proc.cycles.") +
            statClassName(static_cast<StatClass>(c)));
    total.instructions = counters_.value("proc.instructions");
    total.instructionsOs = counters_.value("proc.instructions_os");
    total.dispatches = counters_.value("proc.dispatches");
    total.suspends = counters_.value("proc.suspends");
    for (std::size_t f = 0; f < kNumFaults; ++f)
        total.faults[f] = counters_.value(
            std::string("proc.faults.") +
            faultName(static_cast<FaultKind>(f)));
    total.queueStallCycles = counters_.value("proc.queue_stall_cycles");
    total.runCycles = counters_.value("proc.run_cycles");
    total.idleCycles = counters_.value("proc.idle_cycles");
    total.segCacheHits = counters_.value("proc.seg_cache_hits");
    total.segCacheMisses = counters_.value("proc.seg_cache_misses");
    total.xlateCacheHits = counters_.value("proc.xlate_cache_hits");
    total.xlateCacheMisses = counters_.value("proc.xlate_cache_misses");
    return total;
}

std::uint64_t
JMachine::footprintBytes() const
{
    const unsigned n = nodeCount();
    std::uint64_t total = sizeof(JMachine) + n * sizeof(Node);
    for (NodeId id = 0; id < n; ++id)
        total += nodes_[id].footprintBytes();
    total += net_.footprintBytes();
    total += prog_.footprintBytes();
    if (tracer_)
        total += sizeof(Tracer) + tracer_->footprintBytes();
    if (netops_)
        total += sizeof(NetOps) + netops_->footprintBytes();
    // Kernel bookkeeping: the per-node arrays and the wake machinery.
    total += activeNodes_.capacity() * sizeof(NodeId) +
             activeFlag_.capacity() + parkedFlag_.capacity() +
             haltedFlag_.capacity() +
             dozeUntil_.capacity() * sizeof(Cycle) +
             wakeHeap_.capacity() * sizeof(Wake) +
             heapPos_.capacity() * sizeof(std::uint32_t);
    return total;
}

void
JMachine::resetStats()
{
    for (NodeId id = 0; id < nodeCount(); ++id) {
        Node &node = nodes_[id];
        node.processor().resetStats();
        node.ni().resetStats();
        node.ni().queue(0).resetStats();
        node.ni().queue(1).resetStats();
    }
    net_.resetStats();
    if (netops_)
        netops_->resetStats();
}

std::uint64_t
JMachine::configDigest() const
{
    ckpt::Digest d;
    d.mix(config_.dims.x);
    d.mix(config_.dims.y);
    d.mix(config_.dims.z);
    d.mix(config_.memory.imemWords);
    d.mix(config_.memory.ememWords);
    d.mix(config_.memory.ememAccessCycles);
    d.mix(config_.memory.imemExtraCycles);
    d.mix(config_.ni.sendBufferWords);
    d.mix(config_.ni.queueBase0);
    d.mix(config_.ni.queueWords0);
    d.mix(config_.ni.queueBase1);
    d.mix(config_.ni.queueWords1);
    d.mix(config_.ni.returnToSender ? 1 : 0);
    d.mix(config_.proc.dispatchCycles);
    d.mix(config_.proc.faultEntryCycles);
    d.mix(config_.proc.takenBranchPenalty);
    d.mix(config_.proc.ememFetchCycles);
    for (std::size_t f = 0; f < kNumFaults; ++f) {
        d.mix(config_.proc.hasVector[f] ? 1 : 0);
        d.mix(config_.proc.vectors[f]);
    }
    d.mix(config_.roundRobinArbitration ? 1 : 0);
    // In-network computing options are architectural: a snapshot from a
    // combining-on machine must not restore into a combining-off one.
    d.mix(config_.netops.combining ? 1 : 0);
    d.mix(config_.netops.faa ? 1 : 0);
    d.mix(config_.netops.barrierTree ? 1 : 0);
    d.mix(config_.netops.combineEntries);
    d.mix(config_.netops.combineFanIn);
    d.mix(config_.netops.issueCycles);
    d.mix(config_.netops.hopCycles);
    d.mix(config_.netops.serviceCycles);
    d.mix(config_.netops.memCycles);
    d.mix(config_.netops.treeHopCycles);
    d.mix(config_.netops.treeCombineCycles);
    d.mix(config_.netops.slotsPerNode);
    // The program image: a snapshot only restores into a machine that
    // loaded the exact same code and initialized data.
    d.mix(prog_.instructionCount());
    d.mix(prog_.codeEndWord());
    d.mix(prog_.data().size());
    for (const auto &[addr, word] : prog_.data()) {
        d.mix(addr);
        d.mix(word.bits);
        d.mix(static_cast<std::uint64_t>(word.tag));
    }
    d.mix(prog_.sbRunLens().size());
    for (const std::uint32_t len : prog_.sbRunLens())
        d.mix(len);
    d.mix(prog_.spinHeads().size());
    for (const IAddr head : prog_.spinHeads())
        d.mix(head);
    d.mix(prog_.hasP1Sends() ? 1 : 0);
    d.mix(prog_.decodedOps().size());
    return d.value();
}

void
JMachine::save(ckpt::Snapshot &out) const
{
    ckpt::Writer w;
    const unsigned n = nodeCount();

    // ---- header ----
    w.u32(ckpt::kMagic);
    w.u32(ckpt::kVersion);
    w.u64(configDigest());

    // ---- kernel section ----
    w.u64(now_);
    w.u64(idleSkipped_);
    w.u32(haltedCount_);
    w.u64(nodeSteps_);
    w.u64(skippedNodeSteps_);
    w.u64(parks_);
    w.u64(earlyWakes_);
    // The step list in its exact order: compaction order is part of
    // the deterministic step sequence.
    w.u32(static_cast<std::uint32_t>(activeNodes_.size()));
    for (const NodeId id : activeNodes_)
        w.u32(id);
    for (unsigned id = 0; id < n; ++id)
        w.u8(activeFlag_[id]);
    for (unsigned id = 0; id < n; ++id)
        w.u8(parkedFlag_[id]);
    for (unsigned id = 0; id < n; ++id)
        w.u8(haltedFlag_[id]);
    for (unsigned id = 0; id < n; ++id)
        w.u64(dozeUntil_[id]);
    // The wake queue is not written: parkedFlag_ + dozeUntil_ define
    // it, and its array layout depends on insertion history, which a
    // restored machine does not share.

    // ---- pool section: every live message, by dense ordinal ----
    // Handles are pool-allocation names (free-list order depends on the
    // allocation history), so collection order defines the ordinals:
    // per node in id order (NI send rings, bounce buffers), then the
    // fabric (router FIFOs in port/vn order, then channel registers).
    // The same handle can appear many times (one per flit); the first
    // sighting assigns its ordinal.
    std::vector<MsgHandle> held;
    for (unsigned id = 0; id < n; ++id)
        nodes_[id].collectHandles(held);
    net_.collectHandles(held);
    if (netops_)
        netops_->collectHandles(held);
    ckpt::HandleMap map;
    std::vector<MsgHandle> ordered;
    for (const MsgHandle h : held) {
        if (map.toOrdinal.count(h))
            continue;
        map.toOrdinal.emplace(h,
                              static_cast<std::uint32_t>(ordered.size()));
        ordered.push_back(h);
    }
    const MessagePool &pool = net_.pool();
    w.u32(static_cast<std::uint32_t>(ordered.size()));
    for (const MsgHandle h : ordered) {
        const Message &msg = pool.get(h);
        w.u32(msg.src);
        w.u32(msg.dest);
        w.u8(msg.destAddr.x);
        w.u8(msg.destAddr.y);
        w.u8(msg.destAddr.z);
        w.u8(msg.priority);
        w.u32(static_cast<std::uint32_t>(msg.words.size()));
        for (const Word &word : msg.words)
            w.word(word);
        w.u64(msg.injectCycle);
        w.u64(msg.deliverCycle);
        w.u32(msg.srcSeq);
        w.b(msg.finalized);
        w.u8(msg.netop);
    }
    const PoolStats ps = pool.stats();
    w.u64(ps.allocs);
    w.u64(ps.recycled);
    w.u64(ps.released);
    w.u64(ps.liveNow);
    w.u64(ps.liveHighWater);

    // ---- per-node and fabric sections ----
    for (unsigned id = 0; id < n; ++id)
        nodes_[id].save(w, map);
    net_.save(w, map);
    // The netops section exists iff the engine does; both sides agree
    // because the toggles are part of the config digest.
    if (netops_)
        netops_->save(w, map);

    out.bytes = std::move(w.buffer());
}

bool
JMachine::restore(const ckpt::Snapshot &snap, std::string *err)
{
    const unsigned n = nodeCount();
    // Header checks leave the machine untouched on failure.
    if (snap.bytes.size() < 16) {
        if (err)
            *err = "snapshot too short for a header";
        return false;
    }
    ckpt::Reader r(snap.bytes.data(), snap.bytes.size());
    const std::uint32_t magic = r.u32();
    if (magic != ckpt::kMagic) {
        if (err)
            *err = "bad snapshot magic";
        return false;
    }
    const std::uint32_t version = r.u32();
    if (version != ckpt::kVersion) {
        if (err)
            *err = "unsupported snapshot version " + std::to_string(version);
        return false;
    }
    const std::uint64_t digest = r.u64();
    if (digest != configDigest()) {
        if (err)
            *err = "snapshot was taken on a different machine "
                   "configuration or program";
        return false;
    }

    // ---- kernel section ----
    now_ = r.u64();
    idleSkipped_ = r.u64();
    haltedCount_ = r.u32();
    nodeSteps_ = r.u64();
    skippedNodeSteps_ = r.u64();
    parks_ = r.u64();
    earlyWakes_ = r.u64();
    const std::uint32_t activeCount = r.u32();
    if (activeCount > n)
        fatal("checkpoint: active-node list longer than the machine");
    activeNodes_.clear();
    activeNodes_.reserve(activeCount);
    for (std::uint32_t i = 0; i < activeCount; ++i) {
        const NodeId id = r.u32();
        if (id >= n)
            fatal("checkpoint: active node id out of range");
        activeNodes_.push_back(id);
    }
    for (unsigned id = 0; id < n; ++id)
        activeFlag_[id] = r.u8();
    for (unsigned id = 0; id < n; ++id)
        parkedFlag_[id] = r.u8();
    for (unsigned id = 0; id < n; ++id)
        haltedFlag_[id] = r.u8();
    for (unsigned id = 0; id < n; ++id)
        dozeUntil_[id] = r.u64();
    rebuildWakeQueue();

    // ---- pool section ----
    // Rebuild the pool from scratch so the restored free-list state is
    // independent of the saving side's allocation history.
    MessagePool &pool = net_.pool();
    pool.resetAll();
    // A message record holds at least its 38 bytes of fixed fields;
    // each payload word adds 5.
    const std::uint32_t msgCount = r.count(38);
    ckpt::HandleMap map;
    map.toHandle.reserve(msgCount);
    for (std::uint32_t i = 0; i < msgCount; ++i) {
        const MsgHandle h = pool.alloc();
        Message &msg = pool.get(h);
        msg.src = r.u32();
        msg.dest = r.u32();
        msg.destAddr.x = r.u8();
        msg.destAddr.y = r.u8();
        msg.destAddr.z = r.u8();
        msg.priority = r.u8();
        const std::uint32_t wordCount = r.count(5);
        msg.words.reserve(wordCount);
        for (std::uint32_t j = 0; j < wordCount; ++j)
            msg.words.push_back(r.word());
        msg.injectCycle = r.u64();
        msg.deliverCycle = r.u64();
        msg.srcSeq = r.u32();
        msg.finalized = r.b();
        msg.netop = r.u8();
        map.toHandle.push_back(h);
    }
    const std::uint64_t allocs = r.u64();
    const std::uint64_t recycled = r.u64();
    const std::uint64_t released = r.u64();
    const std::uint64_t liveNow = r.u64();
    const std::uint64_t liveHighWater = r.u64();
    pool.restoreCounters(allocs, recycled, released, liveNow,
                         liveHighWater);

    // ---- per-node and fabric sections ----
    for (unsigned id = 0; id < n; ++id)
        nodes_[id].restore(r, map);
    net_.restore(r, map);
    if (netops_)
        netops_->restore(r, map, now_);

    if (r.remaining() != 0)
        fatal("checkpoint: " + std::to_string(r.remaining()) +
              " trailing bytes after the image");

    // The image may carry parked nodes from a scheduler-on saver; a
    // scheduler-off kernel tracks dozing nodes on the step list
    // instead (see setWakeScheduler).
    if (!config_.wakeScheduler)
        unparkAllNodes();
    return true;
}

void
JMachine::setWakeScheduler(bool on)
{
    config_.wakeScheduler = on;
    if (!on)
        unparkAllNodes();
}

void
JMachine::unparkAllNodes()
{
    // Hand every parked node back to the step list with its dozeUntil_
    // horizon intact: the scheduler-off kernel skips it there until
    // its wake cycle, and the off-mode idle-skip scan (which consults
    // only the step list) sees the horizon. Ascending id keeps the
    // list in the order a from-boot scheduler-off run would grow it.
    if (parkedCount_ > 0) {
        const NodeId n = nodeCount();
        for (NodeId id = 0; id < n; ++id) {
            if (parkedFlag_[id]) {
                parkedFlag_[id] = 0;
                heapPos_[id] = kNotQueued;
                activeNodes_.push_back(id);
            }
        }
        parkedCount_ = 0;
    }
    wakeHeap_.clear();
}

void
JMachine::setSuperblock(bool on)
{
    config_.proc.superblock = on;
    for (NodeId id = 0; id < nodeCount(); ++id)
        nodes_[id].processor().setSuperblock(on);
}

} // namespace jmsim
