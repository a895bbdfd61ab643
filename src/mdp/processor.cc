#include "mdp/processor.hh"

#include <algorithm>
#include <cstdio>

#include "ckpt/snapshot.hh"
#include "isa/superblock.hh"
#include "sim/logging.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"

namespace jmsim
{

void
Processor::init(NodeId id, const MeshDims &dims, const ProcessorConfig &config,
                NodeMemory *mem, NetworkInterface *ni, const Program *prog)
{
    id_ = id;
    dims_ = dims;
    config_ = config;
    mem_ = mem;
    ni_ = ni;
    prog_ = prog;
    decoded_ = prog->decodedOps().data();
    decodedCount_ = prog->decodedOps().size();
    fetchKnown_.fill(false);
    handlerSlot_.fill(nullptr);
}

void
Processor::boot(IAddr entry)
{
    const unsigned lvl = static_cast<unsigned>(Level::Background);
    RegisterSet &bg = sets_[lvl];
    bg.live = true;
    bg.parked = false;
    bg.ip = entry;
    handlerEntry_[lvl] = entry;
    HandlerStats &hs = handlerStats_[entry];
    hs.dispatches += 1;
    handlerSlot_[lvl] = &hs;
}

void
Processor::resetStats()
{
    stats_ = ProcessorStats{};
    handlerStats_.clear();
    handlerSlot_.fill(nullptr);
    xlate_.resetStats();
    // A finished optimistic span can no longer be invalidated: any
    // later arrival lands after the span's last issue cycle.
    spanActive_ = false;
    // Re-seed the dispatch that brought in each still-live handler so a
    // post-reset read sees the running threads accounted the same way
    // boot() seeds the background handler.
    for (unsigned l = 0; l < kNumLevels; ++l) {
        if (sets_[l].live) {
            HandlerStats &hs = handlerStats_[handlerEntry_[l]];
            hs.dispatches += 1;
            handlerSlot_[l] = &hs;
        }
    }
}

void
Processor::registerCounters(CounterRegistry &reg)
{
    reg.addCounter("proc.instructions", &stats_.instructions);
    reg.addCounter("proc.instructions_os", &stats_.instructionsOs);
    reg.addCounter("proc.dispatches", &stats_.dispatches);
    reg.addCounter("proc.suspends", &stats_.suspends);
    reg.addCounter("proc.queue_stall_cycles", &stats_.queueStallCycles);
    reg.addCounter("proc.run_cycles", &stats_.runCycles);
    reg.addCounter("proc.idle_cycles", &stats_.idleCycles);
    reg.addCounter("proc.seg_cache_hits", &stats_.segCacheHits);
    reg.addCounter("proc.seg_cache_misses", &stats_.segCacheMisses);
    reg.addCounter("proc.xlate_cache_hits", &stats_.xlateCacheHits);
    reg.addCounter("proc.xlate_cache_misses", &stats_.xlateCacheMisses);
    for (unsigned c = 0;
         c < static_cast<unsigned>(StatClass::NumClasses); ++c) {
        reg.addCounter(std::string("proc.cycles.") +
                           statClassName(static_cast<StatClass>(c)),
                       &stats_.cyclesByClass[c]);
    }
    for (unsigned f = 0; f < kNumFaults; ++f) {
        reg.addCounter(std::string("proc.faults.") +
                           faultName(static_cast<FaultKind>(f)),
                       &stats_.faults[f]);
    }
}

void
Processor::invalidateSegCache()
{
    for (auto &level : segCache_) {
        for (auto &e : level)
            e.valid = false;
    }
}

bool
Processor::runnable() const
{
    for (unsigned l = 0; l < kNumLevels; ++l) {
        const RegisterSet &rs = sets_[l];
        if (rs.live && !(l == 0 && rs.parked))
            return true;
    }
    return ni_->queue(0).headDispatchable() ||
           ni_->queue(1).headDispatchable();
}

void
Processor::noteWake(Cycle now)
{
    if (sleeping_) {
        stats_.idleCycles += now - sleepStart_;
        attributeIdle(now - sleepStart_);
        sleeping_ = false;
    }
}

void
Processor::noteSleep(Cycle now)
{
    if (!sleeping_ && !halted_) {
        sleeping_ = true;
        sleepStart_ = now;
    }
}

void
Processor::attribute(StatClass cls, unsigned cycles)
{
    stats_.cyclesByClass[static_cast<std::size_t>(cls)] += cycles;
    stats_.runCycles += cycles;
}

void
Processor::attributeIdle(Cycle cycles)
{
    stats_.cyclesByClass[static_cast<std::size_t>(StatClass::Idle)] += cycles;
}

void
Processor::die(const std::string &msg, IAddr iaddr)
{
    std::string what = "node " + std::to_string(id_) + " @ iaddr " +
                       std::to_string(iaddr) + " (near '" +
                       prog_->nearestLabel(iaddr) + "'): " + msg;
    if (prog_->validIaddr(iaddr))
        what += " [" + prog_->fetch(iaddr).toString() + "]";
    fatal(what);
}

void
Processor::selectLevel(Cycle now)
{
    // An open send sequence is atomic: stay on its level until the
    // SEND*E instruction closes the message.
    for (unsigned l = kNumLevels; l-- > 0;) {
        if (sets_[l].live && sets_[l].sending) {
            current_ = static_cast<Level>(l);
            currentValid_ = true;
            return;
        }
    }

    // A live fault handler is never preempted.
    for (unsigned l = kNumLevels; l-- > 0;) {
        if (sets_[l].live && sets_[l].inFault) {
            current_ = static_cast<Level>(l);
            currentValid_ = true;
            return;
        }
    }

    for (int prio = 1; prio >= 0; --prio) {
        const Level level = prio ? Level::P1 : Level::P0;
        const unsigned lvl = static_cast<unsigned>(level);
        RegisterSet &rs = sets_[lvl];
        if (rs.live) {
            current_ = level;
            currentValid_ = true;
            return;
        }
        MessageQueue &q = ni_->queue(static_cast<unsigned>(prio));
        if (q.headDispatchable()) {
            // Hardware dispatch: load IP from the header, point A3 at
            // the message, fetch the first instruction — 4 cycles.
            const QueuedMessage &m = q.head();
            const MsgHeader hdr = MsgHeader::decode(mem_->read(m.start));
            rs.live = true;
            rs.ip = hdr.handlerIp;
            rs[reg::A3] = SegDesc{m.start, m.length}.encode();
            segCache_[lvl][reg::A3 & 3u].valid = false;
            invalidateFetch(lvl);
            current_ = level;
            currentValid_ = true;
            busyUntil_ = now + config_.dispatchCycles;
            attribute(StatClass::Comm, config_.dispatchCycles);
            stats_.dispatches += 1;
            if (kTraceCompiledIn && tracer_ &&
                tracer_->wants(TraceKind::Dispatch)) {
                TraceEvent ev;
                ev.cycle = now;
                ev.node = id_;
                ev.kind = TraceKind::Dispatch;
                ev.arg8 = static_cast<std::uint8_t>(prio);
                ev.a0 = hdr.handlerIp;
                ev.a1 = q.messageCount();
                tracer_->record(ev);
            }
            handlerEntry_[lvl] = hdr.handlerIp;
            HandlerStats &hs = handlerStats_[hdr.handlerIp];
            hs.dispatches += 1;
            hs.messageWords += m.length;
            handlerSlot_[lvl] = &hs;
            return;
        }
    }

    RegisterSet &bg = sets_[static_cast<unsigned>(Level::Background)];
    if (bg.live && !bg.parked) {
        current_ = Level::Background;
        currentValid_ = true;
        return;
    }
    currentValid_ = false;
}

bool
Processor::step(Cycle now, Cycle horizon, bool exclusive)
{
    if (halted_)
        return false;
    if (busyUntil_ > now)
        return true;
    selectLevel(now);
    if (!currentValid_)
        return false;
    if (busyUntil_ > now)
        return true;  // this cycle went to a dispatch
    if (config_.superblock && !trace_ && horizon > now + 1)
        executeSpan(now, horizon, exclusive);
    else
        executeOne(now);
    return true;
}

bool
Processor::aluOperand(std::uint8_t r, std::int32_t &out)
{
    const Word &w = cur()[r];
    if (w.isFuture()) {
        faultPending_ = true;
        faultKind_ = FaultKind::FutUse;
        faultVal0_ = w;
        faultVal1_ = Word::makeInt(r);
        return false;
    }
    if (w.tag != Tag::Int && w.tag != Tag::Bool) {
        faultPending_ = true;
        faultKind_ = FaultKind::TagMismatch;
        faultVal0_ = w;
        faultVal1_ = Word::makeInt(r);
        return false;
    }
    out = w.asInt();
    return true;
}

bool
Processor::boolOperand(std::uint8_t r, bool &out)
{
    const Word &w = cur()[r];
    if (w.isFuture()) {
        faultPending_ = true;
        faultKind_ = FaultKind::FutUse;
        faultVal0_ = w;
        faultVal1_ = Word::makeInt(r);
        return false;
    }
    out = w.bits != 0;
    return true;
}

bool
Processor::memAddress(const DecodedOp &op, bool indexed, Addr &addr,
                      unsigned &penalty)
{
    const unsigned lvl = static_cast<unsigned>(current_);
    SegCacheEntry &e = segCache_[lvl][op.abase & 3u];
    const Word &aw = cur()[4 + op.abase];
    if (!e.valid) {
        // Miss: decode the descriptor and classify the segment. The tag
        // check only needs to run here — any write to the address
        // register invalidates this entry, so a valid entry proves the
        // register still holds the decoded Addr word.
        if (aw.tag != Tag::Addr) {
            faultPending_ = true;
            faultKind_ = FaultKind::TagMismatch;
            faultVal0_ = aw;
            faultVal1_ = Word::makeInt(4 + op.abase);
            return false;
        }
        stats_.segCacheMisses += 1;
        e.desc = SegDesc::decode(aw);
        e.uniform = false;
        e.penalty = 0;
        if (e.desc.length > 0) {
            const Addr first = e.desc.base;
            const Addr last = e.desc.base + (e.desc.length - 1);
            if (last >= first && mem_->isValid(first) && mem_->isValid(last) &&
                mem_->isInternal(first) == mem_->isInternal(last)) {
                // Whole segment inside one region: hits can skip the
                // per-access validity and penalty checks.
                e.uniform = true;
                e.penalty = mem_->accessPenalty(first);
            }
        }
        e.valid = true;
    } else {
        stats_.segCacheHits += 1;
    }
    std::int32_t off;
    if (indexed) {
        if (!aluOperand(op.rb, off))
            return false;
    } else {
        off = op.imm;
    }
    if (off < 0 || !e.desc.contains(static_cast<std::uint32_t>(off))) {
        faultPending_ = true;
        faultKind_ = FaultKind::BoundsError;
        faultVal0_ = Word::makeInt(off);
        faultVal1_ = aw;
        return false;
    }
    addr = e.desc.base + static_cast<Addr>(off);
    if (eagerGuard_) {
        // Superblock span: a queue-region access outside the frozen
        // arrived-prefix allowance aborts the op side-effect-free; the
        // span ends and the op re-executes per-op at its architectural
        // cycle, observing the true queue state.
        for (unsigned qi = 0; qi < 2; ++qi) {
            const MessageQueue &q = ni_->queue(qi);
            if (addr >= q.base() && addr < q.base() + q.capacity() &&
                (addr < eagerQLo_ || addr >= eagerQHi_)) {
                eagerAbort_ = true;
                return false;
            }
        }
    }
    if (e.uniform) {
        penalty = e.penalty;
        return true;
    }
    if (!mem_->isValid(addr)) {
        faultPending_ = true;
        faultKind_ = FaultKind::BadAddress;
        faultVal0_ = Word::makeInt(static_cast<std::int32_t>(addr));
        faultVal1_ = aw;
        return false;
    }
    penalty = mem_->accessPenalty(addr);
    return true;
}

bool
Processor::queueWordReady(Addr addr)
{
    if (current_ == Level::Background)
        return true;
    const unsigned prio = current_ == Level::P1 ? 1 : 0;
    const MessageQueue &q = ni_->queue(prio);
    if (q.empty())
        return true;
    const QueuedMessage &m = q.head();
    if (addr < m.start || addr >= m.start + m.length)
        return true;
    return addr < m.start + m.arrived;
}

void
Processor::raiseFault(FaultKind kind, Word fval0, Word fval1)
{
    faultPending_ = true;
    faultKind_ = kind;
    faultVal0_ = fval0;
    faultVal1_ = fval1;
}

bool
Processor::xlateCached(Word key, Word &out)
{
    if (xlateCacheVersion_ != xlate_.version()) {
        // The table changed (ENTER / invalidate / clear): every cached
        // translation is suspect, including ones evicted from the
        // set-associative table itself.
        for (auto &e : xlateCache_)
            e.valid = false;
        xlateCacheVersion_ = xlate_.version();
    }
    XlateCacheEntry &e =
        xlateCache_[(key.bits ^ (static_cast<std::uint64_t>(key.tag) << 3)) &
                    (kXlateCacheSize - 1)];
    if (e.valid && e.key == key) {
        stats_.xlateCacheHits += 1;
        // A front hit is architecturally a table hit: keep XlateStats
        // identical to the uncached path.
        xlate_.noteFrontHit();
        out = e.value;
        return true;
    }
    stats_.xlateCacheMisses += 1;
    return false;
}

void
Processor::xlateFill(Word key, Word value)
{
    XlateCacheEntry &e =
        xlateCache_[(key.bits ^ (static_cast<std::uint64_t>(key.tag) << 3)) &
                    (kXlateCacheSize - 1)];
    e.valid = true;
    e.key = key;
    e.value = value;
}

HandlerStats &
Processor::handlerSlot(unsigned lvl)
{
    // unordered_map element references are stable, so the pointer stays
    // good until the map is cleared (resetStats nulls the slots).
    if (!handlerSlot_[lvl])
        handlerSlot_[lvl] = &handlerStats_[handlerEntry_[lvl]];
    return *handlerSlot_[lvl];
}

/**
 * The per-opcode handlers. Each runs with the per-instruction state
 * already primed by executeOne(): xNext_ = fall-through successor,
 * xCost_ = base + fetch cost, xStall_ = false, faultPending_ = false.
 * A handler either completes (possibly redirecting xNext_ / adding to
 * xCost_), sets xStall_ to retry next cycle, or records a fault.
 */
struct Processor::Exec
{
    using Fn = void (*)(Processor &, const DecodedOp &);

    static const std::array<Fn, static_cast<std::size_t>(
                                    Opcode::NumOpcodes) + 1> table;

    // ---- scalar op kernels (match the original switch bit-for-bit) ----
    static std::int32_t fnAdd(std::int32_t a, std::int32_t b) { return a + b; }
    static std::int32_t fnSub(std::int32_t a, std::int32_t b) { return a - b; }
    static std::int32_t fnMul(std::int32_t a, std::int32_t b) { return a * b; }
    static std::int32_t fnAnd(std::int32_t a, std::int32_t b) { return a & b; }
    static std::int32_t fnOr(std::int32_t a, std::int32_t b) { return a | b; }
    static std::int32_t fnXor(std::int32_t a, std::int32_t b) { return a ^ b; }

    static std::int32_t
    fnAsh(std::int32_t a, std::int32_t b)
    {
        return b >= 0 ? (b > 31 ? 0 : a << b)
                      : (-b > 31 ? (a < 0 ? -1 : 0) : a >> -b);
    }

    static std::int32_t
    fnLsh(std::int32_t a, std::int32_t b)
    {
        return b >= 0 ? (b > 31 ? 0 : a << b)
                      : (-b > 31 ? 0
                                 : static_cast<std::int32_t>(
                                       static_cast<std::uint32_t>(a) >> -b));
    }

    static bool fnLt(std::int32_t a, std::int32_t b) { return a < b; }
    static bool fnLe(std::int32_t a, std::int32_t b) { return a <= b; }
    static bool fnGt(std::int32_t a, std::int32_t b) { return a > b; }
    static bool fnGe(std::int32_t a, std::int32_t b) { return a >= b; }
    static bool fnEq(std::int32_t a, std::int32_t b) { return a == b; }
    static bool fnNe(std::int32_t a, std::int32_t b) { return a != b; }

    // ---- control ----

    static void
    nop(Processor &, const DecodedOp &)
    {
    }

    static void
    halt(Processor &p, const DecodedOp &)
    {
        p.halted_ = true;
    }

    static void
    suspend(Processor &p, const DecodedOp &)
    {
        RegisterSet &rs = p.cur();
        p.stats_.suspends += 1;
        if (p.current_ == Level::Background) {
            rs.parked = true;
            rs.inFault = false;
        } else {
            MessageQueue &q = p.ni_->queue(p.current_ == Level::P1 ? 1 : 0);
            if (!q.head().complete()) {
                p.xStall_ = true;  // wait for the worm's tail before freeing
                p.stats_.suspends -= 1;
                return;
            }
            q.pop();
            rs.live = false;
            rs.inFault = false;  // cfut handlers suspend to end a fault
        }
        if (kTraceCompiledIn && p.tracer_ &&
            p.tracer_->wants(TraceKind::Suspend)) {
            TraceEvent ev;
            ev.cycle = p.xNow_;
            ev.node = p.id_;
            ev.kind = TraceKind::Suspend;
            ev.arg8 = static_cast<std::uint8_t>(p.current_);
            p.tracer_->record(ev);
        }
    }

    static void
    rfe(Processor &p, const DecodedOp &)
    {
        RegisterSet &rs = p.cur();
        if (!rs.inFault)
            p.die("RFE outside a fault handler", rs.ip);
        p.xNext_ = rs.faultIp;
        rs.inFault = false;
        p.invalidateFetch(static_cast<unsigned>(p.current_));
    }

    static void
    br(Processor &p, const DecodedOp &op)
    {
        p.xNext_ = op.target;
        p.xCost_ += p.config_.takenBranchPenalty;
    }

    template <bool OnTrue>
    static void
    condBranch(Processor &p, const DecodedOp &op)
    {
        bool cond;
        if (!p.boolOperand(op.rd, cond))
            return;
        if (cond == OnTrue) {
            p.xNext_ = op.target;
            p.xCost_ += p.config_.takenBranchPenalty;
        }
    }

    static void
    call(Processor &p, const DecodedOp &op)
    {
        // Wide format: op.imm is the precomputed return point past the
        // literal word; op.target is the resolved entry.
        p.setReg(p.cur(), op.rd, Word::makeIp(static_cast<IAddr>(op.imm)));
        p.xNext_ = op.target;
        p.xCost_ += p.config_.takenBranchPenalty;
    }

    static void
    jmp(Processor &p, const DecodedOp &op)
    {
        const Word &t = p.cur()[op.rd];
        if (t.tag != Tag::Ip && t.tag != Tag::Int) {
            p.raiseFault(FaultKind::TagMismatch, t, Word::makeInt(op.rd));
            return;
        }
        p.xNext_ = static_cast<IAddr>(t.bits);
        p.xCost_ += p.config_.takenBranchPenalty;
    }

    // ---- moves ----

    static void
    move(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        p.setReg(rs, op.rd, rs[op.ra]);
    }

    static void
    movei(Processor &p, const DecodedOp &op)
    {
        p.setReg(p.cur(), op.rd, Word::makeInt(op.imm));
    }

    static void
    ldl(Processor &p, const DecodedOp &op)
    {
        // xNext_ already skips the filler slot and the literal word.
        p.setReg(p.cur(), op.rd, op.literal);
    }

    // ---- memory ----

    template <bool Indexed, bool NoTrap>
    static void
    load(Processor &p, const DecodedOp &op)
    {
        Addr addr = 0;
        unsigned penalty = 0;
        if (!p.memAddress(op, Indexed, addr, penalty))
            return;
        if (!p.queueWordReady(addr)) {
            p.xStall_ = true;
            return;
        }
        p.xCost_ += penalty;
        const Word v = p.mem_->read(addr);
        if (!NoTrap && v.tag == Tag::Cfut) {
            p.raiseFault(FaultKind::CfutRead,
                         Word::makeInt(static_cast<std::int32_t>(addr)), v);
            return;
        }
        p.setReg(p.cur(), op.rd, v);
    }

    template <bool Indexed>
    static void
    store(Processor &p, const DecodedOp &op)
    {
        Addr addr = 0;
        unsigned penalty = 0;
        if (!p.memAddress(op, Indexed, addr, penalty))
            return;
        p.xCost_ += penalty;
        if (p.eagerUndo_)
            p.undo_.emplace_back(addr, p.mem_->read(addr));
        p.mem_->write(addr, p.cur()[op.rd]);
    }

    template <std::int32_t (*F)(std::int32_t, std::int32_t)>
    static void
    aluMem(Processor &p, const DecodedOp &op)
    {
        Addr addr = 0;
        unsigned penalty = 0;
        if (!p.memAddress(op, false, addr, penalty))
            return;
        if (!p.queueWordReady(addr)) {
            p.xStall_ = true;
            return;
        }
        p.xCost_ += penalty;
        const Word m = p.mem_->read(addr);
        if (m.tag == Tag::Cfut) {
            p.raiseFault(FaultKind::CfutRead,
                         Word::makeInt(static_cast<std::int32_t>(addr)), m);
            return;
        }
        if (m.tag == Tag::Fut) {
            p.raiseFault(FaultKind::FutUse, m, Word::makeInt(op.rd));
            return;
        }
        if (m.tag != Tag::Int && m.tag != Tag::Bool) {
            p.raiseFault(FaultKind::TagMismatch, m, Word::makeInt(op.rd));
            return;
        }
        std::int32_t a;
        if (!p.aluOperand(op.rd, a))
            return;
        p.setReg(p.cur(), op.rd, Word::makeInt(F(a, m.asInt())));
    }

    // ---- arithmetic / logic ----

    template <std::int32_t (*F)(std::int32_t, std::int32_t)>
    static void
    aluRR(Processor &p, const DecodedOp &op)
    {
        std::int32_t a, b;
        if (!p.aluOperand(op.ra, a) || !p.aluOperand(op.rb, b))
            return;
        p.setReg(p.cur(), op.rd, Word::makeInt(F(a, b)));
    }

    template <std::int32_t (*F)(std::int32_t, std::int32_t)>
    static void
    aluRI(Processor &p, const DecodedOp &op)
    {
        std::int32_t a;
        if (!p.aluOperand(op.ra, a))
            return;
        p.setReg(p.cur(), op.rd, Word::makeInt(F(a, op.imm)));
    }

    static void
    notOp(Processor &p, const DecodedOp &op)
    {
        std::int32_t a;
        if (!p.aluOperand(op.ra, a))
            return;
        p.setReg(p.cur(), op.rd, Word::makeInt(~a));
    }

    static void
    negOp(Processor &p, const DecodedOp &op)
    {
        std::int32_t a;
        if (!p.aluOperand(op.ra, a))
            return;
        p.setReg(p.cur(), op.rd, Word::makeInt(-a));
    }

    // ---- comparisons ----

    template <bool WantEq>
    static void
    eqNe(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        const Word &wa = rs[op.ra];
        const Word &wb = rs[op.rb];
        if (wa.isFuture() || wb.isFuture()) {
            p.raiseFault(FaultKind::FutUse, wa.isFuture() ? wa : wb,
                         Word::makeInt(op.rd));
            return;
        }
        const bool equal = wa == wb;
        p.setReg(rs, op.rd, Word::makeBool(WantEq ? equal : !equal));
    }

    template <bool (*F)(std::int32_t, std::int32_t)>
    static void
    cmpRR(Processor &p, const DecodedOp &op)
    {
        std::int32_t a, b;
        if (!p.aluOperand(op.ra, a) || !p.aluOperand(op.rb, b))
            return;
        p.setReg(p.cur(), op.rd, Word::makeBool(F(a, b)));
    }

    template <bool (*F)(std::int32_t, std::int32_t)>
    static void
    cmpRI(Processor &p, const DecodedOp &op)
    {
        std::int32_t a;
        if (!p.aluOperand(op.ra, a))
            return;
        p.setReg(p.cur(), op.rd, Word::makeBool(F(a, op.imm)));
    }

    // ---- network ----

    template <unsigned Words, unsigned Prio, bool End>
    static void
    send(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        SendResult res;
        if constexpr (Words == 2)
            res = p.ni_->sendWords2(Prio, rs[op.rd], rs[op.ra], End, p.xNow_);
        else
            res = p.ni_->sendWord(Prio, rs[op.rd], End, p.xNow_);
        switch (res) {
          case SendResult::Ok:
            rs.sending = !End;
            break;
          case SendResult::Full:
            p.raiseFault(FaultKind::SendFault,
                         Word::makeInt(static_cast<std::int32_t>(Prio)),
                         Word::makeNil());
            break;
          case SendResult::BadDest:
            p.raiseFault(FaultKind::BadAddress, rs[op.rd], Word::makeNil());
            break;
          case SendResult::BadFormat:
            p.raiseFault(FaultKind::SendFormat, rs[op.rd], Word::makeNil());
            break;
        }
    }

    // ---- tags ----

    static void
    rtag(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        p.setReg(rs, op.rd,
                 Word::makeInt(static_cast<std::int32_t>(rs[op.ra].tag)));
    }

    static void
    wtag(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        p.setReg(rs, op.rd,
                 Word{rs[op.ra].bits, static_cast<Tag>(op.imm & 0xf)});
    }

    static void
    check(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        if (rs[op.rd].tag != static_cast<Tag>(op.imm & 0xf))
            p.raiseFault(FaultKind::TagMismatch, rs[op.rd],
                         Word::makeInt(op.imm));
    }

    // ---- segments / headers / translation ----

    static void
    setseg(Processor &p, const DecodedOp &op)
    {
        std::int32_t a, b;
        if (!p.aluOperand(op.ra, a) || !p.aluOperand(op.rb, b))
            return;
        SegDesc desc;
        desc.base = static_cast<Addr>(a);
        desc.length = static_cast<std::uint32_t>(b);
        if (a < 0 || b < 0 || !desc.encodable()) {
            p.raiseFault(FaultKind::BoundsError, Word::makeInt(a),
                         Word::makeInt(b));
            return;
        }
        p.setReg(p.cur(), op.rd, desc.encode());
    }

    static void
    mkhdr(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        const Word &ipw = rs[op.ra];
        if (ipw.tag != Tag::Ip && ipw.tag != Tag::Int) {
            p.raiseFault(FaultKind::TagMismatch, ipw, Word::makeInt(op.ra));
            return;
        }
        std::int32_t b;
        if (!p.aluOperand(op.rb, b))
            return;
        MsgHeader hdr;
        hdr.handlerIp = static_cast<IAddr>(ipw.bits);
        hdr.length = static_cast<std::uint32_t>(b);
        if (b < 0 || hdr.handlerIp > MsgHeader::kMaxIp ||
            hdr.length > MsgHeader::kMaxLength) {
            p.raiseFault(FaultKind::BoundsError, ipw, Word::makeInt(b));
            return;
        }
        p.setReg(rs, op.rd, hdr.encode());
    }

    static void
    enter(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        p.xlate_.enter(rs[op.rd], rs[op.ra]);
    }

    static void
    xlateOp(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        const Word key = rs[op.ra];
        Word v;
        if (p.xlateCached(key, v)) {
            p.setReg(rs, op.rd, v);
            return;
        }
        const auto hit = p.xlate_.lookup(key);
        if (!hit) {
            p.raiseFault(FaultKind::XlateMiss, key, Word::makeNil());
            return;
        }
        p.xlateFill(key, *hit);
        p.setReg(rs, op.rd, *hit);
    }

    static void
    probe(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        const Word key = rs[op.ra];
        Word v;
        if (p.xlateCached(key, v)) {
            p.setReg(rs, op.rd, v);
            return;
        }
        const auto hit = p.xlate_.lookup(key);
        if (hit)
            p.xlateFill(key, *hit);
        p.setReg(rs, op.rd, hit ? *hit : Word::makeNil());
    }

    // ---- special registers ----

    static void
    getsp(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        Word v;
        switch (static_cast<SpecialReg>(op.imm)) {
          case SpecialReg::NodeId:
            v = Word::makeInt(static_cast<std::int32_t>(p.id_));
            break;
          case SpecialReg::Nnr:
            v = Word::makeInt(static_cast<std::int32_t>(
                p.dims_.toCoord(p.id_).pack()));
            break;
          case SpecialReg::Nodes:
            v = Word::makeInt(static_cast<std::int32_t>(p.dims_.nodes()));
            break;
          case SpecialReg::Dims:
            v = Word::makeInt(static_cast<std::int32_t>(p.dims_.pack()));
            break;
          case SpecialReg::CycleLo:
            v = Word::makeInt(
                static_cast<std::int32_t>(p.xNow_ & 0xffffffffu));
            break;
          case SpecialReg::CycleHi:
            v = Word::makeInt(static_cast<std::int32_t>(p.xNow_ >> 32));
            break;
          case SpecialReg::QLen0:
            v = Word::makeInt(static_cast<std::int32_t>(
                p.ni_->queue(0).wordsUsed()));
            break;
          case SpecialReg::QLen1:
            v = Word::makeInt(static_cast<std::int32_t>(
                p.ni_->queue(1).wordsUsed()));
            break;
          case SpecialReg::Fval0:
            v = rs.fval0;
            break;
          case SpecialReg::Fval1:
            v = rs.fval1;
            break;
          case SpecialReg::Fip:
            v = Word::makeIp(rs.faultIp);
            break;
          case SpecialReg::Tmp0:
          case SpecialReg::Tmp1:
          case SpecialReg::Tmp2:
          case SpecialReg::Tmp3:
            v = rs.tmp[op.imm - static_cast<std::int32_t>(SpecialReg::Tmp0)];
            break;
          default:
            p.die("GETSP of unknown special register", rs.ip);
        }
        p.setReg(rs, op.rd, v);
    }

    static void
    setsp(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        const auto spec = static_cast<SpecialReg>(op.imm);
        if (spec < SpecialReg::Tmp0 || spec > SpecialReg::Tmp3)
            p.die("SETSP target must be a fault temporary", rs.ip);
        rs.tmp[op.imm - static_cast<std::int32_t>(SpecialReg::Tmp0)] =
            rs[op.rd];
    }

    static void
    jsp(Processor &p, const DecodedOp &op)
    {
        RegisterSet &rs = p.cur();
        Word t;
        switch (static_cast<SpecialReg>(op.imm)) {
          case SpecialReg::Fip:
            t = Word::makeIp(rs.faultIp);
            break;
          case SpecialReg::Tmp0:
          case SpecialReg::Tmp1:
          case SpecialReg::Tmp2:
          case SpecialReg::Tmp3:
            t = rs.tmp[op.imm - static_cast<std::int32_t>(SpecialReg::Tmp0)];
            break;
          default:
            p.die("JSP source must be FIP or a fault temporary", rs.ip);
        }
        if (t.tag != Tag::Ip && t.tag != Tag::Int) {
            p.raiseFault(FaultKind::TagMismatch, t, Word::makeInt(op.imm));
            return;
        }
        p.xNext_ = static_cast<IAddr>(t.bits);
        p.xCost_ += p.config_.takenBranchPenalty;
    }

    static void
    out(Processor &p, const DecodedOp &op)
    {
        p.hostOut_.push_back(p.cur()[op.rd]);
    }

    static void
    badOp(Processor &p, const DecodedOp &)
    {
        p.die("corrupt opcode", p.cur().ip);
    }

    static std::array<Fn, static_cast<std::size_t>(Opcode::NumOpcodes) + 1>
    makeTable()
    {
        std::array<Fn, static_cast<std::size_t>(Opcode::NumOpcodes) + 1> t{};
        t.fill(&badOp);
        const auto set = [&t](Opcode op, Fn fn) {
            t[static_cast<std::size_t>(op)] = fn;
        };
        set(Opcode::Nop, &nop);
        set(Opcode::Halt, &halt);
        set(Opcode::Suspend, &suspend);
        set(Opcode::Rfe, &rfe);
        set(Opcode::Br, &br);
        set(Opcode::Bt, &condBranch<true>);
        set(Opcode::Bf, &condBranch<false>);
        set(Opcode::Call, &call);
        set(Opcode::Jmp, &jmp);
        set(Opcode::Move, &move);
        set(Opcode::Movei, &movei);
        set(Opcode::Ldl, &ldl);
        set(Opcode::Ld, &load<false, false>);
        set(Opcode::Ldx, &load<true, false>);
        set(Opcode::Ldraw, &load<false, true>);
        set(Opcode::Ldrawx, &load<true, true>);
        set(Opcode::St, &store<false>);
        set(Opcode::Stx, &store<true>);
        set(Opcode::Addm, &aluMem<&fnAdd>);
        set(Opcode::Subm, &aluMem<&fnSub>);
        set(Opcode::Andm, &aluMem<&fnAnd>);
        set(Opcode::Orm, &aluMem<&fnOr>);
        set(Opcode::Xorm, &aluMem<&fnXor>);
        set(Opcode::Add, &aluRR<&fnAdd>);
        set(Opcode::Sub, &aluRR<&fnSub>);
        set(Opcode::Mul, &aluRR<&fnMul>);
        set(Opcode::Ash, &aluRR<&fnAsh>);
        set(Opcode::Lsh, &aluRR<&fnLsh>);
        set(Opcode::And, &aluRR<&fnAnd>);
        set(Opcode::Or, &aluRR<&fnOr>);
        set(Opcode::Xor, &aluRR<&fnXor>);
        set(Opcode::Not, &notOp);
        set(Opcode::Neg, &negOp);
        set(Opcode::Addi, &aluRI<&fnAdd>);
        set(Opcode::Ashi, &aluRI<&fnAsh>);
        set(Opcode::Lshi, &aluRI<&fnLsh>);
        set(Opcode::Andi, &aluRI<&fnAnd>);
        set(Opcode::Ori, &aluRI<&fnOr>);
        set(Opcode::Xori, &aluRI<&fnXor>);
        set(Opcode::Eq, &eqNe<true>);
        set(Opcode::Ne, &eqNe<false>);
        set(Opcode::Lt, &cmpRR<&fnLt>);
        set(Opcode::Le, &cmpRR<&fnLe>);
        set(Opcode::Gt, &cmpRR<&fnGt>);
        set(Opcode::Ge, &cmpRR<&fnGe>);
        set(Opcode::Eqi, &cmpRI<&fnEq>);
        set(Opcode::Nei, &cmpRI<&fnNe>);
        set(Opcode::Lti, &cmpRI<&fnLt>);
        set(Opcode::Lei, &cmpRI<&fnLe>);
        set(Opcode::Gti, &cmpRI<&fnGt>);
        set(Opcode::Gei, &cmpRI<&fnGe>);
        set(Opcode::Send0, &send<1, 0, false>);
        set(Opcode::Send0e, &send<1, 0, true>);
        set(Opcode::Send20, &send<2, 0, false>);
        set(Opcode::Send20e, &send<2, 0, true>);
        set(Opcode::Send1, &send<1, 1, false>);
        set(Opcode::Send1e, &send<1, 1, true>);
        set(Opcode::Send21, &send<2, 1, false>);
        set(Opcode::Send21e, &send<2, 1, true>);
        set(Opcode::Rtag, &rtag);
        set(Opcode::Wtag, &wtag);
        set(Opcode::Check, &check);
        set(Opcode::Setseg, &setseg);
        set(Opcode::Mkhdr, &mkhdr);
        set(Opcode::Enter, &enter);
        set(Opcode::Xlate, &xlateOp);
        set(Opcode::Probe, &probe);
        set(Opcode::Getsp, &getsp);
        set(Opcode::Setsp, &setsp);
        set(Opcode::Jsp, &jsp);
        set(Opcode::Out, &out);
        return t;
    }
};

const std::array<Processor::Exec::Fn,
                 static_cast<std::size_t>(Opcode::NumOpcodes) + 1>
    Processor::Exec::table = Processor::Exec::makeTable();

void
Processor::executeOne(Cycle now)
{
    RegisterSet &rs = cur();
    const unsigned lvl = static_cast<unsigned>(current_);
    const IAddr ip = rs.ip;
    if (ip >= decodedCount_ || !decoded_[ip].valid)
        die("execution reached a non-code address", ip);
    const DecodedOp &op = decoded_[ip];
    if (trace_) {
        std::fprintf(stderr,
                     "[n%u c%llu L%u i%u %s] %-28s R0=%s R1=%s R2=%s R3=%s\n",
                     id_, static_cast<unsigned long long>(now),
                     static_cast<unsigned>(current_), ip,
                     prog_->nearestLabel(ip).c_str(),
                     prog_->fetch(ip).toString().c_str(),
                     rs[0].toString().c_str(), rs[1].toString().c_str(),
                     rs[2].toString().c_str(), rs[3].toString().c_str());
    }

    xCost_ = op.baseCycles;

    // Instruction fetch: internal fetches overlap execution; a new
    // external code word costs a DRAM access.
    if (!fetchKnown_[lvl] || lastFetchWord_[lvl] != op.wordAddr) {
        fetchKnown_[lvl] = true;
        lastFetchWord_[lvl] = op.wordAddr;
        if (op.ememWord)
            xCost_ += config_.ememFetchCycles;
    }

    xNext_ = op.nextIp;
    xStall_ = false;
    xNow_ = now;
    faultPending_ = false;

    Exec::table[op.handler](*this, op);

    if (faultPending_) {
        stats_.faults[static_cast<unsigned>(faultKind_)] += 1;
        if (kTraceCompiledIn && tracer_ &&
            tracer_->wants(TraceKind::Fault)) {
            TraceEvent ev;
            ev.cycle = now;
            ev.node = id_;
            ev.kind = TraceKind::Fault;
            ev.arg8 = static_cast<std::uint8_t>(faultKind_);
            ev.a0 = ip;
            tracer_->record(ev);
        }
        if (rs.inFault)
            die(std::string("fault '") + faultName(faultKind_) +
                    "' inside a fault handler",
                ip);
        if (!config_.hasVector[static_cast<unsigned>(faultKind_)])
            die(std::string("unhandled fault '") + faultName(faultKind_) +
                    "' (fval0=" + faultVal0_.toString() + ")",
                ip);
        rs.inFault = true;
        rs.faultIp = ip;
        rs.fval0 = faultVal0_;
        rs.fval1 = faultVal1_;
        rs.ip = config_.vectors[static_cast<unsigned>(faultKind_)];
        invalidateFetch(lvl);
        xCost_ += config_.faultEntryCycles;
        attribute(faultStatClass(faultKind_), xCost_);
        busyUntil_ = now + xCost_;
        return;
    }

    if (xStall_) {
        stats_.queueStallCycles += 1;
        attribute(StatClass::Comm, 1);
        busyUntil_ = now + 1;
        return;
    }

    rs.ip = xNext_;
    busyUntil_ = now + xCost_;
    stats_.instructions += 1;
    if (op.countsOs)
        stats_.instructionsOs += 1;
    attribute(op.effClass, xCost_);

    HandlerStats &hs = handlerSlot(lvl);
    hs.instructions += 1;
    hs.cycles += xCost_;
}

/**
 * Superblock execution. A span is a straight-line run of predecoded
 * ops retired back-to-back inside one kernel step: the kernel-loop
 * round trip, level selection, and fetch checks are paid once per run
 * instead of once per op, while every architectural observable (cycle
 * counts, stats, faults, memory, trace events) stays bit-identical to
 * per-op stepping.
 *
 * Tier selection decides how far a span may run ahead of the machine:
 *
 *  - Exclusive: the kernel proved no message can arrive (single active
 *    node, empty network, quiescent NI). Fuse with no guards; faults
 *    and queue stalls are replicated inline at their logical cycle.
 *  - Safe: the current level cannot be preempted no matter what
 *    arrives — an open send sequence, a live fault handler, live P1,
 *    or live P0 in an image with no P1 sends (selectLevel's priority
 *    order keeps picking it). Queue-region reads are guarded against
 *    words that had not arrived at span entry: such an access aborts
 *    the op side-effect-free and the span falls back to per-op
 *    execution at the op's architectural cycle.
 *  - Optimistic: background (any arrival preempts) or P0 with P1
 *    traffic possible. The span snapshots its level's state and logs
 *    store undos; if the NI later reports an arrival that would have
 *    preempted mid-span (noteDispatchable), the span rolls back and
 *    deterministically replays only the prefix that architecturally
 *    executed before the arrival became visible.
 *
 * Ops flagged kSbStopBefore (SEND/SUSPEND/HALT/GETSP-QLen) always run
 * per-op; kSbStopOpt ops (ENTER/XLATE/PROBE/OUT) additionally end
 * optimistic spans since rollback cannot undo them.
 */
Processor::SpanResult
Processor::runSpanOps(Cycle start, Cycle stop, unsigned budget,
                      SpanTier tier)
{
    const unsigned lvl = static_cast<unsigned>(current_);
    RegisterSet &rs = sets_[lvl];
    HandlerStats &hs = handlerSlot(lvl);
    const std::vector<std::uint32_t> &runLens = prog_->sbRunLens();
    const std::size_t runCount = runLens.size();
    const bool optimistic = tier == SpanTier::Optimistic;
    const bool guarded = tier != SpanTier::Exclusive;

    SpanResult r;
    r.lastStart = start;
    Cycle c = start;
    std::uint32_t run = 0;      ///< ops left in the current superblock
    bool chainFetch = false;    ///< previous span op fell through here

    // ---- spin fast-forward (see Program::spinHeads) ----
    //
    // A pure busy-wait loop reads only state that is frozen for the
    // span's lifetime: its body has no stores or sends, writes from
    // other levels cannot interleave with a span, and NI deliveries
    // touch only the (guarded) queue region. So once one whole probe
    // iteration reproduces the registers, fetch latch, and segment
    // cache exactly, every further iteration is provably identical —
    // the remaining iterations up to `stop` are retired in bulk by
    // scaling the probe iteration's measured statistics deltas. The
    // bulk count is a pure function of the entry state and `stop`, so
    // a rollback replay with a shorter stop deterministically commits
    // exactly the prefix the original span committed.
    const std::vector<IAddr> &spinHeads = prog_->spinHeads();
    const std::size_t spinCount = spinHeads.size();
    IAddr spinIp = Program::kNoSpinHead;       ///< armed closing branch
    IAddr spinBlocked = Program::kNoSpinHead;  ///< not steady: gave up
    unsigned spinMiss = 0;
    RegisterSet spinRegs;
    std::array<SegCacheEntry, 4> spinSeg{};
    bool spinFetchKnown = false;
    Addr spinFetchWord = 0;
    Cycle spinC = 0;
    std::uint64_t spinInstr = 0;
    std::uint64_t spinInstrOs = 0;
    Cycle spinRunCycles = 0;
    decltype(stats_.cyclesByClass) spinByClass{};
    std::uint64_t spinHits = 0;
    std::uint64_t spinMisses = 0;
    std::uint64_t spinHsI = 0;
    std::uint64_t spinHsC = 0;
    std::uint64_t spinExec = 0;
    const auto armSpin = [&](Cycle at) {
        spinRegs = rs;
        spinSeg = segCache_[lvl];
        spinFetchKnown = fetchKnown_[lvl];
        spinFetchWord = lastFetchWord_[lvl];
        spinC = at;
        spinInstr = stats_.instructions;
        spinInstrOs = stats_.instructionsOs;
        spinRunCycles = stats_.runCycles;
        spinByClass = stats_.cyclesByClass;
        spinHits = stats_.segCacheHits;
        spinMisses = stats_.segCacheMisses;
        spinHsI = hs.instructions;
        spinHsC = hs.cycles;
        spinExec = r.executed;
    };
    /** Don't bother probing unless the span has this much runway. */
    constexpr Cycle kSpinArmRunway = 64;

    while (r.executed < budget && c < stop) {
        const IAddr ip = rs.ip;
        if (run == 0) {
            // Block lookup: how many ops are provably fusable from
            // here along the fall-through path?
            const std::uint32_t packed = ip < runCount ? runLens[ip] : 0;
            run = optimistic ? packed >> 16 : (packed & 0xffffu);
            if (run == 0)
                break;  // stop-flagged or invalid head: per-op fallback
        }
        const DecodedOp &op = decoded_[ip];
        const std::uint8_t f = op.sbFlags;

        xCost_ = op.baseCycles;
        // Fetch cost, elided when the predecessor in this span already
        // latched the same instruction word.
        if (!(chainFetch && (f & sb::kSameWord))) {
            if (!fetchKnown_[lvl] || lastFetchWord_[lvl] != op.wordAddr) {
                fetchKnown_[lvl] = true;
                lastFetchWord_[lvl] = op.wordAddr;
                if (op.ememWord)
                    xCost_ += config_.ememFetchCycles;
            }
        }
        xNext_ = op.nextIp;
        xStall_ = false;
        xNow_ = c;
        faultPending_ = false;
        eagerAbort_ = false;

        const bool memSaved = guarded && (f & sb::kMem);
        if (memSaved) {
            memSaveEntry_ = segCache_[lvl][op.abase & 3u];
            memSaveHits_ = stats_.segCacheHits;
            memSaveMisses_ = stats_.segCacheMisses;
        }

        // Direct-threaded dispatch: the hot opcodes are distributed
        // switch cases the compiler lowers to a jump table and inlines;
        // everything else tail-dispatches through the handler table.
        switch (static_cast<Opcode>(op.handler)) {
          case Opcode::Nop: break;
          case Opcode::Br: Exec::br(*this, op); break;
          case Opcode::Bt: Exec::condBranch<true>(*this, op); break;
          case Opcode::Bf: Exec::condBranch<false>(*this, op); break;
          case Opcode::Call: Exec::call(*this, op); break;
          case Opcode::Jmp: Exec::jmp(*this, op); break;
          case Opcode::Move: Exec::move(*this, op); break;
          case Opcode::Movei: Exec::movei(*this, op); break;
          case Opcode::Ldl: Exec::ldl(*this, op); break;
          case Opcode::Ld: Exec::load<false, false>(*this, op); break;
          case Opcode::Ldx: Exec::load<true, false>(*this, op); break;
          case Opcode::Ldraw: Exec::load<false, true>(*this, op); break;
          case Opcode::Ldrawx: Exec::load<true, true>(*this, op); break;
          case Opcode::St: Exec::store<false>(*this, op); break;
          case Opcode::Stx: Exec::store<true>(*this, op); break;
          case Opcode::Addm: Exec::aluMem<&Exec::fnAdd>(*this, op); break;
          case Opcode::Subm: Exec::aluMem<&Exec::fnSub>(*this, op); break;
          case Opcode::Andm: Exec::aluMem<&Exec::fnAnd>(*this, op); break;
          case Opcode::Orm: Exec::aluMem<&Exec::fnOr>(*this, op); break;
          case Opcode::Xorm: Exec::aluMem<&Exec::fnXor>(*this, op); break;
          case Opcode::Add: Exec::aluRR<&Exec::fnAdd>(*this, op); break;
          case Opcode::Sub: Exec::aluRR<&Exec::fnSub>(*this, op); break;
          case Opcode::Mul: Exec::aluRR<&Exec::fnMul>(*this, op); break;
          case Opcode::Ash: Exec::aluRR<&Exec::fnAsh>(*this, op); break;
          case Opcode::Lsh: Exec::aluRR<&Exec::fnLsh>(*this, op); break;
          case Opcode::And: Exec::aluRR<&Exec::fnAnd>(*this, op); break;
          case Opcode::Or: Exec::aluRR<&Exec::fnOr>(*this, op); break;
          case Opcode::Xor: Exec::aluRR<&Exec::fnXor>(*this, op); break;
          case Opcode::Addi: Exec::aluRI<&Exec::fnAdd>(*this, op); break;
          case Opcode::Ashi: Exec::aluRI<&Exec::fnAsh>(*this, op); break;
          case Opcode::Lshi: Exec::aluRI<&Exec::fnLsh>(*this, op); break;
          case Opcode::Andi: Exec::aluRI<&Exec::fnAnd>(*this, op); break;
          case Opcode::Ori: Exec::aluRI<&Exec::fnOr>(*this, op); break;
          case Opcode::Xori: Exec::aluRI<&Exec::fnXor>(*this, op); break;
          case Opcode::Eq: Exec::eqNe<true>(*this, op); break;
          case Opcode::Ne: Exec::eqNe<false>(*this, op); break;
          case Opcode::Lt: Exec::cmpRR<&Exec::fnLt>(*this, op); break;
          case Opcode::Le: Exec::cmpRR<&Exec::fnLe>(*this, op); break;
          case Opcode::Gt: Exec::cmpRR<&Exec::fnGt>(*this, op); break;
          case Opcode::Ge: Exec::cmpRR<&Exec::fnGe>(*this, op); break;
          case Opcode::Eqi: Exec::cmpRI<&Exec::fnEq>(*this, op); break;
          case Opcode::Nei: Exec::cmpRI<&Exec::fnNe>(*this, op); break;
          case Opcode::Lti: Exec::cmpRI<&Exec::fnLt>(*this, op); break;
          case Opcode::Lei: Exec::cmpRI<&Exec::fnLe>(*this, op); break;
          case Opcode::Gti: Exec::cmpRI<&Exec::fnGt>(*this, op); break;
          case Opcode::Gei: Exec::cmpRI<&Exec::fnGe>(*this, op); break;
          default: Exec::table[op.handler](*this, op); break;
        }

        if (eagerAbort_) {
            // Queue-guard abort: unwind the segment-cache lookup and
            // end the span before this op.
            segCache_[lvl][op.abase & 3u] = memSaveEntry_;
            stats_.segCacheHits = memSaveHits_;
            stats_.segCacheMisses = memSaveMisses_;
            break;
        }
        if (faultPending_) {
            if (optimistic) {
                // End the span before the op; the per-op retry at the
                // correct cycle re-faults with identical side effects.
                if (memSaved) {
                    segCache_[lvl][op.abase & 3u] = memSaveEntry_;
                    stats_.segCacheHits = memSaveHits_;
                    stats_.segCacheMisses = memSaveMisses_;
                }
                break;
            }
            // Safe/exclusive tiers take the fault inline, replicating
            // executeOne's fault path at the op's logical cycle.
            stats_.faults[static_cast<unsigned>(faultKind_)] += 1;
            if (kTraceCompiledIn && tracer_ &&
                tracer_->wants(TraceKind::Fault)) {
                TraceEvent ev;
                ev.cycle = c;
                ev.node = id_;
                ev.kind = TraceKind::Fault;
                ev.arg8 = static_cast<std::uint8_t>(faultKind_);
                ev.a0 = ip;
                tracer_->record(ev);
            }
            if (rs.inFault)
                die(std::string("fault '") + faultName(faultKind_) +
                        "' inside a fault handler",
                    ip);
            if (!config_.hasVector[static_cast<unsigned>(faultKind_)])
                die(std::string("unhandled fault '") +
                        faultName(faultKind_) +
                        "' (fval0=" + faultVal0_.toString() + ")",
                    ip);
            rs.inFault = true;
            rs.faultIp = ip;
            rs.fval0 = faultVal0_;
            rs.fval1 = faultVal1_;
            rs.ip = config_.vectors[static_cast<unsigned>(faultKind_)];
            invalidateFetch(lvl);
            xCost_ += config_.faultEntryCycles;
            attribute(faultStatClass(faultKind_), xCost_);
            busyUntil_ = c + xCost_;
            r.end = c + xCost_;
            r.endedInline = true;
            return r;
        }
        if (xStall_) {
            // Only reachable in exclusive spans (the guard pre-empts
            // queue stalls elsewhere); replicate the per-op stall.
            stats_.queueStallCycles += 1;
            attribute(StatClass::Comm, 1);
            busyUntil_ = c + 1;
            r.end = c + 1;
            r.endedInline = true;
            return r;
        }

        // Commit, exactly as executeOne does.
        rs.ip = xNext_;
        stats_.instructions += 1;
        if (op.countsOs)
            stats_.instructionsOs += 1;
        attribute(op.effClass, xCost_);
        hs.instructions += 1;
        hs.cycles += xCost_;
        r.lastStart = c;
        c += xCost_;
        r.executed += 1;
        run -= 1;
        chainFetch = xNext_ == op.nextIp;
        if (!chainFetch) {
            run = 0;  // control transfer: re-enter block lookup
            // Taken closing branch of a discovered spin loop: probe
            // for a steady state, then retire iterations in bulk. The
            // c < stop guard keeps the k computation from underflowing
            // (and the loop is about to exit anyway).
            if (c < stop && ip < spinCount &&
                spinHeads[ip] != Program::kNoSpinHead &&
                ip != spinBlocked) {
                if (spinIp == ip) {
                    const bool steady = spinRegs == rs &&
                                        spinSeg == segCache_[lvl] &&
                                        spinFetchKnown == fetchKnown_[lvl] &&
                                        spinFetchWord == lastFetchWord_[lvl];
                    if (steady) {
                        // One iteration costs d cycles and ends with
                        // the branch's xCost_; k more whole iterations
                        // fit while the branch still starts before
                        // `stop` (matching the per-op c < stop check).
                        const Cycle d = c - spinC;
                        const std::uint64_t k = (stop - c - 1 + xCost_) / d;
                        if (k > 0) {
                            const std::uint64_t dI = stats_.instructions - spinInstr;
                            const std::uint64_t dIOs = stats_.instructionsOs - spinInstrOs;
                            const Cycle dRun = stats_.runCycles - spinRunCycles;
                            const std::uint64_t dHit = stats_.segCacheHits - spinHits;
                            const std::uint64_t dMiss = stats_.segCacheMisses - spinMisses;
                            const std::uint64_t dHsI = hs.instructions - spinHsI;
                            const std::uint64_t dHsC = hs.cycles - spinHsC;
                            const std::uint64_t dExec = r.executed - spinExec;
                            stats_.instructions += k * dI;
                            stats_.instructionsOs += k * dIOs;
                            stats_.runCycles += k * dRun;
                            for (std::size_t i = 0;
                                 i < stats_.cyclesByClass.size(); ++i)
                                stats_.cyclesByClass[i] +=
                                    k * (stats_.cyclesByClass[i] -
                                         spinByClass[i]);
                            stats_.segCacheHits += k * dHit;
                            stats_.segCacheMisses += k * dMiss;
                            hs.instructions += k * dHsI;
                            hs.cycles += k * dHsC;
                            r.executed += k * dExec;
                            c += k * d;
                            r.lastStart = c - xCost_;
                        }
                        armSpin(c);  // re-baseline (k can be 0 near stop)
                    } else if (++spinMiss >= 2) {
                        spinBlocked = ip;  // a real loop, not a busy-wait
                        spinIp = Program::kNoSpinHead;
                    } else {
                        armSpin(c);  // converging (e.g. cache warm-up)
                    }
                } else if (stop - c >= kSpinArmRunway) {
                    spinIp = ip;
                    spinMiss = 0;
                    armSpin(c);
                }
            }
        }
        if (f & sb::kStopAfter)
            break;    // RFE changed the preemption tier
    }
    r.end = c;
    busyUntil_ = c;
    return r;
}

void
Processor::executeSpan(Cycle now, Cycle horizon, bool exclusive)
{
    const unsigned lvl = static_cast<unsigned>(current_);
    RegisterSet &rs = sets_[lvl];
    spanActive_ = false;

    SpanTier tier;
    unsigned violPrioMin = 0;
    if (exclusive) {
        tier = SpanTier::Exclusive;
    } else if (rs.sending || rs.inFault || current_ == Level::P1 ||
               (current_ == Level::P0 && !prog_->hasP1Sends())) {
        // selectLevel keeps picking this level no matter what arrives:
        // an arrival cannot create a sending, faulting, or
        // higher-priority live candidate.
        tier = SpanTier::Safe;
    } else {
        tier = SpanTier::Optimistic;
        violPrioMin = current_ == Level::P0 ? 1 : 0;
    }

    // A stop-flagged (SEND/SUSPEND/HALT/GETSP-QLen) or invalid head
    // cannot fuse at all: skip the allowance freeze and the optimistic
    // snapshot and run the per-op interpreter directly.
    {
        const std::vector<std::uint32_t> &runLens = prog_->sbRunLens();
        const IAddr headIp = rs.ip;
        const std::uint32_t packed =
            headIp < runLens.size() ? runLens[headIp] : 0;
        const std::uint32_t len = tier == SpanTier::Optimistic
                                      ? packed >> 16
                                      : (packed & 0xffffu);
        if (len == 0) {
            executeOne(now);
            return;
        }
    }

    // Freeze the queue-region allowance: the arrived prefix of the
    // current level's head message. NI deliveries only append past it,
    // so reads inside the allowance are stable for the span's lifetime.
    eagerQLo_ = 1;
    eagerQHi_ = 0;
    if (tier != SpanTier::Exclusive && current_ != Level::Background) {
        const MessageQueue &q = ni_->queue(current_ == Level::P1 ? 1 : 0);
        if (!q.empty()) {
            eagerQLo_ = q.head().start;
            eagerQHi_ = q.head().start + q.head().arrived;
        }
    }

    const bool optimistic = tier == SpanTier::Optimistic;
    if (optimistic) {
        snap_.regs = rs;
        snap_.seg = segCache_[lvl];
        snap_.fetchKnown = fetchKnown_[lvl];
        snap_.fetchWord = lastFetchWord_[lvl];
        snap_.instructions = stats_.instructions;
        snap_.instructionsOs = stats_.instructionsOs;
        snap_.runCycles = stats_.runCycles;
        snap_.cyclesByClass = stats_.cyclesByClass;
        snap_.segCacheHits = stats_.segCacheHits;
        snap_.segCacheMisses = stats_.segCacheMisses;
        const HandlerStats &hs = handlerSlot(lvl);
        snap_.hsInstructions = hs.instructions;
        snap_.hsCycles = hs.cycles;
        undo_.clear();
    }

    eagerGuard_ = tier != SpanTier::Exclusive;
    eagerUndo_ = optimistic;
    const SpanResult r = runSpanOps(now, horizon, spanBudget_, tier);
    eagerGuard_ = false;
    eagerUndo_ = false;

    if (r.executed == 0 && !r.endedInline) {
        // Span head is stop-flagged (SEND/SUSPEND/HALT/GETSP-QLen...),
        // invalid, guard-aborted, or optimistically faulting: execute
        // exactly one op through the per-op interpreter.
        executeOne(now);
        return;
    }

    if (optimistic && !r.endedInline) {
        spanActive_ = true;
        spanLvl_ = lvl;
        spanViolPrioMin_ = violPrioMin;
        spanEntryNow_ = now;
        spanLastStart_ = r.lastStart;
    }
    // Budget adaptation: spans that fill their budget earn a longer
    // one; rollbacks (noteDispatchable) halve it.
    if (r.executed >= spanBudget_ && spanBudget_ < kSpanBudgetMax)
        spanBudget_ *= 2;
}

void
Processor::noteDispatchable(unsigned prio, Cycle now)
{
    if (!spanActive_)
        return;
    if (prio < spanViolPrioMin_)
        return;  // cannot preempt the span's level
    spanActive_ = false;
    // The arrival becomes schedulable at now + 1; ops issued strictly
    // before that were architecturally allowed to run.
    if (now + 1 > spanLastStart_)
        return;  // every span op already issued: the span stands

    // Roll the span back to its entry state...
    const unsigned lvl = spanLvl_;
    sets_[lvl] = snap_.regs;
    segCache_[lvl] = snap_.seg;
    fetchKnown_[lvl] = snap_.fetchKnown;
    lastFetchWord_[lvl] = snap_.fetchWord;
    stats_.instructions = snap_.instructions;
    stats_.instructionsOs = snap_.instructionsOs;
    stats_.runCycles = snap_.runCycles;
    stats_.cyclesByClass = snap_.cyclesByClass;
    stats_.segCacheHits = snap_.segCacheHits;
    stats_.segCacheMisses = snap_.segCacheMisses;
    HandlerStats &hs = handlerSlot(lvl);
    hs.instructions = snap_.hsInstructions;
    hs.cycles = snap_.hsCycles;
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it)
        mem_->write(it->first, it->second);
    undo_.clear();

    // ...and replay the prefix that issued before the arrival became
    // visible. The replay is deterministic: the queue guard kept the
    // span free of arrival-dependent reads, so identical inputs replay
    // to identical state, and busyUntil_ lands at the preemption point.
    current_ = static_cast<Level>(lvl);
    eagerGuard_ = true;
    eagerUndo_ = false;
    runSpanOps(spanEntryNow_, now + 1, ~0u, SpanTier::Optimistic);
    eagerGuard_ = false;
    spanBudget_ = std::max(spanBudget_ / 2, kSpanBudgetMin);
}

// ---- checkpointing --------------------------------------------------

namespace
{

void
saveRegs(ckpt::Writer &w, const RegisterSet &rs)
{
    for (const Word &word : rs.regs)
        w.word(word);
    w.u32(rs.ip);
    w.b(rs.live);
    w.b(rs.parked);
    w.b(rs.sending);
    w.b(rs.inFault);
    w.u32(rs.faultIp);
    w.word(rs.fval0);
    w.word(rs.fval1);
    for (const Word &word : rs.tmp)
        w.word(word);
}

void
restoreRegs(ckpt::Reader &r, RegisterSet &rs)
{
    for (Word &word : rs.regs)
        word = r.word();
    rs.ip = r.u32();
    rs.live = r.b();
    rs.parked = r.b();
    rs.sending = r.b();
    rs.inFault = r.b();
    rs.faultIp = r.u32();
    rs.fval0 = r.word();
    rs.fval1 = r.word();
    for (Word &word : rs.tmp)
        word = r.word();
}

} // namespace

void
Processor::save(ckpt::Writer &w) const
{
    xlate_.save(w);
    for (const RegisterSet &rs : sets_)
        saveRegs(w, rs);
    w.u8(static_cast<std::uint8_t>(current_));
    w.b(currentValid_);
    w.b(halted_);
    w.u64(busyUntil_);
    for (unsigned l = 0; l < kNumLevels; ++l) {
        w.u32(lastFetchWord_[l]);
        w.b(fetchKnown_[l]);
    }
    w.b(faultPending_);
    w.u8(static_cast<std::uint8_t>(faultKind_));
    w.word(faultVal0_);
    w.word(faultVal1_);
    w.u32(xNext_);
    w.u32(xCost_);
    w.b(xStall_);
    w.u64(xNow_);
    auto saveSegEntry = [&](const SegCacheEntry &e) {
        w.b(e.valid);
        w.b(e.uniform);
        w.u32(e.penalty);
        w.u32(e.desc.base);
        w.u32(e.desc.length);
    };
    for (const auto &level : segCache_)
        for (const SegCacheEntry &e : level)
            saveSegEntry(e);
    w.b(eagerGuard_);
    w.b(eagerAbort_);
    w.b(eagerUndo_);
    w.u32(eagerQLo_);
    w.u32(eagerQHi_);
    saveRegs(w, snap_.regs);
    for (const SegCacheEntry &e : snap_.seg)
        saveSegEntry(e);
    w.b(snap_.fetchKnown);
    w.u32(snap_.fetchWord);
    w.u64(snap_.instructions);
    w.u64(snap_.instructionsOs);
    w.u64(snap_.runCycles);
    for (std::uint64_t c : snap_.cyclesByClass)
        w.u64(c);
    w.u64(snap_.segCacheHits);
    w.u64(snap_.segCacheMisses);
    w.u64(snap_.hsInstructions);
    w.u64(snap_.hsCycles);
    w.u32(static_cast<std::uint32_t>(undo_.size()));
    for (const auto &[addr, word] : undo_) {
        w.u32(addr);
        w.word(word);
    }
    w.b(spanActive_);
    w.u32(spanLvl_);
    w.u32(spanViolPrioMin_);
    w.u64(spanEntryNow_);
    w.u64(spanLastStart_);
    w.u32(spanBudget_);
    saveSegEntry(memSaveEntry_);
    w.u64(memSaveHits_);
    w.u64(memSaveMisses_);
    for (const XlateCacheEntry &e : xlateCache_) {
        w.b(e.valid);
        w.word(e.key);
        w.word(e.value);
    }
    w.u64(xlateCacheVersion_);
    w.b(sleeping_);
    w.u64(sleepStart_);
    for (IAddr e : handlerEntry_)
        w.u32(e);
    w.u32(static_cast<std::uint32_t>(hostOut_.size()));
    for (const Word &word : hostOut_)
        w.word(word);
    for (std::uint64_t c : stats_.cyclesByClass)
        w.u64(c);
    w.u64(stats_.instructions);
    w.u64(stats_.instructionsOs);
    w.u64(stats_.dispatches);
    w.u64(stats_.suspends);
    for (std::uint64_t f : stats_.faults)
        w.u64(f);
    w.u64(stats_.queueStallCycles);
    w.u64(stats_.runCycles);
    w.u64(stats_.idleCycles);
    w.u64(stats_.segCacheHits);
    w.u64(stats_.segCacheMisses);
    w.u64(stats_.xlateCacheHits);
    w.u64(stats_.xlateCacheMisses);
    // Handler map in sorted iaddr order so the image is deterministic
    // regardless of hash-map iteration order.
    std::vector<std::pair<IAddr, const HandlerStats *>> handlers;
    handlers.reserve(handlerStats_.size());
    for (const auto &[iaddr, hs] : handlerStats_)
        handlers.emplace_back(iaddr, &hs);
    std::sort(handlers.begin(), handlers.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u32(static_cast<std::uint32_t>(handlers.size()));
    for (const auto &[iaddr, hs] : handlers) {
        w.u32(iaddr);
        w.u64(hs->dispatches);
        w.u64(hs->instructions);
        w.u64(hs->cycles);
        w.u64(hs->messageWords);
    }
}

void
Processor::restore(ckpt::Reader &r)
{
    xlate_.restore(r);
    for (RegisterSet &rs : sets_)
        restoreRegs(r, rs);
    current_ = static_cast<Level>(r.u8());
    currentValid_ = r.b();
    halted_ = r.b();
    busyUntil_ = r.u64();
    for (unsigned l = 0; l < kNumLevels; ++l) {
        lastFetchWord_[l] = r.u32();
        fetchKnown_[l] = r.b();
    }
    faultPending_ = r.b();
    faultKind_ = static_cast<FaultKind>(r.u8());
    faultVal0_ = r.word();
    faultVal1_ = r.word();
    xNext_ = r.u32();
    xCost_ = r.u32();
    xStall_ = r.b();
    xNow_ = r.u64();
    auto restoreSegEntry = [&](SegCacheEntry &e) {
        e.valid = r.b();
        e.uniform = r.b();
        e.penalty = r.u32();
        e.desc.base = r.u32();
        e.desc.length = r.u32();
    };
    for (auto &level : segCache_)
        for (SegCacheEntry &e : level)
            restoreSegEntry(e);
    eagerGuard_ = r.b();
    eagerAbort_ = r.b();
    eagerUndo_ = r.b();
    eagerQLo_ = r.u32();
    eagerQHi_ = r.u32();
    restoreRegs(r, snap_.regs);
    for (SegCacheEntry &e : snap_.seg)
        restoreSegEntry(e);
    snap_.fetchKnown = r.b();
    snap_.fetchWord = r.u32();
    snap_.instructions = r.u64();
    snap_.instructionsOs = r.u64();
    snap_.runCycles = r.u64();
    for (std::uint64_t &c : snap_.cyclesByClass)
        c = r.u64();
    snap_.segCacheHits = r.u64();
    snap_.segCacheMisses = r.u64();
    snap_.hsInstructions = r.u64();
    snap_.hsCycles = r.u64();
    undo_.clear();
    const std::uint32_t undoCount = r.u32();
    for (std::uint32_t i = 0; i < undoCount; ++i) {
        const Addr addr = r.u32();
        undo_.emplace_back(addr, r.word());
    }
    spanActive_ = r.b();
    spanLvl_ = r.u32();
    spanViolPrioMin_ = r.u32();
    spanEntryNow_ = r.u64();
    spanLastStart_ = r.u64();
    spanBudget_ = r.u32();
    restoreSegEntry(memSaveEntry_);
    memSaveHits_ = r.u64();
    memSaveMisses_ = r.u64();
    for (XlateCacheEntry &e : xlateCache_) {
        e.valid = r.b();
        e.key = r.word();
        e.value = r.word();
    }
    xlateCacheVersion_ = r.u64();
    sleeping_ = r.b();
    sleepStart_ = r.u64();
    for (IAddr &e : handlerEntry_)
        e = r.u32();
    hostOut_.clear();
    const std::uint32_t outCount = r.count(5);
    hostOut_.reserve(outCount);
    for (std::uint32_t i = 0; i < outCount; ++i)
        hostOut_.push_back(r.word());
    for (std::uint64_t &c : stats_.cyclesByClass)
        c = r.u64();
    stats_.instructions = r.u64();
    stats_.instructionsOs = r.u64();
    stats_.dispatches = r.u64();
    stats_.suspends = r.u64();
    for (std::uint64_t &f : stats_.faults)
        f = r.u64();
    stats_.queueStallCycles = r.u64();
    stats_.runCycles = r.u64();
    stats_.idleCycles = r.u64();
    stats_.segCacheHits = r.u64();
    stats_.segCacheMisses = r.u64();
    stats_.xlateCacheHits = r.u64();
    stats_.xlateCacheMisses = r.u64();
    handlerStats_.clear();
    // Map values move on rehash; the cached per-level slots re-resolve
    // lazily from handlerEntry_ (handlerSlot()).
    handlerSlot_.fill(nullptr);
    const std::uint32_t handlerCount = r.u32();
    for (std::uint32_t i = 0; i < handlerCount; ++i) {
        const IAddr iaddr = r.u32();
        HandlerStats &hs = handlerStats_[iaddr];
        hs.dispatches = r.u64();
        hs.instructions = r.u64();
        hs.cycles = r.u64();
        hs.messageWords = r.u64();
    }
}

} // namespace jmsim
