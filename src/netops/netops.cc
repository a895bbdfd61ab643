#include "netops/netops.hh"

#include <algorithm>
#include <cassert>

#include "ckpt/snapshot.hh"
#include "isa/word.hh"
#include "mdp/network_interface.hh"
#include "net/mesh_network.hh"
#include "sim/logging.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"

namespace jmsim
{

NetOps::NetOps(const NetOpsConfig &config, MeshNetwork *net)
    : config_(config), net_(net), dims_(net->dims())
{
    const unsigned n = dims_.nodes();
    slots_.assign(static_cast<std::size_t>(n) * config_.slotsPerNode, 0);
    routerFree_.assign(n, 0);
    memFree_.assign(n, 0);
    waiting_.resize(n);
    ring_.resize(kRingCycles);

    // Binomial barrier tree over linear ids: parent(i) = i & (i - 1).
    // needed = own arrival + one per child inside the machine.
    tree_.resize(n);
    for (NodeId j = 0; j < n; ++j) {
        std::uint32_t needed = 1;
        const std::uint32_t limit =
            j == 0 ? ~std::uint32_t{0} : (j & (~j + 1u));
        for (std::uint32_t bit = 1; bit < limit && (j | bit) < n &&
                                    bit != 0;
             bit <<= 1) {
            if ((j | bit) != j)
                needed += 1;
        }
        tree_[j].needed = needed;
    }
}

void
NetOps::attachNis(std::vector<NetworkInterface *> nis)
{
    nis_ = std::move(nis);
}

void
NetOps::registerCounters(CounterRegistry &registry)
{
    registry.addCounter("net.combine_hits", &combineHits_);
    registry.addCounter("net.combine_misses", &combineMisses_);
    registry.addCounter("net.faa_ops", &faaOps_);
    registry.addCounter("barrier.waves", &waves_);
    registry.addCounter("netops.reply_retries", &replyRetries_);
}

void
NetOps::stageIssue(NodeId src, std::uint8_t prio, std::uint8_t op,
                   std::int32_t var, std::int32_t operand,
                   std::uint32_t reply_ip, std::uint32_t src_seq, Cycle now)
{
    Staged s;
    s.src = src;
    s.prio = prio;
    s.op = op;
    s.var = var;
    s.operand = operand;
    s.replyIp = reply_ip;
    s.srcSeq = src_seq;
    s.now = now;
    stage_.push_back(s);
}

void
NetOps::resetStats()
{
    combineHits_ = 0;
    combineMisses_ = 0;
    faaOps_ = 0;
    waves_ = 0;
    replyRetries_ = 0;
}

std::uint64_t
NetOps::footprintBytes() const
{
    std::uint64_t total = 0;
    total += ring_.capacity() * sizeof(Bucket);
    total += evSlab_.capacity() * sizeof(Event);
    total += overflow_.capacity() * sizeof(Event);
    total += reqs_.capacity() * sizeof(Request);
    total += freeReqs_.capacity() * sizeof(std::uint32_t);
    total += slots_.capacity() * sizeof(std::int32_t);
    total += routerFree_.capacity() * sizeof(Cycle);
    total += memFree_.capacity() * sizeof(Cycle);
    total += tree_.capacity() * sizeof(TreeNode);
    total += nis_.capacity() * sizeof(NetworkInterface *);
    for (const auto &w : waiting_)
        total += w.capacity() * sizeof(WaitEntry);
    total += waiting_.capacity() * sizeof(std::vector<WaitEntry>);
    total += stage_.capacity() * sizeof(Staged);
    return total;
}

// --- event calendar ---------------------------------------------------

void
NetOps::schedule(Event ev)
{
    ev.seq = eventSeq_++;
    enqueue(ev);
}

void
NetOps::enqueue(const Event &ev)
{
    nextAt_ = std::min(nextAt_, ev.at);
    if (ev.at >= base_ + kRingCycles) {
        overflow_.push_back(ev);
        std::push_heap(overflow_.begin(), overflow_.end(), eventAfter);
        overflowed_ += 1;
        return;
    }
    std::uint32_t i = freeSlot_;
    if (i != kNoSlot) {
        freeSlot_ = evSlab_[i].link;
        evSlab_[i] = ev;
    } else {
        i = static_cast<std::uint32_t>(evSlab_.size());
        evSlab_.push_back(ev);
    }
    evSlab_[i].link = kNoSlot;
    Bucket &b = ring_[ev.at & (kRingCycles - 1)];
    if (b.tail == kNoSlot)
        b.head = i;
    else
        evSlab_[b.tail].link = i;
    b.tail = i;
    ringCount_ += 1;
}

void
NetOps::advanceTo(Cycle c)
{
    // Every bucket below c is empty, so the ones the window drops are
    // exactly the ones it reuses for its new cycles.
    base_ = c;
    while (!overflow_.empty() && overflow_.front().at < base_ + kRingCycles) {
        std::pop_heap(overflow_.begin(), overflow_.end(), eventAfter);
        const Event ev = overflow_.back();
        overflow_.pop_back();
        enqueue(ev);
    }
}

Cycle
NetOps::scanNextEvent() const
{
    if (ringCount_ > 0) {
        for (Cycle c = base_;; ++c) {
            if (ring_[c & (kRingCycles - 1)].head != kNoSlot)
                return c;
        }
    }
    return overflow_.empty() ? kNoNetOpsEvent : overflow_.front().at;
}

std::vector<NetOps::Event>
NetOps::pendingEvents() const
{
    std::vector<Event> out;
    out.reserve(ringCount_ + overflow_.size());
    if (ringCount_ > 0) {
        for (Cycle c = base_; c < base_ + kRingCycles; ++c) {
            for (std::uint32_t i = ring_[c & (kRingCycles - 1)].head;
                 i != kNoSlot; i = evSlab_[i].link)
                out.push_back(evSlab_[i]);
        }
    }
    // Overflow events all fall past the window, after every ring event.
    const std::size_t ring_events = out.size();
    out.insert(out.end(), overflow_.begin(), overflow_.end());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(ring_events),
              out.end(), [](const Event &a, const Event &b) {
                  return eventAfter(b, a);
              });
    return out;
}

// --- request slab -----------------------------------------------------

std::uint32_t
NetOps::allocRequest()
{
    if (!freeReqs_.empty()) {
        const std::uint32_t ri = freeReqs_.back();
        freeReqs_.pop_back();
        reqs_[ri] = Request{};
        return ri;
    }
    reqs_.push_back(Request{});
    return static_cast<std::uint32_t>(reqs_.size() - 1);
}

void
NetOps::freeSubtree(std::uint32_t ri)
{
    for (std::uint32_t c = reqs_[ri].firstChild; c != kNoReq;) {
        const std::uint32_t next = reqs_[c].nextSibling;
        freeSubtree(c);
        c = next;
    }
    reqs_[ri].state = 0;
    freeReqs_.push_back(ri);
}

std::uint64_t
NetOps::subtreeSize(std::uint32_t ri) const
{
    std::uint64_t total = 1;
    for (std::uint32_t c = reqs_[ri].firstChild; c != kNoReq;
         c = reqs_[c].nextSibling)
        total += subtreeSize(c);
    return total;
}

// --- geometry ---------------------------------------------------------

NodeId
NetOps::homeOf(std::int32_t var) const
{
    return static_cast<NodeId>(static_cast<std::uint32_t>(var) %
                               dims_.nodes());
}

unsigned
NetOps::dist(NodeId a, NodeId b) const
{
    return dims_.toCoord(a).hopsTo(dims_.toCoord(b));
}

Cycle
NetOps::edgeLat(NodeId a, NodeId b) const
{
    return static_cast<Cycle>(dist(a, b)) * config_.treeHopCycles +
           config_.treeCombineCycles;
}

NodeId
NetOps::nextHop(NodeId at, NodeId dest) const
{
    RouterAddr c = dims_.toCoord(at);
    const RouterAddr d = dims_.toCoord(dest);
    if (c.x != d.x)
        c.x = static_cast<std::uint8_t>(c.x + (d.x > c.x ? 1 : -1));
    else if (c.y != d.y)
        c.y = static_cast<std::uint8_t>(c.y + (d.y > c.y ? 1 : -1));
    else
        c.z = static_cast<std::uint8_t>(c.z + (d.z > c.z ? 1 : -1));
    return dims_.toLinear(c);
}

std::int32_t
NetOps::applyOp(std::uint8_t op, std::int32_t a, std::int32_t b)
{
    switch (static_cast<NetOp>(op)) {
    case NetOp::Add:
        // Wraparound add via unsigned: overflow must stay defined.
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                         static_cast<std::uint32_t>(b));
    case NetOp::Min:
        return std::min(a, b);
    case NetOp::Max:
        return std::max(a, b);
    case NetOp::Or:
        return a | b;
    default:
        fatal("netops: applyOp on non-reduction opcode");
    }
}

// --- combine table ----------------------------------------------------

void
NetOps::pruneWaiting(NodeId router, Cycle t)
{
    auto &table = waiting_[router];
    table.erase(std::remove_if(table.begin(), table.end(),
                               [&](const WaitEntry &e) {
                                   return e.expiresAt <= t ||
                                          reqs_[e.req].state != 1;
                               }),
                table.end());
}

void
NetOps::registerWaiting(NodeId router, std::uint32_t ri, Cycle expires)
{
    if (!config_.combining)
        return;
    auto &table = waiting_[router];
    if (table.size() >= config_.combineEntries) {
        combineMisses_ += 1;  // table full: this request is uncombinable
        return;
    }
    table.push_back(WaitEntry{ri, expires});
}

bool
NetOps::tryCombine(NodeId router, std::uint32_t ri, Cycle t)
{
    if (!config_.combining)
        return false;
    pruneWaiting(router, t);
    Request &r = reqs_[ri];
    for (const WaitEntry &e : waiting_[router]) {
        Request &w = reqs_[e.req];
        if (w.var != r.var || w.op != r.op || w.prio != r.prio)
            continue;
        if (w.childCount + 1 >= config_.combineFanIn) {
            combineMisses_ += 1;  // fan-in limit: keep travelling
            return false;
        }
        // Merge: r's reply value is op(base, w's operands so far).
        r.state = 2;
        r.prefix = w.operand;
        r.absorbedAt = router;
        r.nextSibling = kNoReq;
        if (w.lastChild == kNoReq)
            w.firstChild = ri;
        else
            reqs_[w.lastChild].nextSibling = ri;
        w.lastChild = ri;
        w.childCount += 1;
        w.operand = applyOp(w.op, w.operand, r.operand);
        combineHits_ += 1;
        if (kTraceCompiledIn && trace_ && trace_->wants(TraceKind::NetCombine)) {
            TraceEvent ev{};
            ev.cycle = t;
            ev.node = router;
            ev.kind = TraceKind::NetCombine;
            ev.arg8 = r.op;
            ev.a0 = (static_cast<std::uint64_t>(w.src) << 32) | w.srcSeq;
            ev.a1 = (static_cast<std::uint64_t>(r.src) << 32) | r.srcSeq;
            trace_->record(ev);
        }
        return true;
    }
    return false;
}

// --- issue commit -----------------------------------------------------

void
NetOps::commitStaged()
{
    if (stage_.empty())
        return;
    // Canonical issue order regardless of the order the kernel stepped
    // nodes in: srcSeq is unique per sender and monotone in program
    // order.
    std::stable_sort(stage_.begin(), stage_.end(),
                     [](const Staged &a, const Staged &b) {
                         if (a.src != b.src)
                             return a.src < b.src;
                         return a.srcSeq < b.srcSeq;
                     });
    for (const Staged &s : stage_) {
        if (s.op < kNetOpFaaCount) {
            const std::uint32_t ri = allocRequest();
            Request &r = reqs_[ri];
            r.src = s.src;
            r.prio = s.prio;
            r.op = s.op;
            r.state = 1;
            r.var = s.var;
            r.operand = s.operand;
            r.replyIp = s.replyIp;
            r.srcSeq = s.srcSeq;
            Event ev;
            ev.at = s.now + config_.issueCycles;
            ev.kind = static_cast<std::uint8_t>(EvKind::FaaHop);
            ev.node = s.src;  // requests enter at their own router
            ev.req = ri;
            schedule(ev);
        } else {
            TreeNode &tn = tree_[s.src];
            tn.replyIp = s.replyIp;
            tn.prio = s.prio;
            Event ev;
            ev.at = s.now + config_.issueCycles;
            ev.kind = static_cast<std::uint8_t>(EvKind::TreeUp);
            ev.node = s.src;
            schedule(ev);
        }
    }
    stage_.clear();
}

// --- FAA path ---------------------------------------------------------

void
NetOps::onFaaHop(const Event &ev)
{
    const NodeId router = ev.node;
    const Cycle t = ev.at;
    if (tryCombine(router, ev.req, t))
        return;
    Request &r = reqs_[ev.req];
    const NodeId home = homeOf(r.var);
    if (router == home) {
        // Queue for the home memory port; combinable until it starts.
        const Cycle start = std::max(t, memFree_[home]);
        const Cycle done = start + config_.memCycles;
        memFree_[home] = done;
        registerWaiting(router, ev.req, start);
        Event apply;
        apply.at = done;
        apply.kind = static_cast<std::uint8_t>(EvKind::FaaApply);
        apply.node = home;
        apply.req = ev.req;
        schedule(apply);
        return;
    }
    // Forward one e-cube hop; combinable while holding this router.
    const Cycle depart = std::max(t, routerFree_[router]) +
                         config_.serviceCycles;
    routerFree_[router] = depart;
    registerWaiting(router, ev.req, depart);
    Event hop;
    hop.at = depart + config_.hopCycles;
    hop.kind = static_cast<std::uint8_t>(EvKind::FaaHop);
    hop.node = nextHop(router, home);
    hop.req = ev.req;
    schedule(hop);
}

void
NetOps::onFaaApply(const Event &ev)
{
    Request &r = reqs_[ev.req];
    const std::int32_t old = slots_[static_cast<std::uint32_t>(r.var)];
    slots_[static_cast<std::uint32_t>(r.var)] =
        applyOp(r.op, old, r.operand);
    faaOps_ += subtreeSize(ev.req);
    spawnReplies(ev.req, old, ev.node, ev.at);
    freeSubtree(ev.req);
}

void
NetOps::spawnReplies(std::uint32_t ri, std::int32_t base, NodeId at,
                     Cycle t0)
{
    const Request &r = reqs_[ri];
    Event reply;
    reply.at = t0 + static_cast<Cycle>(dist(at, r.src)) * config_.hopCycles;
    reply.kind = static_cast<std::uint8_t>(EvKind::Reply);
    reply.prio = r.prio;
    reply.node = r.src;
    reply.src = homeOf(r.var);
    reply.ip = r.replyIp;
    reply.value = base;
    schedule(reply);
    // De-combine: each child's value resumes from the owner's operand
    // prefix at its own merge point, recursively.
    for (std::uint32_t c = r.firstChild; c != kNoReq;
         c = reqs_[c].nextSibling) {
        const Request &cr = reqs_[c];
        const Cycle tc = t0 +
                         static_cast<Cycle>(dist(at, cr.absorbedAt)) *
                             config_.hopCycles +
                         config_.serviceCycles;
        spawnReplies(c, applyOp(r.op, base, cr.prefix), cr.absorbedAt, tc);
    }
}

// --- barrier tree -----------------------------------------------------

void
NetOps::onTreeUp(const Event &ev)
{
    TreeNode &tn = tree_[ev.node];
    tn.arrived += 1;
    if (tn.arrived < tn.needed)
        return;
    tn.arrived = 0;
    if (ev.node == 0) {
        waves_ += 1;
        Event down;
        down.at = ev.at + config_.treeCombineCycles;
        down.kind = static_cast<std::uint8_t>(EvKind::TreeDown);
        down.node = 0;
        down.value = static_cast<std::int32_t>(waves_);
        schedule(down);
        return;
    }
    const NodeId parent = ev.node & (ev.node - 1);
    Event up;
    up.at = ev.at + edgeLat(ev.node, parent);
    up.kind = static_cast<std::uint8_t>(EvKind::TreeUp);
    up.node = parent;
    schedule(up);
}

void
NetOps::onTreeDown(const Event &ev)
{
    const NodeId j = ev.node;
    const TreeNode &tn = tree_[j];
    Event reply;
    reply.at = ev.at;
    reply.kind = static_cast<std::uint8_t>(EvKind::Reply);
    reply.prio = tn.prio;
    reply.node = j;
    reply.src = j == 0 ? 0 : (j & (j - 1));
    reply.ip = tn.replyIp;
    reply.value = ev.value;
    schedule(reply);
    const unsigned n = dims_.nodes();
    const std::uint32_t limit = j == 0 ? ~std::uint32_t{0} : (j & (~j + 1u));
    for (std::uint32_t bit = 1; bit < limit && (j | bit) < n && bit != 0;
         bit <<= 1) {
        const NodeId child = j | bit;
        if (child == j)
            continue;
        Event down;
        down.at = ev.at + edgeLat(j, child);
        down.kind = static_cast<std::uint8_t>(EvKind::TreeDown);
        down.node = child;
        down.value = ev.value;
        schedule(down);
    }
}

// --- reply delivery ---------------------------------------------------

void
NetOps::onReply(Event ev, Cycle now)
{
    MessagePool &pool = net_->pool();
    MsgHandle h = ev.msg;
    if (h == kNullMsg) {
        h = pool.alloc();
        Message &m = pool.get(h);
        m.src = ev.src;
        m.dest = ev.node;
        m.destAddr = dims_.toCoord(ev.node);
        m.priority = ev.prio;
        MsgHeader hdr;
        hdr.handlerIp = ev.ip;
        hdr.length = 2;
        m.words.push_back(hdr.encode());
        m.words.push_back(Word::makeInt(ev.value));
        m.finalized = true;
        m.injectCycle = now;
        m.srcSeq = nis_[ev.src]->allocSendSeq();
    }
    Flit f;
    f.msg = h;
    f.vn = ev.prio;
    f.index = 2;  // completes word 0 (the header)
    f.tail = 0;
    NetworkInterface *ni = nis_[ev.node];
    if (!ni->canAcceptFlit(f)) {
        // Receive queue full: retry next cycle, keeping the built
        // message (its srcSeq is already allocated).
        replyRetries_ += 1;
        Event again = ev;
        again.msg = h;
        again.at = now + 1;
        schedule(again);
        return;
    }
    ni->acceptFlit(f, now);
    f.index = 4;  // completes word 1 (the value) and tails the message
    f.tail = 1;
    ni->acceptFlit(f, now);
    pool.release(h);
}

// --- per-cycle step ---------------------------------------------------

void
NetOps::dispatch(const Event &ev, Cycle now)
{
    switch (static_cast<EvKind>(ev.kind)) {
    case EvKind::FaaHop:
        onFaaHop(ev);
        break;
    case EvKind::FaaApply:
        onFaaApply(ev);
        break;
    case EvKind::TreeUp:
        onTreeUp(ev);
        break;
    case EvKind::TreeDown:
        onTreeDown(ev);
        break;
    case EvKind::Reply:
        onReply(ev, now);
        break;
    }
}

void
NetOps::step(Cycle now)
{
    commitStaged();
    while (nextAt_ <= now) {
        advanceTo(nextAt_);
        Bucket &b = ring_[base_ & (kRingCycles - 1)];
        // Handlers may append events due this same cycle to this very
        // bucket; they run in this drain, after everything ahead.
        while (b.head != kNoSlot) {
            const std::uint32_t i = b.head;
            const Event ev = evSlab_[i];
            b.head = ev.link;
            if (b.head == kNoSlot)
                b.tail = kNoSlot;
            evSlab_[i].link = freeSlot_;
            freeSlot_ = i;
            ringCount_ -= 1;
            dispatch(ev, now);
        }
        nextAt_ = scanNextEvent();
    }
}

// --- checkpointing ----------------------------------------------------

void
NetOps::collectHandles(std::vector<MsgHandle> &out) const
{
    for (const Event &ev : pendingEvents())
        if (ev.msg != kNullMsg)
            out.push_back(ev.msg);
}

void
NetOps::save(ckpt::Writer &w, const ckpt::HandleMap &map) const
{
    w.u32(static_cast<std::uint32_t>(slots_.size()));
    for (std::int32_t v : slots_)
        w.u32(static_cast<std::uint32_t>(v));

    w.u32(static_cast<std::uint32_t>(reqs_.size()));
    for (const Request &r : reqs_) {
        w.u32(r.src);
        w.u8(r.prio);
        w.u8(r.op);
        w.u8(r.state);
        w.u32(static_cast<std::uint32_t>(r.var));
        w.u32(static_cast<std::uint32_t>(r.operand));
        w.u32(static_cast<std::uint32_t>(r.prefix));
        w.u32(r.replyIp);
        w.u32(r.srcSeq);
        w.u32(r.absorbedAt);
        w.u32(r.firstChild);
        w.u32(r.lastChild);
        w.u32(r.nextSibling);
        w.u32(r.childCount);
    }
    w.u32(static_cast<std::uint32_t>(freeReqs_.size()));
    for (std::uint32_t ri : freeReqs_)
        w.u32(ri);

    const std::vector<Event> events = pendingEvents();
    w.u32(static_cast<std::uint32_t>(events.size()));
    for (const Event &ev : events) {
        w.u64(ev.at);
        w.u64(ev.seq);
        w.u8(ev.kind);
        w.u8(ev.prio);
        w.u32(ev.node);
        w.u32(ev.src);
        w.u32(ev.req);
        w.u32(ev.ip);
        w.u32(static_cast<std::uint32_t>(ev.value));
        w.u32(map.ordinalOf(ev.msg));
    }
    w.u64(eventSeq_);

    for (Cycle c : routerFree_)
        w.u64(c);
    for (Cycle c : memFree_)
        w.u64(c);

    std::uint32_t nonempty = 0;
    for (const auto &table : waiting_)
        if (!table.empty())
            nonempty += 1;
    w.u32(nonempty);
    for (std::uint32_t router = 0; router < waiting_.size(); ++router) {
        const auto &table = waiting_[router];
        if (table.empty())
            continue;
        w.u32(router);
        w.u32(static_cast<std::uint32_t>(table.size()));
        for (const WaitEntry &e : table) {
            w.u32(e.req);
            w.u64(e.expiresAt);
        }
    }

    for (const TreeNode &tn : tree_) {
        w.u32(tn.arrived);
        w.u32(tn.replyIp);
        w.u8(tn.prio);
    }

    w.u64(combineHits_);
    w.u64(combineMisses_);
    w.u64(faaOps_);
    w.u64(waves_);
    w.u64(replyRetries_);
}

void
NetOps::restore(ckpt::Reader &r, const ckpt::HandleMap &map, Cycle now)
{
    const std::uint32_t slot_count = r.u32();
    if (slot_count != slots_.size())
        fatal("netops restore: slot count mismatch");
    for (std::uint32_t i = 0; i < slot_count; ++i)
        slots_[i] = static_cast<std::int32_t>(r.u32());

    // Minimum record sizes below bound each count by the bytes left
    // before anything is allocated for it.
    reqs_.assign(r.count(47), Request{});
    for (Request &req : reqs_) {
        req.src = r.u32();
        req.prio = r.u8();
        req.op = r.u8();
        req.state = r.u8();
        req.var = static_cast<std::int32_t>(r.u32());
        req.operand = static_cast<std::int32_t>(r.u32());
        req.prefix = static_cast<std::int32_t>(r.u32());
        req.replyIp = r.u32();
        req.srcSeq = r.u32();
        req.absorbedAt = r.u32();
        req.firstChild = r.u32();
        req.lastChild = r.u32();
        req.nextSibling = r.u32();
        req.childCount = r.u32();
    }
    freeReqs_.assign(r.count(4), 0);
    for (std::uint32_t &ri : freeReqs_)
        ri = r.u32();

    const std::uint32_t event_count = r.count(42);
    std::vector<Event> events;
    events.reserve(event_count);
    for (std::uint32_t k = 0; k < event_count; ++k) {
        Event &ev = events.emplace_back();
        ev.at = r.u64();
        ev.seq = r.u64();
        ev.kind = r.u8();
        ev.prio = r.u8();
        ev.node = r.u32();
        ev.src = r.u32();
        ev.req = r.u32();
        ev.ip = r.u32();
        ev.value = static_cast<std::int32_t>(r.u32());
        ev.msg = map.handleOf(r.u32());
    }
    eventSeq_ = r.u64();
    // Refile in image order, which is (at, seq) order: each bucket's
    // FIFO comes out in seq order, as scheduling would have left it.
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (eventAfter(events[i - 1], events[i]))
            fatal("netops restore: events out of (cycle, seq) order");
    }
    if (!events.empty() && events.front().at < now)
        fatal("netops restore: event due before the image's cycle");
    ring_.assign(kRingCycles, Bucket{});
    evSlab_.clear();
    freeSlot_ = kNoSlot;
    ringCount_ = 0;
    overflow_.clear();
    overflowed_ = 0;
    nextAt_ = kNoNetOpsEvent;
    // The window starts at the restored cycle, not at the first pending
    // event: a node may issue, or a handler schedule, before that event,
    // and enqueue needs every new event at or after base_.
    base_ = now;
    for (const Event &ev : events)
        enqueue(ev);

    for (Cycle &c : routerFree_)
        c = r.u64();
    for (Cycle &c : memFree_)
        c = r.u64();

    for (auto &table : waiting_)
        table.clear();
    const std::uint32_t nonempty = r.u32();
    for (std::uint32_t i = 0; i < nonempty; ++i) {
        const std::uint32_t router = r.u32();
        if (router >= waiting_.size())
            fatal("netops restore: combine-table router out of range");
        auto &table = waiting_[router];
        table.assign(r.count(12), WaitEntry{});
        for (WaitEntry &e : table) {
            e.req = r.u32();
            e.expiresAt = r.u64();
        }
    }

    for (TreeNode &tn : tree_) {
        tn.arrived = r.u32();
        tn.replyIp = r.u32();
        tn.prio = r.u8();
    }

    combineHits_ = r.u64();
    combineMisses_ = r.u64();
    faaOps_ = r.u64();
    waves_ = r.u64();
    replyRetries_ = r.u64();

    stage_.clear();
}

} // namespace jmsim
