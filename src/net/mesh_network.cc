#include "net/mesh_network.hh"

#include <algorithm>
#include <bit>

#include "ckpt/snapshot.hh"
#include "sim/logging.hh"
#include "trace/counter_registry.hh"
#include "trace/tracer.hh"

namespace jmsim
{

namespace
{

/** Neighbour coordinate in direction @p dir, or false if off-mesh. */
bool
neighbour(const MeshDims &dims, RouterAddr at, unsigned dir, RouterAddr &out)
{
    int x = at.x, y = at.y, z = at.z;
    switch (dir) {
      case kXNeg: x -= 1; break;
      case kXPos: x += 1; break;
      case kYNeg: y -= 1; break;
      case kYPos: y += 1; break;
      case kZNeg: z -= 1; break;
      case kZPos: z += 1; break;
      default: panic("bad direction");
    }
    if (x < 0 || y < 0 || z < 0 || x >= static_cast<int>(dims.x) ||
        y >= static_cast<int>(dims.y) || z >= static_cast<int>(dims.z))
        return false;
    out = {static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y),
           static_cast<std::uint8_t>(z)};
    return true;
}

unsigned
oppositeDir(unsigned dir)
{
    return dir ^ 1u;
}

} // namespace

MeshNetwork::MeshNetwork(const MeshDims &dims)
    : dims_(dims),
      routers_(dims.nodes()),
      channels_(static_cast<std::size_t>(dims.nodes()) * kNumDirs),
      activeFlag_(dims.nodes(), 0),
      busyHint_(dims.nodes(), 0)
{
    for (NodeId id = 0; id < dims.nodes(); ++id) {
        const RouterAddr addr = dims.toCoord(id);
        routers_[id].init(id, addr);
        routers_[id].setPool(&pool_);
        for (unsigned dir = 0; dir < kNumDirs; ++dir) {
            RouterAddr to;
            if (!neighbour(dims, addr, dir, to))
                continue;
            const NodeId to_id = dims.toLinear(to);
            Channel &ch = channels_[id * kNumDirs + dir];
            ch.setEndpoints(id, to_id, dir / 2, (dir & 1) != 0);
            ch.setIndex(static_cast<std::uint32_t>(id * kNumDirs + dir));
            if (dims.x > 1 && ch.axis() == 0) {
                const unsigned mid = dims.x / 2;
                if (ch.positive() && addr.x == mid - 1)
                    ch.setBisectRole(1);
                else if (!ch.positive() && addr.x == mid)
                    ch.setBisectRole(-1);
            }
            routers_[id].setOutChannel(static_cast<Direction>(dir), &ch);
            routers_[to_id].setInChannel(
                static_cast<Direction>(oppositeDir(dir)), &ch);
        }
    }
    active_.reserve(dims.nodes());
    touched_.assign((channels_.size() + 63) / 64);
}

void
MeshNetwork::setDeliverSink(NodeId id, DeliverSink *sink)
{
    routers_[id].setDeliverSink(sink);
}

void
MeshNetwork::setRoundRobin(bool rr)
{
    for (auto &r : routers_)
        r.setRoundRobin(rr);
}

void
MeshNetwork::setTracer(Tracer *tracer)
{
    for (auto &r : routers_)
        r.setTracer(tracer);
}

void
MeshNetwork::registerCounters(CounterRegistry &reg)
{
    reg.addCounter("net.messages_delivered", &stats_.messagesDelivered);
    reg.addCounter("net.words_delivered", &stats_.wordsDelivered);
    reg.addCounter("net.bisection_flits_pos", &stats_.bisectionFlitsPos);
    reg.addCounter("net.bisection_flits_neg", &stats_.bisectionFlitsNeg);
    // Fabric scheduling work accounting: router visits made vs avoided
    // and whole fabric-quiet cycles. The kernel drives these so that
    // router_steps + skipped_router_steps == routers * cycles exactly
    // on a fresh machine (see tests/fabric_sched_test.cc).
    reg.addCounter("net.router_steps", &routerSteps_);
    reg.addCounter("net.skipped_router_steps", &skippedRouterSteps_);
    reg.addCounter("net.event_skipped_cycles", &eventSkippedCycles_);
    for (const Router &r : routers_) {
        reg.addCounter("net.flits_routed", &r.stats().flitsRouted);
        reg.addCounter("net.flits_delivered", &r.stats().flitsDelivered);
        reg.addCounter("net.inject_stalls", &r.stats().injectStalls);
    }
    // The pool reports through stats(), which also derives liveNow and
    // capacity, so its counters go through reader callbacks.
    reg.addCounter("pool.allocs",
                   [this] { return pool_.stats().allocs; });
    reg.addCounter("pool.recycled",
                   [this] { return pool_.stats().recycled; });
    reg.addCounter("pool.released",
                   [this] { return pool_.stats().released; });
    reg.addCounter("pool.live_high_water",
                   [this] { return pool_.stats().liveHighWater; });
    reg.addCounter("pool.capacity",
                   [this] { return pool_.stats().capacity; });
    reg.addHistogram("net.latency_cycles",
                     [this] { return latencyHistogram(); });
}

void
MeshNetwork::injectFlit(NodeId id, Flit flit)
{
    // Routing-decision cache: the dimension-order route is a pure
    // function of (source, destination), so compute the per-axis hop
    // counts once here and let every router on the path read its
    // output port straight off the flit (Router::headRoute) instead of
    // loading the message slab and comparing addresses per hop.
    if (flit.isHead()) {
        const RouterAddr src = routers_[id].addr();
        const RouterAddr &dst = pool_.get(flit.msg).destAddr;
        flit.route[0] = encodeRouteHops(src.x, dst.x);
        flit.route[1] = encodeRouteHops(src.y, dst.y);
        flit.route[2] = encodeRouteHops(src.z, dst.z);
    }
    routers_[id].inject(flit);
    activate(id);
}

void
MeshNetwork::retryPulls()
{
    // Wormhole back-pressure at channel granularity: each entry holds a
    // committed flit whose downstream FIFO was full when it committed.
    // This runs after the move phase (pops) and before the fresh
    // commits, which is exactly when the legacy pull of the next cycle
    // would observe the same FIFO state.
    std::size_t keep = 0;
    const std::size_t n = retryPull_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t ci = retryPull_[i];
        const Channel &ch = channels_[ci];
        if (routers_[ch.to()].pullChannel(ch.inDir())) {
            busyHint_[ch.to()] = 1;
            activate(ch.to());
        } else {
            retryPull_[keep++] = ci;
        }
    }
    retryPull_.resize(keep);
}

void
MeshNetwork::pullPhase()
{
    // Index-based with a snapshot length: a delivery callback can
    // inject (and so activate) mid-phase, which appends to the bin
    // being walked.
    const std::size_t n = active_.size();
    for (std::size_t i = 0; i < n; ++i)
        routers_[active_[i]].pullPhase();
}

void
MeshNetwork::movePhase(Cycle now)
{
    const std::size_t n = active_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const NodeId id = active_[i];
        Router &r = routers_[id];
        r.movePhase(now, touched_);
        // Record the busy verdict while the router is hot in cache;
        // the compaction reads only this byte array.
        busyHint_[id] =
            r.residentFlits() > 0 || r.hasPendingInput() ? 1 : 0;
    }
}

void
MeshNetwork::noteMessageDelivered(const Message &msg)
{
    pendingMessages_ += 1;
    pendingWords_ += msg.words.size();
    latency_.add(msg.deliverCycle - msg.injectCycle);
}

void
MeshNetwork::commitWord(std::size_t w, std::uint64_t bits)
{
    while (bits) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t ci = static_cast<std::uint32_t>(w * 64 + bit);
        Channel &ch = channels_[ci];
        // Bisection counting reads the staged flit before it moves on.
        if (ch.bisectRole() != 0 && !ch.staged().isHead()) {
            if (ch.bisectRole() > 0)
                stats_.bisectionFlitsPos += 1;
            else
                stats_.bisectionFlitsNeg += 1;
        }
        if (eventDriven_) {
            // Fused push: hand the staged flit to the downstream FIFO
            // directly — identical to next cycle's pull (nothing drains
            // the FIFO in between) minus the round-trip through the
            // channel's visible register. A refusal means the FIFO is
            // full; the flit becomes visible in the channel (wormhole
            // back-pressure: upstream canSend stays false) and the
            // index parks on the retry list.
            if (routers_[ch.to()].pushInput(ch.inDir(), ch.staged())) {
                ch.dropStaged();
            } else {
                ch.commit();
                retryPull_.push_back(ci);
            }
        } else {
            ch.commit();
            routers_[ch.to()].notePendingIn(ch.inDir());
        }
        busyHint_[ch.to()] = 1;  // wake arrived after the move phase
        activate(ch.to());
    }
}

void
MeshNetwork::compactActive()
{
    // Keep only routers that still have (or are about to have) work.
    // busyHint_ was settled by the move loop (routers woken during the
    // commit loop had their hint re-raised), so the scan stays inside
    // two contiguous byte arrays — no Router objects touched.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        const NodeId id = active_[i];
        if (busyHint_[id])
            active_[keep++] = id;
        else
            activeFlag_[id] = 0;
    }
    active_.resize(keep);
}

void
MeshNetwork::commitPhase(Cycle now)
{
    (void)now;
    foldDeliveries();
    // Legacy full-scan path (`--net-sched off`): scan every bitmap word
    // every cycle, committing in ascending channel index.
    const std::size_t words = touched_.words();
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t bits = touched_.takeWord(w);
        if (bits != 0)
            commitWord(w, bits);
    }
    touched_.clearDirty();
    compactActive();
}

void
MeshNetwork::step(Cycle now)
{
    if (!anyActive())
        return;
    if (eventDriven_) {
        stepFast(now);
        return;
    }
    pullPhase();
    movePhase(now);
    commitPhase(now);
}

void
MeshNetwork::stepFast(Cycle now)
{
    // The same move-all, commit-all phase order as the legacy path —
    // every move lands before any commit — in one pass per phase.
    // There is no pull pass: the previous commit already pushed every
    // visible flit (see the file comment in mesh_network.hh).
    movePhase(now);
    foldDeliveries();

    // Commit straight off the dirty words — sorting the word list
    // reproduces the ascending channel-index commit order; on a
    // saturated cycle (most words dirty) the ascending full scan is
    // cheaper than the sort and visits the same bits in the same order.
    if (!retryPull_.empty())
        retryPulls();
    auto &dirty = touched_.dirtyWords();
    const std::size_t words = touched_.words();
    if (dirty.size() * 4 >= words) {
        for (std::size_t w = 0; w < words; ++w) {
            if (touched_.word(w) != 0)
                commitWord(w, touched_.takeWord(w));
        }
    } else {
        std::sort(dirty.begin(), dirty.end());
        for (const std::uint32_t w : dirty)
            commitWord(w, touched_.takeWord(w));
    }
    touched_.clearDirty();
    compactActive();
}

bool
MeshNetwork::busy() const
{
    for (const auto &r : routers_) {
        if (r.residentFlits() > 0)
            return true;
    }
    for (const auto &ch : channels_) {
        if (ch.busy())
            return true;
    }
    return false;
}

void
MeshNetwork::resetStats()
{
    stats_ = NetworkStats{};
    for (auto &r : routers_)
        r.resetStats();
    latency_.reset();
    pool_.resetStats();
}

double
MeshNetwork::bisectionCapacityBitsPerSec() const
{
    const double channels = static_cast<double>(dims_.y) * dims_.z;
    const double words_per_cycle = 1.0 / kFlitsPerWord;
    return channels * words_per_cycle * kBitsPerWord * kClockHz;
}

std::uint64_t
MeshNetwork::footprintBytes() const
{
    return routers_.capacity() * sizeof(Router) +
           channels_.capacity() * sizeof(Channel) +
           active_.capacity() * sizeof(NodeId) +
           touched_.footprintBytes() +
           latency_.buckets().capacity() * sizeof(std::uint64_t) +
           activeFlag_.capacity() + busyHint_.capacity() +
           retryPull_.capacity() * sizeof(std::uint32_t) +
           pool_.footprintBytes();
}

// ---- checkpointing --------------------------------------------------

void
Channel::collectHandles(std::vector<MsgHandle> &out) const
{
    if (curValid_)
        out.push_back(cur_.msg);
    if (nextValid_)
        out.push_back(next_.msg);
}

namespace
{

void
saveChannelFlit(ckpt::Writer &w, const ckpt::HandleMap &map, const Flit &flit)
{
    w.u32(map.ordinalOf(flit.msg));
    w.u32(flit.index);
    w.u8(flit.vn);
    w.u8(flit.tail);
    for (std::uint8_t hop : flit.route)
        w.u8(hop);
}

Flit
restoreChannelFlit(ckpt::Reader &r, const ckpt::HandleMap &map)
{
    Flit flit;
    flit.msg = map.handleOf(r.u32());
    flit.index = r.u32();
    flit.vn = r.u8();
    flit.tail = r.u8();
    for (std::uint8_t &hop : flit.route)
        hop = r.u8();
    return flit;
}

} // namespace

void
Channel::save(ckpt::Writer &w, const ckpt::HandleMap &map) const
{
    w.b(curValid_);
    if (curValid_)
        saveChannelFlit(w, map, cur_);
    w.b(nextValid_);
    if (nextValid_)
        saveChannelFlit(w, map, next_);
}

void
Channel::restore(ckpt::Reader &r, const ckpt::HandleMap &map)
{
    curValid_ = r.b();
    cur_ = curValid_ ? restoreChannelFlit(r, map) : Flit{};
    nextValid_ = r.b();
    next_ = nextValid_ ? restoreChannelFlit(r, map) : Flit{};
}

void
MeshNetwork::collectHandles(std::vector<MsgHandle> &out) const
{
    for (const Router &router : routers_)
        router.collectHandles(out);
    for (const Channel &ch : channels_)
        ch.collectHandles(out);
}

void
MeshNetwork::setEventDriven(bool on)
{
    if (eventDriven_ == on)
        return;
    eventDriven_ = on;
    rebuildUndrainedTracking();
}

void
MeshNetwork::rebuildUndrainedTracking()
{
    // Between cycles, a channel's visible cur_ flit is exactly a
    // committed word the downstream router has not pulled yet. The
    // legacy pull phase finds those through the router's pendingIn_
    // bits; the event-driven fabric through retryPull_. Rebuild from
    // the channels in ascending index (each channel feeds a distinct
    // (router, direction) FIFO, so the order is architecturally
    // immaterial; ascending keeps save/restore/save byte-identical).
    retryPull_.clear();
    for (Router &router : routers_)
        router.clearPendingIn();
    for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
        const Channel &ch = channels_[ci];
        if (!ch.hasFlit())
            continue;
        if (eventDriven_)
            retryPull_.push_back(static_cast<std::uint32_t>(ci));
        else
            routers_[ch.to()].notePendingIn(ch.inDir());
    }
}

void
MeshNetwork::save(ckpt::Writer &w, const ckpt::HandleMap &map) const
{
    for (const Router &router : routers_)
        router.save(w, map);
    for (const Channel &ch : channels_)
        ch.save(w, map);
    const NodeId n = dims_.nodes();
    for (NodeId id = 0; id < n; ++id)
        w.u8(activeFlag_[id]);
    w.u64(routerSteps_);
    w.u64(skippedRouterSteps_);
    w.u64(eventSkippedCycles_);
    w.u64(stats_.messagesDelivered);
    w.u64(stats_.wordsDelivered);
    w.u64(stats_.bisectionFlitsPos);
    w.u64(stats_.bisectionFlitsNeg);
    latency_.save(w);
}

void
MeshNetwork::restore(ckpt::Reader &r, const ckpt::HandleMap &map)
{
    for (Router &router : routers_)
        router.restore(r, map);
    for (Channel &ch : channels_)
        ch.restore(r, map);
    const NodeId n = dims_.nodes();
    for (NodeId id = 0; id < n; ++id)
        activeFlag_[id] = r.u8();
    // Rebuild the active bin in ascending node id and align the busy
    // hints: a set hint for an idle router is harmless, a clear one for
    // a busy router is not, and activeFlag_ covers exactly the routers
    // with work.
    active_.clear();
    for (NodeId id = 0; id < n; ++id) {
        busyHint_[id] = activeFlag_[id];
        if (activeFlag_[id])
            active_.push_back(id);
    }
    // A committed-but-undrained channel flit (visible cur_) is tracked
    // by whichever side the fabric scheduler mode makes responsible;
    // the image stores neither side — rebuild the one this machine
    // needs.
    rebuildUndrainedTracking();
    routerSteps_ = r.u64();
    skippedRouterSteps_ = r.u64();
    eventSkippedCycles_ = r.u64();
    stats_.messagesDelivered = r.u64();
    stats_.wordsDelivered = r.u64();
    stats_.bisectionFlitsPos = r.u64();
    stats_.bisectionFlitsNeg = r.u64();
    latency_.reset();
    latency_.restore(r);
    pendingMessages_ = 0;
    pendingWords_ = 0;
    // Per-cycle scratch is empty between cycles by construction.
    touched_.assign(touched_.words());
}

} // namespace jmsim
