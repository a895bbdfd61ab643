/**
 * @file
 * One MDP router: deterministic e-cube wormhole routing on a 3-D mesh
 * with two priority levels carried on separate virtual networks.
 *
 * Output arbitration is fixed-priority by input index with injection
 * last — the source of the unfairness the paper observed in radix sort
 * ("nodes may be unable to inject a message ... for an arbitrarily
 * long period of time"). A round-robin mode is provided for the
 * arbitration ablation. Priority-1 traffic is preferred over
 * priority-0 whenever both want the same physical channel.
 */

#ifndef JMSIM_NET_ROUTER_HH
#define JMSIM_NET_ROUTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/message.hh"
#include "net/message_pool.hh"
#include "net/router_address.hh"

namespace jmsim
{

class Tracer;

namespace ckpt
{
class Writer;
class Reader;
struct HandleMap;
} // namespace ckpt

/** Input/output directions; Inject/Deliver are the local ports. */
enum Direction : std::uint8_t
{
    kXNeg = 0, kXPos, kYNeg, kYPos, kZNeg, kZPos,
    kNumDirs = 6,
};

/** Input port indices: six directions then injection. */
inline constexpr unsigned kInjectPort = 6;
inline constexpr unsigned kNumInPorts = 7;

/** Output port indices: six directions then delivery. */
inline constexpr unsigned kDeliverPort = 6;
inline constexpr unsigned kNumOutPorts = 7;

/** Number of virtual networks (message priorities). */
inline constexpr unsigned kNumVns = 2;

/** Sink for flits that reach their destination (the node's NI). */
class DeliverSink
{
  public:
    virtual ~DeliverSink() = default;

    /** May the sink accept this flit this cycle? */
    virtual bool canAcceptFlit(const Flit &flit) = 0;

    /** Hand a flit to the sink (only after canAcceptFlit). */
    virtual void acceptFlit(const Flit &flit, Cycle now) = 0;
};

/** A small flit FIFO (per input port, per virtual network). */
class FlitFifo
{
  public:
    static constexpr unsigned kCapacity = 4;

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == kCapacity; }
    unsigned size() const { return count_; }

    void
    push(Flit flit)
    {
        slots_[(head_ + count_) % kCapacity] = std::move(flit);
        ++count_;
    }

    const Flit &front() const { return slots_[head_]; }
    Flit &frontMut() { return slots_[head_]; }

    /** i-th flit from the front (0 == front()), for serialization. */
    const Flit &at(unsigned i) const { return slots_[(head_ + i) % kCapacity]; }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    Flit
    pop()
    {
        Flit f = std::move(slots_[head_]);
        head_ = (head_ + 1) % kCapacity;
        --count_;
        return f;
    }

    /** Discard the front flit (pop without the copy out — movers that
     *  already forwarded the front by reference). */
    void
    drop()
    {
        head_ = (head_ + 1) % kCapacity;
        --count_;
    }

  private:
    std::array<Flit, kCapacity> slots_;
    unsigned head_ = 0;
    unsigned count_ = 0;
};

/** Router statistics. */
struct RouterStats
{
    std::uint64_t flitsRouted = 0;     ///< flits moved to any output
    std::uint64_t flitsDelivered = 0;  ///< flits handed to the local sink
    std::uint64_t injectStalls = 0;    ///< cycles the inject head lost arbitration
};

/** One node's router. */
class Router
{
  public:
    Router() = default;

    /** Wire the router into the mesh. One-shot: re-initialising a live
     *  router would silently discard worm-allocation state. */
    void init(NodeId id, RouterAddr addr);

    /** Attach (or replace) the local delivery sink (the node's NI). */
    void setDeliverSink(DeliverSink *sink) { sink_ = sink; }

    /** Attach the message pool flits resolve through (set by the mesh).
     *  The router releases a message when it consumes its tail flit at
     *  the delivery port and the sink's callback has returned. */
    void setPool(MessagePool *pool) { pool_ = pool; }

    /** Attach the outgoing channel in direction @p dir (may be null). */
    void setOutChannel(Direction dir, Channel *ch) { out_[dir] = ch; }

    /** Attach the incoming channel in direction @p dir (may be null). */
    void setInChannel(Direction dir, Channel *ch) { in_[dir] = ch; }

    /** Select round-robin (true) or fixed-priority (false) arbitration. */
    void setRoundRobin(bool rr) { roundRobin_ = rr; }

    /** Attach the machine's tracer (null = tracing off). */
    void setTracer(Tracer *tracer) { trace_ = tracer; }

    /** Phase 1: drain visible flits from incoming channels. */
    void pullPhase();

    /** Pull the single visible flit on input @p dir. The event-driven
     *  mesh calls this at commit time (fused push) and from the
     *  back-pressure retry list. @return false if the input FIFO is
     *  full — the flit stays visible in the channel. */
    bool
    pullChannel(unsigned dir)
    {
        Channel *ch = in_[dir];
        const unsigned vn = ch->peek().vn;
        if (fifos_[dir][vn].full())
            return false;  // back-pressure: the flit stays visible
        fifos_[dir][vn].push(ch->take());
        pendingIn_ &= ~(1u << dir);
        occ_[vn] |= 1u << dir;
        ++resident_;
        if (fifos_[dir][vn].size() == 1)
            updateFront(dir, vn);
        return true;
    }

    /** Fused-commit push: append a committing channel's staged flit to
     *  input @p dir without routing it through the channel's visible
     *  register (the mesh drops the staged copy on success). @return
     *  false if the input FIFO is full — the mesh then commits the
     *  channel normally and parks it for retry. */
    bool
    pushInput(unsigned dir, const Flit &flit)
    {
        const unsigned vn = flit.vn;
        FlitFifo &fifo = fifos_[dir][vn];
        if (fifo.full())
            return false;
        fifo.push(flit);
        occ_[vn] |= 1u << dir;
        ++resident_;
        if (fifo.size() == 1)
            updateFront(dir, vn);
        return true;
    }

    /** Phase 2: arbitrate outputs and move at most 1 flit per output.
     *  Channels written this cycle are marked in @p touched so the
     *  mesh commits only those pipeline registers.
     *  @return true if any output channel was written. */
    bool movePhase(Cycle now, ChannelBitmap &touched);

    /** May the NI enqueue a flit on the inject port? */
    bool
    canInject(unsigned vn) const
    {
        return !fifos_[kInjectPort][vn].full();
    }

    /** NI pushes one flit onto the inject port. */
    void inject(Flit flit);

    /** Mesh: a committed channel made a flit visible on input @p dir. */
    void notePendingIn(unsigned dir) { pendingIn_ |= 1u << dir; }
    void clearPendingIn() { pendingIn_ = 0; }

    /** Total flits buffered in this router. */
    unsigned residentFlits() const { return resident_; }

    /** True if an incoming channel holds a flit we have not pulled. */
    bool hasPendingInput() const;

    const RouterStats &stats() const { return stats_; }
    void resetStats() { stats_ = RouterStats{}; }

    NodeId id() const { return id_; }
    RouterAddr addr() const { return addr_; }

    /** E-cube output port for a head flit, read off its cached route:
     *  the first axis with remaining hops in dimension order, or the
     *  delivery port when all three are spent. Pure function of the
     *  flit — no message-slab load, no address arithmetic. */
    static unsigned
    headRoute(const Flit &flit)
    {
        for (unsigned axis = 0; axis < 3; ++axis) {
            const std::uint8_t r = flit.route[axis];
            if (r & 0x7fu)
                return axis * 2 + ((r & 0x80u) ? 0u : 1u);
        }
        return kDeliverPort;
    }

    /** Live pool handles buffered in this router's FIFOs, in
     *  deterministic (port, vn, FIFO) order. */
    void collectHandles(std::vector<MsgHandle> &out) const;

    /** Serialize FIFO contents, worm ownership, and statistics; the
     *  derived masks (occ_/head snapshot/ownerMask_) are recomputed on
     *  restore. */
    void save(ckpt::Writer &w, const ckpt::HandleMap &map) const;
    void restore(ckpt::Reader &r, const ckpt::HandleMap &map);

  private:
    /** Move one flit from input @p in to output @p out if possible. */
    bool tryMove(unsigned out, unsigned vn, unsigned in, Cycle now,
                 ChannelBitmap &touched);

    /** Re-derive the head-snapshot entry for (input, vn) from the FIFO
     *  front. Called wherever the front changes — every pop, and every
     *  push into an empty FIFO — so the snapshot is always current and
     *  the move phase never rescans FIFO contents. */
    void
    updateFront(unsigned in, unsigned vn)
    {
        const FlitFifo &fifo = fifos_[in][vn];
        if (!fifo.empty() && fifo.front().isHead()) {
            headOut_[in][vn] =
                static_cast<std::uint8_t>(headRoute(fifo.front()));
            headMask_[vn] |= 1u << in;
        } else {
            headMask_[vn] &= ~(1u << in);
        }
    }

    /** Set the worm owning (output, vn), keeping ownerMask_ in sync. */
    void
    setOwner(unsigned out, unsigned vn, std::int8_t in)
    {
        owner_[out][vn] = in;
        if (in >= 0)
            ownerMask_[vn] |= 1u << out;
        else
            ownerMask_[vn] &= ~(1u << out);
    }

    NodeId id_ = 0;
    bool initialized_ = false;
    RouterAddr addr_;
    DeliverSink *sink_ = nullptr;
    MessagePool *pool_ = nullptr;
    Tracer *trace_ = nullptr;
    std::array<Channel *, kNumDirs> in_{};
    std::array<Channel *, kNumDirs> out_{};
    std::array<std::array<FlitFifo, kNumVns>, kNumInPorts> fifos_;
    /** Input currently owning each (output, vn), or -1. */
    std::array<std::array<std::int8_t, kNumVns>, kNumOutPorts> owner_;
    /** Per-vn bitmask over inputs: FIFO non-empty (movePhase skip). */
    std::array<std::uint8_t, kNumVns> occ_{};
    /** Persistent head snapshot: which inputs front a head flit on each
     *  vn, and the output port each such head routes to. Maintained by
     *  updateFront at every front change, so the move phase reads it
     *  instead of rescanning FIFO contents every cycle. Entries of
     *  headOut_ are meaningful only under a set headMask_ bit. */
    std::array<std::array<std::uint8_t, kNumVns>, kNumInPorts> headOut_;
    std::array<std::uint8_t, kNumVns> headMask_{};
    /** Bitmask over directions: in-channel holds a visible flit. */
    std::uint8_t pendingIn_ = 0;
    /** Per-vn bitmask over outputs: owner_ >= 0 (movePhase skip). */
    std::array<std::uint8_t, kNumVns> ownerMask_{};
    /** Round-robin scan start per output (ablation mode only). */
    std::array<std::uint8_t, kNumOutPorts> rrNext_{};
    unsigned resident_ = 0;
    bool roundRobin_ = false;
    bool sentThisCycle_ = false;
    std::array<bool, kNumVns> injectMoved_{};
    RouterStats stats_;
};

} // namespace jmsim

#endif // JMSIM_NET_ROUTER_HH
