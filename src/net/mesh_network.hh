/**
 * @file
 * The 3-D mesh fabric: routers, channels, and activity tracking.
 *
 * The mesh advances in lock-step with the processor clock but only
 * touches routers that hold flits (or are about to receive one), so an
 * idle network costs nothing. Bisection traffic is counted the way the
 * paper quotes it: payload flits crossing the X mid-plane in the
 * positive direction, at 36 bits per word, against a one-direction
 * capacity of width * 0.5 words/cycle.
 *
 * A legacy-mode cycle (MachineConfig::netScheduler off) runs three
 * phases over the active routers:
 *
 *   pullPhase()   — drain last cycle's committed channel outputs into
 *                   the router input FIFOs.
 *   movePhase()   — arbitrate and move flits. Writes go to channel
 *                   `next` registers and the routers' delivery sinks;
 *                   written channels are marked in a bitmap.
 *   commitPhase() — advance the written pipeline registers in
 *                   channel-index order, wake downstream routers,
 *                   count bisection crossings, compact the active bin.
 *
 * In the event-driven mode (MachineConfig::netScheduler, default on)
 * the pull phase disappears entirely: commitPhase pushes each committed
 * flit straight into the downstream input FIFO. This is exact, not an
 * approximation — nothing drains an input FIFO between commit(t) and
 * pull(t+1) (pops happen only in the move phase, which precedes the
 * commit), so the FIFO state a fused push observes at commit(t) is
 * bit-for-bit the state the legacy pull would observe at t+1, and a
 * push succeeds iff that pull would. A push blocked by a full FIFO
 * leaves the flit visible in the channel and parks the channel index on
 * retryPull_, which is retried each commit — the same cycle the legacy
 * pull would first succeed. Cost per cycle is therefore proportional
 * to flits moved, with no per-cycle scan of routers or channels; the
 * whole event-mode cycle runs as one fused pass (stepFast).
 */

#ifndef JMSIM_NET_MESH_NETWORK_HH
#define JMSIM_NET_MESH_NETWORK_HH

#include <cstdint>
#include <vector>

#include "net/channel.hh"
#include "net/message_pool.hh"
#include "net/router.hh"
#include "net/router_address.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace_event.hh"

namespace jmsim
{

class CounterRegistry;
class Tracer;

/** MeshNetwork::nextEventCycle when the fabric is provably dead. */
inline constexpr Cycle kNoFabricEvent = ~Cycle{0};

/** Fabric-level statistics. */
struct NetworkStats
{
    std::uint64_t messagesDelivered = 0;
    std::uint64_t wordsDelivered = 0;
    /** Payload flits crossing the X mid-plane, per direction. */
    std::uint64_t bisectionFlitsPos = 0;
    std::uint64_t bisectionFlitsNeg = 0;

    /** Bits crossing the mid-plane in the positive direction. */
    double
    bisectionBitsPos() const
    {
        return static_cast<double>(bisectionFlitsPos) *
               (kBitsPerWord / kFlitsPerWord);
    }
};

/** The complete interconnect of one J-Machine. */
class MeshNetwork
{
  public:
    explicit MeshNetwork(const MeshDims &dims);

    MeshNetwork(const MeshNetwork &) = delete;
    MeshNetwork &operator=(const MeshNetwork &) = delete;

    /** The arena every in-flight message of this fabric lives in. */
    MessagePool &pool() { return pool_; }
    const MessagePool &pool() const { return pool_; }

    /** Attach node @p id's delivery sink (must precede stepping). */
    void setDeliverSink(NodeId id, DeliverSink *sink);

    /** Select arbitration policy on every router (ablation hook). */
    void setRoundRobin(bool rr);

    /** Attach the machine's tracer to every router (null = off). */
    void setTracer(Tracer *tracer);

    /** Register fabric, router, pool, and latency stats by name. */
    void registerCounters(CounterRegistry &reg);

    /** Per-message inject->deliver latency. */
    const Histogram &latencyHistogram() const { return latency_; }

    /** Advance the fabric by one cycle: stepFast in the event-driven
     *  mode, the three legacy phases otherwise. */
    void step(Cycle now);

    // ---- event-driven fabric scheduling (MachineConfig::netScheduler) ----

    /** Select the event-driven stepping paths (commit-produced pull
     *  worklists, dirty-word commit, fused serial fast path) or the
     *  legacy full-scan ones. Pure host-side A/B: runs are
     *  bit-identical either way. */
    /** Switch stepping strategy between cycles. Re-homes the tracking
     *  of committed-but-undrained channel flits (retry list vs router
     *  pendingIn_ bits) so a live flip never strands a worm. */
    void setEventDriven(bool on);
    bool eventDriven() const { return eventDriven_; }

    /**
     * Earliest cycle the fabric can change architectural state, given
     * the clock stands at @p now: with any router active (a flit in a
     * FIFO, a channel pipeline register occupied, or a committed flit
     * awaiting its pull) the fabric has work next cycle; otherwise it
     * is provably dead until an NI injects — kNoFabricEvent. Exact,
     * not conservative: active routers are compacted away the cycle
     * they drain, so a quiet verdict means no flit exists anywhere.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        return !active_.empty() ? now + 1 : kNoFabricEvent;
    }

    /** Event-driven step: move the active routers, then retry the
     *  back-pressured pushes and commit the dirty words in ascending
     *  channel index (each commit pushes its flit straight into the
     *  downstream FIFO), then compact the active bin. Bit-identical to
     *  the legacy pullPhase+movePhase+commitPhase sequence. */
    void stepFast(Cycle now);

    /** Account one stepped fabric cycle: the active routers were
     *  visited, every other router's step was skipped. */
    void
    noteStepBegin()
    {
        routerSteps_ += active_.size();
        skippedRouterSteps_ += dims_.nodes() - active_.size();
    }

    /** Account @p cycles fabric-quiet cycles (single unticked-fabric
     *  cycles and idle-skip jumps): every router's step was skipped,
     *  and the cycles count as event-skipped. Together with
     *  noteStepBegin this keeps router_steps + skipped_router_steps ==
     *  routers * cycles exact on a fresh machine. */
    void
    noteQuietCycles(Cycle cycles)
    {
        skippedRouterSteps_ +=
            static_cast<std::uint64_t>(cycles) * dims_.nodes();
        eventSkippedCycles_ += cycles;
    }

    // ---- legacy full-scan stepping (netScheduler off) ----

    /** Phase 1: pull committed channel flits into the active routers. */
    void pullPhase();

    /** Phase 2: arbitrate and move the active routers' flits. */
    void movePhase(Cycle now);

    /** Phase 3: commit written channels in channel-index order and
     *  compact the active bin. */
    void commitPhase(Cycle now);

    /** NI-side: may node @p id inject a flit at priority @p vn? */
    bool
    canInject(NodeId id, unsigned vn) const
    {
        return routers_[id].canInject(vn);
    }

    /** NI-side: push one flit into node @p id's inject port. */
    void injectFlit(NodeId id, Flit flit);

    /** Called by sinks when a whole message has been delivered: samples
     *  the latency histogram and counts the message toward the next
     *  fabric step's fold (see pendingMessages_). */
    void noteMessageDelivered(const Message &msg);

    /** True if any flit is in flight anywhere (exhaustive scan). */
    bool busy() const;

    /** Cheap activity check: any router on the active bin? */
    bool anyActive() const { return !active_.empty(); }

    const MeshDims &dims() const { return dims_; }
    Router &router(NodeId id) { return routers_[id]; }
    const NetworkStats &stats() const { return stats_; }
    void resetStats();

    /** One-direction bisection capacity in bits per second. */
    double bisectionCapacityBitsPerSec() const;

    /** Heap bytes behind the fabric: routers, channels, activity
     *  arrays, and the message arena. */
    std::uint64_t footprintBytes() const;

    /** Live pool handles buffered in routers and channels, appended in
     *  deterministic (router-id, then channel-index) order. */
    void collectHandles(std::vector<MsgHandle> &out) const;

    /** Serialize routers, channels, activity state, and fabric
     *  counters (between cycles). */
    void save(ckpt::Writer &w, const ckpt::HandleMap &map) const;
    void restore(ckpt::Reader &r, const ckpt::HandleMap &map);

  private:
    /** Re-derive the mode-specific tracking of committed-but-undrained
     *  channel flits from the channels themselves: the event-driven
     *  fabric retries them from retryPull_, the legacy pull phase
     *  consumes the downstream router's pendingIn_ bits. Called after
     *  a restore and on a live scheduler-mode flip. */
    void rebuildUndrainedTracking();

    /** Put router @p id on the active bin (hot: inlined). */
    void
    activate(NodeId id)
    {
        if (!activeFlag_[id]) {
            activeFlag_[id] = 1;
            busyHint_[id] = 1;
            active_.push_back(id);
        }
    }

    /** Drop routers with no work left from the active bin. */
    void compactActive();

    /** Add the deliveries counted since the last fold to stats_. */
    void
    foldDeliveries()
    {
        stats_.messagesDelivered += pendingMessages_;
        stats_.wordsDelivered += pendingWords_;
        pendingMessages_ = 0;
        pendingWords_ = 0;
    }

    /** Retry the back-pressured fused pushes (event mode, at commit
     *  time): each entry is a committed channel whose
     *  downstream FIFO was full. Runs before the fresh commits; pushes
     *  are commutative (each targets a distinct (channel, input-FIFO)
     *  pair), so the list order never affects architectural state. */
    void retryPulls();

    /** Commit the set channels of bitmap word @p w: advance pipeline
     *  registers, count bisection crossings, and hand each flit to its
     *  downstream router (event mode: fused push into the input FIFO;
     *  legacy: raise the pending-input bit for the next pull phase). */
    void commitWord(std::size_t w, std::uint64_t bits);

    MeshDims dims_;
    MessagePool pool_;
    std::vector<Router> routers_;
    /** Channels indexed [node * kNumDirs + dir] = outgoing channel. */
    std::vector<Channel> channels_;
    std::vector<NodeId> active_;  ///< routers to step this cycle
    ChannelBitmap touched_;        ///< channels written this cycle
    /** Inject->deliver cycles of every delivered message. */
    Histogram latency_{1, kLatencyHistBuckets};
    /** Deliveries not yet in stats_: each fabric step folds them in.
     *  Replies the netops engine delivers after the fabric step wait
     *  for the next fabric step, and are never counted if none comes.
     *  Neither saved nor kept across a restore. */
    std::uint64_t pendingMessages_ = 0;
    std::uint64_t pendingWords_ = 0;
    std::vector<std::uint8_t> activeFlag_;
    /** Per-router "still has work" flag for the commit-phase bin
     *  compaction. Written where the router state is already hot in
     *  cache — by movePhase right after the router's move, by the
     *  commit loop when a channel wake arrives, and by activate() — so
     *  the compaction scan reads one contiguous byte array instead of
     *  chasing two cold fields per Router object. Keeping an idle
     *  router binned one cycle too long is harmless (its phases are
     *  no-ops); the hint is never stale in the dropping direction. */
    std::vector<std::uint8_t> busyHint_;
    /** Committed channels whose fused push was refused by a full
     *  downstream FIFO; retried each commit. A channel appears at most
     *  once: while its flit is visible the upstream router cannot send
     *  (canSend is false), so no fresh commit of it can occur. */
    std::vector<std::uint32_t> retryPull_;
    bool eventDriven_ = true;
    /** Event accounting (net.router_steps / net.skipped_router_steps /
     *  net.event_skipped_cycles): router visits made vs avoided, and
     *  whole cycles the fabric never ticked. */
    std::uint64_t routerSteps_ = 0;
    std::uint64_t skippedRouterSteps_ = 0;
    std::uint64_t eventSkippedCycles_ = 0;
    NetworkStats stats_;
};

} // namespace jmsim

#endif // JMSIM_NET_MESH_NETWORK_HH
