/**
 * @file
 * In-network computing: router-level combining, fetch-and-add, and a
 * hardware barrier tree (DESIGN.md §3k).
 *
 * Three opt-in fabric primitives, each a MachineConfig toggle that
 * defaults off so the baseline machine is bit-identical to before:
 *
 *  - Fetch-and-add / reduction (add/min/max/or): a combinable request
 *    the NI hands off to this engine instead of the inject port. The
 *    request walks the e-cube path hop by hop on the dedicated netops
 *    wires toward the *home node* of its variable (var % nodes, the
 *    memory-bank interleave), is applied memory-side there, and the
 *    fetched value returns as a plain two-word message dispatched
 *    through the normal receive queue.
 *
 *  - Router-level combining (NYU Ultracomputer style): while a request
 *    waits at a router (for the output port or the home memory), it
 *    sits in that router's combine table. A later same-(var, op)
 *    request arriving at the router merges into it — one request
 *    continues, carrying both operands — and the reply de-combines on
 *    the way back: each absorbed child receives op(base, prefix) where
 *    prefix is the owner's accumulated operand at merge time, which is
 *    exactly a valid serialization of the merged requests.
 *
 *  - Hardware barrier tree: a dedicated reduce/broadcast wire tree
 *    (binomial over linear node ids, parent(i) = i & (i-1)) with
 *    per-hop mesh-distance latency. BARRIER requests climb the tree;
 *    the root's wave broadcasts back down and releases every node with
 *    a reply message carrying the wave number.
 *
 * The engine is event-driven and steps after the fabric each cycle.
 * Nodes only *stage* issues during the node phase; step() sorts them by
 * (src, srcSeq) before anything else happens. The kernel steps nodes in
 * active-list order, not node-id order, so that sort is what makes the
 * issue order canonical.
 */

#ifndef JMSIM_NETOPS_NETOPS_HH
#define JMSIM_NETOPS_NETOPS_HH

#include <cstdint>
#include <vector>

#include "net/message.hh"
#include "net/router_address.hh"
#include "sim/types.hh"

namespace jmsim
{

class MeshNetwork;
class NetworkInterface;
class CounterRegistry;
class Tracer;

namespace ckpt
{
class Writer;
class Reader;
struct HandleMap;
} // namespace ckpt

/** Combinable reduction opcodes, plus the barrier marker. The value is
 *  what a program puts in the bits of its User0-tagged SEND word. */
enum class NetOp : std::uint8_t
{
    Add = 0,
    Min = 1,
    Max = 2,
    Or = 3,
    Barrier = 4,
};

/** Opcodes strictly below this are fetch-and-op reductions. */
inline constexpr std::uint8_t kNetOpFaaCount = 4;

/** MachineConfig block for the in-network computing engine. */
struct NetOpsConfig
{
    /** Router combine tables merge same-(var, op) requests in flight. */
    bool combining = false;
    /** Fetch-and-add/min/max/or requests (User0 opcodes 0..3). */
    bool faa = false;
    /** Hardware barrier tree (User0 opcode 4). */
    bool barrierTree = false;

    /** Live entries per router combine table. */
    std::uint32_t combineEntries = 4;
    /** Max requests merged into one (owner + children). */
    std::uint32_t combineFanIn = 8;
    /** NI handoff to first router, cycles. */
    std::uint32_t issueCycles = 1;
    /** Per mesh hop on the netops wires, cycles. */
    std::uint32_t hopCycles = 2;
    /** Router occupancy per forwarded request, cycles. */
    std::uint32_t serviceCycles = 1;
    /** Home-node memory update occupancy, cycles. */
    std::uint32_t memCycles = 2;
    /** Per tree edge (scaled by mesh distance), cycles. */
    std::uint32_t treeHopCycles = 2;
    /** Combine/forward latency at each tree stage, cycles. */
    std::uint32_t treeCombineCycles = 1;
    /** FAA variables per node; variable v lives at node v % nodes. */
    std::uint32_t slotsPerNode = 64;

    /** Does the machine need the engine at all? */
    bool enabled() const { return faa || barrierTree; }
};

/** nextEventCycle() when the engine has nothing scheduled. */
inline constexpr Cycle kNoNetOpsEvent = ~Cycle{0};

/** The in-network computing engine for one machine. */
class NetOps
{
  public:
    NetOps(const NetOpsConfig &config, MeshNetwork *net);

    NetOps(const NetOps &) = delete;
    NetOps &operator=(const NetOps &) = delete;

    const NetOpsConfig &config() const { return config_; }

    /** One NI pointer per node, in node-id order. */
    void attachNis(std::vector<NetworkInterface *> nis);

    void setTracer(Tracer *tracer) { trace_ = tracer; }
    void registerCounters(CounterRegistry &registry);

    /** Stage one request handed off by a node's NI; nothing else is
     *  touched until step() commits the staged issues. */
    void stageIssue(NodeId src, std::uint8_t prio, std::uint8_t op,
                    std::int32_t var, std::int32_t operand,
                    std::uint32_t reply_ip, std::uint32_t src_seq,
                    Cycle now);

    /** No events scheduled (valid between cycles, after step()). */
    bool idle() const { return nextAt_ == kNoNetOpsEvent; }

    /** Cycle of the earliest scheduled event, or kNoNetOpsEvent. */
    Cycle nextEventCycle() const { return nextAt_; }

    /** Commit staged issues and run every event due at @p now (after
     *  the fabric phases of the cycle). */
    void step(Cycle now);

    /** Number of FAA variables (nodes * slotsPerNode). */
    std::uint32_t slotCount() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Current value of FAA variable @p var. */
    std::int32_t slotValue(std::uint32_t var) const { return slots_[var]; }

    /** Events that were scheduled past the calendar ring and waited in
     *  the overflow heap (host-side only; not part of a snapshot). */
    std::uint64_t calendarOverflows() const { return overflowed_; }

    std::uint64_t combineHits() const { return combineHits_; }
    std::uint64_t faaOps() const { return faaOps_; }
    std::uint64_t waves() const { return waves_; }

    void resetStats();
    std::uint64_t footprintBytes() const;

    /** Reply messages built but still waiting on a full receive queue. */
    void collectHandles(std::vector<MsgHandle> &out) const;
    void save(ckpt::Writer &w, const ckpt::HandleMap &map) const;
    /** Restore into a machine whose clock reads @p now. */
    void restore(ckpt::Reader &r, const ckpt::HandleMap &map, Cycle now);

  private:
    enum class EvKind : std::uint8_t
    {
        FaaHop = 0,   ///< request arrives at router `node`
        FaaApply = 1, ///< home memory update completes
        TreeUp = 2,   ///< one arrival reaches tree stage `node`
        TreeDown = 3, ///< release wave reaches tree stage `node`
        Reply = 4,    ///< deliver a reply message into `node`'s queue
    };

    struct Event
    {
        Cycle at = 0;
        std::uint64_t seq = 0; ///< creation order; total-order tiebreak
        std::uint8_t kind = 0;
        std::uint8_t prio = 0;
        NodeId node = 0;
        NodeId src = 0;            ///< reply's nominal sender
        std::uint32_t req = 0;     ///< request slab index (Faa events)
        std::uint32_t ip = 0;      ///< reply handler ip
        std::int32_t value = 0;    ///< reply payload / wave number
        MsgHandle msg = kNullMsg;  ///< built reply awaiting retry
        /** Next event of the same calendar bucket, or next free slot
         *  (host-side link, fills the struct's tail padding). */
        std::uint32_t link = 0;
    };

    /** Heap order: true when @p a comes after @p b in (at, seq). */
    static bool
    eventAfter(const Event &a, const Event &b)
    {
        return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }

    /** Calendar window, in cycles (a power of two). */
    static constexpr Cycle kRingCycles = 1024;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** One calendar cycle: a FIFO list of event slots. */
    struct Bucket
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
    };

    static constexpr std::uint32_t kNoReq = ~std::uint32_t{0};

    /** One in-flight (or absorbed) FAA request. */
    struct Request
    {
        NodeId src = 0;
        std::uint8_t prio = 0;
        std::uint8_t op = 0;
        std::uint8_t state = 0; ///< 0 free, 1 in flight, 2 absorbed
        std::int32_t var = 0;
        std::int32_t operand = 0;
        /** Owner's accumulated operand at the moment this request was
         *  absorbed — the reply de-combine prefix. */
        std::int32_t prefix = 0;
        std::uint32_t replyIp = 0;
        std::uint32_t srcSeq = 0;
        NodeId absorbedAt = 0;
        std::uint32_t firstChild = kNoReq;
        std::uint32_t lastChild = kNoReq;
        std::uint32_t nextSibling = kNoReq;
        std::uint32_t childCount = 0;
    };

    /** One combine-table entry: a request waiting at this router until
     *  @p expiresAt (its departure or memory-start time). */
    struct WaitEntry
    {
        std::uint32_t req = 0;
        Cycle expiresAt = 0;
    };

    struct Staged
    {
        NodeId src = 0;
        std::uint8_t prio = 0;
        std::uint8_t op = 0;
        std::int32_t var = 0;
        std::int32_t operand = 0;
        std::uint32_t replyIp = 0;
        std::uint32_t srcSeq = 0;
        Cycle now = 0;
    };

    struct TreeNode
    {
        std::uint32_t needed = 1; ///< children + self (rebuilt at ctor)
        std::uint32_t arrived = 0;
        std::uint32_t replyIp = 0;
        std::uint8_t prio = 0;
    };

    void commitStaged();
    /** Stamp @p ev with the next sequence number and enqueue it. */
    void schedule(Event ev);
    /** File @p ev (at >= base_) in its ring bucket or the overflow. */
    void enqueue(const Event &ev);
    /** Slide the window to start at @p c (no event is due before it),
     *  moving overflow events the window now covers into the ring. */
    void advanceTo(Cycle c);
    /** Earliest scheduled event cycle, found by walking the ring. */
    Cycle scanNextEvent() const;
    /** Every scheduled event in (at, seq) order (checkpoint paths). */
    std::vector<Event> pendingEvents() const;
    void dispatch(const Event &ev, Cycle now);

    std::uint32_t allocRequest();
    void freeSubtree(std::uint32_t ri);
    std::uint64_t subtreeSize(std::uint32_t ri) const;

    NodeId homeOf(std::int32_t var) const;
    NodeId nextHop(NodeId at, NodeId dest) const;
    unsigned dist(NodeId a, NodeId b) const;
    Cycle edgeLat(NodeId a, NodeId b) const;

    static std::int32_t applyOp(std::uint8_t op, std::int32_t a,
                                std::int32_t b);

    bool tryCombine(NodeId router, std::uint32_t ri, Cycle t);
    void registerWaiting(NodeId router, std::uint32_t ri, Cycle expires);
    void pruneWaiting(NodeId router, Cycle t);

    void onFaaHop(const Event &ev);
    void onFaaApply(const Event &ev);
    void spawnReplies(std::uint32_t ri, std::int32_t base, NodeId at,
                      Cycle t0);
    void onTreeUp(const Event &ev);
    void onTreeDown(const Event &ev);
    void onReply(Event ev, Cycle now);

    NetOpsConfig config_;
    MeshNetwork *net_;
    MeshDims dims_;
    std::vector<NetworkInterface *> nis_;
    Tracer *trace_ = nullptr;

    /** Event calendar. ring_[c % kRingCycles] lists, in (at, seq)
     *  order, the events due at cycle c for every c in the window
     *  [base_, base_ + kRingCycles). Events due later wait in the
     *  overflow min-heap on (at, seq) and move into their bucket when
     *  the window first covers their cycle — before anything can be
     *  scheduled there directly — so bucket FIFO order is (at, seq)
     *  order. Ring events live in evSlab_, linked through Event::link;
     *  freed slots are chained from freeSlot_. */
    std::vector<Bucket> ring_;
    std::vector<Event> evSlab_;
    std::uint32_t freeSlot_ = kNoSlot;
    std::size_t ringCount_ = 0;
    std::vector<Event> overflow_;
    Cycle base_ = 0;
    Cycle nextAt_ = kNoNetOpsEvent;  ///< earliest scheduled event
    std::uint64_t eventSeq_ = 0;
    std::uint64_t overflowed_ = 0;

    std::vector<Request> reqs_;
    std::vector<std::uint32_t> freeReqs_;

    std::vector<std::int32_t> slots_;     ///< FAA variables, interleaved
    std::vector<Cycle> routerFree_;       ///< netops port busy-until
    std::vector<Cycle> memFree_;          ///< home memory busy-until
    std::vector<std::vector<WaitEntry>> waiting_; ///< combine tables

    std::vector<TreeNode> tree_;

    std::vector<Staged> stage_;  ///< this cycle's issues

    std::uint64_t combineHits_ = 0;
    std::uint64_t combineMisses_ = 0;
    std::uint64_t faaOps_ = 0;
    std::uint64_t waves_ = 0;
    std::uint64_t replyRetries_ = 0;
};

} // namespace jmsim

#endif // JMSIM_NETOPS_NETOPS_HH
