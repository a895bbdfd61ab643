/**
 * @file
 * A recycling slab arena for in-flight messages.
 *
 * Messages are allocated in fixed-size slabs and named by a 32-bit
 * MsgHandle (slab index · slot index), so a Flit can reference its
 * message without owning it: no heap allocation and no atomic
 * reference count anywhere on the per-cycle flit path. A released
 * message keeps its payload vector's capacity, so the steady state of
 * a traffic-bound run allocates nothing at all — the pool's recycle
 * counters prove it (see tests/message_pool_test.cc).
 *
 * Slab pointers live in a fixed-capacity directory, so a handle's
 * slab never moves once carved.
 */

#ifndef JMSIM_NET_MESSAGE_POOL_HH
#define JMSIM_NET_MESSAGE_POOL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hh"

namespace jmsim
{

/** Pool observability counters (host-side). */
struct PoolStats
{
    std::uint64_t allocs = 0;        ///< messages handed out
    std::uint64_t recycled = 0;      ///< allocs served from a free list
    std::uint64_t released = 0;      ///< messages returned to the pool
    std::uint64_t liveNow = 0;       ///< currently outstanding handles
    std::uint64_t liveHighWater = 0; ///< peak of end-of-cycle samples
    std::uint32_t capacity = 0;      ///< slots carved out of slabs so far
};

/** Slab-allocated, handle-indexed message arena. */
class MessagePool
{
  public:
    static constexpr unsigned kSlabShift = 8;
    static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;
    static constexpr std::uint32_t kMaxSlabs = 1u << 14;  ///< 4M messages

    MessagePool() = default;

    MessagePool(const MessagePool &) = delete;
    MessagePool &operator=(const MessagePool &) = delete;

    /** Take a message (recycled when possible). Fields are reset; the
     *  payload vector keeps its capacity. */
    MsgHandle alloc();

    /** Return a message to the free list. */
    void release(MsgHandle handle);

    Message &
    get(MsgHandle handle)
    {
        return slabs_[handle >> kSlabShift][handle & (kSlabSize - 1)];
    }

    const Message &
    get(MsgHandle handle) const
    {
        return slabs_[handle >> kSlabShift][handle & (kSlabSize - 1)];
    }

    /** Outstanding handles. */
    std::uint64_t live() const { return live_; }

    /** Record an end-of-cycle high-water sample of live(). */
    void
    sampleHighWater()
    {
        const std::uint64_t l = live();
        if (l > liveHighWater_)
            liveHighWater_ = l;
    }

    /** The counters, plus the live count and carved capacity. */
    PoolStats stats() const;

    /** Zero the counters; live accounting and free lists persist. */
    void resetStats();

    /** Drop every slab, free list, and counter (checkpoint restore:
     *  live messages are re-alloc()ed from the image afterwards). */
    void resetAll();

    /** Overwrite the counters after a restore. The restore path
     *  re-allocates live messages (bumping allocs), so this runs last
     *  and installs the image's exact values. */
    void restoreCounters(std::uint64_t allocs, std::uint64_t recycled,
                         std::uint64_t released, std::uint64_t liveNow,
                         std::uint64_t liveHighWater);

    /** Heap bytes behind the arena: every carved slab, each slot's
     *  retained payload capacity, and the free list. */
    std::uint64_t footprintBytes() const;

  private:
    /** Carve a fresh slab onto the free list; returns its first slot. */
    MsgHandle grow();

    std::vector<MsgHandle> freeList_;
    std::array<std::unique_ptr<Message[]>, kMaxSlabs> slabs_;
    std::uint32_t slabCount_ = 0;
    std::uint64_t allocs_ = 0;
    std::uint64_t recycled_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t live_ = 0;  ///< outstanding handles (survives resetStats)
    std::uint64_t liveHighWater_ = 0;
};

} // namespace jmsim

#endif // JMSIM_NET_MESSAGE_POOL_HH
