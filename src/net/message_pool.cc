#include "net/message_pool.hh"

#include "sim/logging.hh"

namespace jmsim
{

MsgHandle
MessagePool::alloc()
{
    allocs_ += 1;
    live_ += 1;
    MsgHandle handle;
    if (!freeList_.empty()) {
        handle = freeList_.back();
        freeList_.pop_back();
        recycled_ += 1;
    } else {
        handle = grow();
    }
    Message &msg = get(handle);
    msg.src = 0;
    msg.dest = 0;
    msg.destAddr = RouterAddr{};
    msg.priority = 0;
    msg.words.clear();  // capacity survives: the recycling payoff
    msg.injectCycle = 0;
    msg.deliverCycle = 0;
    msg.srcSeq = 0;
    msg.finalized = false;
    msg.netop = 0;
    return handle;
}

void
MessagePool::release(MsgHandle handle)
{
    released_ += 1;
    live_ -= 1;
    freeList_.push_back(handle);
}

MsgHandle
MessagePool::grow()
{
    if (slabCount_ == kMaxSlabs)
        panic("MessagePool exhausted");
    const std::uint32_t slab = slabCount_;
    slabs_[slab] = std::make_unique<Message[]>(kSlabSize);
    slabCount_ += 1;
    const MsgHandle base = static_cast<MsgHandle>(slab) << kSlabShift;
    // Hand the first slot to the caller; stack the rest so they pop in
    // ascending handle order.
    freeList_.reserve(freeList_.size() + kSlabSize - 1);
    for (std::uint32_t i = kSlabSize; i-- > 1;)
        freeList_.push_back(base + i);
    return base;
}

PoolStats
MessagePool::stats() const
{
    PoolStats s;
    s.allocs = allocs_;
    s.recycled = recycled_;
    s.released = released_;
    s.liveNow = live();
    s.liveHighWater = liveHighWater_;
    s.capacity = slabCount_ * kSlabSize;
    return s;
}

void
MessagePool::resetStats()
{
    allocs_ = 0;
    recycled_ = 0;
    released_ = 0;
    liveHighWater_ = live_;
}

void
MessagePool::resetAll()
{
    freeList_.clear();
    allocs_ = 0;
    recycled_ = 0;
    released_ = 0;
    live_ = 0;
    for (std::uint32_t s = 0; s < slabCount_; ++s)
        slabs_[s].reset();
    slabCount_ = 0;
    liveHighWater_ = 0;
}

void
MessagePool::restoreCounters(std::uint64_t allocs, std::uint64_t recycled,
                             std::uint64_t released, std::uint64_t liveNow,
                             std::uint64_t liveHighWater)
{
    allocs_ = allocs;
    recycled_ = recycled;
    released_ = released;
    live_ = liveNow;
    liveHighWater_ = liveHighWater;
}

std::uint64_t
MessagePool::footprintBytes() const
{
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < slabCount_; ++s) {
        total += kSlabSize * sizeof(Message);
        for (std::uint32_t i = 0; i < kSlabSize; ++i)
            total += slabs_[s][i].words.capacity() * sizeof(Word);
    }
    return total + freeList_.capacity() * sizeof(MsgHandle);
}

} // namespace jmsim
