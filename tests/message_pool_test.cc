/** @file Unit tests for the slab-allocated message arena. */

#include <gtest/gtest.h>

#include <vector>

#include "net/message_pool.hh"

namespace jmsim
{
namespace
{

TEST(MessagePool, HandleReuseHasNoStalePayload)
{
    MessagePool pool;
    const MsgHandle h = pool.alloc();
    Message &msg = pool.get(h);
    msg.src = 7;
    msg.dest = 9;
    msg.priority = 1;
    msg.injectCycle = 123;
    msg.deliverCycle = 456;
    msg.finalized = true;
    for (int i = 0; i < 24; ++i)
        msg.words.push_back(Word::makeInt(i));
    const std::size_t cap = msg.words.capacity();
    pool.release(h);

    const MsgHandle h2 = pool.alloc();
    EXPECT_EQ(h2, h);  // LIFO free list hands it back
    const Message &fresh = pool.get(h2);
    EXPECT_EQ(fresh.src, 0u);
    EXPECT_EQ(fresh.dest, 0u);
    EXPECT_EQ(fresh.priority, 0u);
    EXPECT_EQ(fresh.injectCycle, 0u);
    EXPECT_EQ(fresh.deliverCycle, 0u);
    EXPECT_FALSE(fresh.finalized);
    EXPECT_TRUE(fresh.words.empty());
    // The recycling payoff: the payload storage survives the round trip.
    EXPECT_GE(fresh.words.capacity(), cap);
}

TEST(MessagePool, GrowsUnderBackpressure)
{
    MessagePool pool;
    // More live messages than one slab holds: the directory grows and
    // the handles stay distinct and stable.
    const unsigned n = MessagePool::kSlabSize * 2 + 5;
    std::vector<MsgHandle> handles;
    for (unsigned i = 0; i < n; ++i) {
        const MsgHandle h = pool.alloc();
        pool.get(h).src = i;
        handles.push_back(h);
    }
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.liveNow, n);
    EXPECT_GE(s.capacity, n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(pool.get(handles[i]).src, i) << i;
    for (const MsgHandle h : handles)
        pool.release(h);
    EXPECT_EQ(pool.stats().liveNow, 0u);
}

TEST(MessagePool, SteadyStateAllocatesNoNewCapacity)
{
    MessagePool pool;
    // Warm up to the workload's high-water mark...
    std::vector<MsgHandle> live;
    for (int i = 0; i < 50; ++i)
        live.push_back(pool.alloc());
    for (const MsgHandle h : live)
        pool.release(h);
    const std::uint32_t warm_capacity = pool.stats().capacity;
    pool.resetStats();

    // ...then run a long alloc/release steady state: every alloc is
    // served from the free list and the arena never grows — the
    // zero-allocation property of the per-flit hot path.
    for (int round = 0; round < 1000; ++round) {
        const MsgHandle h = pool.alloc();
        pool.get(h).words.push_back(Word::makeInt(round));
        pool.release(h);
    }
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.allocs, 1000u);
    EXPECT_EQ(s.recycled, 1000u);  // all served from the free list
    EXPECT_EQ(s.released, 1000u);
    EXPECT_EQ(s.capacity, warm_capacity);
    EXPECT_EQ(s.liveNow, 0u);
}

TEST(MessagePool, TailAppearsOnlyAtFinalize)
{
    // Cut-through injection: the NI streams flits out while the
    // processor is still appending words, so no flit index may read as
    // the tail until SEND*E finalizes the message.
    MessagePool pool;
    const MsgHandle h = pool.alloc();
    Message &msg = pool.get(h);
    msg.words.push_back(Word::makeInt(0));
    msg.words.push_back(Word::makeInt(1));
    for (std::uint32_t i = 0; i < msg.flitCount(); ++i)
        EXPECT_FALSE(msg.tailAt(i)) << i;
    msg.finalized = true;
    const std::uint32_t flits = msg.flitCount();
    EXPECT_EQ(flits, 1u + 2u * 2u);  // head + 2 flits per word
    for (std::uint32_t i = 0; i + 1 < flits; ++i)
        EXPECT_FALSE(msg.tailAt(i)) << i;
    EXPECT_TRUE(msg.tailAt(flits - 1));
}

TEST(MessagePool, CountersTrackLiveHandlesAcrossResetStats)
{
    MessagePool pool;
    std::vector<MsgHandle> held;
    for (unsigned i = 0; i < 10; ++i)
        held.push_back(pool.alloc());
    for (unsigned i = 0; i < 7; ++i)
        pool.release(held[i]);
    pool.alloc();
    PoolStats s = pool.stats();
    EXPECT_EQ(s.allocs, 11u);
    EXPECT_EQ(s.released, 7u);
    // Only the first alloc carved a slab; the rest came off the free
    // list, which a fresh slab fills with its other slots.
    EXPECT_EQ(s.recycled, 10u);
    EXPECT_EQ(s.liveNow, 4u);
    // A fresh stats window zeroes the counters but not the live count.
    pool.resetStats();
    s = pool.stats();
    EXPECT_EQ(s.allocs, 0u);
    EXPECT_EQ(s.released, 0u);
    EXPECT_EQ(s.recycled, 0u);
    EXPECT_EQ(s.liveNow, 4u);
    EXPECT_EQ(s.liveHighWater, 4u);
}

} // namespace
} // namespace jmsim
