/**
 * @file
 * In-flight network messages and their flit decomposition.
 *
 * A message on the wire is a head flit carrying the destination and
 * priority followed by two body flits per 36-bit payload word (the
 * channel moves half a word per cycle: the paper's 0.5 words/cycle
 * channel bandwidth). Payload word 0 is the Msg-tagged header holding
 * the dispatch IP and length; the destination word consumed by the
 * first SEND never appears in the payload, mirroring the MDP.
 *
 * Messages live in a recycling MessagePool (message_pool.hh) and are
 * named by a 32-bit MsgHandle; a Flit is a plain {handle, index, vn}
 * cursor, so moving flits through channels and FIFOs copies 12 bytes
 * and touches no allocator and no reference count.
 */

#ifndef JMSIM_NET_MESSAGE_HH
#define JMSIM_NET_MESSAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/word.hh"
#include "net/router_address.hh"
#include "sim/types.hh"

namespace jmsim
{

/** Number of body flits per payload word. */
inline constexpr unsigned kFlitsPerWord = 2;

/** Bits per payload word for bandwidth accounting (36-bit words). */
inline constexpr unsigned kBitsPerWord = 36;

/** Name of a pool-resident message (see MessagePool). */
using MsgHandle = std::uint32_t;

/** "No message": the default of a freshly constructed Flit. */
inline constexpr MsgHandle kNullMsg = 0xFFFFFFFFu;

/** One message travelling through the mesh. */
struct Message
{
    NodeId src = 0;
    NodeId dest = 0;
    RouterAddr destAddr;
    std::uint8_t priority = 0;           ///< 0 or 1
    std::vector<Word> words;             ///< payload, [0] = Msg header
    Cycle injectCycle = 0;               ///< first flit entered the router
    Cycle deliverCycle = 0;              ///< last word written to the queue
    /** Per-sender sequence number stamped when the message finalizes.
     *  (src, srcSeq) is the stable identity tracing matches send and
     *  receive events on — pool handles depend on the pool's free-list
     *  history, so they cannot name a message deterministically. */
    std::uint32_t srcSeq = 0;
    /** Cut-through: words may still be appended until the sender's
     *  SEND*E executes; only then is the last flit a tail. */
    bool finalized = false;
    /** 0 = regular message; else 1 + the NetOp opcode — an in-network
     *  computing request the NI hands to the NetOps engine instead of
     *  the inject port (see netops/netops.hh). */
    std::uint8_t netop = 0;

    /** Total flits on a channel so far: head + 2 per word. */
    std::uint32_t
    flitCount() const
    {
        return 1 + kFlitsPerWord * static_cast<std::uint32_t>(words.size());
    }

    /** Is flit @p index the tail of this message (as built so far)? */
    bool
    tailAt(std::uint32_t index) const
    {
        return finalized && index + 1 == flitCount();
    }
};

/** Per-axis remaining-hop encoding of a cached e-cube route: bit 7 is
 *  the direction sign (set = negative), bits 0..6 the hop count. */
inline std::uint8_t
encodeRouteHops(unsigned from, unsigned to)
{
    return to >= from ? static_cast<std::uint8_t>(to - from)
                      : static_cast<std::uint8_t>(0x80u | (from - to));
}

/** One flit: a POD cursor into a pooled message. */
struct Flit
{
    MsgHandle msg = kNullMsg;
    std::uint32_t index = 0;   ///< 0 = head flit
    std::uint8_t vn = 0;       ///< virtual network (= message priority)
    /** Precomputed Message::tailAt(index), set at injection so the
     *  per-hop move path never touches the message slab. */
    std::uint8_t tail = 0;
    /** Cached dimension-order route of a head flit: remaining hops per
     *  axis (encodeRouteHops), computed once at injection from
     *  (source, destination) and decremented as the head moves, so the
     *  per-hop routing decision never loads the message slab and does
     *  no address arithmetic. Unused on body flits (they follow the
     *  worm's allocated path). */
    std::array<std::uint8_t, 3> route{};

    bool isHead() const { return index == 0; }

    /**
     * Payload word this flit completes, or -1.
     * Body flits for word w have indices 1+2w and 2+2w; the second one
     * completes the word.
     */
    std::int32_t
    completesWord() const
    {
        if (index == 0 || (index % kFlitsPerWord) != 0)
            return -1;
        return static_cast<std::int32_t>(index / kFlitsPerWord) - 1;
    }
};

} // namespace jmsim

#endif // JMSIM_NET_MESSAGE_HH
