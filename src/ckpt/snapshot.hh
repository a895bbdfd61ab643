/**
 * @file
 * Deterministic machine-state checkpoints.
 *
 * A Snapshot is a versioned binary image of one JMachine's complete
 * architectural state — node memories (backed DRAM chunks only),
 * register sets and translation caches, NI send channels and message
 * queues, every in-flight message with its flits and cached routes,
 * the parked nodes' doze horizons, the fabric's back-pressure retry
 * state, the netops engine's pending events in (cycle, seq) order, and
 * every counter the CounterRegistry reads — such that a run restored
 * at cycle C continues bit-identically to the uninterrupted run: same
 * final cycle count, same counter snapshot, same jtrace stream.
 *
 * Host-side execution strategy is deliberately NOT part of the image:
 * the header digest covers the architectural configuration (mesh
 * dims, memory/NI/processor timing, arbitration) and the program
 * image, but none of the host toggles (idleSkip, wakeScheduler,
 * netScheduler, superblock, trace). A snapshot taken under one
 * strategy therefore restores into a machine running any other — the
 * property the jrun_server sweep farm is built on.
 *
 * Message handles are pool-allocation names, not architectural state
 * (free-list order depends on the allocation history), so the image
 * stores messages by a dense ordinal and every stored Flit/MsgHandle
 * field is rewritten through a HandleMap on both paths.
 *
 * Layout: {magic u32, version u32, config digest u64} then the body
 * sections in machine order (kernel, pool, nodes, network). Header
 * mismatches are reported to the caller (JMachine::restore returns
 * false); body corruption past a valid header is detected by the
 * bounds-checked Reader and is fatal (FatalError), including a count
 * too large for the bytes left, which is refused before anything is
 * allocated for it (Reader::count).
 */

#ifndef JMSIM_CKPT_SNAPSHOT_HH
#define JMSIM_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/word.hh"
#include "net/message.hh"

namespace jmsim
{
namespace ckpt
{

inline constexpr std::uint32_t kMagic = 0x4A4D434Bu;  ///< "JMCK"
/** v2: Message::netop byte in the pool section + the netops engine
 *  section (combine tables, in-flight requests, barrier tree).
 *  v3: the kernel wake queue is no longer written (restore rebuilds it
 *  from the parked flags and doze horizons), kernel.parks and
 *  kernel.early_wakes join the kernel counters, and netops events are
 *  written in (cycle, seq) order instead of heap-array order. */
inline constexpr std::uint32_t kVersion = 3;

/** Little-endian byte sink the component save() methods write into. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel as their IEEE-754 bit pattern (exact). */
    void f64(double v);

    void
    word(const Word &w)
    {
        u32(w.bits);
        u8(static_cast<std::uint8_t>(w.tag));
    }

    std::vector<std::uint8_t> &buffer() { return buf_; }
    const std::vector<std::uint8_t> &buffer() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over a snapshot body; overruns are fatal. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();

    /** Read a u32 record count, fatal unless the rest of the image can
     *  hold that many records of at least @p record_bytes (> 0) each.
     *  Read counts through this before sizing a container by them. */
    std::uint32_t count(std::size_t record_bytes);
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    Word word();

    std::size_t remaining() const { return size_ - pos_; }
    std::size_t position() const { return pos_; }

  private:
    void need(std::size_t n);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Ordinal sentinel for a null message handle. */
inline constexpr std::uint32_t kNullOrdinal = 0xFFFFFFFFu;

/**
 * Two-way message-identity map. Saving assigns each live message a
 * dense ordinal (toOrdinal); restoring maps the ordinal back to the
 * handle the pool handed out on this side (toHandle). Handles
 * themselves never enter the image.
 */
struct HandleMap
{
    std::unordered_map<MsgHandle, std::uint32_t> toOrdinal;
    std::vector<MsgHandle> toHandle;

    /** Ordinal of a live handle (save path); fatal if unregistered. */
    std::uint32_t ordinalOf(MsgHandle h) const;

    /** Handle for a stored ordinal (restore path); fatal if bad. */
    MsgHandle handleOf(std::uint32_t ordinal) const;
};

/** FNV-1a accumulator for the header's architectural-config digest. */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** One serialized machine image (header + body). */
struct Snapshot
{
    std::vector<std::uint8_t> bytes;

    std::size_t sizeBytes() const { return bytes.size(); }

    /** Write the image to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /** Replace the image with the contents of @p path. */
    bool readFile(const std::string &path);
};

} // namespace ckpt
} // namespace jmsim

#endif // JMSIM_CKPT_SNAPSHOT_HH
