/**
 * @file
 * POD trace records emitted by the simulator's observability taps.
 *
 * A TraceEvent is 32 bytes of plain data — no strings, no pointers —
 * so recording one is a handful of stores into the tracer's ring buffer
 * (see tracer.hh). Every tap site belongs to exactly one kernel phase
 * (node phase, fabric move phase, or the kernel itself), and within a
 * phase every (cycle, node) group of events is emitted contiguously in
 * a fixed order. The kernel steps nodes in active-list order, not
 * node-id order, so a stable sort on (cycle, phase, node) is what turns
 * the ring into one canonical stream (asserted in tests/trace_test.cc).
 */

#ifndef JMSIM_TRACE_TRACE_EVENT_HH
#define JMSIM_TRACE_TRACE_EVENT_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "sim/types.hh"

namespace jmsim
{

/** What a trace record describes; see the payload table below. */
enum class TraceKind : std::uint8_t
{
    // ---- node phase (processor execution) ----
    Dispatch,     ///< arg8=prio, a0=handler IP, a1=queue message count
    Suspend,      ///< arg8=priority level at suspension
    Fault,        ///< arg8=FaultKind, a0=faulting instruction address
    MsgSend,      ///< arg8=prio, a0=src sequence, a1=(dest<<32)|words
    // ---- fabric move phase ----
    MsgRecv,      ///< arg8=vn, a0=(src<<32)|seq, a1=inject->deliver cycles
    MsgBounce,    ///< arg8=vn, a0=(orig src<<32)|orig seq, a1=return seq
    QueueDepth,   ///< arg8=vn, a0=queue words used, a1=queued messages
    FlitForward,  ///< arg8=output port, a0=(src<<32)|seq, a1=vn
    FlitBlock,    ///< arg8=wanted output port, a0=(src<<32)|seq, a1=input
    // ---- kernel ----
    IdleSkip,     ///< cycle=span start, a0=span end (exclusive)
    NetCombine,   ///< arg8=NetOp, a0=(owner src<<32)|seq, a1=(child src<<32)|seq

    NumKinds,
};

inline constexpr unsigned kNumTraceKinds =
    static_cast<unsigned>(TraceKind::NumKinds);

/** Track id used for machine-level (not per-node) events. */
inline constexpr std::uint32_t kMachineTrack = 0xFFFFFFFFu;

/** Bucket count of the 1-cycle-wide network latency histograms kept by
 *  the fabric and rebuilt by the trace summarizer (they must agree so
 *  the reconstruction comparison is exact). */
inline constexpr std::size_t kLatencyHistBuckets = 1024;

/** One trace record. The pad field is always zero so whole events can
 *  be compared with memcmp. */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint32_t node = 0;      ///< emitting node/router, or kMachineTrack
    TraceKind kind = TraceKind::Dispatch;
    std::uint8_t arg8 = 0;
    std::uint16_t pad = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

inline bool
operator==(const TraceEvent &a, const TraceEvent &b)
{
    return std::memcmp(&a, &b, sizeof(TraceEvent)) == 0;
}

/** Kernel phase a kind is emitted in (the sort key's middle field). */
inline constexpr unsigned
phaseOf(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Dispatch:
      case TraceKind::Suspend:
      case TraceKind::Fault:
      case TraceKind::MsgSend:
        return 0;  // node phase
      case TraceKind::MsgRecv:
      case TraceKind::MsgBounce:
      case TraceKind::QueueDepth:
      case TraceKind::FlitForward:
      case TraceKind::FlitBlock:
        return 1;  // fabric move phase
      default:
        return 2;  // kernel
    }
}

// ---- category filtering (--trace-filter) ----

inline constexpr std::uint32_t kTraceCatProc = 1u << 0;
inline constexpr std::uint32_t kTraceCatNi = 1u << 1;
inline constexpr std::uint32_t kTraceCatNet = 1u << 2;
inline constexpr std::uint32_t kTraceCatKernel = 1u << 3;
inline constexpr std::uint32_t kTraceCatAll =
    kTraceCatProc | kTraceCatNi | kTraceCatNet | kTraceCatKernel;

inline constexpr std::uint32_t
categoryOf(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Dispatch:
      case TraceKind::Suspend:
      case TraceKind::Fault:
        return kTraceCatProc;
      case TraceKind::MsgSend:
      case TraceKind::MsgRecv:
      case TraceKind::MsgBounce:
      case TraceKind::QueueDepth:
        return kTraceCatNi;
      case TraceKind::FlitForward:
      case TraceKind::FlitBlock:
      case TraceKind::NetCombine:
        return kTraceCatNet;
      default:
        return kTraceCatKernel;
    }
}

/** Display name (also the Chrome trace-event "name" field). */
const char *traceKindName(TraceKind kind);

/** Kind for a name from traceKindName(); false if unknown. */
bool traceKindFromName(const std::string &name, TraceKind &out);

/** Parse a comma-separated category list ("proc,ni,net,kernel" or
 *  "all") into a bitmask; false on an unknown token. */
bool parseTraceCategories(const std::string &spec, std::uint32_t &mask);

} // namespace jmsim

#endif // JMSIM_TRACE_TRACE_EVENT_HH
