/**
 * @file
 * The event tracer: one ring buffer of POD TraceEvents.
 *
 * A ring that fills up overwrites its oldest records and counts the
 * drops — tracing never stalls or aborts a run.
 *
 * collect() orders the ring into the canonical stream with a stable
 * sort on (cycle, phase, node). Each such group of events lands
 * contiguously in the ring (see trace_event.hh), so the stream does not
 * depend on the order the kernel stepped nodes in, as long as the ring
 * dropped nothing; with drops the stream is still valid but the
 * determinism guarantee is waived (the drop counter says so).
 *
 * Compile-time off switch: building with -DJMSIM_TRACE_COMPILED_IN=0
 * folds every tap away entirely. The default build keeps them as a
 * null-pointer test on the component's tracer pointer, which is the
 * tracing-disabled fast path.
 */

#ifndef JMSIM_TRACE_TRACER_HH
#define JMSIM_TRACE_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_event.hh"

#ifndef JMSIM_TRACE_COMPILED_IN
#define JMSIM_TRACE_COMPILED_IN 1
#endif

namespace jmsim
{

/** True when the tap sites are compiled in at all. */
inline constexpr bool kTraceCompiledIn = JMSIM_TRACE_COMPILED_IN != 0;

/** Everything configurable about tracing a machine. */
struct TraceConfig
{
    bool enabled = false;
    /** Bitmask of kTraceCat* category bits to record. */
    std::uint32_t categories = kTraceCatAll;
    /** Ring capacity in events. */
    std::uint32_t ringCapacity = 1u << 20;
    /** Chrome-trace JSON written here by JMachine::exportTrace() (and
     *  automatically at machine destruction); empty = no file. */
    std::string outPath;
};

/** Fixed-capacity overwrite-oldest ring of trace events. */
class TraceRing
{
  public:
    explicit TraceRing(std::uint32_t capacity);

    void
    push(const TraceEvent &ev)
    {
        if (slots_.empty())
            slots_.resize(capacity_);  // first event: back the ring
        if (count_ == capacity_) {
            slots_[head_] = ev;
            head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
            dropped_ += 1;
            return;
        }
        std::uint32_t at = head_ + count_;
        if (at >= capacity_)
            at -= capacity_;
        slots_[at] = ev;
        count_ += 1;
    }

    std::uint32_t size() const { return count_; }
    std::uint32_t capacity() const { return capacity_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Heap bytes behind this ring (zero until the first push). */
    std::uint64_t
    footprintBytes() const
    {
        return slots_.capacity() * sizeof(TraceEvent);
    }

    /** Append the buffered events, oldest first. */
    void appendTo(std::vector<TraceEvent> &out) const;

    void clear();

  private:
    std::uint32_t capacity_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> slots_;
};

/** One machine's tracer. Components hold a Tracer* (null = off). */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &config);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const TraceConfig &config() const { return config_; }

    /** Is this kind's category enabled? Tap sites test this before
     *  computing payloads. */
    bool
    wants(TraceKind kind) const
    {
        return (kindMask_ >> static_cast<unsigned>(kind)) & 1u;
    }

    /** Record one event. */
    void record(const TraceEvent &ev) { ring_.push(ev); }

    /** The ring in canonical (cycle, phase, node) order.
     *  Non-destructive: the ring keeps its contents. */
    std::vector<TraceEvent> collect() const;

    /** Events lost to ring overwrites. */
    std::uint64_t dropped() const { return ring_.dropped(); }

    /** Heap bytes behind the ring (it allocates lazily). */
    std::uint64_t footprintBytes() const { return ring_.footprintBytes(); }

  private:
    TraceConfig config_;
    std::uint32_t kindMask_ = 0;  ///< bit per TraceKind
    TraceRing ring_;
};

} // namespace jmsim

#endif // JMSIM_TRACE_TRACER_HH
