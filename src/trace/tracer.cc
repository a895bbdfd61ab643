#include "trace/tracer.hh"

#include <algorithm>


namespace jmsim
{

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Dispatch: return "dispatch";
      case TraceKind::Suspend: return "suspend";
      case TraceKind::Fault: return "fault";
      case TraceKind::MsgSend: return "msg.send";
      case TraceKind::MsgRecv: return "msg.recv";
      case TraceKind::MsgBounce: return "msg.bounce";
      case TraceKind::QueueDepth: return "queue.depth";
      case TraceKind::FlitForward: return "flit.fwd";
      case TraceKind::FlitBlock: return "flit.blk";
      case TraceKind::IdleSkip: return "idle.skip";
      case TraceKind::NetCombine: return "net.combine";
      default: return "?";
    }
}

bool
traceKindFromName(const std::string &name, TraceKind &out)
{
    for (unsigned k = 0; k < kNumTraceKinds; ++k) {
        if (name == traceKindName(static_cast<TraceKind>(k))) {
            out = static_cast<TraceKind>(k);
            return true;
        }
    }
    return false;
}

bool
parseTraceCategories(const std::string &spec, std::uint32_t &mask)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        if (tok == "all")
            mask |= kTraceCatAll;
        else if (tok == "proc")
            mask |= kTraceCatProc;
        else if (tok == "ni")
            mask |= kTraceCatNi;
        else if (tok == "net")
            mask |= kTraceCatNet;
        else if (tok == "kernel")
            mask |= kTraceCatKernel;
        else if (!tok.empty())
            return false;
        pos = comma + 1;
    }
    return mask != 0;
}

TraceRing::TraceRing(std::uint32_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    // Slot storage is allocated on the first push (see push): a machine
    // built with tracing on but recording nothing should not pay
    // capacity * 32 bytes up front.
}

void
TraceRing::appendTo(std::vector<TraceEvent> &out) const
{
    for (std::uint32_t i = 0; i < count_; ++i) {
        std::uint32_t at = head_ + i;
        if (at >= capacity_)
            at -= capacity_;
        out.push_back(slots_[at]);
    }
}

void
TraceRing::clear()
{
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
}

Tracer::Tracer(const TraceConfig &config)
    : config_(config), ring_(config.ringCapacity)
{
    for (unsigned k = 0; k < kNumTraceKinds; ++k) {
        if (config_.categories & categoryOf(static_cast<TraceKind>(k)))
            kindMask_ |= 1u << k;
    }
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    ring_.appendTo(out);
    // Each (cycle, phase, node) group lies contiguously in the ring, so
    // the stable sort fixes the order no matter which order the kernel
    // stepped the nodes in.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         const unsigned pa = phaseOf(a.kind);
                         const unsigned pb = phaseOf(b.kind);
                         if (pa != pb)
                             return pa < pb;
                         return a.node < b.node;
                     });
    return out;
}

} // namespace jmsim
