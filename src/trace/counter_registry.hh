/**
 * @file
 * A machine-wide registry of named counters and histograms.
 *
 * Components register their statistics once at machine build time and
 * every consumer — RunResult, bench/host_perf, the figure benchmarks,
 * jasm_tool — reads them uniformly by name instead of hand-plumbing
 * per-component structs. Registration is pull-based: a source is
 * either a pointer to stable uint64 storage (e.g. a per-node
 * ProcessorStats field inside the machine's node arena) or a callback
 * for values computed on read (e.g. the message pool's live count and
 * carved capacity). Multiple sources under one name sum, which is how
 * 512 nodes aggregate into one `proc.instructions`.
 *
 * Reading happens between cycles; the registry never owns the stats
 * and never resets them.
 */

#ifndef JMSIM_TRACE_COUNTER_REGISTRY_HH
#define JMSIM_TRACE_COUNTER_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace jmsim
{

/** One named value of a registry snapshot. */
struct CounterSample
{
    std::string name;
    std::uint64_t value = 0;
};

/** Named counter/histogram registry for one machine. */
class CounterRegistry
{
  public:
    /** Register a counter backed by stable storage. Same-name sources
     *  sum when read. */
    void addCounter(const std::string &name, const std::uint64_t *source);

    /** Register a counter backed by a reader callback (for values
     *  computed on read, or storage that moves under the registry). */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> reader);

    /** Register a histogram provider; same-name providers merge. */
    void addHistogram(const std::string &name,
                      std::function<Histogram()> provider);

    bool hasCounter(const std::string &name) const;

    /** Sum of every source registered under @p name (fatal if none). */
    std::uint64_t value(const std::string &name) const;

    /** Merge of every histogram provider under @p name (fatal if none). */
    Histogram histogram(const std::string &name) const;

    /** Every counter, name-sorted, summed across sources. */
    std::vector<CounterSample> snapshot() const;

    std::vector<std::string> counterNames() const;
    std::vector<std::string> histogramNames() const;

  private:
    struct Entry
    {
        std::vector<const std::uint64_t *> pointers;
        std::vector<std::function<std::uint64_t()>> readers;
    };

    std::uint64_t sum(const Entry &entry) const;

    std::map<std::string, Entry> counters_;
    std::map<std::string, std::vector<std::function<Histogram()>>>
        histograms_;
};

/** Value of @p name in a snapshot(), or 0 when absent. */
std::uint64_t counterValue(const std::vector<CounterSample> &snapshot,
                           const std::string &name);

} // namespace jmsim

#endif // JMSIM_TRACE_COUNTER_REGISTRY_HH
