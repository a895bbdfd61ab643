#include "sim/run_result_json.hh"

#include <cstdio>

namespace jmsim
{

std::string
runRowJson(const RunRow &row)
{
    // Fixed field order; see the header. host_perf's readBaseline()
    // sscanf-parses the leading prefix of exactly this layout.
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"nodes\": %u, \"threads\": %u, "
        "\"host_seconds\": %.6f, \"sim_cycles\": %llu, "
        "\"sim_instructions\": %llu, \"instr_per_host_sec\": %.1f, "
        "\"speedup_vs_serial\": %.3f, "
        "\"node_sec\": %.6f, \"net_sec\": %.6f, \"commit_sec\": %.6f, "
        "\"pool_live_high_water\": %llu, \"pool_allocs\": %llu, "
        "\"pool_recycled\": %llu, \"footprint_bytes\": %llu, "
        "\"peak_rss_bytes\": %llu, \"boot_sec\": %.6f, "
        "\"netops_sec\": %.6f}",
        row.workload.c_str(), row.nodes, row.threads, row.hostSeconds,
        static_cast<unsigned long long>(row.simCycles),
        static_cast<unsigned long long>(row.simInstructions),
        row.instrPerHostSec(), row.speedup, row.nodeSec, row.netSec,
        row.commitSec,
        static_cast<unsigned long long>(row.poolLiveHighWater),
        static_cast<unsigned long long>(row.poolAllocs),
        static_cast<unsigned long long>(row.poolRecycled),
        static_cast<unsigned long long>(row.footprintBytes),
        static_cast<unsigned long long>(row.peakRssBytes), row.bootSec,
        row.netopsSec);
    return std::string(buf);
}

} // namespace jmsim
