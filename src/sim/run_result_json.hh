/**
 * @file
 * The one run-result JSON row schema, shared by every emitter.
 *
 * `bench/host_perf` writes BENCH_host_perf.json sample lines and
 * `tools/jrun_server` streams per-job result lines in exactly this
 * format, so downstream tooling (and host_perf's own rigid baseline
 * parser) reads one schema. Fields are emitted in a fixed order, one
 * object per line; new fields are only ever appended after
 * `peak_rss_bytes` so older prefix parsers keep matching.
 */

#ifndef JMSIM_SIM_RUN_RESULT_JSON_HH
#define JMSIM_SIM_RUN_RESULT_JSON_HH

#include <cstdint>
#include <string>

namespace jmsim
{

/** One emitted row: a workload run's identity, host cost, simulated
 *  work, kernel phase split, pool traffic, and memory marks. */
struct RunRow
{
    std::string workload;
    unsigned nodes = 0;
    unsigned threads = 0;
    double hostSeconds = 0;            ///< wall time inside the run phase
    std::uint64_t simCycles = 0;
    std::uint64_t simInstructions = 0;
    double speedup = 1.0;              ///< vs the row's nosched/cold peer
    double nodeSec = 0;                ///< kernel node-step phase
    double netSec = 0;                 ///< kernel fabric phase
    double commitSec = 0;              ///< legacy fabric commit phase
    std::uint64_t poolLiveHighWater = 0;
    std::uint64_t poolAllocs = 0;
    std::uint64_t poolRecycled = 0;
    std::uint64_t footprintBytes = 0;  ///< audited simulator-state bytes
    /** Process-lifetime peak RSS at sample time — cumulative across
     *  every run the process has done so far, NOT per-run (getrusage
     *  reports a high-water mark that never falls). Rows sampled later
     *  in a process are therefore >= earlier rows. */
    std::uint64_t peakRssBytes = 0;
    /** Host seconds spent booting (assemble, predecode, build, poke)
     *  before the first stepped cycle. Zero for runs that reused a
     *  checkpoint or forked image instead of booting. */
    double bootSec = 0;
    double netopsSec = 0;              ///< kernel netops-engine phase

    double
    instrPerHostSec() const
    {
        return hostSeconds > 0 ? simInstructions / hostSeconds : 0;
    }
};

/** The row as one JSON object (no trailing newline or comma). */
std::string runRowJson(const RunRow &row);

} // namespace jmsim

#endif // JMSIM_SIM_RUN_RESULT_JSON_HH
