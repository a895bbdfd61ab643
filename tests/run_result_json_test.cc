/**
 * @file
 * Golden test for the shared run-result JSON row schema: host_perf's
 * baseline writer, its rigid readBaseline() parser, and jrun_server's
 * streamed job lines all depend on this exact field order and
 * formatting, so the emitted string is pinned character for character.
 */

#include <gtest/gtest.h>

#include "sim/run_result_json.hh"

using namespace jmsim;

TEST(RunResultJson, GoldenRow)
{
    RunRow row;
    row.workload = "radix_sort";
    row.nodes = 64;
    row.threads = 2;
    row.hostSeconds = 0.25;
    row.simCycles = 61436;
    row.simInstructions = 551751;
    row.speedup = 1.5;
    row.nodeSec = 0.125;
    row.netSec = 0.0625;
    row.commitSec = 0.03125;
    row.poolLiveHighWater = 10;
    row.poolAllocs = 7378;
    row.poolRecycled = 7377;
    row.footprintBytes = 2447516;
    row.peakRssBytes = 8572928;
    row.bootSec = 0.015625;
    row.netopsSec = 0.00390625;

    EXPECT_EQ(
        runRowJson(row),
        "{\"workload\": \"radix_sort\", \"nodes\": 64, \"threads\": 2, "
        "\"host_seconds\": 0.250000, \"sim_cycles\": 61436, "
        "\"sim_instructions\": 551751, \"instr_per_host_sec\": 2207004.0, "
        "\"speedup_vs_serial\": 1.500, "
        "\"node_sec\": 0.125000, \"net_sec\": 0.062500, "
        "\"commit_sec\": 0.031250, "
        "\"pool_live_high_water\": 10, \"pool_allocs\": 7378, "
        "\"pool_recycled\": 7377, \"footprint_bytes\": 2447516, "
        "\"peak_rss_bytes\": 8572928, \"boot_sec\": 0.015625, "
        "\"netops_sec\": 0.003906}");
}

TEST(RunResultJson, DefaultsAndZeroRate)
{
    RunRow row;
    row.workload = "sweep_farm";
    EXPECT_EQ(row.instrPerHostSec(), 0.0);
    EXPECT_EQ(
        runRowJson(row),
        "{\"workload\": \"sweep_farm\", \"nodes\": 0, \"threads\": 0, "
        "\"host_seconds\": 0.000000, \"sim_cycles\": 0, "
        "\"sim_instructions\": 0, \"instr_per_host_sec\": 0.0, "
        "\"speedup_vs_serial\": 1.000, "
        "\"node_sec\": 0.000000, \"net_sec\": 0.000000, "
        "\"commit_sec\": 0.000000, "
        "\"pool_live_high_water\": 0, \"pool_allocs\": 0, "
        "\"pool_recycled\": 0, \"footprint_bytes\": 0, "
        "\"peak_rss_bytes\": 0, \"boot_sec\": 0.000000, "
        "\"netops_sec\": 0.000000}");
}
