/**
 * @file
 * Tests for superblock discovery and span execution: run-length
 * boundaries at stop-flagged ops, optimistic narrowing at kStopOpt
 * ops, spin-loop discovery, and bit-exact A/B parity between span
 * execution and the per-op interpreter on compute, translation, and
 * message-driven workloads.
 */

#include <gtest/gtest.h>

#include "jasm/assembler.hh"
#include "machine/jmachine.hh"
#include "mem/memory.hh"
#include "runtime/jos.hh"

namespace jmsim
{
namespace
{

Program
makeProgram(const std::string &app)
{
    Program prog = assemble(jos::withKernel("superblock.jasm", app, false));
    prog.predecode(kEmemBase);
    return prog;
}

JMachine
makeMachine(unsigned nodes, const std::string &app, bool superblock)
{
    Program prog = assemble(jos::withKernel("superblock.jasm", app, false));
    MachineConfig cfg;
    cfg.dims = MeshDims::forNodeCount(nodes);
    cfg.proc.superblock = superblock;
    return JMachine(cfg, std::move(prog));
}

std::vector<std::int32_t>
outInts(const JMachine &m, NodeId id = 0)
{
    std::vector<std::int32_t> out;
    for (const Word &w : m.node(id).processor().hostOut())
        out.push_back(w.asInt());
    return out;
}

/** Full-stat equality: span execution must be invisible to the model. */
void
expectIdentical(JMachine &a, JMachine &b, Cycle max_cycles)
{
    const RunResult ra = a.run(max_cycles);
    const RunResult rb = b.run(max_cycles);
    EXPECT_EQ(ra.reason, rb.reason);
    EXPECT_EQ(ra.cycles, rb.cycles);
    const ProcessorStats sa = a.aggregateStats();
    const ProcessorStats sb_ = b.aggregateStats();
    EXPECT_EQ(sa.instructions, sb_.instructions);
    EXPECT_EQ(sa.instructionsOs, sb_.instructionsOs);
    EXPECT_EQ(sa.dispatches, sb_.dispatches);
    EXPECT_EQ(sa.suspends, sb_.suspends);
    EXPECT_EQ(sa.runCycles, sb_.runCycles);
    EXPECT_EQ(sa.queueStallCycles, sb_.queueStallCycles);
    EXPECT_EQ(sa.segCacheHits, sb_.segCacheHits);
    EXPECT_EQ(sa.segCacheMisses, sb_.segCacheMisses);
    EXPECT_EQ(sa.xlateCacheHits, sb_.xlateCacheHits);
    EXPECT_EQ(sa.xlateCacheMisses, sb_.xlateCacheMisses);
    for (std::size_t c = 0; c < sa.cyclesByClass.size(); ++c)
        EXPECT_EQ(sa.cyclesByClass[c], sb_.cyclesByClass[c]) << "class " << c;
    for (std::size_t f = 0; f < kNumFaults; ++f)
        EXPECT_EQ(sa.faults[f], sb_.faults[f]) << "fault " << f;
    EXPECT_EQ(a.network().stats().messagesDelivered,
              b.network().stats().messagesDelivered);
    EXPECT_EQ(a.network().stats().wordsDelivered,
              b.network().stats().wordsDelivered);
    for (NodeId id = 0; id < a.nodeCount(); ++id)
        EXPECT_EQ(outInts(a, id), outInts(b, id)) << "node " << id;
}

// ---- discovery ----

TEST(Discovery, RunEndsBeforeSendAndSendCannotStartASpan)
{
    Program prog = makeProgram(R"(
boot:
    MOVEI R0, 1
    ADDI R0, R0, #2
    GETSP R1, NNR
    SEND0 R1
    HALT
)");
    const IAddr boot = prog.entry("boot");
    const SuperBlockInfo info = prog.superblockAt(boot);
    // MOVEI, ADDI, GETSP fuse; the SEND publishes flits the same cycle
    // and must run on the architectural clock edge.
    EXPECT_EQ(info.safeLen, 3u);
    EXPECT_EQ(info.optLen, 3u);
    EXPECT_FALSE(info.endsInBranch);

    IAddr ip = boot;
    for (unsigned n = 0; n < 3; ++n)
        ip = prog.decodedOps()[ip].nextIp;
    const SuperBlockInfo at_send = prog.superblockAt(ip);
    EXPECT_EQ(at_send.safeLen, 0u);
    EXPECT_EQ(at_send.optLen, 0u);
}

TEST(Discovery, BranchEndsTheBlockButExecutesInside)
{
    Program prog = makeProgram(R"(
boot:
    MOVEI R0, 0
    MOVEI R1, 3
    BR out
    NOP
out:
    HALT
)");
    const SuperBlockInfo info = prog.superblockAt(prog.entry("boot"));
    EXPECT_EQ(info.safeLen, 3u);  // MOVEI, MOVEI, BR
    EXPECT_TRUE(info.endsInBranch);
}

TEST(Discovery, OptimisticSpansStopAtTranslationOps)
{
    Program prog = makeProgram(R"(
boot:
    MOVEI R0, 42
    MOVEI R1, 1
    ENTER R0, R1
    XLATE R2, R0
    MOVEI R3, 9
    HALT
)");
    const SuperBlockInfo info = prog.superblockAt(prog.entry("boot"));
    // Safe/exclusive spans run through ENTER/XLATE up to the HALT;
    // optimistic (rollback-capable) spans cannot undo translation-table
    // mutations and stop before ENTER.
    EXPECT_EQ(info.safeLen, 5u);
    EXPECT_EQ(info.optLen, 2u);
}

TEST(Discovery, SpinLoopClosingBranchCarriesItsHead)
{
    Program prog = makeProgram(R"(
boot:
    MOVEI R0, 0
wait:
    EQI R1, R0, #1
    BF R1, wait
    HALT
)");
    const IAddr head = prog.entry("wait");
    // The closing BF sits one op past the EQI.
    const IAddr branch = prog.decodedOps()[head].nextIp;
    ASSERT_LT(branch, prog.spinHeads().size());
    EXPECT_EQ(prog.spinHeads()[branch], head);
}

TEST(Discovery, LoopsWithSideEffectsAreNotSpins)
{
    Program prog = makeProgram(R"(
.equ BUF, 256
boot:
    LDL A0, seg(BUF, 16)
    MOVEI R0, 50
loop:
    ST [A0+0], R0
    ADDI R0, R0, #-1
    GTI R1, R0, #0
    BT R1, loop
    HALT
)");
    // The ST publishes memory other threads (and rollback) observe:
    // the closing BT must not be marked as a busy-wait.
    const IAddr head = prog.entry("loop");
    IAddr ip = head;
    while (static_cast<Opcode>(prog.decodedOps()[ip].handler) != Opcode::Bt)
        ip = prog.decodedOps()[ip].nextIp;
    EXPECT_EQ(prog.spinHeads()[ip], Program::kNoSpinHead);
}

// ---- execution parity (superblocks on vs off) ----

TEST(Parity, ComputeLoopIsBitIdentical)
{
    const std::string app = R"(
.equ EBUF, 65536
boot:
    LDL A0, seg(EBUF, 16)
    MOVEI R0, 50
    MOVEI R3, 0
loop:
    ST [A0+1], R0
    LD R1, [A0+1]
    ADD R3, R3, R1
    ADDI R0, R0, #-1
    GTI R2, R0, #0
    BT R2, loop
    OUT R3
    HALT
)";
    JMachine on = makeMachine(1, app, true);
    JMachine off = makeMachine(1, app, false);
    expectIdentical(on, off, 100000);
    ASSERT_EQ(outInts(on).size(), 1u);
    EXPECT_EQ(outInts(on)[0], 1275);
}

TEST(Parity, TranslationCachesAreBitIdentical)
{
    const std::string app = R"(
boot:
    MOVEI R0, 42
    MOVEI R1, 1
    ENTER R0, R1
    XLATE R2, R0
    OUT R2
    XLATE R2, R0
    OUT R2
    MOVEI R1, 2
    ENTER R0, R1
    XLATE R2, R0
    OUT R2
    HALT
)";
    JMachine on = makeMachine(1, app, true);
    JMachine off = makeMachine(1, app, false);
    expectIdentical(on, off, 100000);
    const XlateStats &xs = on.node(0).processor().xlate().stats();
    EXPECT_EQ(xs.lookups, 3u);
}

TEST(Parity, MessagePingWithSpinWaitIsBitIdentical)
{
    // Node 0 pings node 1 in a loop and busy-waits on an ack flag: the
    // wait loop is a discovered spin (fast-forwarded inside spans), and
    // each ack delivery lands mid-span and must roll the optimistic
    // state back to the exact arrival cycle.
    const std::string app = R"(
boot:
    CALL A2, jos_init
    GETSP R0, NODEID
    NEI R1, R0, #0
    BT R1, worker
    LDL A1, seg(APP_SCRATCH, 64)
    MOVEI R0, 25
    ST [A1+10], R0
main_loop:
    MOVEI R0, 0
    ST [A1+8], R0
    MOVEI R0, 1
    CALL A2, jos_nnr
    SEND0 R0
    LDL R1, hdr(ping_handler, 2)
    GETSP R2, NNR
    SEND20E R1, R2
wait:
    LD R0, [A1+8]
    EQI R0, R0, #0
    BT R0, wait
    LD R0, [A1+10]
    ADDI R0, R0, #-1
    ST [A1+10], R0
    GTI R1, R0, #0
    BT R1, main_loop
    OUT R0
    HALT

worker:
    CALL A2, jos_park

ping_handler:               ; [hdr, replyaddr]
    LD R0, [A3+1]
    SEND0 R0
    LDL R1, hdr(ack_handler, 1)
    SEND0E R1
    SUSPEND

ack_handler:
    LDL A1, seg(APP_SCRATCH, 64)
    MOVEI R0, 1
    ST [A1+8], R0
    SUSPEND
)";
    JMachine on = makeMachine(4, app, true);
    JMachine off = makeMachine(4, app, false);
    expectIdentical(on, off, 200000);
    ASSERT_EQ(outInts(on).size(), 1u);
    EXPECT_EQ(outInts(on)[0], 0);
}

} // namespace
} // namespace jmsim
