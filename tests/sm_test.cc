/**
 * @file
 * Integration tests for the SM model: issue, dataflow, two-level
 * residency, gating interaction, and the paper's Fig. 4 illustration.
 */

#include <gtest/gtest.h>

#include "sim/sm.hh"
#include "workload/synthetic.hh"

namespace wg {
namespace {

SmConfig
baseConfig()
{
    SmConfig cfg;
    cfg.pg.policy = PgPolicy::None;
    return cfg;
}

std::uint64_t
totalInstructions(const std::vector<Program>& programs)
{
    std::uint64_t n = 0;
    for (const auto& p : programs)
        n += p.size();
    return n;
}

TEST(Sm, DrainsSingleWarp)
{
    Sm sm(baseConfig(), {pureProgram(UnitClass::Int, 10)}, 1);
    const SmStats& s = sm.run();
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.issuedTotal, 10u);
    EXPECT_EQ(s.issuedByClass[static_cast<std::size_t>(UnitClass::Int)],
              10u);
    // 10 independent instructions, one warp, one per cycle, then the
    // 4-cycle latency drains.
    EXPECT_GE(s.cycles, 14u);
    EXPECT_LE(s.cycles, 20u);
}

TEST(Sm, ConservationOfInstructions)
{
    auto programs = uniformMixWarps(8, 300, 0.3, 0.2, 0.4);
    std::uint64_t expected = totalInstructions(programs);
    Sm sm(baseConfig(), programs, 2);
    const SmStats& s = sm.run();
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.issuedTotal, expected);
    std::uint64_t by_class = 0;
    for (auto c : s.issuedByClass)
        by_class += c;
    EXPECT_EQ(by_class, expected);
}

TEST(Sm, PureIntNeverTouchesFp)
{
    std::vector<Program> programs(4, pureProgram(UnitClass::Int, 50));
    Sm sm(baseConfig(), programs, 1);
    const SmStats& s = sm.run();
    EXPECT_EQ(s.clusters[1][0].pg.busyCycles, 0u);
    EXPECT_EQ(s.clusters[1][1].pg.busyCycles, 0u);
    EXPECT_GT(s.clusters[0][0].pg.busyCycles, 0u);
    EXPECT_GT(s.clusters[0][1].pg.busyCycles, 0u)
        << "round-robin selection must spread over both clusters";
}

TEST(Sm, ChainProgramSerialises)
{
    // Every instruction depends on the previous one: at 4-cycle ALU
    // latency, 50 instructions need >= ~200 cycles.
    Sm sm(baseConfig(), {chainProgram(UnitClass::Int, 50)}, 1);
    const SmStats& s = sm.run();
    EXPECT_GE(s.cycles, 4u * 49u);
}

TEST(Sm, IpcNeverExceedsIssueWidth)
{
    auto programs = uniformMixWarps(16, 400, 0.4, 0.1, 0.2);
    Sm sm(baseConfig(), programs, 3);
    const SmStats& s = sm.run();
    double ipc = static_cast<double>(s.issuedTotal) /
                 static_cast<double>(s.cycles);
    EXPECT_LE(ipc, 2.0);
    EXPECT_GT(ipc, 0.1);
}

TEST(Sm, ActiveSetCapacityRespected)
{
    SmConfig cfg = baseConfig();
    cfg.activeSetCapacity = 8;
    std::vector<Program> programs(32, pureProgram(UnitClass::Int, 50));
    Sm sm(cfg, programs, 1);
    const SmStats& s = sm.run();
    EXPECT_LE(s.activeSizeMax, 8u);
    EXPECT_TRUE(s.completed);
}

TEST(Sm, MissLoadsDemoteWarpsToPending)
{
    // All loads miss: the active set must shrink below the warp count
    // while data is outstanding.
    auto programs = uniformMixWarps(16, 200, 0.2, 0.4, 1.0);
    Sm sm(baseConfig(), programs, 4);
    const SmStats& s = sm.run();
    EXPECT_GT(s.memMisses, 0u);
    EXPECT_LT(s.avgActiveWarps(), 15.0)
        << "pending demotion must depress the average active count";
    EXPECT_TRUE(s.completed);
}

TEST(Sm, BlockedLdstSkipKeepsRejectTally)
{
    // One MSHR. Cycle 0: w0's miss takes it (and the LD/ST port).
    // Cycle 1, candidates in LRI order w1..w5: w1's miss is refused
    // for MSHR capacity (1 reject); w2's store still issues and takes
    // the port; w3 and w5 (the other parity) then fail on the port and
    // count no reject; w4 shares the store's parity and is never
    // tried. Cycle 2: the port is free again and all four remaining
    // misses are refused. These are the stepped counts of trying every
    // candidate; the per-cycle LD/ST skip must reproduce them.
    SmConfig cfg = baseConfig();
    cfg.mem.mshrLimit = 1;
    std::vector<Program> programs;
    programs.push_back(Program({makeLoad(0, MemClass::Miss)}));
    programs.push_back(Program({makeLoad(0, MemClass::Miss)}));
    programs.push_back(Program({makeStore(MemClass::Hit, 1)}));
    for (int i = 0; i < 3; ++i)
        programs.push_back(Program({makeLoad(0, MemClass::Miss)}));

    trace::Recorder rec(0, 1024);
    Sm sm(cfg, programs, 1, &rec);
    const std::uint64_t expected[] = {0, 1, 5, 9};
    for (std::uint64_t want : expected) {
        sm.step();
        EXPECT_EQ(sm.memory().mshrRejects(), want)
            << "after cycle " << sm.now() - 1;
    }
    EXPECT_EQ(sm.stats().issuedTotal, 2u);

    // One mshr-reject event per rejecting cycle, carrying its count.
    std::vector<std::pair<Cycle, std::uint32_t>> rejects;
    rec.forEach([&](const trace::Event& e) {
        if (e.kind == trace::EventKind::MshrReject)
            rejects.emplace_back(e.cycle, e.value);
    });
    const std::vector<std::pair<Cycle, std::uint32_t>> want_events = {
        {1, 1}, {2, 4}, {3, 4}};
    EXPECT_EQ(rejects, want_events);

    // The whole run, stepped and fast-forwarded, keeps the tally
    // (4072 is what trying every candidate counts for this workload).
    Sm stepped(cfg, programs, 1);
    while (!stepped.step()) {
    }
    Sm run(cfg, programs, 1);
    EXPECT_EQ(run.run().mshrRejects, stepped.stats().mshrRejects);
    EXPECT_EQ(stepped.stats().mshrRejects, 4072u);
}

TEST(Sm, DeterministicAcrossRuns)
{
    auto programs = uniformMixWarps(8, 300, 0.3, 0.25, 0.5);
    SmConfig cfg = baseConfig();
    cfg.pg.policy = PgPolicy::CoordinatedBlackout;
    cfg.scheduler = SchedulerPolicy::Gates;
    Sm a(cfg, programs, 7);
    Sm b(cfg, programs, 7);
    const SmStats& sa = a.run();
    const SmStats& sb = b.run();
    EXPECT_EQ(sa.cycles, sb.cycles);
    EXPECT_EQ(sa.issuedTotal, sb.issuedTotal);
    EXPECT_EQ(sa.clusters[0][0].pg.gatingEvents,
              sb.clusters[0][0].pg.gatingEvents);
    EXPECT_EQ(sa.clusters[1][1].pg.wakeups,
              sb.clusters[1][1].pg.wakeups);
}

TEST(Sm, CopiedProgramsShareStorage)
{
    const auto programs = uniformMixWarps(8, 300, 0.3, 0.25, 0.5);
    std::vector<Program> copy = programs;
    Sm sm(baseConfig(), copy, 7);
    ASSERT_EQ(sm.numWarps(), programs.size());
    for (WarpId w = 0; w < sm.numWarps(); ++w)
        EXPECT_EQ(sm.warps().programData(w),
                  programs[w].instructions().data())
            << "warp " << w << " fetches from a private copy";
}

TEST(Sm, MaxCyclesStopsRunaway)
{
    SmConfig cfg = baseConfig();
    cfg.maxCycles = 50;
    std::vector<Program> programs(4, pureProgram(UnitClass::Int, 10000));
    Sm sm(cfg, programs, 1);
    const SmStats& s = sm.run();
    EXPECT_FALSE(s.completed);
    EXPECT_EQ(s.cycles, 50u);
}

TEST(Sm, AllWarpsFinishedAfterRun)
{
    auto programs = uniformMixWarps(6, 100, 0.3, 0.2, 0.5);
    Sm sm(baseConfig(), programs, 9);
    sm.run();
    for (WarpId w = 0; w < sm.numWarps(); ++w)
        EXPECT_EQ(sm.warpLoc(w), WarpLoc::Finished) << "warp " << w;
}

TEST(Sm, BlackoutNeverWakesUncompensated)
{
    auto programs = uniformMixWarps(16, 500, 0.35, 0.2, 0.5);
    for (PgPolicy policy :
         {PgPolicy::NaiveBlackout, PgPolicy::CoordinatedBlackout}) {
        SmConfig cfg = baseConfig();
        cfg.scheduler = SchedulerPolicy::Gates;
        cfg.pg.policy = policy;
        Sm sm(cfg, programs, 5);
        const SmStats& s = sm.run();
        std::uint64_t gating = 0;
        for (unsigned t = 0; t < 2; ++t) {
            for (unsigned c = 0; c < 2; ++c) {
                EXPECT_EQ(s.clusters[t][c].pg.uncompWakeups, 0u)
                    << pgPolicyName(policy);
                gating += s.clusters[t][c].pg.gatingEvents;
            }
        }
        EXPECT_GT(gating, 0u) << "the workload must actually gate";
    }
}

TEST(Sm, ConventionalDoesWakeUncompensated)
{
    auto programs = uniformMixWarps(16, 500, 0.35, 0.2, 0.5);
    SmConfig cfg = baseConfig();
    cfg.pg.policy = PgPolicy::Conventional;
    Sm sm(cfg, programs, 5);
    const SmStats& s = sm.run();
    std::uint64_t uncomp = 0;
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < 2; ++c)
            uncomp += s.clusters[t][c].pg.uncompWakeups;
    EXPECT_GT(uncomp, 0u)
        << "interleaved types make early wakeups inevitable";
}

TEST(Sm, GatedCyclesRequireGatingPolicy)
{
    auto programs = uniformMixWarps(8, 300, 0.3, 0.2, 0.5);
    Sm sm(baseConfig(), programs, 5);
    const SmStats& s = sm.run();
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < 2; ++c)
            EXPECT_EQ(s.clusters[t][c].pg.gatedCycles(), 0u);
}

TEST(Sm, CycleAccountingPerCluster)
{
    auto programs = uniformMixWarps(8, 300, 0.3, 0.2, 0.5);
    SmConfig cfg = baseConfig();
    cfg.pg.policy = PgPolicy::Conventional;
    Sm sm(cfg, programs, 5);
    const SmStats& s = sm.run();
    for (unsigned t = 0; t < 2; ++t) {
        for (unsigned c = 0; c < 2; ++c) {
            const PgDomainStats& pg = s.clusters[t][c].pg;
            EXPECT_EQ(pg.busyCycles + pg.idleOnCycles + pg.uncompCycles +
                          pg.compCycles + pg.wakeupCycles,
                      s.cycles)
                << "type " << t << " cluster " << c;
        }
    }
}

/**
 * The paper's Fig. 4: twelve single-instruction warps (8 INT, 4 FP) in
 * the order INT INT FP INT FP INT INT INT INT FP FP INT, issue width 1.
 * The two-level scheduler interleaves the types; GATES issues all INT
 * instructions first, giving the FP pipeline one long leading idle
 * period instead of scattered bubbles.
 */
Cycle
firstFpBusyCycle(SchedulerPolicy policy)
{
    SmConfig cfg;
    cfg.pg.policy = PgPolicy::None;
    cfg.scheduler = policy;
    cfg.issueWidth = 1;
    Sm sm(cfg, fig4Warps(), 1);
    Cycle first_busy = kNeverCycle;
    while (!sm.done()) {
        sm.step();
        if (first_busy == kNeverCycle &&
            (sm.fpCluster(0).busy() || sm.fpCluster(1).busy()))
            first_busy = sm.now() - 1;
    }
    return first_busy;
}

TEST(Sm, Fig4GatesCoalescesInstructionTypes)
{
    Cycle twolevel = firstFpBusyCycle(SchedulerPolicy::TwoLevel);
    Cycle gates = firstFpBusyCycle(SchedulerPolicy::Gates);
    EXPECT_LE(twolevel, 3u)
        << "two-level issues the first FP within the first few cycles";
    EXPECT_GE(gates, 8u)
        << "GATES must issue all eight INT instructions first";
}

TEST(Sm, Fig4FewerFpIdlePeriodsUnderGates)
{
    auto run = [](SchedulerPolicy policy) {
        SmConfig cfg;
        cfg.pg.policy = PgPolicy::None;
        cfg.scheduler = policy;
        cfg.issueWidth = 1;
        Sm sm(cfg, fig4Warps(), 1);
        sm.run();
        return sm.stats().clusters[1][0].idleHist.total() +
               sm.stats().clusters[1][1].idleHist.total();
    };
    EXPECT_LT(run(SchedulerPolicy::Gates),
              run(SchedulerPolicy::TwoLevel))
        << "coalescing removes isolated pipeline bubbles";
}

TEST(Sm, PrioritySwitchesHappenUnderGates)
{
    auto programs = uniformMixWarps(16, 400, 0.4, 0.2, 0.4);
    SmConfig cfg = baseConfig();
    cfg.scheduler = SchedulerPolicy::Gates;
    Sm sm(cfg, programs, 3);
    const SmStats& s = sm.run();
    EXPECT_GT(s.prioritySwitches, 0u);
}

TEST(Sm, TwoLevelNeverSwitchesPriority)
{
    auto programs = uniformMixWarps(16, 400, 0.4, 0.2, 0.4);
    Sm sm(baseConfig(), programs, 3);
    const SmStats& s = sm.run();
    EXPECT_EQ(s.prioritySwitches, 0u);
}

TEST(Sm, DepthOneIbufferIssuesEveryInstruction)
{
    // Depth-1 buffers make every issue empty the ring: the regression
    // shape for the commitIssue head-aliasing bug, where post-issue
    // bookkeeping read the popped slot. Classes must still be counted
    // against the instruction that actually issued.
    SmConfig cfg = baseConfig();
    cfg.ibufferDepth = 1;
    cfg.scheduler = SchedulerPolicy::Gates;
    Sm sm(cfg, {alternatingProgram(40), alternatingProgram(40)}, 3);
    const SmStats& s = sm.run();
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.issuedTotal, 80u);
    EXPECT_EQ(s.issuedByClass[static_cast<std::size_t>(UnitClass::Int)],
              40u);
    EXPECT_EQ(s.issuedByClass[static_cast<std::size_t>(UnitClass::Fp)],
              40u);
}

/** Warp counts at mask boundaries: 1, half-word, 48, full 64-bit word. */
class SmWarpCount : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SmWarpCount, BoundaryWarpCountsDrain)
{
    const std::size_t warps = GetParam();
    SmConfig cfg = baseConfig();
    cfg.scheduler = SchedulerPolicy::Gates;
    cfg.pg.policy = PgPolicy::CoordinatedBlackout;
    auto programs = uniformMixWarps(warps, 60, 0.3, 0.2, 0.4);
    Sm sm(cfg, programs, 13);
    const SmStats& s = sm.run();
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.issuedTotal, totalInstructions(programs));
    for (WarpId w = 0; w < warps; ++w)
        EXPECT_EQ(sm.warpLoc(w), WarpLoc::Finished) << "warp " << w;
}

INSTANTIATE_TEST_SUITE_P(MaskBoundaries, SmWarpCount,
                         ::testing::Values(1u, 32u, 48u, 64u));

TEST(SmDeath, NoWarpsIsFatal)
{
    EXPECT_EXIT(Sm(baseConfig(), {}, 1), ::testing::ExitedWithCode(1),
                "no warps");
}

TEST(SmDeath, ZeroIssueWidthIsFatal)
{
    SmConfig cfg = baseConfig();
    cfg.issueWidth = 0;
    EXPECT_EXIT(Sm(cfg, {pureProgram(UnitClass::Int, 1)}, 1),
                ::testing::ExitedWithCode(1), "issue width");
}

TEST(SmDeath, TooManyWarpsIsFatal)
{
    std::vector<Program> programs(kMaxWarpsPerSm + 1,
                                  pureProgram(UnitClass::Int, 1));
    EXPECT_EXIT(Sm(baseConfig(), programs, 1),
                ::testing::ExitedWithCode(1), "bitmask capacity");
}

TEST(SmDeath, ZeroIbufferDepthIsFatal)
{
    SmConfig cfg = baseConfig();
    cfg.ibufferDepth = 0;
    EXPECT_EXIT(Sm(cfg, {pureProgram(UnitClass::Int, 1)}, 1),
                ::testing::ExitedWithCode(1), "i-buffer depth");
}

/** Property: every policy/scheduler combination drains every workload. */
class SmMatrix
    : public ::testing::TestWithParam<std::pair<SchedulerPolicy, PgPolicy>>
{
};

TEST_P(SmMatrix, WorkloadAlwaysDrains)
{
    auto [sched, pg] = GetParam();
    SmConfig cfg;
    cfg.scheduler = sched;
    cfg.pg.policy = pg;
    cfg.pg.adaptiveIdleDetect = pg == PgPolicy::CoordinatedBlackout;
    auto programs = uniformMixWarps(12, 300, 0.35, 0.25, 0.6);
    Sm sm(cfg, programs, 11);
    const SmStats& s = sm.run();
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.issuedTotal, totalInstructions(programs));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SmMatrix,
    ::testing::Values(
        std::make_pair(SchedulerPolicy::TwoLevel, PgPolicy::None),
        std::make_pair(SchedulerPolicy::TwoLevel, PgPolicy::Conventional),
        std::make_pair(SchedulerPolicy::Gates, PgPolicy::Conventional),
        std::make_pair(SchedulerPolicy::Gates, PgPolicy::NaiveBlackout),
        std::make_pair(SchedulerPolicy::Gates,
                       PgPolicy::CoordinatedBlackout),
        std::make_pair(SchedulerPolicy::TwoLevel,
                       PgPolicy::NaiveBlackout)));

} // namespace
} // namespace wg
