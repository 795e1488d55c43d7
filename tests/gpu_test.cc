/**
 * @file
 * Integration tests for the multi-SM GPU driver and result
 * aggregation.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/gpu.hh"
#include "workload/synthetic.hh"

namespace wg {
namespace {

GpuConfig
smallConfig(unsigned sms, Technique t = Technique::ConvPG)
{
    ExperimentOptions opts;
    opts.numSms = sms;
    GpuConfig cfg = makeConfig(t, opts);
    return cfg;
}

BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 300;
    p.residentWarps = 16;
    return p;
}

TEST(Gpu, AggregatesAcrossSms)
{
    Gpu gpu(smallConfig(4));
    SimResult r = gpu.run(tinyProfile());
    ASSERT_EQ(r.smCycles.size(), 4u);
    Cycle max_cycles = 0;
    std::uint64_t sum = 0;
    for (Cycle c : r.smCycles) {
        max_cycles = std::max(max_cycles, c);
        sum += c;
    }
    EXPECT_EQ(r.cycles, max_cycles);
    EXPECT_EQ(r.totalSmCycles, sum);
    EXPECT_EQ(r.aggregate.cycles, sum);
    EXPECT_TRUE(r.aggregate.completed);
}

TEST(Gpu, InstructionTotalsScaleWithSms)
{
    BenchmarkProfile p = tinyProfile();
    Gpu one(smallConfig(1));
    Gpu four(smallConfig(4));
    SimResult r1 = one.run(p);
    SimResult r4 = four.run(p);
    // Different SMs get different programs but the same shape: totals
    // should scale roughly 4x.
    EXPECT_NEAR(static_cast<double>(r4.aggregate.issuedTotal),
                4.0 * static_cast<double>(r1.aggregate.issuedTotal),
                0.25 * static_cast<double>(r4.aggregate.issuedTotal));
}

TEST(Gpu, DeterministicDespiteThreads)
{
    Gpu gpu(smallConfig(6, Technique::WarpedGates));
    BenchmarkProfile p = tinyProfile();
    SimResult a = gpu.run(p);
    SimResult b = gpu.run(p);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalSmCycles, b.totalSmCycles);
    EXPECT_EQ(a.aggregate.issuedTotal, b.aggregate.issuedTotal);
    EXPECT_EQ(a.wakeups(UnitClass::Int), b.wakeups(UnitClass::Int));
    EXPECT_DOUBLE_EQ(a.intEnergy.total(), b.intEnergy.total());
}

TEST(Gpu, EnergyLedgersPopulated)
{
    Gpu gpu(smallConfig(2));
    SimResult r = gpu.run(tinyProfile());
    EXPECT_GT(r.intEnergy.staticNoPg, 0.0);
    EXPECT_GT(r.fpEnergy.staticNoPg, 0.0);
    EXPECT_GT(r.intEnergy.dynamicE, 0.0);
    EXPECT_GT(r.sfuEnergy.staticE, 0.0);
    EXPECT_GT(r.ldstEnergy.dynamicE, 0.0);
}

TEST(Gpu, EnergyConservationAggregated)
{
    Gpu gpu(smallConfig(3));
    SimResult r = gpu.run(tinyProfile());
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        const UnitEnergy& e = r.energy(uc);
        EXPECT_NEAR(e.staticE + e.staticSaved, e.staticNoPg,
                    1e-9 * e.staticNoPg)
            << unitClassName(uc);
    }
}

TEST(Gpu, IdleHistogramsMergedPerType)
{
    Gpu gpu(smallConfig(2));
    SimResult r = gpu.run(tinyProfile());
    std::uint64_t per_cluster =
        r.aggregate.clusters[0][0].idleHist.total() +
        r.aggregate.clusters[0][1].idleHist.total();
    EXPECT_EQ(r.intIdleHist.total(), per_cluster);
    EXPECT_GT(r.intIdleHist.total(), 0u);
}

TEST(Gpu, RunProgramsOverridesSmCount)
{
    Gpu gpu(smallConfig(8));
    std::vector<std::vector<Program>> per_sm(2);
    per_sm[0] = {pureProgram(UnitClass::Int, 100)};
    per_sm[1] = {pureProgram(UnitClass::Fp, 100)};
    SimResult r = gpu.runPrograms(per_sm);
    EXPECT_EQ(r.smCycles.size(), 2u);
    EXPECT_EQ(
        r.aggregate.issuedByClass[static_cast<std::size_t>(UnitClass::Int)],
        100u);
    EXPECT_EQ(
        r.aggregate.issuedByClass[static_cast<std::size_t>(UnitClass::Fp)],
        100u);
}

TEST(Gpu, SmsSharingOneProgramPooledMatchesSerial)
{
    // Every SM reads the same instruction storage; under the pool the
    // SMs fetch from it concurrently (a TSan target).
    Gpu gpu(smallConfig(4));
    const std::vector<Program> warps =
        uniformMixWarps(8, 400, 0.3, 0.25, 0.5);
    const std::vector<std::vector<Program>> per_sm(4, warps);
    SimResult pooled = gpu.runPrograms(per_sm);
    SimResult serial = gpu.runPrograms(per_sm, nullptr);
    EXPECT_EQ(pooled.aggregate, serial.aggregate);
    std::uint64_t per_warp_set = 0;
    for (const Program& p : warps)
        per_warp_set += p.size();
    EXPECT_EQ(pooled.aggregate.issuedTotal, 4 * per_warp_set);
}

TEST(Gpu, DerivedMetricsInRange)
{
    Gpu gpu(smallConfig(2));
    SimResult r = gpu.run(tinyProfile());
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        EXPECT_GE(r.idleFraction(uc), 0.0);
        EXPECT_LE(r.idleFraction(uc), 1.0);
        auto regions = r.idleRegions(uc, 5, 14);
        EXPECT_NEAR(regions[0] + regions[1] + regions[2], 1.0, 1e-9);
    }
    EXPECT_GT(r.ipc(), 0.0);
}

TEST(GpuDeath, ZeroSmsIsFatal)
{
    GpuConfig cfg = smallConfig(1);
    cfg.numSms = 0;
    EXPECT_EXIT(Gpu{cfg}, ::testing::ExitedWithCode(1), "numSms");
}

TEST(GpuDeath, EmptyWorkloadIsFatal)
{
    Gpu gpu(smallConfig(1));
    EXPECT_EXIT(gpu.runPrograms({}), ::testing::ExitedWithCode(1),
                "no SM workloads");
}

} // namespace
} // namespace wg
