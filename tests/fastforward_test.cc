/**
 * @file
 * Locks in the event-horizon fast-forward guarantee: running with
 * SmConfig::fastForward on must produce a SimResult, metrics files and
 * event-trace stream byte-identical to the cycle-by-cycle path — for
 * every technique, across serial and pooled execution, on randomized
 * configurations, and on truncated (maxCycles) runs. Fast-forward is
 * purely a wall-clock optimisation, never a result change.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "sim/gpu.hh"
#include "trace/sink.hh"
#include "workload/generator.hh"

namespace wg {
namespace {

GpuConfig
ffConfig(Technique t, bool fast_forward, unsigned sms = 2)
{
    ExperimentOptions opts;
    opts.numSms = sms;
    GpuConfig config = makeConfig(t, opts);
    config.sm.fastForward = fast_forward;
    return config;
}

BenchmarkProfile
profile(const char* name, int kernel_length = 400, int warps = 16)
{
    BenchmarkProfile p = findBenchmark(name);
    p.kernelLength = kernel_length;
    p.residentWarps = warps;
    return p;
}

/**
 * Run @p profile twice — fast-forward off (reference) and on — and
 * require every observable output to match byte for byte: the core
 * result fields, all three metrics serialisations (with their epoch
 * series), and the JSONL event trace.
 */
void
expectFastForwardIdentical(const GpuConfig& reference_config,
                           const BenchmarkProfile& p,
                           ThreadPool* pool = nullptr)
{
    GpuConfig ff_config = reference_config;
    ff_config.sm.fastForward = true;
    GpuConfig ref_config = reference_config;
    ref_config.sm.fastForward = false;

    trace::Collector ref_trace, ff_trace;
    metrics::Collector ref_metrics, ff_metrics;
    SimResult ref =
        Gpu(ref_config).run(p, pool, &ref_trace, &ref_metrics);
    SimResult ff = Gpu(ff_config).run(p, pool, &ff_trace, &ff_metrics);

    EXPECT_EQ(ref.cycles, ff.cycles);
    EXPECT_EQ(ref.totalSmCycles, ff.totalSmCycles);
    EXPECT_EQ(ref.aggregate.issuedTotal, ff.aggregate.issuedTotal);
    EXPECT_EQ(ref.aggregate.completed, ff.aggregate.completed);

    StatSet ref_set = metrics::toStatSet(ref);
    StatSet ff_set = metrics::toStatSet(ff);
    for (metrics::MetricsFormat format :
         {metrics::MetricsFormat::Jsonl, metrics::MetricsFormat::Csv,
          metrics::MetricsFormat::Prom}) {
        std::ostringstream ref_os, ff_os;
        metrics::writeMetrics(ref_os, &ref_metrics, ref_set, format);
        metrics::writeMetrics(ff_os, &ff_metrics, ff_set, format);
        EXPECT_EQ(ref_os.str(), ff_os.str())
            << metrics::metricsFormatName(format);
    }

    std::ostringstream ref_os, ff_os;
    trace::writeJsonl(ref_os, ref_trace);
    trace::writeJsonl(ff_os, ff_trace);
    EXPECT_EQ(ref_os.str(), ff_os.str());
}

TEST(FastForward, AllTechniquesBitIdenticalHotspot)
{
    for (Technique t : allTechniques()) {
        SCOPED_TRACE(techniqueName(t));
        expectFastForwardIdentical(ffConfig(t, true), profile("hotspot"));
    }
}

TEST(FastForward, AllTechniquesBitIdenticalMemoryHeavy)
{
    // nw is the suite's most memory-bound profile (miss ratio 0.70,
    // dependence probability 0.65): long MSHR-limited stall spans are
    // exactly where the horizon jumps are biggest.
    for (Technique t : allTechniques()) {
        SCOPED_TRACE(techniqueName(t));
        expectFastForwardIdentical(ffConfig(t, true), profile("nw"));
    }
}

TEST(FastForward, PooledMatchesSerialAndReference)
{
    // The pooled path must keep both guarantees at once: pooled+FF ==
    // serial+FF == serial reference.
    GpuConfig config = ffConfig(Technique::WarpedGates, true, 4);
    BenchmarkProfile p = profile("nw");
    expectFastForwardIdentical(config, p, &ThreadPool::global());

    SimResult serial = Gpu(config).run(p, nullptr);
    SimResult pooled = Gpu(config).run(p, &ThreadPool::global());
    EXPECT_EQ(serial.cycles, pooled.cycles);
    EXPECT_EQ(serial.aggregate.issuedTotal, pooled.aggregate.issuedTotal);
}

TEST(FastForward, RandomizedConfigsBitIdentical)
{
    // Deterministic fuzz: random PG windows, technique, SM count and
    // workload shape. Any divergence between the analytic replay and
    // the stepped path shows up as a byte diff here.
    Rng rng(0x57a71c5eedULL);
    const char* benches[] = {"hotspot", "nw", "bfs", "NN"};
    for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(trial);
        const auto& techs = allTechniques();
        Technique t = techs[rng.nextRange(techs.size())];
        ExperimentOptions opts;
        opts.numSms = 1 + static_cast<unsigned>(rng.nextRange(2));
        opts.seed = 100 + static_cast<std::uint64_t>(trial);
        opts.idleDetect = 1 + rng.nextRange(12);
        opts.breakEven = 1 + rng.nextRange(30);
        opts.wakeupDelay = 1 + rng.nextRange(6);
        GpuConfig config = makeConfig(t, opts);

        BenchmarkProfile p =
            profile(benches[rng.nextRange(4)],
                    200 + static_cast<int>(rng.nextRange(400)),
                    4 + static_cast<int>(rng.nextRange(24)));
        expectFastForwardIdentical(config, p);
    }
}

TEST(FastForward, TruncatedRunBitIdentical)
{
    // A horizon clamped by maxCycles must stop on exactly the same
    // cycle, with exactly the same partial counters, as the stepped
    // path hitting the safety stop.
    GpuConfig config = ffConfig(Technique::WarpedGates, true);
    config.sm.maxCycles = 3000;
    expectFastForwardIdentical(config, profile("nw", 4000, 8));
}

TEST(FastForward, EngagesOnMemoryBoundWorkload)
{
    // The optimisation must actually fire where it matters; otherwise
    // the identity tests above would pass vacuously.
    GpuConfig config = ffConfig(Technique::WarpedGates, true, 1);
    ProgramGenerator gen(config.seed);
    Sm sm(config.sm, gen.generateSm(profile("nw"), 0),
          Gpu::smSeed(config.seed, 0));
    sm.run();
    EXPECT_GT(sm.ffSkippedCycles(), 0u);
    EXPECT_GT(sm.ffSpans(), 0u);
    EXPECT_GE(sm.ffSkippedCycles(), sm.ffSpans());
}

TEST(FastForward, EngagesWhenTraced)
{
    // A trace records one mshr-reject per stalled cycle, which the
    // replay reproduces, so attaching a recorder must not switch the
    // engine off over MSHR-bound stall spans. The traced run keeps the
    // LD/ST occupancy retires as horizon events (its UnitIdle/UnitBusy
    // records stay cycle-exact), so it skips slightly less.
    GpuConfig config = ffConfig(Technique::WarpedGates, true, 1);
    ProgramGenerator gen(config.seed);
    const auto programs = gen.generateSm(findBenchmark("bfs"), 0);
    const std::uint64_t seed = Gpu::smSeed(config.seed, 0);

    Sm untraced(config.sm, programs, seed);
    untraced.run();
    trace::Recorder rec(0, std::size_t{1} << 20);
    Sm traced(config.sm, programs, seed, &rec);
    traced.run();

    EXPECT_EQ(traced.stats().cycles, untraced.stats().cycles);
    EXPECT_EQ(traced.stats().mshrRejects, untraced.stats().mshrRejects);
    EXPECT_EQ(rec.overwritten(), 0u);
    ASSERT_GT(untraced.ffSkippedCycles(), 0u);
    EXPECT_GE(static_cast<double>(traced.ffSkippedCycles()),
              0.9 * static_cast<double>(untraced.ffSkippedCycles()))
        << "traced " << traced.ffSkippedCycles() << " vs untraced "
        << untraced.ffSkippedCycles();
}

TEST(FastForward, DisabledNeverSkips)
{
    GpuConfig config = ffConfig(Technique::WarpedGates, false, 1);
    ProgramGenerator gen(config.seed);
    Sm sm(config.sm, gen.generateSm(profile("nw"), 0),
          Gpu::smSeed(config.seed, 0));
    sm.run();
    EXPECT_EQ(sm.ffSkippedCycles(), 0u);
    EXPECT_EQ(sm.ffSpans(), 0u);
}

} // namespace
} // namespace wg
