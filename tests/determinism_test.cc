/**
 * @file
 * Locks in the concurrency determinism guarantee: a multi-SM Gpu::run
 * produces a SimResult bit-identical to the single-threaded path,
 * under the shared pool, a pool of size 1, and across repeated runs.
 * The figure sweeps rely on this — pooling is purely a wall-clock
 * optimisation, never a result change.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/threadpool.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "sim/gpu.hh"
#include "trace/sink.hh"

namespace wg {
namespace {

GpuConfig
config(unsigned sms)
{
    ExperimentOptions opts;
    opts.numSms = sms;
    return makeConfig(Technique::WarpedGates, opts);
}

BenchmarkProfile
profile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

/** Registry entries on which @p a and @p b differ (failure context). */
std::string
registryDiff(const SimResult& a, const SimResult& b)
{
    const auto& ea = metrics::toStatSet(a).entries();
    const auto& eb = metrics::toStatSet(b).entries();
    std::string out;
    for (const auto& [name, value] : ea) {
        auto it = eb.find(name);
        if (it == eb.end() || it->second != value)
            out += " " + name;
    }
    return out.empty() ? " (none; a histogram differs)" : out;
}

void
expectResultsIdentical(const SimResult& a, const SimResult& b)
{
    // Bit-identical, not nearly-equal, and every field: the pooled
    // path must do the exact same arithmetic in the exact same order.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalSmCycles, b.totalSmCycles);
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_TRUE(a.aggregate == b.aggregate)
        << "aggregate SmStats differ:" << registryDiff(a, b);
    EXPECT_TRUE(a.intEnergy == b.intEnergy);
    EXPECT_TRUE(a.fpEnergy == b.fpEnergy);
    EXPECT_TRUE(a.sfuEnergy == b.sfuEnergy);
    EXPECT_TRUE(a.ldstEnergy == b.ldstEnergy);
    EXPECT_TRUE(a.intIdleHist == b.intIdleHist);
    EXPECT_TRUE(a.fpIdleHist == b.fpIdleHist);
}

TEST(Determinism, PooledMatchesSerialBitIdentical)
{
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();
    SimResult serial = gpu.run(p, nullptr);
    SimResult pooled = gpu.run(p, &ThreadPool::global());
    expectResultsIdentical(serial, pooled);
}

TEST(Determinism, PoolOfSizeOneMatchesSerial)
{
    ThreadPool one(1);
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();
    SimResult serial = gpu.run(p, nullptr);
    SimResult pooled = gpu.run(p, &one);
    expectResultsIdentical(serial, pooled);
}

TEST(Determinism, StableAcrossRepeatedPooledRuns)
{
    Gpu gpu(config(6));
    BenchmarkProfile p = profile();
    SimResult first = gpu.run(p, &ThreadPool::global());
    for (int rep = 0; rep < 2; ++rep) {
        SimResult again = gpu.run(p, &ThreadPool::global());
        expectResultsIdentical(first, again);
    }
}

TEST(Determinism, TraceBitIdenticalSerialVsPooled)
{
    // Tracing inherits the determinism guarantee: the serialised JSONL
    // stream (meta line, every event, truncation markers) of a pooled
    // run must equal the serial run's byte for byte.
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();

    trace::Collector serial_collector;
    SimResult serial = gpu.run(p, nullptr, &serial_collector);
    trace::Collector pooled_collector;
    SimResult pooled = gpu.run(p, &ThreadPool::global(),
                               &pooled_collector);
    expectResultsIdentical(serial, pooled);

    ASSERT_GT(serial_collector.totalEvents(), 0u);
    std::ostringstream serial_os, pooled_os;
    trace::writeJsonl(serial_os, serial_collector);
    trace::writeJsonl(pooled_os, pooled_collector);
    EXPECT_EQ(serial_os.str(), pooled_os.str());
}

TEST(Determinism, MetricsBitIdenticalSerialVsPooled)
{
    // The metrics files inherit the determinism guarantee: every
    // serialisation (epoch series + final registry) of a pooled run
    // must equal the serial run's byte for byte.
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();

    metrics::Collector serial_metrics;
    SimResult serial = gpu.run(p, nullptr, nullptr, &serial_metrics);
    metrics::Collector pooled_metrics;
    SimResult pooled = gpu.run(p, &ThreadPool::global(), nullptr,
                               &pooled_metrics);
    expectResultsIdentical(serial, pooled);
    ASSERT_GT(serial_metrics.totalSamples(), 0u);

    StatSet serial_set = metrics::toStatSet(serial);
    StatSet pooled_set = metrics::toStatSet(pooled);
    for (metrics::MetricsFormat format :
         {metrics::MetricsFormat::Jsonl, metrics::MetricsFormat::Csv,
          metrics::MetricsFormat::Prom}) {
        std::ostringstream serial_os, pooled_os;
        metrics::writeMetrics(serial_os, &serial_metrics, serial_set,
                              format);
        metrics::writeMetrics(pooled_os, &pooled_metrics, pooled_set,
                              format);
        EXPECT_EQ(serial_os.str(), pooled_os.str())
            << metrics::metricsFormatName(format);
    }
}

TEST(Determinism, MeteredRunMatchesUnmeteredRun)
{
    // Attaching an epoch sampler must never perturb the simulation.
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();
    SimResult plain = gpu.run(p, nullptr);
    metrics::Collector mets;
    SimResult metered = gpu.run(p, nullptr, nullptr, &mets);
    expectResultsIdentical(plain, metered);
}

TEST(Determinism, TracedRunMatchesUntracedRun)
{
    // Attaching a collector must never perturb the simulation itself.
    Gpu gpu(config(4));
    BenchmarkProfile p = profile();
    SimResult plain = gpu.run(p, nullptr);
    trace::Collector collector;
    SimResult traced = gpu.run(p, nullptr, &collector);
    expectResultsIdentical(plain, traced);
}

TEST(Determinism, BatchedSweepMatchesSerialSweep)
{
    // The ExperimentRunner layer on top of Gpu: one serial runner, one
    // pooled runner, same sweep — every result must agree exactly.
    ExperimentOptions opts;
    opts.numSms = 4;
    const std::vector<std::string> benches = {"hotspot", "bfs", "NN"};
    const std::vector<Technique> techs = {Technique::Baseline,
                                          Technique::WarpedGates};
    ExperimentRunner serial(opts, nullptr);
    ExperimentRunner pooled(opts, &ThreadPool::global());
    auto serial_results = serial.runAll({benches, techs});
    auto pooled_results = pooled.runAll({benches, techs});
    ASSERT_EQ(serial_results.size(), pooled_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i)
        expectResultsIdentical(*serial_results[i], *pooled_results[i]);
}

} // namespace
} // namespace wg
