/**
 * @file
 * event_trace: WarpedGates on hotspot (compute-bound) and bfs
 * (memory-bound, dominated by mshr-reject events) with the full event
 * trace at the default ring capacity, serialised by trace::writeJsonl
 * into a byte-counting stream (no disk) and replayed by
 * trace::checkCollector. The trace recorder and sink do most of the
 * work here, so this is the workload a trace-path change should move.
 *
 * Each cell simulates one SM, so its ring (default capacity, which the
 * run still wraps) and the sink pass are a sixth of a six-SM cell's:
 * a run holds many short jobs instead of a few long ones. One lane per
 * host CPU runs jobs side by side, each with its own collector.
 *
 * A "job" is one (hotspot, bfs) pair of traced cells: for each, the
 * traced Gpu::run, the sink pass and the invariant check.
 */

#include <iterator>
#include <memory>
#include <thread>

#include "core/experiment.hh"
#include "metrics/registry.hh"
#include "trace/check.hh"
#include "trace/sink.hh"
#include "workloads.hh"

namespace wgbench {

namespace {

constexpr int kSetupReps = 51;
constexpr unsigned kSms = 1;
const char* const kBenches[] = {"hotspot", "bfs"};

unsigned
traceWorkers()
{
    const unsigned cpus = hostCpus();
    return cpus > 1 ? cpus - 1 : 1;
}

wg::GpuConfig
traceConfig(const RunArgs& args)
{
    wg::ExperimentOptions opts;
    opts.seed = simSeedFor(args.seed);
    opts.numSms = kSms;
    return wg::makeConfig(wg::Technique::WarpedGates, opts);
}

/** One traced cell's outcome. */
struct TracedCell
{
    wg::StatSet stats;
    std::uint64_t issued = 0;
    std::size_t events = 0;
    std::uint64_t lost = 0;
    std::uint64_t sinkBytes = 0;
    std::size_t violations = 0;
};

/** Run, sink and check one traced cell, with spans when @p log is set. */
TracedCell
traceCell(const wg::GpuConfig& config, const char* bench,
          wg::ThreadPool* pool, wg::trace::Collector& collector,
          SpanLog* log)
{
    Span cell(log, "trace.cell");
    TracedCell out;
    wg::SimResult r;
    {
        Span run(log, "trace.gpu_run", cell.id());
        r = wg::Gpu(config).run(wg::findBenchmark(bench), pool, &collector);
    }
    CountingStream sink;
    {
        Span s(log, "trace.sink", cell.id());
        wg::trace::writeJsonl(sink, collector);
    }
    {
        Span s(log, "trace.check", cell.id());
        out.violations = wg::trace::checkCollector(collector).size();
    }
    out.stats = wg::metrics::toStatSet(r);
    out.issued = r.aggregate.issuedTotal;
    out.events = collector.totalEvents();
    out.lost = collector.totalOverwritten();
    out.sinkBytes = sink.bytes();
    return out;
}

/** Compare traced cells against untraced reference runs. */
void
checkCells(const std::vector<std::pair<const char*, TracedCell>>& cells,
           const wg::GpuConfig& config, wg::ThreadPool* pool,
           Report& report)
{
    std::map<std::string, wg::StatSet> reference;
    for (const char* bench : kBenches)
        reference[bench] = wg::metrics::toStatSet(
            wg::Gpu(config).run(wg::findBenchmark(bench), pool));
    for (const auto& [bench, cell] : cells) {
        report.check(cell.stats.entries() == reference[bench].entries(),
                     std::string("event_trace: traced result differs from "
                                 "the untraced run on ") + bench);
        report.check(cell.violations == 0,
                     std::string("event_trace: ") +
                         std::to_string(cell.violations) +
                         " invariant violations on " + bench);
    }
}

} // namespace

void
runEventTrace(const RunArgs& args, Report& report)
{
    const wg::GpuConfig config = traceConfig(args);
    const unsigned lanes = hostCpus();
    report.notes.push_back("threads: " + std::to_string(lanes) +
                           " lanes (the caller and " +
                           std::to_string(lanes - 1) + " more), " +
                           std::to_string(hostCpus()) + " host CPUs");

    // Set-up: every lane's collector and its ring allocation, timed as
    // the median of many repetitions, then built once more to keep.
    std::vector<std::unique_ptr<wg::trace::Collector>> collectors;
    auto build = [&] {
        for (unsigned l = 0; l < lanes; ++l) {
            collectors.push_back(std::make_unique<wg::trace::Collector>());
            collectors.back()->prepare(config.numSms);
        }
    };
    const double setup_s =
        medianSetupSeconds(kSetupReps, build, [&] { collectors.clear(); });
    build();

    // Every lane runs whole (hotspot, bfs) pairs serially until the
    // deadline, one lane per host CPU. A single traced pipeline would
    // run on one CPU, and on a shared host one CPU's speed drifts far
    // more than the average over all of them does. A lane's rate is
    // taken from its median job, so a stretch in which its CPU ran
    // slow does not move it; the lanes' rates add up.
    struct Lane
    {
        std::vector<std::pair<const char*, TracedCell>> cells;
        std::vector<double> jobMs;
        std::uint64_t issued = 0;
    };
    std::vector<Lane> done(lanes);
    const auto start = Clock::now();
    auto runLane = [&](unsigned l) {
        Lane& lane = done[l];
        while (lane.jobMs.empty() || secondsSince(start) < args.seconds) {
            const auto t0 = Clock::now();
            for (const char* bench : kBenches) {
                TracedCell cell =
                    traceCell(config, bench, nullptr, *collectors[l], nullptr);
                lane.issued += cell.issued;
                lane.cells.emplace_back(bench, std::move(cell));
            }
            lane.jobMs.push_back(secondsSince(t0) * 1000.0);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned l = 1; l < lanes; ++l)
        threads.emplace_back(runLane, l);
    runLane(0);
    for (std::thread& t : threads)
        t.join();
    const double peak = peakRssMb();

    // Every job of a lane simulates the same pair, so its instructions
    // per job are the lane's total over its job count.
    std::vector<std::pair<const char*, TracedCell>> cells;
    std::vector<double> job_ms;
    double instr_per_s = 0.0, jobs_per_s = 0.0;
    for (Lane& lane : done) {
        std::move(lane.cells.begin(), lane.cells.end(),
                  std::back_inserter(cells));
        job_ms.insert(job_ms.end(), lane.jobMs.begin(), lane.jobMs.end());
        const double job_s = median(lane.jobMs) / 1000.0;
        instr_per_s += static_cast<double>(lane.issued) /
                       static_cast<double>(lane.jobMs.size()) / job_s;
        jobs_per_s += 1.0 / job_s;
    }
    checkCells(cells, config, nullptr, report);

    addEndToEnd(report, setup_s, instr_per_s, peak, jobs_per_s,
                quantile(job_ms, 0.5), quantile(job_ms, 0.95));
}

void
traceEventTrace(const RunArgs& args, SpanLog& spans, Report& report)
{
    const wg::GpuConfig config = traceConfig(args);
    wg::ThreadPool pool(traceWorkers());
    wg::trace::Collector collector;

    auto pair = [&](SpanLog* log,
                    std::vector<std::pair<const char*, TracedCell>>* out) {
        const auto t0 = Clock::now();
        for (const char* bench : kBenches) {
            TracedCell cell = traceCell(config, bench, &pool, collector, log);
            if (out)
                out->emplace_back(bench, std::move(cell));
        }
        return secondsSince(t0);
    };
    std::vector<std::pair<const char*, TracedCell>> cells;
    const double traced = pair(&spans, &cells);
    const double untraced = pair(nullptr, nullptr);

    // The recording overhead: the same cells without a collector.
    for (const char* bench : kBenches) {
        Span run(&spans, "trace.gpu_run_untraced");
        (void)wg::Gpu(config).run(wg::findBenchmark(bench), &pool);
    }
    checkCells(cells, config, &pool, report);

    double events = 0, lost = 0, bytes = 0;
    for (const auto& [bench, cell] : cells) {
        events += static_cast<double>(cell.events);
        lost += static_cast<double>(cell.lost);
        bytes += static_cast<double>(cell.sinkBytes);
    }
    const double sink_s = spans.total("trace.sink");
    report.add("trace.events", events, "count");
    report.add("trace.events_lost", lost, "count");
    report.add("trace.run_overhead",
               spans.total("trace.gpu_run") /
                   spans.total("trace.gpu_run_untraced"),
               "ratio");
    report.add("trace.sink_s", sink_s, "s");
    report.add("trace.sink_mb_per_s", bytes / 1e6 / sink_s, "MB/s");
    report.add("trace.check_s", spans.total("trace.check"), "s");
    report.add("span.overhead.event_trace", traced / untraced - 1.0, "ratio");
}

} // namespace wgbench
