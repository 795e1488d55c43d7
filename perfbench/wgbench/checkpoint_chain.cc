/**
 * @file
 * checkpoint_chain: hotspot and bfs under a metered SimSession. Every
 * kStrideEpochs epoch boundaries the run is checkpointed and resumed
 * through the full codec path -- snapshot() -> snapshotDoc -> dump ->
 * Json::parse -> parseSnapshotDoc -> snapshotConfig ->
 * SimSession::restore -- and then continues; it ends with result() and
 * a jsonl writeMetrics into memory. The snapshot codec, the JSON layer,
 * the session and the metrics sampler/exporters dominate here. Capture
 * and restore drive the codec in both directions, and the sampler
 * section grows along the run.
 *
 * One lane per host CPU runs chains side by side, each session serial
 * (no pool), so the figures average over every CPU.
 *
 * A "job" is one checkpoint round trip, from snapshot() to the resumed
 * session.
 */

#include <memory>
#include <sstream>
#include <thread>

#include "core/experiment.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "serve/snapshot.hh"
#include "sim/session.hh"
#include "workloads.hh"

namespace wgbench {

namespace {

constexpr int kSetupReps = 25;
constexpr wg::Cycle kStrideEpochs = 4;
const char* const kBenches[] = {"hotspot", "bfs"};

unsigned
chainWorkers()
{
    const unsigned cpus = hostCpus();
    return cpus > 1 ? cpus - 1 : 1;
}

wg::serve::wire::SnapshotIdentity
chainIdentity(const RunArgs& args, const char* bench)
{
    wg::serve::wire::SnapshotIdentity id;
    id.bench = bench;
    id.technique = wg::Technique::WarpedGates;
    id.options.seed = simSeedFor(args.seed);
    return id;
}

/** A metered session with the collector it records into. */
struct Metered
{
    std::unique_ptr<wg::metrics::Collector> collector;
    std::unique_ptr<wg::SimSession> session;
};

Metered
openMetered(const wg::serve::wire::SnapshotIdentity& id, wg::ThreadPool* pool)
{
    Metered m;
    m.collector = std::make_unique<wg::metrics::Collector>();
    m.session = std::make_unique<wg::SimSession>(wg::SimSession::open(
        wg::findBenchmark(id.bench), wg::makeConfig(id.technique, id.options),
        pool, nullptr, m.collector.get()));
    return m;
}

/** Each cell's unsplit metered run: its result and its metrics bytes. */
using Reference = std::map<std::string, std::pair<wg::StatSet, std::string>>;

Reference
unsplitRuns(const RunArgs& args, wg::ThreadPool& pool)
{
    Reference reference;
    for (const char* bench : kBenches) {
        const auto id = chainIdentity(args, bench);
        wg::metrics::Collector collector;
        const wg::SimResult r =
            wg::Gpu(wg::makeConfig(id.technique, id.options))
                .run(wg::findBenchmark(bench), &pool, nullptr, &collector);
        const wg::StatSet stats = wg::metrics::toStatSet(r);
        std::ostringstream os;
        wg::metrics::writeMetrics(os, &collector, stats,
                                  wg::metrics::MetricsFormat::Jsonl);
        reference[bench] = {stats, os.str()};
    }
    return reference;
}

/**
 * Outcome of one chain (one cell, checkpointed along the way), already
 * compared with the unsplit run so that no chain keeps its bytes.
 */
struct Chain
{
    std::string bench;
    bool sameResult = false;
    bool sameMetrics = false;
    std::uint64_t metricsBytes = 0;
    std::uint64_t issued = 0;
    std::vector<double> roundTripMs;
    std::uint64_t snapshotBytes = 0;
    std::vector<std::string> errors;
};

/**
 * Run @p m to completion, checkpointing and resuming every stride;
 * resumed sessions run on @p pool (nullptr: serially). The result and
 * metrics export are compared with @p reference. Spans go to @p log
 * when set.
 */
Chain
runChain(const wg::serve::wire::SnapshotIdentity& id, Metered m,
         wg::ThreadPool* pool, const Reference& reference, SpanLog* log)
{
    namespace wire = wg::serve::wire;
    Span chain(log, "checkpoint.chain");
    Chain out;
    out.bench = id.bench;
    const wg::Cycle stride =
        kStrideEpochs * m.session->config().sm.pg.epochLength;
    for (wg::Cycle until = stride;; until += stride) {
        {
            Span s(log, "sim.session.run_until", chain.id());
            m.session->runUntil(until);
        }
        if (m.session->done())
            break;
        Span trip(log, "checkpoint.round_trip", chain.id());
        const auto t0 = Clock::now();
        wg::GpuSnapshot snap;
        {
            Span s(log, "sim.session.snapshot", trip.id());
            snap = m.session->snapshot();
        }
        wg::serve::Json doc;
        {
            Span s(log, "serve.snapshot.encode", trip.id());
            doc = wire::snapshotDoc(id, snap);
        }
        std::string text;
        {
            Span s(log, "serve.json.serialize", trip.id());
            text = doc.dump();
        }
        out.snapshotBytes += text.size();
        std::string error;
        wg::serve::Json parsed;
        wire::SnapshotIdentity parsed_id;
        wg::GpuSnapshot parsed_snap;
        wg::GpuConfig config;
        bool ok = false;
        {
            Span s(log, "serve.json.parse", trip.id());
            ok = wg::serve::Json::parse(text, parsed, error,
                                        wire::snapshotJsonLimits());
        }
        if (ok) {
            Span s(log, "serve.snapshot.decode", trip.id());
            ok = wire::parseSnapshotDoc(parsed, parsed_id, parsed_snap,
                                        error) &&
                 wire::snapshotConfig(parsed_id, config, error);
        }
        if (!ok) {
            out.errors.push_back("checkpoint_chain: " + error);
            break;
        }
        Metered resumed;
        resumed.collector = std::make_unique<wg::metrics::Collector>();
        {
            Span s(log, "sim.session.restore", trip.id());
            resumed.session = wg::SimSession::restore(
                parsed_snap, wg::findBenchmark(parsed_id.bench), config,
                pool, nullptr, resumed.collector.get(), &error);
        }
        if (!resumed.session) {
            out.errors.push_back("checkpoint_chain: restore: " + error);
            break;
        }
        m = std::move(resumed);
        out.roundTripMs.push_back(secondsSince(t0) * 1000.0);
    }
    wg::SimResult r;
    {
        Span s(log, "sim.session.result", chain.id());
        r = m.session->result();
    }
    const wg::StatSet stats = wg::metrics::toStatSet(r);
    out.issued = r.aggregate.issuedTotal;
    std::ostringstream os;
    {
        Span s(log, "metrics.export", chain.id());
        wg::metrics::writeMetrics(os, m.collector.get(), stats,
                                  wg::metrics::MetricsFormat::Jsonl);
    }
    const std::string bytes = os.str();
    const auto& [ref_stats, ref_bytes] = reference.at(id.bench);
    out.sameResult = stats.entries() == ref_stats.entries();
    out.sameMetrics = bytes == ref_bytes;
    out.metricsBytes = bytes.size();
    return out;
}

/** Count every round trip and each chain's two comparisons. */
void
checkChains(const std::vector<Chain>& chains, Report& report)
{
    for (const Chain& c : chains) {
        report.attempted += c.roundTripMs.size();
        for (const std::string& e : c.errors)
            report.check(false, e);
        report.check(c.sameResult,
                     "checkpoint_chain: split result differs from the "
                     "unsplit run on " + c.bench);
        report.check(c.sameMetrics,
                     "checkpoint_chain: split metrics export differs from "
                     "the unsplit run on " + c.bench);
    }
}

} // namespace

void
runCheckpointChain(const RunArgs& args, Report& report)
{
    const unsigned lanes = hostCpus();
    report.notes.push_back("threads: " + std::to_string(lanes) +
                           " lanes (the caller and " +
                           std::to_string(lanes - 1) +
                           " more), serial sessions, " +
                           std::to_string(hostCpus()) + " host CPUs");
    report.notes.push_back("checkpoint stride: " +
                           std::to_string(kStrideEpochs) + " epochs");

    // Set-up: every lane's first SimSession::open (program generation
    // and SM construction), timed as the median of many repetitions,
    // then done once more to keep.
    std::vector<Metered> first;
    auto build = [&] {
        for (unsigned l = 0; l < lanes; ++l)
            first.push_back(
                openMetered(chainIdentity(args, kBenches[0]), nullptr));
    };
    const double setup_s =
        medianSetupSeconds(kSetupReps, build, [&] { first.clear(); });
    build();
    Reference reference;
    {
        wg::ThreadPool pool(chainWorkers());
        reference = unsplitRuns(args, pool);
    }

    // Every lane runs whole (hotspot, bfs) pairs of chains until the
    // deadline, one lane per host CPU: a single serial chain would run
    // on one CPU, and on a shared host one CPU's speed drifts far more
    // than the average over all of them does. A lane's rate is the
    // median over its pairs, so a stretch in which its CPU ran slow
    // does not move it; the lanes' rates add up.
    struct Lane
    {
        std::vector<Chain> chains;
        std::vector<double> instrRates, tripRates;
    };
    std::vector<Lane> done(lanes);
    const auto start = Clock::now();
    auto runLane = [&](unsigned l) {
        Lane& lane = done[l];
        while (lane.chains.empty() || secondsSince(start) < args.seconds) {
            const auto t0 = Clock::now();
            std::uint64_t issued = 0;
            std::size_t trips = 0;
            for (const char* bench : kBenches) {
                const auto id = chainIdentity(args, bench);
                // The first chain continues the session set-up opened.
                Metered m = first[l].session ? std::move(first[l])
                                             : openMetered(id, nullptr);
                Chain c =
                    runChain(id, std::move(m), nullptr, reference, nullptr);
                issued += c.issued;
                trips += c.roundTripMs.size();
                lane.chains.push_back(std::move(c));
            }
            const double dt = secondsSince(t0);
            lane.instrRates.push_back(static_cast<double>(issued) / dt);
            lane.tripRates.push_back(static_cast<double>(trips) / dt);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned l = 1; l < lanes; ++l)
        threads.emplace_back(runLane, l);
    runLane(0);
    for (std::thread& t : threads)
        t.join();
    const double peak = peakRssMb();

    std::vector<Chain> chains;
    std::vector<double> trip_ms;
    double instr_per_s = 0.0, trips_per_s = 0.0;
    for (Lane& lane : done) {
        instr_per_s += median(lane.instrRates);
        trips_per_s += median(lane.tripRates);
        for (Chain& c : lane.chains) {
            trip_ms.insert(trip_ms.end(), c.roundTripMs.begin(),
                           c.roundTripMs.end());
            chains.push_back(std::move(c));
        }
    }
    checkChains(chains, report);

    report.notes.push_back("chains: " + std::to_string(chains.size()));
    addEndToEnd(report, setup_s, instr_per_s, peak, trips_per_s,
                quantile(trip_ms, 0.5), quantile(trip_ms, 0.95));
}

void
traceCheckpointChain(const RunArgs& args, SpanLog& spans, Report& report)
{
    wg::ThreadPool pool(chainWorkers());
    const Reference reference = unsplitRuns(args, pool);
    auto pair = [&](SpanLog* log, std::vector<Chain>* out) {
        const auto t0 = Clock::now();
        for (const char* bench : kBenches) {
            const auto id = chainIdentity(args, bench);
            Chain c = runChain(id, openMetered(id, &pool), &pool, reference,
                               log);
            if (out)
                out->push_back(std::move(c));
        }
        return secondsSince(t0);
    };
    std::vector<Chain> chains;
    const double traced = pair(&spans, &chains);
    const double untraced = pair(nullptr, nullptr);
    checkChains(chains, report);

    double snapshot_bytes = 0, export_bytes = 0;
    for (const Chain& c : chains) {
        snapshot_bytes += static_cast<double>(c.snapshotBytes);
        export_bytes += static_cast<double>(c.metricsBytes);
    }
    report.add("sim.session.run_until_s",
               spans.total("sim.session.run_until"), "s");
    report.add("sim.session.snapshot_s", spans.total("sim.session.snapshot"),
               "s");
    report.add("sim.session.restore_s", spans.total("sim.session.restore"),
               "s");
    report.add("serve.snapshot.encode_s",
               spans.total("serve.snapshot.encode"), "s");
    report.add("serve.snapshot.decode_s",
               spans.total("serve.snapshot.decode"), "s");
    report.add("serve.snapshot.bytes", snapshot_bytes, "bytes");
    report.add("serve.json.serialize_mb_per_s",
               snapshot_bytes / 1e6 / spans.total("serve.json.serialize"),
               "MB/s");
    report.add("serve.json.parse_mb_per_s",
               snapshot_bytes / 1e6 / spans.total("serve.json.parse"), "MB/s");
    report.add("metrics.export_s", spans.total("metrics.export"), "s");
    report.add("metrics.export_bytes", export_bytes, "bytes");
    report.add("span.overhead.checkpoint_chain", traced / untraced - 1.0,
               "ratio");
}

} // namespace wgbench
