/**
 * @file
 * served_mix: an in-process serve::Server on an ephemeral loopback port
 * over a benchmark-owned runner and pool, driven by one closed-loop
 * client with two connections: a submitter and a `subscribe` watcher.
 * A job's latency runs from its submit to the terminal result frame of
 * its stream (no status polling).
 *
 * The seeded job sequence mixes two kinds of job on one benchmark:
 *   - miss: a single cell under a simulator seed nobody has asked for,
 *     so the runner simulates it;
 *   - hit: all six techniques of a group of cells earlier misses
 *     computed, in a fresh order (so whole-job dedup never folds it),
 *     so its latency is frame encoding, transfer and parsing of six
 *     cells' streams.
 * After the first group's six misses the sequence repeats two misses
 * and one hit. Every miss is slower than every hit, so with two thirds
 * of the jobs missing, job_ms_p50 sits at about the misses' lower
 * quartile and job_ms_p95 at their 92nd percentile: both well inside
 * the miss class. A hit's latency cannot carry a percentile steadily:
 * it is bounded below by the server's poll tick (see kPollTickMs), and
 * the server writes each frame with its own send() on a socket that
 * keeps Nagle's algorithm on, so a job's last frames wait for the
 * client's delayed ACK (up to ~40 ms) in some jobs and not in others.
 *
 * Cells simulate one SM: the pool has a single worker on a 4-CPU host
 * (see servedWorkers()), and one-SM misses keep a run's job count high
 * enough that the p95 has ten or more samples beyond it.
 */

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace wgbench {

namespace {

constexpr int kSetupReps = 51;
const char* const kBench = "hotspot";
constexpr unsigned kSms = 1;
constexpr std::size_t kSequenceLength = 20000;
/**
 * Jobs a run serves per second of --seconds (about 17 jobs/s are
 * served on a 4-CPU host). The run serves a fixed count, never "as
 * many as fit": the job manager keeps every job's frame log, so
 * peak_rss_mb grows with the jobs served, and a fixed sequence also
 * gives the latency percentiles the same mix of jobs on every run.
 */
constexpr double kJobsPerSecond = 16.0;
/** Cell group of the set-up's warm-up job (beyond any sequence group). */
constexpr std::size_t kWarmupGroup = kSequenceLength;
constexpr std::size_t kTraceJobs = 64;
constexpr int kRttSamples = 64;
constexpr int kTimeoutMs = 120000;
/**
 * The server's stream pump runs once per request-read poll tick; the
 * daemon's 200 ms default would quantize every job latency to the
 * tick, so the benchmark (and only the benchmark) polls every
 * millisecond. Job latency here is therefore bounded below by this
 * tick, not by the deployed default.
 */
constexpr int kPollTickMs = 1;

/**
 * Threads besides the pool's that run while jobs stream: the server's
 * two connection threads (one per client connection, each waking
 * every poll tick) and the client, which is the calling thread. The
 * server's accept thread and job dispatcher block until woken.
 */
constexpr unsigned kServeThreads = 3;

/** Pool workers: the host's CPUs less the serving threads. */
unsigned
servedWorkers()
{
    const unsigned cpus = hostCpus();
    return cpus > kServeThreads ? cpus - kServeThreads : 1;
}

/** One job of the sequence. */
struct ServedJob
{
    bool miss = false;
    std::size_t group = 0;
    std::vector<wg::Technique> techniques;
};

/** Options of a cell group: its own simulator seed. */
wg::ExperimentOptions
groupOptions(std::uint64_t seed, std::size_t group)
{
    wg::ExperimentOptions opts;
    opts.numSms = kSms;
    opts.seed = 1000000 * (1 + seed % 1000000) + group;
    return opts;
}

std::vector<wg::Technique>
shuffled(wg::Rng& rng)
{
    std::vector<wg::Technique> t = wg::allTechniques();
    for (std::size_t i = t.size(); i > 1; --i)
        std::swap(t[i - 1], t[rng.nextRange(static_cast<std::uint32_t>(i))]);
    return t;
}

std::vector<ServedJob>
jobSequence(std::uint64_t seed)
{
    wg::Rng rng(seed, 0x5e7edULL);
    std::vector<std::vector<wg::Technique>> groups; // miss order per group
    std::size_t filling = 0, filled = 0;
    std::set<std::pair<std::size_t, std::vector<wg::Technique>>> used;
    std::vector<ServedJob> out;
    auto miss = [&] {
        if (filling == groups.size())
            groups.push_back(shuffled(rng));
        out.push_back(ServedJob{true, filling, {groups[filling][filled]}});
        if (++filled == groups[filling].size()) {
            ++filling;
            filled = 0;
        }
    };
    auto hit = [&] {
        for (;;) {
            const std::size_t g =
                rng.nextRange(static_cast<std::uint32_t>(filling));
            std::vector<wg::Technique> order = shuffled(rng);
            if (used.insert({g, order}).second) {
                out.push_back(ServedJob{false, g, std::move(order)});
                return;
            }
        }
    };
    for (std::size_t i = 0; i < wg::allTechniques().size(); ++i)
        miss();
    while (out.size() < kSequenceLength) {
        miss();
        miss();
        hit();
    }
    return out;
}

/** Server, runner and pool plus the client's two connections. */
class Harness
{
  public:
    explicit Harness(unsigned workers)
        : pool_(std::make_unique<wg::ThreadPool>(workers)),
          runner_(std::make_unique<wg::ExperimentRunner>(
              wg::ExperimentOptions{}, pool_.get()))
    {
        wg::serve::ServerConfig config;
        config.pollTickMs = kPollTickMs;
        server_ = std::make_unique<wg::serve::Server>(*runner_, config);
    }

    ~Harness()
    {
        if (serving_.joinable()) {
            const char byte = 1;
            (void)!::write(wake_[1], &byte, 1);
            serving_.join();
        }
        for (int fd : wake_)
            if (fd >= 0)
                ::close(fd);
    }

    Harness(const Harness&) = delete;
    Harness& operator=(const Harness&) = delete;

    /** Bind, serve on a thread, connect both client connections. */
    bool
    start(std::string& error)
    {
        if (::pipe(wake_) != 0) {
            error = "pipe failed";
            return false;
        }
        if (!server_->start(error))
            return false;
        serving_ = std::thread([this] {
            std::string e;
            (void)server_->serve(wake_[0], e);
        });
        return submitter.connect(server_->port(), kTimeoutMs, error) &&
               watcher.connect(server_->port(), kTimeoutMs, error);
    }

    wg::ThreadPool& pool() { return *pool_; }
    wg::ExperimentRunner& runner() { return *runner_; }
    wg::serve::Server& server() { return *server_; }

    wg::serve::Client submitter;
    wg::serve::Client watcher;

  private:
    std::unique_ptr<wg::ThreadPool> pool_;
    std::unique_ptr<wg::ExperimentRunner> runner_;
    std::unique_ptr<wg::serve::Server> server_;
    int wake_[2] = {-1, -1};
    std::thread serving_;
};

/** What the client saw of one job. */
struct JobOutcome
{
    const ServedJob* job = nullptr;
    std::string id;
    double ms = 0.0;
    std::size_t frames = 0;
    std::uint64_t dropped = 0;
    std::map<std::size_t, std::uint64_t> finals; ///< cell -> hash of data
    std::string error;
};

/** Submit one job and stream it to its terminal frame. */
JobOutcome
runJob(Harness& h, std::uint64_t seed, const ServedJob& job, SpanLog* log)
{
    JobOutcome out;
    out.job = &job;
    const wg::SweepSpec spec({kBench}, job.techniques,
                             groupOptions(seed, job.group));
    Span span(log, "serve.job");
    const auto t0 = Clock::now();
    bool deduped = false;
    std::string error;
    bool ok = false;
    {
        Span s(log, "serve.submit", span.id());
        ok = h.submitter.submit(spec, 0, out.id, deduped, error);
    }
    if (ok) {
        Span s(log, "serve.subscribe", span.id());
        ok = h.watcher.subscribe(out.id, error);
    }
    std::string state;
    if (ok) {
        Span s(log, "serve.stream", span.id());
        wg::serve::Frame frame;
        while ((ok = h.watcher.nextFrame(frame, kTimeoutMs, error))) {
            ++out.frames;
            if (frame.kind == wg::serve::FrameKind::Final)
                out.finals[frame.cell] = fnv1a(frame.data);
            if (frame.kind == wg::serve::FrameKind::Result) {
                state = frame.state;
                out.dropped = frame.droppedFrames;
                break;
            }
        }
    }
    out.ms = secondsSince(t0) * 1000.0;
    if (!ok)
        out.error = "served_mix: job failed: " + error;
    else if (deduped)
        out.error = "served_mix: job " + out.id + " was deduped";
    else if (state != "done")
        out.error = "served_mix: job " + out.id + " ended " + state;
    return out;
}

/** The offline result of one served cell. */
struct Offline
{
    std::uint64_t finalHash = 0; ///< hash of the jsonl final line
    std::uint64_t digest = 0;    ///< statDigest of the registry
    std::uint64_t issued = 0;
};

using CellKey = std::pair<std::size_t, wg::Technique>;

/**
 * Recompute every served cell offline (one pool task per cell, each
 * simulated serially) and check each job's streamed final frames and
 * fetched results against it. @return the offline cells.
 */
std::map<CellKey, Offline>
checkJobs(Harness& h, std::uint64_t seed,
          const std::vector<JobOutcome>& outcomes, Report& report)
{
    std::map<CellKey, Offline> offline;
    for (const JobOutcome& o : outcomes)
        for (wg::Technique t : o.job->techniques)
            offline[{o.job->group, t}];
    std::vector<std::pair<CellKey, std::future<Offline>>> futures;
    for (auto& [key, cell] : offline) {
        const CellKey k = key;
        futures.emplace_back(k, h.pool().submit([k, seed] {
            const wg::SimResult r =
                wg::Gpu(wg::makeConfig(k.second, groupOptions(seed, k.first)))
                    .run(wg::findBenchmark(kBench), nullptr);
            const wg::StatSet stats = wg::metrics::toStatSet(r);
            return Offline{fnv1a(wg::metrics::jsonlFinalLine(stats)),
                           statDigest(stats), r.aggregate.issuedTotal};
        }));
    }
    for (auto& [key, fut] : futures)
        offline[key] = h.pool().wait(fut);

    for (const JobOutcome& o : outcomes) {
        std::string why = o.error;
        if (why.empty() && o.dropped != 0)
            why = "served_mix: job " + o.id + " dropped " +
                  std::to_string(o.dropped) + " frames";
        const std::vector<wg::Technique>& techs = o.job->techniques;
        for (std::size_t c = 0; why.empty() && c < techs.size(); ++c) {
            auto it = o.finals.find(c);
            if (it == o.finals.end() ||
                it->second != offline[{o.job->group, techs[c]}].finalHash)
                why = "served_mix: job " + o.id + " cell " +
                      std::to_string(c) + " streamed a final frame that "
                      "differs from the offline run";
        }
        std::vector<wg::serve::wire::ResultCell> cells;
        std::string error;
        if (why.empty() && !h.submitter.results(o.id, cells, error))
            why = "served_mix: results of " + o.id + ": " + error;
        for (std::size_t c = 0; why.empty() && c < cells.size(); ++c)
            if (c >= techs.size() ||
                statDigest(wg::metrics::toStatSet(cells[c].result)) !=
                    offline[{o.job->group, techs[c]}].digest)
                why = "served_mix: job " + o.id + " cell " +
                      std::to_string(c) + " result differs from the "
                      "offline run";
        if (why.empty() && cells.size() != techs.size())
            why = "served_mix: job " + o.id + " returned " +
                  std::to_string(cells.size()) + " cells";
        report.check(why.empty(), why);
    }
    return offline;
}

/** Interpolated quantile (ms) of a bucketed latency histogram. */
double
histogramQuantileMs(const wg::LatencyHistogram& h, double q)
{
    if (h.total() == 0)
        return 0.0;
    const double rank = q * static_cast<double>(h.total());
    const std::vector<double>& bounds = h.bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (static_cast<double>(h.cumulative(i)) < rank)
            continue;
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double below = i == 0 ? 0.0
                                    : static_cast<double>(h.cumulative(i - 1));
        const double frac =
            (rank - below) / static_cast<double>(h.bucket(i));
        return (lo + (bounds[i] - lo) * frac) * 1000.0;
    }
    return bounds.back() * 1000.0;
}

} // namespace

void
runServedMix(const RunArgs& args, Report& report)
{
    const unsigned workers = servedWorkers();
    report.notes.push_back(
        "threads: " + std::to_string(workers) +
        " pool workers + 2 server connection threads + 1 client thread "
        "running at once (the server's accept thread and job dispatcher "
        "block until woken), " + std::to_string(hostCpus()) +
        " host CPUs");
    const std::vector<ServedJob> sequence = jobSequence(args.seed);

    // Set-up: pool start, server bind, serve thread and both client
    // connects, timed as the median of many repetitions, then done once
    // more to keep. One warm-up miss in a cell group the sequence never
    // uses follows untimed.
    std::unique_ptr<Harness> h;
    std::string error;
    auto build = [&] {
        h = std::make_unique<Harness>(workers);
        if (!h->start(error) && error.empty())
            error = "start failed";
    };
    const double setup_s =
        medianSetupSeconds(kSetupReps, build, [&] { h.reset(); });
    if (error.empty())
        build();
    if (!error.empty()) {
        report.check(false, "served_mix: set-up failed: " + error);
        return;
    }
    const ServedJob warmup{true, kWarmupGroup, {wg::Technique::WarpedGates}};
    const JobOutcome warm = runJob(*h, args.seed, warmup, nullptr);
    if (!warm.error.empty()) {
        report.check(false, warm.error);
        return;
    }

    const std::size_t jobs = std::clamp<std::size_t>(
        static_cast<std::size_t>(args.seconds * kJobsPerSecond), 1,
        sequence.size());
    std::vector<JobOutcome> outcomes;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < jobs; ++i) {
        outcomes.push_back(runJob(*h, args.seed, sequence[i], nullptr));
        if (!outcomes.back().error.empty())
            break;
    }
    const double wall = secondsSince(start);
    const double peak = peakRssMb();

    const auto offline = checkJobs(*h, args.seed, outcomes, report);
    std::vector<double> ms, miss_ms, hit_ms;
    std::uint64_t issued = 0;
    for (const JobOutcome& o : outcomes) {
        ms.push_back(o.ms);
        (o.job->miss ? miss_ms : hit_ms).push_back(o.ms);
        if (o.job->miss)
            issued += offline.at({o.job->group, o.job->techniques[0]}).issued;
    }
    report.notes.push_back(
        "misses: " + std::to_string(miss_ms.size()) + " jobs, median " +
        std::to_string(median(miss_ms)) + " ms; hits: " +
        std::to_string(hit_ms.size()) + " jobs, median " +
        std::to_string(median(hit_ms)) + " ms");
    addEndToEnd(report, setup_s, static_cast<double>(issued) / wall,
                peak, static_cast<double>(outcomes.size()) / wall,
                quantile(ms, 0.5), quantile(ms, 0.95));
}

void
traceServedMix(const RunArgs& args, SpanLog& spans, Report& report)
{
    const std::vector<ServedJob> sequence = jobSequence(args.seed);
    auto runJobs = [&](SpanLog* log, Harness& h,
                       std::vector<JobOutcome>* out) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kTraceJobs; ++i) {
            JobOutcome o = runJob(h, args.seed, sequence[i], log);
            if (out)
                out->push_back(std::move(o));
        }
        return secondsSince(t0);
    };

    std::vector<JobOutcome> outcomes;
    double traced = 0.0;
    {
        Harness h(servedWorkers());
        std::string error;
        if (!h.start(error)) {
            report.check(false, "served_mix: set-up failed: " + error);
            return;
        }
        traced = runJobs(&spans, h, &outcomes);
        const wg::CacheStats cache = h.runner().cacheStats();
        const wg::serve::LatencySnapshot lat =
            h.server().jobs().latencySnapshot();
        for (int i = 0; i < kRttSamples; ++i) {
            std::map<std::string, double> stats;
            Span s(&spans, "serve.rtt");
            if (!h.submitter.stats(stats, error))
                report.check(false, "served_mix: stats: " + error);
        }
        checkJobs(h, args.seed, outcomes, report);

        double frames = 0, dropped = 0;
        for (const JobOutcome& o : outcomes) {
            frames += static_cast<double>(o.frames);
            dropped += static_cast<double>(o.dropped);
        }
        std::vector<double> rtt_ms;
        for (double s : spans.durations("serve.rtt"))
            rtt_ms.push_back(s * 1000.0);
        report.add("core.cache.hits", static_cast<double>(cache.hits),
                   "count");
        report.add("core.cache.misses", static_cast<double>(cache.misses),
                   "count");
        report.add("serve.rtt_ms.p50", median(rtt_ms), "ms");
        // The histogram's first bucket is 1 ms wide and holds every
        // admission wait, so its interpolated median is always 0.5 ms;
        // the exact mean from its sum and count carries the measurement.
        report.add("serve.jobs.admission_wait_ms.mean",
                   lat.admissionWait.sum() * 1000.0 /
                       static_cast<double>(lat.admissionWait.total()),
                   "ms");
        report.add("serve.jobs.run_ms.p50",
                   histogramQuantileMs(lat.runDuration, 0.5), "ms");
        report.add("serve.stream.frames", frames, "count");
        report.add("serve.stream.dropped", dropped, "count");
    }
    Harness h(servedWorkers());
    std::string error;
    if (!h.start(error)) {
        report.check(false, "served_mix: set-up failed: " + error);
        return;
    }
    const double untraced = runJobs(nullptr, h, nullptr);
    report.add("span.overhead.served_mix", traced / untraced - 1.0, "ratio");
}

} // namespace wgbench
