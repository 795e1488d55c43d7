/**
 * @file
 * suite_sweep: all 18 benchmarks x all 6 techniques at default options
 * through ExperimentRunner::runAll, cold cache every pass. The paper-
 * figure path: the simulation hot loop does nearly all the work and
 * trace/serve/snapshot/metrics do none, so this is the workload on
 * which a change to any of those layers should show no difference.
 *
 * Every timed pass runs in a fresh process of its own (wgbench
 * --suite-pass), so each pass's peak resident memory is read from a
 * clean high-water mark and memory kept by one pass cannot inflate the
 * next.
 *
 * A "job" here is one whole sweep pass, so jobs_per_s and job_ms_* on
 * this workload restate sim_instr_per_s; they are reported because
 * every workload reports every end-to-end metric.
 */

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>

#include <limits.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "sim/sm.hh"
#include "workload/generator.hh"
#include "workloads.hh"

namespace wgbench {

namespace {

constexpr int kSetupReps = 51;
constexpr std::size_t kMinPasses = 2;
/**
 * Host seconds one pass is budgeted (a pass takes about 6 s on a 4-CPU
 * host). The run does max(kMinPasses, seconds / kPassSeconds) passes,
 * a count that depends only on --seconds, so every run of one length
 * takes the same number of peak_rss_mb samples.
 */
constexpr double kPassSeconds = 6.0;

wg::SweepSpec
fullSweep(std::uint64_t sim_seed)
{
    wg::ExperimentOptions opts;
    opts.seed = sim_seed;
    return wg::SweepSpec(wg::benchmarkNames(), wg::allTechniques(), opts);
}

/**
 * One worker per host CPU: runAll() runs as a task on the pool and the
 * main thread blocks in future::get() without helping, so the workers
 * are the only runnable threads. (A caller that helps while it waits
 * nests whole cells on its stack, which raised the sweep's peak memory
 * further than runAll on a worker does.)
 */
unsigned
sweepWorkers()
{
    return hostCpus();
}

/** Run @p spec through runAll on a pool worker; the caller only waits. */
std::vector<const wg::SimResult*>
runAllOnPool(wg::ThreadPool& pool, wg::ExperimentRunner& runner,
             const wg::SweepSpec& spec)
{
    return pool.submit([&] { return runner.runAll(spec); }).get();
}

/** Check every cell of a pass against the stored digests. */
void
checkPass(const wg::SweepSpec& spec, std::uint64_t sim_seed,
          const std::vector<const wg::SimResult*>& results,
          const std::map<std::string, std::string>& digests, Report& report)
{
    std::size_t i = 0;
    for (const std::string& bench : spec.benches) {
        for (wg::Technique t : spec.techniques) {
            const std::string key =
                digestKey(sim_seed, bench, wg::techniqueName(t));
            const std::string got =
                digestHex(statDigest(wg::metrics::toStatSet(*results[i++])));
            auto it = digests.find(key);
            report.check(it != digests.end() && it->second == got,
                         "suite_sweep: digest mismatch for " + key +
                             " (got " + got + ")");
        }
    }
}

/** What one pass process reports; see runSuitePass(). */
struct PassOutcome
{
    double setupS = 0.0;
    double seconds = 0.0;
    std::uint64_t issued = 0;
    double peakMb = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
};

/**
 * Run `wgbench --suite-pass 1` in a fresh process, wait for it to end,
 * and parse what it printed. A process that cannot be started, fails or
 * prints no pass line comes back with an error.
 */
PassOutcome
spawnPass(const RunArgs& args)
{
    PassOutcome out;
    char exe[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    int fds[2];
    if (n <= 0 || pipe(fds) != 0) {
        out.errors.push_back("suite_sweep: cannot start a pass process");
        return out;
    }
    exe[n] = '\0';
    const std::string seed = std::to_string(args.seed);
    std::vector<std::string> argv_s = {exe,    "--suite-pass", "1",
                                       "--seed", seed,         "--digests",
                                       args.digestPath};
    std::vector<char*> argv;
    for (std::string& a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = -1;
    const int spawned =
        posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) != 0;) {
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            break;
        text.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    int status = 0;
    if (spawned == 0)
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    bool parsed = false;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        std::istringstream f(line);
        std::string tag;
        if (line.rfind("# FAILED: ", 0) == 0)
            out.errors.push_back(line.substr(10));
        else if ((f >> tag) && tag == "pass")
            parsed = static_cast<bool>(f >> out.setupS >> out.seconds >>
                                       out.issued >> out.peakMb >>
                                       out.attempted >> out.failed);
    }
    if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !parsed) {
        out.seconds = 0.0;
        out.errors.push_back("suite_sweep: pass process failed or printed "
                             "no result");
    }
    return out;
}

} // namespace

std::uint64_t
simSeedFor(std::uint64_t seed)
{
    return 1 + seed % kSimSeeds;
}

void
addEndToEnd(Report& report, double setup_s, double sim_instr_per_s,
            double peak_rss_mb, double jobs_per_s, const Quantile& p50,
            const Quantile& p95)
{
    report.add("setup_s", setup_s, "s");
    report.add("sim_instr_per_s", sim_instr_per_s, "1/s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
    report.add("jobs_per_s", jobs_per_s, "1/s");
    report.add("job_ms_p50", p50.value, "ms");
    report.add("job_ms_p95", p95.value, "ms");
    report.notes.push_back(
        "job latency samples: " + std::to_string(p50.samples) +
        " (beyond p50: " + std::to_string(p50.beyond) +
        ", beyond p95: " + std::to_string(p95.beyond) + ")");
}

int
runSuitePass(const RunArgs& args)
{
    const std::uint64_t sim_seed = simSeedFor(args.seed);
    const wg::SweepSpec spec = fullSweep(sim_seed);
    const unsigned workers = sweepWorkers();

    // Set-up: loading the stored digests, the pool start and the
    // runner's construction, timed as the median of many repetitions.
    // The pool and digests the pass uses are built once more after
    // them, followed by an untimed warm-up sweep of the first benchmark
    // on a runner of its own, so the timed pass starts cold-cached on a
    // warm pool and allocator.
    Report report;
    std::map<std::string, std::string> digests;
    std::string error;
    bool loaded = true;
    std::unique_ptr<wg::ThreadPool> pool;
    const double setup_s = medianSetupSeconds(
        kSetupReps,
        [&] {
            loaded = loadDigests(args.digestPath, digests, error) && loaded;
            pool = std::make_unique<wg::ThreadPool>(workers);
            wg::ExperimentRunner runner(spec.options.value(), pool.get());
        },
        [&] {
            pool.reset();
            digests.clear();
        });
    if (!loaded || !loadDigests(args.digestPath, digests, error)) {
        std::cout << "# FAILED: suite_sweep: " << error << std::endl;
        return 1;
    }
    pool = std::make_unique<wg::ThreadPool>(workers);
    {
        const wg::SweepSpec warm_spec({spec.benches.front()},
                                      spec.techniques, spec.options);
        wg::ExperimentRunner warm(spec.options.value(), pool.get());
        runAllOnPool(*pool, warm, warm_spec);
    }

    wg::ExperimentRunner runner(spec.options.value(), pool.get());
    const auto t0 = Clock::now();
    const std::vector<const wg::SimResult*> results =
        runAllOnPool(*pool, runner, spec);
    const double dt = secondsSince(t0);
    std::uint64_t issued = 0;
    for (const wg::SimResult* r : results)
        issued += r->aggregate.issuedTotal;
    checkPass(spec, sim_seed, results, digests, report);
    const double peak = peakRssMb();
    for (const std::string& e : report.errors)
        std::cout << "# FAILED: " << e << "\n";
    std::cout << "pass " << wg::metrics::formatMetricValue(setup_s) << ' '
              << wg::metrics::formatMetricValue(dt) << ' ' << issued << ' '
              << wg::metrics::formatMetricValue(peak) << ' '
              << report.attempted << ' ' << report.failed << std::endl;
    return 0;
}

void
runSuiteSweep(const RunArgs& args, Report& report)
{
    const std::uint64_t sim_seed = simSeedFor(args.seed);
    const wg::SweepSpec spec = fullSweep(sim_seed);
    report.notes.push_back("threads: " + std::to_string(sweepWorkers()) +
                           " pool workers (caller blocked) in each pass "
                           "process, " + std::to_string(hostCpus()) +
                           " host CPUs");
    report.notes.push_back("simulator seed " + std::to_string(sim_seed) +
                           ", " + std::to_string(spec.benches.size()) +
                           " benchmarks x " +
                           std::to_string(spec.techniques.size()) +
                           " techniques per pass");

    // Passes run one after another, each in a process of its own that
    // does its own set-up; this process only waits. Every figure is the
    // median over passes.
    const std::size_t passes =
        std::max(kMinPasses,
                 static_cast<std::size_t>(args.seconds / kPassSeconds));
    std::vector<double> setup_s, pass_ms, rates, peaks;
    double total_s = 0.0;
    for (std::size_t p = 0; p < passes; ++p) {
        PassOutcome pass = spawnPass(args);
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        for (const std::string& e : pass.errors)
            report.errors.push_back(e);
        if (pass.seconds <= 0.0) {
            report.check(false, "suite_sweep: pass " + std::to_string(p) +
                                    " reported no timing");
            continue;
        }
        setup_s.push_back(pass.setupS);
        pass_ms.push_back(pass.seconds * 1000.0);
        rates.push_back(static_cast<double>(pass.issued) / pass.seconds);
        peaks.push_back(pass.peakMb);
        total_s += pass.seconds;
    }
    report.notes.push_back("pass peaks (MB):");
    for (double mb : peaks)
        report.notes.back() += " " + wg::metrics::formatMetricValue(mb);
    addEndToEnd(report, median(setup_s), median(rates), median(peaks),
                static_cast<double>(pass_ms.size()) / total_s,
                quantile(pass_ms, 0.5), quantile(pass_ms, 0.95));
}

void
traceSuiteSweep(const RunArgs& args, SpanLog& spans, Report& report)
{
    const std::uint64_t sim_seed = simSeedFor(args.seed);
    const wg::SweepSpec spec = fullSweep(sim_seed);
    const wg::ExperimentOptions& opts = spec.options.value();
    const unsigned workers = sweepWorkers();
    wg::ThreadPool pool(workers);
    report.add("common.pool.threads", workers, "count");

    // workload: program generation of every cell, as SimSession::open
    // does it (one generator per cell, one program set per SM).
    {
        Span all(&spans, "workload.generate_all");
        for (const std::string& bench : spec.benches) {
            const wg::BenchmarkProfile& profile = wg::findBenchmark(bench);
            for (std::size_t t = 0; t < spec.techniques.size(); ++t) {
                Span cell(&spans, "workload.generate", all.id());
                wg::ProgramGenerator gen(opts.seed);
                for (unsigned sm = 0; sm < opts.numSms; ++sm)
                    (void)gen.generateSm(profile, sm);
            }
        }
    }
    report.add("workload.generate_s", spans.total("workload.generate"), "s");

    // core: one cold runAll pass; its simulated counts are the
    // denominators a simulator-speed change must leave unchanged.
    std::map<std::string, std::string> digests;
    std::string error;
    if (!loadDigests(args.digestPath, digests, error))
        report.errors.push_back("suite_sweep: " + error);
    std::vector<wg::StatSet> pooled;
    {
        wg::ExperimentRunner runner(opts, &pool);
        std::vector<const wg::SimResult*> results;
        {
            Span pass(&spans, "core.runAll");
            results = runAllOnPool(pool, runner, spec);
        }
        checkPass(spec, sim_seed, results, digests, report);
        double issued = 0, switches = 0, busy_int = 0, busy_fp = 0,
               busy_sfu = 0, busy_ldst = 0, misses = 0, rejects = 0,
               gates = 0, wakeups = 0;
        for (const wg::SimResult* r : results) {
            const wg::SmStats& a = r->aggregate;
            const wg::PgDomainStats in = r->typeStats(wg::UnitClass::Int);
            const wg::PgDomainStats fp = r->typeStats(wg::UnitClass::Fp);
            issued += static_cast<double>(a.issuedTotal);
            switches += static_cast<double>(a.prioritySwitches);
            busy_int += static_cast<double>(in.busyCycles);
            busy_fp += static_cast<double>(fp.busyCycles);
            busy_sfu += static_cast<double>(a.sfuBusyCycles);
            busy_ldst += static_cast<double>(a.ldstBusyCycles);
            misses += static_cast<double>(a.memMisses);
            rejects += static_cast<double>(a.mshrRejects);
            gates += static_cast<double>(in.gatingEvents + fp.gatingEvents +
                                         a.sfuCluster.pg.gatingEvents);
            wakeups += static_cast<double>(in.wakeups + fp.wakeups +
                                           a.sfuCluster.pg.wakeups);
            pooled.push_back(wg::metrics::toStatSet(*r));
        }
        report.add("core.runall_s", spans.total("core.runAll"), "s");
        report.add("sched.issued", issued, "count");
        report.add("sched.priority_switches", switches, "count");
        report.add("exec.busy_cycles.int", busy_int, "count");
        report.add("exec.busy_cycles.fp", busy_fp, "count");
        report.add("exec.busy_cycles.sfu", busy_sfu, "count");
        report.add("exec.busy_cycles.ldst", busy_ldst, "count");
        report.add("mem.misses", misses, "count");
        report.add("mem.mshr_rejects", rejects, "count");
        report.add("pg.gating_events", gates, "count");
        report.add("pg.wakeups", wakeups, "count");
    }

    // sim: the same cells submitted one per pool task, each simulated
    // serially inside its task, so a cell's span holds only its own
    // work (a cell that fans its SMs out would also time the foreign
    // tasks it helps run while waiting), and the caller waits without
    // helping. Run once with spans and once without for the span
    // overhead.
    struct Cell
    {
        const wg::BenchmarkProfile* profile;
        wg::GpuConfig config;
    };
    std::vector<Cell> cells;
    for (const std::string& bench : spec.benches)
        for (wg::Technique t : spec.techniques)
            cells.push_back(
                Cell{&wg::findBenchmark(bench), wg::makeConfig(t, opts)});
    auto cellPass = [&](SpanLog* log, std::vector<wg::StatSet>* out) {
        Span pass(log, "sim.cell_pass");
        const auto t0 = Clock::now();
        std::vector<std::future<wg::SimResult>> futures;
        for (const Cell& c : cells)
            futures.push_back(pool.submit([&c, log, &pass] {
                Span cell(log, "sim.cell", pass.id());
                return wg::Gpu(c.config).run(*c.profile, nullptr);
            }));
        for (std::size_t i = 0; i < futures.size(); ++i) {
            wg::SimResult r = futures[i].get();
            if (out)
                out->push_back(wg::metrics::toStatSet(r));
        }
        return secondsSince(t0);
    };
    std::vector<wg::StatSet> serial_cells;
    const double traced = cellPass(&spans, &serial_cells);
    const double untraced = cellPass(nullptr, nullptr);
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.check(i < pooled.size() &&
                         serial_cells[i].entries() == pooled[i].entries(),
                     "suite_sweep: per-cell serial result differs from "
                     "runAll for cell " + std::to_string(i));
    const std::vector<double> cell_s = spans.durations("sim.cell");
    double busy = 0.0;
    for (double s : cell_s)
        busy += s;
    report.add("common.pool.busy_frac", busy / (traced * workers), "ratio");
    report.add("sim.cell_s.p50", quantile(cell_s, 0.5).value, "s");
    report.add("sim.cell_s.p90", quantile(cell_s, 0.9).value, "s");
    report.add("sim.cell_s.max", quantile(cell_s, 1.0).value, "s");
    report.add("span.overhead.suite_sweep", traced / untraced - 1.0,
               "ratio");

    // sim: SM-level host cost and fast-forward coverage, every SM of
    // hotspot and bfs under WarpedGates, run directly and serially.
    const wg::GpuConfig wg_config =
        wg::makeConfig(wg::Technique::WarpedGates, opts);
    double cycles = 0.0;
    for (const char* bench : {"hotspot", "bfs"}) {
        const wg::BenchmarkProfile& profile = wg::findBenchmark(bench);
        wg::ProgramGenerator gen(opts.seed);
        double bench_cycles = 0.0, skipped = 0.0;
        for (unsigned s = 0; s < opts.numSms; ++s) {
            wg::Sm sm(wg_config.sm, gen.generateSm(profile, s),
                      wg::streamSeed(opts.seed, s));
            {
                Span span(&spans, "sim.sm_run");
                bench_cycles += static_cast<double>(sm.run().cycles);
            }
            skipped += static_cast<double>(sm.ffSkippedCycles());
        }
        cycles += bench_cycles;
        report.add(std::string("sim.ff_skipped_frac.") + bench,
                   skipped / bench_cycles, "ratio");
    }
    report.add("sim.host_ns_per_sm_cycle",
               spans.total("sim.sm_run") * 1e9 / cycles, "ns");
}

bool
writeSuiteDigests(const std::string& path, std::string& error)
{
    std::ofstream out(path);
    if (!out) {
        error = "cannot write " + path;
        return false;
    }
    out << "# Per-cell digests of metrics::toStatSet for the suite_sweep\n"
           "# workload: FNV-1a 64 over name=value lines (see helpers.hh).\n"
           "# Regenerate with: wgbench --write-digests <this file>\n"
           "# <simulator seed> <benchmark> <technique> <digest>\n";
    wg::ThreadPool pool(sweepWorkers());
    for (std::uint64_t seed = 1; seed <= kSimSeeds; ++seed) {
        const wg::SweepSpec spec = fullSweep(seed);
        wg::ExperimentRunner runner(spec.options.value(), &pool);
        std::vector<const wg::SimResult*> results = runner.runAll(spec);
        std::size_t i = 0;
        for (const std::string& bench : spec.benches)
            for (wg::Technique t : spec.techniques)
                out << digestKey(seed, bench, wg::techniqueName(t)) << ' '
                    << digestHex(statDigest(
                           wg::metrics::toStatSet(*results[i++])))
                    << '\n';
    }
    out.flush();
    if (!out) {
        error = "write failed: " + path;
        return false;
    }
    return true;
}

} // namespace wgbench
