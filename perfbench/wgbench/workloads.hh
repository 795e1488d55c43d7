/**
 * @file
 * The benchmark's four workloads. Each run*() function performs one
 * end-to-end run (span tracing off) and fills the report with the six
 * end-to-end metrics; each trace*() function runs a fixed amount of
 * the same workload with spans on, fills the per-layer metrics of the
 * layers that workload drives, and reports the span overhead against
 * the same work untraced.
 *
 * Every workload owns its ThreadPool, sized from the host's CPUs so
 * that pool workers plus the threads that also run work (the waiting
 * caller, the server connection and client) never exceed them.
 * ThreadPool::global() is never created.
 */

#pragma once

#include <cstdint>
#include <string>

#include "helpers.hh"

namespace wgbench {

/** Command-line inputs of one run. */
struct RunArgs
{
    std::uint64_t seed = 1;   ///< benchmark seed: all inputs derive from it
    double seconds = 10.0;    ///< length of the timed phase
    std::string digestPath;   ///< stored suite digests (suite_sweep)
};

/**
 * Simulator seed of a benchmark seed. The stored suite digests cover
 * these simulator seeds, so any benchmark seed can be verified.
 */
std::uint64_t simSeedFor(std::uint64_t seed);

/** Number of simulator seeds simSeedFor() maps onto (1..n). */
inline constexpr std::uint64_t kSimSeeds = 4;

void runSuiteSweep(const RunArgs& args, Report& report);

/**
 * One timed suite_sweep pass, the body of `wgbench --suite-pass 1`:
 * set-up, untimed warm-up, the pass and its digest check, in this
 * process. Prints "# FAILED: <why>" lines and then one line
 * "pass <setup_s> <pass_s> <issued> <peak_rss_mb> <checked> <failed>"
 * for runSuiteSweep() to read. @return the process exit code.
 */
int runSuitePass(const RunArgs& args);
void runEventTrace(const RunArgs& args, Report& report);
void runServedMix(const RunArgs& args, Report& report);
void runCheckpointChain(const RunArgs& args, Report& report);

void traceSuiteSweep(const RunArgs& args, SpanLog& spans, Report& report);
void traceEventTrace(const RunArgs& args, SpanLog& spans, Report& report);
void traceServedMix(const RunArgs& args, SpanLog& spans, Report& report);
void traceCheckpointChain(const RunArgs& args, SpanLog& spans,
                          Report& report);

/**
 * Recompute every suite cell for simulator seeds 1..kSimSeeds and
 * write the digest file runSuiteSweep() checks against.
 */
bool writeSuiteDigests(const std::string& path, std::string& error);

/** The six end-to-end metrics every workload reports, in order. */
void addEndToEnd(Report& report, double setup_s, double sim_instr_per_s,
                 double peak_rss_mb, double jobs_per_s,
                 const Quantile& p50, const Quantile& p95);

} // namespace wgbench
