/**
 * @file
 * Helpers the benchmark's workloads share: host timing,
 * percentiles with their sample counts, a byte-counting output stream,
 * result digests, peak-memory readout, in-memory spans, and the report
 * every run prints.
 *
 * Host time is always std::chrono::steady_clock. Simulated statistics
 * are deterministic, so they are compared exactly (digests, byte
 * equality) and never timed.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace wgbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** A quantile of a sample, with the counts needed to judge it. */
struct Quantile
{
    double value = 0.0;     ///< linear interpolation between ranks
    std::size_t samples = 0; ///< sample size
    std::size_t beyond = 0;  ///< samples strictly above the value
};

/**
 * The @p q quantile (0 <= q <= 1) of @p samples, interpolated linearly
 * between the two closest ranks (q = 0.5 on an even count is the mean
 * of the middle pair). An empty sample gives value 0, samples 0.
 */
Quantile quantile(std::vector<double> samples, double q);

/** quantile(samples, 0.5).value. */
double median(std::vector<double> samples);

/**
 * An output stream that keeps nothing: it counts the bytes written to
 * it, so a sink can be driven at full speed without disk or memory.
 */
class CountingStream : public std::ostream
{
  public:
    CountingStream();

    /** Bytes written so far. */
    std::uint64_t bytes() const { return buf_.bytes; }

  private:
    struct Buf : std::streambuf
    {
        std::uint64_t bytes = 0;
        int_type overflow(int_type ch) override;
        std::streamsize xsputn(const char* s, std::streamsize n) override;
    };
    Buf buf_;
};

/** FNV-1a 64 hash of @p bytes. */
std::uint64_t fnv1a(const std::string& bytes);

/**
 * FNV-1a 64 digest of a statistics registry: every "name=value\n"
 * line in name order, values formatted exactly as the metrics
 * exporters print them. Equal registries digest equally on any host.
 */
std::uint64_t statDigest(const wg::StatSet& set);

/** A digest as 16 lowercase hex digits. */
std::string digestHex(std::uint64_t digest);

/**
 * Peak resident set of this process (MB) since it started
 * (getrusage). Each run is its own process, so no other workload's
 * peak is included.
 */
double peakRssMb();

/** Lines the calibration's CPU loop formats. */
inline constexpr std::uint32_t kCalibrationSteps = 2'000'000;
/** Slots (4 bytes each) of the calibration's pointer-chase table. */
inline constexpr std::uint32_t kChaseSlots = 1u << 23;
/** Dependent loads of the calibration's pointer chase. */
inline constexpr std::uint32_t kChaseSteps = 1'000'000;

/** Host time (ms) of the two fixed calibration loops. */
struct HostCalibration
{
    double cpuMs = 0.0;    ///< kCalibrationSteps snprintf calls
    double memoryMs = 0.0; ///< kChaseSteps dependent loads, 32 MB table
};

/**
 * Time two fixed single-threaded loops: one CPU-bound, one bound by
 * memory latency. run.py runs them (wgbench --calibrate 1) in a
 * process of their own just before and just after every run, so a
 * drift of the host's own speed is measured, not assumed, and the
 * table they touch stays out of the run's peak_rss_mb. Neither is part
 * of any metric.
 */
HostCalibration hostCalibration();

/** Host CPUs available to this process (at least 1). */
unsigned hostCpus();

/**
 * Median host seconds of @p reps runs of @p setup. Run r is pinned to
 * the (r mod n)-th of the process's n CPUs, and @p teardown runs
 * untimed after each; the calling thread's affinity is restored at the
 * end. On a shared host one CPU's speed drifts by up to 1.6x against
 * another's, so a median taken on whichever CPU the process landed on
 * moved between runs; rotating spreads every median over all of them.
 * Threads @p setup starts inherit the pin, so nothing it builds may be
 * kept for the timed phase.
 */
double medianSetupSeconds(int reps, const std::function<void()>& setup,
                          const std::function<void()>& teardown);

/**
 * Spans kept in memory: one record per timed call into a layer, with
 * the span that caused it. Thread-safe (cells run on pool threads).
 * Untraced runs pass a null SpanLog* instead.
 */
class SpanLog
{
  public:
    /** Open a span; @return its id (ids start at 1). */
    std::uint64_t open(const std::string& name, std::uint64_t parent = 0);

    /** Close span @p id. */
    void close(std::uint64_t id);

    /** Durations (s) of every closed span named @p name. */
    std::vector<double> durations(const std::string& name) const;

    /** Sum of durations(name). */
    double total(const std::string& name) const;

    /** Write every record as one JSON object per line. */
    void write(std::ostream& os) const;

  private:
    struct Record
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        double start = 0.0;       ///< seconds since the log was created
        double end = -1.0;        ///< -1 while open
    };

    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Record> records_;
};

/** RAII span; a null log makes it a no-op with id 0. */
class Span
{
  public:
    Span(SpanLog* log, const std::string& name, std::uint64_t parent = 0)
        : log_(log), id_(log ? log->open(name, parent) : 0)
    {
    }
    ~Span()
    {
        if (log_)
            log_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog* log_;
    std::uint64_t id_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run reports: metrics plus operation outcomes. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< one line per failed check
    std::vector<std::string> notes;  ///< context printed before the result

    void add(const std::string& name, double value,
             const std::string& unit);

    /** Count one operation; a false @p ok counts it failed with @p why. */
    void check(bool ok, const std::string& why);

    /** The final JSON line: correct/attempted/failed/metrics. */
    std::string jsonLine() const;
};

/**
 * Stored per-cell digests, keyed "seed bench technique". Lines are
 * "<seed> <bench> <technique> <hex digest>"; '#' starts a comment.
 * @return false with @p error when the file cannot be read or a line
 * is malformed.
 */
bool loadDigests(const std::string& path,
                 std::map<std::string, std::string>& out,
                 std::string& error);

/** The loadDigests() key of one cell. */
std::string digestKey(std::uint64_t seed, const std::string& bench,
                      const std::string& technique);

} // namespace wgbench
