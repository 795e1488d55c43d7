/**
 * @file
 * Fixed-bin histogram used for idle-period-length distributions.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace wg {

/**
 * Histogram over non-negative integer samples with unit-width bins
 * [0, maxBin]; samples above maxBin land in the overflow bin.
 *
 * Used primarily for idle-period lengths (Fig. 3 of the paper), where the
 * interesting range is 0..~25 cycles and everything longer is "long".
 */
class Histogram
{
  public:
    /** @param max_bin largest sample with its own bin. */
    explicit Histogram(std::uint64_t max_bin = 64);

    /**
     * Rebuild a histogram from serialized internals (the wire format's
     * deserialization path). @p sum must be carried explicitly because
     * overflow samples pool with their individual values erased — it is
     * not recoverable from the bins. The caller validates
     * total == sum(bins) + overflow before calling.
     */
    static Histogram fromRaw(std::uint64_t max_bin,
                             std::vector<std::uint64_t> bins,
                             std::uint64_t overflow, std::uint64_t total,
                             std::uint64_t sum);

    /** Record one sample. */
    void add(std::uint64_t sample, std::uint64_t count = 1);

    /** Merge another histogram (same max_bin required). */
    void merge(const Histogram& other);

    /** Discard all samples. */
    void reset();

    /** @return count in bin @p b (b <= maxBin). */
    std::uint64_t bin(std::uint64_t b) const;

    /** @return count of samples strictly greater than maxBin. */
    std::uint64_t overflow() const { return overflow_; }

    /** @return total samples recorded. */
    std::uint64_t total() const { return total_; }

    /** @return largest per-bin sample value. */
    std::uint64_t maxBin() const { return max_bin_; }

    /** @return sum of all recorded sample values. */
    std::uint64_t sum() const { return sum_; }

    /** @return arithmetic mean of samples (0 when empty). */
    double mean() const;

    /**
     * Fraction of samples with value in [lo, hi] (inclusive). hi beyond
     * maxBin includes the overflow bin. Returns 0 when empty.
     */
    double fractionBetween(std::uint64_t lo, std::uint64_t hi) const;

    /**
     * Fraction of samples with value strictly greater than @p bound.
     *
     * Contract: @p bound saturates at maxBin(). Samples above maxBin()
     * are pooled in the overflow bin with their individual values
     * erased, so for bound > maxBin() the true fraction is
     * unknowable; the clamp makes fractionAbove(bound) ==
     * fractionAbove(maxBin()) (the whole overflow mass, an upper
     * bound on the truth) instead of silently pretending bin-level
     * resolution exists up there.
     */
    double fractionAbove(std::uint64_t bound) const;

    bool operator==(const Histogram&) const = default;

  private:
    std::uint64_t max_bin_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_;
    std::uint64_t total_;
    std::uint64_t sum_;
};

/**
 * Fixed-boundary latency histogram in the OpenMetrics shape: a sample
 * lands in the first bucket whose upper bound (inclusive, "le") is >=
 * the sample; everything above the last bound lands in the implicit
 * +Inf bucket. Sum and count are carried so `_sum`/`_count` series can
 * be exported alongside the cumulative `_bucket{le=...}` series.
 *
 * The class is clock-free and not thread-safe; callers record under
 * their own lock and export from a copied snapshot.
 */
class LatencyHistogram
{
  public:
    /** Default bounds: 1ms..300s, roughly log-spaced (seconds). */
    LatencyHistogram();

    /** @param bounds ascending upper bounds in seconds, +Inf excluded. */
    explicit LatencyHistogram(std::vector<double> bounds);

    /** Record one latency sample (seconds; negative clamps to 0). */
    void record(double seconds);

    /** Ascending finite bucket bounds (seconds). */
    const std::vector<double>& bounds() const { return bounds_; }

    /** Non-cumulative count of bucket @p i; i == bounds().size() is +Inf. */
    std::uint64_t bucket(std::size_t i) const;

    /** Cumulative count of samples <= bounds()[i] (OpenMetrics `le`). */
    std::uint64_t cumulative(std::size_t i) const;

    /** Total samples recorded (the +Inf cumulative count). */
    std::uint64_t total() const { return total_; }

    /** Sum of all recorded sample values (seconds). */
    double sum() const { return sum_; }

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_; ///< bounds_.size() + 1 (+Inf last)
    std::uint64_t total_;
    double sum_;
};

} // namespace wg

