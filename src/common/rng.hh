/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be bit-reproducible across runs and platforms, so we
 * carry our own PCG32 implementation instead of relying on libstdc++
 * distribution internals.
 */

#pragma once

#include <cstdint>

#include "common/fields.hh"

namespace wg {

/**
 * SplitMix64 step: advance @p x by the golden-ratio increment and run
 * the finalizer. Nearby inputs produce statistically unrelated outputs
 * (full avalanche), which is what makes it safe for deriving seed
 * streams from small consecutive indices.
 */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Derive the seed for sub-stream @p stream of experiment seed @p seed
 * (e.g. the per-SM RNG streams of one GPU run). Both arguments go
 * through SplitMix64 mixing, so distinct (seed, stream) pairs give
 * decorrelated streams even when seeds or stream indices are adjacent
 * small integers — unlike a linear a*seed + b*stream mix, where nearby
 * pairs yield seeds at a constant offset and thus correlated PCG
 * sequences.
 */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Raw PCG32 generator state, exposed for checkpoint/resume. The pair
 * fully determines the future output sequence; restoring it with
 * Rng::fromState() continues the stream bit-identically.
 */
struct RngState {
    std::uint64_t state = 0; ///< PCG LCG accumulator
    std::uint64_t inc = 1;   ///< stream increment (always odd)

    bool operator==(const RngState&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        v("state", &RngState::state);
        v("inc", &RngState::inc);
    }
};

static_assert(visitsEveryMember<RngState>());

/**
 * PCG32 (pcg_xsh_rr_64_32) generator. Small state, excellent statistical
 * quality, and fully deterministic given (seed, stream).
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** @return the next raw 32-bit value. */
    std::uint32_t nextU32();

    /** @return a uniform value in [0, bound). bound must be non-zero. */
    std::uint32_t nextRange(std::uint32_t bound);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability p (clamped to [0,1]). */
    bool nextBool(double p);

    /**
     * Sample a geometric distribution: number of failures before the
     * first success with success probability p in (0, 1].
     */
    std::uint32_t nextGeometric(double p);

    /** Derive an independent child generator (for per-warp streams). */
    Rng fork(std::uint64_t salt);

    /** Capture the raw generator state for a checkpoint. */
    RngState
    saveState() const
    {
        return RngState{state_, inc_};
    }

    /** Rebuild a generator mid-stream from a captured RngState. */
    static Rng
    fromState(const RngState& s)
    {
        Rng r;
        r.state_ = s.state;
        r.inc_ = s.inc;
        return r;
    }

    /** Overwrite this generator's stream position from a checkpoint. */
    void
    restoreState(const RngState& s)
    {
        state_ = s.state;
        inc_ = s.inc;
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace wg

