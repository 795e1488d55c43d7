/**
 * @file
 * Adaptive idle-detect (paper Section 5.1): per-unit-type runtime
 * adjustment of the idle-detect window from the critical-wakeup rate.
 */

#pragma once

#include <cstdint>

#include "common/fields.hh"

#include "pg/params.hh"

namespace wg {

/**
 * Checkpoint state of one adaptive idle-detect regulator.
 */
struct AdaptiveState {
    Cycle value = 0;              ///< current idle-detect window
    std::uint32_t goodEpochs = 0; ///< consecutive epochs under threshold
    std::uint64_t increments = 0; ///< increments applied (diagnostics)
    std::uint64_t decrements = 0; ///< decrements applied (diagnostics)

    bool operator==(const AdaptiveState&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        v("value", &AdaptiveState::value);
        v("goodEpochs", &AdaptiveState::goodEpochs);
        v("increments", &AdaptiveState::increments);
        v("decrements", &AdaptiveState::decrements);
    }
};

static_assert(visitsEveryMember<AdaptiveState>());

/**
 * One adaptive idle-detect regulator. Instantiated per unit type (one
 * for INT, one for FP), because each type sees a different instruction
 * mix and reaches its own operating point.
 *
 * Policy: at each epoch end, if the epoch's critical wakeups exceed the
 * threshold, increment idle-detect (gate more conservatively) — react
 * quickly to performance-critical phases. Decrement only after
 * `decrementEpochs` consecutive epochs under the threshold — back off
 * slowly. The value is bounded to [idleDetectMin, idleDetectMax].
 */
class AdaptiveIdleDetect
{
  public:
    explicit AdaptiveIdleDetect(const PgParams& params);

    /** Current idle-detect window. */
    Cycle value() const { return value_; }

    /**
     * Close an epoch.
     * @param critical_wakeups critical wakeups observed this epoch
     *        across both clusters of the unit type
     */
    void endEpoch(std::uint32_t critical_wakeups);

    /** Number of increments applied (diagnostics). */
    std::uint64_t increments() const { return increments_; }

    /** Number of decrements applied (diagnostics). */
    std::uint64_t decrements() const { return decrements_; }

    /** Capture the regulator for a checkpoint. */
    AdaptiveState
    saveState() const
    {
        return AdaptiveState{value_, good_epochs_, increments_,
                             decrements_};
    }

    /** Rebuild the regulator from a captured AdaptiveState. */
    void
    restoreState(const AdaptiveState& s)
    {
        value_ = s.value;
        good_epochs_ = s.goodEpochs;
        increments_ = s.increments;
        decrements_ = s.decrements;
    }

  private:
    PgParams params_;
    Cycle value_;
    std::uint32_t good_epochs_ = 0;
    std::uint64_t increments_ = 0;
    std::uint64_t decrements_ = 0;
};

} // namespace wg

