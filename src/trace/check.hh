/**
 * @file
 * Gating-invariant checker: replays an event trace and verifies the
 * properties the paper's claims rest on.
 *
 * Checked invariants:
 *   1. A gated (or still-waking) cluster never issues an instruction.
 *   2. Blackout holds: under Naive/Coordinated Blackout a cluster stays
 *      gated for at least the break-even time, and no uncompensated
 *      wakeup is ever recorded.
 *   3. Coordinated Blackout never gates the second cluster of a type
 *      while warps of that type wait in the active subset (ACTV > 0).
 *   4. The adaptive idle-detect window stays inside
 *      [idleDetectMin, idleDetectMax] and follows the fast-increase /
 *      slow-decrease schedule exactly (the checker runs a replica
 *      regulator from the per-epoch critical-wakeup counts).
 *
 * Plus stream-consistency checks (gate while gated, wakeup without a
 * gate, break-even expiry at the wrong cycle, more than one mshr-reject
 * per cycle or one with zero attempts) that catch corrupted or
 * reordered traces. The checker is sink-agnostic: it consumes decoded
 * Events, either straight from a Collector or parsed back from a JSONL
 * file by tools/wgtrace.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.hh"

namespace wg::trace {

/** One detected invariant violation. */
struct Violation
{
    SmId sm = 0;
    Cycle cycle = 0;
    std::string unit;    ///< e.g. "INT0", "FP1", "SFU"
    std::string message; ///< human-readable description

    /** "sm 3 cycle 1234 INT0: …" rendering for reports. */
    std::string toString() const;
};

/** Replays one trace; feed events per SM in chronological order. */
class InvariantChecker
{
  public:
    explicit InvariantChecker(const Meta& meta);

    /**
     * Mark @p sm's stream as truncated (ring wrapped): its per-lane
     * state may start mid-period, so checks for that SM are suppressed
     * and a warning is recorded instead.
     */
    void noteTruncated(SmId sm, std::uint64_t lost);

    /** Consume one event. Events of one SM must arrive in order. */
    void feed(SmId sm, const Event& event);

    const std::vector<Violation>& violations() const
    {
        return violations_;
    }

    /** Non-fatal observations (e.g. truncated streams). */
    const std::vector<std::string>& warnings() const { return warnings_; }

    /** Events consumed, total and per kind. */
    std::uint64_t eventCount() const { return events_; }
    std::uint64_t eventCount(EventKind kind) const
    {
        return by_kind_[static_cast<std::size_t>(kind)];
    }

    /**
     * MSHR-refused issue attempts summed over every mshr-reject event
     * (feed version-1 events with value 1: one attempt per event).
     */
    std::uint64_t mshrRejectAttempts() const { return reject_attempts_; }

    const Meta& meta() const { return meta_; }

  private:
    /** Gating state of one gateable pipeline. */
    struct Lane
    {
        bool gated = false;     ///< between Gate and Wakeup
        bool waking = false;    ///< between Wakeup and WakeupDone
        bool everGated = false;
        Cycle gateCycle = 0;
    };

    /** Replica of one adaptive idle-detect regulator. */
    struct Regulator
    {
        Cycle value = 0;
        std::uint32_t goodEpochs = 0;
    };

    static constexpr std::size_t kLanesPerSm = 5; // INT0/1, FP0/1, SFU

    /** Lane index of a (unit, cluster), or -1 for non-gateable units. */
    static int laneIndex(std::uint8_t unit, std::uint8_t cluster);
    static std::string laneName(std::size_t lane);

    Lane& lane(SmId sm, std::size_t lane_idx);
    Regulator& regulator(SmId sm, std::size_t type);
    bool truncated(SmId sm) const;

    void addViolation(SmId sm, Cycle cycle, const std::string& unit,
                      std::string message);

    void checkIssue(SmId sm, const Event& e);
    void checkGate(SmId sm, const Event& e);
    void checkBetExpire(SmId sm, const Event& e);
    void checkWakeup(SmId sm, const Event& e);
    void checkWakeupDone(SmId sm, const Event& e);
    void checkEpochUpdate(SmId sm, const Event& e);
    void checkMshrReject(SmId sm, const Event& e);

    Meta meta_;
    bool blackout_ = false;     ///< policy forbids pre-BET wakeups
    bool coordinated_ = false;  ///< coordinated cluster rules apply

    std::vector<std::array<Lane, kLanesPerSm>> lanes_;      // per SM
    std::vector<std::array<Regulator, 2>> regulators_;      // per SM
    std::vector<bool> truncated_;                           // per SM
    std::vector<Cycle> last_reject_;  // per SM; kNeverCycle = none yet

    std::vector<Violation> violations_;
    std::vector<std::string> warnings_;
    std::uint64_t events_ = 0;
    std::uint64_t reject_attempts_ = 0;
    std::array<std::uint64_t, kNumEventKinds> by_kind_ = {};
};

/**
 * Convenience: replay every recorder of @p collector (flagging wrapped
 * rings) and return the violations.
 */
std::vector<Violation> checkCollector(const Collector& collector);

} // namespace wg::trace

