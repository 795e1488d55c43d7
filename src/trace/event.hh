/**
 * @file
 * Typed cycle-level trace events.
 *
 * Every observable transition the Warped Gates claims rest on — idle
 * windows opening, gate/ungate decisions, break-even countdowns,
 * critical wakeups, adaptive-window updates, warp migrations, MSHR
 * occupancy — is recorded as one fixed-size Event. Events are plain
 * values; the 16-byte layout keeps a full ring of them cache-friendly
 * and cheap to copy into sinks.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/types.hh"

namespace wg::trace {

/** Kinds of recorded transitions. */
enum class EventKind : std::uint8_t {
    Issue,          ///< instruction issued; unit/cluster, value = warp
    UnitIdle,       ///< pipeline went empty (idle-window start)
    UnitBusy,       ///< pipeline occupied again; value = idle-run length
    Gate,           ///< sleep transistor off; arg = GateReason,
                    ///< value = ACTV count of the type at the decision
    BetExpire,      ///< blackout compensated; value = held cycles
    WakeupDenied,   ///< request arrived during blackout hold
    Wakeup,         ///< sleep transistor on; arg = WakeReason
    WakeupDone,     ///< unit operational again (end of wakeup delay)
    EpochUpdate,    ///< adaptive window closed an epoch; unit = type,
                    ///< arg = critical wakeups (saturated at 255),
                    ///< value = new idle-detect window
    PrioritySwitch, ///< GATES HI/LO flip; unit = new HI class
    GreedySwitch,   ///< GTO switched its greedy warp; value = new warp
    WarpMigrate,    ///< warp moved sets; arg = new WarpLoc, value = warp
    MshrFill,       ///< miss allocated an MSHR; value = outstanding now
    MshrDrain,      ///< miss retired its MSHR; value = outstanding now
    MshrReject,     ///< LD/ST issues refused this cycle: MSHR pool
                    ///< full; at most one per cycle, recorded after
                    ///< the cycle's issues, value = refused attempts
};

/** Number of distinct EventKind values. */
inline constexpr std::size_t kNumEventKinds = 15;

/** Why a cluster was gated. */
enum class GateReason : std::uint8_t {
    IdleDetect, ///< idle-detect counter reached the window
    CoordDrain, ///< coordinated blackout: peer gated and ACTV == 0
};

/** Why a cluster was woken. */
enum class WakeReason : std::uint8_t {
    Demand,        ///< issue-blocked wakeup request, past break-even
    Critical,      ///< request was pending the cycle blackout ended
    Uncompensated, ///< conventional gating woke before break-even
};

/** Sentinel for events with no unit/cluster association. */
inline constexpr std::uint8_t kNoUnit = 0xff;
inline constexpr std::uint8_t kNoCluster = 0xff;

/** One recorded transition. */
struct Event
{
    Cycle cycle = 0;               ///< core-clock cycle of the event
    EventKind kind = EventKind::Issue;
    std::uint8_t unit = kNoUnit;   ///< UnitClass value, or kNoUnit
    std::uint8_t cluster = kNoCluster; ///< cluster index, or kNoCluster
    std::uint8_t arg = 0;          ///< kind-specific small payload
    std::uint32_t value = 0;       ///< kind-specific payload

    bool operator==(const Event&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        using S = Event;
        v("cycle", &S::cycle);
        v("kind", &S::kind);
        v("unit", &S::unit);
        v("cluster", &S::cluster);
        v("arg", &S::arg);
        v("value", &S::value);
    }
};

static_assert(visitsEveryMember<Event>());

/** Printable names (stable identifiers used by every sink). */
const char* eventKindName(EventKind kind);
const char* gateReasonName(GateReason reason);
const char* wakeReasonName(WakeReason reason);

/**
 * Parse a kind/reason name back into its enum (sink round-trip for the
 * offline checker). @return false when @p name is unknown.
 */
bool parseEventKind(const char* name, EventKind& out);
bool parseGateReason(const char* name, GateReason& out);
bool parseWakeReason(const char* name, WakeReason& out);

/**
 * Trace schema version the sinks write. Version 2 folds a cycle's
 * MSHR-refused issue attempts into one mshr-reject event carrying the
 * count (`attempts`); version 1 recorded one event per attempt, with
 * the outstanding-miss count (always the MSHR limit) as payload.
 */
inline constexpr std::uint32_t kSchemaVersion = 2;

/**
 * Trace-wide metadata every sink emits ahead of the event stream and
 * the invariant checker needs to replay a run: the gating policy and
 * its parameters. Plain strings/integers so the trace subsystem stays
 * below sim/ and pg/ in the dependency order.
 */
struct Meta
{
    std::uint32_t version = kSchemaVersion; ///< schema version
    std::string policy;         ///< pgPolicyName of the INT/FP domains
    std::string scheduler;      ///< schedulerPolicyName
    std::uint32_t numSms = 0;
    Cycle idleDetect = 0;       ///< initial idle-detect window
    Cycle breakEven = 0;        ///< BET (cycles)
    Cycle wakeupDelay = 0;      ///< wakeup latency (cycles)
    bool adaptive = false;      ///< adaptive idle detect enabled
    Cycle idleDetectMin = 0;
    Cycle idleDetectMax = 0;
    Cycle epochLength = 0;
    std::uint32_t criticalThreshold = 0;
    std::uint32_t decrementEpochs = 0;
    bool gateSfu = false;       ///< SFU runs conventional gating
};

} // namespace wg::trace

