/**
 * @file
 * Power-gating state machine for one gateable cluster (paper Fig. 2c).
 */

#pragma once

#include <cstdint>

#include "common/fields.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "pg/params.hh"
#include "trace/recorder.hh"

namespace wg {

/**
 * Controller state. "On" is the paper's Idle_detect state: the unit is
 * powered and the idle-detect counter is running.
 */
enum class PgState : std::uint8_t { On, Uncompensated, Compensated, Wakeup };

/** Printable state name. */
const char* pgStateName(PgState state);

/** Event and cycle counters exposed by a domain. */
struct PgDomainStats
{
    std::uint64_t busyCycles = 0;      ///< pipeline occupied
    std::uint64_t idleOnCycles = 0;    ///< powered but idle (leaking)
    std::uint64_t uncompCycles = 0;    ///< gated, before break-even
    std::uint64_t compCycles = 0;      ///< gated, past break-even
    std::uint64_t wakeupCycles = 0;    ///< waking (leaking, no work)
    std::uint64_t gatingEvents = 0;    ///< sleep-transistor off events
    std::uint64_t wakeups = 0;         ///< sleep-transistor on events
    std::uint64_t uncompWakeups = 0;   ///< wakeups before break-even
    std::uint64_t criticalWakeups = 0; ///< wakeups at blackout end
    std::uint64_t coordImmediateGates = 0; ///< coordinated fast gates
    std::uint64_t coordGateVetoes = 0; ///< coordinated gating vetoes

    std::uint64_t
    gatedCycles() const
    {
        return uncompCycles + compCycles;
    }

    /**
     * Sum another domain's counters into this one. Every aggregation
     * path (ClusterStats::merge, SimResult::typeStats) delegates here,
     * and every counter sums, so the merge walks visitFields: a new
     * counter needs no line here.
     */
    void merge(const PgDomainStats& other) { mergeFields(*this, other); }

    bool operator==(const PgDomainStats&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        using S = PgDomainStats;
        v("busyCycles", &S::busyCycles);
        v("idleOnCycles", &S::idleOnCycles);
        v("uncompCycles", &S::uncompCycles);
        v("compCycles", &S::compCycles);
        v("wakeupCycles", &S::wakeupCycles);
        v("gatingEvents", &S::gatingEvents);
        v("wakeups", &S::wakeups);
        v("uncompWakeups", &S::uncompWakeups);
        v("criticalWakeups", &S::criticalWakeups);
        v("coordImmediateGates", &S::coordImmediateGates);
        v("coordGateVetoes", &S::coordGateVetoes);
    }
};

static_assert(visitsEveryMember<PgDomainStats>());

/**
 * Checkpoint state of one power-gating domain: the Fig. 2c state
 * machine registers, the in-progress idle run, the lifetime counters
 * and the idle-period histogram.
 */
struct PgDomainState {
    std::uint8_t state = 0;         ///< PgState
    Cycle idleCount = 0;            ///< idle-detect counter (On state)
    Cycle betRemaining = 0;         ///< countdown in gated states
    Cycle wakeupRemaining = 0;      ///< countdown in Wakeup state
    Cycle compensatedAt = kNeverCycle; ///< cycle BET expired
    bool wakeupRequested = false;   ///< request pending for next tick
    std::uint64_t idleRun = 0;      ///< current idle-period length
    std::uint32_t epochCritical = 0; ///< critical wakeups this epoch
    PgDomainStats stats;            ///< lifetime event/cycle counters
    Histogram idleHist;             ///< idle-period-length distribution

    bool operator==(const PgDomainState&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        using S = PgDomainState;
        v("state", &S::state);
        v("idleCount", &S::idleCount);
        v("betRemaining", &S::betRemaining);
        v("wakeupRemaining", &S::wakeupRemaining);
        v("compensatedAt", &S::compensatedAt);
        v("wakeupRequested", &S::wakeupRequested);
        v("idleRun", &S::idleRun);
        v("epochCritical", &S::epochCritical);
        v("stats", &S::stats);
        v("idleHist", &S::idleHist);
    }
};

static_assert(visitsEveryMember<PgDomainState>());

/**
 * One gateable execution cluster's power-gating controller.
 *
 * Per-cycle protocol (driven by PgController):
 *   1. during issue, the SM calls requestWakeup() when it wants an
 *      instruction to run on a gated/waking cluster;
 *   2. after issue, tick() advances the state machine with this cycle's
 *      busy indication and the effective idle-detect value.
 *
 * The domain also records the unit's idle-period-length histogram
 * (Fig. 3): an idle period is a maximal run of cycles during which the
 * pipeline is empty, regardless of gating state.
 */
class PgDomain
{
  public:
    /**
     * @param params policy parameters (policy None = never gates)
     * @param hist_max largest idle-period bin tracked individually
     */
    explicit PgDomain(const PgParams& params, std::uint64_t hist_max = 64);

    /** @return true when the cluster can execute instructions. */
    bool canExecute() const { return state_ == PgState::On; }

    /** @return true in Uncompensated or Compensated. */
    bool
    isGated() const
    {
        return state_ == PgState::Uncompensated ||
               state_ == PgState::Compensated;
    }

    /**
     * @return true when a wakeup request this cycle would be honoured
     * (used by the SM to pick which cluster of a pair to wake).
     */
    bool wakeable() const;

    /** Scheduler wants this cluster; handled at the next tick(). */
    void requestWakeup(Cycle now);

    /**
     * Advance one cycle.
     * @param now current cycle
     * @param busy pipeline-occupied indication for this cycle
     * @param idle_detect effective idle-detect window (adaptive value)
     * @param coord_peer_gated Coordinated Blackout: the other cluster of
     *        this type is currently gated
     * @param coord_actv warps of this type in the active subset
     */
    void tick(Cycle now, bool busy, Cycle idle_detect,
              bool coord_peer_gated, std::uint32_t coord_actv);

    /**
     * First cycle >= @p now at which tick() under these (constant)
     * inputs would do anything beyond uniform counter increments: a
     * state transition, a trace event, or a per-cycle regime change
     * (e.g. the coordinated-blackout veto counter starting to count).
     * kNeverCycle when every future tick is uniform. Preconditions
     * match tick(): no pending wakeup request, inputs constant.
     */
    Cycle nextEventCycle(Cycle now, bool busy, Cycle idle_detect,
                         bool coord_peer_gated,
                         std::uint32_t coord_actv) const;

    /**
     * Replay @p n uniform ticks at once. The caller guarantees
     * now + n <= nextEventCycle(now, ...) for the same inputs, so no
     * state transition or trace event falls inside the span; only the
     * per-cycle counters advance. Bit-identical to n tick() calls.
     */
    void fastForward(Cycle n, bool busy, Cycle idle_detect,
                     bool coord_peer_gated, std::uint32_t coord_actv);

    /** Flush the in-progress idle period into the histogram. */
    void finalize(Cycle now);

    /**
     * Attach a trace recorder (null = tracing off) and this domain's
     * identity in the event stream.
     */
    void
    setTrace(trace::Recorder* recorder, std::uint8_t unit,
             std::uint8_t cluster)
    {
        trace_ = recorder;
        trace_unit_ = unit;
        trace_cluster_ = cluster;
    }

    PgState state() const { return state_; }

    /** Cycles left until a gated cluster compensates (0 otherwise). */
    Cycle
    betRemaining() const
    {
        return state_ == PgState::Uncompensated ? bet_remaining_ : 0;
    }

    const PgDomainStats& stats() const { return stats_; }
    const Histogram& idleHistogram() const { return idle_hist_; }

    /** Critical wakeups recorded since the last epoch reset. */
    std::uint32_t epochCriticalWakeups() const { return epoch_critical_; }

    /** Reset the per-epoch critical-wakeup counter. */
    void resetEpochCriticalWakeups() { epoch_critical_ = 0; }

    /** Capture the full state machine for a checkpoint. */
    PgDomainState
    saveState() const
    {
        PgDomainState s;
        s.state = static_cast<std::uint8_t>(state_);
        s.idleCount = idle_count_;
        s.betRemaining = bet_remaining_;
        s.wakeupRemaining = wakeup_remaining_;
        s.compensatedAt = compensated_at_;
        s.wakeupRequested = wakeup_requested_;
        s.idleRun = idle_run_;
        s.epochCritical = epoch_critical_;
        s.stats = stats_;
        s.idleHist = idle_hist_;
        return s;
    }

    /** Rebuild the state machine from a captured PgDomainState. */
    void
    restoreState(const PgDomainState& s)
    {
        state_ = static_cast<PgState>(s.state);
        idle_count_ = s.idleCount;
        bet_remaining_ = s.betRemaining;
        wakeup_remaining_ = s.wakeupRemaining;
        compensated_at_ = s.compensatedAt;
        wakeup_requested_ = s.wakeupRequested;
        idle_run_ = s.idleRun;
        epoch_critical_ = s.epochCritical;
        stats_ = s.stats;
        idle_hist_ = s.idleHist;
    }

  private:
    void enterGated(Cycle now, trace::GateReason reason,
                    std::uint32_t actv);
    void beginWakeup(Cycle now, trace::WakeReason reason);

    /** Record a trace event when a recorder is attached. */
    void
    traceEvent(Cycle now, trace::EventKind kind, std::uint8_t arg = 0,
               std::uint32_t value = 0)
    {
        if (trace_)
            trace_->record(now, kind, trace_unit_, trace_cluster_, arg,
                           value);
    }

    PgParams params_;
    PgState state_ = PgState::On;

    Cycle idle_count_ = 0;       ///< idle-detect counter (On state)
    Cycle bet_remaining_ = 0;    ///< countdown in gated states
    Cycle wakeup_remaining_ = 0; ///< countdown in Wakeup state
    Cycle compensated_at_ = kNeverCycle; ///< cycle BET expired
    bool wakeup_requested_ = false;

    std::uint64_t idle_run_ = 0; ///< current idle-period length

    PgDomainStats stats_;
    Histogram idle_hist_;
    std::uint32_t epoch_critical_ = 0;

    trace::Recorder* trace_ = nullptr;
    std::uint8_t trace_unit_ = trace::kNoUnit;
    std::uint8_t trace_cluster_ = trace::kNoCluster;
};

} // namespace wg

