/**
 * @file
 * Latency/MSHR model of the per-SM memory system.
 *
 * The power-gating study needs the memory system for one thing: to
 * create the long-latency events that move warps between the two-level
 * scheduler's active and pending sets, and to throttle LD/ST issue when
 * too many misses are outstanding. A full cache hierarchy is therefore
 * modelled as (a) a latency distribution per access class and (b) a
 * bounded miss-status-holding-register (MSHR) pool.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "trace/recorder.hh"

namespace wg {

/** Configuration for the memory model. */
struct MemConfig
{
    Cycle hitLatency = 12;      ///< shared-memory / L1-hit latency
    Cycle missLatencyMin = 300; ///< fastest L2/DRAM round trip
    Cycle missLatencyMax = 600; ///< slowest L2/DRAM round trip
    Cycle storeLatency = 8;     ///< store pipeline occupancy
    unsigned mshrLimit = 32;    ///< max outstanding long-latency misses

    /**
     * DRAM-bandwidth proxy: misses are serviced in batches of
     * serviceBatchSize every serviceBatchPeriod cycles (row-buffer hits
     * and multiple channels return data in clumps, not as a uniform
     * trickle). The ratio fixes average per-SM bandwidth: 4 lines per
     * 64 cycles is roughly GTX480's ~177 GB/s shared across 15 SMs.
     * Misses in one batch complete together (one latency draw per
     * batch), which preserves the bursty wakeup pattern real DRAM
     * produces.
     */
    Cycle serviceBatchPeriod = 96;
    unsigned serviceBatchSize = 4;
};

/**
 * Checkpoint state of the memory system: the RNG stream position, the
 * open service batch, the in-flight miss heap (sorted ascending for
 * canonical bytes) and the lifetime counters.
 */
struct MemSystemState {
    RngState rng;                  ///< latency-draw stream position
    Cycle batchTime = 0;           ///< service time of the filling batch
    std::uint32_t batchUsed = 0;   ///< misses already in that batch
    Cycle batchLatency = 0;        ///< latency draw for that batch
    bool batchValid = false;       ///< a batch has been opened
    std::vector<Cycle> inflight;   ///< outstanding miss completions
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t mshrRejects = 0;

    bool operator==(const MemSystemState&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        using S = MemSystemState;
        v("rng", &S::rng);
        v("batchTime", &S::batchTime);
        v("batchUsed", &S::batchUsed);
        v("batchLatency", &S::batchLatency);
        v("batchValid", &S::batchValid);
        v("inflight", &S::inflight);
        v("hits", &S::hits);
        v("misses", &S::misses);
        v("stores", &S::stores);
        v("mshrRejects", &S::mshrRejects);
    }
};

static_assert(visitsEveryMember<MemSystemState>());

/**
 * Per-SM memory system. Accessed by the LD/ST pipeline; tracks
 * outstanding misses and produces per-access latencies.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemConfig& config, Rng rng);

    /**
     * Whether a new access of class @p mem can be accepted this cycle
     * (misses are rejected when the MSHR pool is full).
     */
    bool canAccept(MemClass mem) const;

    /**
     * Start an access; @return its completion cycle.
     * @param now current cycle
     * @param mem access class (must not be MemClass::None)
     * @param is_store stores complete in storeLatency regardless of class
     */
    Cycle access(Cycle now, MemClass mem, bool is_store);

    /** Retire misses whose data returned at or before @p now. */
    void tick(Cycle now);

    /**
     * Cycle of the next in-flight miss return (the next cycle tick()
     * would change MSHR occupancy), or kNeverCycle when nothing is in
     * flight. Used by the event-horizon fast-forward.
     */
    Cycle
    nextEventCycle() const
    {
        return inflight_.empty() ? kNeverCycle : inflight_.top();
    }

    /** @return outstanding long-latency misses. */
    unsigned outstanding() const
    {
        return static_cast<unsigned>(inflight_.size());
    }

    /** Total accesses served, by class (for stats). */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stores() const { return stores_; }

    /**
     * Issue attempts refused for MSHR capacity (every refused attempt
     * counts, so one cycle with several blocked loads adds several).
     */
    std::uint64_t mshrRejects() const { return mshr_rejects_; }

    /** Record an issue attempt rejected for MSHR capacity. */
    void noteReject() { ++mshr_rejects_; }

    /**
     * Bulk form of noteReject: attempts the SM proved would be refused
     * without probing them (blocked candidates later in a cycle, and
     * fast-forwarded stall spans).
     */
    void noteRejects(std::uint64_t count) { mshr_rejects_ += count; }

    /** Attach a trace recorder (null = tracing off). */
    void setTrace(trace::Recorder* recorder) { trace_ = recorder; }

    /** Capture complete model state for a checkpoint. */
    MemSystemState saveState() const;

    /** Rebuild the model mid-flight from a captured MemSystemState. */
    void restoreState(const MemSystemState& s);

  private:
    /** Draw one DRAM round-trip latency. */
    Cycle drawMissLatency();

    MemConfig config_;
    Rng rng_;
    Cycle batch_time_ = 0;      ///< service time of the filling batch
    unsigned batch_used_ = 0;   ///< misses already in that batch
    Cycle batch_latency_ = 0;   ///< latency draw for that batch
    bool batch_valid_ = false;  ///< a batch has been opened
    // Min-heap of completion cycles of outstanding misses.
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        inflight_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t mshr_rejects_ = 0;
    trace::Recorder* trace_ = nullptr;
};

} // namespace wg

