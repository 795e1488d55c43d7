/**
 * @file
 * Streaming-multiprocessor model.
 *
 * The SM wires together the fetch/decode stage (per-warp instruction
 * buffers), the scoreboard, the two-level active/pending warp sets, the
 * warp scheduler (baseline two-level or GATES), the execution clusters
 * (2x INT, 2x FP, SFU, LD/ST), the memory system, and the power-gating
 * controller. One call to step() advances one core-clock cycle.
 *
 * Cycle phasing:
 *   1. writeback  - retire unit pipelines and memory returns; clear
 *                   scoreboard entries; un-block pending warps
 *   2. promote    - refill the active set from waiting warps (LRU fill)
 *   3. fetch      - top up each warp's instruction buffer
 *   4. demote     - active warps blocked on long-latency producers move
 *                   to the pending set; drained warps retire
 *   5. schedule   - build the SchedView, let the scheduler order
 *                   candidates, issue up to issueWidth instructions
 *   6. pg tick    - advance the power-gating state machines with this
 *                   cycle's busy indications
 *
 * The hot path is bitmask/SoA based (DESIGN.md §14): warp state lives
 * in a WarpSet (parallel arrays + residency/fetchable/drained masks),
 * and the SM maintains two derived mask families incrementally instead
 * of re-probing every warp every cycle:
 *
 *   readyByClass_[c]  bit w set iff warp w's head exists, is class c,
 *                     and is scoreboard-ready (residency-independent;
 *                     the view ANDs with the active mask)
 *   blockedLongMask_  bit w set iff warp w's head exists and is blocked
 *                     by a long-latency producer (drives demotion and
 *                     pending-set release)
 *
 * plus actvAgg_, the incremental form of the paper's ACTV counters
 * (decoded i-buffer instructions per class over the active set). The
 * masks change only at events — issue, completion writeback, a fetch
 * that fills an empty buffer — each of which calls refreshWarp() for
 * the one warp it touched.
 */

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "exec/unit.hh"
#include "mem/memsys.hh"
#include "metrics/sampler.hh"
#include "pg/controller.hh"
#include "sched/bitmask.hh"
#include "sched/scheduler.hh"
#include "sched/scoreboard.hh"
#include "sched/warp.hh"
#include "sim/config.hh"
#include "sim/smstats.hh"
#include "sim/snapshot.hh"
#include "trace/recorder.hh"

namespace wg {

/** One streaming multiprocessor. */
class Sm
{
  public:
    /**
     * @param config microarchitecture configuration
     * @param programs one program per resident warp (at most
     *        kMaxWarpsPerSm — the warp bitmasks are one 64-bit word);
     *        the handles are kept, so warps share their storage
     * @param seed per-SM seed (memory-latency stream)
     * @param trace event recorder, or null for tracing off (the
     *        disabled path is a single branch per would-be event)
     * @param sampler epoch metrics sampler, or null for metrics off
     *        (the disabled path is one branch per cycle)
     */
    Sm(const SmConfig& config, std::vector<Program> programs,
       std::uint64_t seed, trace::Recorder* trace = nullptr,
       metrics::EpochSampler* sampler = nullptr);

    /** Advance one cycle. @return true when the SM has drained. */
    bool step();

    /** Run to completion (or maxCycles). @return the statistics. */
    const SmStats& run();

    /**
     * Advance to cycle @p limit (clamped to maxCycles) or completion,
     * whichever comes first, with fast-forward bounded so no span
     * crosses @p limit. Unlike run() this neither warns nor finalizes
     * at maxCycles — the SM stays resumable. Stopping at a cycle an
     * uninterrupted run would have fast-forwarded over is safe: the
     * resumed boundary step replays the quiescent cycle exactly.
     */
    void runUntil(Cycle limit);

    /**
     * Capture complete SM state at a step boundary (between step()
     * calls / runUntil() segments). Restoring the snapshot into an Sm
     * constructed with the same config, programs and seed continues
     * the simulation bit-identically.
     */
    SmSnapshot snapshot() const;

    /**
     * Rebuild mid-run state from @p snap. Must be called on a freshly
     * constructed Sm (same config/programs/seed as the captured one)
     * before any step(). Derived masks and aggregates are recomputed.
     * @return false (with *error set when non-null) when the snapshot
     * is inconsistent with this SM's shape — wrong warp count, invalid
     * residency lists, or an observer section mismatch (the snapshot
     * has a trace/metrics section but this SM has no recorder/sampler
     * attached, or vice versa).
     */
    bool restore(const SmSnapshot& snap, std::string* error = nullptr);

    /** @return true when every warp finished. */
    bool done() const { return done_; }

    /** Current cycle. */
    Cycle now() const { return now_; }

    /** Statistics so far (finalized only after run()/finish()). */
    const SmStats& stats() const { return stats_; }

    /** Finalize statistics (idle-period flush). Idempotent. */
    void finish();

    // --- Introspection for tests and the trace example ---
    const PgController& pg() const { return pg_; }
    const Scheduler& scheduler() const { return *scheduler_; }
    const MemorySystem& memory() const { return mem_; }
    const ExecUnit& intCluster(unsigned i) const { return int_[i]; }
    const ExecUnit& fpCluster(unsigned i) const { return fp_[i]; }
    const ExecUnit& sfuUnit() const { return sfu_; }
    const ExecUnit& ldstUnit() const { return ldst_; }
    const WarpSet& warps() const { return warps_; }
    WarpLoc warpLoc(WarpId w) const { return warps_.loc(w); }
    std::size_t numWarps() const { return warps_.size(); }
    std::size_t activeSetSize() const { return active_.size(); }

    /**
     * Cycles the event-horizon fast-forward skipped (replayed
     * analytically instead of stepped). Diagnostic only — deliberately
     * NOT part of SmStats so metrics and traces stay byte-identical
     * with fast-forward on or off.
     */
    std::uint64_t ffSkippedCycles() const { return ff_skipped_; }

    /** Number of fast-forward spans taken (diagnostic only). */
    std::uint64_t ffSpans() const { return ff_spans_; }

  private:
    void writebackPhase();
    void promotePhase();
    void fetchPhase();
    void demotePhase();
    void buildView(SchedView& view) const;
    void schedulePhase(const SchedView& view);

    /**
     * Recompute warp @p w's bits in readyByClass_ / blockedLongMask_
     * from its cached head regmask. Called only when an event changed
     * the warp's head or its scoreboard word.
     */
    void refreshWarp(WarpId w);

    /**
     * Try to issue @p warp's head instruction. The caller guarantees a
     * ready head (candidates come from the ready masks).
     * @return true on issue.
     */
    bool tryIssue(WarpId warp);

    /** Issue helpers per destination unit kind. */
    bool tryIssueAlu(WarpId warp, const Instruction& instr);
    bool tryIssueSfu(WarpId warp, const Instruction& instr);
    bool tryIssueLdst(WarpId warp, const Instruction& instr);

    /**
     * Post-issue bookkeeping shared by the helpers. Takes the unit
     * class by value — every read of the i-buffer head happens before
     * popHead(), so no reference into popped storage survives it.
     */
    void commitIssue(WarpId warp, UnitClass unit, unsigned cluster);

    /** Record one cycle's MSHR-refused issue attempts (none: no event). */
    void traceRejects(Cycle cycle, std::uint64_t attempts);

    /** Record a warp moving between the two-level scheduler's sets. */
    void traceMigrate(WarpId warp, WarpLoc to);

    /**
     * Event-horizon fast-forward (run() only; step() stays exact).
     * After a quiescent step — nothing issued, no ready head, no
     * promotion or fetch possible — every phase is a pure function of
     * time until the next component event. Compute that horizon and
     * jump there, replaying the skipped span into every counter so the
     * result is bit-identical to stepping cycle by cycle.
     */
    void tryFastForward();

    /** Replay @p n quiescent cycles (the span [now_, now_ + n)). */
    void fastForward(Cycle n, const SchedView& view,
                     std::uint64_t reject_attempts);

    /** Snapshot the live cumulative counters for the epoch sampler. */
    metrics::EpochCounters sampleCounters() const;

    SmConfig config_;
    std::vector<Program> programs_; ///< keeps warps_' storage alive
    WarpSet warps_;
    Scoreboard scoreboard_;
    std::unique_ptr<Scheduler> scheduler_;

    ExecUnit int_[2];
    ExecUnit fp_[2];
    ExecUnit sfu_;
    ExecUnit ldst_;
    MemorySystem mem_;
    PgController pg_;

    /** Active warps in least-recently-issued order (front = LRI). */
    std::vector<WarpId> active_;
    /** Warps eligible to enter the active set, FIFO. */
    std::vector<WarpId> waiting_;
    /** Warps parked on long-latency events (two-level pending set). */
    std::vector<WarpId> pending_;

    /** Ready-head mask per class (see file comment). */
    std::array<WarpMask, kNumUnitClasses> readyByClass_ = {};
    /** Heads blocked by a long-latency producer (see file comment). */
    WarpMask blockedLongMask_ = 0;
    /** Incremental ACTV: buffered instructions per class, active set. */
    std::array<std::uint32_t, kNumUnitClasses> actvAgg_ = {};

    /** Round-robin cluster preference per ALU type (load balancing). */
    std::array<unsigned, 2> rr_cluster_ = {0, 0};

    Cycle now_ = 0;
    /** Current segment's stop cycle: bounds fast-forward horizons so a
     *  runUntil() span never crosses the checkpoint boundary. */
    Cycle run_limit_ = 0;
    bool done_ = false;
    bool finished_stats_ = false;
    std::size_t live_warps_ = 0;

    trace::Recorder* trace_ = nullptr;
    metrics::EpochSampler* sampler_ = nullptr;
    std::uint64_t ldst_idle_run_ = 0; ///< LD/ST idle-period tracker

    std::uint64_t ff_skipped_ = 0; ///< cycles jumped by fast-forward
    std::uint64_t ff_spans_ = 0;   ///< fast-forward spans taken

    /** Warps that issued this cycle (for LRR reordering). */
    std::vector<WarpId> issued_this_cycle_;
    /** View step() built this cycle; reused by tryFastForward. */
    SchedView view_;
    std::vector<Completion> completions_;
    std::vector<WarpId> candidates_;

    SmStats stats_;
};

} // namespace wg
