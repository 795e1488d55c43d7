/**
 * @file
 * Structure-of-arrays warp state for one SM.
 *
 * The per-warp execution context — program counter, decoded i-buffer,
 * two-level residency, outstanding-instruction count — is stored as
 * parallel arrays indexed by warp id, plus word-wide bitmasks over the
 * warp set (one bit per warp, at most kMaxWarpsPerSm warps):
 *
 *   locMask(loc)    warps currently in residency state `loc`
 *   fetchable()     warps whose next fetch() would push at least one
 *                   instruction (buffer not full, program not exhausted)
 *   drainedMask()   warps with nothing fetched, buffered or in flight
 *
 * The masks are maintained incrementally by the mutators (fetch /
 * popHead / setLoc / noteComplete), never recomputed by scans, so the
 * SM's per-cycle phases reduce to word-wide tests. The i-buffer is a
 * flat ring (depth slots per warp) instead of a per-warp std::deque:
 * no node allocation, no pointer chasing, and popHead() cannot free
 * storage out from under an aliasing reference.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arch/program.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "sched/bitmask.hh"

namespace wg {

/** Where a warp currently lives in the two-level scheduler. */
enum class WarpLoc : std::uint8_t {
    Active,   ///< in the active warps set (issue-eligible)
    Pending,  ///< waiting on a long-latency event
    Waiting,  ///< eligible to (re)enter the active set, queued on capacity
    Finished, ///< program complete, all results written back
};

/** Number of distinct WarpLoc values. */
inline constexpr std::size_t kNumWarpLocs = 4;

/**
 * Checkpoint state of one warp slot. The i-buffer ring is not stored:
 * its contents are exactly instructions [pc - bufSize, pc) of the
 * warp's program, so restore() re-decodes them, and the fetchable /
 * drained bits are pure functions of (pc, bufSize, outstanding) at a
 * step boundary, so they are recomputed rather than captured.
 */
struct WarpSlotState {
    std::uint32_t pc = 0;          ///< instructions fetched so far
    std::uint32_t bufSize = 0;     ///< decoded entries buffered
    std::uint32_t outstanding = 0; ///< issued, not yet written back
    std::uint8_t loc = 0;          ///< WarpLoc residency state

    bool operator==(const WarpSlotState&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        v("pc", &WarpSlotState::pc);
        v("bufSize", &WarpSlotState::bufSize);
        v("outstanding", &WarpSlotState::outstanding);
        v("loc", &WarpSlotState::loc);
    }
};

static_assert(visitsEveryMember<WarpSlotState>());

/**
 * SoA state of every warp resident on one SM. The SM owns one of
 * these; schedulers see derived masks through the SchedView.
 */
class WarpSet
{
  public:
    WarpSet() = default;

    /**
     * Bind one warp per program and reset all state. Every warp starts
     * Waiting with an empty i-buffer. Each warp keeps a raw pointer to
     * its program's instructions, so @p programs (or a copy sharing
     * their storage) must outlive this set.
     * @param programs one program per warp (size <= kMaxWarpsPerSm)
     * @param depth decoded i-buffer entries per warp (>= 1)
     */
    void
    init(const std::vector<Program>& programs, std::size_t depth)
    {
        n_ = programs.size();
        depth_ = depth;
        progBase_.resize(n_);
        progSize_.resize(n_);
        ibuf_.assign(n_ * depth_, Instruction{});
        head_.assign(n_, 0);
        size_.assign(n_, 0);
        pc_.assign(n_, 0);
        outstanding_.assign(n_, 0);
        loc_.assign(n_, WarpLoc::Waiting);
        headClass_.assign(n_, UnitClass::Int);
        headRegMask_.assign(n_, 0);
        bufCls_.assign(n_ * kNumUnitClasses, 0);
        locMask_ = {};
        fetchable_ = 0;
        drained_ = 0;
        for (std::size_t w = 0; w < n_; ++w) {
            progBase_[w] = programs[w].instructions().data();
            progSize_[w] =
                static_cast<std::uint32_t>(programs[w].size());
            locMask_[static_cast<std::size_t>(WarpLoc::Waiting)] |=
                warpBit(static_cast<WarpId>(w));
            if (progSize_[w] > 0)
                fetchable_ |= warpBit(static_cast<WarpId>(w));
            else
                drained_ |= warpBit(static_cast<WarpId>(w));
        }
    }

    std::size_t size() const { return n_; }
    std::size_t depth() const { return depth_; }

    // --- residency ---

    WarpLoc loc(WarpId w) const { return loc_[w]; }

    /** Move @p w between residency states (mask-maintaining). */
    void
    setLoc(WarpId w, WarpLoc to)
    {
        locMask_[static_cast<std::size_t>(loc_[w])] &= ~warpBit(w);
        locMask_[static_cast<std::size_t>(to)] |= warpBit(w);
        loc_[w] = to;
    }

    /** Warps currently in residency state @p loc. */
    WarpMask
    locMask(WarpLoc loc) const
    {
        return locMask_[static_cast<std::size_t>(loc)];
    }

    // --- i-buffer ---

    /** @return true when a decoded instruction waits at the head. */
    bool hasHead(WarpId w) const { return size_[w] != 0; }

    /** The head (oldest) decoded instruction; hasHead() must hold. */
    const Instruction&
    head(WarpId w) const
    {
        return ibuf_[w * depth_ + head_[w]];
    }

    /** Cached head-instruction class (valid while hasHead()). */
    UnitClass headClass(WarpId w) const { return headClass_[w]; }

    /** SoA view of the cached head classes (for SchedView::headClass). */
    const UnitClass* headClassData() const { return headClass_.data(); }

    /** Cached head-instruction scoreboard mask (valid while hasHead()). */
    std::uint32_t headRegMask(WarpId w) const { return headRegMask_[w]; }

    /** The @p i-th buffered instruction (0 = head), i < bufSize(). */
    const Instruction&
    buffered(WarpId w, std::size_t i) const
    {
        std::size_t slot = head_[w] + i;
        if (slot >= depth_)
            slot -= depth_;
        return ibuf_[w * depth_ + slot];
    }

    /** Decoded entries currently buffered. */
    std::size_t bufSize(WarpId w) const { return size_[w]; }

    /** Buffered entries of class @p uc (for incremental ACTV counts). */
    std::uint8_t
    bufCount(WarpId w, UnitClass uc) const
    {
        return bufCls_[w * kNumUnitClasses +
                       static_cast<std::size_t>(uc)];
    }

    /**
     * Remove the head after it issues. Updates the per-class buffer
     * counts, the cached head class/regmask, and the fetchable and
     * drained masks.
     */
    void
    popHead(WarpId w)
    {
        --bufCls_[w * kNumUnitClasses +
                  static_cast<std::size_t>(headClass_[w])];
        std::uint8_t next = static_cast<std::uint8_t>(head_[w] + 1);
        head_[w] = next == depth_ ? 0 : next;
        --size_[w];
        if (size_[w] != 0)
            cacheHead(w);
        if (pc_[w] < progSize_[w])
            fetchable_ |= warpBit(w);
        updateDrained(w);
    }

    /**
     * Top up the i-buffer from the program. When @p actv is non-null
     * (the warp is in the active set), each pushed instruction
     * increments actv[class] — the incremental form of the paper's
     * ACTV counters. @return number of instructions pushed.
     */
    std::size_t
    fetch(WarpId w, std::uint32_t* actv = nullptr)
    {
        std::size_t pushed = 0;
        while (size_[w] < depth_ && pc_[w] < progSize_[w]) {
            std::size_t slot = head_[w] + size_[w];
            if (slot >= depth_)
                slot -= depth_;
            const Instruction& instr = progBase_[w][pc_[w]++];
            ibuf_[w * depth_ + slot] = instr;
            ++bufCls_[w * kNumUnitClasses +
                      static_cast<std::size_t>(instr.unit)];
            if (actv)
                ++actv[static_cast<std::size_t>(instr.unit)];
            if (size_[w]++ == 0)
                cacheHead(w);
            ++pushed;
        }
        fetchable_ &= ~warpBit(w);
        if (pushed)
            drained_ &= ~warpBit(w);
        return pushed;
    }

    /**
     * Warps whose next fetch() would push at least one instruction.
     * `(fetchable() & mask) == 0` is the O(1) form of the fast-forward
     * quiescence leg "fetch is a no-op for every warp in mask".
     */
    WarpMask fetchable() const { return fetchable_; }

    /** @return true when fetch(w) would be a no-op. */
    bool fetchDone(WarpId w) const { return !hasWarp(fetchable_, w); }

    // --- in-flight tracking ---

    void
    noteIssue(WarpId w)
    {
        ++outstanding_[w];
        drained_ &= ~warpBit(w); // an in-flight instruction un-drains
    }

    void
    noteComplete(WarpId w)
    {
        --outstanding_[w];
        updateDrained(w);
    }

    std::uint32_t outstanding(WarpId w) const { return outstanding_[w]; }

    /** Warps with all instructions fetched, issued and completed. */
    WarpMask drainedMask() const { return drained_; }

    /** @return true when warp @p w has fully drained. */
    bool drained(WarpId w) const { return hasWarp(drained_, w); }

    /** Fetched-instruction progress (for tests). */
    std::size_t pc(WarpId w) const { return pc_[w]; }

    /** Start of the program storage @p w fetches from (for tests). */
    const Instruction* programData(WarpId w) const { return progBase_[w]; }

    // --- checkpoint/resume ---

    /** Capture warp @p w's slot state for a checkpoint. */
    WarpSlotState
    saveWarp(WarpId w) const
    {
        WarpSlotState s;
        s.pc = pc_[w];
        s.bufSize = static_cast<std::uint32_t>(size_[w]);
        s.outstanding = outstanding_[w];
        s.loc = static_cast<std::uint8_t>(loc_[w]);
        return s;
    }

    /**
     * Rebuild all warp slots from checkpoint state. Must be called on
     * a WarpSet freshly init()-ed against the same programs; re-decodes
     * each ring from the program and re-derives every cached mask.
     * @return false when a slot is inconsistent with its program
     * (pc out of range, buffer larger than pc or depth).
     */
    bool
    restore(const std::vector<WarpSlotState>& slots)
    {
        if (slots.size() != n_)
            return false;
        locMask_ = {};
        fetchable_ = 0;
        drained_ = 0;
        for (std::size_t w = 0; w < n_; ++w) {
            const WarpSlotState& s = slots[w];
            if (s.pc > progSize_[w] || s.bufSize > depth_ ||
                s.bufSize > s.pc ||
                s.loc >= static_cast<std::uint8_t>(kNumWarpLocs)) {
                return false;
            }
            pc_[w] = s.pc;
            head_[w] = 0;
            size_[w] = static_cast<std::uint8_t>(s.bufSize);
            outstanding_[w] = s.outstanding;
            loc_[w] = static_cast<WarpLoc>(s.loc);
            locMask_[s.loc] |= warpBit(static_cast<WarpId>(w));
            for (std::size_t c = 0; c < kNumUnitClasses; ++c)
                bufCls_[w * kNumUnitClasses + c] = 0;
            for (std::size_t i = 0; i < s.bufSize; ++i) {
                const Instruction& instr =
                    progBase_[w][s.pc - s.bufSize + i];
                ibuf_[w * depth_ + i] = instr;
                ++bufCls_[w * kNumUnitClasses +
                          static_cast<std::size_t>(instr.unit)];
            }
            if (s.bufSize != 0)
                cacheHead(static_cast<WarpId>(w));
            if (pc_[w] < progSize_[w] && size_[w] < depth_)
                fetchable_ |= warpBit(static_cast<WarpId>(w));
            updateDrained(static_cast<WarpId>(w));
        }
        return true;
    }

  private:
    /** Re-derive the cached head class/regmask (size_[w] != 0). */
    void
    cacheHead(WarpId w)
    {
        const Instruction& h = ibuf_[w * depth_ + head_[w]];
        headClass_[w] = h.unit;
        headRegMask_[w] = h.regMask();
    }

    void
    updateDrained(WarpId w)
    {
        if (pc_[w] >= progSize_[w] && size_[w] == 0 &&
            outstanding_[w] == 0) {
            drained_ |= warpBit(w);
        } else {
            drained_ &= ~warpBit(w);
        }
    }

    std::size_t n_ = 0;
    std::size_t depth_ = 0;

    std::vector<const Instruction*> progBase_; ///< shared program storage
    std::vector<std::uint32_t> progSize_;

    // i-buffer: one depth_-slot ring per warp, flat.
    std::vector<Instruction> ibuf_;
    std::vector<std::uint8_t> head_; ///< ring start index per warp
    std::vector<std::uint8_t> size_; ///< buffered entries per warp

    std::vector<std::uint32_t> pc_;
    std::vector<std::uint32_t> outstanding_;
    std::vector<WarpLoc> loc_;
    std::vector<UnitClass> headClass_;      ///< cached head class
    std::vector<std::uint32_t> headRegMask_; ///< cached head regMask()
    std::vector<std::uint8_t> bufCls_; ///< per-warp per-class counts

    std::array<WarpMask, kNumWarpLocs> locMask_ = {};
    WarpMask fetchable_ = 0;
    WarpMask drained_ = 0;
};

} // namespace wg
