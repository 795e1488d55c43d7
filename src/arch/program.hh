/**
 * @file
 * A per-warp program: the straight-line instruction sequence a warp
 * executes. Control flow is pre-resolved (trace-style), matching how the
 * power-gating study treats the instruction stream.
 */

#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "arch/instr.hh"

namespace wg {

/**
 * Immutable instruction sequence executed by one warp, held by a
 * shared handle: copying a Program copies a pointer, so every warp of
 * a CTA references one instruction vector. Also caches the per-class
 * instruction counts for workload-characterisation reports (Fig. 5a),
 * computed once at construction.
 */
class Program
{
  public:
    /** An empty program; allocates nothing. */
    Program() = default;

    /** Build from an instruction vector. */
    explicit Program(std::vector<Instruction> instrs);

    /** @return instruction at @p pc (pc < size()). */
    const Instruction& at(std::size_t pc) const { return body_->instrs[pc]; }

    /** @return number of instructions. */
    std::size_t size() const { return body_ ? body_->instrs.size() : 0; }

    /** @return true when the program has no instructions. */
    bool empty() const { return size() == 0; }

    /** @return count of instructions of unit class @p uc. */
    std::size_t countOf(UnitClass uc) const;

    /** @return the raw instruction vector, shared by every copy. */
    const std::vector<Instruction>& instructions() const;

  private:
    struct Body
    {
        std::vector<Instruction> instrs;
        std::array<std::size_t, kNumUnitClasses> classCounts = {};
    };

    std::shared_ptr<const Body> body_;
};

} // namespace wg
