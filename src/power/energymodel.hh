/**
 * @file
 * Energy accounting over power-gating statistics.
 *
 * All energies are computed post-hoc from cycle/event counters, which
 * keeps the hot simulation loop free of floating-point work and makes
 * the accounting identities easy to test:
 *
 *   staticConsumed + staticSaved == totalCycles * P_static   (per unit)
 *   overhead == gatingEvents * BET * P_static                (by BET def.)
 */

#pragma once

#include <cstdint>

#include "common/fields.hh"
#include "pg/domain.hh"
#include "power/constants.hh"

namespace wg {

/** Energy ledger for one unit (cluster or per-SM block). */
struct UnitEnergy
{
    Joule dynamicE = 0.0;   ///< switching energy of executed work
    Joule staticE = 0.0;    ///< leakage actually consumed
    Joule overheadE = 0.0;  ///< sleep-transistor switching overhead
    Joule staticSaved = 0.0; ///< leakage avoided while gated
    Joule staticNoPg = 0.0; ///< leakage a no-gating baseline would burn

    /** Total energy consumed (what the wall sees). */
    Joule
    total() const
    {
        return dynamicE + staticE + overheadE;
    }

    /**
     * Net static-energy savings ratio relative to the no-gating
     * baseline (Fig. 9's y-axis). Negative when overhead exceeds
     * savings. Returns 0 when the baseline is zero.
     */
    double
    staticSavingsRatio() const
    {
        if (staticNoPg <= 0.0)
            return 0.0;
        return (staticSaved - overheadE) / staticNoPg;
    }

    /** Accumulate another ledger. */
    void add(const UnitEnergy& other) { mergeFields(*this, other); }

    bool operator==(const UnitEnergy&) const = default;

    /** Ledger entries under their exported names (joules). */
    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        v("dynamicJ", &UnitEnergy::dynamicE);
        v("staticJ", &UnitEnergy::staticE);
        v("overheadJ", &UnitEnergy::overheadE);
        v("staticSavedJ", &UnitEnergy::staticSaved);
        v("staticNoPgJ", &UnitEnergy::staticNoPg);
    }
};

static_assert(visitsEveryMember<UnitEnergy>());

/**
 * Computes UnitEnergy ledgers from simulation counters.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const PowerConstants& constants = {});

    /**
     * Ledger for one gateable cluster.
     * @param uc unit class (Int or Fp)
     * @param stats the cluster's power-gating counters
     * @param issues warp instructions the cluster executed
     * @param total_cycles simulated cycles (for the no-PG reference)
     * @param bet break-even time used by the gating controller
     */
    UnitEnergy cluster(UnitClass uc, const PgDomainStats& stats,
                       std::uint64_t issues, Cycle total_cycles,
                       Cycle bet) const;

    /**
     * Ledger for an always-on unit (SFU, LD/ST): full leakage plus
     * per-op dynamic energy.
     */
    UnitEnergy alwaysOn(UnitClass uc, std::uint64_t issues,
                        Cycle total_cycles) const;

    const PowerConstants& constants() const { return constants_; }

  private:
    PowerConstants constants_;
};

} // namespace wg

