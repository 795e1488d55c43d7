#include "result.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wg {

const UnitEnergy&
SimResult::energy(UnitClass uc) const
{
    switch (uc) {
      case UnitClass::Int: return intEnergy;
      case UnitClass::Fp: return fpEnergy;
      case UnitClass::Sfu: return sfuEnergy;
      case UnitClass::Ldst: return ldstEnergy;
    }
    panic("SimResult::energy: bad class");
}

const Histogram&
SimResult::idleHist(UnitClass uc) const
{
    switch (uc) {
      case UnitClass::Int: return intIdleHist;
      case UnitClass::Fp: return fpIdleHist;
      default:
        panic("SimResult::idleHist: only INT/FP tracked");
    }
}

PgDomainStats
SimResult::typeStats(UnitClass uc) const
{
    unsigned t = uc == UnitClass::Int ? 0 : 1;
    PgDomainStats out = aggregate.clusters[t][0].pg;
    out.merge(aggregate.clusters[t][1].pg);
    return out;
}

double
SimResult::idleFraction(UnitClass uc) const
{
    if (totalSmCycles == 0)
        return 0.0;
    PgDomainStats s = typeStats(uc);
    double cluster_cycles = 2.0 * static_cast<double>(totalSmCycles);
    return 1.0 - static_cast<double>(s.busyCycles) / cluster_cycles;
}

double
SimResult::compensatedNetFraction(UnitClass uc) const
{
    if (totalSmCycles == 0)
        return 0.0;
    PgDomainStats s = typeStats(uc);
    double cluster_cycles = 2.0 * static_cast<double>(totalSmCycles);
    return (static_cast<double>(s.compCycles) -
            static_cast<double>(s.uncompCycles)) /
           cluster_cycles;
}

std::uint64_t
SimResult::wakeups(UnitClass uc) const
{
    return typeStats(uc).wakeups;
}

double
SimResult::criticalWakeupsPer1k(UnitClass uc) const
{
    if (totalSmCycles == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(typeStats(uc).criticalWakeups) /
           static_cast<double>(totalSmCycles);
}

std::array<double, 3>
SimResult::idleRegions(UnitClass uc, Cycle idle_detect, Cycle bet) const
{
    const Histogram& h = idleHist(uc);
    std::array<double, 3> regions = {0.0, 0.0, 0.0};
    if (h.total() == 0)
        return regions;
    regions[0] = h.fractionBetween(0, idle_detect);
    regions[1] = h.fractionBetween(idle_detect + 1, idle_detect + bet);
    regions[2] = h.fractionAbove(idle_detect + bet);
    return regions;
}

double
SimResult::ipc() const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(aggregate.issuedTotal) /
           static_cast<double>(cycles);
}

void
mergeSmStats(SmStats& into, const SmStats& sm)
{
    // Counters sum and `completed` ANDs (mergeFields); two gauges take
    // the max instead: the peak active-set size and the final
    // idle-detect windows, which SMs adapt independently (the values
    // are typically identical).
    const std::uint32_t active_max =
        std::max(into.activeSizeMax, sm.activeSizeMax);
    std::array<Cycle, 2> final_idle = {};
    for (unsigned t = 0; t < 2; ++t)
        final_idle[t] =
            std::max(into.finalIdleDetect[t], sm.finalIdleDetect[t]);
    mergeFields(into, sm);
    into.activeSizeMax = active_max;
    into.finalIdleDetect = final_idle;
}

void
computeEnergy(SimResult& result)
{
    EnergyModel model(result.config.power);
    const Cycle bet = result.config.sm.pg.breakEven;
    const Cycle cycles = result.totalSmCycles;

    result.intEnergy = UnitEnergy{};
    result.fpEnergy = UnitEnergy{};
    for (unsigned c = 0; c < 2; ++c) {
        const ClusterStats& ic = result.aggregate.clusters[0][c];
        result.intEnergy.add(
            model.cluster(UnitClass::Int, ic.pg, ic.issues, cycles, bet));
        const ClusterStats& fc = result.aggregate.clusters[1][c];
        result.fpEnergy.add(
            model.cluster(UnitClass::Fp, fc.pg, fc.issues, cycles, bet));
    }
    if (result.config.sm.pg.gateSfu) {
        result.sfuEnergy =
            model.cluster(UnitClass::Sfu, result.aggregate.sfuCluster.pg,
                          result.aggregate.sfuIssues, cycles, bet);
    } else {
        result.sfuEnergy = model.alwaysOn(
            UnitClass::Sfu, result.aggregate.sfuIssues, cycles);
    }
    result.ldstEnergy = model.alwaysOn(
        UnitClass::Ldst, result.aggregate.ldstIssues, cycles);
}

} // namespace wg
