#include "registry.hh"

#include <type_traits>

#include "common/fields.hh"

namespace wg::metrics {

namespace {

/**
 * Add every scalar of @p s under `<prefix>.<name>`. Nested structs
 * flatten into the same prefix (a cluster's gating counters sit beside
 * its issue count); histograms are skipped, since a StatSet holds
 * scalars and distributions export separately.
 */
template <class T>
void
appendFields(StatSet& set, const std::string& prefix, const T& s)
{
    T::visitFields([&](const char* name, auto m) {
        using M = std::remove_cvref_t<decltype(s.*m)>;
        if constexpr (Visitable<M>)
            appendFields(set, prefix, s.*m);
        else if constexpr (std::is_arithmetic_v<M>)
            set.set(prefix + "." + name, static_cast<double>(s.*m));
        else
            static_assert(std::is_same_v<M, Histogram>);
    });
}

} // namespace

void
appendPgDomainStats(StatSet& set, const std::string& prefix,
                    const PgDomainStats& s)
{
    appendFields(set, prefix, s);
}

void
appendClusterStats(StatSet& set, const std::string& prefix,
                   const ClusterStats& s)
{
    appendFields(set, prefix, s);
}

void
appendUnitEnergy(StatSet& set, const std::string& prefix,
                 const UnitEnergy& e)
{
    appendFields(set, prefix, e);
    set.set(prefix + ".totalJ", e.total());
    set.set(prefix + ".savingsRatio", e.staticSavingsRatio());
}

void
appendSmStats(StatSet& set, const std::string& prefix, const SmStats& s)
{
    set.set(prefix + ".cycles", static_cast<double>(s.cycles));
    set.set(prefix + ".completed", s.completed ? 1.0 : 0.0);

    set.set(prefix + ".instructions",
            static_cast<double>(s.issuedTotal));
    static const char* kClassNames[kNumUnitClasses] = {"int", "fp",
                                                       "sfu", "ldst"};
    for (std::size_t c = 0; c < kNumUnitClasses; ++c)
        set.set(prefix + ".issued." + kClassNames[c],
                static_cast<double>(s.issuedByClass[c]));

    static const char* kClusterNames[2][2] = {{"int0", "int1"},
                                              {"fp0", "fp1"}};
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < 2; ++c)
            appendClusterStats(set,
                               prefix + ".pg." + kClusterNames[t][c],
                               s.clusters[t][c]);
    appendClusterStats(set, prefix + ".pg.sfu", s.sfuCluster);

    set.set(prefix + ".units.sfuIssues",
            static_cast<double>(s.sfuIssues));
    set.set(prefix + ".units.ldstIssues",
            static_cast<double>(s.ldstIssues));
    set.set(prefix + ".units.sfuBusyCycles",
            static_cast<double>(s.sfuBusyCycles));
    set.set(prefix + ".units.ldstBusyCycles",
            static_cast<double>(s.ldstBusyCycles));

    set.set(prefix + ".sched.activeSizeAccum",
            static_cast<double>(s.activeSizeAccum));
    set.set(prefix + ".sched.activeSizeMax",
            static_cast<double>(s.activeSizeMax));
    set.set(prefix + ".sched.prioritySwitches",
            static_cast<double>(s.prioritySwitches));
    set.set(prefix + ".sched.wakeupRequests",
            static_cast<double>(s.wakeupRequests));

    set.set(prefix + ".mem.hits", static_cast<double>(s.memHits));
    set.set(prefix + ".mem.misses", static_cast<double>(s.memMisses));
    set.set(prefix + ".mem.stores", static_cast<double>(s.memStores));
    set.set(prefix + ".mem.mshrRejects",
            static_cast<double>(s.mshrRejects));

    static const char* kTypeNames[2] = {"int", "fp"};
    for (unsigned t = 0; t < 2; ++t) {
        const std::string p = prefix + ".adaptive." + kTypeNames[t];
        set.set(p + ".finalIdleDetect",
                static_cast<double>(s.finalIdleDetect[t]));
        set.set(p + ".increments",
                static_cast<double>(s.adaptIncrements[t]));
        set.set(p + ".decrements",
                static_cast<double>(s.adaptDecrements[t]));
    }
}

// SimResult is not visitable: toStatSet names its members by hand. A
// new member must be registered below (and carried by resultDoc and
// parseResultDoc in serve/wire.cc) before this count is raised.
static_assert(aggregateArity<SimResult>() == 11);

StatSet
toStatSet(const SimResult& r)
{
    StatSet set;

    // The aggregate is an SmStats whose `cycles` is the per-SM sum;
    // correct the headline entries to the result's semantics below.
    appendSmStats(set, "gpu", r.aggregate);
    set.set("gpu.cycles", static_cast<double>(r.cycles));
    set.set("gpu.totalSmCycles", static_cast<double>(r.totalSmCycles));

    set.set("gpu.ipc", r.ipc());
    set.set("gpu.avgActiveWarps", r.aggregate.avgActiveWarps());
    set.set("gpu.numSms", static_cast<double>(r.smCycles.size()));

    // Per-type rollups (both clusters of the type) plus the derived
    // per-figure fractions, so every CSV/JSON export column has a
    // registry twin.
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        const std::string p = std::string("gpu.pg.") +
                              (uc == UnitClass::Int ? "int" : "fp");
        appendPgDomainStats(set, p, r.typeStats(uc));
        double busy_frac = 0.0;
        if (r.totalSmCycles > 0)
            busy_frac = static_cast<double>(r.typeStats(uc).busyCycles) /
                        (2.0 * static_cast<double>(r.totalSmCycles));
        set.set(p + ".busyFraction", busy_frac);
        set.set(p + ".idleFraction", r.idleFraction(uc));
        set.set(p + ".compensatedNetFraction",
                r.compensatedNetFraction(uc));
        set.set(p + ".criticalWakeupsPer1k",
                r.criticalWakeupsPer1k(uc));
    }

    appendUnitEnergy(set, "gpu.energy.int", r.intEnergy);
    appendUnitEnergy(set, "gpu.energy.fp", r.fpEnergy);
    appendUnitEnergy(set, "gpu.energy.sfu", r.sfuEnergy);
    appendUnitEnergy(set, "gpu.energy.ldst", r.ldstEnergy);

    for (std::size_t s = 0; s < r.smCycles.size(); ++s)
        set.set("sm" + std::to_string(s) + ".cycles",
                static_cast<double>(r.smCycles[s]));

    const PgParams& pg = r.config.sm.pg;
    set.set("config.numSms", static_cast<double>(r.config.numSms));
    set.set("config.seed", static_cast<double>(r.config.seed));
    set.set("config.adaptive", pg.adaptiveIdleDetect ? 1.0 : 0.0);
    set.set("config.gateSfu", pg.gateSfu ? 1.0 : 0.0);
    set.set("config.idleDetect", static_cast<double>(pg.idleDetect));
    set.set("config.breakEven", static_cast<double>(pg.breakEven));
    set.set("config.wakeupDelay", static_cast<double>(pg.wakeupDelay));
    set.set("config.epochLength", static_cast<double>(pg.epochLength));
    return set;
}

} // namespace wg::metrics
